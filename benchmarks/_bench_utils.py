"""Shared helpers for the benchmark harness.

A benchmark with a gate prints its report with :func:`show`, asserts,
and only then calls :func:`archive`, so a failing run never overwrites
the numbers archived under ``benchmarks/results/``.  Benchmarks whose
asserts all come before the report use :func:`emit_text`.
"""

import pathlib
from typing import Union

from repro.analysis import FigureData, format_figure

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def show(report: Union[FigureData, str]) -> str:
    """Print a report (run pytest with ``-s`` to see it); returns its text."""
    text = report if isinstance(report, str) else format_figure(report)
    print("\n" + text)
    return text


def archive(text: str, filename: str) -> None:
    """Write a report under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(text + "\n", encoding="utf-8")


def emit_text(text: str, filename: str) -> None:
    """Print and archive a free-form benchmark report."""
    archive(show(text), filename)
