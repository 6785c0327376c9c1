"""Shared helpers for the benchmark harness.

A benchmark with a gate prints its report with :func:`show`, asserts,
and only then calls :func:`archive`, so a failing run never overwrites
the numbers archived under ``benchmarks/results/``.  Benchmarks whose
asserts all come before the report use :func:`emit_text`.
"""

import os
import pathlib
import platform
import subprocess
from typing import Union

import numpy

from repro.analysis import FigureData, format_figure

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def host_facts() -> str:
    """One line naming the host a timing was taken on: CPUs, Python,
    numpy and the checked-out commit ("unknown" outside a git tree,
    "+dirty" when tracked files differ from it)."""
    commit = _git("rev-parse", "--short", "HEAD")
    if commit and _git("status", "--porcelain", "--untracked-files=no"):
        commit += "+dirty"
    return (
        f"host: nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, commit {commit or 'unknown'}"
    )


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
