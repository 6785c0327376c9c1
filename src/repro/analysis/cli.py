"""Command-line entry point: regenerate the paper's figures as tables.

Installed as ``repro-figures``::

    repro-figures                # everything (Figure 13 + sensitivity)
    repro-figures 13 17         # selected figures
    repro-figures --fig 13      # same, flag spelling (repeatable)
    repro-figures --approx      # use the paper's closed forms
    repro-figures --verbose     # report compiled-spec/memo hit rates

    repro-figures --fig 13 --trace run.jsonl --report
                                 # JSONL span trace + per-phase timing tree

The sensitivity figures run through :class:`repro.engine.SweepEngine`,
all requested figures in one batch; results are bitwise identical with
tracing on or off.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from .. import obs
from ..cli_common import (
    add_observability_arguments,
    apply_param_overrides,
    observed_session,
)
from ..engine.sweep import SweepEngine
from ..models.parameters import Parameters
from .baseline import baseline_figure, run_baseline
from .figures import FIGURES, sensitivity_figures
from .report import format_figure

__all__ = ["main"]

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description=(
            "Regenerate the evaluation figures of 'Reliability for "
            "Networked Storage Nodes' (DSN 2006) as tables."
        ),
    )
    parser.add_argument(
        "figures",
        nargs="*",
        type=int,
        help="figure numbers (13-20); default: all",
    )
    parser.add_argument(
        "--fig",
        action="append",
        type=int,
        default=[],
        metavar="N",
        help="figure number to regenerate (repeatable; merged with the "
        "positional list)",
    )
    parser.add_argument(
        "--approx",
        action="store_true",
        help="use the paper's closed-form approximations instead of the "
        "numeric chain solves",
    )
    parser.add_argument(
        "--format",
        choices=["table", "csv", "json"],
        default="table",
        help="output format (default: aligned tables)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a baseline parameter, e.g. --set node_set_size=128 "
        "or --set drive_mttf_hours=750000 (repeatable)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="report compiled-spec and array-memo hit rates on stderr",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)

    method = "closed_form" if args.approx else "analytic"
    wanted = list(args.figures) + list(args.fig)
    if not wanted:
        wanted = [13] + sorted(FIGURES)
    unknown = [f for f in wanted if f != 13 and f not in FIGURES]
    if unknown:
        parser.error(f"unknown figures: {unknown}; choose from 13-20")

    params = apply_param_overrides(Parameters.baseline(), args.set, parser.error)

    engine = SweepEngine(params, method=method)
    session = observed_session(args, root="repro-figures")
    with session if session is not None else contextlib.nullcontext():
        if session is not None:
            session.add_metrics_source(engine.metrics_snapshot)
        by_number = {}
        if 13 in wanted:
            with obs.span("figure.13", figure=13):
                by_number[13] = baseline_figure(run_baseline(params, method))
        swept = [n for n in dict.fromkeys(wanted) if n != 13]
        if swept:
            # Every sensitivity figure's points in one engine batch.
            with obs.span("figures.sensitivity", figures=len(swept)):
                chosen = [FIGURES[n] for n in swept]
                results = sensitivity_figures(chosen, params, method, engine)
            by_number.update(zip(swept, results))
        figures = [by_number[number] for number in wanted]

        with obs.span("figures.render", format=args.format):
            if args.format == "json":
                import json

                rendered = json.dumps([f.to_dict() for f in figures], indent=2)
            elif args.format == "csv":
                rendered = "\n".join(f.to_csv() for f in figures)
            else:
                rendered = "\n\n".join(format_figure(f) for f in figures)
        print(rendered)
        if args.verbose:
            obs.reporter().emit(
                "[repro.engine] " + engine.provenance(method).describe()
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
