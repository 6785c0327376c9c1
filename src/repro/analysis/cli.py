"""Command-line entry point: regenerate the paper's figures as tables.

Installed as ``repro-figures``::

    repro-figures                # everything (Figure 13 + sensitivity)
    repro-figures 13 17         # selected figures
    repro-figures --fig 13      # same, flag spelling (repeatable)
    repro-figures --approx      # use the paper's closed forms
    repro-figures --no-cache    # skip the on-disk result cache
    repro-figures --verbose     # report cache/compiled-spec hit rates

    repro-figures --fig 13 --trace run.jsonl --report
                                 # JSONL span trace + per-phase timing tree

The sensitivity figures run through :class:`repro.engine.SweepEngine`;
results are bitwise identical with the cache and tracing on or off.
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
from .figures import (
    figure14_drive_mttf,
    figure15_node_mttf,
    figure16_rebuild_block_size,
    figure17_link_speed,
    figure18_node_set_size,
    figure19_redundancy_set_size,
    figure20_drives_per_node,
)
from .report import format_figure

__all__ = ["main"]

_FIGURES = {
    14: figure14_drive_mttf,
    15: figure15_node_mttf,
    16: figure16_rebuild_block_size,
    17: figure17_link_speed,
    18: figure18_node_set_size,
    19: figure19_redundancy_set_size,
    20: figure20_drives_per_node,
}


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
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (.repro_cache/)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="report cache and compiled-spec hit rates on stderr",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)

    method = "approx" if args.approx else "exact"
    wanted = list(args.figures) + list(args.fig)
    if not wanted:
        wanted = [13] + sorted(_FIGURES)
    unknown = [f for f in wanted if f != 13 and f not in _FIGURES]
    if unknown:
        parser.error(f"unknown figures: {unknown}; choose from 13-20")

    params = apply_param_overrides(Parameters.baseline(), args.set, parser.error)

    engine = SweepEngine(params, cache=not args.no_cache, method=method)
    session = observed_session(args, root="repro-figures")
    with session if session is not None else contextlib.nullcontext():
        if session is not None:
            session.add_metrics_source(engine.metrics_snapshot)
        figures = []
        for number in wanted:
            with obs.span(f"figure.{number}", figure=number):
                if number == 13:
                    figures.append(baseline_figure(run_baseline(params, method)))
                else:
                    figures.append(
                        _FIGURES[number](params, method=method, engine=engine)
                    )

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
