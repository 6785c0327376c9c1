"""Command-line entry point: run the verification battery.

Installed as ``repro-verify``::

    repro-verify --smoke             # fast: all invariants, no Monte Carlo
    repro-verify                     # full: adds the seeded simulation oracle
    repro-verify --list              # show registered invariants and exit
    repro-verify --only raid-level-dominance --only mttdl-monotone-nft
    repro-verify --json report.json  # machine-readable violations report
    repro-verify --set node_set_size=128
    repro-verify --jobs 4            # fan Monte-Carlo replicas out
    repro-verify --smoke --trace verify.jsonl --report
                                     # per-invariant span trace + timing tree

Exit status is 0 when every invariant held and 1 when anything was
violated, so the command slots directly into CI.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from ..cli_common import (
    add_observability_arguments,
    apply_param_overrides,
    observed_session,
)
from ..models.parameters import Parameters
from .lattice import make_context
from .registry import REGISTRY

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description=(
            "Check the paper-derived invariants, cross-method oracles and "
            "engine fault-degradation guarantees across the nine "
            "configurations and a parameter lattice."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast pass: every deterministic invariant, Monte Carlo off",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=200,
        metavar="N",
        help="Monte-Carlo replicas for the simulation oracle "
        "(default 200; ignored under --smoke)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="master seed for every stochastic check (default 0)",
    )
    parser.add_argument(
        "--sigmas",
        type=float,
        default=5.0,
        metavar="K",
        help="Monte-Carlo agreement band in standard errors (default 5)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="Monte-Carlo replica fan-out width (default 1)",
    )
    parser.add_argument(
        "--max-fault-tolerance",
        type=int,
        default=3,
        metavar="T",
        help="audit configurations up to this cross-node tolerance "
        "(default 3: the paper's nine)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="NAME",
        help="run only the named invariant (repeatable)",
    )
    parser.add_argument(
        "--tag",
        action="append",
        default=[],
        metavar="TAG",
        help="run only invariants carrying TAG (repeatable)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a baseline parameter the lattice grows from "
        "(repeatable)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the machine-readable report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered invariants and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the human-readable report on stdout",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        width = max((len(inv.name) for inv in REGISTRY), default=0)
        for inv in REGISTRY:
            tags = ",".join(inv.tags)
            print(f"{inv.name:<{width}}  [{tags}]  {inv.description}")
        return 0

    base = apply_param_overrides(Parameters.baseline(), args.set, parser.error)
    ctx = make_context(
        base,
        mc_jobs=args.jobs,
        mc_replicas=0 if args.smoke else max(0, args.replicas),
        mc_seed=args.seed,
        mc_sigmas=args.sigmas,
        max_fault_tolerance=args.max_fault_tolerance,
    )
    session = observed_session(args, root="repro-verify")
    with session if session is not None else contextlib.nullcontext():
        if session is not None:
            session.add_metrics_source(ctx.engine.metrics_snapshot)
        try:
            report = REGISTRY.run(
                ctx, names=args.only or None, tags=args.tag or None
            )
        except KeyError as exc:
            parser.error(str(exc.args[0] if exc.args else exc))

    if not args.quiet:
        print(report.format_text())
    if args.json == "-":
        print(report.to_json())
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        if not args.quiet:
            print(f"report written to {args.json}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
