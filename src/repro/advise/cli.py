"""``repro-advise`` — search a design space for the Pareto frontier.

Examples::

    # the paper's nine configurations x the Section 6 R sweep, priced
    # with the default cost model against the 2e-3 target:
    repro-advise

    # a bigger search with a budget, JSON + trace artifacts:
    repro-advise --ft 1,2,3 --internal none,raid5,raid6 \\
        --axis redundancy_set_size=6,8,10,12 \\
        --axis node_set_size=32,64 \\
        --axis scrub_interval_hours=168,730 \\
        --budget 2.5e6 --json advise.json --trace advise-trace.jsonl

    # override cost-model rates and the baseline parameters:
    repro-advise --cost drive_cost_per_year=120 --set drives_per_node=24
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Callable, List, Optional, Tuple

from ..cli_common import (
    add_observability_arguments,
    apply_param_overrides,
    observed_session,
)
from ..models.parameters import Parameters
from ..models.space import (
    INTERNAL_BY_NAME,
    ConfigSpace,
    ParamAxis,
    SearchSpace,
    SpaceError,
)
from .cost import CostError, CostModel
from .request import DEFAULT_AXES, AdviseError, AdviseRequest
from .search import AdviseResult, advise

__all__ = ["main"]


def _parse_internal(raw: str, error: Callable[[str], None]) -> Tuple:
    levels = []
    for name in raw.split(","):
        name = name.strip().lower()
        if not name:
            continue
        if name not in INTERNAL_BY_NAME:
            error(
                f"unknown internal RAID level {name!r}; "
                "known: none, raid5, raid6"
            )
        levels.append(INTERNAL_BY_NAME[name])
    return tuple(levels)


def _parse_ints(raw: str, what: str, error: Callable[[str], None]) -> Tuple:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(int(token))
        except ValueError:
            error(f"{what} must be comma-separated integers, got {token!r}")
    return tuple(values)


def _parse_axis(raw: str, error: Callable[[str], None]) -> ParamAxis:
    name, sep, rest = raw.partition("=")
    if not sep or not name:
        error(f"--axis needs NAME=V1,V2,..., got {raw!r}")
    values = []
    for token in rest.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            number = float(token)
        except ValueError:
            error(f"axis {name!r}: {token!r} is not a number")
            raise AssertionError  # unreachable; error() raises
        values.append(int(number) if number == int(number) else number)
    try:
        return ParamAxis(name.strip(), tuple(values))
    except SpaceError as exc:
        error(str(exc))
        raise AssertionError  # unreachable


def _parse_cost(
    assignments: List[str], error: Callable[[str], None]
) -> CostModel:
    overrides = {}
    for raw in assignments:
        name, sep, value = raw.partition("=")
        if not sep:
            error(f"--cost needs FIELD=VALUE, got {raw!r}")
        try:
            overrides[name.strip()] = float(value)
        except ValueError:
            error(f"cost field {name!r}: {value!r} is not a number")
    try:
        return CostModel.from_dict(overrides)
    except CostError as exc:
        error(str(exc))
        raise AssertionError  # unreachable


def format_frontier(result: AdviseResult) -> str:
    """The human-readable frontier table."""
    lines = [
        f"evaluated {result.evaluated} candidates "
        f"({result.skipped} infeasible combinations skipped); "
        f"{result.feasible_count} feasible, "
        f"{len(result.frontier)} on the Pareto frontier "
        f"({result.dominated_count} dominated)",
        "",
        f"{'config':<12} {'R':>3} {'N':>4} {'d':>3} "
        f"{'$/year':>12} {'events/PB-yr':>13} {'overhead':>9}  coords",
    ]
    for c in result.frontier:
        coords = ", ".join(
            f"{name}={value:g}"
            for name, value in c.coords
            if name != "redundancy_set_size"
        )
        marker = " *" if c is result.recommended else ""
        lines.append(
            f"{c.config.key:<12} {c.params.redundancy_set_size:>3} "
            f"{c.params.node_set_size:>4} {c.params.drives_per_node:>3} "
            f"{c.cost.total:>12,.0f} {c.result.events_per_pb_year:>13.3e} "
            f"{c.cost.storage_overhead:>8.2f}x  {coords}{marker}"
        )
    if result.recommended is not None:
        lines.append("")
        lines.append(
            f"recommended (*): {result.recommended.config.label}, "
            f"R={result.recommended.params.redundancy_set_size} — "
            f"${result.recommended.cost.total:,.0f}/year, "
            f"{result.recommended.result.events_per_pb_year:.3e} "
            f"events/PB-yr, "
            f"{result.recommended.cost.storage_overhead:.2f}x overhead"
        )
    else:
        lines.append("")
        lines.append("no feasible candidate meets every constraint")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-advise",
        description=(
            "Search (internal RAID x fault tolerance x parameter axes) "
            "for the Pareto frontier of annual cost vs. reliability vs. "
            "storage overhead, every candidate evaluated through the "
            "memoized sweep engine bitwise-identically to repro.evaluate."
        ),
    )
    parser.add_argument(
        "--internal",
        default="none,raid5,raid6",
        help="comma-separated internal RAID levels (none,raid5,raid6)",
    )
    parser.add_argument(
        "--ft",
        default="1,2,3",
        help="comma-separated cross-node fault tolerances",
    )
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2",
        help=(
            "sweep a Parameters field or derived axis such as "
            "scrub_interval_hours (repeatable; default: "
            "redundancy_set_size=6,8,12)"
        ),
    )
    parser.add_argument(
        "--target",
        type=float,
        default=None,
        help="reliability target in events/PB-year (default: paper's 2e-3)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="maximum annual cost in $/year",
    )
    parser.add_argument(
        "--min-usable-pb",
        type=float,
        default=None,
        help="minimum user-visible capacity in PB",
    )
    parser.add_argument(
        "--cost",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a cost-model rate (repeatable)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="deterministic tie-break seed"
    )
    parser.add_argument(
        "--method",
        default="analytic",
        choices=("analytic", "closed_form"),
        help="evaluation method",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a base parameter (repeatable)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the full result JSON here ('-': stdout)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the frontier table"
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)

    base = apply_param_overrides(Parameters.baseline(), args.set, parser.error)
    internal = _parse_internal(args.internal, parser.error)
    tolerances = _parse_ints(args.ft, "--ft", parser.error)
    axes = (
        tuple(_parse_axis(raw, parser.error) for raw in args.axis)
        if args.axis
        else DEFAULT_AXES
    )
    try:
        space = SearchSpace(
            configs=ConfigSpace(
                internal_levels=internal, fault_tolerances=tolerances
            ),
            axes=axes,
        )
        request_kwargs = dict(
            space=space,
            cost_model=_parse_cost(args.cost, parser.error),
            max_annual_cost=args.budget,
            min_usable_pb=args.min_usable_pb,
            seed=args.seed,
            method=args.method,
        )
        if args.target is not None:
            request_kwargs["target_events_per_pb_year"] = args.target
        request = AdviseRequest(**request_kwargs)
    except (SpaceError, AdviseError, CostError) as exc:
        parser.error(str(exc))

    session = observed_session(args, root="repro-advise")
    with session if session is not None else contextlib.nullcontext():
        from ..engine import SweepEngine

        engine = SweepEngine(base_params=base)
        try:
            result = advise(request, base_params=base, engine=engine)
        except SpaceError as exc:
            parser.error(str(exc))

        payload = result.to_dict()
        if args.json == "-":
            json.dump(payload, sys.stdout, sort_keys=True)
            sys.stdout.write("\n")
        elif args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
        if not args.quiet:
            print(format_frontier(result))
    return 0 if result.frontier else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
