#!/usr/bin/env python
"""Design-space exploration for user-configurable reliability goals.

The paper's conclusion notes that the closed-form solutions "may be used
to determine redundancy configurations for a spectrum of reliability
targets".  This example does exactly that with :func:`repro.advise`:
search the configuration grid — internal RAID level, cross-node fault
tolerance, redundancy set size, rebuild block size — and report the
design with the lowest storage overhead meeting each of several
targets, plus the Pareto frontier of annual cost, reliability and
storage overhead at the paper's target.

Run:  python examples/design_explorer.py
"""

from repro import (
    PAPER_TARGET_EVENTS_PER_PB_YEAR,
    AdviseRequest,
    ConfigSpace,
    ParamAxis,
    SearchSpace,
    SweepEngine,
    advise,
)
from repro.models import KB

SPACE = SearchSpace(
    configs=ConfigSpace(),  # no internal RAID / RAID 5 / RAID 6 x FT 1-3
    axes=(
        ParamAxis("redundancy_set_size", (6, 8, 12)),
        ParamAxis("rebuild_command_bytes", tuple(kb * KB for kb in (64, 128, 256))),
    ),
)

TARGETS = (1e-1, 1e-2, 2e-3, 1e-4, 1e-6, 1e-8)


def describe(candidate) -> str:
    return (
        f"{candidate.config.label:<24} "
        f"R={candidate.params.redundancy_set_size:<3} "
        f"rebuild={candidate.params.rebuild_command_bytes // KB:>3} KB  "
        f"overhead={candidate.cost.storage_overhead:5.2f}x  "
        f"${candidate.cost.total:,.0f}/yr  "
        f"events/PB-yr={candidate.result.events_per_pb_year:.2e}"
    )


def main() -> None:
    # One engine for every search: later searches re-bind the chains the
    # first one compiled.
    engine = SweepEngine()
    results = {
        target: advise(
            AdviseRequest(space=SPACE, target_events_per_pb_year=target),
            engine=engine,
        )
        for target in TARGETS + (PAPER_TARGET_EVENTS_PER_PB_YEAR,)
    }
    print(f"evaluated {results[TARGETS[0]].evaluated} candidate designs\n")

    print(f"{'target (events/PB-yr)':>22}   lowest-overhead design meeting it")
    for target in TARGETS:
        # The lowest (overhead, events) feasible design is never
        # dominated, so the frontier holds it.
        best = min(
            results[target].frontier,
            key=lambda c: (c.cost.storage_overhead, c.result.events_per_pb_year),
            default=None,
        )
        if best is None:
            print(f"{target:>22.0e}   (none in the searched grid)")
        else:
            print(f"{target:>22.0e}   {describe(best)}")

    paper = results[PAPER_TARGET_EVENTS_PER_PB_YEAR]
    print(
        f"\nPareto frontier at the paper's target "
        f"({PAPER_TARGET_EVENTS_PER_PB_YEAR:g} events/PB-yr; "
        "cost vs reliability vs overhead):"
    )
    for candidate in paper.frontier:
        print("  " + describe(candidate))


if __name__ == "__main__":
    main()
