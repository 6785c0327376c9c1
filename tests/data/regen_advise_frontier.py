"""Regenerate tests/data/advise_frontier.json, the pinned advise answers.
Run from the repository root::

    PYTHONPATH=src python tests/data/regen_advise_frontier.py

The file pins four searches bitwise: three 576-candidate spaces shaped
like perfbench's ``advise`` workload, and one small space that exercises
the skip paths (``R > N``, ``d`` below the RAID minimum) under
``rates_method="exact"``.  Regenerate it only when a model change is
deliberate, and review the diff: tests/advise/test_frontier_pinned.py
requires exact equality.
"""

import json
import random
from pathlib import Path

from repro import AdviseRequest, SweepEngine, advise
from repro.core.solvers import SolveOptions
from repro.models import ConfigSpace, ParamAxis, SearchSpace

TARGET = Path(__file__).with_name("advise_frontier.json")

DRIVE_MTTFS = tuple(100_000.0 + 25_000.0 * i for i in range(37))
SCRUB_HOURS = (24.0, 72.0, 168.0, 336.0, 730.0)
NODE_SET_SIZES = (32, 48, 64, 96, 128)


def _shaped_space(seed: int) -> SearchSpace:
    """9 configurations x 4 R x 2 N x 4 drive MTTFs x 2 scrub intervals."""
    rng = random.Random(f"advise:{seed}")
    return SearchSpace(
        configs=ConfigSpace(),
        axes=(
            ParamAxis("redundancy_set_size", tuple(sorted(rng.sample(range(6, 17), 4)))),
            ParamAxis("node_set_size", tuple(sorted(rng.sample(NODE_SET_SIZES, 2)))),
            ParamAxis("drive_mttf_hours", tuple(sorted(rng.sample(DRIVE_MTTFS, 4)))),
            ParamAxis("scrub_interval_hours", tuple(sorted(rng.sample(SCRUB_HOURS, 2)))),
        ),
    )


def _skip_space() -> SearchSpace:
    """R = 12 > N = 8 fails validation; d = 2 is below RAID 6's minimum."""
    return SearchSpace(
        configs=ConfigSpace(),
        axes=(
            ParamAxis("redundancy_set_size", (4, 6, 12)),
            ParamAxis("node_set_size", (8, 24)),
            ParamAxis("drives_per_node", (2, 4, 12)),
            ParamAxis("drive_mttf_hours", (20_000.0, 300_000.0)),
        ),
    )


def cases():
    """``(name, request, rates_method)`` for every pinned search."""
    out = [
        (f"perfbench_seed{seed}", AdviseRequest(space=_shaped_space(seed), seed=seed), "approx")
        for seed in (1, 2, 3)
    ]
    out.append(
        (
            "skips_exact_rates",
            AdviseRequest(space=_skip_space(), seed=7, target_events_per_pb_year=1.0),
            "exact",
        )
    )
    return out


def summarize(result) -> dict:
    """The pinned facts of one search."""
    return {
        "evaluated": result.evaluated,
        "skipped": result.skipped,
        "feasible": result.feasible_count,
        "frontier": [
            {
                "config": c.config.key,
                "params_key": c.params.cache_key(),
                "mttdl_hours": c.result.mttdl_hours,
                "events_per_pb_year": c.result.events_per_pb_year,
                "objectives": list(c.objectives),
                "tie_rank": c.tie_rank,
            }
            for c in result.frontier
        ],
    }


def run_case(request: AdviseRequest, rates_method: str) -> dict:
    engine = SweepEngine(cache=False, options=SolveOptions(rates_method=rates_method))
    return summarize(advise(request, engine=engine))


def main() -> None:
    data = {
        "comment": (
            "Pinned repro.advise answers (counts and every frontier member). "
            "Regenerate only after a deliberate model change, via: "
            "PYTHONPATH=src python tests/data/regen_advise_frontier.py"
        ),
        "cases": [
            {
                "name": name,
                "request": request.to_dict(),
                "rates_method": rates_method,
                "expected": run_case(request, rates_method),
            }
            for name, request, rates_method in cases()
        ],
    }
    TARGET.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TARGET} ({len(data['cases'])} searches)")


if __name__ == "__main__":
    main()
