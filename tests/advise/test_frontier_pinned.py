"""repro.advise answers pinned bitwise by tests/data/advise_frontier.json.

Each case stores its request as JSON, so the search is rebuilt from the
file alone; counts and every frontier member (configuration, parameter
key, MTTDL, events/PB-year, objectives, tie rank) must match exactly.
Regenerate the file with tests/data/regen_advise_frontier.py only after
a deliberate model change.
"""

import json
from pathlib import Path

import pytest

from repro.advise import AdviseRequest, advise
from repro.core.solvers import SolveOptions
from repro.engine.sweep import SweepEngine

pytestmark = pytest.mark.advise

DATA = json.loads(
    (Path(__file__).parents[1] / "data" / "advise_frontier.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize(
    "case", DATA["cases"], ids=[case["name"] for case in DATA["cases"]]
)
def test_frontier_matches_pinned_answers(case):
    request = AdviseRequest.from_dict(case["request"])
    engine = SweepEngine(
        cache=False, options=SolveOptions(rates_method=case["rates_method"])
    )
    result = advise(request, engine=engine)
    got = {
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
    assert got == case["expected"]
