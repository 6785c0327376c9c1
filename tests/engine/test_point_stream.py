"""The single-point path, frozen bit for bit.

``tests/data/point_stream.json`` holds 300 seeded single-evaluate points
(configuration key plus the five drawn ``Parameters`` fields) with the
answers the dense-generator bind and GTH solve produced, as
``float.hex``.  Every route to a point's answer must reproduce them.
"""

import json
from pathlib import Path

import repro
from repro import Configuration, Parameters, SweepEngine
from repro.models.metrics import ReliabilityResult

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "point_stream.json"


def _points():
    base = Parameters.baseline()
    for entry in json.loads(FIXTURE.read_text())["points"]:
        fields = {
            name: float.fromhex(value) if isinstance(value, str) else value
            for name, value in entry["params"].items()
        }
        yield (
            Configuration.from_key(entry["config"]),
            base.replace(**fields),
            entry["mttdl_hours"],
            entry["events_per_pb_year"],
        )


POINTS = list(_points())


def _hexes(result):
    return result.mttdl_hours.hex(), result.events_per_pb_year.hex()


def test_fixture_covers_every_configuration():
    assert len(POINTS) == 300
    keys = {config.key for config, *_ in POINTS}
    assert keys == {config.key for config in repro.ALL_CONFIGURATIONS}


def test_evaluate_matches_fixture():
    for config, params, mttdl, events in POINTS:
        assert _hexes(repro.evaluate(config, params)) == (mttdl, events), config.key


def test_engine_matches_fixture():
    engine = SweepEngine(jobs=1, cache=False)
    results = engine.evaluate_many([(config, params) for config, params, *_ in POINTS])
    for (config, _, mttdl, events), result in zip(POINTS, results):
        assert _hexes(result) == (mttdl, events), config.key


def test_chain_solve_matches_fixture():
    for config, params, mttdl, events in POINTS:
        value = config.model(params).chain().mean_time_to_absorption()
        result = ReliabilityResult.from_mttdl(value, params)
        assert _hexes(result) == (mttdl, events), config.key
