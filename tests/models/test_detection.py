"""Tests for the failure-detection-latency extension."""

import json
import math
from pathlib import Path

import pytest

from repro.models import (
    DetectionLatencyModel,
    InternalRaid,
    InternalRaidNodeModel,
    Parameters,
    build_detection_chain,
)


class TestChain:
    def test_state_count(self):
        # 1 + 2t transient states + loss.
        for t in (1, 2, 3):
            chain = build_detection_chain(t, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
            assert chain.num_states == 2 + 2 * t

    def test_undetected_states_have_no_repair(self):
        chain = build_detection_chain(2, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
        successors = chain.successors((1, "u"))
        assert (0, "r") not in successors
        assert successors[(1, "r")] == pytest.approx(10.0)

    def test_repair_edges_only_from_detected(self):
        chain = build_detection_chain(2, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
        assert chain.rate((1, "r"), (0, "r")) == pytest.approx(0.3)
        assert chain.rate((2, "r"), (1, "r")) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_detection_chain(0, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
        with pytest.raises(ValueError):
            build_detection_chain(2, 2, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
        with pytest.raises(ValueError):
            build_detection_chain(2, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 0.0)
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match="detection rate"):
                build_detection_chain(2, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, rate)


class TestModel:
    def test_fast_detection_converges_to_paper(self, baseline):
        """With sub-second detection the chain reproduces the paper's
        zero-latency MTTDL."""
        paper = InternalRaidNodeModel(baseline, InternalRaid.RAID5, 2).mttdl_exact()
        fast = DetectionLatencyModel(
            baseline, InternalRaid.RAID5, 2, detection_hours=1e-4
        ).mttdl_exact()
        assert fast == pytest.approx(paper, rel=1e-3)

    def test_latency_monotonically_hurts(self, baseline):
        values = [
            DetectionLatencyModel(
                baseline, InternalRaid.RAID5, 2, detection_hours=h
            ).mttdl_exact()
            for h in (0.01, 0.1, 1.0, 10.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_penalty_definition(self, baseline):
        model = DetectionLatencyModel(
            baseline, InternalRaid.RAID5, 2, detection_hours=1.0
        )
        assert model.mttdl_penalty() >= 1.0

    def test_latency_comparable_to_rebuild_is_costly(self, baseline):
        """A detection window on the order of the rebuild time roughly
        doubles the exposure window, costing ~2-4x at fault tolerance 2."""
        rebuild_hours = 1.0 / InternalRaidNodeModel(
            baseline, InternalRaid.RAID5, 2
        ).node_rebuild_rate
        model = DetectionLatencyModel(
            baseline, InternalRaid.RAID5, 2, detection_hours=rebuild_hours
        )
        assert 1.5 < model.mttdl_penalty() < 6.0

    def test_validation(self, baseline):
        with pytest.raises(ValueError):
            DetectionLatencyModel(baseline, InternalRaid.RAID5, 2, 0.0)
        for hours in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(ValueError, match="detection_hours"):
                DetectionLatencyModel(baseline, InternalRaid.RAID5, 2, hours)


FIXTURE = Path(__file__).resolve().parents[1] / "data" / "detection_chains.json"


def _label(state):
    return tuple(state) if isinstance(state, list) else state


def _fixture_cases():
    return json.loads(FIXTURE.read_text())["cases"]


class TestFrozenChains:
    """The spec-bound chains reproduce, bit for bit, the generators the
    pre-spec imperative construction produced (frozen in tests/data)."""

    @staticmethod
    def _chain(case):
        if "model" in case:
            spec = case["model"]
            params = Parameters.baseline().replace(**spec["overrides"])
            return DetectionLatencyModel(
                params,
                InternalRaid[spec["raid_level"]],
                spec["fault_tolerance"],
                spec["detection_hours"],
            ).chain()
        args = [
            a if isinstance(a, int) else float.fromhex(a) for a in case["args"]
        ]
        return build_detection_chain(*args)

    @pytest.mark.parametrize(
        "case", _fixture_cases(), ids=lambda case: case["name"]
    )
    def test_matches_fixture(self, case):
        chain = self._chain(case)
        assert chain.states == tuple(_label(s) for s in case["states"])
        assert chain.initial_state == _label(case["initial_state"])
        generator = [
            [float(x).hex() for x in row] for row in chain.generator_matrix()
        ]
        assert generator == case["generator"]

    @pytest.mark.parametrize(
        "case", _fixture_cases(), ids=lambda case: case["name"]
    )
    def test_zero_arrival_point_takes_the_general_path(self, case):
        """With no arrivals the initial state has no positive exit, so the
        compiled partition does not hold: that point is assembled eagerly
        and its initial state is absorbing, as in the frozen generator.
        Every other point binds rates only."""
        chain = self._chain(case)
        general = case["name"] == "zero_arrival_rates"
        assert (chain._compiled is None) is general
        if general:
            assert chain.initial_state in chain.absorbing_states()
            assert chain.mean_time_to_absorption() == 0.0
