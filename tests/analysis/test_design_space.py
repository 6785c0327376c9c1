"""Design-space search over the paper's redundancy grid.

The conclusion's question — which redundancy configuration meets a given
reliability target — is answered by :func:`repro.advise`.  These tests
run it over the grid of internal RAID level x fault tolerance x
redundancy set size x rebuild block size.
"""

import pytest

from repro import AdviseRequest, CostModel, advise
from repro.advise import dominates
from repro.models import (
    KB,
    ConfigSpace,
    Configuration,
    InternalRaid,
    ParamAxis,
    Parameters,
    SearchSpace,
)

BASE = Parameters.baseline()

AXES = (
    ParamAxis("redundancy_set_size", (6, 8, 12)),
    ParamAxis("rebuild_command_bytes", tuple(kb * KB for kb in (64, 128, 256))),
)


def search(target, configs=ConfigSpace(), axes=AXES):
    request = AdviseRequest(
        space=SearchSpace(configs=configs, axes=axes),
        target_events_per_pb_year=target,
    )
    return advise(request, base_params=BASE)


@pytest.fixture(scope="module")
def paper_target():
    return search(2e-3)


def _overhead(config, r):
    return CostModel().breakdown(config, BASE.replace(redundancy_set_size=r))


class TestOverhead:
    """The overhead objective compounds both redundancy dimensions."""

    def test_cross_node_only(self):
        config = Configuration(InternalRaid.NONE, 2)
        assert _overhead(config, 8).storage_overhead == pytest.approx(8 / 6)

    def test_raid5_compounds(self):
        config = Configuration(InternalRaid.RAID5, 2)
        assert _overhead(config, 8).storage_overhead == pytest.approx(
            8 / 6 * 12 / 11
        )

    def test_raid6_compounds(self):
        config = Configuration(InternalRaid.RAID6, 1)
        assert _overhead(config, 8).storage_overhead == pytest.approx(
            8 / 7 * 12 / 10
        )

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            _overhead(Configuration(InternalRaid.NONE, 3), 3)


class TestEnumeration:
    def test_grid_size(self, paper_target):
        # 3 internal x 3 tolerances x 3 sizes x 3 blocks, no R <= t.
        assert paper_target.evaluated == 81
        assert paper_target.skipped == 0

    def test_invalid_combinations_skipped(self):
        result = search(
            1.0,
            configs=ConfigSpace(fault_tolerances=(6,)),
            axes=(ParamAxis("redundancy_set_size", (6, 8)),),
        )
        # R = 6 <= t = 6 is skipped; only R = 8 survives.
        assert result.skipped == 3
        assert result.evaluated == 3
        assert all(c.params.redundancy_set_size == 8 for c in result.frontier)

    def test_each_candidate_evaluated(self, paper_target):
        assert paper_target.frontier
        for c in paper_target.frontier:
            assert c.result.events_per_pb_year > 0
            assert c.cost.storage_overhead > 1.0


class TestSelection:
    def test_cheapest_meets_target(self, paper_target):
        best = paper_target.recommended
        assert best is not None
        assert best.result.events_per_pb_year < 2e-3
        assert all(
            best.cost.total <= c.cost.total for c in paper_target.frontier
        )

    def test_stricter_target_costs_at_least_as_much(self):
        loose = search(1e-2).recommended
        strict = search(1e-8).recommended
        assert loose is not None and strict is not None
        assert strict.cost.total >= loose.cost.total

    def test_unreachable_target(self):
        result = search(1e-30)
        assert result.recommended is None
        assert result.frontier == ()

    def test_pareto_front_is_nondominated(self, paper_target):
        front = paper_target.frontier
        objectives = [c.objectives for c in front]
        assert objectives == sorted(objectives)
        for a in objectives:
            assert not any(dominates(b, a) for b in objectives)
