"""Tests for the Pareto search (repro.advise.search) and the request
contract (repro.advise.request)."""

import hashlib
import json

import numpy as np
import pytest

import repro
from repro.advise import (
    AdviseError,
    AdviseRequest,
    CostModel,
    MAX_ADVISE_CANDIDATES,
    advise,
    dominates,
    pareto_indices,
)
from repro.engine.sweep import SweepEngine
from repro.models import (
    ConfigSpace,
    InternalRaid,
    ParamAxis,
    Parameters,
    SearchSpace,
)

pytestmark = pytest.mark.advise

BASE = Parameters.baseline()

SMALL_SPACE = SearchSpace(
    configs=ConfigSpace(
        internal_levels=(InternalRaid.NONE, InternalRaid.RAID5),
        fault_tolerances=(1, 2),
    ),
    axes=(ParamAxis("redundancy_set_size", (6, 8)),),
)


def brute_force_front(vectors):
    """Reference non-dominated set: index i survives iff nothing
    dominates it and no equal vector appears at a smaller index."""
    return [
        i
        for i, a in enumerate(vectors)
        if not any(dominates(b, a) for b in vectors)
        and not any(vectors[j] == a for j in range(i))
    ]


class TestDominance:
    def test_dominates(self):
        assert dominates((1, 1, 1), (2, 2, 2))
        assert dominates((1, 2, 3), (1, 2, 4))
        assert not dominates((1, 2, 3), (1, 2, 3))
        assert not dominates((1, 3, 1), (2, 2, 2))

    @pytest.mark.parametrize("seed", range(8))
    def test_pareto_indices_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        # Draw from a tiny grid so equal vectors and ties actually occur.
        vectors = [
            tuple(float(v) for v in rng.integers(0, 4, size=3))
            for _ in range(60)
        ]
        ranks = [f"{rng.integers(0, 10 ** 9):09d}" for _ in vectors]
        front = pareto_indices(vectors, ranks)
        assert sorted(vectors[i] for i in front) == sorted(
            vectors[i] for i in brute_force_front(vectors)
        )
        # Returned ascending by objective vector, no duplicates.
        chosen = [vectors[i] for i in front]
        assert chosen == sorted(chosen)
        assert len(set(chosen)) == len(chosen)

    def test_equal_vectors_deduped_by_rank(self):
        vectors = [(1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)]
        assert pareto_indices(vectors, ["b", "a", "c"]) == [1]
        assert pareto_indices(vectors, ["a", "b", "c"]) == [0]


class TestRequest:
    def test_defaults(self):
        request = AdviseRequest()
        assert request.space.size() == 27
        assert request.method == "analytic"
        assert request.seed == 0

    def test_method_aliases(self):
        """Only the three method names exist; the pre-engine spellings
        are rejected like any other."""
        for method in ("exact", "approx", "monte-carlo"):
            with pytest.raises(AdviseError, match="method"):
                AdviseRequest(method=method)

    def test_bounds_validated(self):
        with pytest.raises(AdviseError, match="target_events_per_pb_year"):
            AdviseRequest(target_events_per_pb_year=0)
        with pytest.raises(AdviseError, match="max_annual_cost"):
            AdviseRequest(max_annual_cost=-5)
        with pytest.raises(AdviseError, match="seed"):
            AdviseRequest(seed="zero")

    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"),
            float("inf"),
            pytest.param(10 ** 400, id="int-beyond-float-range"),
        ],
    )
    @pytest.mark.parametrize(
        "name", ["target_events_per_pb_year", "max_annual_cost", "min_usable_pb"]
    )
    def test_non_finite_bounds_rejected(self, name, bad):
        with pytest.raises(AdviseError, match=f"{name} must be finite"):
            AdviseRequest.from_dict({name: bad})

    def test_candidate_cap(self):
        big = SearchSpace(
            axes=(
                ParamAxis(
                    "node_set_size",
                    tuple(range(32, 32 + MAX_ADVISE_CANDIDATES // 9 + 1)),
                ),
            )
        )
        with pytest.raises(AdviseError, match="limit"):
            AdviseRequest(space=big)

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(AdviseError, match="budget"):
            AdviseRequest.from_dict({"budget": 100})

    def test_json_round_trip(self):
        request = AdviseRequest(
            space=SMALL_SPACE,
            cost_model=CostModel(fixed_cost_per_year=10.0),
            max_annual_cost=1e6,
            seed=7,
        )
        payload = json.loads(json.dumps(request.to_dict()))
        parsed = AdviseRequest.from_dict(payload)
        assert parsed.to_dict() == request.to_dict()


class TestAdvise:
    def test_search_accounting(self):
        result = advise(AdviseRequest(space=SMALL_SPACE))
        assert result.evaluated == SMALL_SPACE.size()
        assert result.skipped == 0
        assert result.feasible_count <= result.evaluated
        assert (
            result.dominated_count
            == result.feasible_count - len(result.frontier)
        )

    def test_accounting_with_skips_and_infeasible_points(self):
        # R=2 skips against t=2 (R <= t), R=16 > N=8 is rejected by the
        # parameter model, and the reliability target drops some points.
        space = SearchSpace(
            configs=ConfigSpace(fault_tolerances=(1, 2)),
            axes=(
                ParamAxis("node_set_size", (8, 32)),
                ParamAxis("redundancy_set_size", (2, 6, 16)),
            ),
        )
        counter = repro.obs.global_metrics().counter("advise.candidates")
        before = counter.value
        result = advise(AdviseRequest(space=space))
        assert result.skipped > 0
        assert 0 < result.feasible_count < result.evaluated
        assert result.evaluated + result.skipped == space.size()
        assert counter.value - before == result.evaluated
        assert result.recommended in result.frontier
        assert (
            result.dominated_count
            == result.feasible_count - len(result.frontier)
        )

    def test_frontier_reliability_bitwise_equals_evaluate(self):
        result = advise(AdviseRequest(space=SMALL_SPACE))
        assert result.frontier
        for candidate in result.frontier:
            direct = repro.evaluate(candidate.config, candidate.params)
            assert candidate.result.mttdl_hours == direct.mttdl_hours
            assert (
                candidate.result.events_per_pb_year
                == direct.events_per_pb_year
            )

    def test_frontier_members_feasible_and_nondominated(self):
        result = advise(AdviseRequest(space=SMALL_SPACE))
        feasible = [c.objectives for c in result.frontier]
        assert all(c.feasible for c in result.frontier)
        for a in feasible:
            assert not any(dominates(b, a) for b in feasible)

    def test_infeasible_candidates_name_violations(self):
        # An impossible budget makes everything infeasible on that axis.
        result = advise(
            AdviseRequest(space=SMALL_SPACE, max_annual_cost=1e-6)
        )
        assert result.feasible_count == 0
        assert result.frontier == ()
        assert result.recommended is None

    def test_capacity_constraint(self):
        result = advise(AdviseRequest(space=SMALL_SPACE, min_usable_pb=1e9))
        assert result.feasible_count == 0

    def test_drive_guard_skips_degenerate_internal_raid(self):
        space = SearchSpace(
            configs=ConfigSpace(
                internal_levels=(InternalRaid.RAID5, InternalRaid.RAID6),
                fault_tolerances=(1,),
            ),
        )
        result = advise(
            AdviseRequest(space=space),
            base_params=BASE.replace(drives_per_node=2),
        )
        # RAID 5 keeps d=2; RAID 6 needs three drives and is skipped.
        assert result.evaluated == 1
        assert result.skipped == 1

    def test_recommended_is_minimum_feasible(self):
        result = advise(AdviseRequest(space=SMALL_SPACE))
        assert result.recommended in result.frontier
        feasible_objectives = sorted(
            c.to_dict()["objectives"]
            for c in result.frontier
        )
        assert list(result.recommended.objectives) == feasible_objectives[0]

    def test_matches_brute_force_over_every_feasible_point(self):
        # Price and evaluate every point directly, keep the feasible
        # ones, and check the frontier and recommendation against them.
        request = AdviseRequest(
            space=SearchSpace(
                configs=ConfigSpace(fault_tolerances=(1, 2)),
                axes=(
                    ParamAxis("redundancy_set_size", (4, 6, 8)),
                    ParamAxis("drives_per_node", (4, 12)),
                ),
            ),
            max_annual_cost=1.6e5,  # drops the 12-drive nodes
            seed=3,
        )
        feasible = []
        for point in request.space.enumerate(BASE):
            result = repro.evaluate(point.config, point.params)
            cost = request.cost_model.breakdown(point.config, point.params)
            if (
                result.events_per_pb_year
                < request.target_events_per_pb_year
                and cost.total <= request.max_annual_cost
            ):
                material = (
                    f"{request.seed}:{point.config.key}:"
                    f"{point.params.cache_key()}"
                )
                feasible.append(
                    (
                        (
                            cost.total,
                            result.events_per_pb_year,
                            cost.storage_overhead,
                        ),
                        hashlib.sha256(material.encode()).hexdigest(),
                    )
                )
        result = advise(request)
        assert result.feasible_count == len(feasible) > 0
        objectives = [vec for vec, _ in feasible]
        assert [c.objectives for c in result.frontier] == sorted(
            {
                vec
                for vec in objectives
                if not any(dominates(o, vec) for o in objectives)
            }
        )
        best = min(feasible)
        assert (
            result.recommended.objectives,
            result.recommended.tie_rank,
        ) == best

    def test_duplicate_vectors_keep_the_eagerly_ranked_member(self):
        # Rebuilds are disk-bound at every link speed here and the network
        # is free, so points differing only in link speed tie exactly on
        # all three objectives; each frontier member must be the lowest
        # eagerly hashed rank among the feasible points sharing its vector.
        request = AdviseRequest(
            space=SearchSpace(
                configs=ConfigSpace(fault_tolerances=(1, 2)),
                axes=(
                    ParamAxis("redundancy_set_size", (6, 8)),
                    ParamAxis("link_speed_bps", (10e9, 20e9, 40e9)),
                ),
            ),
            cost_model=CostModel(network_cost_per_gbps_year=0.0),
            seed=11,
        )
        eager = {}
        for point in request.space.enumerate(BASE):
            result = repro.evaluate(point.config, point.params)
            if not result.events_per_pb_year < request.target_events_per_pb_year:
                continue
            cost = request.cost_model.breakdown(point.config, point.params)
            vec = (cost.total, result.events_per_pb_year, cost.storage_overhead)
            material = (
                f"{request.seed}:{point.config.key}:{point.params.cache_key()}"
            )
            eager.setdefault(vec, []).append(
                (hashlib.sha256(material.encode()).hexdigest(), point)
            )
        assert any(len(members) == 3 for members in eager.values())
        result = advise(request)
        assert result.frontier
        for candidate in result.frontier:
            rank, point = min(eager[candidate.objectives], key=lambda m: m[0])
            assert candidate.tie_rank == rank
            assert candidate.config == point.config
            assert candidate.params == point.params

    def test_shared_engine_matches_fresh_engine(self):
        request = AdviseRequest(space=SMALL_SPACE)
        engine = SweepEngine(base_params=BASE, jobs=1, cache=False)
        warm = advise(request, engine=engine)
        warm2 = advise(request, engine=engine)
        cold = advise(request)
        for a, b in zip(warm.frontier, cold.frontier):
            assert a.objectives == b.objectives
            assert a.key == b.key
        assert [c.key for c in warm2.frontier] == [
            c.key for c in warm.frontier
        ]
        prov = warm2.provenance
        assert prov.spec_hits > 0

    def test_result_serializes(self):
        result = advise(AdviseRequest(space=SMALL_SPACE))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["kind"] == "repro-advise-result"
        assert payload["evaluated"] == result.evaluated
        assert len(payload["frontier"]) == len(result.frontier)
        assert 0.0 <= payload["provenance"]["spec_hit_rate"] <= 1.0
