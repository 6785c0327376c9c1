"""Solver layer: method normalization, batched solves, chunk evaluation."""

import pytest

from repro import ALL_CONFIGURATIONS, Parameters
from repro.engine import evaluate_chunk, mttdl_batched, normalize_method
from repro.engine.solver import SolveContext


class TestNormalizeMethod:
    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("analytic", "analytic"),
            ("closed_form", "closed_form"),
            ("monte_carlo", "monte_carlo"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert normalize_method(alias) == canonical

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            normalize_method("simulation")

    @pytest.mark.parametrize("spelling", ["exact", "approx"])
    def test_pre_engine_spellings_rejected(self, spelling):
        with pytest.raises(
            ValueError, match="'analytic', 'closed_form' or 'monte_carlo'"
        ):
            normalize_method(spelling)


class TestMttdlBatched:
    def test_bitwise_equal_to_scalar_solves(self, baseline):
        """Stacked GTH over mixed structures reproduces every chain's own
        mean_time_to_absorption to the last bit."""
        chains = [c.chain(baseline) for c in ALL_CONFIGURATIONS]
        batched = mttdl_batched(chains)
        scalar = [chain.mean_time_to_absorption() for chain in chains]
        assert batched == scalar

    def test_mixed_parameter_points(self, baseline):
        points = [
            baseline,
            baseline.replace(node_mttf_hours=50_000.0),
            baseline.replace(drive_mttf_hours=750_000.0),
        ]
        chains = [c.chain(p) for p in points for c in ALL_CONFIGURATIONS[:3]]
        assert mttdl_batched(chains) == [
            chain.mean_time_to_absorption() for chain in chains
        ]


class TestEvaluateChunk:
    def test_analytic_matches_reliability(self, baseline):
        tasks = [(c, baseline, "analytic") for c in ALL_CONFIGURATIONS]
        mttdls = evaluate_chunk(tasks)
        expected = [c.mttdl_hours(baseline, "analytic") for c in ALL_CONFIGURATIONS]
        assert mttdls == expected

    def test_closed_form_matches_reliability(self, baseline):
        tasks = [(c, baseline, "closed_form") for c in ALL_CONFIGURATIONS]
        mttdls = evaluate_chunk(tasks)
        expected = [c.mttdl_hours(baseline, "closed_form") for c in ALL_CONFIGURATIONS]
        assert mttdls == expected

    def test_memo_reuse_does_not_change_results(self, baseline):
        """A context warm from other points returns the same floats as a
        cold one."""
        points = [baseline.replace(node_mttf_hours=float(m)) for m in
                  (100_000, 200_000, 300_000)]
        tasks = [(c, p, "analytic") for p in points for c in ALL_CONFIGURATIONS]
        warm_ctx = SolveContext()
        evaluate_chunk(tasks, warm_ctx)  # warm the memos
        warm = evaluate_chunk(tasks, warm_ctx)
        cold = evaluate_chunk(tasks, SolveContext())
        assert warm == cold
        assert warm_ctx.spec_hits > 0
        assert warm_ctx.array_hits > 0

    def test_monte_carlo_rejected(self, baseline):
        with pytest.raises(ValueError):
            evaluate_chunk([(ALL_CONFIGURATIONS[0], baseline, "monte_carlo")])
