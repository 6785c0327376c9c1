"""The unified repro.evaluate() facade."""

import math

import pytest

import repro
from repro import (
    ALL_CONFIGURATIONS,
    Configuration,
    InternalRaid,
    Parameters,
    SweepEngine,
    obs,
)
from repro.core.solvers import SolveOptions
from repro.engine.facade import evaluate
from repro.sim import accelerated_parameters, estimate_mttdl


class TestAnalyticParity:
    @pytest.mark.parametrize("config", ALL_CONFIGURATIONS, ids=lambda c: c.key)
    def test_matches_pre_engine_entry_point(self, config, baseline):
        """repro.evaluate() must equal the old evaluate()/reliability path
        for every one of the paper's nine configurations."""
        new = evaluate(config, baseline)
        old = config.reliability(baseline, "analytic")
        assert new.mttdl_hours == old.mttdl_hours
        assert new.events_per_pb_year == old.events_per_pb_year

    @pytest.mark.solvers
    @pytest.mark.parametrize("config", ALL_CONFIGURATIONS, ids=lambda c: c.key)
    def test_sparse_backend_agrees(self, config, baseline):
        dense = evaluate(config, baseline)
        sparse = evaluate(
            config, baseline, options=SolveOptions(backend="sparse_iterative")
        )
        assert math.isclose(
            sparse.mttdl_hours, dense.mttdl_hours, rel_tol=1e-9
        )

    def test_exact_rates_differ_from_approx(self, baseline):
        config = ALL_CONFIGURATIONS[4]
        approx = evaluate(config, baseline)
        exact = evaluate(
            config, baseline, options=SolveOptions(rates_method="exact")
        )
        assert approx.mttdl_hours != exact.mttdl_hours


class TestSinglePointWork:
    @staticmethod
    def _binds():
        from repro.models.specs import all_family_specs, compiled

        return sum(compiled(s).hits for s in all_family_specs().values())

    @pytest.mark.parametrize(
        "config",
        [c for c in ALL_CONFIGURATIONS if c.internal is not InternalRaid.NONE],
        ids=lambda c: c.key,
    )
    def test_internal_raid_binds_one_chain(self, config, baseline):
        """The default path binds only the node chain; the array chain's
        own MTTDL is never solved because nothing reads it."""
        before = self._binds()
        evaluate(config, baseline)
        assert self._binds() - before == 1


class TestClosedFormParity:
    @pytest.mark.parametrize("config", ALL_CONFIGURATIONS, ids=lambda c: c.key)
    def test_matches_pre_engine_entry_point(self, config, baseline):
        new = evaluate(
            config, baseline, options=SolveOptions(backend="closed_form")
        )
        old = config.reliability(baseline, "closed_form")
        assert new.mttdl_hours == old.mttdl_hours


class TestMonteCarlo:
    def test_matches_estimator_mean(self):
        base = Parameters.with_overrides(node_set_size=12, redundancy_set_size=6)
        acc = accelerated_parameters(base, failure_scale=200.0)
        config = Configuration(InternalRaid.NONE, 1)
        result = evaluate(
            config,
            acc,
            options=SolveOptions(backend="monte_carlo"),
            replicas=10,
            seed=7,
        )
        mc = estimate_mttdl(config, acc, replicas=10, seed=7)
        assert result.mttdl_hours == mc.mean_hours

    def test_rebuild_override_rejected(self, baseline):
        with pytest.raises(ValueError, match="rebuild"):
            evaluate(
                ALL_CONFIGURATIONS[0],
                baseline,
                options=SolveOptions(backend="monte_carlo"),
                rebuild=object(),
            )


class TestDispatcherRoute:
    """Every analytic evaluate, default options included, goes through
    repro.core.solvers.solve and its backend policy."""

    @staticmethod
    def _backends(call):
        with obs.trace() as session:
            call()
        return [
            span["attrs"]["backend"]
            for span in session.spans
            if span["name"] == "solve.backend"
        ]

    def test_default_emits_one_dense_backend_span(self, baseline):
        config = Configuration.from_key("ft2_raid5")
        assert self._backends(lambda: evaluate(config, baseline)) == [
            "dense_gth"
        ]

    def test_auto_policy_applies_to_default_route(self, baseline):
        config = Configuration.from_key("ft3_noraid")
        options = SolveOptions(dense_state_limit=8)
        direct = self._backends(
            lambda: evaluate(config, baseline, options=options)
        )
        engine = SweepEngine(baseline, jobs=1, options=options)
        swept = self._backends(
            lambda: engine.evaluate_many([(config, baseline)])
        )
        assert direct == ["sparse_iterative"]
        assert swept == direct

    def test_method_kwarg_rejected(self, baseline):
        with pytest.raises(TypeError):
            evaluate(ALL_CONFIGURATIONS[0], baseline, method="analytic")


class TestApiSurface:
    def test_exported_from_package_root(self):
        assert repro.evaluate is evaluate

    def test_default_params_is_baseline(self):
        config = ALL_CONFIGURATIONS[0]
        assert (
            evaluate(config).mttdl_hours
            == evaluate(config, Parameters.baseline()).mttdl_hours
        )

    def test_evaluate_all_still_exported(self, baseline):
        pairs = repro.evaluate_all(baseline, ALL_CONFIGURATIONS[:2])
        assert len(pairs) == 2
        config, result = pairs[0]
        assert result.mttdl_hours == config.reliability(baseline).mttdl_hours
