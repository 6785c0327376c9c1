"""SweepEngine: bitwise equality with the point loop, the in-process-only
``jobs`` knob, the cache-less ``cache`` keyword, and sweeps and grids
built on it."""

import pytest

from repro import ALL_CONFIGURATIONS, Parameters, SweepEngine
from repro.analysis import sweep, sweep_to_figure
from repro.engine import DiskCache
from repro.models import ConfigSpace, InternalRaid, ParamAxis, SearchSpace
from repro.models.configurations import sensitivity_configurations


def _grid_pairs(baseline, n_x=6):
    xs = [50_000.0 * k for k in range(2, 2 + n_x)]
    return [
        (config, baseline.replace(node_mttf_hours=x))
        for x in xs
        for config in ALL_CONFIGURATIONS
    ]


class TestPoolVsSerial:
    def test_serial_matches_pre_engine_loop(self, baseline):
        pairs = _grid_pairs(baseline, n_x=2)
        engine = SweepEngine(jobs=1)
        got = engine.evaluate_many(pairs)
        expected = [c.reliability(p, "analytic") for c, p in pairs]
        assert [r.mttdl_hours for r in got] == [r.mttdl_hours for r in expected]

    def test_closed_form_matches_pre_engine_loop(self, baseline):
        pairs = _grid_pairs(baseline, n_x=2)
        got = SweepEngine().evaluate_many(pairs, method="closed_form")
        expected = [c.reliability(p, "closed_form") for c, p in pairs]
        assert [r.mttdl_hours for r in got] == [r.mttdl_hours for r in expected]

    def test_monte_carlo_rejected(self, baseline):
        with pytest.raises(ValueError, match="monte_carlo"):
            SweepEngine().evaluate_many(
                [(ALL_CONFIGURATIONS[0], baseline)], method="monte_carlo"
            )

    @pytest.mark.parametrize("method", ["exact", "approx"])
    def test_pre_engine_spellings_rejected(self, baseline, method):
        names = "'analytic', 'closed_form' or 'monte_carlo'"
        with pytest.raises(ValueError, match=names):
            SweepEngine(method=method)
        with pytest.raises(ValueError, match=names):
            SweepEngine().evaluate_many(
                [(ALL_CONFIGURATIONS[0], baseline)], method=method
            )


class TestJobs:
    @pytest.mark.parametrize("jobs", [4, 0])
    def test_pool_widths_rejected(self, jobs):
        """The engine always evaluates in-process; asking for a pool is an
        error that points Monte-Carlo users at the pool that remains."""
        with pytest.raises(ValueError, match="in-process") as excinfo:
            SweepEngine(jobs=jobs)
        assert "estimate_mttdl" in str(excinfo.value)

    def test_one_job_accepted(self, baseline):
        pairs = [(c, baseline) for c in ALL_CONFIGURATIONS]
        got = SweepEngine(jobs=1).evaluate_many(pairs)
        assert [r.mttdl_hours for r in got] == [
            r.mttdl_hours for r in SweepEngine().evaluate_many(pairs)
        ]


class TestNoDiskCache:
    """The engine keeps no result cache: ``cache`` accepts only False."""

    def test_cache_false_accepted(self, baseline):
        pairs = _grid_pairs(baseline, n_x=1)
        got = SweepEngine(cache=False).evaluate_many(pairs)
        expected = [c.reliability(p, "analytic") for c, p in pairs]
        assert [r.mttdl_hours for r in got] == [r.mttdl_hours for r in expected]

    @pytest.mark.parametrize("value", [True, "dir", "instance"])
    def test_other_values_rejected(self, value, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = {"dir": tmp_path, "instance": DiskCache(tmp_path)}.get(
            value, value
        )
        with pytest.raises(ValueError, match="no analytic disk cache"):
            SweepEngine(cache=cache)
        assert list(tmp_path.iterdir()) == []

    def test_compiled_specs_shared_between_engines(self, baseline):
        """Specs compile once per process: a second engine binds the
        first one's chains and counts every lookup as a hit."""
        pairs = _grid_pairs(baseline, n_x=1)
        SweepEngine().evaluate_many(pairs)
        fresh = SweepEngine()
        results = fresh.evaluate_many(pairs)
        prov = fresh.provenance()
        assert prov.spec_misses == 0
        assert prov.spec_hits == len(ALL_CONFIGURATIONS)
        expected = [c.reliability(p, "analytic") for c, p in pairs]
        assert [r.mttdl_hours for r in results] == [
            r.mttdl_hours for r in expected
        ]


class TestSweepAndGrid:
    """The engine evaluates point lists; one-axis sweeps come from
    ``repro.analysis.sweep`` and grids from ``SearchSpace.grid``."""

    def test_sweep_result_shape(self, baseline):
        engine = SweepEngine(jobs=1)
        points = sweep(
            sensitivity_configurations(),
            baseline,
            (16, 64),
            lambda p, x: p.replace(node_set_size=x),
            engine=engine,
        )
        result = sweep_to_figure(
            "t",
            "node set size N",
            points,
            axis_name="node_set_size",
            provenance=engine.provenance(),
        )
        assert result.axis_name == "node_set_size"
        assert result.axis_values == (16, 64)
        assert result.x_label == "node set size N"
        assert len(result.series) == 3
        assert all(len(s.values) == 2 for s in result.series)
        assert len(result.points) == 6
        assert result.provenance is not None

    def test_sweep_matches_direct_evaluation(self, baseline):
        points = sweep(
            sensitivity_configurations(),
            baseline,
            (100_000.0, 750_000.0),
            lambda p, x: p.replace(drive_mttf_hours=x),
            engine=SweepEngine(jobs=1),
        )
        for point in points:
            expected = point.config.reliability(
                baseline.replace(drive_mttf_hours=point.x), "analytic"
            )
            assert point.mttdl_hours == expected.mttdl_hours

    def test_axis_transform(self, baseline):
        points = sweep(
            sensitivity_configurations()[:1],
            baseline,
            (1.0, 10.0),
            lambda p, x: p.with_link_speed_gbps(x),
            engine=SweepEngine(jobs=1),
        )
        expected = sensitivity_configurations()[0].reliability(
            baseline.with_link_speed_gbps(1.0), "analytic"
        )
        assert points[0].mttdl_hours == expected.mttdl_hours

    def test_axis_casts_to_field_type(self, baseline):
        applied = ParamAxis("node_set_size", (16.0,)).apply(baseline, 16.0)
        assert applied.node_set_size == 16
        assert isinstance(applied.node_set_size, int)

    def test_grid_covers_product(self, baseline):
        space = SearchSpace(
            configs=ConfigSpace(
                internal_levels=(InternalRaid.NONE,), fault_tolerances=(2, 3)
            ),
            axes=(
                ParamAxis("node_set_size", (16, 64)),
                ParamAxis("drives_per_node", (4, 12)),
            ),
        )
        points, skipped = space.grid(baseline)
        assert skipped == 0
        assert len(points) == 2 * 2 * 2
        results = SweepEngine(jobs=1).evaluate_many(
            [(p.config, p.params) for p in points]
        )
        first = points[0]
        assert first.coords == (("node_set_size", 16), ("drives_per_node", 4))
        for point, result in zip(points, results):
            expected = point.config.reliability(point.params, "analytic")
            assert result.mttdl_hours == expected.mttdl_hours


class TestProvenance:
    def test_counters_accumulate(self, baseline):
        engine = SweepEngine(jobs=1)
        engine.evaluate_many([(c, baseline) for c in ALL_CONFIGURATIONS])
        prov = engine.provenance()
        # One lookup per configuration group; a miss only if it compiled
        # (the compiled-spec cache is process-wide).
        assert prov.spec_hits + prov.spec_misses == len(ALL_CONFIGURATIONS)
        assert "compiled specs" in prov.describe()
        # The provenance names the exact chain structures it solved.
        assert 0 < len(prov.spec_hashes) <= len(ALL_CONFIGURATIONS)
        assert all(len(h) == 64 for h in prov.spec_hashes)

    def test_verbose_kwarg_removed(self, baseline):
        with pytest.raises(TypeError):
            SweepEngine(jobs=1, verbose=True)
