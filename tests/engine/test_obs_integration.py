"""Engine × observability integration: span trees, bitwise safety,
counter read-through.

The hard guarantees under test:

* tracing never changes a result bit (the engine's core promise extends
  to instrumented runs);
* a sweep grows one span tree: batch, dispatch, then the solve layers;
* the legacy counter attributes (``DiskCache.hits``,
  ``CompiledSpecCache.misses``, ...) read through to the obs registries.
"""

import pytest

import repro
from repro import obs
from repro.engine.sweep import SweepEngine
from repro.models.specs import compiled_cache
from repro.obs.tracer import Tracer


def sweep_pairs(n_points=3):
    """9 configurations x n parameter points."""
    base = repro.Parameters.baseline()
    points = [
        base.replace(drive_mttf_hours=mttf)
        for mttf in (300_000.0, 500_000.0, 750_000.0)[:n_points]
    ]
    return [(c, p) for p in points for c in repro.ALL_CONFIGURATIONS]


def run_engine(traced):
    engine = SweepEngine()
    pairs = sweep_pairs()
    if not traced:
        return engine.evaluate_many(pairs), []
    tracer = Tracer()
    with obs.use_tracer(tracer):
        results = engine.evaluate_many(pairs)
    return results, tracer.finished()


def name_paths(spans):
    """The set of root-to-span name paths (tree shape, count-free)."""
    by_id = {s["span_id"]: s for s in spans}
    paths = set()
    for span in spans:
        parts = []
        node = span
        while node is not None:
            parts.append(node["name"])
            node = by_id.get(node["parent_id"])
        paths.add("/".join(reversed(parts)))
    return paths


class TestBitwiseSafety:
    def test_tracing_does_not_change_results(self):
        plain, _ = run_engine(traced=False)
        traced, spans = run_engine(traced=True)
        assert [r.mttdl_hours for r in plain] == [
            r.mttdl_hours for r in traced
        ]
        assert spans  # and the traced run actually recorded something


class TestSpanTrees:
    def test_serial_tree_shape(self):
        _, spans = run_engine(traced=True)
        paths = name_paths(spans)
        assert "engine.evaluate_many" in paths
        assert "engine.evaluate_many/engine.dispatch" in paths
        assert "engine.evaluate_many/engine.dispatch/solve.prepare" in paths
        assert not any("engine.worker" in p for p in paths)
        assert any(p.endswith("solve.bind") for p in paths)
        assert any(p.endswith("solve.gth") for p in paths)
        # The engine keeps no result cache, so no batch reads one.
        assert not any("engine.cache" in p for p in paths)


class TestCounterReadThrough:
    def test_spec_cache_properties_match_registry(self):
        engine = SweepEngine(jobs=1)
        engine.evaluate_many(sweep_pairs())
        specs = compiled_cache()
        assert specs.hits == specs.metrics.value("core.spec_cache.hits")
        assert specs.misses == specs.metrics.value("core.spec_cache.misses")
        ctx = engine._ctx
        assert ctx.array_hits == ctx.metrics.value("engine.array_memo.hits")
        assert ctx.spec_hits + ctx.spec_misses > 0

    def test_disk_cache_properties_match_registry(self, tmp_path):
        cache = repro.DiskCache(tmp_path / "cache")
        cache.put("abc123", {"mttdl_hours": 1.0})
        assert cache.get("abc123") == {"mttdl_hours": 1.0}
        assert cache.get("facade0") is None
        assert cache.hits == cache.metrics.value("engine.disk_cache.hits") == 1
        assert (
            cache.misses
            == cache.metrics.value("engine.disk_cache.misses")
            == 1
        )

    def test_engine_metrics_snapshot(self):
        engine = SweepEngine(jobs=1)
        pairs = sweep_pairs()
        engine.evaluate_many(pairs)
        flat = engine.metrics_snapshot().to_dict()
        assert flat["engine.points"] == len(pairs)
        assert flat["engine.batches"] == 1
        assert not any(name.startswith("engine.disk_cache") for name in flat)
        # The process-wide compiled-spec registry is merged in as is.
        specs = compiled_cache()
        assert flat["core.spec_cache.hits"] == specs.hits
        assert flat["core.spec_cache.misses"] == specs.misses
        engine.evaluate_many(pairs)
        flat = engine.metrics_snapshot().to_dict()
        assert flat["engine.batches"] == 2
        assert flat["engine.points"] == 2 * len(pairs)


class TestVerboseRemoved:
    def test_verbose_kwarg_is_gone(self):
        # Deprecated in the obs PR; the removal completes the cycle.
        with pytest.raises(TypeError):
            SweepEngine(jobs=1, verbose=True)

    def test_default_does_not_warn(self, recwarn):
        SweepEngine(jobs=1)
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
