"""Fault injection: damage must degrade to recomputation.

The acceptance bar: corrupted Monte-Carlo estimate-cache entries, a
poisoned process-wide compiled-spec cache and killed Monte-Carlo pool
workers must yield results **bitwise identical** to a serial run.
"""

import logging
import os

import pytest

from repro.engine import DiskCache, SweepEngine
from repro.models import Parameters
from repro.models.configurations import ALL_CONFIGURATIONS, all_configurations
from repro.models.specs import compiled_cache
from repro.runtime import faultpoints
from repro.sim import accelerated_parameters
from repro.sim.monte_carlo import cached_estimate, estimate_payload_valid
from repro.verify import (
    corrupt_cache_dir,
    fault_drill,
    kill_worker_action,
    poison_spec_cache,
)
from repro.verify.faults import CACHE_CORRUPTION_MODES
from repro.verify.oracles import MC_SYSTEM_OVERRIDES

pytestmark = pytest.mark.verify


def _mttdls(engine, pairs):
    return [r.mttdl_hours for r in engine.evaluate_many(pairs)]


@pytest.fixture(scope="module")
def pairs():
    params = Parameters.baseline()
    return [(config, params) for config in ALL_CONFIGURATIONS]


@pytest.fixture(scope="module")
def reference(pairs):
    """The cold, serial, cache-less truth."""
    return _mttdls(SweepEngine(pairs[0][1]), pairs)


class TestFaultpoints:
    def test_fire_without_action_is_a_no_op(self):
        assert faultpoints.fire("nobody-listens") is None

    def test_install_fire_uninstall(self):
        calls = []
        faultpoints.install("unit-test-point", calls.append)
        try:
            assert "unit-test-point" in faultpoints.active()
            faultpoints.fire("unit-test-point", 42)
            assert calls == [42]
        finally:
            faultpoints.uninstall("unit-test-point")
        faultpoints.fire("unit-test-point", 43)
        assert calls == [42]

    def test_injected_context_restores(self):
        with faultpoints.injected("scoped-point", lambda: None):
            assert "scoped-point" in faultpoints.active()
        assert "scoped-point" not in faultpoints.active()

    def test_kill_worker_action_is_deferred(self):
        # Constructing the action must not exit the process.
        action = kill_worker_action(exit_code=3)
        assert callable(action)


class TestCacheCorruption:
    @pytest.mark.parametrize("mode", CACHE_CORRUPTION_MODES)
    def test_corrupt_cache_recomputes_bitwise(self, tmp_path, mode):
        """Warm the Monte-Carlo estimate cache, vandalise its entry,
        re-read: the identical estimate, damage counted, the entry
        overwritten with the good value."""
        serial = _estimate(jobs=1)
        cache = DiskCache(tmp_path, validator=estimate_payload_valid)
        assert _estimate(jobs=1, cache=cache) == serial  # warm
        assert corrupt_cache_dir(tmp_path, mode) == 1
        assert _estimate(jobs=1, cache=cache) == serial
        assert cache.rejected == 1
        # Third read: the overwritten entry is a hit, still exact.
        hits_before = cache.hits
        assert _estimate(jobs=1, cache=cache) == serial
        assert cache.hits - hits_before == 1

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            corrupt_cache_dir(tmp_path, "arson")


def _estimate(jobs, cache=None):
    """The Monte-Carlo oracle's operating point, summarised bitwise."""
    params = accelerated_parameters(
        Parameters.baseline().replace(**MC_SYSTEM_OVERRIDES), 200.0
    )
    mc = cached_estimate(ALL_CONFIGURATIONS[0], params, 8, 0, jobs, cache)
    return (mc.mean_hours, mc.std_error_hours, mc.loss_causes)


class TestKilledWorkers:
    @pytest.fixture
    def forced_pool(self, monkeypatch):
        """Engage the real pool even on a single-CPU host."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def test_pool_falls_back_to_in_process(self, forced_pool):
        """Killing every replica worker at startup must not change a
        digit: the crashed chunks are recomputed in-process."""
        serial = _estimate(jobs=1)
        with faultpoints.injected(
            faultpoints.POOL_WORKER_START, kill_worker_action()
        ):
            observed = _estimate(jobs=2)
        assert observed == serial

    def test_pool_unaffected_without_injection(self, forced_pool):
        assert _estimate(jobs=2) == _estimate(jobs=1)


class TestPoisonedSpecCache:
    def test_poisoned_entries_are_recompiled(self, pairs, reference):
        specs = compiled_cache()
        engine = SweepEngine(pairs[0][1])
        assert _mttdls(engine, pairs) == reference
        originals = dict(specs._chains)
        rebuilds_before = specs.structure_rebuilds
        try:
            poisoned = poison_spec_cache(specs)
            assert poisoned >= len(engine.provenance().spec_hashes) > 0
            assert _mttdls(engine, pairs) == reference
            # Every entry the engine binds was detected, not trusted.
            assert specs.structure_rebuilds - rebuilds_before == len(
                engine.provenance().spec_hashes
            )
        finally:
            specs._chains.update(originals)


class TestFaultDrill:
    def test_full_drill_is_clean(self):
        checked, violations = fault_drill(all_configurations(3), jobs=2)
        assert violations == []
        # 4 corruption modes x 2 passes + killed workers + poisoned specs.
        assert checked == 10

    def test_drill_logs_no_warning(self, monkeypatch, caplog):
        """The drill kills pool workers and damages cache entries on
        purpose; a clean run must not read like an incident."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # engage the pool
        with caplog.at_level(logging.WARNING):
            checked, violations = fault_drill(all_configurations(3), jobs=2)
        assert violations == []
        assert checked == 10
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
