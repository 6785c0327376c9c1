"""Cross-package integration tests: the library's pieces agree with each
other end-to-end."""

import math

import pytest

from repro import (
    Configuration,
    InternalRaid,
    PAPER_TARGET_EVENTS_PER_PB_YEAR,
    Parameters,
    evaluate_all,
)
from repro.analysis import run_baseline, sweep
from repro.cluster import BrickStore, Cluster, DataLossError, StripeStore
from repro.core import sample_absorption_times
from repro.models import (
    HOURS_PER_YEAR,
    NoRaidNodeModel,
    mission_survival_probability,
)
from repro.sim import accelerated_parameters, estimate_mttdl


class TestAnalyticStackConsistency:
    def test_configuration_api_matches_analysis_api(self, baseline):
        """The Configuration facade and the baseline report must agree."""
        report = run_baseline(baseline)
        for config, result in evaluate_all(baseline):
            assert report.result_for(config.key).mttdl_hours == pytest.approx(
                result.mttdl_hours
            )

    def test_sweep_at_baseline_matches_direct_evaluation(self, baseline):
        config = Configuration(InternalRaid.RAID5, 2)
        points = sweep(
            [config],
            baseline,
            [baseline.drive_mttf_hours],
            lambda p, x: p.replace(drive_mttf_hours=float(x)),
        )
        assert points[0].events_per_pb_year == pytest.approx(
            config.reliability(baseline).events_per_pb_year
        )

    def test_mission_survival_consistent_with_mttdl(self, baseline):
        """Transient solve and absorption solve describe the same chain."""
        config = Configuration(InternalRaid.NONE, 2)
        chain = config.chain(baseline)
        mttdl = config.mttdl_hours(baseline)
        t = HOURS_PER_YEAR
        survival = mission_survival_probability(chain, t)
        assert survival == pytest.approx(math.exp(-t / mttdl), abs=1e-4)


class TestChainVsSampling:
    def test_gillespie_agrees_with_solver_on_paper_chain(self, baseline):
        """Direct trajectory sampling of the Figure 9 chain reproduces the
        linear-algebra MTTDL (accelerated so paths absorb quickly)."""
        acc = accelerated_parameters(
            baseline.replace(node_set_size=12), failure_scale=300.0
        )
        model = NoRaidNodeModel(acc, 2)
        chain = model.chain()
        analytic = chain.mean_time_to_absorption()
        summary = sample_absorption_times(chain, n=400, seed=9)
        assert summary.contains(analytic, sigmas=4.0)

    def test_physical_simulation_agrees_with_chain(self, baseline):
        """The full stack: event-driven physical simulation ==
        recursively-constructed chain == closed-form ballpark."""
        acc = accelerated_parameters(
            baseline.replace(node_set_size=12), failure_scale=300.0
        )
        config = Configuration(InternalRaid.NONE, 2)
        mc = estimate_mttdl(config, acc, replicas=100, seed=21)
        assert mc.consistent_with(config.mttdl_hours(acc), sigmas=4.0)


class TestBytesAgreeWithModels:
    def test_store_loses_data_exactly_when_model_says_possible(self, baseline):
        """At fault tolerance t, any t node failures are always survivable
        at the byte level; t+1 failures lose exactly the stripes whose
        redundancy sets contain all failed nodes."""
        params = baseline.replace(node_set_size=9, redundancy_set_size=4)
        t = 2
        store = StripeStore(Cluster(params), fault_tolerance=t)
        payloads = {}
        for i in range(40):
            payloads[f"k{i}"] = bytes((i + j) % 251 for j in range(64))
            store.put(f"k{i}", payloads[f"k{i}"])
        store.fail_node(0)
        store.fail_node(1)
        for key, payload in payloads.items():
            assert store.get(key) == payload
        store.fail_node(2)
        for key in payloads:
            critical = {0, 1, 2} <= set(store.info(key).redundancy_set.nodes)
            if critical:
                with pytest.raises(DataLossError):
                    store.get(key)
            else:
                assert store.get(key) == payloads[key]

    def test_brick_store_matrix_matches_configuration_semantics(self, baseline):
        """Internal RAID 5 absorbs one drive failure per brick without
        consuming cross-node tolerance — the load-bearing premise of the
        hierarchical models."""
        params = baseline.replace(
            node_set_size=8, redundancy_set_size=4, drives_per_node=6
        )
        store = BrickStore(
            Cluster(params), fault_tolerance=2, internal=InternalRaid.RAID5
        )
        payloads = {}
        for i in range(20):
            payloads[f"k{i}"] = bytes((3 * i + j) % 256 for j in range(128))
            store.put(f"k{i}", payloads[f"k{i}"])
        # One drive failure in every single brick...
        for node in range(8):
            store.fail_drive(node, node % 6)
        # ...plus two whole-node failures: still zero loss.
        store.fail_node(1)
        store.fail_node(5)
        for key, payload in payloads.items():
            assert store.get(key) == payload
        assert store.data_loss_events == []


class TestTargetSemantics:
    def test_target_equivalence_events_vs_fleet(self, baseline):
        """The 2e-3 events/PB-year threshold and the '100 PB-systems, 5
        years, <1 event' statement are the same criterion."""
        from repro.models import fleet_expected_events, mttdl_hours_for_target

        mttdl_at_target = mttdl_hours_for_target(baseline)
        # A 1-PB system at the same per-PB rate has proportionally more
        # events per system-year, i.e. a shorter MTTDL by the capacity
        # ratio.
        mttdl_1pb = mttdl_at_target * baseline.system_logical_pb
        fleet_events = fleet_expected_events(mttdl_1pb, 100, 5 * HOURS_PER_YEAR)
        assert fleet_events == pytest.approx(1.0, rel=1e-6)
