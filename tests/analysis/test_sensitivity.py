"""Tests for the generic sweep / tornado machinery."""

import pytest

from repro.analysis import sweep, sweep_to_figure, tornado
from repro.analysis.sensitivity import SweepPoint
from repro.models import (
    Configuration,
    InternalRaid,
    Parameters,
    sensitivity_configurations,
)


@pytest.fixture
def configs():
    return [Configuration(InternalRaid.RAID5, 2)]


class TestSweep:
    def test_point_grid(self, baseline, configs):
        points = sweep(
            configs,
            baseline,
            [100_000, 500_000],
            lambda p, x: p.replace(drive_mttf_hours=float(x)),
        )
        assert len(points) == 2
        assert points[0].x == 100_000
        assert points[0].config == configs[0]
        assert points[0].events_per_pb_year > points[1].events_per_pb_year

    def test_meets_target_flag(self, baseline, configs):
        points = sweep(
            configs, baseline, [400_000], lambda p, x: p.replace(node_mttf_hours=float(x))
        )
        assert points[0].meets_target

    def test_multi_config_ordering(self, baseline):
        trio = sensitivity_configurations()
        points = sweep(trio, baseline, [1.0, 5.0], lambda p, x: p.with_link_speed_gbps(x))
        assert len(points) == 6
        assert [p.config for p in points[:3]] == trio

    def test_approx_method_propagates(self, gentle_params, configs):
        exact = sweep(
            configs, gentle_params, [500_000],
            lambda p, x: p.replace(drive_mttf_hours=float(x)), method="analytic",
        )
        approx = sweep(
            configs, gentle_params, [500_000],
            lambda p, x: p.replace(drive_mttf_hours=float(x)), method="closed_form",
        )
        assert approx[0].mttdl_hours == pytest.approx(exact[0].mttdl_hours, rel=0.05)


class TestSweepToFigure:
    def test_groups_by_config_label(self, baseline):
        trio = sensitivity_configurations()
        points = sweep(trio, baseline, [1.0, 5.0, 10.0], lambda p, x: p.with_link_speed_gbps(x))
        fig = sweep_to_figure("t", "x", points)
        assert len(fig.series) == 3
        assert fig.x_values == (1.0, 5.0, 10.0)
        for series in fig.series:
            assert len(series.values) == 3

    def test_custom_label_fn(self, baseline, configs):
        points = sweep(configs, baseline, [1.0, 2.0], lambda p, x: p.with_link_speed_gbps(x))
        fig = sweep_to_figure("t", "x", points, label_fn=lambda p: "custom")
        assert [s.label for s in fig.series] == ["custom"]


class TestTornado:
    def test_rebuild_block_size_has_most_leverage(self, baseline):
        """Section 8: 'the rebuild block size is a controllable parameter
        with the most significant impact on reliability' — among the
        configurable knobs, it tops the tornado."""
        configs = [Configuration(InternalRaid.RAID5, 2)]
        ranges = {
            "rebuild block size": (
                [16, 64, 256],
                lambda p, x: p.with_rebuild_command_kb(x),
            ),
            "node set size": ([16, 64, 256], lambda p, x: p.replace(node_set_size=int(x))),
            "drives per node": ([4, 12, 24], lambda p, x: p.replace(drives_per_node=int(x))),
            "redundancy set size": (
                [4, 8, 16],
                lambda p, x: p.replace(redundancy_set_size=int(x)),
            ),
        }
        entries = tornado(configs, baseline, ranges)
        assert entries[0].parameter == "rebuild block size"
        assert entries[0].leverage_orders > 1.0

    def test_entries_sorted_descending(self, baseline):
        configs = [Configuration(InternalRaid.NONE, 2)]
        ranges = {
            "link": ([1.0, 10.0], lambda p, x: p.with_link_speed_gbps(x)),
            "drive mttf": (
                [100_000, 750_000],
                lambda p, x: p.replace(drive_mttf_hours=float(x)),
            ),
        }
        entries = tornado(configs, baseline, ranges)
        orders = [e.leverage_orders for e in entries]
        assert orders == sorted(orders, reverse=True)

    def test_low_high_are_extremes(self, baseline):
        configs = [Configuration(InternalRaid.NONE, 2)]
        entries = tornado(
            configs,
            baseline,
            {"link": ([1.0, 5.0, 10.0], lambda p, x: p.with_link_speed_gbps(x))},
        )
        entry = entries[0]
        assert entry.low <= entry.high
