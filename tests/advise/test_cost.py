"""Tests for the optimizer's cost model (repro.advise.cost)."""

import json

import pytest

from repro.advise import CostError, CostModel
from repro.models import Configuration, InternalRaid, Parameters
from repro.models.parameters import HOURS_PER_YEAR
from repro.models.space import storage_overhead

pytestmark = pytest.mark.advise

BASE = Parameters.baseline()


class TestValidation:
    def test_defaults_are_valid(self):
        model = CostModel()
        assert model.drive_cost_per_year == 90.0
        assert model.fixed_cost_per_year == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            -1.0,
            "ninety",
            True,
            None,
            float("nan"),
            float("inf"),
            float("-inf"),
            pytest.param(10 ** 400, id="int-beyond-float-range"),
        ],
    )
    def test_bad_values_name_the_field(self, bad):
        with pytest.raises(CostError) as excinfo:
            CostModel(node_cost_per_year=bad)
        assert excinfo.value.field == "node_cost_per_year"
        assert "node_cost_per_year" in str(excinfo.value)

    def test_values_coerced_to_float(self):
        model = CostModel(drive_cost_per_year=100)
        assert model.drive_cost_per_year == 100.0
        assert isinstance(model.drive_cost_per_year, float)

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(CostError) as excinfo:
            CostModel.from_dict({"drive_cost": 10})
        assert excinfo.value.field == "drive_cost"

    def test_json_round_trip(self):
        model = CostModel(fixed_cost_per_year=123.0)
        payload = json.loads(json.dumps(model.to_dict()))
        assert CostModel.from_dict(payload) == model


class TestBreakdown:
    def test_terms_and_total(self):
        model = CostModel(
            drive_cost_per_year=10.0,
            node_cost_per_year=100.0,
            network_cost_per_gbps_year=5.0,
            repair_traffic_cost_per_tb=1.0,
            fixed_cost_per_year=7.0,
        )
        config = Configuration(InternalRaid.RAID5, 2)
        cost = model.breakdown(config, BASE)
        n, d = BASE.node_set_size, BASE.drives_per_node
        assert cost.drives == 10.0 * n * d
        assert cost.nodes == 100.0 * n
        assert cost.network == 5.0 * n * BASE.link_speed_bps / 1e9
        assert cost.repair == cost.repair_traffic_tb_per_year
        assert cost.total == (
            cost.drives + cost.nodes + cost.network + cost.repair + 7.0
        )
        assert cost.fixed == 7.0

    def test_overhead_and_usable_capacity(self):
        config = Configuration(InternalRaid.RAID6, 2)
        cost = CostModel().breakdown(config, BASE)
        overhead = storage_overhead(
            config, BASE.redundancy_set_size, BASE.drives_per_node
        )
        assert cost.storage_overhead == overhead
        assert cost.usable_pb == BASE.system_raw_bytes / overhead / 1e15

    def test_repair_traffic_node_term(self):
        model = CostModel()
        config = Configuration(InternalRaid.RAID5, 2)
        traffic = model.repair_traffic_bytes_per_year(config, BASE)
        span = BASE.redundancy_set_size - 2 + 1
        node_failures = (
            BASE.node_set_size * HOURS_PER_YEAR / BASE.node_mttf_hours
        )
        assert traffic == node_failures * span * BASE.node_data_bytes

    def test_no_internal_raid_adds_drive_escalations(self):
        model = CostModel()
        raid = Configuration(InternalRaid.RAID5, 2)
        noraid = Configuration(InternalRaid.NONE, 2)
        absorbed = model.repair_traffic_bytes_per_year(raid, BASE)
        escalated = model.repair_traffic_bytes_per_year(noraid, BASE)
        assert escalated > absorbed
        span = BASE.redundancy_set_size - 2 + 1
        drive_failures = (
            BASE.node_set_size
            * BASE.drives_per_node
            * HOURS_PER_YEAR
            / BASE.drive_mttf_hours
        )
        assert escalated == absorbed + (
            drive_failures * span * BASE.drive_data_bytes
        )

    def test_breakdown_serializes(self):
        cost = CostModel().breakdown(Configuration(InternalRaid.NONE, 1), BASE)
        payload = json.loads(json.dumps(cost.to_dict()))
        assert payload["total"] == cost.total
