"""Tests for the no-internal-RAID chains (Figures 8-10 and beyond)."""

import numpy as np
import pytest

from repro.models import (
    NoRaidNodeModel,
    Parameters,
    build_no_raid_chain,
    h_parameters,
)

ARGS = dict(
    n=16,
    d=4,
    node_failure_rate=1e-6,
    drive_failure_rate=2e-6,
    node_rebuild_rate=0.3,
    drive_rebuild_rate=3.0,
)


class TestFigure8:
    def test_states(self):
        chain = build_no_raid_chain(1, **ARGS, h={"N": 0.01, "d": 0.002})
        assert set(chain.states) == {"0", "N", "d", "loss"}

    def test_rates(self):
        h_n, h_d = 0.01, 0.002
        chain = build_no_raid_chain(1, **ARGS, h={"N": h_n, "d": h_d})
        n, d = ARGS["n"], ARGS["d"]
        lam_n, lam_d = ARGS["node_failure_rate"], ARGS["drive_failure_rate"]
        assert chain.rate("0", "N") == pytest.approx(n * lam_n * (1 - h_n))
        assert chain.rate("0", "d") == pytest.approx(n * d * lam_d * (1 - h_d))
        assert chain.rate("0", "loss") == pytest.approx(
            n * (lam_n * h_n + d * lam_d * h_d)
        )
        second = (n - 1) * (lam_n + d * lam_d)
        assert chain.rate("N", "loss") == pytest.approx(second)
        assert chain.rate("d", "loss") == pytest.approx(second)
        assert chain.rate("N", "0") == pytest.approx(ARGS["node_rebuild_rate"])
        assert chain.rate("d", "0") == pytest.approx(ARGS["drive_rebuild_rate"])


class TestFigure9:
    def test_states(self):
        h = {w: 0.001 for w in ("NN", "Nd", "dN", "dd")}
        chain = build_no_raid_chain(2, **ARGS, h=h)
        assert chain.num_states == 8  # 7 transient + loss

    def test_h_split_on_critical_transitions(self):
        h = {"NN": 0.4, "Nd": 0.3, "dN": 0.2, "dd": 0.1}
        chain = build_no_raid_chain(2, **ARGS, h=h)
        n, d = ARGS["n"], ARGS["d"]
        lam_n, lam_d = ARGS["node_failure_rate"], ARGS["drive_failure_rate"]
        assert chain.rate("N0", "NN") == pytest.approx((n - 1) * lam_n * 0.6)
        assert chain.rate("N0", "Nd") == pytest.approx((n - 1) * d * lam_d * 0.7)
        assert chain.rate("N0", "loss") == pytest.approx(
            (n - 1) * (lam_n * 0.4 + d * lam_d * 0.3)
        )
        assert chain.rate("d0", "loss") == pytest.approx(
            (n - 1) * (lam_n * 0.2 + d * lam_d * 0.1)
        )

    def test_leaf_loss_rates(self):
        h = {w: 0.0 for w in ("NN", "Nd", "dN", "dd")}
        chain = build_no_raid_chain(2, **ARGS, h=h)
        n, d = ARGS["n"], ARGS["d"]
        third = (n - 2) * (ARGS["node_failure_rate"] + d * ARGS["drive_failure_rate"])
        for leaf in ("NN", "Nd", "dN", "dd"):
            assert chain.rate(leaf, "loss") == pytest.approx(third)

    def test_lifo_repair_edges(self):
        h = {w: 0.0 for w in ("NN", "Nd", "dN", "dd")}
        chain = build_no_raid_chain(2, **ARGS, h=h)
        mu_n, mu_d = ARGS["node_rebuild_rate"], ARGS["drive_rebuild_rate"]
        # The most recent failure is repaired first.
        assert chain.rate("Nd", "N0") == pytest.approx(mu_d)
        assert chain.rate("dN", "d0") == pytest.approx(mu_n)

    def test_missing_h_rejected(self):
        with pytest.raises(ValueError):
            build_no_raid_chain(2, **ARGS, h={"NN": 0.1})


class TestFigure10:
    def test_states(self):
        h = {w: 0.0 for w in h_parameters(Parameters.baseline(), 3)}
        chain = build_no_raid_chain(3, **ARGS, h=h)
        assert chain.num_states == 16  # 15 transient + loss

    def test_fourth_failure_rate(self):
        h = {w: 0.0 for w in h_parameters(Parameters.baseline(), 3)}
        chain = build_no_raid_chain(3, **ARGS, h=h)
        n, d = ARGS["n"], ARGS["d"]
        fourth = (n - 3) * (ARGS["node_failure_rate"] + d * ARGS["drive_failure_rate"])
        for leaf in ("NNN", "NdN", "ddd", "dNd"):
            assert chain.rate(leaf, "loss") == pytest.approx(fourth)


class TestModel:
    def test_mttdl_ordering(self, baseline):
        values = [NoRaidNodeModel(baseline, t).mttdl_exact() for t in (1, 2, 3)]
        assert values[0] < values[1] < values[2]

    def test_invalid_tolerance(self, baseline):
        with pytest.raises(ValueError):
            NoRaidNodeModel(baseline, 0)
        with pytest.raises(ValueError):
            NoRaidNodeModel(baseline, -1)

    def test_h_parameters_passed_through(self, baseline):
        model = NoRaidNodeModel(baseline, 2)
        assert model.hard_error_parameters() == h_parameters(baseline, 2)

    def test_drive_repair_much_faster_than_node_repair(self, baseline):
        model = NoRaidNodeModel(baseline, 2)
        assert model.drive_rebuild_rate > model.node_rebuild_rate


class TestValidation:
    """One env validation at every fault tolerance."""

    def test_negative_h_rejected_above_figure_10(self):
        h = {w: 0.0 for w in h_parameters(Parameters.baseline(), 4)}
        h["NdNd"] = -0.1
        with pytest.raises(ValueError, match="must be >= 0"):
            build_no_raid_chain(4, **ARGS, h=h)

    def test_wrong_words_named(self):
        h = {"NN": 0.0, "Nd": 0.0, "dN": 0.0, "xx": 0.0}
        with pytest.raises(ValueError, match=r"missing h-parameters.*'dd'"):
            build_no_raid_chain(2, **ARGS, h=h)
