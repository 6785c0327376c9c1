"""Tests for the nine-configuration grid."""

import pytest

from repro import evaluate
from repro.models import (
    ALL_CONFIGURATIONS,
    Configuration,
    InternalRaid,
    InternalRaidNodeModel,
    NoRaidNodeModel,
    Parameters,
    all_configurations,
    evaluate_all,
    sensitivity_configurations,
)


class TestGrid:
    def test_nine_configurations(self):
        assert len(ALL_CONFIGURATIONS) == 9
        keys = {c.key for c in ALL_CONFIGURATIONS}
        assert len(keys) == 9

    def test_labels_match_paper_style(self):
        config = Configuration(InternalRaid.RAID5, 2)
        assert config.label == "FT 2, Internal RAID 5"
        assert config.key == "ft2_raid5"
        assert Configuration(InternalRaid.NONE, 3).label == "FT 3, No Internal RAID"

    def test_all_configurations_custom_depth(self):
        grid = all_configurations(max_fault_tolerance=2)
        assert len(grid) == 6

    def test_sensitivity_trio(self):
        trio = sensitivity_configurations()
        assert [c.key for c in trio] == ["ft2_noraid", "ft2_raid5", "ft3_noraid"]

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            Configuration(InternalRaid.RAID5, 0)

    def test_from_key_round_trips(self):
        for config in all_configurations(max_fault_tolerance=5):
            assert Configuration.from_key(config.key) == config

    @pytest.mark.parametrize(
        "bad",
        ["", "ft2", "ft2_", "raid5", "ft_raid5", "ftx_raid5", "ft2_raid7", "ft-1_raid5"],
    )
    def test_from_key_rejects_garbage(self, bad):
        with pytest.raises(ValueError, match="configuration key"):
            Configuration.from_key(bad)


class TestModelDispatch:
    def test_no_raid_low_tolerance_uses_explicit(self, baseline):
        model = Configuration(InternalRaid.NONE, 2).model(baseline)
        assert isinstance(model, NoRaidNodeModel)
        # Figure 9's seven transient states.
        assert model.chain().num_states == 8

    def test_no_raid_high_tolerance_uses_recursive(self, baseline):
        """One family at every tolerance: k = 4 is the appendix's doubling
        of the k = 3 chain, 2^5 - 1 transient states."""
        model = Configuration(InternalRaid.NONE, 4).model(baseline)
        assert isinstance(model, NoRaidNodeModel)
        assert model.spec().name == "no_raid_ft4"
        assert model.chain().num_states == 2**5

    def test_internal_raid_dispatch(self, baseline):
        model = Configuration(InternalRaid.RAID6, 2).model(baseline)
        assert isinstance(model, InternalRaidNodeModel)
        assert model.raid_level is InternalRaid.RAID6

    def test_chain_accessible(self, baseline):
        chain = Configuration(InternalRaid.NONE, 2).chain(baseline)
        assert chain.absorbing_states() == ("loss",)


class TestEvaluation:
    def test_exact_and_approx_methods(self, gentle_params):
        config = Configuration(InternalRaid.RAID5, 2)
        exact = config.mttdl_hours(gentle_params, "analytic")
        approx = config.mttdl_hours(gentle_params, "closed_form")
        assert approx == pytest.approx(exact, rel=0.05)

    def test_approx_for_explicit_no_raid_uses_figure_a1(self, gentle_params):
        config = Configuration(InternalRaid.NONE, 2)
        approx = config.mttdl_hours(gentle_params, "closed_form")
        via_a1 = NoRaidNodeModel(gentle_params, 2).mttdl_approx()
        assert approx == pytest.approx(via_a1)

    def test_unknown_method(self, baseline):
        for method in ("guess", "exact", "approx"):
            with pytest.raises(ValueError, match="'analytic' or 'closed_form'"):
                Configuration(InternalRaid.NONE, 2).mttdl_hours(baseline, method)

    def test_evaluate_all_covers_grid(self, baseline):
        results = evaluate_all(baseline)
        assert len(results) == 9
        assert all(r.mttdl_hours > 0 for _, r in results)

    def test_evaluate_single(self, baseline):
        config = Configuration(InternalRaid.RAID5, 2)
        result = evaluate(config, baseline)
        assert result.meets_target

    def test_reliability_improves_with_tolerance(self, baseline):
        """Within each internal level, more cross-node tolerance always
        means fewer loss events."""
        for internal in (InternalRaid.NONE, InternalRaid.RAID5, InternalRaid.RAID6):
            rates = [
                Configuration(internal, t).reliability(baseline).events_per_pb_year
                for t in (1, 2, 3)
            ]
            assert rates[0] > rates[1] > rates[2]

    def test_internal_raid_always_helps(self, baseline):
        """Adding internal RAID 5 never hurts at equal cross-node FT."""
        for t in (1, 2, 3):
            none = Configuration(InternalRaid.NONE, t).reliability(baseline)
            raid5 = Configuration(InternalRaid.RAID5, t).reliability(baseline)
            assert raid5.events_per_pb_year < none.events_per_pb_year
