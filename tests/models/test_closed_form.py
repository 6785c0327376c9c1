"""Closed-form MTTDL formulas (Sections 4.2-4.3, Figure 12) vs the chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    NoRaidNodeModel,
    Parameters,
    RebuildModel,
    h_parameters,
    mttdl_no_raid_nft1,
    mttdl_no_raid_nft2,
    mttdl_no_raid_nft3,
)


class TestFigure12AgainstFigureA1:
    """Figure 12's printed formulas (with the lambda_D -> lambda_d typo
    corrected) must equal Figure A1's general form specialized to the
    Section 5.2.2 h-values — the repo's reading of the paper in one test."""

    def test_nft1(self, baseline):
        p = baseline
        rebuild = RebuildModel(p)
        mu_n, mu_d = rebuild.node_rebuild_rate(1), rebuild.drive_rebuild_rate(1)
        h = (p.redundancy_set_size - 1) * p.hard_error_per_drive_read
        via_figure = mttdl_no_raid_nft1(
            p.node_set_size,
            p.drives_per_node,
            p.node_failure_rate,
            p.drive_failure_rate,
            mu_n,
            mu_d,
            h,
        )
        via_a1 = NoRaidNodeModel(p, 1).mttdl_approx()
        assert via_figure == pytest.approx(via_a1, rel=1e-12)

    def test_nft2(self, baseline):
        p = baseline
        rebuild = RebuildModel(p)
        via_figure = mttdl_no_raid_nft2(
            p.node_set_size,
            p.drives_per_node,
            p.redundancy_set_size,
            p.node_failure_rate,
            p.drive_failure_rate,
            rebuild.node_rebuild_rate(2),
            rebuild.drive_rebuild_rate(2),
            p.hard_error_per_drive_read,
        )
        via_a1 = NoRaidNodeModel(p, 2).mttdl_approx()
        assert via_figure == pytest.approx(via_a1, rel=1e-12)

    def test_nft3(self, baseline):
        p = baseline
        rebuild = RebuildModel(p)
        via_figure = mttdl_no_raid_nft3(
            p.node_set_size,
            p.drives_per_node,
            p.redundancy_set_size,
            p.node_failure_rate,
            p.drive_failure_rate,
            rebuild.node_rebuild_rate(3),
            rebuild.drive_rebuild_rate(3),
            p.hard_error_per_drive_read,
        )
        via_a1 = NoRaidNodeModel(p, 3).mttdl_approx()
        assert via_figure == pytest.approx(via_a1, rel=1e-12)


class TestAgainstChains:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_closed_forms_track_chain_in_gentle_regime(self, gentle_params, t):
        model = NoRaidNodeModel(gentle_params, t)
        assert model.mttdl_approx() == pytest.approx(model.mttdl_exact(), rel=0.05)

    def test_nft1_h_saturation_documented_gap(self, baseline):
        """At the baseline h_N = d(R-1)C*HER > 1: the chain clamps the
        probability, the closed form does not — the formula must
        *underestimate* the chain there (conservative direction)."""
        model = NoRaidNodeModel(baseline, 1)
        assert model.mttdl_approx() < model.mttdl_exact()


class TestValidation:
    def test_small_node_sets_rejected(self):
        with pytest.raises(ValueError):
            mttdl_no_raid_nft1(1, 4, 1e-6, 1e-6, 0.3, 3.0, 0.0)
        with pytest.raises(ValueError):
            mttdl_no_raid_nft2(2, 4, 8, 1e-6, 1e-6, 0.3, 3.0, 0.0)
        with pytest.raises(ValueError):
            mttdl_no_raid_nft3(3, 4, 8, 1e-6, 1e-6, 0.3, 3.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_figure12_formulas_equal_a1_for_random_parameters(seed):
    """Property: the Figure 12 <-> Figure A1 identity holds across the
    whole parameter space, not just the baseline."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 128))
    r = int(rng.integers(4, min(n, 24) + 1))
    d = int(rng.integers(1, 24))
    params = Parameters.baseline().replace(
        node_set_size=n,
        redundancy_set_size=r,
        drives_per_node=d,
        node_mttf_hours=float(10 ** rng.uniform(4.5, 6.5)),
        drive_mttf_hours=float(10 ** rng.uniform(4.5, 6.5)),
        hard_error_rate_per_bit=float(10 ** rng.uniform(-16, -13)),
    )
    rebuild = RebuildModel(params)
    via_figure = mttdl_no_raid_nft2(
        n,
        d,
        r,
        params.node_failure_rate,
        params.drive_failure_rate,
        rebuild.node_rebuild_rate(2),
        rebuild.drive_rebuild_rate(2),
        params.hard_error_per_drive_read,
    )
    via_a1 = NoRaidNodeModel(params, 2).mttdl_approx()
    assert via_figure == pytest.approx(via_a1, rel=1e-9)
