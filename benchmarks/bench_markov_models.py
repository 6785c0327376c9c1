"""Model-level benchmarks (Figures 1, 4, 5-10): chain construction + solve
time for every Markov model in the paper, with closed-form agreement
assertions."""

import pytest

from repro.models import (
    InternalRaid,
    InternalRaidNodeModel,
    NoRaidNodeModel,
    Parameters,
    Raid5Model,
    Raid6Model,
)


@pytest.fixture(scope="module")
def gentle():
    """Regime where the paper's approximations hold tightly."""
    return Parameters.with_overrides(
        node_mttf_hours=2_000_000.0,
        drive_mttf_hours=1_500_000.0,
        hard_error_rate_per_bit=1e-16,
        node_set_size=32,
    )


def test_fig1_raid5_array(benchmark, baseline_params):
    model = Raid5Model(baseline_params)
    mttdl = benchmark(model.mttdl_exact)
    assert mttdl == pytest.approx(model.mttdl_exact_formula(), rel=1e-10)


def test_fig4_raid6_array(benchmark, baseline_params):
    model = Raid6Model(baseline_params)
    mttdl = benchmark(model.mttdl_exact)
    assert mttdl == pytest.approx(model.mttdl_approx(), rel=0.05)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_fig5to7_internal_raid(benchmark, gentle, t):
    model = InternalRaidNodeModel(gentle, InternalRaid.RAID5, t)
    mttdl = benchmark(model.mttdl_exact)
    assert mttdl == pytest.approx(model.mttdl_approx(), rel=0.05)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_fig8to10_no_raid(benchmark, gentle, t):
    model = NoRaidNodeModel(gentle, t)
    mttdl = benchmark(model.mttdl_exact)
    # tests/models/test_spec_equivalence.py pins this chain against the
    # frozen figure builder's at this point (its gentle cases).
    assert mttdl == pytest.approx(model.mttdl_approx(), rel=0.05)
