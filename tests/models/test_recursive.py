"""Tests for the appendix's recursive construction and Figure A1."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    NoRaidNodeModel,
    Parameters,
    build_no_raid_chain,
    h_parameters,
    l_k,
    l_value,
    mttdl_general_approx,
)

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "oracle_chains.json"


class TestStructure:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_state_count_is_2k1_minus_1(self, k):
        h = {w: 0.0 for w in h_parameters(Parameters.baseline().replace(node_set_size=32), k)}
        chain = build_no_raid_chain(k, 32, 4, 1e-6, 2e-6, 0.3, 3.0, h)
        assert chain.num_states == 2 ** (k + 1)  # transient + loss

    def test_missing_h_rejected(self):
        with pytest.raises(ValueError, match="missing h-parameters"):
            build_no_raid_chain(2, 16, 4, 1e-6, 2e-6, 0.3, 3.0, {"NN": 0.0})

    def test_node_set_too_small(self):
        h = {w: 0.0 for w in ("NN", "Nd", "dN", "dd")}
        with pytest.raises(ValueError):
            build_no_raid_chain(2, 2, 4, 1e-6, 2e-6, 0.3, 3.0, h)


class TestLRecursion:
    def test_l_value(self):
        assert l_value(2.0, 3.0, 1e-6, 2e-6, 4) == pytest.approx(
            2.0 * 1e-6 + 3.0 * 4 * 2e-6
        )

    def test_l1(self):
        # L_1(H) = L(H_1, H_2)
        got = l_k([0.5, 0.25], 1e-6, 2e-6, 4, 0.3, 3.0)
        assert got == pytest.approx(l_value(0.5, 0.25, 1e-6, 2e-6, 4))

    def test_l2_hand_derivation(self, baseline):
        """L_2(h^(2)) = d h (lam_N + lam_d)(mu_d lam_N + mu_N lam_d) for the
        Section 5.2.2 h-values (derived in DESIGN.md)."""
        lam_n = baseline.node_failure_rate
        lam_d = baseline.drive_failure_rate
        mu_n, mu_d = 0.3, 3.0
        d = baseline.drives_per_node
        n, r = baseline.node_set_size, baseline.redundancy_set_size
        che = baseline.hard_error_per_drive_read
        h = (r - 1) * (r - 2) / (n - 1) * che
        table = h_parameters(baseline, 2)
        ordered = [table[w] for w in ("NN", "Nd", "dN", "dd")]
        got = l_k(ordered, lam_n, lam_d, d, mu_n, mu_d)
        expected = d * h * (lam_n + lam_d) * (mu_d * lam_n + mu_n * lam_d)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            l_k([0.1, 0.2, 0.3], 1e-6, 2e-6, 4, 0.3, 3.0)


class TestFigureA1:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_approx_tracks_exact_in_valid_regime(self, gentle_params, k):
        model = NoRaidNodeModel(gentle_params, k)
        exact = model.mttdl_exact()
        approx = model.mttdl_approx()
        assert approx == pytest.approx(exact, rel=0.05)

    def test_explicit_models_match_recursive_solve(self, baseline):
        """The level-by-level family solves like the appendix-literal
        recursion (frozen at the baseline point), Figures 8-10 and
        beyond."""
        frozen = {
            case["k"]: float.fromhex(case["mttdl"])
            for case in json.loads(FIXTURE.read_text())["cases"]
            if case["name"].startswith("recursion_baseline_")
        }
        assert sorted(frozen) == [1, 2, 3, 4, 5, 6]
        for t, recursive in frozen.items():
            model = NoRaidNodeModel(baseline, t)
            assert recursive == pytest.approx(model.mttdl_exact(), rel=1e-9)

    def test_stiff_chain_solves_cleanly(self):
        """The GTH path keeps k = 6 (127 states, cond ~ 1e17) accurate."""
        params = Parameters.baseline().replace(
            node_set_size=128, redundancy_set_size=16
        )
        model = NoRaidNodeModel(params, 6)
        exact = model.mttdl_exact()
        approx = model.mttdl_approx()
        assert exact > 0
        assert approx == pytest.approx(exact, rel=0.1)

    def test_invalid_inputs(self, baseline):
        with pytest.raises(ValueError):
            NoRaidNodeModel(baseline, 0)
        with pytest.raises(ValueError):
            NoRaidNodeModel(baseline.replace(node_set_size=3, redundancy_set_size=3), 3)
        with pytest.raises(ValueError):
            mttdl_general_approx(0, 16, 4, 1e-6, 2e-6, 0.3, 3.0, {})


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=8, max_value=64),
    d=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_approx_agrees_with_exact_property(k, n, d, seed):
    """Property: wherever the theorem's hypothesis holds (rates well
    separated, h small), Figure A1 agrees with the numeric solve."""
    rng = np.random.default_rng(seed)
    lam_n = 10.0 ** rng.uniform(-9, -7)
    lam_d = 10.0 ** rng.uniform(-9, -7)
    mu_n = 10.0 ** rng.uniform(-1, 1)
    mu_d = 10.0 ** rng.uniform(-1, 1)
    if n <= k:
        return
    words = [""]
    for _ in range(k):
        words = [w + c for w in words for c in "Nd"]
    h = {w: float(10.0 ** rng.uniform(-8, -4)) for w in words}
    chain = build_no_raid_chain(k, n, d, lam_n, lam_d, mu_n, mu_d, h)
    exact = chain.mean_time_to_absorption()
    approx = mttdl_general_approx(k, n, d, lam_n, lam_d, mu_n, mu_d, h)
    assert approx == pytest.approx(exact, rel=0.05)
