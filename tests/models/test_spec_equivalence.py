"""Property tests: the spec path reproduces the legacy builders.

Every one of the nine configuration families is expressed twice — once as
a declarative :class:`~repro.core.spec.ModelSpec` and once as the original
imperative builder (kept as an oracle).  These tests assert the two paths
agree *bitwise* — same state order, same initial state, byte-for-byte
equal generator matrices and therefore identical MTTDLs — both on
hypothesis-randomized raw rate inputs (including the clamping regimes
``h > 1`` and ``h = 0``) and across the 27-point verification lattice.

The one no-internal-RAID family builds every fault tolerance level by
level.  At k = 2 it registers ``"loss"`` after ``"Nd"`` where Figure 9's
builder registers it last, so there the chains are compared with states
aligned by label: the same transient order, bitwise off-diagonal rates
and a bitwise MTTDL (the exit-rate diagonal sums the same rates in
another order).  Beyond k = 3 it is compared with the appendix-literal
recursion within a few ulp per rate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.configurations import ALL_CONFIGURATIONS
from repro.models.internal_raid import (
    build_internal_raid_chain,
    legacy_build_internal_raid_chain,
)
from repro.models.no_raid import (
    build_no_raid_chain,
    legacy_build_no_raid_chain_ft1,
    legacy_build_no_raid_chain_ft2,
    legacy_build_no_raid_chain_ft3,
)
from repro.models.raid import (
    build_raid5_chain,
    build_raid6_chain,
    legacy_build_raid5_chain,
    legacy_build_raid6_chain,
)
from repro.models.recursive import legacy_build_recursive_chain
from repro.verify.lattice import default_lattice


def assert_bitwise_equal(spec_chain, legacy_chain):
    assert spec_chain.states == legacy_chain.states
    assert spec_chain.initial_state == legacy_chain.initial_state
    assert np.array_equal(
        spec_chain.generator_matrix(), legacy_chain.generator_matrix()
    ), "generator matrices differ"
    assert (
        spec_chain.mean_time_to_absorption()
        == legacy_chain.mean_time_to_absorption()
    )


def _aligned(spec_chain, legacy_chain):
    """Both generators with the legacy states permuted into the spec's
    order, and the off-diagonal mask."""
    assert set(spec_chain.states) == set(legacy_chain.states)
    order = [legacy_chain.states.index(s) for s in spec_chain.states]
    legacy = legacy_chain.generator_matrix()[np.ix_(order, order)]
    off = ~np.eye(len(order), dtype=bool)
    return spec_chain.generator_matrix(), legacy, off


def assert_equal_by_label(spec_chain, legacy_chain):
    """Same transient order and initial state, bitwise off-diagonal rates
    and MTTDL; the exit-rate diagonal may differ by summation order."""
    assert spec_chain.transient_states() == legacy_chain.transient_states()
    assert spec_chain.initial_state == legacy_chain.initial_state
    spec, legacy, off = _aligned(spec_chain, legacy_chain)
    assert np.array_equal(spec[off], legacy[off]), "off-diagonal rates differ"
    assert (
        spec_chain.mean_time_to_absorption()
        == legacy_chain.mean_time_to_absorption()
    )


def assert_within_ulp(spec_chain, legacy_chain, ulp=4, mttdl_rel=2e-15):
    """Same states and edges, each rate within ``ulp`` units in the last
    place, MTTDL within ``mttdl_rel`` relative."""
    spec, legacy, off = _aligned(spec_chain, legacy_chain)
    assert np.array_equal(spec[off] != 0, legacy[off] != 0), "edge sets differ"
    scale = np.spacing(np.maximum(np.abs(spec[off]), np.abs(legacy[off])))
    assert np.all(np.abs(spec[off] - legacy[off]) <= ulp * scale)
    exact = legacy_chain.mean_time_to_absorption()
    assert spec_chain.mean_time_to_absorption() == pytest.approx(
        exact, rel=mttdl_rel, abs=0.0
    )


# Rates stay positive but span many decades, h-probabilities deliberately
# include 0 (edges vanish in the legacy builder) and values past 1 (the
# clamp regime).
rate = st.floats(min_value=1e-9, max_value=1e-2, allow_nan=False)
repair = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
h_prob = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)


def _h_words(k, values):
    words = [""]
    for _ in range(k):
        words = [w + letter for w in words for letter in "Nd"]
    words = sorted(words, key=lambda w: [0 if c == "N" else 1 for c in w])
    return dict(zip(words, values))


class TestNoRaidFamilies:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=128),
        d=st.integers(min_value=1, max_value=24),
        lam_n=rate,
        lam_d=rate,
        mu_n=repair,
        mu_d=repair,
        h_n=h_prob,
        h_d=h_prob,
    )
    def test_ft1(self, n, d, lam_n, lam_d, mu_n, mu_d, h_n, h_d):
        spec = build_no_raid_chain(
            1, n, d, lam_n, lam_d, mu_n, mu_d, {"N": h_n, "d": h_d}
        )
        legacy = legacy_build_no_raid_chain_ft1(
            n, d, lam_n, lam_d, mu_n, mu_d, h_n, h_d
        )
        assert_bitwise_equal(spec, legacy)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=128),
        d=st.integers(min_value=1, max_value=24),
        lam_n=rate,
        lam_d=rate,
        mu_n=repair,
        mu_d=repair,
        hs=st.lists(h_prob, min_size=4, max_size=4),
    )
    def test_ft2(self, n, d, lam_n, lam_d, mu_n, mu_d, hs):
        h = _h_words(2, hs)
        spec = build_no_raid_chain(2, n, d, lam_n, lam_d, mu_n, mu_d, h)
        legacy = legacy_build_no_raid_chain_ft2(
            n, d, lam_n, lam_d, mu_n, mu_d, h
        )
        assert_equal_by_label(spec, legacy)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=128),
        d=st.integers(min_value=1, max_value=24),
        lam_n=rate,
        lam_d=rate,
        mu_n=repair,
        mu_d=repair,
        hs=st.lists(h_prob, min_size=8, max_size=8),
    )
    def test_ft3(self, n, d, lam_n, lam_d, mu_n, mu_d, hs):
        h = _h_words(3, hs)
        spec = build_no_raid_chain(3, n, d, lam_n, lam_d, mu_n, mu_d, h)
        legacy = legacy_build_no_raid_chain_ft3(
            n, d, lam_n, lam_d, mu_n, mu_d, h
        )
        assert_bitwise_equal(spec, legacy)


class TestRecursiveFamily:
    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=6),
        extra_n=st.integers(min_value=1, max_value=64),
        d=st.integers(min_value=1, max_value=24),
        lam_n=rate,
        lam_d=rate,
        mu_n=repair,
        mu_d=repair,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_arbitrary_k(self, k, extra_n, d, lam_n, lam_d, mu_n, mu_d, seed):
        n = k + extra_n
        rng = np.random.default_rng(seed)
        h = _h_words(k, [float(v) for v in rng.uniform(0.0, 1.5, 2**k)])
        spec = build_no_raid_chain(k, n, d, lam_n, lam_d, mu_n, mu_d, h)
        legacy = legacy_build_recursive_chain(
            k, n, d, lam_n, lam_d, mu_n, mu_d, h
        )
        assert_within_ulp(spec, legacy)


class TestInternalRaidFamily:
    @settings(max_examples=25, deadline=None)
    @given(
        t=st.integers(min_value=1, max_value=3),
        extra_n=st.integers(min_value=1, max_value=64),
        lam_n=rate,
        lam_big_d=rate,
        lam_s=rate,
        mu_n=repair,
        k_t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        parallel=st.booleans(),
    )
    def test_all_tolerances(
        self, t, extra_n, lam_n, lam_big_d, lam_s, mu_n, k_t, parallel
    ):
        n = t + extra_n
        spec = build_internal_raid_chain(
            t, n, lam_n, lam_big_d, lam_s, mu_n, k_t, parallel
        )
        legacy = legacy_build_internal_raid_chain(
            t, n, lam_n, lam_big_d, lam_s, mu_n, k_t, parallel
        )
        assert_bitwise_equal(spec, legacy)


class TestDriveLevelRaidFamilies:
    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(min_value=2, max_value=24),
        lam=rate,
        mu=repair,
        h=h_prob,
        split=st.booleans(),
    )
    def test_raid5(self, d, lam, mu, h, split):
        assert_bitwise_equal(
            build_raid5_chain(d, lam, mu, h, split),
            legacy_build_raid5_chain(d, lam, mu, h, split),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(min_value=3, max_value=24),
        lam=rate,
        mu=repair,
        h=h_prob,
        split=st.booleans(),
    )
    def test_raid6(self, d, lam, mu, h, split):
        assert_bitwise_equal(
            build_raid6_chain(d, lam, mu, h, split),
            legacy_build_raid6_chain(d, lam, mu, h, split),
        )


class TestModelPathOnLattice:
    """All nine paper configurations, at every point of the 27-point
    verification lattice: model.chain() (the compiled-spec path) must
    match model.legacy_chain() (the imperative oracle) by label, and
    bitwise wherever the state orders agree."""

    @pytest.mark.parametrize(
        "config", ALL_CONFIGURATIONS, ids=lambda c: c.key
    )
    def test_all_configs_all_points(self, config):
        for params in default_lattice():
            model = config.model(params)
            spec, legacy = model.chain(), model.legacy_chain()
            if spec.states == legacy.states:
                assert_bitwise_equal(spec, legacy)
            else:
                assert_equal_by_label(spec, legacy)
