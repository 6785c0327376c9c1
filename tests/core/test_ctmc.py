"""Tests for the absorbing-CTMC engine."""

import math

import numpy as np
import pytest

from repro.core import CTMC, CTMCError, NotAbsorbingError, Transition


def two_state_chain(lam=2.0, mu=50.0, kill=1.0) -> CTMC:
    """0 <-> 1 -> loss; a textbook case with a hand-derivable MTTDL."""
    return CTMC(
        ["up", "degraded", "loss"],
        [
            Transition("up", "degraded", lam),
            Transition("degraded", "up", mu),
            Transition("degraded", "loss", kill),
        ],
        initial_state="up",
    )


def _assert_batched_query_raises(chain: CTMC) -> None:
    """The dense backend's batched ``"mttdl"`` query raises the same
    :class:`NotAbsorbingError` as the scalar call — for a group of one
    (scalar kernel) and a stacked group of two (batched kernel)."""
    from repro.core.solvers import SolveOptions, SolveRequest, solve

    for batch in ((chain,), (chain, chain)):
        with pytest.raises(NotAbsorbingError):
            solve(
                SolveRequest(
                    chains=batch,
                    query="mttdl",
                    options=SolveOptions(backend="dense_gth"),
                )
            )


def two_state_mttdl(lam, mu, kill) -> float:
    # tau_up * lam = tau_deg * (mu + kill) balance; absorbing flow = 1.
    # Solve R^T tau = e0 by hand:
    #   lam * tau_up - mu * tau_deg = 1
    #   -lam * tau_up + (mu + kill) * tau_deg = 0
    tau_deg = 1.0 / kill
    tau_up = (mu + kill) / (lam * kill)
    return tau_up + tau_deg


class TestConstruction:
    def test_duplicate_states_rejected(self):
        with pytest.raises(CTMCError, match="duplicate"):
            CTMC(["a", "a"], [])

    def test_empty_chain_rejected(self):
        with pytest.raises(CTMCError, match="at least one state"):
            CTMC([], [])

    def test_unknown_initial_state(self):
        with pytest.raises(CTMCError, match="initial state"):
            CTMC(["a"], [], initial_state="b")

    def test_unknown_transition_source(self):
        with pytest.raises(CTMCError, match="unknown source"):
            CTMC(["a", "b"], [Transition("c", "a", 1.0)])

    def test_unknown_transition_target(self):
        with pytest.raises(CTMCError, match="unknown target"):
            CTMC(["a", "b"], [Transition("a", "c", 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(CTMCError, match="self-loop"):
            Transition("a", "a", 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(CTMCError, match="rate"):
            Transition("a", "b", -1.0)

    def test_zero_rate_rejected(self):
        """Regression: a zero-rate transition is a structural no-op that
        silently distorted memoized topologies; it must be rejected at
        construction (callers drop zero rates before building)."""
        with pytest.raises(CTMCError, match="rate"):
            Transition("a", "b", 0.0)

    def test_infinite_rate_rejected(self):
        with pytest.raises(CTMCError, match="rate"):
            Transition("a", "b", float("inf"))

    def test_nan_rate_rejected(self):
        with pytest.raises(CTMCError, match="rate"):
            Transition("a", "b", float("nan"))

    def test_parallel_transitions_sum(self):
        chain = CTMC(
            ["a", "b"],
            [Transition("a", "b", 1.0), Transition("a", "b", 2.5)],
        )
        assert chain.rate("a", "b") == pytest.approx(3.5)

    def test_default_initial_state_is_first(self):
        chain = CTMC(["x", "y"], [Transition("x", "y", 1.0)])
        assert chain.initial_state == "x"


class TestStructure:
    def test_generator_rows_sum_to_zero(self):
        chain = two_state_chain()
        q = chain.generator_matrix()
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_generator_is_readonly_copy(self):
        chain = two_state_chain()
        q = chain.generator_matrix()
        q[0, 0] = 99.0
        assert chain.generator_matrix()[0, 0] != 99.0

    def test_absorbing_and_transient_partition(self):
        chain = two_state_chain()
        assert chain.absorbing_states() == ("loss",)
        assert set(chain.transient_states()) == {"up", "degraded"}

    def test_exit_rate(self):
        chain = two_state_chain(lam=2.0, mu=50.0, kill=1.0)
        assert chain.exit_rate("up") == pytest.approx(2.0)
        assert chain.exit_rate("degraded") == pytest.approx(51.0)
        assert chain.exit_rate("loss") == 0.0

    def test_successors(self):
        chain = two_state_chain(lam=2.0, mu=50.0, kill=1.0)
        assert chain.successors("degraded") == {"up": 50.0, "loss": 1.0}
        assert chain.successors("loss") == {}

    def test_rate_of_absent_edge_is_zero(self):
        chain = two_state_chain()
        assert chain.rate("up", "loss") == 0.0

    def test_rate_diagonal_rejected(self):
        chain = two_state_chain()
        with pytest.raises(CTMCError):
            chain.rate("up", "up")

    def test_index_of_unknown_state(self):
        chain = two_state_chain()
        with pytest.raises(CTMCError, match="unknown state"):
            chain.index_of("nope")

    def test_validate_passes(self):
        two_state_chain().validate()


class TestAbsorption:
    def test_mttdl_matches_hand_derivation(self):
        lam, mu, kill = 2.0, 50.0, 1.0
        chain = two_state_chain(lam, mu, kill)
        assert chain.mean_time_to_absorption() == pytest.approx(
            two_state_mttdl(lam, mu, kill), rel=1e-12
        )

    def test_expected_times_match_hand_derivation(self):
        lam, mu, kill = 3.0, 40.0, 2.0
        chain = two_state_chain(lam, mu, kill)
        result = chain.absorb()
        assert result.expected_times["degraded"] == pytest.approx(1.0 / kill)
        assert result.expected_times["up"] == pytest.approx(
            (mu + kill) / (lam * kill)
        )

    def test_absorption_probabilities_sum_to_one(self):
        chain = CTMC(
            ["a", "b", "l1", "l2"],
            [
                Transition("a", "b", 1.0),
                Transition("b", "a", 5.0),
                Transition("a", "l1", 0.5),
                Transition("b", "l2", 2.0),
            ],
        )
        probs = chain.absorb().absorption_probabilities
        assert sum(probs.values()) == pytest.approx(1.0)
        assert set(probs) == {"l1", "l2"}
        assert all(p > 0 for p in probs.values())

    def test_absorption_probability_ratio(self):
        # From 'a': race between l1 (rate 1) and the path via b.
        chain = CTMC(
            ["a", "l1", "l2"],
            [Transition("a", "l1", 1.0), Transition("a", "l2", 3.0)],
        )
        probs = chain.absorb().absorption_probabilities
        assert probs["l1"] == pytest.approx(0.25)
        assert probs["l2"] == pytest.approx(0.75)

    def test_initial_state_absorbing(self):
        chain = CTMC(["a", "b"], [Transition("b", "a", 1.0)], initial_state="a")
        result = chain.absorb()
        assert result.mttdl == 0.0
        assert result.absorption_probabilities["a"] == 1.0

    def test_no_absorbing_state_raises(self):
        chain = CTMC(
            ["a", "b"],
            [Transition("a", "b", 1.0), Transition("b", "a", 1.0)],
        )
        with pytest.raises(NotAbsorbingError):
            chain.mean_time_to_absorption()
        _assert_batched_query_raises(chain)

    def test_unreachable_absorption_raises(self):
        # 'a' and 'b' cycle forever; 'c' -> loss exists but is unreachable
        # and, worse, 'a' can never be absorbed.
        chain = CTMC(
            ["a", "b", "c", "loss"],
            [
                Transition("a", "b", 1.0),
                Transition("b", "a", 1.0),
                Transition("c", "loss", 1.0),
            ],
            initial_state="a",
        )
        with pytest.raises(NotAbsorbingError):
            chain.mean_time_to_absorption()
        _assert_batched_query_raises(chain)

    def test_expected_visits(self):
        lam, mu, kill = 2.0, 50.0, 1.0
        chain = two_state_chain(lam, mu, kill)
        visits = chain.expected_visits()
        # Visits to 'degraded' are geometric with success prob kill/(mu+kill).
        assert visits["degraded"] == pytest.approx((mu + kill) / kill)

    def test_stacked_absorption_system_matches_per_chain(self):
        chains = [
            two_state_chain(2.0 * k, 50.0 * k, 1.0 + k) for k in (1, 2, 3)
        ]
        off, rates, to_abs = CTMC.stacked_absorption_system(chains)
        for i, chain in enumerate(chains):
            o, r, t = chain.absorption_system()
            assert np.array_equal(off[i], o)
            assert np.array_equal(rates[i], r)
            assert np.array_equal(to_abs[i], t)

    def test_mttdl_scales_inversely_with_rates(self):
        fast = two_state_chain(2.0, 50.0, 1.0)
        slow = two_state_chain(0.2, 5.0, 0.1)
        assert slow.mean_time_to_absorption() == pytest.approx(
            10 * fast.mean_time_to_absorption()
        )


class TestTransient:
    def test_distribution_sums_to_one(self):
        chain = two_state_chain()
        dist = chain.transient_distribution(0.7)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_distribution_at_zero(self):
        chain = two_state_chain()
        dist = chain.transient_distribution(0.0)
        assert dist["up"] == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(CTMCError):
            two_state_chain().transient_distribution(-1.0)

    def test_reliability_decreases(self):
        chain = two_state_chain()
        r = chain.survival_curve([0.0, 1.0, 5.0, 20.0])
        assert r[0] == pytest.approx(1.0)
        assert all(a >= b - 1e-12 for a, b in zip(r, r[1:]))

    def test_reliability_matches_exponential_for_pure_death(self):
        chain = CTMC(["up", "down"], [Transition("up", "down", 0.3)])
        for t in (0.5, 1.0, 4.0):
            assert chain.reliability(t) == pytest.approx(math.exp(-0.3 * t), rel=1e-9)

    def test_uniformization_matches_expm(self):
        chain = two_state_chain()
        for t in (0.1, 1.0, 3.0):
            expm_dist = chain.transient_distribution(t)
            uni_dist = chain.transient_distribution_uniformized(t)
            for state in chain.states:
                assert uni_dist[state] == pytest.approx(expm_dist[state], abs=1e-9)

    def test_uniformized_dtmc_is_stochastic(self):
        chain = two_state_chain()
        p, lam = chain.uniformized_dtmc()
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)
        assert lam >= max(chain.exit_rate(s) for s in chain.states)

    def test_uniformization_rate_too_small_rejected(self):
        chain = two_state_chain()
        with pytest.raises(CTMCError):
            chain.uniformized_dtmc(rate=0.001)

    def test_mean_absorption_consistent_with_survival_integral(self):
        # MTTDL = integral of R(t) dt; check numerically on a mild chain.
        chain = two_state_chain(lam=1.0, mu=2.0, kill=1.0)
        mttdl = chain.mean_time_to_absorption()
        ts = np.linspace(0, 80, 4001)
        rs = chain.survival_curve(list(ts))
        integral = np.trapezoid(rs, ts)
        assert integral == pytest.approx(mttdl, rel=1e-3)
