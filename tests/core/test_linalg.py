"""Tests for the GTH subtraction-free M-matrix solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linalg import (
    gth_fundamental_matrix,
    gth_solve,
    gth_solve_batched,
    gth_solve_unchecked,
)


def random_absorbing_system(rng, n):
    rates = rng.uniform(0.1, 5.0, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    absorb = rng.uniform(0.1, 2.0, size=n)
    return rates, absorb


class TestAgainstDense:
    def test_matches_numpy_on_well_conditioned(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 8):
            rates, absorb = random_absorbing_system(rng, n)
            r = np.diag(rates.sum(axis=1) + absorb) - rates
            expected = np.linalg.solve(r, np.ones(n))
            got = gth_solve(rates, absorb, np.ones(n))
            assert np.allclose(got, expected, rtol=1e-10)

    def test_fundamental_matrix_is_inverse(self):
        rng = np.random.default_rng(1)
        rates, absorb = random_absorbing_system(rng, 6)
        r = np.diag(rates.sum(axis=1) + absorb) - rates
        n_matrix = gth_fundamental_matrix(rates, absorb)
        assert np.allclose(n_matrix @ r, np.eye(6), atol=1e-9)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(2)
        rates, absorb = random_absorbing_system(rng, 4)
        rhs = rng.uniform(0, 1, size=(4, 3))
        r = np.diag(rates.sum(axis=1) + absorb) - rates
        assert np.allclose(
            gth_solve(rates, absorb, rhs), np.linalg.solve(r, rhs), rtol=1e-10
        )


class TestStiffAccuracy:
    def test_stiff_two_state_exact(self):
        # up <-> degraded -> loss with mu/lambda = 1e12: the closed form is
        # exact, float64 Gaussian elimination would be fine here, but the
        # entries span 13 orders of magnitude.
        lam, mu, kill = 1e-6, 1e6, 1e-3
        rates = np.array([[0.0, lam], [mu, 0.0]])
        absorb = np.array([0.0, kill])
        t = gth_solve(rates, absorb, np.ones(2))
        # Mean time to absorption from 'up': tau_up + tau_degraded.
        expected = (mu + kill) / (lam * kill) + 1.0 / kill
        assert t[0] == pytest.approx(expected, rel=1e-12)

    def test_stiff_birth_death_chain(self):
        # Birth-death chain 0..k with births lam, deaths mu, absorption
        # from state k at rate lam.  MTTDL has the closed form
        # sum_{j=0..k} (mu/lam)^j / lam  ... derived from first-step
        # analysis; verified symbolically for small k.
        lam, mu = 1e-8, 1.0
        k = 4
        n = k + 1
        rates = np.zeros((n, n))
        for i in range(k):
            rates[i, i + 1] = lam
            rates[i + 1, i] = mu
        absorb = np.zeros(n)
        absorb[k] = lam
        t = gth_solve(rates, absorb, np.ones(n))
        # Exact MTTDL from state 0 for this chain:
        # E_i = expected time from state i; E_k = (1 + mu*E_{k-1})/(lam+mu)...
        # Compute by high-precision recursion with Fraction arithmetic.
        from fractions import Fraction

        flam, fmu = Fraction(1, 10**8), Fraction(1)
        # Solve tridiagonal system exactly: (D - A) E = 1.
        import itertools

        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(k):
            a[i][i + 1] = flam
            a[i + 1][i] = fmu
        d = [sum(row) for row in a]
        d[k] += flam
        m = [[(d[i] if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
        rhs = [Fraction(1)] * n
        # Gaussian elimination in exact arithmetic.
        for col in range(n):
            piv = next(r for r in range(col, n) if m[r][col] != 0)
            m[col], m[piv] = m[piv], m[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            rhs[col] *= inv
            for r in range(n):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                    rhs[r] -= f * rhs[col]
        exact = float(rhs[0])
        assert t[0] == pytest.approx(exact, rel=1e-12)

    def test_result_nonnegative_even_when_stiff(self):
        rng = np.random.default_rng(3)
        n = 12
        rates = rng.uniform(0, 1, size=(n, n)) * 10.0 ** rng.integers(
            -8, 8, size=(n, n)
        )
        np.fill_diagonal(rates, 0.0)
        absorb = rng.uniform(0, 1, size=n) * 1e-9
        t = gth_solve(rates, absorb, np.ones(n))
        assert np.all(t >= 0)
        assert np.all(np.isfinite(t))


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            gth_solve(np.array([[0.0, -1.0], [1.0, 0.0]]), np.ones(2), np.ones(2))

    def test_negative_absorb_rejected(self):
        with pytest.raises(ValueError):
            gth_solve(np.zeros((2, 2)), np.array([1.0, -1.0]), np.ones(2))

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gth_solve(np.zeros((1, 1)), np.ones(1), np.array([-1.0]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            gth_solve(np.eye(2), np.ones(2), np.ones(2))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            gth_solve(np.zeros((2, 3)), np.ones(2), np.ones(2))

    def test_singular_system_rejected(self):
        # State 1 has no way out at all.
        rates = np.array([[0.0, 1.0], [0.0, 0.0]])
        absorb = np.array([0.0, 0.0])
        with pytest.raises(ValueError, match="singular|absorption"):
            gth_solve(rates, absorb, np.ones(2))

    def test_one_by_one(self):
        t = gth_solve(np.zeros((1, 1)), np.array([4.0]), np.array([1.0]))
        assert t[0] == pytest.approx(0.25)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31))
def test_gth_agrees_with_numpy_property(n, seed):
    """Property: on benign random absorbing systems GTH equals LU solves."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.1, 3.0, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    absorb = rng.uniform(0.05, 1.0, size=n)
    r = np.diag(rates.sum(axis=1) + absorb) - rates
    expected = np.linalg.solve(r, np.ones(n))
    got = gth_solve(rates, absorb, np.ones(n))
    assert np.allclose(got, expected, rtol=1e-8)


class TestBatchedSolver:
    def _stack(self, rng, batch, n):
        rates = np.stack(
            [random_absorbing_system(rng, n)[0] for _ in range(batch)]
        )
        absorb = rng.uniform(0.1, 2.0, size=(batch, n))
        return rates, absorb

    def test_bitwise_equal_to_scalar_vector_rhs(self):
        """Each batch slice must reproduce gth_solve exactly — not merely
        approximately — because the sweep engine's correctness contract is
        bitwise identity with the point-by-point path."""
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 9):
            rates, absorb = self._stack(rng, 16, n)
            rhs = rng.uniform(0.0, 1.0, size=(16, n))
            batched = gth_solve_batched(rates, absorb, rhs)
            for b in range(16):
                scalar = gth_solve(rates[b], absorb[b], rhs[b])
                assert np.array_equal(batched[b], scalar)

    def test_bitwise_equal_to_scalar_matrix_rhs(self):
        rng = np.random.default_rng(8)
        n, batch = 6, 10
        rates, absorb = self._stack(rng, batch, n)
        rhs = np.broadcast_to(np.eye(n), (batch, n, n)).copy()
        batched = gth_solve_batched(rates, absorb, rhs)
        for b in range(batch):
            scalar = gth_solve(rates[b], absorb[b], np.eye(n))
            assert np.array_equal(batched[b], scalar)

    def test_stiff_batches(self):
        """Stiff slices (rates spanning ~12 orders of magnitude) keep the
        bitwise guarantee — the whole point of subtraction-free GTH."""
        rng = np.random.default_rng(9)
        n, batch = 5, 8
        scale = 10.0 ** rng.uniform(-6, 6, size=(batch, n, n))
        rates = rng.uniform(0.1, 5.0, size=(batch, n, n)) * scale
        for b in range(batch):
            np.fill_diagonal(rates[b], 0.0)
        absorb = rng.uniform(0.1, 2.0, size=(batch, n)) * 1e-6
        rhs = np.ones((batch, n))
        batched = gth_solve_batched(rates, absorb, rhs)
        for b in range(batch):
            assert np.array_equal(
                batched[b], gth_solve(rates[b], absorb[b], rhs[b])
            )

    def test_singular_member_reported_with_batch_index(self):
        rates = np.zeros((2, 2, 2))
        rates[:, 0, 1] = 1.0
        absorb = np.zeros((2, 2))
        absorb[0, 1] = 1.0  # member 0 fine, member 1 singular
        with pytest.raises(ValueError, match="batch member 1"):
            gth_solve_batched(rates, absorb, np.ones((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gth_solve_batched(np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            gth_solve_batched(
                np.zeros((2, 3, 2)), np.ones((2, 3)), np.ones((2, 3))
            )


class TestRowLimitedSolve:
    """``rows=k`` stops back-substitution after row k-1; the rows it
    returns are bitwise the full solve's (row k reads only rows < k)."""

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_batched_leading_rows_bitwise(self, n):
        rng = np.random.default_rng(200 + n)
        batch = 5
        rates = np.stack(
            [random_absorbing_system(rng, n)[0] for _ in range(batch)]
        )
        absorb = rng.uniform(0.1, 2.0, size=(batch, n))
        for rhs in (
            rng.uniform(0.0, 1.0, size=(batch, n)),
            np.broadcast_to(np.eye(n), (batch, n, n)).copy(),
        ):
            full = gth_solve_batched(rates, absorb, rhs)
            for k in range(1, n + 1):
                limited = gth_solve_batched(rates, absorb, rhs, rows=k)
                assert np.array_equal(limited, full[:, :k])

    def test_singular_state_beyond_rows_still_detected(self):
        # State 1 cannot reach absorption; forward elimination still
        # visits it even though back-substitution stops at row 0.
        rates = np.array([[0.0, 1.0], [0.0, 0.0]])
        absorb = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="cannot reach absorption"):
            gth_solve_unchecked(rates, absorb, np.eye(2), 1)
        with pytest.raises(ValueError, match="cannot reach absorption"):
            gth_solve_batched(rates[None], absorb[None], np.eye(2)[None], rows=1)

    @pytest.mark.parametrize("rows", [0, 3])
    def test_rows_out_of_range_rejected(self, rows):
        rates, absorb = random_absorbing_system(np.random.default_rng(1), 2)
        with pytest.raises(ValueError, match="rows must be in 1..2"):
            gth_solve_batched(rates[None], absorb[None], np.ones((1, 2)), rows=rows)


def _reference_gth_solve(transient_rates, absorb_rates, rhs, rows=None):
    """The GTH elimination with separate updates of ``A``, ``b`` and ``X``
    per pivot (input checks left out), kept as the bitwise reference for
    the one-block ``[X | b | A]`` kernel."""
    a = np.asarray(transient_rates, dtype=float).copy()
    b = np.asarray(absorb_rates, dtype=float).copy()
    rhs = np.asarray(rhs, dtype=float)
    squeeze = rhs.ndim == 1
    x = rhs.reshape(rhs.shape[0], -1).astype(float).copy()
    n = a.shape[0]
    for p in range(n - 1, 0, -1):
        d_p = a[p, :p].sum() + b[p]
        if d_p <= 0:
            raise ValueError(
                f"state {p} cannot reach absorption; the system is singular"
            )
        factors = a[:p, p] / d_p
        a[:p, :p] += np.outer(factors, a[p, :p])
        b[:p] += factors * b[p]
        x[:p] += np.outer(factors, x[p])
    if b[0] <= 0:
        raise ValueError("state 0 cannot reach absorption; the system is singular")
    rows = n if rows is None else rows
    x[0] = x[0] / b[0]
    for p in range(1, rows):
        d_p = a[p, :p].sum() + b[p]
        x[p] = (x[p] + a[p, :p] @ x[:p]) / d_p
    x = x[:rows]
    return x[:, 0] if squeeze else x


def _bits(x):
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


def _outcome(solve):
    try:
        return _bits(solve())
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestFusedKernelMatchesReference:
    """The one-block-update kernel is bitwise the three-update one."""

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 18),
        density=st.floats(0.0, 1.0),
        absorb_density=st.floats(0.0, 1.0),
        rhs_kind=st.sampled_from(["vector", "identity", "matrix"]),
        init_frac=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_bitwise_equal(
        self, seed, n, density, absorb_density, rhs_kind, init_frac
    ):
        rng = np.random.default_rng(seed)
        rates = 10.0 ** rng.uniform(-8, 4, size=(n, n))
        rates[rng.random((n, n)) >= density] = 0.0
        np.fill_diagonal(rates, 0.0)
        absorb = 10.0 ** rng.uniform(-8, 4, size=n)
        absorb[rng.random(n) >= absorb_density] = 0.0
        if rhs_kind == "vector":
            rhs = rng.uniform(0.0, 1.0, size=n)
        elif rhs_kind == "identity":
            rhs = np.eye(n)
        else:
            rhs = rng.uniform(0.0, 1.0, size=(n, 3))
        init_pos = int(init_frac * n)

        assert _outcome(lambda: gth_solve(rates, absorb, rhs)) == _outcome(
            lambda: _reference_gth_solve(rates, absorb, rhs)
        )
        rhs2d = rhs.reshape(n, -1)

        def initial_row(solve):
            return solve(rates, absorb, rhs2d, init_pos + 1)[init_pos]

        assert _outcome(lambda: initial_row(gth_solve_unchecked)) == _outcome(
            lambda: initial_row(_reference_gth_solve)
        )

    def test_unchecked_leaves_inputs_untouched(self):
        rates, absorb = random_absorbing_system(np.random.default_rng(5), 4)
        rhs = np.eye(4)
        before = (rates.copy(), absorb.copy(), rhs.copy())
        gth_solve_unchecked(rates, absorb, rhs, 4)
        for kept, now in zip(before, (rates, absorb, rhs)):
            assert np.array_equal(kept, now)
