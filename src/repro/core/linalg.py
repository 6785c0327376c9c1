"""Accurate linear algebra for absorbing-chain M-matrices.

The absorption matrix ``R = -Q_B`` of a reliability chain is an M-matrix
whose condition number grows like ``(mu / lambda)^k`` — above 1e16 for
the paper's higher fault tolerances, where ordinary Gaussian elimination
in float64 loses *all* significant digits.

The cure is the Grassmann-Taksar-Heyman (GTH) trick: represent the
diagonal implicitly as ``(sum of off-diagonal rates) + (absorption
rate)`` and re-derive it after every elimination step.  Every quantity in
the elimination is then a sum/product/quotient of non-negative numbers —
no cancellation — giving componentwise relative accuracy independent of
conditioning.  See Grassmann, Taksar & Heyman (1985) and O'Cinneide
(1993) for the entrywise error analysis.

:func:`gth_fundamental_matrix` computes the fundamental matrix
``N = R^{-1}`` (expected time spent in each transient state per start
state), from which MTTDL, per-state expected times and absorption
probabilities all follow by non-negative arithmetic.
The scalar elimination (:func:`gth_solve_unchecked`) updates one
augmented matrix ``[X | b | A]`` per pivot.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["gth_fundamental_matrix", "gth_solve", "gth_solve_batched"]


def _validate(rates: np.ndarray, absorb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    rates = np.asarray(rates, dtype=float)
    absorb = np.asarray(absorb, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise ValueError("rates must be a square matrix")
    n = rates.shape[0]
    if absorb.shape != (n,):
        raise ValueError("absorb must be a vector matching rates")
    if np.any(rates < 0) or np.any(absorb < 0):
        raise ValueError("rates must be non-negative")
    if np.any(np.diagonal(rates) != 0):
        raise ValueError("diagonal of rates must be zero (rates are off-diagonal)")
    return rates, absorb


def _check_rows(rows: Optional[int], n: int) -> int:
    if rows is None:
        return n
    if not 1 <= rows <= n:
        raise ValueError(f"rows must be in 1..{n}, got {rows}")
    return rows


def gth_solve(
    transient_rates: np.ndarray,
    absorb_rates: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve ``(D - A) X = B`` for an absorbing-chain M-matrix, accurately.

    Args:
        transient_rates: ``A`` — non-negative transient-to-transient rate
            matrix with zero diagonal (``A[i, j]`` = rate from i to j).
        absorb_rates: non-negative total rate from each transient state to
            the absorbing states; the implicit diagonal is
            ``D[i, i] = sum_j A[i, j] + absorb_rates[i]``.
        rhs: non-negative right-hand side, shape (n,) or (n, m).

    Returns:
        ``X`` with the same shape as ``rhs``; all entries are
        non-negative and computed without subtractive cancellation.

    Raises:
        ValueError: on negative inputs, shape mismatch, or a state that
            cannot reach absorption (singular system).
    """
    a, b = _validate(transient_rates, absorb_rates)
    rhs = np.asarray(rhs, dtype=float)
    if np.any(rhs < 0):
        raise ValueError("GTH solve requires a non-negative right-hand side")
    if rhs.shape[0] != a.shape[0]:
        raise ValueError("rhs length does not match the matrix")
    x = gth_solve_unchecked(a, b, rhs.reshape(rhs.shape[0], -1), a.shape[0])
    return x[:, 0] if rhs.ndim == 1 else x


def gth_solve_unchecked(
    a: np.ndarray, b: np.ndarray, rhs: np.ndarray, rows: int
) -> np.ndarray:
    """The GTH elimination behind :func:`gth_solve`, on inputs that
    already meet its contract (``a`` (n, n), ``b`` (n,), ``rhs`` (n, k)).

    Returns ``X[:rows]``: back-substitution stops after row
    ``rows - 1``, and since row ``p`` reads only rows before it each
    returned row is bitwise the full solve's.  The working matrix is
    ``M = [X | b | A]``; at pivot ``p`` the live operands (all of ``X``,
    ``b`` and ``A[:, :p]``) are the contiguous block ``M[:p, :k+1+p]``,
    so each pivot is one rank-one update of it — the same elementwise
    operations, in the same order, as updating ``A``, ``b`` and ``X``
    separately.  Raises ``ValueError`` for a singular system.
    """
    n, k = rhs.shape
    m = np.concatenate((rhs, b[:, None], a), axis=1)
    # Forward elimination, pivots n-1 .. 1.  After eliminating pivot p,
    # rows 0..p-1 no longer reference state p; the diagonal is always
    # re-derived from the current off-diagonal sums plus the absorption
    # rate, which only ever *accumulates* (the GTH trick).
    for p in range(n - 1, 0, -1):
        w = k + 1 + p
        d_p = m[p, k + 1 : w].sum() + m[p, k]
        if d_p <= 0:
            raise ValueError(
                f"state {p} cannot reach absorption; the system is singular"
            )
        m[:p, :w] += (m[:p, w] / d_p)[:, None] * m[p, :w]

    # Back substitution, states 0 .. rows-1.
    if m[0, k] <= 0:
        raise ValueError("state 0 cannot reach absorption; the system is singular")
    # A contiguous copy, so each ``a_p @ x[:p]`` runs the same BLAS
    # reduction as on a standalone ``X``.
    x = m[:rows, :k].copy()
    x[0] = x[0] / m[0, k]
    for p in range(1, rows):
        a_p = m[p, k + 1 : k + 1 + p]
        x[p] = (x[p] + a_p @ x[:p]) / (a_p.sum() + m[p, k])
    return x


def gth_solve_batched(
    transient_rates: np.ndarray,
    absorb_rates: np.ndarray,
    rhs: np.ndarray,
    rows: Optional[int] = None,
) -> np.ndarray:
    """Solve ``(D - A) X = B`` for a *batch* of same-shape absorbing systems.

    Vectorized GTH elimination over a leading batch dimension: every
    arithmetic operation is the scalar algorithm's operation applied
    elementwise across the batch, in the same order, so each slice of the
    result is bitwise identical to ``gth_solve`` on that slice.  This is
    what lets the sweep engine group structurally-identical chains and
    solve them in one pass without perturbing any published number.

    Args:
        transient_rates: shape ``(batch, n, n)``, each slice a non-negative
            off-diagonal rate matrix (zero diagonals).
        absorb_rates: shape ``(batch, n)``.
        rhs: shape ``(batch, n)`` or ``(batch, n, m)``.
        rows: stop back-substitution after row ``rows - 1`` and return
            only those rows, each bitwise the full solve's (default ``n``).

    Returns:
        ``X`` with the same shape as ``rhs`` (``rows`` rows when given).

    Raises:
        ValueError: on negative inputs, shape mismatch, or any batch member
            with a state that cannot reach absorption.
    """
    a = np.asarray(transient_rates, dtype=float)
    b = np.asarray(absorb_rates, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("transient_rates must have shape (batch, n, n)")
    batch, n = a.shape[0], a.shape[1]
    if b.shape != (batch, n):
        raise ValueError("absorb_rates must have shape (batch, n)")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("rates must be non-negative")
    if np.any(a[:, np.arange(n), np.arange(n)] != 0):
        raise ValueError("diagonal of rates must be zero (rates are off-diagonal)")
    rhs = np.asarray(rhs, dtype=float)
    if np.any(rhs < 0):
        raise ValueError("GTH solve requires a non-negative right-hand side")
    squeeze = rhs.ndim == 2
    x = rhs.reshape(batch, n, -1).astype(float).copy()
    if x.shape[:2] != (batch, n):
        raise ValueError("rhs does not match the matrix batch")
    a = a.copy()
    b = b.copy()

    # Forward elimination, pivots n-1 .. 1 (see gth_solve for the scalar
    # derivation; every step below is that step broadcast over the batch).
    for p in range(n - 1, 0, -1):
        d_p = a[:, p, :p].sum(axis=-1) + b[:, p]
        if np.any(d_p <= 0):
            bad = int(np.argmax(d_p <= 0))
            raise ValueError(
                f"state {p} of batch member {bad} cannot reach absorption; "
                "the system is singular"
            )
        factors = a[:, :p, p] / d_p[:, None]
        a[:, :p, :p] += factors[:, :, None] * a[:, p, None, :p]
        b[:, :p] += factors * b[:, p, None]
        x[:, :p, :] += factors[:, :, None] * x[:, p, None, :]

    # Back substitution, states 0 .. n-1.
    if np.any(b[:, 0] <= 0):
        bad = int(np.argmax(b[:, 0] <= 0))
        raise ValueError(
            f"state 0 of batch member {bad} cannot reach absorption; "
            "the system is singular"
        )
    rows = _check_rows(rows, n)
    x[:, 0, :] = x[:, 0, :] / b[:, 0, None]
    for p in range(1, rows):
        d_p = a[:, p, :p].sum(axis=-1) + b[:, p]
        dot = np.matmul(a[:, p, None, :p], x[:, :p, :])[:, 0, :]
        x[:, p, :] = (x[:, p, :] + dot) / d_p[:, None]

    x = x[:, :rows]
    return x[:, :, 0] if squeeze else x


def gth_fundamental_matrix(
    transient_rates: np.ndarray, absorb_rates: np.ndarray
) -> np.ndarray:
    """The fundamental matrix ``N = (D - A)^{-1}`` via :func:`gth_solve`.

    ``N[i, j]`` is the expected total time spent in transient state ``j``
    before absorption when starting in transient state ``i``.  Row sums
    are the mean times to absorption per start state.
    """
    n = transient_rates.shape[0]
    return gth_solve(transient_rates, absorb_rates, np.eye(n))
