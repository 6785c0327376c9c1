"""The appendix's closed form.

The appendix observes that the fault-tolerance-``k`` no-internal-RAID
chain contains two copies of the fault-tolerance-``k-1`` chain (one
entered by a node failure, one by a drive failure) plus a new root,
giving ``2^(k+1) - 1`` non-absorbing states.  The chain for every ``k``
is :func:`repro.models.specs.no_raid_spec`, bound by
:class:`repro.models.no_raid.NoRaidNodeModel`.  This module holds:

* :func:`l_value` / :func:`l_k` — the appendix's ``L`` and ``L_k``
  recursions; and
* :func:`mttdl_general_approx` — Figure A1's closed form

  .. math::

     MTTDL \\approx \\frac{(\\mu_N \\mu_d)^k}
       {N (N-1) \\cdots (N-k+1)\\bigl((N-k)(\\lambda_N + d \\lambda_d)
        L(\\mu_d, \\mu_N)^k + \\mu_N \\mu_d L_k(h^{(k)})\\bigr)}
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .specs import _words

__all__ = [
    "l_value",
    "l_k",
    "mttdl_general_approx",
]


def l_value(x: float, y: float, node_failure_rate: float, drive_failure_rate: float, d: int) -> float:
    """``L(x, y) = x lambda_N + y d lambda_d``."""
    return x * node_failure_rate + y * d * drive_failure_rate


def l_k(
    h_ordered: Sequence[float],
    node_failure_rate: float,
    drive_failure_rate: float,
    d: int,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
) -> float:
    """The appendix's ``L_k`` recursion on an ordered h-set of size ``2^k``.

    ``L_1(H) = L(H_1, H_2)``; for k > 1 split H into halves (N-prefixed
    first, d-prefixed second) and
    ``L_k(H) = L(mu_d L_{k-1}(H_N), mu_N L_{k-1}(H_d))``.
    """
    size = len(h_ordered)
    if size < 2 or size & (size - 1):
        raise ValueError("h-set size must be a power of two, >= 2")
    if size == 2:
        return l_value(
            h_ordered[0], h_ordered[1], node_failure_rate, drive_failure_rate, d
        )
    half = size // 2
    first = l_k(
        h_ordered[:half],
        node_failure_rate,
        drive_failure_rate,
        d,
        node_rebuild_rate,
        drive_rebuild_rate,
    )
    second = l_k(
        h_ordered[half:],
        node_failure_rate,
        drive_failure_rate,
        d,
        node_rebuild_rate,
        drive_rebuild_rate,
    )
    return l_value(
        drive_rebuild_rate * first,
        node_rebuild_rate * second,
        node_failure_rate,
        drive_failure_rate,
        d,
    )


def mttdl_general_approx(
    fault_tolerance: int,
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: Mapping[str, float],
) -> float:
    """Figure A1's general closed-form MTTDL approximation.

    Valid when ``N (lambda_N + d lambda_d)`` is at least an order of
    magnitude below both rebuild rates (the appendix theorem's hypothesis).
    """
    k = fault_tolerance
    if k < 1:
        raise ValueError("fault_tolerance must be >= 1")
    if n <= k:
        raise ValueError("node set must be larger than the fault tolerance")
    lam_n, lam_d = node_failure_rate, drive_failure_rate
    mu_n, mu_d = node_rebuild_rate, drive_rebuild_rate
    h_ordered = [h[w] for w in _words(k)]
    l_mu = l_value(mu_d, mu_n, lam_n, lam_d, d)
    lk = (
        l_k(h_ordered, lam_n, lam_d, d, mu_n, mu_d)
        if k > 1
        else l_value(h_ordered[0], h_ordered[1], lam_n, lam_d, d)
    )
    falling = 1.0
    for j in range(k):
        falling *= n - j
    denominator = falling * (
        (n - k) * (lam_n + d * lam_d) * l_mu**k + (mu_n * mu_d) * lk
    )
    return (mu_n * mu_d) ** k / denominator

