"""Critical-redundancy-set combinatorics (Section 5.2).

With data spread evenly over all :math:`\\binom{N}{R}` redundancy sets,
a redundancy set only loses data to an uncorrectable read error when it is
*critical* — it has already used up its fault tolerance.  This module
computes:

* the fraction of a surviving node's redundancy sets that are critical
  after ``j`` node failures (the paper's ``k2`` and ``k3`` factors), and
* the ``h``-with-subscript probabilities of hitting a hard error during a
  critical rebuild for nodes *without* internal RAID, for every
  node/drive failure combination (Sections 5.2.2) and, via the appendix's
  dot-operation, for arbitrary fault tolerance ``k``.

:func:`critical_fraction` and :func:`h_parameters` take scalars or
columns (:class:`~repro.models.parameters.ParameterColumns`) alike; the
column forms are bitwise equal to the per-point values.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict

import numpy as np

from .parameters import Parameters, elementwise_max, per_value

__all__ = [
    "critical_fraction",
    "k2_factor",
    "k3_factor",
    "redundancy_sets_total",
    "redundancy_sets_per_node",
    "hard_error_probability_full_drive",
    "h_parameters",
    "h_parameter",
]


def redundancy_sets_total(n: int, r: int) -> int:
    """Number of distinct redundancy sets, :math:`\\binom{N}{R}`."""
    _check_sizes(n, r)
    return math.comb(n, r)


def redundancy_sets_per_node(n: int, r: int) -> int:
    """Redundancy sets containing a given node, :math:`\\binom{N-1}{R-1}`."""
    _check_sizes(n, r)
    return math.comb(n - 1, r - 1)


def critical_fraction(n: Any, r: Any, failures: int) -> Any:
    """Fraction of one failed node's redundancy sets shared with all the
    other ``failures - 1`` failed nodes.

    This is the paper's
    :math:`\\binom{N-j}{R-j} / \\binom{N-1}{R-1}` with ``j = failures``:
    of all the redundancy sets a particular failed node belongs to, the
    fraction that also contain every one of the other failed nodes — i.e.
    the fraction that is *critical* when the erasure code tolerates exactly
    ``failures`` losses.

    ``failures = 1`` gives 1.0 (every set containing the failed node is
    critical under fault tolerance 1), matching the bare ``lambda_S`` in
    the paper's NFT-1 formula.

    Args:
        n: node set size N.
        r: redundancy set size R.
        failures: number of concurrent failed nodes (>= 1).

    ``n`` and ``r`` may be columns: the exact big-integer ratio is then
    taken once per distinct ``(n, r)`` pair.
    """
    if isinstance(n, np.ndarray) or isinstance(r, np.ndarray):
        return per_value(lambda a, b: critical_fraction(a, b, failures), n, r)
    _check_sizes(n, r)
    if failures < 1:
        raise ValueError("failures must be >= 1")
    if failures > r:
        return 0.0
    if failures > n:
        return 0.0
    numerator = math.comb(n - failures, r - failures)
    return numerator / math.comb(n - 1, r - 1)


def k2_factor(n: int, r: int) -> float:
    """``k2 = (R-1)/(N-1)``, the critical fraction with two node failures."""
    return critical_fraction(n, r, 2)


def k3_factor(n: int, r: int) -> float:
    """``k3 = (R-1)(R-2)/((N-1)(N-2))``, critical fraction with three failures."""
    return critical_fraction(n, r, 3)


def hard_error_probability_full_drive(params: Parameters, fault_tolerance: int) -> float:
    """Probability of a hard error while rebuilding one *fully critical* drive.

    During a critical rebuild with fault tolerance ``t``, regenerating a
    drive's worth of data requires reading the ``R - t`` surviving elements
    of each stripe, i.e. ``(R - t) * C`` bytes; the paper writes the per-
    drive probability as ``(R - t) * C * HER``.
    """
    r = params.redundancy_set_size
    if fault_tolerance < 1:
        raise ValueError("fault_tolerance must be >= 1")
    surviving_reads = max(r - fault_tolerance, 0)
    return surviving_reads * params.hard_error_per_drive_read


def h_parameter(params: Parameters, word: str) -> float:
    """The paper's ``h`` with subscript ``word`` for no-internal-RAID chains.

    ``word`` is a string over the letters ``"N"`` (node failure) and
    ``"d"`` (drive failure); its length is the erasure code's fault
    tolerance ``k``.  The value is the probability of encountering an
    uncorrectable error during the *last* rebuild when the preceding
    failures are as listed.

    Construction (Section 5.2.2 generalized): let

    .. math::

        h = \\frac{(R-1)(R-2)\\cdots(R-k)}{(N-1)(N-2)\\cdots(N-k+1)}
            \\cdot C \\cdot HER

    then ``h_word = h * d^(1 - #d)`` where ``#d`` counts the letter ``d``
    in ``word``.  For k = 1: ``h_N = d*(R-1)*C*HER`` and
    ``h_d = (R-1)*C*HER``; for k = 2 and 3 this reproduces the paper's
    tables exactly (``h_NN = d h``, ``h_Nd = h_dN = h``, ``h_dd = h/d``,
    etc.).

    Args:
        params: system parameters.
        word: failure word, e.g. ``"Nd"``.

    Raises:
        ValueError: on an empty word or letters outside {N, d}.
    """
    if not word:
        raise ValueError("failure word must be non-empty")
    if any(c not in "Nd" for c in word):
        raise ValueError(f"failure word may only contain 'N' and 'd': {word!r}")
    return _h_word(_h_base(params, len(word)), params.drives_per_node, word)


def h_parameters(params: Parameters, fault_tolerance: int) -> Dict[str, Any]:
    """All ``2^k`` h-parameters for fault tolerance ``k``.

    Returned in the appendix's reverse-lexicographic convention: keys are
    all words of length ``k`` over {N, d}, values per :func:`h_parameter`
    (columns when ``params`` is a
    :class:`~repro.models.parameters.ParameterColumns`).
    """
    if fault_tolerance < 1:
        raise ValueError("fault_tolerance must be >= 1")
    base = _h_base(params, fault_tolerance)
    d = params.drives_per_node
    return {
        word: _h_word(base, d, word)
        for word in (
            "".join(letters)
            for letters in itertools.product("Nd", repeat=fault_tolerance)
        )
    }


def _h_base(params: Parameters, k: int) -> Any:
    """``C HER (R-1)...(R-k) / ((N-1)...(N-k+1))``, shared by all words."""
    n = params.node_set_size
    r = params.redundancy_set_size
    base = params.hard_error_per_drive_read
    for i in range(1, k + 1):
        base = base * elementwise_max(r - i, 0)
    for i in range(1, k):
        base = base / (n - i)
    return base


def _h_word(base: Any, d: Any, word: str) -> Any:
    """``base * d^(1 - #d)``; a negative power of a ``d`` column is taken
    per distinct ``d``, as the scalar ``int ** int`` does it."""
    exponent = 1 - word.count("d")
    if exponent < 0 and isinstance(d, np.ndarray):
        return base * per_value(lambda v: v**exponent, d)
    return base * d**exponent


def _check_sizes(n: int, r: int) -> None:
    if n < 2:
        raise ValueError("node set size must be >= 2")
    if not 2 <= r <= n:
        raise ValueError("redundancy set size must satisfy 2 <= R <= N")
