"""The paper's closed-form MTTDL approximations, verbatim.

Every approximation printed in the paper is transcribed here as a plain
function of the basic rates, so they can be checked independently against
the numeric chain solves:

* RAID 5 / RAID 6 arrays (Section 4, also exposed via
  :mod:`repro.models.raid`),
* internal RAID x node fault tolerance 1/2/3 (Sections 4.2, 5.2.1),
* no internal RAID x node fault tolerance 1/2/3 (Section 4.3 and
  Figure 12) — with the paper's ``lambda_D`` typo corrected to
  ``lambda_d`` (see DESIGN.md), and
* the general Figure A1 formula (any fault tolerance) re-exported from
  :mod:`repro.models.recursive`.
"""

from __future__ import annotations

from .recursive import mttdl_general_approx

__all__ = [
    "mttdl_internal_raid_nft1",
    "mttdl_internal_raid_nft2",
    "mttdl_internal_raid_nft3",
    "mttdl_no_raid_nft1",
    "mttdl_no_raid_nft2",
    "mttdl_no_raid_nft3",
    "mttdl_general_approx",
]


# --------------------------------------------------------------------- #
# internal RAID (Sections 4.2 / 5.2.1)
# --------------------------------------------------------------------- #


def mttdl_internal_raid_nft1(
    n: int,
    node_failure_rate: float,
    array_failure_rate: float,
    sector_loss_rate: float,
    node_rebuild_rate: float,
    exact: bool = False,
) -> float:
    """MTTDL for [internal RAID, node fault tolerance 1].

    With ``exact=True`` returns the paper's full expression
    ``(mu_N + (2N-1)(lam_N+lam_D) + (N-1)lam_S) /
    (N(N-1)(lam_N+lam_D)(lam_N+lam_D+lam_S))``; otherwise the leading-term
    approximation (drop the numerator's failure-rate terms).
    """
    _check_n(n, 1)
    lam = node_failure_rate + array_failure_rate
    lam_s = sector_loss_rate
    mu = node_rebuild_rate
    denominator = n * (n - 1) * lam * (lam + lam_s)
    if exact:
        return (mu + (2 * n - 1) * lam + (n - 1) * lam_s) / denominator
    return mu / denominator


def mttdl_internal_raid_nft2(
    n: int,
    node_failure_rate: float,
    array_failure_rate: float,
    sector_loss_rate: float,
    node_rebuild_rate: float,
    k2: float,
) -> float:
    """MTTDL for [internal RAID, node fault tolerance 2]:

    ``mu_N^2 / (N(N-1)(N-2)(lam_N+lam_D)^2 (lam_N+lam_D+k2 lam_S))``.
    """
    _check_n(n, 2)
    lam = node_failure_rate + array_failure_rate
    mu = node_rebuild_rate
    return mu**2 / (
        n * (n - 1) * (n - 2) * lam**2 * (lam + k2 * sector_loss_rate)
    )


def mttdl_internal_raid_nft3(
    n: int,
    node_failure_rate: float,
    array_failure_rate: float,
    sector_loss_rate: float,
    node_rebuild_rate: float,
    k3: float,
) -> float:
    """MTTDL for [internal RAID, node fault tolerance 3]:

    ``mu_N^3 / (N(N-1)(N-2)(N-3)(lam_N+lam_D)^3 (lam_N+lam_D+k3 lam_S))``.
    """
    _check_n(n, 3)
    lam = node_failure_rate + array_failure_rate
    mu = node_rebuild_rate
    return mu**3 / (
        n * (n - 1) * (n - 2) * (n - 3) * lam**3 * (lam + k3 * sector_loss_rate)
    )


# --------------------------------------------------------------------- #
# no internal RAID (Section 4.3 and Figure 12)
# --------------------------------------------------------------------- #


def mttdl_no_raid_nft1(
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: float,
) -> float:
    """MTTDL for [no internal RAID, node fault tolerance 1]:

    ``mu_d mu_N / (N(N-1)(lam_N + d lam_d)(mu_d lam_N + d mu_N lam_d)
    + N d h mu_d mu_N (lam_d + lam_N))``

    where ``h = (R-1) C HER`` is the per-drive hard-error probability.
    """
    _check_n(n, 1)
    lam_n, lam_d = node_failure_rate, drive_failure_rate
    mu_n, mu_d = node_rebuild_rate, drive_rebuild_rate
    denominator = n * (n - 1) * (lam_n + d * lam_d) * (
        mu_d * lam_n + d * mu_n * lam_d
    ) + n * d * h * mu_d * mu_n * (lam_d + lam_n)
    return mu_d * mu_n / denominator


def mttdl_no_raid_nft2(
    n: int,
    d: int,
    r: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    hard_error_per_drive_read: float,
) -> float:
    """MTTDL for [no internal RAID, node fault tolerance 2] (Figure 12):

    ``mu_d^2 mu_N^2 / (N(N-1)(N-2)(lam_N + d lam_d)(mu_d lam_N + d mu_N lam_d)^2
    + N(R-1)(R-2) C HER d mu_d mu_N (lam_d + lam_N)(mu_d lam_N + mu_N lam_d))``.
    """
    _check_n(n, 2)
    lam_n, lam_d = node_failure_rate, drive_failure_rate
    mu_n, mu_d = node_rebuild_rate, drive_rebuild_rate
    che = hard_error_per_drive_read
    term1 = (
        n
        * (n - 1)
        * (n - 2)
        * (lam_n + d * lam_d)
        * (mu_d * lam_n + d * mu_n * lam_d) ** 2
    )
    term2 = (
        n
        * (r - 1)
        * (r - 2)
        * che
        * d
        * mu_d
        * mu_n
        * (lam_d + lam_n)
        * (mu_d * lam_n + mu_n * lam_d)
    )
    return (mu_d**2 * mu_n**2) / (term1 + term2)


def mttdl_no_raid_nft3(
    n: int,
    d: int,
    r: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    hard_error_per_drive_read: float,
) -> float:
    """MTTDL for [no internal RAID, node fault tolerance 3] (Figure 12):

    ``mu_d^3 mu_N^3 / (N(N-1)(N-2)(N-3)(lam_N + d lam_d)(mu_d lam_N + d mu_N lam_d)^3
    + N(R-1)(R-2)(R-3) C HER d mu_d mu_N (lam_d + lam_N)(mu_d lam_N + mu_N lam_d)^2)``.

    The second term is the appendix theorem's ``N(N-1)(N-2) mu_N mu_d
    L_3(h^(3))`` after substituting the Section 5.2.2 h-values.
    """
    _check_n(n, 3)
    lam_n, lam_d = node_failure_rate, drive_failure_rate
    mu_n, mu_d = node_rebuild_rate, drive_rebuild_rate
    che = hard_error_per_drive_read
    term1 = (
        n
        * (n - 1)
        * (n - 2)
        * (n - 3)
        * (lam_n + d * lam_d)
        * (mu_d * lam_n + d * mu_n * lam_d) ** 3
    )
    term2 = (
        n
        * (r - 1)
        * (r - 2)
        * (r - 3)
        * che
        * d
        * mu_d
        * mu_n
        * (lam_d + lam_n)
        * (mu_d * lam_n + mu_n * lam_d) ** 2
    )
    return (mu_d**3 * mu_n**3) / (term1 + term2)


def _check_n(n: int, fault_tolerance: int) -> None:
    if n <= fault_tolerance:
        raise ValueError("node set must be larger than the fault tolerance")
