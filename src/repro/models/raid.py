"""Drive-level Markov models for internal RAID arrays (Figures 1 and 4).

A node's internal array is modeled as a small absorbing CTMC over the
number of concurrently failed drives.  Because the nodes are sealed
(fail-in-place), the repair transition is a *re-stripe* — the array is
rewritten without the failed drive — so the repair rate ``mu_d`` is the
re-stripe rate, not a hot-spare rebuild rate.

Uncorrectable (hard) read errors are folded in the paper's way: a hard
error only causes loss when the array is critical, and the chance of
hitting one is attached to the transition *into* the critical state — a
fraction ``h`` of entries into the critical state instead go straight to
the data-loss state, where ``h`` is the expected number of hard errors in
the surviving data that the re-stripe must read.

Besides the MTTDL, each model exposes the two rates the node-level models
consume (Section 4.2):

* ``lambda_D`` — array failure rate (drive failures beyond the RAID
  tolerance), and
* ``lambda_S`` — rate of hard-error-induced loss during a re-stripe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

from ..core import CTMC
from .parameters import Parameters
from .rebuild import RebuildModel
from .specs import (
    LOSS_DRIVES,
    LOSS_SECTOR,
    compiled,
    raid5_spec,
    raid6_spec,
    raid_env,
)

__all__ = [
    "InternalRaid",
    "ArrayRates",
    "Raid5Model",
    "Raid6Model",
    "array_model",
    "build_raid5_chain",
    "build_raid6_chain",
    "raid5_mttdl_exact_formula",
    "raid5_mttdl_approx",
    "raid6_mttdl_approx",
]


class InternalRaid(Enum):
    """Internal redundancy level of a node."""

    NONE = "none"
    RAID5 = "raid5"
    RAID6 = "raid6"

    @property
    def drive_fault_tolerance(self) -> int:
        """Concurrent drive failures the array survives."""
        return {"none": 0, "raid5": 1, "raid6": 2}[self.value]


@dataclass(frozen=True)
class ArrayRates:
    """Rates exported by a drive-level model to the node-level models.

    Attributes:
        array_failure_rate: lambda_D, array (data-losing) failures per hour.
        restripe_sector_loss_rate: lambda_S, hard-error losses during
            re-stripes per hour.
        mttdl_source: the array's own MTTDL, or a zero-argument callable
            that computes it.  (The sweep engine also builds ArrayRates
            whose three values are per-point columns.)  Node-level models never read it, so the
            approximate rates pass the array chain's solve here and it
            runs only if :attr:`mttdl_hours` is read.  Not part of
            equality or hashing.
    """

    array_failure_rate: float
    restripe_sector_loss_rate: float
    mttdl_source: Union[float, Callable[[], float]] = field(
        compare=False, repr=False
    )

    @property
    def mttdl_hours(self) -> float:
        """The array's own mean time to data loss (solved on first read)."""
        value = self.mttdl_source
        if callable(value):
            value = value()
            object.__setattr__(self, "mttdl_source", value)
        return value


# --------------------------------------------------------------------- #
# chain construction
# --------------------------------------------------------------------- #


def build_raid5_chain(
    d: int,
    drive_failure_rate: float,
    restripe_rate: float,
    hard_error_probability: float,
    split_loss: bool = False,
) -> CTMC:
    """Figure 1: RAID 5 array chain.

    States: ``0`` fully operational, ``1`` one drive failed (re-striping,
    no hard error will occur), ``loss`` absorbing.

    Args:
        d: drives in the array.
        drive_failure_rate: lambda_d per drive.
        restripe_rate: mu_d, the re-stripe completion rate.
        hard_error_probability: ``h = (d-1) * C * HER``, the chance a
            re-stripe hits a hard error.  Clamped into [0, 1].
        split_loss: when True, use separate absorbing states for
            drive-failure losses (``"loss-drives"``) and hard-error losses
            (``"loss-sector"``) so exact lambda_D / lambda_S can be read
            off the absorption probabilities.
    """
    env = raid_env(
        d, drive_failure_rate, restripe_rate, hard_error_probability,
        minimum_drives=2,
    )
    return compiled(raid5_spec(split_loss)).bind(env)


def build_raid6_chain(
    d: int,
    drive_failure_rate: float,
    restripe_rate: float,
    hard_error_probability: float,
    split_loss: bool = False,
) -> CTMC:
    """Figure 4: RAID 6 array chain.

    States: ``0`` operational, ``1`` one drive failed, ``2`` two drives
    failed (critical; no hard error will occur), ``loss`` absorbing.  The
    hard-error split rides the ``1 -> 2`` transition since state 2 is the
    critical one; ``h = (d-2) * C * HER``.  ``split_loss`` as in
    :func:`build_raid5_chain`.
    """
    env = raid_env(
        d, drive_failure_rate, restripe_rate, hard_error_probability,
        minimum_drives=3,
    )
    return compiled(raid6_spec(split_loss)).bind(env)


# --------------------------------------------------------------------- #
# paper closed forms
# --------------------------------------------------------------------- #


def raid5_mttdl_exact_formula(
    d: int, drive_failure_rate: float, restripe_rate: float, hard_error_probability: float
) -> float:
    """The paper's exact RAID 5 MTTDL:

    ``((2d - 1 - d h) lambda + mu) / (d (d-1) lambda^2 + d lambda mu h)``.
    """
    _check_array(d, minimum=2)
    lam, mu = drive_failure_rate, restripe_rate
    h = _clamp_probability(hard_error_probability)
    numerator = (2 * d - 1 - d * h) * lam + mu
    denominator = d * (d - 1) * lam**2 + d * lam * mu * h
    return numerator / denominator


def raid5_mttdl_approx(
    d: int, drive_failure_rate: float, restripe_rate: float, hard_error_per_drive_read: float
) -> float:
    """The paper's RAID 5 approximation:

    ``mu / (d(d-1) lambda^2 + d(d-1) lambda mu C HER)``.
    """
    _check_array(d, minimum=2)
    lam, mu = drive_failure_rate, restripe_rate
    che = hard_error_per_drive_read
    return mu / (d * (d - 1) * lam**2 + d * (d - 1) * lam * mu * che)


def raid6_mttdl_approx(
    d: int, drive_failure_rate: float, restripe_rate: float, hard_error_per_drive_read: float
) -> float:
    """The paper's RAID 6 approximation:

    ``mu^2 / (d(d-1)(d-2) lambda^3 + d(d-1)(d-2) lambda^2 mu C HER)``.
    """
    _check_array(d, minimum=3)
    lam, mu = drive_failure_rate, restripe_rate
    che = hard_error_per_drive_read
    denominator = d * (d - 1) * (d - 2) * lam**3 + d * (d - 1) * (d - 2) * lam**2 * mu * che
    return mu**2 / denominator


# --------------------------------------------------------------------- #
# model classes
# --------------------------------------------------------------------- #


class _BaseArrayModel:
    """Shared plumbing for the RAID 5/6 array models."""

    def __init__(self, params: Parameters, rebuild: Optional[RebuildModel] = None) -> None:
        self._params = params
        self._rebuild = rebuild if rebuild is not None else RebuildModel(params)

    @property
    def params(self) -> Parameters:
        return self._params

    @property
    def restripe_rate(self) -> float:
        """mu_d: the array re-stripe rate, from the transfer model."""
        return self._rebuild.restripe_rate()

    def chain(self) -> CTMC:
        raise NotImplementedError

    def mttdl_exact(self) -> float:
        """MTTDL from the numeric CTMC solve."""
        return self.chain().mean_time_to_absorption()

    def mttdl_approx(self) -> float:
        raise NotImplementedError

    def rates(self, method: str = "approx") -> ArrayRates:
        raise NotImplementedError


def _exact_rates(chain_builder, restripe_rate: float) -> "ArrayRates":
    """Exact lambda_D / lambda_S from a chain with split absorbing states.

    The chain must have absorbing states ``"loss-drives"`` and
    ``"loss-sector"``.  Treating the array as a renewal process (after a
    loss the node is rebuilt from cross-node redundancy and re-enters
    service fresh), the long-run rate of each loss cause is the absorption
    probability over the MTTDL.  As ``mu >> lambda`` these converge to the
    paper's approximations; unlike them they stay correct when failure
    rates are artificially accelerated (the Monte-Carlo validation regime).
    """
    chain = chain_builder
    result = chain.absorb()
    mttdl = result.mttdl
    p_drives = result.absorption_probabilities.get(LOSS_DRIVES, 0.0)
    p_sector = result.absorption_probabilities.get(LOSS_SECTOR, 0.0)
    return ArrayRates(
        array_failure_rate=p_drives / mttdl,
        restripe_sector_loss_rate=p_sector / mttdl,
        mttdl_source=mttdl,
    )



class Raid5Model(_BaseArrayModel):
    """RAID 5 internal array (Figure 1) parameterized from :class:`Parameters`."""

    @property
    def hard_error_probability(self) -> float:
        """``h = (d - 1) * C * HER``: expected hard errors while reading
        the surviving ``d - 1`` drives during a re-stripe."""
        p = self._params
        return (p.drives_per_node - 1) * p.hard_error_per_drive_read

    def chain(self) -> CTMC:
        p = self._params
        return build_raid5_chain(
            p.drives_per_node,
            p.drive_failure_rate,
            self.restripe_rate,
            self.hard_error_probability,
        )

    def mttdl_exact_formula(self) -> float:
        """The paper's exact closed form (matches :meth:`mttdl_exact`)."""
        p = self._params
        return raid5_mttdl_exact_formula(
            p.drives_per_node,
            p.drive_failure_rate,
            self.restripe_rate,
            self.hard_error_probability,
        )

    def mttdl_approx(self) -> float:
        p = self._params
        return raid5_mttdl_approx(
            p.drives_per_node,
            p.drive_failure_rate,
            self.restripe_rate,
            p.hard_error_per_drive_read,
        )

    def rates(self, method: str = "approx") -> ArrayRates:
        """lambda_D and lambda_S exported to the node-level model.

        ``method="approx"`` gives the paper's Section 4.2 expressions
        ``lambda_D = d(d-1) lambda^2 / mu`` and
        ``lambda_S = d(d-1) lambda C HER``; ``method="exact"`` reads the
        rates off the split-absorbing-state chain (needed when failure
        rates are accelerated and ``mu >> lambda`` no longer holds).
        """
        p = self._params
        if method == "exact":
            chain = build_raid5_chain(
                p.drives_per_node,
                p.drive_failure_rate,
                self.restripe_rate,
                self.hard_error_probability,
                split_loss=True,
            )
            return _exact_rates(chain, self.restripe_rate)
        if method != "approx":
            raise ValueError(f"unknown method {method!r}; use 'approx' or 'exact'")
        d, lam, mu = p.drives_per_node, p.drive_failure_rate, self.restripe_rate
        lambda_d_arr = d * (d - 1) * lam**2 / mu
        lambda_s = d * (d - 1) * lam * p.hard_error_per_drive_read
        return ArrayRates(lambda_d_arr, lambda_s, self.mttdl_exact)


class Raid6Model(_BaseArrayModel):
    """RAID 6 internal array (Figure 4) parameterized from :class:`Parameters`."""

    @property
    def hard_error_probability(self) -> float:
        """``h = (d - 2) * C * HER`` for the critical (two-failure) rebuild."""
        p = self._params
        return (p.drives_per_node - 2) * p.hard_error_per_drive_read

    def chain(self) -> CTMC:
        p = self._params
        return build_raid6_chain(
            p.drives_per_node,
            p.drive_failure_rate,
            self.restripe_rate,
            self.hard_error_probability,
        )

    def mttdl_approx(self) -> float:
        p = self._params
        return raid6_mttdl_approx(
            p.drives_per_node,
            p.drive_failure_rate,
            self.restripe_rate,
            p.hard_error_per_drive_read,
        )

    def rates(self, method: str = "approx") -> ArrayRates:
        """lambda_D and lambda_S exported to the node-level model.

        ``method="approx"`` gives the paper's Section 4.2 expressions
        ``lambda_D = d(d-1)(d-2) lambda^3 / mu^2`` and
        ``lambda_S = d(d-1)(d-2) lambda^2 C HER / mu``; ``method="exact"``
        reads them off the split-absorbing-state chain.
        """
        p = self._params
        if method == "exact":
            chain = build_raid6_chain(
                p.drives_per_node,
                p.drive_failure_rate,
                self.restripe_rate,
                self.hard_error_probability,
                split_loss=True,
            )
            return _exact_rates(chain, self.restripe_rate)
        if method != "approx":
            raise ValueError(f"unknown method {method!r}; use 'approx' or 'exact'")
        d, lam, mu = p.drives_per_node, p.drive_failure_rate, self.restripe_rate
        lambda_d_arr = d * (d - 1) * (d - 2) * lam**3 / mu**2
        lambda_s = d * (d - 1) * (d - 2) * lam**2 * p.hard_error_per_drive_read / mu
        return ArrayRates(lambda_d_arr, lambda_s, self.mttdl_exact)


def array_model(params: Parameters, level: InternalRaid) -> _BaseArrayModel:
    """Factory: the drive-level model for an internal RAID level.

    Raises:
        ValueError: for :attr:`InternalRaid.NONE` (there is no array model;
            use the no-internal-RAID node chains instead).
    """
    if level is InternalRaid.RAID5:
        return Raid5Model(params)
    if level is InternalRaid.RAID6:
        return Raid6Model(params)
    raise ValueError("no array model for nodes without internal RAID")


# --------------------------------------------------------------------- #


def _check_array(d: int, minimum: int) -> None:
    if d < minimum:
        raise ValueError(f"array needs at least {minimum} drives, got {d}")


def _clamp_probability(h: float) -> float:
    if h < 0:
        raise ValueError(f"hard error probability must be >= 0, got {h}")
    return min(h, 1.0)
