"""Validity map: where do the paper's approximations hold?

The appendix theorem needs ``N (lambda_N + d lambda_d)`` at least an
order of magnitude below both rebuild rates, and every h-probability
well below 1.  This module quantifies the approximation error —
``|approx - exact| / exact`` between the closed forms and the numeric
chain solves — across a grid of rate separations, so users know when to
trust the formulas and when to solve the chain (the library always can,
thanks to the GTH solver).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..models.parameters import Parameters
from ..models.no_raid import NoRaidNodeModel

__all__ = ["ValidityPoint", "validity_map", "separation_ratio"]


def separation_ratio(params: Parameters, fault_tolerance: int) -> float:
    """The theorem's hypothesis as a number: min(mu_N, mu_d) over
    ``N (lambda_N + d lambda_d)``.  >> 1 means the closed forms apply."""
    from ..models.rebuild import RebuildModel

    rebuild = RebuildModel(params)
    mu = min(
        rebuild.node_rebuild_rate(fault_tolerance),
        rebuild.drive_rebuild_rate(fault_tolerance),
    )
    total_failure = params.node_set_size * (
        params.node_failure_rate
        + params.drives_per_node * params.drive_failure_rate
    )
    return mu / total_failure


@dataclass(frozen=True)
class ValidityPoint:
    """Approximation quality at one operating point.

    Attributes:
        separation: min rebuild rate / total failure rate.
        max_h: largest h-probability in the model (clamping begins at 1).
        relative_error: |approx - exact| / exact for the MTTDL.
    """

    separation: float
    max_h: float
    relative_error: float

    @property
    def trustworthy(self) -> bool:
        """The rule of thumb the paper implies: rate separation of at
        least an order of magnitude, and no h-probability close to its
        clamping point at 1 (the baseline's largest, h_NN ~ 0.19, is
        fine; the NFT-1 case with h_N ~ 2 is exactly where the closed
        forms visibly diverge)."""
        return self.separation >= 10.0 and self.max_h <= 0.5


def validity_map(
    base: Optional[Parameters] = None,
    fault_tolerance: int = 2,
    mttf_scales: Sequence[float] = (0.003, 0.01, 0.03, 0.1, 0.3, 1.0),
) -> List[ValidityPoint]:
    """Approximation error of Figure A1 vs the exact solve as the failure
    rates are scaled toward the rebuild rates.

    Args:
        base: starting parameters (baseline by default).
        fault_tolerance: which no-RAID model to study.
        mttf_scales: multipliers on both MTTFs; 1.0 is the baseline,
            smaller values push toward the theorem's breakdown.

    Returns:
        One :class:`ValidityPoint` per scale, in input order.
    """
    if base is None:
        base = Parameters.baseline()
    points = []
    for scale in mttf_scales:
        params = base.replace(
            node_mttf_hours=base.node_mttf_hours * scale,
            drive_mttf_hours=base.drive_mttf_hours * scale,
        )
        model = NoRaidNodeModel(params, fault_tolerance)
        exact = model.mttdl_exact()
        approx = model.mttdl_approx()
        points.append(
            ValidityPoint(
                separation=separation_ratio(params, fault_tolerance),
                max_h=max(model.hard_error_parameters().values()),
                relative_error=abs(approx - exact) / exact,
            )
        )
    return points
