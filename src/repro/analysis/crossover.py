"""Target-crossover and headroom analysis (Section 8's "available headroom").

Section 8 frames the sensitivity study as "insight into available
headroom from a reliability perspective": how far can a parameter drift
before a configuration stops meeting the target?  This module answers it
directly: bisection over any single parameter for the value at which a
configuration's events/PB-year crosses the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..models.configurations import Configuration
from ..models.metrics import PAPER_TARGET_EVENTS_PER_PB_YEAR
from ..models.parameters import Parameters

__all__ = ["Crossover", "find_crossover", "headroom_orders"]

ParamsTransform = Callable[[Parameters, float], Parameters]


@dataclass(frozen=True)
class Crossover:
    """Result of a crossover search.

    Attributes:
        value: parameter value at which the loss rate equals the target,
            or None if the configuration sits on one side over the whole
            range.
        meets_at_low: whether the target is met at the range's low end.
        meets_at_high: whether it is met at the high end.
    """

    value: Optional[float]
    meets_at_low: bool
    meets_at_high: bool

    @property
    def always_meets(self) -> bool:
        return self.value is None and self.meets_at_low and self.meets_at_high

    @property
    def never_meets(self) -> bool:
        return self.value is None and not (self.meets_at_low or self.meets_at_high)


def _rate(
    config: Configuration,
    base: Parameters,
    transform: ParamsTransform,
    x: float,
    method: str,
) -> float:
    return config.reliability(transform(base, x), method).events_per_pb_year


def find_crossover(
    config: Configuration,
    base: Parameters,
    transform: ParamsTransform,
    low: float,
    high: float,
    target: float = PAPER_TARGET_EVENTS_PER_PB_YEAR,
    method: str = "analytic",
    tolerance: float = 1e-3,
    log_scale: bool = True,
) -> Crossover:
    """Bisect for the parameter value where the loss rate crosses the target.

    Assumes the loss rate is monotone in the parameter over [low, high]
    (true for every knob the paper sweeps).

    Args:
        config: configuration under study.
        base: baseline parameters.
        transform: (params, x) -> params with the knob set to x.
        low, high: search range (low < high).
        target: events/PB-year threshold.
        method: ``"analytic"`` or ``"closed_form"``.
        tolerance: relative width at which bisection stops.
        log_scale: bisect in log-space (natural for rates and sizes).

    Returns:
        A :class:`Crossover`.
    """
    if not low < high:
        raise ValueError("need low < high")
    rate_low = _rate(config, base, transform, low, method)
    rate_high = _rate(config, base, transform, high, method)
    meets_low = rate_low < target
    meets_high = rate_high < target
    if meets_low == meets_high:
        return Crossover(value=None, meets_at_low=meets_low, meets_at_high=meets_high)

    lo, hi = low, high
    for _ in range(200):
        if log_scale:
            mid = math.sqrt(lo * hi)
        else:
            mid = 0.5 * (lo + hi)
        if (hi - lo) / max(abs(mid), 1e-300) < tolerance:
            break
        meets_mid = _rate(config, base, transform, mid, method) < target
        if meets_mid == meets_low:
            lo = mid
        else:
            hi = mid
    return Crossover(
        value=0.5 * (lo + hi),
        meets_at_low=meets_low,
        meets_at_high=meets_high,
    )


def headroom_orders(
    config: Configuration,
    params: Parameters,
    target: float = PAPER_TARGET_EVENTS_PER_PB_YEAR,
    method: str = "analytic",
) -> float:
    """Orders of magnitude between a configuration's loss rate and the
    target (positive = headroom, negative = shortfall)."""
    rate = config.reliability(params, method).events_per_pb_year
    return math.log10(target / rate)
