"""Parameter-uncertainty propagation (beyond the paper).

Section 8 notes that "drive MTTF can vary significantly between batches
of drives and the same can be expected of nodes" — but the paper only
brackets the range with low/high point estimates.  This module treats
MTTFs (and optionally HER) as random across the fleet and propagates the
uncertainty through the reliability models by Latin-hypercube sampling,
yielding percentile bands instead of point estimates: the question a
manufacturer actually faces ("what's my 95th-percentile loss rate if a
bad batch ships?").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..models.configurations import Configuration
from ..models.metrics import PAPER_TARGET_EVENTS_PER_PB_YEAR
from ..models.parameters import Parameters

__all__ = ["LogUniform", "UncertaintyStudy", "UncertaintyResult"]


@dataclass(frozen=True)
class LogUniform:
    """Log-uniform distribution over [low, high] — the natural "somewhere
    between these two batches" prior for rate-like quantities."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high:
            raise ValueError("need 0 < low <= high")

    def sample(self, u: float) -> float:
        """Inverse-CDF transform of a uniform [0, 1) variate."""
        if not 0.0 <= u < 1.0:
            raise ValueError("u must be in [0, 1)")
        return float(self.low * (self.high / self.low) ** u)


@dataclass(frozen=True)
class UncertaintyResult:
    """Percentile summary of the propagated loss rate.

    Attributes:
        config: the configuration studied.
        samples: sorted events/PB-year samples.
    """

    config: Configuration
    samples: Tuple[float, ...]

    def percentile(self, q: float) -> float:
        """q-th percentile (0-100) of events/PB-year."""
        return float(np.percentile(self.samples, q))

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    def probability_meets_target(
        self, target: float = PAPER_TARGET_EVENTS_PER_PB_YEAR
    ) -> float:
        """Fraction of sampled parameter draws meeting the target."""
        return float(np.mean(np.asarray(self.samples) < target))


class UncertaintyStudy:
    """Latin-hypercube propagation of parameter uncertainty.

    Args:
        base: baseline parameters (non-varied fields come from here).
        distributions: mapping of Parameters field name to a
            :class:`LogUniform` marginal.

    Example:
        >>> from repro.models import Configuration, InternalRaid, Parameters
        >>> study = UncertaintyStudy(
        ...     Parameters.baseline(),
        ...     {"drive_mttf_hours": LogUniform(100_000, 750_000),
        ...      "node_mttf_hours": LogUniform(100_000, 1_000_000)},
        ... )
        >>> result = study.run(Configuration(InternalRaid.RAID5, 2),
        ...                    samples=16, seed=0)
        >>> 0.0 <= result.probability_meets_target() <= 1.0
        True
    """

    def __init__(
        self, base: Parameters, distributions: Dict[str, LogUniform]
    ) -> None:
        if not distributions:
            raise ValueError("need at least one varied parameter")
        valid_fields = set(base.to_dict())
        unknown = set(distributions) - valid_fields
        if unknown:
            raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
        self._base = base
        self._distributions = dict(distributions)

    def sample_parameters(self, samples: int, seed: int = 0) -> List[Parameters]:
        """Latin-hypercube draws of the varied fields."""
        if samples < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(seed)
        names = sorted(self._distributions)
        # LHS: one stratified uniform per dimension, shuffled independently.
        grid = np.empty((samples, len(names)))
        for j in range(len(names)):
            strata = (np.arange(samples) + rng.random(samples)) / samples
            rng.shuffle(strata)
            grid[:, j] = strata
        out = []
        for row in grid:
            changes = {
                name: self._distributions[name].sample(float(u))
                for name, u in zip(names, row)
            }
            out.append(self._base.replace(**changes))
        return out

    def run(
        self,
        config: Configuration,
        samples: int = 64,
        seed: int = 0,
        method: str = "analytic",
    ) -> UncertaintyResult:
        """Propagate to events/PB-year for one configuration."""
        rates = []
        for params in self.sample_parameters(samples, seed):
            rates.append(config.reliability(params, method).events_per_pb_year)
        return UncertaintyResult(config=config, samples=tuple(sorted(rates)))

    def run_many(
        self,
        configs: Sequence[Configuration],
        samples: int = 64,
        seed: int = 0,
        method: str = "analytic",
    ) -> List[UncertaintyResult]:
        """Propagate for several configurations over the *same* draws
        (common random numbers make the comparison fair)."""
        parameter_draws = self.sample_parameters(samples, seed)
        results = []
        for config in configs:
            rates = tuple(
                sorted(
                    config.reliability(p, method).events_per_pb_year
                    for p in parameter_draws
                )
            )
            results.append(UncertaintyResult(config=config, samples=rates))
        return results
