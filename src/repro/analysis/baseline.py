"""Baseline reliability comparison (Section 6, Figure 13).

Evaluates all nine redundancy configurations at the paper's baseline
parameters, checks them against the 2e-3 events/PB-year target, and
verifies the paper's three headline observations:

1. node fault tolerance 1 misses the target in every internal-RAID
   variant;
2. internal RAID 5 and RAID 6 are nearly indistinguishable at fault
   tolerance >= 2; and
3. [FT3, internal RAID] overshoots the target by about five orders of
   magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..models.configurations import ALL_CONFIGURATIONS, Configuration, evaluate_all
from ..models.metrics import PAPER_TARGET_EVENTS_PER_PB_YEAR, ReliabilityResult
from ..models.parameters import Parameters
from ..models.raid import InternalRaid
from .report import FigureData, Series

__all__ = ["BaselineReport", "run_baseline", "baseline_figure"]


@dataclass(frozen=True)
class BaselineReport:
    """Figure 13 as data.

    Attributes:
        params: the parameters used.
        results: (configuration, reliability) in Figure 13 order.
    """

    params: Parameters
    results: Tuple[Tuple[Configuration, ReliabilityResult], ...]

    def result_for(self, key: str) -> ReliabilityResult:
        """Result by configuration key, e.g. ``"ft2_raid5"``."""
        for config, result in self.results:
            if config.key == key:
                return result
        raise KeyError(f"no configuration {key!r}")

    # -- the paper's observations, as predicates ------------------------ #

    def ft1_all_miss_target(self) -> bool:
        """Observation 1: every NFT-1 configuration misses the target."""
        return all(
            not result.meets_target
            for config, result in self.results
            if config.node_fault_tolerance == 1
        )

    def raid5_raid6_gap_orders(self, fault_tolerance: int) -> float:
        """|log10| gap between internal RAID 5 and RAID 6 at a given NFT
        (observation 2 expects this to be well under one order)."""
        r5 = self.result_for(f"ft{fault_tolerance}_raid5").events_per_pb_year
        r6 = self.result_for(f"ft{fault_tolerance}_raid6").events_per_pb_year
        return abs(math.log10(r5 / r6))

    def ft3_internal_raid_margin_orders(self) -> float:
        """Observation 3: orders of magnitude by which [FT3, RAID 5]
        overshoots the target (the paper reports about five)."""
        return self.result_for("ft3_raid5").margin_orders_of_magnitude()

    def survivors(self) -> List[Configuration]:
        """Configurations that meet the target (candidates for Section 7)."""
        return [c for c, r in self.results if r.meets_target]


def run_baseline(
    params: Optional[Parameters] = None, method: str = "analytic"
) -> BaselineReport:
    """Evaluate all nine configurations (Figure 13)."""
    if params is None:
        params = Parameters.baseline()
    results = tuple(evaluate_all(params, ALL_CONFIGURATIONS, method))
    return BaselineReport(params=params, results=results)


def baseline_figure(report: BaselineReport) -> FigureData:
    """Figure 13 as a bar-chart-shaped table: one series per internal
    level, x-axis the node fault tolerance."""
    tolerances = sorted({c.node_fault_tolerance for c, _ in report.results})
    by_internal: Dict[InternalRaid, Dict[int, float]] = {}
    for config, result in report.results:
        by_internal.setdefault(config.internal, {})[
            config.node_fault_tolerance
        ] = result.events_per_pb_year
    labels = {
        InternalRaid.NONE: "No Internal RAID",
        InternalRaid.RAID5: "Internal RAID 5",
        InternalRaid.RAID6: "Internal RAID 6",
    }
    series = tuple(
        Series(labels[level], tuple(values[t] for t in tolerances))
        for level, values in by_internal.items()
    )
    return FigureData(
        title="Figure 13: Baseline Comparison",
        x_label="node fault tolerance",
        x_values=tuple(float(t) for t in tolerances),
        series=series,
        target=PAPER_TARGET_EVENTS_PER_PB_YEAR,
    )
