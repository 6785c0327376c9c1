"""Local elasticities: the slopes behind the sensitivity figures.

The paper reads slopes off log-log charts ("relatively insensitive",
"most sensitivity to node MTTF").  An *elasticity* puts a number on
each: ``d log(events/PB-year) / d log(parameter)`` — the percent change
in loss rate per percent change of the knob.  Elasticities of the
closed-form MTTDLs are simple integers in the asymptotic regime (e.g.
-2 in mu_N for NFT 2), so they double as a structural check on the
implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..models.configurations import Configuration
from ..models.parameters import Parameters

__all__ = ["Elasticity", "elasticity", "elasticity_profile"]

#: Fields it makes sense to differentiate against.
NUMERIC_FIELDS = (
    "node_mttf_hours",
    "drive_mttf_hours",
    "hard_error_rate_per_bit",
    "drive_capacity_bytes",
    "rebuild_command_bytes",
    "link_speed_bps",
)


@dataclass(frozen=True)
class Elasticity:
    """One measured elasticity.

    Attributes:
        parameter: field name.
        value: d log(rate) / d log(parameter); negative = raising the
            parameter reduces loss events.
    """

    parameter: str
    value: float

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def elasticity(
    config: Configuration,
    params: Parameters,
    field: str,
    step: float = 0.05,
    method: str = "analytic",
) -> Elasticity:
    """Central log-log finite difference of events/PB-year w.r.t. ``field``.

    Args:
        config: configuration under study.
        params: operating point.
        field: a numeric :class:`Parameters` field.
        step: relative half-step (5% default).
        method: reliability computation method.
    """
    current = getattr(params, field, None)
    if current is None or not isinstance(current, (int, float)):
        raise ValueError(f"{field!r} is not a numeric parameter")
    if step <= 0 or step >= 1:
        raise ValueError("step must be in (0, 1)")
    up = params.replace(**{field: current * (1 + step)})
    down = params.replace(**{field: current * (1 - step)})
    rate_up = config.reliability(up, method).events_per_pb_year
    rate_down = config.reliability(down, method).events_per_pb_year
    value = (math.log(rate_up) - math.log(rate_down)) / (
        math.log(1 + step) - math.log(1 - step)
    )
    return Elasticity(parameter=field, value=value)


def elasticity_profile(
    config: Configuration,
    params: Parameters,
    fields: Sequence[str] = NUMERIC_FIELDS,
    method: str = "analytic",
) -> List[Elasticity]:
    """Elasticities for several fields, sorted by descending magnitude."""
    results = [elasticity(config, params, f, method=method) for f in fields]
    results.sort(key=lambda e: e.magnitude, reverse=True)
    return results
