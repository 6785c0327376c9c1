"""Failure-detection latency extension (beyond the paper).

The paper's chains start the rebuild the instant a node fails.  In a
real distributed system there is a detection window — missed heartbeats,
suspicion timeouts, rebuild scheduling — during which the system is
degraded but *nothing is being repaired*.  This module adds that window
to the internal-RAID node-level chain: every degraded level splits into
an *undetected* sub-state (no repair edge, left at rate ``delta`` =
1/detection time) and a *repairing* sub-state (the paper's state).

States: ``(j, "u")`` — j nodes down, latest failure not yet detected;
``(j, "r")`` — j nodes down, rebuild running.  Failures keep arriving in
both; loss still requires ``t + 1`` concurrent failures (or the critical
sector-error term, active in either critical sub-state).

The chain shape is declared in :func:`repro.models.specs.detection_spec`
and bound per operating point, like every other production chain.
"""

from __future__ import annotations

from ..core import CTMC
from .internal_raid import InternalRaidNodeModel
from .parameters import Parameters, is_finite
from .raid import InternalRaid
from .specs import compiled, detection_env, detection_spec

__all__ = ["build_detection_chain", "DetectionLatencyModel"]


def build_detection_chain(
    fault_tolerance: int,
    n: int,
    node_failure_rate: float,
    array_failure_rate: float,
    restripe_sector_loss_rate: float,
    node_rebuild_rate: float,
    critical_sector_fraction: float,
    detection_rate: float,
) -> CTMC:
    """The Figure 5/6/7 chain with an explicit detection stage, bound
    through :func:`repro.models.specs.detection_spec`.

    Args:
        detection_rate: ``delta`` = 1 / mean detection latency (per hour).
            As ``delta -> inf`` the chain converges to the paper's.

    Other arguments as in
    :func:`repro.models.internal_raid.build_internal_raid_chain`.
    """
    env = detection_env(
        fault_tolerance,
        n,
        node_failure_rate,
        array_failure_rate,
        restripe_sector_loss_rate,
        node_rebuild_rate,
        critical_sector_fraction,
        detection_rate,
    )
    return compiled(detection_spec(fault_tolerance)).bind(env)


class DetectionLatencyModel:
    """Internal-RAID reliability with non-zero failure-detection latency.

    Args:
        params: system parameters.
        raid_level: internal RAID 5 or 6.
        fault_tolerance: cross-node tolerance.
        detection_hours: mean time from failure to rebuild start.
    """

    def __init__(
        self,
        params: Parameters,
        raid_level: InternalRaid,
        fault_tolerance: int,
        detection_hours: float,
    ) -> None:
        if not is_finite(detection_hours):
            raise ValueError(
                f"detection_hours must be finite, got {detection_hours!r}"
            )
        if detection_hours <= 0:
            raise ValueError("detection_hours must be positive")
        self._inner = InternalRaidNodeModel(params, raid_level, fault_tolerance)
        self._params = params
        self._t = fault_tolerance
        self._detection_rate = 1.0 / detection_hours

    @property
    def detection_hours(self) -> float:
        return 1.0 / self._detection_rate

    def chain(self) -> CTMC:
        rates = self._inner.array_rates
        return build_detection_chain(
            self._t,
            self._params.node_set_size,
            self._params.node_failure_rate,
            rates.array_failure_rate,
            rates.restripe_sector_loss_rate,
            self._inner.node_rebuild_rate,
            self._inner.critical_sector_fraction,
            self._detection_rate,
        )

    def mttdl_exact(self) -> float:
        """MTTDL in hours."""
        return self.chain().mean_time_to_absorption()

    def mttdl_penalty(self) -> float:
        """Ratio of the zero-latency (paper) MTTDL to this model's —
        how much the detection window costs."""
        return self._inner.mttdl_exact() / self.mttdl_exact()
