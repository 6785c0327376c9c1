"""The paper's nine redundancy configurations (Section 3).

Three internal-redundancy choices (none / RAID 5 / RAID 6) crossed with
three cross-node erasure-code fault tolerances (1 / 2 / 3) give nine
configurations.  :class:`Configuration` names them, builds the right model
for each, and evaluates reliability in the paper's metric.

The three configurations the paper carries into the sensitivity analyses
(Section 6's conclusion) are exposed as :func:`sensitivity_configurations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from ..core import CTMC
from .internal_raid import InternalRaidNodeModel
from .metrics import ReliabilityResult
from .no_raid import NoRaidNodeModel
from .parameters import Parameters
from .raid import ArrayRates, InternalRaid
from .rebuild import RebuildModel

__all__ = [
    "Configuration",
    "ALL_CONFIGURATIONS",
    "all_configurations",
    "sensitivity_configurations",
    "evaluate_all",
]

NodeModel = Union[InternalRaidNodeModel, NoRaidNodeModel]


@dataclass(frozen=True)
class Configuration:
    """One of the paper's redundancy configurations.

    Attributes:
        internal: the node-internal RAID level.
        node_fault_tolerance: cross-node erasure-code tolerance (>= 1).
    """

    internal: InternalRaid
    node_fault_tolerance: int

    def __post_init__(self) -> None:
        if self.node_fault_tolerance < 1:
            raise ValueError("node_fault_tolerance must be >= 1")

    @property
    def label(self) -> str:
        """Human-readable name matching the paper's figure legends."""
        internal = {
            InternalRaid.NONE: "No Internal RAID",
            InternalRaid.RAID5: "Internal RAID 5",
            InternalRaid.RAID6: "Internal RAID 6",
        }[self.internal]
        return f"FT {self.node_fault_tolerance}, {internal}"

    @property
    def key(self) -> str:
        """Short machine-friendly identifier, e.g. ``"ft2_raid5"``."""
        internal = {
            InternalRaid.NONE: "noraid",
            InternalRaid.RAID5: "raid5",
            InternalRaid.RAID6: "raid6",
        }[self.internal]
        return f"ft{self.node_fault_tolerance}_{internal}"

    @classmethod
    def from_key(cls, key: str) -> "Configuration":
        """Inverse of :attr:`key`: parse e.g. ``"ft2_raid5"``.

        Raises :class:`ValueError` on anything that is not a well-formed
        configuration key.
        """
        by_name = {
            "noraid": InternalRaid.NONE,
            "raid5": InternalRaid.RAID5,
            "raid6": InternalRaid.RAID6,
        }
        prefix, _, internal_name = key.partition("_")
        if (
            prefix.startswith("ft")
            and prefix[2:].isdigit()
            and internal_name in by_name
        ):
            return cls(by_name[internal_name], int(prefix[2:]))
        raise ValueError(f"not a configuration key: {key!r}")

    # ------------------------------------------------------------------ #

    def model(
        self,
        params: Parameters,
        rebuild: Optional[RebuildModel] = None,
        *,
        rates_method: str = "approx",
        array_rates: Optional[ArrayRates] = None,
    ) -> NodeModel:
        """The reliability model for this configuration: the one place
        that picks the node-model class.

        ``rates_method`` and ``array_rates`` reach the internal array of
        an internal-RAID node (see :class:`InternalRaidNodeModel`); a
        node without internal RAID has no array and ignores them.
        """
        if self.internal is InternalRaid.NONE:
            return NoRaidNodeModel(params, self.node_fault_tolerance, rebuild)
        return InternalRaidNodeModel(
            params,
            self.internal,
            self.node_fault_tolerance,
            rebuild,
            rates_method=rates_method,
            array_rates=array_rates,
        )

    def chain(self, params: Parameters) -> CTMC:
        """The node-level CTMC for this configuration."""
        return self.model(params).chain()

    def mttdl_hours(
        self,
        params: Parameters,
        method: str = "analytic",
        *,
        rebuild: Optional[RebuildModel] = None,
    ) -> float:
        """MTTDL in hours.

        Args:
            params: system parameters.
            method: ``"analytic"`` (the chain solve of
                :func:`repro.evaluate`) or ``"closed_form"`` (the paper's
                approximation).
            rebuild: optional rebuild-time model override.
        """
        if method == "analytic":
            from ..engine.facade import evaluate

            return evaluate(self, params, rebuild=rebuild).mttdl_hours
        if method == "closed_form":
            return self.model(params, rebuild).mttdl_approx()
        raise ValueError(
            f"unknown method {method!r}; use 'analytic' or 'closed_form'"
        )

    def reliability(
        self,
        params: Parameters,
        method: str = "analytic",
        *,
        rebuild: Optional[RebuildModel] = None,
    ) -> ReliabilityResult:
        """Reliability in the paper's events/PB-year metric."""
        return ReliabilityResult.from_mttdl(
            self.mttdl_hours(params, method, rebuild=rebuild), params
        )


def all_configurations(max_fault_tolerance: int = 3) -> List[Configuration]:
    """The 3 x ``max_fault_tolerance`` configuration grid of Section 3."""
    from .space import ConfigSpace

    space = ConfigSpace(
        fault_tolerances=tuple(range(1, max_fault_tolerance + 1))
    )
    return space.configurations()


#: The paper's nine configurations, in Figure 13 order.
ALL_CONFIGURATIONS: Tuple[Configuration, ...] = tuple(all_configurations())


def sensitivity_configurations() -> List[Configuration]:
    """The three configurations Section 6 carries into the sensitivity
    analyses: [FT2, no internal RAID], [FT2, internal RAID 5] and
    [FT3, no internal RAID]."""
    return [
        Configuration(InternalRaid.NONE, 2),
        Configuration(InternalRaid.RAID5, 2),
        Configuration(InternalRaid.NONE, 3),
    ]


def evaluate_all(
    params: Parameters,
    configs: Optional[Iterable[Configuration]] = None,
    method: str = "analytic",
) -> List[Tuple[Configuration, ReliabilityResult]]:
    """Evaluate many configurations under one parameter set."""
    if configs is None:
        configs = ALL_CONFIGURATIONS
    return [(c, c.reliability(params, method)) for c in configs]
