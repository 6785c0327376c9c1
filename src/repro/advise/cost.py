"""The declarative cost model behind the design-space optimizer.

A :class:`CostModel` prices a candidate design (a configuration plus a
parameter set) into dollars per year across four terms:

* **drives** — every physical drive in the fleet (``N x d``);
* **nodes** — per-enclosure cost (chassis, CPU, power, rack share);
* **network** — provisioned per-node bandwidth, priced per Gb/s;
* **repair traffic** — expected rebuild bytes moved per year, priced
  per TB (the recurring operational cost of choosing weaker
  redundancy: more frequent full-set rebuilds), plus an optional
  ``fixed`` floor.

The repair-traffic term uses the same first-order failure-frequency
arithmetic as the paper's rebuild model: nodes fail at ``N / MTTF_node``
per year and each failure moves one reconstruction's worth of data —
``(R - t + 1)`` node images read/written across the redundancy set.
Without internal RAID, individual drive failures also escalate to
cross-node rebuilds (``N x d / MTTF_drive`` of them per year, one drive
image each); with internal RAID they are absorbed inside the node.

Capacity enters through ``storage_overhead``: the model reports
``usable_pb``, the user-visible capacity after both redundancy
dimensions take their cut, so a budget constraint and a minimum-capacity
constraint can push against each other on the frontier.

All rates are finite and non-negative; violations raise
:class:`CostError` naming the field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping

from ..models.configurations import Configuration
from ..models.parameters import HOURS_PER_YEAR, Parameters, is_finite
from ..models.raid import InternalRaid
from ..models.space import storage_overhead

__all__ = ["CostBreakdown", "CostError", "CostModel"]


class CostError(ValueError):
    """A malformed cost model; the message names the offending field."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"cost field {field_name!r}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class CostModel:
    """Annualized unit prices for the fleet cost terms.

    Defaults are deliberately round commodity figures (a ~$450 drive
    amortized over five years, a ~$7.5k node ditto, cloud-ish transit
    and per-TB movement prices); real deployments should override them
    per request.
    """

    drive_cost_per_year: float = 90.0
    node_cost_per_year: float = 1500.0
    network_cost_per_gbps_year: float = 40.0
    repair_traffic_cost_per_tb: float = 2.0
    fixed_cost_per_year: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise CostError(f.name, f"must be a number, got {value!r}")
            if not is_finite(value):
                raise CostError(f.name, f"must be finite, got {value!r}")
            if value < 0:
                raise CostError(f.name, f"must be >= 0, got {value!r}")
            object.__setattr__(self, f.name, float(value))

    def to_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CostModel":
        """Parse the JSON form; unknown fields raise :class:`CostError`."""
        if not isinstance(payload, Mapping):
            raise CostError("cost_model", "must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise CostError(sorted(unknown)[0], "unknown cost field")
        return cls(**dict(payload))

    # ------------------------------------------------------------------ #

    def repair_traffic_bytes_per_year(
        self, config: Configuration, params: Parameters
    ) -> float:
        """Expected cross-node rebuild traffic per year, in bytes."""
        n = params.node_set_size
        reconstruction_span = (
            params.redundancy_set_size - config.node_fault_tolerance + 1
        )
        node_failures = n * HOURS_PER_YEAR / params.node_mttf_hours
        traffic = node_failures * reconstruction_span * params.node_data_bytes
        if config.internal is InternalRaid.NONE:
            drive_failures = (
                n
                * params.drives_per_node
                * HOURS_PER_YEAR
                / params.drive_mttf_hours
            )
            traffic += (
                drive_failures * reconstruction_span * params.drive_data_bytes
            )
        return traffic

    def breakdown(
        self, config: Configuration, params: Parameters
    ) -> "CostBreakdown":
        """Price one candidate design."""
        n = params.node_set_size
        d = params.drives_per_node
        drives = self.drive_cost_per_year * n * d
        nodes = self.node_cost_per_year * n
        network = (
            self.network_cost_per_gbps_year * n * params.link_speed_bps / 1e9
        )
        traffic = self.repair_traffic_bytes_per_year(config, params)
        repair = self.repair_traffic_cost_per_tb * traffic / 1e12
        overhead = storage_overhead(
            config, params.redundancy_set_size, d
        )
        return CostBreakdown(
            drives=drives,
            nodes=nodes,
            network=network,
            repair=repair,
            fixed=self.fixed_cost_per_year,
            total=drives + nodes + network + repair + self.fixed_cost_per_year,
            storage_overhead=overhead,
            usable_pb=params.system_raw_bytes / overhead / 1e15,
            repair_traffic_tb_per_year=traffic / 1e12,
        )


@dataclass(frozen=True)
class CostBreakdown:
    """One candidate's priced terms (all $/year unless noted)."""

    drives: float
    nodes: float
    network: float
    repair: float
    fixed: float
    total: float
    storage_overhead: float
    usable_pb: float
    repair_traffic_tb_per_year: float

    def to_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
