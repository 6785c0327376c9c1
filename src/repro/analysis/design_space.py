"""Design-space enumeration: pick a redundancy configuration for a goal.

The paper's conclusion points out that the closed-form solutions "may be
used to determine redundancy configurations for a spectrum of reliability
targets such as in systems that offer user-configurable goals".  This
module is that tool: enumerate the (internal level x fault tolerance x
R x rebuild block) grid, compute reliability and storage overhead for
each design, and answer the two standard questions — the cheapest design
meeting a target, and the Pareto frontier of overhead vs reliability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from ..models.configurations import Configuration

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.sweep import SweepEngine
from ..models.metrics import PAPER_TARGET_EVENTS_PER_PB_YEAR
from ..models.parameters import KB, Parameters
from ..models.raid import InternalRaid
from ..models.space import ConfigSpace, ParamAxis, SearchSpace, storage_overhead

__all__ = [
    "DesignCandidate",
    "enumerate_designs",
    "cheapest_meeting",
    "pareto_front",
    "storage_overhead",
]


@dataclass(frozen=True)
class DesignCandidate:
    """One evaluated point of the design grid.

    Attributes:
        config: redundancy configuration (internal level + tolerance).
        redundancy_set_size: R used.
        rebuild_kb: rebuild command size in KB.
        events_per_pb_year: evaluated reliability.
        storage_overhead: raw bytes stored per user byte (both redundancy
            dimensions compounded).
    """

    config: Configuration
    redundancy_set_size: int
    rebuild_kb: int
    events_per_pb_year: float
    storage_overhead: float

    def meets(self, target: float = PAPER_TARGET_EVENTS_PER_PB_YEAR) -> bool:
        return self.events_per_pb_year < target

    def describe(self) -> str:
        return (
            f"{self.config.label:<24} R={self.redundancy_set_size:<3} "
            f"rebuild={self.rebuild_kb:>3} KB  "
            f"overhead={self.storage_overhead:5.2f}x  "
            f"events/PB-yr={self.events_per_pb_year:.2e}"
        )


def enumerate_designs(
    base: Parameters,
    internal_levels: Sequence[InternalRaid] = (
        InternalRaid.NONE,
        InternalRaid.RAID5,
        InternalRaid.RAID6,
    ),
    fault_tolerances: Sequence[int] = (1, 2, 3),
    set_sizes: Sequence[int] = (6, 8, 12),
    rebuild_kbs: Sequence[int] = (64, 128, 256),
    method: str = "exact",
    engine: Optional["SweepEngine"] = None,
) -> List[DesignCandidate]:
    """Evaluate the full design grid.

    The grid is declared as a :class:`repro.models.SearchSpace` (internal
    level outermost, matching this module's historical order); invalid
    combinations (R <= t, R > N) are skipped silently.  With an
    ``engine``, the whole grid is evaluated in one batch (compiled specs
    re-bound per point, optionally disk-cached) with
    bitwise-identical results.
    """
    d = base.drives_per_node
    space = SearchSpace(
        configs=ConfigSpace(
            internal_levels=tuple(internal_levels),
            fault_tolerances=tuple(fault_tolerances),
        ),
        axes=(
            ParamAxis("redundancy_set_size", tuple(set_sizes)),
            ParamAxis(
                "rebuild_command_bytes", tuple(kb * KB for kb in rebuild_kbs)
            ),
        ),
        major="internal",
    )
    points, _ = space.grid(base)
    if engine is not None:
        results = engine.evaluate_many(
            [(p.config, p.params) for p in points], method=method
        )
    else:
        results = [p.config.reliability(p.params, method) for p in points]
    return [
        DesignCandidate(
            config=point.config,
            redundancy_set_size=point.params.redundancy_set_size,
            rebuild_kb=int(dict(point.coords)["rebuild_command_bytes"]) // KB,
            events_per_pb_year=result.events_per_pb_year,
            storage_overhead=storage_overhead(
                point.config, point.params.redundancy_set_size, d
            ),
        )
        for point, result in zip(points, results)
    ]


def cheapest_meeting(
    candidates: Iterable[DesignCandidate],
    target: float = PAPER_TARGET_EVENTS_PER_PB_YEAR,
) -> Optional[DesignCandidate]:
    """Lowest-overhead design under the target (ties broken by
    reliability); None if nothing qualifies."""
    meeting = [c for c in candidates if c.meets(target)]
    if not meeting:
        return None
    return min(meeting, key=lambda c: (c.storage_overhead, c.events_per_pb_year))


def pareto_front(candidates: Iterable[DesignCandidate]) -> List[DesignCandidate]:
    """Non-dominated designs, sorted by ascending overhead.

    A design is dominated if another has both no-worse overhead and
    strictly better reliability.
    """
    ordered = sorted(
        candidates, key=lambda c: (c.storage_overhead, c.events_per_pb_year)
    )
    front: List[DesignCandidate] = []
    best = float("inf")
    for c in ordered:
        if c.events_per_pb_year < best:
            front.append(c)
            best = c.events_per_pb_year
    return front
