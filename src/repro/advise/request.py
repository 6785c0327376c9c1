"""The optimizer's input contract: what to search for, under what rules.

An :class:`AdviseRequest` bundles the declarative pieces — a
:class:`~repro.models.SearchSpace` of candidate designs, a
:class:`~repro.advise.cost.CostModel`, a reliability target (the
paper's 2e-3 events/PB-year by default) and optional budget/capacity
constraints — plus the ``seed`` that pins deterministic tie-breaking.
The same request object serves the `repro-advise` CLI and the online
``POST /v1/advise`` route, so the two paths cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..models.metrics import PAPER_TARGET_EVENTS_PER_PB_YEAR
from ..models.parameters import is_finite
from ..models.space import ParamAxis, SearchSpace
from .cost import CostModel

__all__ = [
    "DEFAULT_AXES",
    "MAX_ADVISE_CANDIDATES",
    "AdviseError",
    "AdviseRequest",
]

#: Hard cap on a single search's pre-skip grid cardinality: large enough
#: for thousand-candidate production searches, small enough that one
#: request cannot wedge the aux lane for minutes.
MAX_ADVISE_CANDIDATES = 10_000

#: Default swept axes when a request names none: the paper's Section 6
#: redundancy-set sweep.
DEFAULT_AXES = (ParamAxis("redundancy_set_size", (6, 8, 12)),)


class AdviseError(ValueError):
    """A malformed advise request."""


def _default_space() -> SearchSpace:
    return SearchSpace(axes=DEFAULT_AXES)


@dataclass(frozen=True)
class AdviseRequest:
    """One design-space search.

    Attributes:
        space: candidate grid (configurations x parameter axes).
        cost_model: pricing for the cost objective.
        target_events_per_pb_year: reliability target; candidates at or
            above it are marked infeasible (the paper's 2e-3 default).
        max_annual_cost: optional budget constraint ($/year).
        min_usable_pb: optional minimum user-visible capacity (PB).
        seed: deterministic tie-break seed — equal-objective candidates
            are deduplicated by seeded hash rank, so a fixed seed makes
            the whole search bitwise reproducible.
        method: evaluation method ("analytic" or "closed_form").
    """

    space: SearchSpace = field(default_factory=_default_space)
    cost_model: CostModel = field(default_factory=CostModel)
    target_events_per_pb_year: float = PAPER_TARGET_EVENTS_PER_PB_YEAR
    max_annual_cost: Optional[float] = None
    min_usable_pb: Optional[float] = None
    seed: int = 0
    method: str = "analytic"

    def __post_init__(self) -> None:
        if not isinstance(self.space, SearchSpace):
            raise AdviseError("space must be a SearchSpace")
        if not isinstance(self.cost_model, CostModel):
            raise AdviseError("cost_model must be a CostModel")
        for name in (
            "target_events_per_pb_year",
            "max_annual_cost",
            "min_usable_pb",
        ):
            bound = getattr(self, name)
            if bound is None and name != "target_events_per_pb_year":
                continue
            if not isinstance(bound, (int, float)) or isinstance(bound, bool):
                raise AdviseError(f"{name} must be > 0, got {bound!r}")
            if not is_finite(bound):
                raise AdviseError(f"{name} must be finite, got {bound!r}")
            if not bound > 0:
                raise AdviseError(f"{name} must be > 0, got {bound!r}")
            object.__setattr__(self, name, float(bound))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise AdviseError(f"seed must be an integer, got {self.seed!r}")
        method = str(self.method).lower()
        if method not in ("analytic", "closed_form"):
            raise AdviseError(
                f"method must be 'analytic' or 'closed_form', "
                f"got {self.method!r}"
            )
        object.__setattr__(self, "method", method)
        size = self.space.size()
        if size < 1:
            raise AdviseError("search space is empty")
        if size > MAX_ADVISE_CANDIDATES:
            raise AdviseError(
                f"search space has {size} candidates; "
                f"the limit is {MAX_ADVISE_CANDIDATES}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "space": self.space.to_dict(),
            "cost_model": self.cost_model.to_dict(),
            "target_events_per_pb_year": self.target_events_per_pb_year,
            "max_annual_cost": self.max_annual_cost,
            "min_usable_pb": self.min_usable_pb,
            "seed": self.seed,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AdviseRequest":
        """Parse the JSON request body; rejects unknown fields."""
        if not isinstance(payload, Mapping):
            raise AdviseError("advise request must be an object")
        known = {
            "space",
            "cost_model",
            "target_events_per_pb_year",
            "max_annual_cost",
            "min_usable_pb",
            "seed",
            "method",
        }
        unknown = set(payload) - known
        if unknown:
            raise AdviseError(
                f"unknown advise field(s): {sorted(unknown)}"
            )
        kwargs: Dict[str, Any] = {}
        if "space" in payload:
            kwargs["space"] = SearchSpace.from_dict(payload["space"])
        if "cost_model" in payload:
            kwargs["cost_model"] = CostModel.from_dict(payload["cost_model"])
        for name in (
            "target_events_per_pb_year",
            "max_annual_cost",
            "min_usable_pb",
            "seed",
            "method",
        ):
            if name in payload:
                kwargs[name] = payload[name]
        return cls(**kwargs)
