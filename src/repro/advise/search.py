"""Pareto-frontier search over a declarative design space.

:func:`advise` is the inversion of ``repro.evaluate``: instead of
"how reliable is this design?", it answers "which designs should I
buy?".  Every candidate in the request's
:class:`~repro.models.SearchSpace` is priced by the
:class:`~repro.advise.cost.CostModel` and evaluated through one
batched :class:`~repro.engine.SweepEngine` pass — spec-hash
memoization and stacked binds make thousand-candidate searches cheap,
and every reliability number is bitwise-equal to a direct
``repro.evaluate()`` of that point.

The search minimizes three objectives simultaneously — annual cost,
data-loss events per PB-year, storage overhead — and returns the
non-dominated (Pareto) frontier of the *feasible* candidates, i.e.
those meeting the reliability target and any budget/capacity bounds.
Determinism contract: candidates whose objective vectors are exactly
equal are deduplicated by a seeded hash rank
(``sha256(f"{seed}:{config.key}:{params.cache_key()}")``), so a fixed
seed yields a bitwise-identical frontier regardless of enumeration
order; the frontier itself is returned sorted by ascending objective
vector.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..engine.keys import point_key
from ..engine.result import EngineProvenance
from ..engine.sweep import SweepEngine
from ..models.metrics import ReliabilityResult
from ..models.parameters import Parameters
from ..models.raid import InternalRaid
from ..models.space import SpacePoint
from .cost import CostBreakdown
from .request import AdviseRequest

__all__ = [
    "AdviseResult",
    "Candidate",
    "advise",
    "dominates",
    "pareto_indices",
]

#: Minimum drives per node for each internal RAID level (a RAID 5 group
#: needs a peer to rebuild from; RAID 6 needs two).
_MIN_DRIVES = {InternalRaid.RAID5: 2, InternalRaid.RAID6: 3}


# --------------------------------------------------------------------- #
# dominance
# --------------------------------------------------------------------- #


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (all objectives minimized):
    no-worse everywhere and strictly better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_indices(
    vectors: Sequence[Sequence[float]], ranks: Sequence[str]
) -> List[int]:
    """Indices of the non-dominated members of ``vectors`` (3-objective
    minimization), sorted by ascending objective vector.

    Exactly-equal vectors are deduplicated first, keeping the index with
    the smallest ``rank`` — with seeded hash ranks this makes the result
    independent of input order.  The scan itself is the classic sorted
    staircase: after sorting unique vectors ascending, a vector is
    non-dominated iff no already-kept vector at no-greater cost has both
    no-greater events and no-greater overhead; the staircase of kept
    (events, overhead) pairs is strictly decreasing in overhead, so each
    test and insertion is a bisect.  Transitivity of dominance makes
    checking against kept frontier members alone sufficient.
    """
    best: Dict[Tuple[float, ...], int] = {}
    for i, vec in enumerate(vectors):
        key = tuple(vec)
        j = best.get(key)
        if j is None or ranks[i] < ranks[j]:
            best[key] = i
    order = sorted((tuple(vectors[i]), i) for i in best.values())
    front: List[int] = []
    # Staircase over (events, overhead) for the kept vectors, sorted by
    # events ascending / overhead strictly descending.
    stair: List[Tuple[float, float]] = []
    for vec, i in order:
        _, e, o = vec
        ins = bisect.bisect_left(stair, (e, o))
        if ins > 0 and stair[ins - 1][1] <= o:
            continue  # an earlier entry has <= events and <= overhead
        if ins < len(stair) and stair[ins] == (e, o):
            continue  # same (events, overhead) at lower cost already kept
        while ins < len(stair) and stair[ins][1] >= o:
            stair.pop(ins)  # now dominated by the incoming vector
        stair.insert(ins, (e, o))
        front.append(i)
    return front


# --------------------------------------------------------------------- #
# candidates and results
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Candidate:
    """One fully-evaluated design candidate.

    :func:`advise` builds these for frontier members only, so every
    returned candidate is feasible with no violations; infeasible and
    dominated points are counted, not materialized.
    """

    config: Any
    coords: Tuple[Tuple[str, Any], ...]
    params: Parameters
    result: ReliabilityResult
    cost: CostBreakdown
    objectives: Tuple[float, float, float]
    feasible: bool
    violations: Tuple[str, ...]
    tie_rank: str
    key: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.key,
            "label": self.config.label,
            "coords": {name: value for name, value in self.coords},
            "params": self.params.to_dict(),
            "params_key": self.params.cache_key(),
            "point_key": self.key,
            "objectives": list(self.objectives),
            "cost": self.cost.to_dict(),
            "reliability": {
                "mttdl_hours": self.result.mttdl_hours,
                "mttdl_years": self.result.mttdl_years,
                "events_per_pb_year": self.result.events_per_pb_year,
                "meets_target": self.result.meets_target,
            },
            "feasible": self.feasible,
            "violations": list(self.violations),
            "tie_rank": self.tie_rank,
        }


@dataclass(frozen=True)
class AdviseResult:
    """A completed search: the frontier plus full accounting."""

    request: AdviseRequest
    base_params_key: str
    evaluated: int
    skipped: int
    feasible_count: int
    dominated_count: int
    frontier: Tuple[Candidate, ...]
    recommended: Optional[Candidate]
    provenance: EngineProvenance
    elapsed_s: float

    def to_dict(self) -> Dict[str, Any]:
        prov = self.provenance
        spec_total = prov.spec_hits + prov.spec_misses
        return {
            "kind": "repro-advise-result",
            "version": 1,
            "request": self.request.to_dict(),
            "base_params_key": self.base_params_key,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "feasible": self.feasible_count,
            "dominated": self.dominated_count,
            "frontier": [c.to_dict() for c in self.frontier],
            "recommended": (
                self.recommended.to_dict() if self.recommended else None
            ),
            "provenance": {
                "method": prov.method,
                "spec_hits": prov.spec_hits,
                "spec_misses": prov.spec_misses,
                "spec_hit_rate": (
                    prov.spec_hits / spec_total if spec_total else 0.0
                ),
                "array_hits": prov.array_hits,
                "array_misses": prov.array_misses,
                "spec_hashes": list(prov.spec_hashes),
                "engine": prov.engine,
            },
            "elapsed_s": self.elapsed_s,
        }


# --------------------------------------------------------------------- #
# the search
# --------------------------------------------------------------------- #


def _tie_rank(seed: int, point: SpacePoint) -> str:
    material = f"{seed}:{point.config.key}:{point.params.cache_key()}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class _TieRanks(Sequence[str]):
    """The seeded tie ranks of ``points``, each hashed on first read.

    Only frontier members and exactly equal objective vectors ever read
    a rank, so most feasible points are never hashed.
    """

    def __init__(self, seed: int, points: Sequence[SpacePoint]) -> None:
        self._seed = seed
        self._points = points
        self._ranks: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, i):  # type: ignore[override]
        rank = self._ranks.get(i)
        if rank is None:
            rank = self._ranks[i] = _tie_rank(self._seed, self._points[i])
        return rank


#: One feasible point as ``advise.cost`` keeps it:
#: ``(objectives, point, result, cost)``.
_Feasible = Tuple[
    Tuple[float, float, float],
    SpacePoint,
    ReliabilityResult,
    CostBreakdown,
]


def _candidate(entry: _Feasible, tie_rank: str, method: str) -> Candidate:
    """The :class:`Candidate` for one feasible ``advise.cost`` entry."""
    objectives, point, result, cost = entry
    return Candidate(
        config=point.config,
        coords=point.coords,
        params=point.params,
        result=result,
        cost=cost,
        objectives=objectives,
        feasible=True,
        violations=(),
        tie_rank=tie_rank,
        key=point_key(point.config, point.params, method),
    )


def advise(
    request: AdviseRequest,
    *,
    base_params: Optional[Parameters] = None,
    engine: Optional[SweepEngine] = None,
) -> AdviseResult:
    """Run one design-space search.

    Args:
        request: the declarative search description.
        base_params: baseline every candidate perturbs; defaults to the
            engine's baseline (or the paper's Section 6 baseline).
        engine: a :class:`SweepEngine` to evaluate through — pass a
            long-lived one to reuse its compiled-spec memo across
            searches (this is what the serving layer does).
    """
    started = time.perf_counter()
    if engine is None:
        engine = SweepEngine(base_params=base_params)
    base = base_params if base_params is not None else engine.base_params
    registry = obs.global_metrics()
    registry.counter("advise.requests").inc()
    with obs.span(
        "advise.search",
        candidates=request.space.size(),
        seed=request.seed,
        method=request.method,
    ) as search_span:
        with obs.span("advise.enumerate"):
            points, skipped = request.space.grid(base)
            admissible: List[SpacePoint] = []
            for point in points:
                min_d = _MIN_DRIVES.get(point.config.internal, 1)
                if point.params.drives_per_node < min_d:
                    skipped += 1
                    continue
                admissible.append(point)
        with obs.span("advise.evaluate", points=len(admissible)):
            results = engine.evaluate_many(
                [(p.config, p.params) for p in admissible],
                method=request.method,
            )
        with obs.span("advise.cost"):
            # Only feasible points can reach the frontier; only points
            # that meet the target are priced, and Candidates are built
            # for frontier members alone.
            feasible: List[_Feasible] = []
            for point, result in zip(admissible, results):
                if not (
                    result.events_per_pb_year
                    < request.target_events_per_pb_year
                ):
                    continue
                cost = request.cost_model.breakdown(point.config, point.params)
                if (
                    request.max_annual_cost is not None
                    and cost.total > request.max_annual_cost
                ):
                    continue
                if (
                    request.min_usable_pb is not None
                    and cost.usable_pb < request.min_usable_pb
                ):
                    continue
                objectives = (
                    cost.total,
                    result.events_per_pb_year,
                    cost.storage_overhead,
                )
                feasible.append((objectives, point, result, cost))
        with obs.span("advise.frontier"):
            ranks = _TieRanks(request.seed, [entry[1] for entry in feasible])
            front_idx = pareto_indices([entry[0] for entry in feasible], ranks)
            frontier = tuple(
                _candidate(feasible[i], ranks[i], request.method)
                for i in front_idx
            )
            # The lexicographic minimum over all feasible points is never
            # dominated, and pareto_indices keeps the lowest rank among
            # equal vectors, so the minimum always lies on the frontier.
            recommended = min(
                frontier,
                key=lambda c: (c.objectives, c.tie_rank),
                default=None,
            )
        registry.counter("advise.candidates").inc(len(admissible))
        registry.counter("advise.skipped").inc(skipped)
        registry.counter("advise.frontier.points").inc(len(frontier))
        search_span.set("evaluated", len(admissible))
        search_span.set("frontier", len(frontier))
    return AdviseResult(
        request=request,
        base_params_key=base.cache_key(),
        evaluated=len(admissible),
        skipped=skipped,
        feasible_count=len(feasible),
        dominated_count=len(feasible) - len(frontier),
        frontier=frontier,
        recommended=recommended,
        provenance=engine.provenance(request.method),
        elapsed_s=time.perf_counter() - started,
    )
