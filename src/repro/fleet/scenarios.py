"""Seeded fleet-scenario generation and the differential-testing corpus.

This is the scenario-diversity flywheel of ROADMAP item 3: a
deterministic generator emits thousands of heterogeneous fleet
scenarios across five families, pumps them through the solver stack
(sparse always, dense whenever the chain is small enough) and the
sweep engine (the uniform-baseline column), and holds every one to the
differential oracles — homogeneous-collapse, exponential-collapse and
sparse-vs-dense agreement.  Results land as a JSONL corpus artifact
with full provenance.

Determinism contract: the generator draws only from
``random.Random(f"{seed}:{index}")`` (seeded hashing is
version-stable), so the same ``(seed, count, families)`` triple yields
a bitwise-identical corpus file on every platform — the property the
hypothesis suite pins.

Scenario families
-----------------

* ``two-vintage`` — two exponential cohorts, the newer vintage with a
  degraded node MTTF (batch effects);
* ``infant-mortality`` — a Weibull shape < 1 cohort fitted to a
  2-stage Coxian (decreasing hazard), optionally next to a mature
  exponential cohort;
* ``wear-out`` — Weibull shape > 1 fitted to a mixed Erlang
  (increasing hazard);
* ``non-uniform-peers`` — 3-4 cohorts with spread MTBFs, the
  tahoe-lafs lossmodel's non-uniform peer reliabilities;
* ``repair-skew`` — repair-interval delays and per-cohort repair
  costs (non-aggressive repair).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from .. import obs
from ..core.solvers import SolveOptions
from ..models.configurations import Configuration
from ..models.parameters import Parameters
from ..models.raid import InternalRaid
from ..models.space import ConfigSpace
from .chain import FleetModel
from .cohorts import Cohort, FleetSpec
from .phasetype import fit_weibull

__all__ = [
    "CORPUS_KIND",
    "CORPUS_VERSION",
    "FAMILIES",
    "CorpusHeader",
    "CorpusRun",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioResult",
    "canonical_fleets",
    "read_corpus",
    "run_corpus",
    "write_corpus",
]

FAMILIES: Tuple[str, ...] = (
    "two-vintage",
    "infant-mortality",
    "wear-out",
    "non-uniform-peers",
    "repair-skew",
)

_INTERNAL_RAID_LEVELS = (InternalRaid.RAID5, InternalRaid.RAID6)

#: Per-family configuration grids the scenario builders draw from.  The
#: tuples' content *and order* pin the rng draw sequence, so the corpus
#: stays bitwise-identical across releases — change these only with a
#: corpus version bump.  (The cohort walker models internal-RAID bricks
#: only, hence no ``InternalRaid.NONE``; two-vintage fleets stay small
#: enough to afford t=3.)
CONFIG_SPACES: Dict[str, ConfigSpace] = {
    "two-vintage": ConfigSpace(_INTERNAL_RAID_LEVELS, (1, 2, 3)),
    "infant-mortality": ConfigSpace(_INTERNAL_RAID_LEVELS, (1, 2)),
    "wear-out": ConfigSpace(_INTERNAL_RAID_LEVELS, (1, 2)),
    "non-uniform-peers": ConfigSpace(_INTERNAL_RAID_LEVELS, (1, 2)),
    "repair-skew": ConfigSpace(_INTERNAL_RAID_LEVELS, (1, 2)),
}


def canonical_fleets(base: Parameters) -> Dict[str, FleetSpec]:
    """Three hand-pinned heterogeneous fleets for golden regression.

    Deliberately *not* drawn from :class:`ScenarioGenerator`, so the
    golden numbers survive generator evolution; each exemplifies one
    family the corpus sweeps (two-vintage batches, infant-mortality
    phase-type lifetimes, tahoe-style non-uniform peers)."""
    return {
        "two-vintage": FleetSpec(
            base=base,
            internal=InternalRaid.RAID5,
            fault_tolerance=2,
            cohorts=(
                Cohort.make("vintage-a", 6),
                Cohort.make(
                    "vintage-b", 6, node_mttf_hours=base.node_mttf_hours * 0.5
                ),
            ),
        ),
        "infant-mortality": FleetSpec(
            base=base,
            internal=InternalRaid.RAID5,
            fault_tolerance=1,
            cohorts=(
                Cohort.make(
                    "burn-in",
                    6,
                    lifetime=fit_weibull(
                        0.6, mean=base.node_mttf_hours * 0.8
                    ).dist,
                ),
                Cohort.make("mature", 6),
            ),
        ),
        "non-uniform-peers": FleetSpec(
            base=base,
            internal=InternalRaid.RAID6,
            fault_tolerance=2,
            cohorts=(
                Cohort.make(
                    "peers-0", 4, node_mttf_hours=base.node_mttf_hours * 0.5
                ),
                Cohort.make("peers-1", 4),
                Cohort.make(
                    "peers-2",
                    4,
                    node_mttf_hours=base.node_mttf_hours * 1.5,
                    repair_delay_hours=24.0,
                ),
            ),
        ),
    }

CORPUS_KIND = "repro-fleet-corpus"
CORPUS_VERSION = 1

#: Relative tolerance the corpus oracles hold solves to — the same
#: bound as the verify battery's sparse/dense invariant.
ORACLE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Scenario:
    """One generated fleet scenario."""

    scenario_id: str
    family: str
    seed: int
    index: int
    fleet: FleetSpec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario_id": self.scenario_id,
            "family": self.family,
            "seed": self.seed,
            "index": self.index,
            "fleet": self.fleet.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Scenario":
        return cls(
            scenario_id=payload["scenario_id"],
            family=payload["family"],
            seed=int(payload["seed"]),
            index=int(payload["index"]),
            fleet=FleetSpec.from_dict(payload["fleet"]),
        )


class ScenarioGenerator:
    """Deterministic fleet-scenario source.

    Args:
        base: baseline parameters every scenario perturbs (the Section 6
            baseline when omitted).
        seed: master seed; scenario ``index`` draws from
            ``random.Random(f"{seed}:{index}")`` independently, so any
            subset of the corpus can be regenerated without replaying
            the rest.
        families: round-robin family cycle (defaults to all five).

    Generated fleets are sized for differential testing: every scenario
    stays within a few thousand CTMC states so the dense backend can
    cross-check the sparse one.
    """

    def __init__(
        self,
        base: Optional[Parameters] = None,
        seed: int = 0,
        families: Sequence[str] = FAMILIES,
    ) -> None:
        for family in families:
            if family not in FAMILIES:
                raise ValueError(
                    f"unknown scenario family {family!r}; "
                    f"known: {', '.join(FAMILIES)}"
                )
        if not families:
            raise ValueError("need at least one scenario family")
        self.base = base if base is not None else Parameters.baseline()
        self.seed = int(seed)
        self.families = tuple(families)

    # ------------------------------------------------------------------ #

    def generate(self, count: int) -> Iterator[Scenario]:
        """Yield ``count`` scenarios, round-robin over the families."""
        for index in range(count):
            family = self.families[index % len(self.families)]
            yield self.scenario(family, index)

    def scenario(self, family: str, index: int) -> Scenario:
        rng = random.Random(f"{self.seed}:{index}")
        builder = getattr(self, "_" + family.replace("-", "_"))
        fleet = builder(rng, CONFIG_SPACES[family])
        return Scenario(
            scenario_id=f"{family}-{index:05d}",
            family=family,
            seed=self.seed,
            index=index,
            fleet=fleet,
        )

    # ------------------------------------------------------------------ #
    # family builders (all draws go through rng — nothing else)
    # ------------------------------------------------------------------ #

    def _fleet(self, rng, cohorts, fault_tolerance, space) -> FleetSpec:
        return FleetSpec(
            base=self.base,
            internal=rng.choice(space.internal_levels),
            fault_tolerance=fault_tolerance,
            cohorts=tuple(cohorts),
        )

    def _mttf(self, rng: random.Random, lo: float, hi: float) -> float:
        return self.base.node_mttf_hours * rng.uniform(lo, hi)

    def _two_vintage(self, rng: random.Random, space: ConfigSpace) -> FleetSpec:
        t = rng.choice(space.fault_tolerances)
        old = rng.randrange(4, 13)
        new = rng.randrange(4, 13)
        while old + new < self.base.redundancy_set_size:
            new += 1
        cohorts = [
            Cohort.make("vintage-a", old),
            Cohort.make(
                "vintage-b", new, node_mttf_hours=self._mttf(rng, 0.3, 0.9)
            ),
        ]
        return self._fleet(rng, cohorts, t, space)

    def _infant_mortality(
        self, rng: random.Random, space: ConfigSpace
    ) -> FleetSpec:
        t = rng.choice(space.fault_tolerances)
        shape = rng.uniform(0.45, 0.9)
        mean = self._mttf(rng, 0.5, 1.2)
        fit = fit_weibull(shape, mean=mean)
        young = rng.randrange(4, 11)
        cohorts = [Cohort.make("burn-in", young, lifetime=fit.dist)]
        if rng.random() < 0.6:
            cohorts.append(Cohort.make("mature", rng.randrange(4, 11)))
        while sum(c.nodes for c in cohorts) < self.base.redundancy_set_size:
            cohorts[0] = Cohort.make(
                "burn-in", cohorts[0].nodes + 1, lifetime=fit.dist
            )
        return self._fleet(rng, cohorts, t, space)

    def _wear_out(self, rng: random.Random, space: ConfigSpace) -> FleetSpec:
        t = rng.choice(space.fault_tolerances)
        shape = rng.uniform(1.45, 1.75)  # cv^2 in (1/3, 1): exact 3-stage fit
        mean = self._mttf(rng, 0.6, 1.1)
        fit = fit_weibull(shape, mean=mean)
        aged = rng.randrange(4, 9)
        fresh = rng.randrange(4, 9)
        while aged + fresh < self.base.redundancy_set_size:
            fresh += 1
        cohorts = [
            Cohort.make("aged", aged, lifetime=fit.dist),
            Cohort.make("fresh", fresh),
        ]
        return self._fleet(rng, cohorts, t, space)

    def _non_uniform_peers(
        self, rng: random.Random, space: ConfigSpace
    ) -> FleetSpec:
        t = rng.choice(space.fault_tolerances)
        groups = rng.choice((3, 4))
        cohorts = []
        for g in range(groups):
            cohorts.append(
                Cohort.make(
                    f"peers-{g}",
                    rng.randrange(3, 8),
                    node_mttf_hours=self._mttf(rng, 0.4, 1.6),
                )
            )
        while sum(c.nodes for c in cohorts) < self.base.redundancy_set_size:
            first = cohorts[0]
            cohorts[0] = Cohort(
                name=first.name,
                nodes=first.nodes + 1,
                overrides=first.overrides,
            )
        return self._fleet(rng, cohorts, t, space)

    def _repair_skew(self, rng: random.Random, space: ConfigSpace) -> FleetSpec:
        t = rng.choice(space.fault_tolerances)
        groups = rng.choice((2, 3))
        cohorts = []
        for g in range(groups):
            cohorts.append(
                Cohort.make(
                    f"repair-{g}",
                    rng.randrange(4, 9),
                    repair_delay_hours=rng.choice((0.0, 24.0, 72.0, 168.0)),
                    repair_cost=rng.uniform(0.5, 3.0),
                    node_mttf_hours=self._mttf(rng, 0.6, 1.3),
                )
            )
        while sum(c.nodes for c in cohorts) < self.base.redundancy_set_size:
            first = cohorts[0]
            cohorts[0] = Cohort(
                name=first.name,
                nodes=first.nodes + 1,
                overrides=first.overrides,
                repair_delay_hours=first.repair_delay_hours,
                repair_cost=first.repair_cost,
            )
        return self._fleet(rng, cohorts, t, space)


# --------------------------------------------------------------------- #
# corpus artifact (JSONL)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CorpusHeader:
    """First line of a corpus file: identity and provenance."""

    seed: int
    count: int
    families: Tuple[str, ...]
    base_params_key: str
    solved: bool = False
    provenance: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": CORPUS_KIND,
            "version": CORPUS_VERSION,
            "seed": self.seed,
            "count": self.count,
            "families": list(self.families),
            "base_params_key": self.base_params_key,
            "solved": self.solved,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class ScenarioResult:
    """Solver and oracle outcomes for one scenario."""

    scenario_id: str
    num_states: int
    nnz: int
    mttdl_hours: float
    backend: str
    dense_mttdl_hours: Optional[float]
    sparse_dense_rel_gap: Optional[float]
    uniform_mttdl_hours: float
    heterogeneity_ratio: float
    repairs_per_year: float
    repair_cost_per_year: float
    oracles: Dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.oracles.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario_id": self.scenario_id,
            "num_states": self.num_states,
            "nnz": self.nnz,
            "mttdl_hours": self.mttdl_hours,
            "backend": self.backend,
            "dense_mttdl_hours": self.dense_mttdl_hours,
            "sparse_dense_rel_gap": self.sparse_dense_rel_gap,
            "uniform_mttdl_hours": self.uniform_mttdl_hours,
            "heterogeneity_ratio": self.heterogeneity_ratio,
            "repairs_per_year": self.repairs_per_year,
            "repair_cost_per_year": self.repair_cost_per_year,
            "oracles": dict(self.oracles),
        }


@dataclass(frozen=True)
class CorpusRun:
    """A solved corpus: per-scenario results plus oracle violations."""

    header: CorpusHeader
    scenarios: Tuple[Scenario, ...]
    results: Tuple[ScenarioResult, ...]
    violations: Tuple[Dict[str, Any], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def write_corpus(
    out: TextIO,
    header: CorpusHeader,
    scenarios: Iterable[Scenario],
    results: Optional[Sequence[ScenarioResult]] = None,
) -> int:
    """Write the JSONL corpus: header line, then one scenario per line
    (with its result inlined when solved).  Returns lines written."""
    out.write(json.dumps(header.to_dict(), sort_keys=True) + "\n")
    lines = 1
    results = list(results) if results is not None else None
    for i, scenario in enumerate(scenarios):
        payload = scenario.to_dict()
        if results is not None:
            payload["result"] = results[i].to_dict()
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        lines += 1
    return lines


def read_corpus(
    lines: Iterable[str],
) -> Tuple[Dict[str, Any], List[Tuple[Scenario, Optional[Dict[str, Any]]]]]:
    """Parse a corpus file back into its header and scenarios."""
    it = iter(lines)
    try:
        header = json.loads(next(it))
    except StopIteration:
        raise ValueError("empty corpus file") from None
    if header.get("kind") != CORPUS_KIND:
        raise ValueError(f"not a {CORPUS_KIND} file: kind={header.get('kind')!r}")
    if header.get("version") != CORPUS_VERSION:
        raise ValueError(f"unsupported corpus version {header.get('version')!r}")
    entries = []
    for line in it:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        entries.append((Scenario.from_dict(payload), payload.get("result")))
    return header, entries


# --------------------------------------------------------------------- #
# the corpus runner: solve + differential oracles
# --------------------------------------------------------------------- #


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def _uniform_baseline(
    scenarios: Sequence[Scenario],
    engine,
    options: SolveOptions,
) -> List[float]:
    """The homogenized-to-base uniform MTTDL for each scenario, in one
    batched sweep-engine pass (grouped by spec hash internally)."""
    pairs = []
    for scenario in scenarios:
        fleet = scenario.fleet
        config = Configuration(
            internal=fleet.internal,
            node_fault_tolerance=fleet.fault_tolerance,
        )
        params = fleet.base.replace(node_set_size=fleet.total_nodes)
        pairs.append((config, params))
    results = engine.evaluate_many(pairs, options=options)
    return [r.mttdl_hours for r in results]


def _scenario_oracles(
    scenario: Scenario,
    model: FleetModel,
    mttdl: float,
    options: SolveOptions,
) -> Dict[str, bool]:
    """The per-scenario differential oracles.

    * ``homogeneous-collapse``: the all-cohorts-equal (exponentialized)
      variant agrees with the paper's uniform parallel-repair chain to
      1e-9, and its single-cohort merge is *bitwise* the uniform chain;
    * ``exponential-collapse``: replacing implicit exponential
      lifetimes with explicit 1-stage phase-types leaves spec hash,
      binding environment and MTTDL bitwise unchanged;
    * ``sparse-dense-agreement``: both backends agree to 1e-9 (checked
      by the caller, recorded here).
    """
    fleet = scenario.fleet
    oracles: Dict[str, bool] = {}

    # homogeneous collapse: strip to cohort 0's settings, exponential.
    template = fleet.cohorts[0]
    exponentialized = [
        Cohort(
            name=c.name,
            nodes=c.nodes,
            overrides=template.overrides,
            lifetime=None,
            repair_delay_hours=template.repair_delay_hours,
            repair_cost=template.repair_cost,
        )
        for c in fleet.cohorts
    ]
    homogeneous = fleet.with_cohorts(exponentialized)
    homo_model = FleetModel(homogeneous)
    uniform = homo_model.uniform_reference_chain()
    uniform_mttdl = uniform.mean_time_to_absorption()
    homo_mttdl = homo_model.mttdl_hours(options)
    collapse_ok = _rel(homo_mttdl, uniform_mttdl) <= ORACLE_REL_TOL
    merged_model = FleetModel(homogeneous.merged())
    collapse_bitwise = (
        merged_model.chain().mean_time_to_absorption() == uniform_mttdl
    )
    oracles["homogeneous-collapse"] = collapse_ok and collapse_bitwise

    # exponential collapse: explicit 1-stage phase-type == implicit.
    from .phasetype import PhaseType

    explicit = [
        (
            c
            if c.lifetime is not None
            else Cohort(
                name=c.name,
                nodes=c.nodes,
                overrides=c.overrides,
                lifetime=PhaseType.exponential(
                    fleet.cohort_params(c).node_failure_rate
                ),
                repair_delay_hours=c.repair_delay_hours,
                repair_cost=c.repair_cost,
            )
        )
        for c in fleet.cohorts
    ]
    explicit_fleet = fleet.with_cohorts(explicit)
    explicit_model = FleetModel(explicit_fleet)
    env_equal = explicit_model.env() == model.env()
    spec_equal = (
        explicit_model.spec().spec_hash == model.spec().spec_hash
    )
    mttdl_equal = explicit_model.mttdl_hours(options) == mttdl
    oracles["exponential-collapse"] = env_equal and spec_equal and mttdl_equal
    return oracles


def run_corpus(
    scenarios: Sequence[Scenario],
    *,
    engine=None,
    options: Optional[SolveOptions] = None,
    dense_check_limit: int = 2048,
    check_oracles: bool = True,
) -> CorpusRun:
    """Solve every scenario through the solver stack and the sweep
    engine, holding each to the differential oracles.

    Every scenario solves through the sparse backend; scenarios with at
    most ``dense_check_limit`` states also solve densely and the two
    answers must agree to 1e-9 (the acceptance bound).  The uniform
    baseline column batches through ``engine.evaluate_many`` so
    structurally-identical configurations share compiled specs.
    """
    from ..engine import SweepEngine

    engine = engine if engine is not None else SweepEngine()
    options = options if options is not None else SolveOptions()
    scenarios = list(scenarios)
    started = time.perf_counter()
    results: List[ScenarioResult] = []
    violations: List[Dict[str, Any]] = []
    with obs.span("fleet.corpus", scenarios=len(scenarios)):
        uniform_col = _uniform_baseline(scenarios, engine, options)
        for scenario, uniform_mttdl in zip(scenarios, uniform_col):
            with obs.span(
                "fleet.scenario",
                scenario=scenario.scenario_id,
                family=scenario.family,
            ):
                model = FleetModel(scenario.fleet)
                sparse = model.sparse_chain()
                sparse_opts = SolveOptions(
                    backend="sparse_iterative",
                    rates_method=options.rates_method,
                    tolerance=options.tolerance,
                )
                sparse_mttdl = model.mttdl_hours(sparse_opts)
                dense_mttdl = None
                gap = None
                oracles: Dict[str, bool] = {}
                if model.num_states <= dense_check_limit:
                    dense_opts = SolveOptions(
                        backend="dense_gth", rates_method=options.rates_method
                    )
                    dense_mttdl = model.mttdl_hours(dense_opts)
                    gap = _rel(sparse_mttdl, dense_mttdl)
                    oracles["sparse-dense-agreement"] = gap <= ORACLE_REL_TOL
                    mttdl, backend = dense_mttdl, "dense_gth"
                else:
                    mttdl, backend = sparse_mttdl, "sparse_iterative"
                if check_oracles:
                    oracles.update(
                        _scenario_oracles(scenario, model, mttdl, options)
                    )
                result = ScenarioResult(
                    scenario_id=scenario.scenario_id,
                    num_states=model.num_states,
                    nnz=sparse.nnz,
                    mttdl_hours=mttdl,
                    backend=backend,
                    dense_mttdl_hours=dense_mttdl,
                    sparse_dense_rel_gap=gap,
                    uniform_mttdl_hours=uniform_mttdl,
                    heterogeneity_ratio=mttdl / uniform_mttdl,
                    repairs_per_year=scenario.fleet.expected_repairs_per_year(),
                    repair_cost_per_year=scenario.fleet.repair_cost_per_year(),
                    oracles=oracles,
                )
                results.append(result)
                registry = obs.global_metrics()
                for name, ok in oracles.items():
                    registry.counter("fleet.oracle.checks").inc()
                    if not ok:
                        violations.append(
                            {
                                "scenario_id": scenario.scenario_id,
                                "family": scenario.family,
                                "oracle": name,
                                "mttdl_hours": mttdl,
                                "sparse_dense_rel_gap": gap,
                            }
                        )
                        registry.counter("fleet.oracle.violations").inc()
    elapsed = time.perf_counter() - started
    first = scenarios[0] if scenarios else None
    header = CorpusHeader(
        seed=first.seed if first else 0,
        count=len(scenarios),
        families=tuple(sorted({s.family for s in scenarios})),
        base_params_key=(
            first.fleet.base.cache_key() if first else Parameters.baseline().cache_key()
        ),
        solved=True,
        provenance={
            "elapsed_seconds": elapsed,
            "dense_check_limit": dense_check_limit,
            "options": options.cache_key(),
            "oracle_rel_tol": ORACLE_REL_TOL,
            "violations": len(violations),
        },
    )
    return CorpusRun(
        header=header,
        scenarios=tuple(scenarios),
        results=tuple(results),
        violations=tuple(violations),
    )
