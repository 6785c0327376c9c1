"""The invariant registry.

An *invariant* is a paper-derived property the whole model stack must
satisfy at every operating point — MTTDL monotone in fault tolerance,
RAID 6 dominating RAID 5 dominating no-RAID, ``k3 <= k2 <= 1``, generator
rows summing to zero, closed forms tracking the exact solves within their
declared envelopes.  Each invariant is a named, tagged check function
registered here; :meth:`InvariantRegistry.run` executes a selection of
them against a :class:`VerifyContext` and collects a
:class:`~repro.verify.report.VerificationReport`.

Check functions receive the context and return
``(points_checked, [Violation, ...])``; an empty violation list means the
invariant held everywhere it was evaluated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..engine.sweep import SweepEngine
from ..models.configurations import ALL_CONFIGURATIONS, Configuration
from ..models.parameters import Parameters

__all__ = [
    "CheckFn",
    "Invariant",
    "InvariantCheck",
    "InvariantRegistry",
    "REGISTRY",
    "VerifyContext",
    "Violation",
    "invariant",
]


@dataclass(frozen=True)
class Violation:
    """One observed breach of one invariant at one evaluation point.

    Attributes:
        invariant: name of the violated invariant.
        message: human-readable statement of what failed.
        config: configuration key (``"ft2_raid5"``) when applicable.
        point: the parameter coordinates that witnessed the breach (only
            the fields that differ from the context's base parameters).
        details: free-form numeric evidence (observed values, bounds).
    """

    invariant: str
    message: str
    config: Optional[str] = None
    point: Optional[Mapping[str, Any]] = None
    details: Optional[Mapping[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "config": self.config,
            "point": dict(self.point) if self.point else None,
            "details": dict(self.details) if self.details else None,
        }


@dataclass(frozen=True)
class InvariantCheck:
    """Outcome of running one invariant: how much was checked, what broke."""

    name: str
    description: str
    tags: Tuple[str, ...]
    checked: int
    violations: Tuple[Violation, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def skipped(self) -> bool:
        """An invariant that evaluated nothing (e.g. Monte Carlo with
        ``mc_replicas=0``) neither passed nor failed."""
        return self.checked == 0 and not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "tags": list(self.tags),
            "checked": self.checked,
            "ok": self.ok,
            "skipped": self.skipped,
            "seconds": self.seconds,
            "violations": [v.to_dict() for v in self.violations],
        }


CheckFn = Callable[["VerifyContext"], Tuple[int, List[Violation]]]


@dataclass(frozen=True)
class Invariant:
    """A registered invariant: identity plus its check function."""

    name: str
    description: str
    tags: Tuple[str, ...]
    check: CheckFn

    def run(self, ctx: "VerifyContext") -> InvariantCheck:
        start = time.perf_counter()
        with obs.span("verify.invariant", invariant=self.name) as inv_span:
            checked, violations = self.check(ctx)
            inv_span.set("checked", checked)
            inv_span.set("violations", len(violations))
        metrics = obs.global_metrics()
        metrics.counter("verify.checks").inc(checked)
        metrics.counter("verify.violations").inc(len(violations))
        return InvariantCheck(
            name=self.name,
            description=self.description,
            tags=self.tags,
            checked=checked,
            violations=tuple(violations),
            seconds=time.perf_counter() - start,
        )


class VerifyContext:
    """Everything an invariant check needs: the configurations, the
    parameter lattice, and memoized engine-backed evaluation tables.

    The context evaluates each ``(configuration, point, method)`` at most
    once — through :class:`~repro.engine.sweep.SweepEngine`, so the whole
    registry pass costs one batched sweep per method — and hands the
    invariants a shared read-only table.

    Args:
        configs: configurations under audit (the paper's nine by default).
        points: the parameter lattice (see :mod:`repro.verify.lattice`).
        engine: sweep engine to evaluate through; a fresh one when
            omitted.
        base: baseline the lattice was grown from; used only to label
            violation points by their differing fields.
        mc_replicas: Monte-Carlo replicas for the simulation oracle;
            0 disables it (the fast "smoke" mode).
        mc_jobs: Monte-Carlo replica fan-out width (the simulation
            oracle and the fault drill's killed-worker scenario).
        mc_seed: master seed for every Monte-Carlo draw — runs are
            reproducible by construction.
        mc_sigmas: agreement band, in standard errors, for the
            Monte-Carlo oracle.
        mc_acceleration: failure-rate acceleration applied before
            simulating (see :func:`repro.sim.accelerated_parameters`).
    """

    def __init__(
        self,
        configs: Optional[Sequence[Configuration]] = None,
        points: Optional[Sequence[Parameters]] = None,
        engine: Optional[SweepEngine] = None,
        *,
        base: Optional[Parameters] = None,
        mc_replicas: int = 0,
        mc_jobs: int = 1,
        mc_seed: int = 0,
        mc_sigmas: float = 5.0,
        mc_acceleration: float = 200.0,
    ) -> None:
        self.base = base if base is not None else Parameters.baseline()
        self.configs: Tuple[Configuration, ...] = tuple(
            configs if configs is not None else ALL_CONFIGURATIONS
        )
        self.points: Tuple[Parameters, ...] = tuple(
            points if points is not None else (self.base,)
        )
        self.engine = engine if engine is not None else SweepEngine()
        self.mc_replicas = int(mc_replicas)
        self.mc_jobs = int(mc_jobs)
        self.mc_seed = int(mc_seed)
        self.mc_sigmas = float(mc_sigmas)
        self.mc_acceleration = float(mc_acceleration)
        self._tables: Dict[str, Dict[Tuple[str, int], float]] = {}

    # ------------------------------------------------------------------ #
    # evaluation tables
    # ------------------------------------------------------------------ #

    def mttdl_table(self, method: str = "analytic") -> Dict[Tuple[str, int], float]:
        """MTTDL (hours) for every (config, point), keyed by
        ``(config.key, point_index)``; evaluated once per method through
        the engine and memoized."""
        table = self._tables.get(method)
        if table is None:
            pairs = [
                (config, params)
                for params in self.points
                for config in self.configs
            ]
            with obs.span("verify.table", method=method, points=len(pairs)):
                results = self.engine.evaluate_many(pairs, method=method)
            table = {}
            index = 0
            for i, _ in enumerate(self.points):
                for config in self.configs:
                    table[(config.key, i)] = results[index].mttdl_hours
                    index += 1
            self._tables[method] = table
        return table

    @property
    def total_points(self) -> int:
        return len(self.configs) * len(self.points)

    # ------------------------------------------------------------------ #
    # labeling
    # ------------------------------------------------------------------ #

    def point_label(self, index: int) -> Dict[str, Any]:
        """The fields of point ``index`` that differ from the base
        parameters — compact coordinates for violation reports."""
        point = self.points[index].to_dict()
        base = self.base.to_dict()
        diff = {k: v for k, v in point.items() if base.get(k) != v}
        return diff if diff else {"point": index}


class InvariantRegistry:
    """Ordered name -> :class:`Invariant` mapping with selection and run."""

    def __init__(self) -> None:
        self._invariants: Dict[str, Invariant] = {}

    def register(self, inv: Invariant) -> Invariant:
        if inv.name in self._invariants:
            raise ValueError(f"invariant {inv.name!r} already registered")
        self._invariants[inv.name] = inv
        return inv

    def invariant(
        self,
        name: str,
        description: str,
        tags: Iterable[str] = (),
    ) -> Callable[[CheckFn], CheckFn]:
        """Decorator form of :meth:`register`; returns the bare function
        so modules can keep calling their checks directly."""

        def decorate(fn: CheckFn) -> CheckFn:
            self.register(
                Invariant(
                    name=name,
                    description=description,
                    tags=tuple(tags),
                    check=fn,
                )
            )
            return fn

        return decorate

    def get(self, name: str) -> Invariant:
        try:
            return self._invariants[name]
        except KeyError:
            raise KeyError(
                f"unknown invariant {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}"
            ) from None

    def names(self) -> List[str]:
        return list(self._invariants)

    def __len__(self) -> int:
        return len(self._invariants)

    def __iter__(self):
        return iter(self._invariants.values())

    def select(
        self,
        names: Optional[Sequence[str]] = None,
        tags: Optional[Sequence[str]] = None,
    ) -> List[Invariant]:
        """Invariants filtered by explicit names and/or required tags."""
        chosen = [self.get(n) for n in names] if names else list(self)
        if tags:
            wanted = set(tags)
            chosen = [inv for inv in chosen if wanted & set(inv.tags)]
        return chosen

    def run(
        self,
        ctx: VerifyContext,
        names: Optional[Sequence[str]] = None,
        tags: Optional[Sequence[str]] = None,
    ) -> "VerificationReport":
        """Run the selected invariants and assemble the report."""
        from .report import VerificationReport

        checks = tuple(inv.run(ctx) for inv in self.select(names, tags))
        return VerificationReport(
            checks=checks,
            configs=tuple(c.key for c in ctx.configs),
            lattice_points=len(ctx.points),
            mc_replicas=ctx.mc_replicas,
            mc_seed=ctx.mc_seed,
            provenance=ctx.engine.provenance(),
            base_params_key=ctx.base.cache_key(),
        )


#: The process-wide default registry the paper invariants register into.
REGISTRY = InvariantRegistry()

#: Module-level decorator bound to :data:`REGISTRY`.
invariant = REGISTRY.invariant
