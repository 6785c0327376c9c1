"""Batched evaluation of (configuration, parameters) points.

Three optimizations over calling :meth:`Configuration.reliability` in a
loop, none of which changes a single output bit:

* **Compiled specs** — each chain family is compiled once from its
  declarative :class:`~repro.core.spec.ModelSpec` and re-bound with fresh
  rates per point; compiled chains are keyed by content (spec hash) in a
  :class:`~repro.core.spec.CompiledSpecCache`, and the hashes are
  recorded in sweep provenance.
* **Stacked binding** — points sharing a spec hash are bound in one
  vectorized pass: their environments stack into per-parameter arrays,
  :meth:`CompiledChain.bind_batch` evaluates every edge expression once
  over all points into one rate tensor, whose rows the dense backend
  stacks straight into the batched GTH system.
* **Array-rates memo** — the internal-RAID drive-level rates ``lambda_D``
  / ``lambda_S`` (and the embedded array MTTDL solve) depend on only a
  handful of scalars, which whole sweeps share; they are computed once per
  distinct operating point.
* **Strategy-routed solves** — bound chains go through the solver
  strategy interface (:func:`repro.core.solvers.solve`); the default
  dense backend stacks structurally-identical chains into one batched
  GTH elimination whose per-slice arithmetic is bit-identical to the
  scalar solver, and an explicit :class:`~repro.core.solvers.SolveOptions`
  can reroute the same points to the sparse backend.

The bitwise guarantee is what lets the sweep engine, the serving layer
and the disk cache mix freely: every path yields the exact floats of the
pre-engine point-by-point code.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core import CTMC
from ..core.solvers import (
    DEFAULT_SOLVE_OPTIONS,
    SolveOptions,
    SolveRequest,
)
from ..core.solvers import solve as _core_solve
from ..core.spec import CompiledChain, CompiledSpecCache, ModelSpec
from ..models.configurations import Configuration
from ..models.internal_raid import InternalRaidNodeModel
from ..models.parameters import Parameters
from ..models.raid import ArrayRates, InternalRaid, array_model

__all__ = [
    "SolveContext",
    "normalize_method",
    "closed_form_mttdl",
    "evaluate_chunk",
    "mttdl_batched",
    "prepare_point",
    "solve_grouped",
]

#: Public method names of the unified API mapped to their canonical form;
#: the pre-engine "exact"/"approx" spellings are accepted as aliases.
_METHOD_ALIASES = {
    "analytic": "analytic",
    "exact": "analytic",
    "closed_form": "closed_form",
    "approx": "closed_form",
    "monte_carlo": "monte_carlo",
}


def normalize_method(method: str) -> str:
    """Canonical method name; raises ValueError for unknown spellings."""
    try:
        return _METHOD_ALIASES[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; use 'analytic', 'closed_form' or "
            "'monte_carlo' ('exact'/'approx' accepted as aliases)"
        ) from None


class SolveContext:
    """Per-process compiled-spec cache and counters for chunk evaluation.

    The array-memo counters live in :attr:`metrics` (as
    ``engine.array_memo.hits`` / ``engine.array_memo.misses``) alongside
    the spec cache's own registry; ``array_hits`` / ``array_misses``
    remain as read-through properties for provenance snapshots.
    """

    def __init__(self) -> None:
        self.metrics = obs.Metrics()
        self.specs = CompiledSpecCache(metrics=self.metrics)
        self.array_rates: Dict[Hashable, ArrayRates] = {}
        self._array_hits = self.metrics.counter("engine.array_memo.hits")
        self._array_misses = self.metrics.counter("engine.array_memo.misses")

    @property
    def array_hits(self) -> int:
        return self._array_hits.value

    @array_hits.setter
    def array_hits(self, value: int) -> None:
        self._array_hits.value = value

    @property
    def array_misses(self) -> int:
        return self._array_misses.value

    @array_misses.setter
    def array_misses(self, value: int) -> None:
        self._array_misses.value = value

    def stats(self) -> Dict[str, int]:
        return {
            "spec_hits": self.specs.hits,
            "spec_misses": self.specs.misses,
            "array_hits": self.array_hits,
            "array_misses": self.array_misses,
        }

    def spec_hashes(self) -> Tuple[str, ...]:
        """Hashes of every spec compiled in this context (provenance)."""
        return self.specs.hashes()


def _array_rates_for(
    config: Configuration,
    params: Parameters,
    ctx: SolveContext,
    rates_method: str = "approx",
) -> ArrayRates:
    """Memoized ``rates(rates_method)`` of the internal array model.

    The rates (and the array MTTDL they carry) are functions of exactly
    ``(level, d, lambda_d, mu_d, C*HER)``; keying on those scalars plus
    the derivation method makes the memo exact — identical inputs give
    identical outputs, so a hit returns the same floats a fresh
    computation would.
    """
    arr = array_model(params, config.internal)
    key = (
        config.internal,
        params.drives_per_node,
        params.drive_failure_rate,
        arr.restripe_rate,
        params.hard_error_per_drive_read,
        rates_method,
    )
    rates = ctx.array_rates.get(key)
    if rates is None:
        rates = arr.rates(rates_method)
        ctx.array_rates[key] = rates
        ctx.array_misses += 1
    else:
        ctx.array_hits += 1
    return rates


def _spec_and_env(
    config: Configuration,
    params: Parameters,
    ctx: SolveContext,
    rates_method: str = "approx",
) -> Tuple[ModelSpec, Dict[str, float]]:
    """The (spec, binding environment) for one point, via the array memo."""
    if config.internal is InternalRaid.NONE:
        model = config.model(params)
    else:
        model = InternalRaidNodeModel(
            params,
            config.internal,
            config.node_fault_tolerance,
            array_rates=_array_rates_for(config, params, ctx, rates_method),
        )
    return model.spec(), model.chain_env()


def prepare_point(
    config: Configuration,
    params: Parameters,
    ctx: SolveContext,
    rates_method: str = "approx",
) -> Tuple[CompiledChain, Dict[str, float]]:
    """The (compiled chain, binding environment) for one analytic point.

    Model construction, the array-rates memo and spec compilation all
    happen here; the returned pair feeds :func:`solve_grouped` (points
    sharing a :attr:`~repro.core.spec.CompiledChain.spec_hash` can be
    solved as one group).
    """
    spec, env = _spec_and_env(config, params, ctx, rates_method)
    return ctx.specs.get_or_compile(spec), env


def closed_form_mttdl(
    config: Configuration, params: Parameters, ctx: SolveContext
) -> float:
    """MTTDL (hours) by the paper's closed forms, through the array memo."""
    if config.internal is InternalRaid.NONE:
        return config.mttdl_hours(params, "approx")
    model = InternalRaidNodeModel(
        params,
        config.internal,
        config.node_fault_tolerance,
        array_rates=_array_rates_for(config, params, ctx),
    )
    return model.mttdl_approx()


def _bind_group(
    compiled: CompiledChain, envs: Sequence[Dict[str, float]]
) -> List[CTMC]:
    """Bind one pre-grouped batch (every env shares ``compiled``'s spec).

    A single point binds scalar; two or more stack into per-parameter
    arrays and go through one :meth:`CompiledChain.bind_batch` pass,
    bitwise identical to point-by-point :meth:`CompiledChain.bind`.
    """
    with obs.span(
        "solve.bind", spec=compiled.spec_hash[:12], points=len(envs)
    ):
        if len(envs) == 1:
            return [compiled.bind(envs[0])]
        stacked = {
            name: np.array([env[name] for env in envs])
            for name in compiled.param_names
        }
        return compiled.bind_batch(stacked)


def solve_grouped(
    compiled: CompiledChain,
    envs: Sequence[Dict[str, float]],
    options: Optional[SolveOptions] = None,
) -> List[float]:
    """MTTDL (hours) for a pre-grouped batch sharing one spec hash.

    The batch-solve entry point for callers that have already coalesced
    their points by :attr:`~repro.core.spec.CompiledChain.spec_hash`
    (the serving layer's request batcher): the whole group is bound in
    one :meth:`CompiledChain.bind_batch` pass and handed to the solver
    strategy interface in one request — under the default (dense)
    backend, one stacked GTH elimination.  Every returned float is
    bitwise equal to the point's own scalar bind-and-solve (and
    therefore to ``config.reliability(params)``).
    """
    return mttdl_batched(_bind_group(compiled, envs), options)


def _bind_all(
    compiled_chains: Sequence[CompiledChain],
    envs: Sequence[Dict[str, float]],
) -> List[CTMC]:
    """Bind every (compiled chain, environment) pair, stacking shared shapes.

    Points with the same spec hash are bound in one
    :meth:`CompiledChain.bind_batch` pass — per-parameter scalar
    environments stack into arrays and the rate tensor for the whole
    group is evaluated at once, bitwise identical to point-by-point
    :meth:`CompiledChain.bind`.
    """
    chains: List[Optional[CTMC]] = [None] * len(envs)
    groups: Dict[str, List[int]] = {}
    by_hash: Dict[str, CompiledChain] = {}
    for i, compiled in enumerate(compiled_chains):
        groups.setdefault(compiled.spec_hash, []).append(i)
        by_hash[compiled.spec_hash] = compiled
    for spec_hash, members in groups.items():
        compiled = by_hash[spec_hash]
        for i, chain in zip(
            members, _bind_group(compiled, [envs[i] for i in members])
        ):
            chains[i] = chain
    return chains  # type: ignore[return-value]


def mttdl_batched(
    chains: Sequence[CTMC], options: Optional[SolveOptions] = None
) -> List[float]:
    """Mean time to absorption of many chains, via the solver strategy API.

    A thin routing layer over :func:`repro.core.solvers.solve`: the whole
    batch travels in one :class:`~repro.core.solvers.SolveRequest` and the
    selected backend decides how to execute it.  Under the default dense
    backend, chains are grouped by (state order, transient/absorbing
    partition, initial state) and each group is stacked into one batched
    GTH elimination — every returned float is bitwise equal to the
    chain's own :meth:`~repro.core.ctmc.CTMC.mean_time_to_absorption`.
    """
    if not chains:
        return []
    request = SolveRequest(
        chains=tuple(chains),
        query="mttdl",
        options=DEFAULT_SOLVE_OPTIONS if options is None else options,
    )
    return list(_core_solve(request).values)


def evaluate_chunk(
    tasks: Sequence[Tuple[Configuration, Parameters, str]],
    ctx: Optional[SolveContext] = None,
    options: Optional[SolveOptions] = None,
) -> List[float]:
    """MTTDL (hours) for each ``(config, params, method)`` task.

    ``method`` must already be normalized ("analytic" or "closed_form");
    Monte-Carlo evaluation lives in :mod:`repro.sim` and is dispatched by
    the facade, not here.  Order is preserved.  Both task families route
    through the solver strategy interface: analytic points are bound and
    shipped as one chain batch, closed-form points as one
    ``closed_form`` request whose thunk runs them through the array memo.
    """
    if ctx is None:
        ctx = SolveContext()
    if options is None:
        options = DEFAULT_SOLVE_OPTIONS
    mttdls: List[Optional[float]] = [None] * len(tasks)
    bind_compiled: List[CompiledChain] = []
    bind_envs: List[Dict[str, float]] = []
    chain_slots: List[int] = []
    cf_slots: List[int] = []
    with obs.span("solve.prepare", tasks=len(tasks)):
        # "prepare" covers per-task model construction and the
        # array-rates memo; closed-form values are computed later inside
        # their backend's solve span.
        for i, (config, params, method) in enumerate(tasks):
            if method == "closed_form":
                cf_slots.append(i)
            elif method == "analytic":
                compiled, env = prepare_point(
                    config, params, ctx, options.rates_method
                )
                bind_compiled.append(compiled)
                bind_envs.append(env)
                chain_slots.append(i)
            else:
                raise ValueError(
                    f"evaluate_chunk cannot handle method {method!r}"
                )
    if cf_slots:
        cf_tasks = [tasks[i] for i in cf_slots]
        cf_options = (
            options
            if options.backend == "closed_form"
            else options.replace(backend="closed_form")
        )
        result = _core_solve(
            SolveRequest(
                closed_form=lambda: [
                    closed_form_mttdl(config, params, ctx)
                    for config, params, _ in cf_tasks
                ],
                query="mttdl",
                options=cf_options,
            )
        )
        for i, mttdl in zip(cf_slots, result.values):
            mttdls[i] = mttdl
    if chain_slots:
        chains = _bind_all(bind_compiled, bind_envs)
        for i, mttdl in zip(chain_slots, mttdl_batched(chains, options)):
            mttdls[i] = mttdl
    return mttdls  # type: ignore[return-value]
