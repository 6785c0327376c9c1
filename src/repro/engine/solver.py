"""Batched evaluation of (configuration, parameters) points.

The optimizations over calling :meth:`Configuration.reliability` in a
loop, none of which changes a single output bit:

* **Compiled specs** — each chain family is compiled once per process
  from its declarative :class:`~repro.core.spec.ModelSpec` and re-bound
  with fresh rates per point; compiled chains are keyed by content (spec
  hash) in the process-wide cache :func:`repro.models.specs.compiled`
  (the one :func:`repro.evaluate` uses), and the hashes each context
  bound are recorded in sweep provenance.
* **Columnar prepare** — points are grouped by configuration and each
  group's binding environment is computed once, over numpy columns of
  its :class:`~repro.models.parameters.Parameters`
  (:class:`~repro.models.parameters.ParameterColumns`): the models'
  rebuild, ``h``-word and critical-fraction formulas run on whole
  columns, with no per-point model objects or env dicts.
* **Stacked binding** — points sharing a spec hash are bound in one
  vectorized pass: :meth:`CompiledChain.bind_batch` evaluates every
  edge expression once over the env columns into one rate tensor,
  whose rows the dense backend stacks straight into the batched GTH
  system.
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
and :func:`repro.evaluate` mix freely: every path yields the exact
floats of the pre-engine point-by-point code.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from .. import obs
from ..core import CTMC
from ..core.solvers import (
    DEFAULT_SOLVE_OPTIONS,
    SolveOptions,
    SolveRequest,
)
from ..core.solvers import solve as _core_solve
from ..core.spec import CompiledChain, ModelSpec
from ..models.configurations import Configuration, NodeModel
from ..models.parameters import ParameterColumns, Parameters
from ..models.raid import ArrayRates, InternalRaid, array_model
from ..models.rebuild import RebuildModel
from ..models.specs import compiled_cache

__all__ = [
    "PreparedGroup",
    "SolveContext",
    "normalize_method",
    "closed_form_mttdl",
    "evaluate_chunk",
    "mttdl_batched",
    "prepare_groups",
    "solve_grouped",
]

#: A binding environment: a scalar or a per-point column per parameter.
Env = Dict[str, Any]

#: The method names of the unified API.
_METHODS = ("analytic", "closed_form", "monte_carlo")


def normalize_method(method: str) -> str:
    """``method`` itself if it names a method; raises ValueError otherwise."""
    if method not in _METHODS:
        raise ValueError(
            f"unknown method {method!r}; use 'analytic', 'closed_form' or "
            "'monte_carlo'"
        )
    return method


class SolveContext:
    """Per-engine array-rates memo and counters for chunk evaluation.

    Compiled chains live in the process-wide cache
    (:func:`repro.models.specs.compiled_cache`); the context tallies its
    own lookups against it — a lookup is a miss only if it compiled —
    and the hashes it bound (:meth:`spec_hashes`, for provenance).  The
    array-memo counters live in :attr:`metrics` (as
    ``engine.array_memo.hits`` / ``engine.array_memo.misses``);
    ``array_hits`` / ``array_misses`` remain as read-through properties
    for provenance snapshots.
    """

    def __init__(self) -> None:
        self.metrics = obs.Metrics()
        self.array_rates: Dict[Hashable, ArrayRates] = {}
        self.spec_hits = 0
        self.spec_misses = 0
        self._spec_hashes: Set[str] = set()
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
            "spec_hits": self.spec_hits,
            "spec_misses": self.spec_misses,
            "array_hits": self.array_hits,
            "array_misses": self.array_misses,
        }

    def compile(self, spec: ModelSpec) -> CompiledChain:
        """``spec``'s chain from the process-wide compiled-spec cache,
        counted as this context's hit, or its miss if the lookup
        compiled (a first sight or a rebuilt damaged entry)."""
        cache = compiled_cache()
        compiles = cache.misses + cache.structure_rebuilds
        chain = cache.get_or_compile(spec)
        if cache.misses + cache.structure_rebuilds > compiles:
            self.spec_misses += 1
        else:
            self.spec_hits += 1
        self._spec_hashes.add(chain.spec_hash)
        return chain

    def spec_hashes(self) -> Tuple[str, ...]:
        """Hashes of every spec this context bound, sorted (provenance)."""
        return tuple(sorted(self._spec_hashes))


def _array_rates(
    level: InternalRaid,
    source: Union[Parameters, ParameterColumns],
    members: Sequence[Parameters],
    ctx: SolveContext,
    rates_method: str = "approx",
) -> ArrayRates:
    """Memoized ``rates(rates_method)`` of the internal array model, for
    one point (``source`` is its :class:`Parameters`) or for a column of
    points (``source`` is their :class:`ParameterColumns`).

    The rates (and the array MTTDL they carry) are functions of exactly
    ``(level, d, lambda_d, mu_d, C*HER)``; keying on those scalars plus
    the derivation method makes the memo exact — identical inputs give
    identical outputs, so a hit returns the same floats a fresh
    computation would.  Each member counts one lookup, as if the points
    were looked up one by one; a column's rates come back as columns.
    """
    parts = (
        source.drives_per_node,
        source.drive_failure_rate,
        RebuildModel(source).restripe_rate(),
        source.hard_error_per_drive_read,
    )
    size = len(members)
    columns = [
        part.tolist() if isinstance(part, np.ndarray) else [part] * size
        for part in parts
    ]
    per_point = [(level, *row, rates_method) for row in zip(*columns)]
    found: Dict[Hashable, ArrayRates] = {}
    hits = 0
    for member, key in zip(members, per_point):
        if key in found:
            hits += 1
            continue
        rates = ctx.array_rates.get(key)
        if rates is None:
            rates = array_model(member, level).rates(rates_method)
            ctx.array_rates[key] = rates
            ctx.array_misses += 1
        else:
            hits += 1
        found[key] = rates
    ctx.array_hits += hits
    if len(found) == 1:
        (rates,) = found.values()
        return rates
    ordered = [found[key] for key in per_point]
    return ArrayRates(
        np.array([r.array_failure_rate for r in ordered]),
        np.array([r.restripe_sector_loss_rate for r in ordered]),
        lambda: np.array([r.mttdl_hours for r in ordered]),
    )


def _node_model(
    config: Configuration,
    source: Union[Parameters, ParameterColumns],
    members: Sequence[Parameters],
    ctx: SolveContext,
    rates_method: str = "approx",
) -> NodeModel:
    """The node model of one configuration's points (``members``), built
    once over ``source``: their columns, or the single member's own
    :class:`Parameters`.  Internal RAID draws its array rates from the
    memo."""
    if config.internal is InternalRaid.NONE:
        return config.model(source)
    rates = _array_rates(config.internal, source, members, ctx, rates_method)
    return config.model(source, array_rates=rates)


class PreparedGroup(NamedTuple):
    """Points sharing one compiled chain, ready to bind in one pass.

    ``env`` holds a scalar or a column per spec parameter (every column
    in ``members`` order); ``members`` are the points' positions in the
    sequence given to :func:`prepare_groups`.
    """

    compiled: CompiledChain
    env: Env
    members: List[int]


def prepare_groups(
    points: Sequence[Tuple[Configuration, Parameters]],
    ctx: SolveContext,
    rates_method: str = "approx",
) -> List[PreparedGroup]:
    """Group analytic points by compiled chain, with columnar environments.

    Points are grouped by configuration and each group's environment is
    computed once over its parameter columns; configurations whose
    chains share a spec hash (internal RAID 5 and 6 at one tolerance)
    are stacked into one group.  Spec compilation, the array-rates memo
    and env validation all happen here; each group feeds one
    :func:`solve_grouped` (or one ``bind_batch``), and every bound chain
    is bitwise the chain ``config.model(params).chain()`` builds.
    """
    by_config: Dict[Configuration, List[int]] = {}
    for i, (config, _) in enumerate(points):
        by_config.setdefault(config, []).append(i)
    # Configurations over the same points (the usual sweep and grid
    # shape) share one set of columns.
    columns: Dict[Tuple[int, ...], ParameterColumns] = {}
    by_hash: Dict[str, Tuple[CompiledChain, List[Env], List[List[int]]]] = {}
    for config, members in by_config.items():
        params = [points[i][1] for i in members]
        source: Union[Parameters, ParameterColumns]
        if len(params) == 1:
            # One point binds from its own scalars, the arithmetic
            # ``repro.evaluate`` runs.
            source = params[0]
        else:
            ids = tuple(map(id, params))
            shared = columns.get(ids)
            if shared is None:
                shared = columns[ids] = ParameterColumns(params)
            source = shared
        model = _node_model(config, source, params, ctx, rates_method)
        env = model.chain_env()
        compiled = ctx.compile(model.spec())
        _, envs, parts = by_hash.setdefault(
            compiled.spec_hash, (compiled, [], [])
        )
        envs.append(env)
        parts.append(members)
    return [
        PreparedGroup(
            compiled,
            _stack_envs(envs, [len(part) for part in parts]),
            [i for part in parts for i in part],
        )
        for compiled, envs, parts in by_hash.values()
    ]


def _stack_envs(envs: Sequence[Env], sizes: Sequence[int]) -> Env:
    """One environment for consecutive runs of points (``sizes[j]``
    points bind from ``envs[j]``); scalars broadcast to their run."""
    if len(envs) == 1 and (
        sizes[0] == 1
        or any(isinstance(v, np.ndarray) for v in envs[0].values())
    ):
        return envs[0]
    return {
        name: np.concatenate(
            [np.broadcast_to(env[name], (size,)) for env, size in zip(envs, sizes)]
        )
        for name in envs[0]
    }


def closed_form_mttdl(
    config: Configuration, params: Parameters, ctx: SolveContext
) -> float:
    """MTTDL (hours) by the paper's closed forms, through the array memo."""
    return _node_model(config, params, [params], ctx).mttdl_approx()


def _bind(compiled: CompiledChain, env: Env) -> List[CTMC]:
    """Bind one prepared environment: scalars bind one chain, columns
    one chain per point in a single :meth:`CompiledChain.bind_batch`
    pass, bitwise identical to point-by-point :meth:`CompiledChain.bind`.
    """
    points = max(
        (len(v) for v in env.values() if isinstance(v, np.ndarray)),
        default=0,
    )
    with obs.span(
        "solve.bind", spec=compiled.spec_hash[:12], points=max(points, 1)
    ):
        if points == 0:
            return [compiled.bind(env)]
        return compiled.bind_batch(env)


def solve_grouped(
    compiled: CompiledChain,
    env: Env,
    options: Optional[SolveOptions] = None,
) -> List[float]:
    """MTTDL (hours) for one prepared group (see :func:`prepare_groups`).

    The whole group is bound in one :meth:`CompiledChain.bind_batch`
    pass and handed to the solver strategy interface in one request —
    under the default (dense) backend, one stacked GTH elimination.
    Every returned float is bitwise equal to the point's own scalar
    bind-and-solve (and therefore to ``config.reliability(params)``).
    """
    return mttdl_batched(_bind(compiled, env), options)


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
    chain_slots: List[int] = []
    cf_slots: List[int] = []
    with obs.span("solve.prepare", tasks=len(tasks)):
        # "prepare" covers the columnar env build, spec compilation and
        # the array-rates memo; closed-form values are computed later
        # inside their backend's solve span.
        for i, (_, _, method) in enumerate(tasks):
            if method == "closed_form":
                cf_slots.append(i)
            elif method == "analytic":
                chain_slots.append(i)
            else:
                raise ValueError(
                    f"evaluate_chunk cannot handle method {method!r}"
                )
        groups = prepare_groups(
            [tasks[i][:2] for i in chain_slots], ctx, options.rates_method
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
        chains: List[Optional[CTMC]] = [None] * len(chain_slots)
        for compiled, env, members in groups:
            for j, chain in zip(members, _bind(compiled, env)):
                chains[j] = chain
        for i, mttdl in zip(chain_slots, mttdl_batched(chains, options)):
            mttdls[i] = mttdl
    return mttdls  # type: ignore[return-value]
