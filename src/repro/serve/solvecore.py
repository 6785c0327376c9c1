"""The batch-solve core shared by every serve topology.

The :class:`~repro.serve.batcher.CoalescingBatcher` *assembles* batches;
this module *solves* them.  Keeping the solve pure and picklable is what
lets one implementation run in three places unchanged:

* on a dedicated solver thread (single-process mode, via
  :class:`repro.runtime.topology.ThreadTopology`);
* inside a forked shard worker (sharded mode, via
  :class:`repro.runtime.topology.ProcessTopology`), where the worker owns
  its shard's :class:`~repro.engine.solver.SolveContext` (array-rates
  memo; compiled chains are per process) and an optional shard-local TTL
  result cache so hot keys stay cache-local;
* inline, for tests.

The handler contract is the runtime's ``handler(state, payload)``:
``state`` is a :class:`SolverState` built inside the worker by
:func:`make_state`, ``payload`` is ``(tasks, assemble_unix,
assembled_s)``, and the reply is ``(outcomes, stats)`` where
``outcomes[i]`` is point ``i``'s MTTDL in hours (or the exception its
group raised) and ``stats`` carries the worker-cache counters for the
parent to fold into its metrics registry.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..core.solvers import SolveOptions, SolveRequest
from ..core.solvers import solve as _core_solve
from ..engine.solver import (
    SolveContext,
    closed_form_mttdl,
    prepare_groups,
    solve_grouped,
)
from ..models.configurations import Configuration
from ..models.parameters import Parameters
from ..runtime import faultpoints
from .ttl_cache import TTLCache

__all__ = [
    "PointTask",
    "SolverState",
    "make_state",
    "solve_batch_tasks",
    "solve_handler",
    "synth_span",
]

#: Synthetic-span id sequence.  Real tracer ids are ``"<pid hex>-<int>"``;
#: the ``q`` infix keeps these from ever colliding with them.
_SYNTH_SEQ = itertools.count(1)


def synth_span(
    name: str,
    start_unix: float,
    wall_s: float,
    parent_id: Optional[str] = None,
    **attrs: Any,
) -> Dict[str, Any]:
    """A finished-span dict for a phase that cannot hold a live span
    open (it crosses task switches or the event loop's task switches);
    feed the result to :func:`repro.obs.adopt_spans`, which grafts
    parentless spans under the adopting thread's current span."""
    return {
        "type": "span",
        "span_id": f"{os.getpid():x}-q{next(_SYNTH_SEQ)}",
        "parent_id": parent_id,
        "name": name,
        "start_unix": start_unix,
        "wall_s": max(0.0, wall_s),
        "cpu_s": 0.0,
        "pid": os.getpid(),
        "attrs": attrs,
    }


class PointTask:
    """One admitted point, in picklable form (crosses the shard pipe)."""

    __slots__ = (
        "config",
        "params",
        "method",
        "options",
        "spec_hash",
        "cache_key",
        "enqueued_mono",
        "enqueued_unix",
        "trace_id",
    )

    def __init__(
        self,
        config: Configuration,
        params: Parameters,
        method: str,
        options: SolveOptions,
        spec_hash: str,
        cache_key: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.config = config
        self.params = params
        self.method = method
        self.options = options
        self.spec_hash = spec_hash
        self.cache_key = cache_key
        self.enqueued_mono = time.monotonic()
        self.enqueued_unix = time.time()
        # Sampled-request trace context: rides the task across the shard
        # pipe so the worker knows to capture and ship its spans back.
        self.trace_id = trace_id

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)


class SolverState:
    """Per-worker solve state: shard identity, solve context, cache."""

    __slots__ = ("shard", "ctx", "cache")

    def __init__(
        self,
        shard: Optional[int],
        ctx: SolveContext,
        cache: Optional[TTLCache],
    ) -> None:
        self.shard = shard
        self.ctx = ctx
        self.cache = cache


def make_state(
    cache_size: int,
    cache_ttl_s: Optional[float],
    sharded: bool,
    index: int,
) -> SolverState:
    """Worker-state factory (``functools.partial``-able for the runtime).

    Runs *inside* the worker, so the solve context and cache are owned by
    the worker that uses them — per-shard in process mode, per-thread in
    single-process mode.  The cache's own counters live in a local
    registry the parent never sees; the numbers that matter travel back
    in the per-batch ``stats``.
    """
    cache = (
        TTLCache(cache_size, cache_ttl_s, metrics=obs.Metrics())
        if cache_size > 0
        else None
    )
    return SolverState(
        shard=index if sharded else None, ctx=SolveContext(), cache=cache
    )


def solve_batch_tasks(
    tasks: Sequence[PointTask],
    ctx: SolveContext,
    *,
    cache: Optional[TTLCache] = None,
    assemble_unix: float = 0.0,
    assembled_s: float = 0.0,
    shard: Optional[int] = None,
) -> Tuple[List[Any], Dict[str, Any]]:
    """Solve one assembled batch; returns per-point floats (or the
    exception that point's group raised, position-matched) plus the
    worker-cache hit/miss counts.

    Grouping includes the (hashable, frozen) solve options: points
    asking for different backends or tolerances never share a stacked
    solve.  A worker-cache hit answers a point without solving; the
    remaining members of its group still solve together, and every
    execution path stays bitwise identical (stacked binds are per-point
    independent).

    When any task carries a sampled ``trace_id``, the whole solve runs
    under a span capture regardless of the process-global tracer: the
    captured spans come back in ``stats["spans"]`` (picklable dicts, so
    they cross the shard pipe in the batch reply) *and* are re-adopted
    into any enclosing tracer, so a ``--trace`` session still sees them.
    """
    if any(task.trace_id for task in tasks):
        with obs.capture_spans() as shipped:
            outcomes, stats = _solve_batch(
                tasks,
                ctx,
                cache=cache,
                assemble_unix=assemble_unix,
                assembled_s=assembled_s,
                shard=shard,
            )
        obs.adopt_spans(shipped)
        stats["spans"] = shipped
        return outcomes, stats
    return _solve_batch(
        tasks,
        ctx,
        cache=cache,
        assemble_unix=assemble_unix,
        assembled_s=assembled_s,
        shard=shard,
    )


def _solve_batch(
    tasks: Sequence[PointTask],
    ctx: SolveContext,
    *,
    cache: Optional[TTLCache],
    assemble_unix: float,
    assembled_s: float,
    shard: Optional[int],
) -> Tuple[List[Any], Dict[str, Any]]:
    groups: Dict[Tuple[str, str, SolveOptions], List[int]] = {}
    for i, task in enumerate(tasks):
        groups.setdefault((task.method, task.spec_hash, task.options), []).append(i)
    outcomes: List[Any] = [None] * len(tasks)
    cache_hits = 0
    cache_misses = 0
    attrs: Dict[str, Any] = {"size": len(tasks), "groups": len(groups)}
    if shard is not None:
        attrs["shard"] = shard
    sampled_ids = sorted({t.trace_id for t in tasks if t.trace_id})
    if sampled_ids:
        attrs["trace_ids"] = sampled_ids
    with obs.span("serve.batch", **attrs) as batch_span:
        if obs.tracing_active():
            dequeued = time.time()
            synthetic = [
                synth_span(
                    "serve.batch.assemble",
                    assemble_unix,
                    assembled_s,
                    points=len(tasks),
                )
            ]
            synthetic.extend(
                synth_span(
                    "serve.queue.wait",
                    t.enqueued_unix,
                    dequeued - t.enqueued_unix,
                    config=t.config.key,
                    **({"trace_id": t.trace_id} if t.trace_id else {}),
                )
                for t in tasks
            )
            obs.adopt_spans(synthetic, batch_span.span_id)
        for (method, spec_hash, options), members in groups.items():
            if cache is not None:
                solve_members = []
                for i in members:
                    key = tasks[i].cache_key
                    hit = cache.get(key) if key is not None else None
                    if hit is not None:
                        outcomes[i] = hit
                        cache_hits += 1
                    else:
                        solve_members.append(i)
                        cache_misses += 1
                members = solve_members
                if not members:
                    continue
            try:
                if method == "analytic":
                    prepared = prepare_groups(
                        [(tasks[i].config, tasks[i].params) for i in members],
                        ctx,
                        options.rates_method,
                    )
                    members = [
                        members[j] for group in prepared for j in group.members
                    ]
                    with obs.span(
                        "serve.batch.solve",
                        method=method,
                        spec=spec_hash[:12],
                        points=len(members),
                    ):
                        solved = [
                            mttdl
                            for group in prepared
                            for mttdl in solve_grouped(
                                group.compiled, group.env, options
                            )
                        ]
                else:
                    cf_options = (
                        options
                        if options.backend == "closed_form"
                        else options.replace(backend="closed_form")
                    )
                    with obs.span(
                        "serve.batch.solve",
                        method=method,
                        points=len(members),
                    ):
                        solved = list(
                            _core_solve(
                                SolveRequest(
                                    closed_form=lambda members=members: [
                                        closed_form_mttdl(
                                            tasks[i].config,
                                            tasks[i].params,
                                            ctx,
                                        )
                                        for i in members
                                    ],
                                    query="mttdl",
                                    options=cf_options,
                                )
                            ).values
                        )
            except Exception as exc:  # noqa: BLE001 - per-group isolation
                for i in members:
                    outcomes[i] = exc
            else:
                for i, mttdl in zip(members, solved):
                    outcomes[i] = mttdl
                    if cache is not None and tasks[i].cache_key is not None:
                        cache.put(tasks[i].cache_key, mttdl)
    return outcomes, {"cache_hits": cache_hits, "cache_misses": cache_misses}


def _picklable_outcome(outcome: Any) -> Any:
    """Exceptions cross the shard pipe; replace any that cannot."""
    if not isinstance(outcome, BaseException):
        return outcome
    try:
        pickle.dumps(outcome)
    except Exception:
        return RuntimeError(f"{type(outcome).__name__}: {outcome}")
    return outcome


def solve_handler(
    state: SolverState,
    payload: Tuple[Sequence[PointTask], float, float],
) -> Tuple[List[Any], Dict[str, int]]:
    """The runtime handler every serve topology runs.

    Fires the :data:`~repro.runtime.faultpoints.SERVE_WORKER_CRASH`
    fault point in sharded (process) workers only — killing a forked
    shard exercises crash-restart; killing the single-process solver
    thread would just be killing the server.
    """
    tasks, assemble_unix, assembled_s = payload
    if state.shard is not None:
        faultpoints.fire(faultpoints.SERVE_WORKER_CRASH, shard=state.shard)
    outcomes, stats = solve_batch_tasks(
        tasks,
        state.ctx,
        cache=state.cache,
        assemble_unix=assemble_unix,
        assembled_s=assembled_s,
        shard=state.shard,
    )
    if state.shard is not None:
        outcomes = [_picklable_outcome(outcome) for outcome in outcomes]
    return outcomes, stats
