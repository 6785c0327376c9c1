"""The batch-solve core shared by every serve topology.

The :class:`~repro.serve.batcher.CoalescingBatcher` *assembles* batches;
this module *solves* them.  Keeping the solve pure and picklable is what
lets one implementation run in three places unchanged:

* on a dedicated solver thread (single-process mode, via
  :class:`repro.runtime.topology.ThreadTopology`);
* inside a forked shard worker (sharded mode, via
  :class:`repro.runtime.topology.ProcessTopology`), where the worker owns
  its shard's :class:`~repro.engine.solver.SolveContext` (array-rates
  memo; compiled chains are per process);
* inline, for tests.

Nothing here caches results: the service's one front cache answers
repeats before a point is ever queued.

The handler contract is the runtime's ``handler(state, payload)``:
``state`` is a :class:`SolverState` built inside the worker by
:func:`make_state`, ``payload`` is ``(tasks, assemble_unix,
assembled_s)``, and the reply is ``(outcomes, spans)`` where
``outcomes[i]`` is point ``i``'s MTTDL in hours (or the exception its
group raised) and ``spans`` holds the span dicts captured for sampled
requests (None when no task was sampled).
"""

from __future__ import annotations

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

__all__ = [
    "PointTask",
    "SolverState",
    "make_state",
    "solve_batch_tasks",
    "solve_handler",
]


class PointTask:
    """One admitted point, in picklable form (crosses the shard pipe)."""

    __slots__ = (
        "config",
        "params",
        "method",
        "options",
        "spec_hash",
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
        trace_id: Optional[str] = None,
    ) -> None:
        self.config = config
        self.params = params
        self.method = method
        self.options = options
        self.spec_hash = spec_hash
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
    """Per-worker solve state: shard identity and solve context."""

    __slots__ = ("shard", "ctx")

    def __init__(self, shard: Optional[int], ctx: SolveContext) -> None:
        self.shard = shard
        self.ctx = ctx


def make_state(sharded: bool, index: int) -> SolverState:
    """Worker-state factory (``functools.partial``-able for the runtime).

    Runs *inside* the worker, so the solve context is owned by the
    worker that uses it — per-shard in process mode, per-thread in
    single-process mode.
    """
    return SolverState(shard=index if sharded else None, ctx=SolveContext())


def solve_batch_tasks(
    tasks: Sequence[PointTask],
    ctx: SolveContext,
    *,
    assemble_unix: float = 0.0,
    assembled_s: float = 0.0,
    shard: Optional[int] = None,
) -> Tuple[List[Any], Optional[List[Dict[str, Any]]]]:
    """Solve one assembled batch; returns per-point floats (or the
    exception that point's group raised, position-matched) plus the
    spans captured for sampled tasks (None when none was sampled).

    Grouping includes the (hashable, frozen) solve options: points
    asking for different backends or tolerances never share a stacked
    solve.  Every execution path stays bitwise identical (stacked binds
    are per-point independent).

    When any task carries a sampled ``trace_id``, the whole solve runs
    under a span capture regardless of the process-global tracer: the
    captured spans come back as picklable dicts (so they cross the shard
    pipe in the batch reply) *and* are re-adopted into any enclosing
    tracer, so a ``--trace`` session still sees them.
    """
    if any(task.trace_id for task in tasks):
        with obs.capture_spans() as shipped:
            outcomes = _solve_batch(tasks, ctx, assemble_unix, assembled_s, shard)
        obs.adopt_spans(shipped)
        return outcomes, shipped
    return _solve_batch(tasks, ctx, assemble_unix, assembled_s, shard), None


def _solve_batch(
    tasks: Sequence[PointTask],
    ctx: SolveContext,
    assemble_unix: float,
    assembled_s: float,
    shard: Optional[int],
) -> List[Any]:
    groups: Dict[Tuple[str, str, SolveOptions], List[int]] = {}
    for i, task in enumerate(tasks):
        groups.setdefault((task.method, task.spec_hash, task.options), []).append(i)
    outcomes: List[Any] = [None] * len(tasks)
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
                obs.synth_span(
                    "serve.batch.assemble",
                    assemble_unix,
                    assembled_s,
                    points=len(tasks),
                )
            ]
            synthetic.extend(
                obs.synth_span(
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
    return outcomes


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
) -> Tuple[List[Any], Optional[List[Dict[str, Any]]]]:
    """The runtime handler every serve topology runs.

    Fires the :data:`~repro.runtime.faultpoints.SERVE_WORKER_CRASH`
    fault point in sharded (process) workers only — killing a forked
    shard exercises crash-restart; killing the single-process solver
    thread would just be killing the server.
    """
    tasks, assemble_unix, assembled_s = payload
    if state.shard is not None:
        faultpoints.fire(faultpoints.SERVE_WORKER_CRASH, shard=state.shard)
    outcomes, spans = solve_batch_tasks(
        tasks,
        state.ctx,
        assemble_unix=assemble_unix,
        assembled_s=assembled_s,
        shard=state.shard,
    )
    if state.shard is not None:
        outcomes = [_picklable_outcome(outcome) for outcome in outcomes]
    return outcomes, spans
