"""The coalescing request batcher — continuous batching for chain solves.

Concurrent in-flight queries land on one bounded queue; a single
consumer assembles them into batches under a close policy (full at
``max_batch_size`` points, ``max_wait_us`` after the first point
arrived, or *earlier* when the tightest per-request deadline is at
risk), and hands every batch to the runtime: a
:class:`repro.runtime.topology.ThreadTopology` solver thread in
single-process mode, or a shard of a
:class:`repro.runtime.topology.ProcessTopology` in sharded mode.  The
solve itself — grouping by spec hash, one stacked ``bind_batch`` plus
one batched GTH elimination per group — lives in
:mod:`repro.serve.solvecore` and is identical everywhere.  This is the
continuous-batching shape inference servers use: while one batch solves,
the next accumulates on the queue, so batch sizes grow with load and
per-point cost falls exactly when it matters.

Admission control is the queue bound: :meth:`CoalescingBatcher.submit`
raises :class:`Overloaded` instead of queueing unboundedly, and the HTTP
layer turns that into ``429 Retry-After``.  Shedding at the door keeps
tail latency flat for the requests that are admitted.

Deadline-aware closing: a request may carry a deadline; the batcher
closes the batch early when waiting longer would push the oldest
waiter past ``deadline - margin``, where the margin covers the solve
itself (an EWMA of recent batch solve times plus a configured safety
margin).  Without deadlines the policy degenerates to the original
two-knob close.

Observability: the batcher owns the ``serve.queue.*`` / ``serve.batch.*``
metrics (plus ``serve.shard.<i>.*`` when it fronts a shard), and when
tracing is enabled each solved batch emits a ``serve.batch`` span tree
with per-point queue-wait spans, the batch-assembly span, and the
engine's own ``solve.bind`` / ``solve.gth`` children — shipped home
automatically by the runtime when the solve ran in a shard worker.
"""

from __future__ import annotations

import asyncio
import functools
import time
from typing import Any, Iterable, List, Optional

from .. import obs
from ..core.solvers import DEFAULT_SOLVE_OPTIONS, SolveOptions
from ..models.configurations import Configuration
from ..models.parameters import Parameters
from ..models.specs import spec_for_key
from ..runtime.topology import ThreadTopology, WorkerTopology
from .solvecore import PointTask, make_state, solve_handler

__all__ = ["CoalescingBatcher", "Overloaded", "batch_close_at"]

#: Fraction of the previous solve-time EWMA kept per update.
_EWMA_KEEP = 0.8


class Overloaded(Exception):
    """The admission queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(
            f"admission queue full; retry after {retry_after_s:g}s"
        )
        self.retry_after_s = retry_after_s


def batch_close_at(
    assemble_t0: float,
    max_wait_s: float,
    deadlines: Iterable[Optional[float]],
    margin_s: float,
) -> float:
    """When the batch being assembled must stop waiting for more points.

    The nominal close is ``assemble_t0 + max_wait_s``; any member with a
    deadline pulls it in to ``deadline - margin_s`` so the solve (whose
    expected cost is inside the margin) still lands within budget.  Never
    before ``assemble_t0`` itself — a batch always accepts the point that
    opened it.
    """
    close_at = assemble_t0 + max_wait_s
    for deadline in deadlines:
        if deadline is not None and deadline - margin_s < close_at:
            close_at = deadline - margin_s
    return max(assemble_t0, close_at)


class _Pending:
    """One admitted point: its task, its future, and its deadline."""

    __slots__ = ("task", "future", "deadline_mono")

    def __init__(
        self,
        task: PointTask,
        future: "asyncio.Future[float]",
        deadline_mono: Optional[float],
    ) -> None:
        self.task = task
        self.future = future
        self.deadline_mono = deadline_mono


_STOP = object()


class CoalescingBatcher:
    """Batches concurrent chain-solve queries into grouped stacked solves.

    Args:
        max_batch_size: close a batch at this many points.
        max_wait_us: close a batch this long (microseconds) after its
            first point arrived, even if not full — the latency the
            service is willing to trade for throughput.
        queue_depth: admission bound; :meth:`submit` raises
            :class:`Overloaded` when this many points are already queued.
        retry_after_s: the hint carried by :class:`Overloaded`.
        metrics: registry for ``serve.queue.*`` / ``serve.batch.*``
            instruments (a private one when omitted).
        runtime: the worker topology that solves batches.  When omitted
            the batcher owns a single-thread
            :class:`~repro.runtime.topology.ThreadTopology` (the classic
            single-process solver thread) and manages its lifecycle;
            when provided (sharded mode) the caller owns it.
        shard: pin every batch to this topology slot and emit
            ``serve.shard.<shard>.*`` metrics (sharded mode).
        deadline_margin_us: safety margin subtracted from request
            deadlines on top of the solve-time EWMA when computing the
            early close.
        live: the server's :class:`~repro.obs.live.LiveTelemetry`
            bundle; the batcher feeds it windowed queue-wait and
            per-shard batch observations and deposits the worker spans
            sampled requests shipped back (defaults to the no-op).
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 64,
        max_wait_us: int = 2_000,
        queue_depth: int = 1024,
        retry_after_s: float = 1.0,
        metrics: Optional[obs.Metrics] = None,
        runtime: Optional[WorkerTopology] = None,
        shard: Optional[int] = None,
        deadline_margin_us: int = 500,
        live: Optional[Any] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_us < 0:
            raise ValueError("max_wait_us must be >= 0")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if deadline_margin_us < 0:
            raise ValueError("deadline_margin_us must be >= 0")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_us / 1e6
        self.queue_depth = queue_depth
        self.retry_after_s = retry_after_s
        self.deadline_margin_s = deadline_margin_us / 1e6
        self.metrics = metrics if metrics is not None else obs.Metrics()
        self._owns_runtime = runtime is None
        if runtime is None:
            runtime = ThreadTopology(
                solve_handler,
                size=1,
                worker_state=functools.partial(make_state, False),
                name="repro-serve-solver",
            )
        self._runtime = runtime
        self._shard = shard
        self._live = live if live is not None else obs.NULL_LIVE
        self._solve_ewma: Optional[float] = None
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=queue_depth)
        self._consumer: Optional["asyncio.Task[None]"] = None
        self._stopping = False
        self._depth_gauge = self.metrics.gauge("serve.queue.depth")
        self._shed = self.metrics.counter("serve.queue.shed")
        self._admitted = self.metrics.counter("serve.queue.admitted")
        self._queue_wait = self.metrics.histogram("serve.queue.wait_s")
        self._batch_size = self.metrics.histogram("serve.batch.size")
        self._batch_groups = self.metrics.histogram("serve.batch.groups")
        self._batch_assemble = self.metrics.histogram("serve.batch.assemble_s")
        self._batch_solve = self.metrics.histogram("serve.batch.solve_s")
        self._batches = self.metrics.counter("serve.batches")
        self._points = self.metrics.counter("serve.points")
        self._closed_early = self.metrics.counter("serve.batch.closed_early")
        if shard is not None:
            self._shard_batches = self.metrics.counter(
                f"serve.shard.{shard}.batches"
            )
            self._shard_batch_size = self.metrics.histogram(
                f"serve.shard.{shard}.batch.size"
            )
        else:
            self._shard_batches = None
            self._shard_batch_size = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the consumer task on the running event loop."""
        if self._consumer is None:
            if self._owns_runtime:
                self._runtime.start()
            self._stopping = False
            self._consumer = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-batcher"
            )

    async def stop(self) -> None:
        """Drain the queue, solve what is in flight, stop the consumer.

        Admission closes immediately (further :meth:`submit` calls raise
        :class:`Overloaded`); everything already admitted is answered.
        A shared (caller-owned) runtime is left running.
        """
        if self._consumer is None:
            return
        self._stopping = True
        await self._queue.put(_STOP)
        await self._consumer
        self._consumer = None
        if self._owns_runtime:
            self._runtime.stop(drain=True)

    @property
    def depth(self) -> int:
        """Points currently queued (excluding the batch being solved)."""
        return self._queue.qsize()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        config: Configuration,
        params: Parameters,
        method: str,
        options: Optional[SolveOptions] = None,
        *,
        deadline_s: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> "asyncio.Future[float]":
        """Admit one point; returns the future of its MTTDL (hours).

        Args:
            deadline_s: the requester's latency budget from now; the
                batcher closes batches early rather than blow it.
            trace_id: the sampled-request trace id (None when the
                request was not sampled); rides the task to the worker,
                which captures and ships its spans back.

        Raises:
            Overloaded: the queue is at ``queue_depth`` (or the batcher
                is draining); the caller answers 429 / 503.
        """
        if self._stopping or self._consumer is None:
            raise Overloaded(self.retry_after_s)
        future: "asyncio.Future[float]" = (
            asyncio.get_running_loop().create_future()
        )
        if options is None:
            options = DEFAULT_SOLVE_OPTIONS
        # The spec hash depends only on the configuration family, so the
        # grouping key is known at admission time, before any model or
        # binding environment exists.
        spec_hash = (
            spec_for_key(config.key).spec_hash if method == "analytic" else ""
        )
        task = PointTask(config, params, method, options, spec_hash, trace_id)
        deadline_mono = (
            task.enqueued_mono + deadline_s if deadline_s is not None else None
        )
        pending = _Pending(task, future, deadline_mono)
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self._shed.inc()
            raise Overloaded(self.retry_after_s) from None
        self._admitted.inc()
        self._depth_gauge.set(self._queue.qsize())
        return future

    # ------------------------------------------------------------------ #
    # the consumer
    # ------------------------------------------------------------------ #

    def _margin_s(self) -> float:
        """Early-close margin: expected solve cost plus the safety knob."""
        ewma = self._solve_ewma if self._solve_ewma is not None else 0.0
        return self.deadline_margin_s + ewma

    async def _run(self) -> None:
        while True:
            first = await self._queue.get()
            if first is _STOP:
                break
            batch = [first]
            assemble_t0 = time.monotonic()
            assemble_unix = time.time()
            margin_s = self._margin_s()
            min_deadline = first.deadline_mono
            # The window runs from the first point's arrival, not from its
            # dequeue: a point that already waited out ``max_wait`` behind
            # the previous batch's solve closes the batch once the backlog
            # is drained.
            window_t0 = first.task.enqueued_mono
            nominal_close = window_t0 + self.max_wait_s
            close_at = batch_close_at(
                window_t0, self.max_wait_s, (min_deadline,), margin_s
            )
            saw_stop = False
            timed_out = False
            while len(batch) < self.max_batch_size:
                # Drain synchronously first: under load the queue refills
                # in bursts, and a per-item ``wait_for`` (a Task plus a
                # timer handle each) would dominate the per-point cost.
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    remaining = close_at - time.monotonic()
                    if remaining <= 0:
                        timed_out = True
                        break
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        timed_out = True
                        break
                if item is _STOP:
                    saw_stop = True
                    break
                batch.append(item)
                if item.deadline_mono is not None and (
                    min_deadline is None or item.deadline_mono < min_deadline
                ):
                    min_deadline = item.deadline_mono
                    close_at = batch_close_at(
                        window_t0, self.max_wait_s, (min_deadline,), margin_s
                    )
            self._depth_gauge.set(self._queue.qsize())
            assembled_s = time.monotonic() - assemble_t0
            closed_early = timed_out and close_at < nominal_close
            await self._dispatch(batch, assemble_unix, assembled_s, closed_early)
            if saw_stop:
                break
        # Drain-on-stop: everything admitted before the stop sentinel is
        # still answered, in arrival order.
        leftovers: List[_Pending] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _STOP:
                leftovers.append(item)
        for chunk_start in range(0, len(leftovers), self.max_batch_size):
            chunk = leftovers[chunk_start : chunk_start + self.max_batch_size]
            await self._dispatch(chunk, time.time(), 0.0, False)
        self._depth_gauge.set(self._queue.qsize())

    # ------------------------------------------------------------------ #
    # dispatch to the runtime
    # ------------------------------------------------------------------ #

    async def _dispatch(
        self,
        batch: List[_Pending],
        assemble_unix: float,
        assembled_s: float,
        closed_early: bool,
    ) -> None:
        """Hand one assembled batch to the runtime and fan results out."""
        tasks = [pending.task for pending in batch]
        solve_t0 = time.monotonic()
        for pending in batch:
            wait_s = solve_t0 - pending.task.enqueued_mono
            self._queue_wait.observe(wait_s)
            self._live.record_queue_wait(wait_s)
        try:
            outcomes, spans = await self._runtime.asubmit(
                (tasks, assemble_unix, assembled_s), shard=self._shard
            )
        except BaseException as exc:  # noqa: BLE001 - fanned out below
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        solve_wall = time.monotonic() - solve_t0
        if self._solve_ewma is None:
            self._solve_ewma = solve_wall
        else:
            self._solve_ewma = (
                _EWMA_KEEP * self._solve_ewma + (1.0 - _EWMA_KEEP) * solve_wall
            )
        groups = len({(t.method, t.spec_hash, t.options) for t in tasks})
        self._batches.inc()
        self._points.inc(len(batch))
        self._batch_size.observe(len(batch))
        self._batch_groups.observe(groups)
        self._batch_assemble.observe(assembled_s)
        self._batch_solve.observe(solve_wall)
        if closed_early:
            self._closed_early.inc()
        if self._shard_batches is not None:
            self._shard_batches.inc()
            self._shard_batch_size.observe(len(batch))
        self._live.record_batch(self._shard, len(batch), solve_wall)
        if spans:
            # Deposit the shipped worker spans once per sampled trace in
            # this batch; the HTTP layer stitches them when the request
            # finishes (the collector clones, so sharing is safe).
            for trace_id in {t.trace_id for t in tasks if t.trace_id}:
                self._live.collect(trace_id, spans)
        for pending, outcome in zip(batch, outcomes):
            if pending.future.done():
                continue
            if isinstance(outcome, BaseException):
                pending.future.set_exception(outcome)
            else:
                pending.future.set_result(outcome)
