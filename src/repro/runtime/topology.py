"""Worker topologies: one execution substrate under serving and Monte Carlo.

A :class:`WorkerTopology` is a fixed-size set of worker slots with one
lifecycle (``start``/``health``/``stop``-with-drain/crash-restart), one
submission interface (``submit`` returning a
``concurrent.futures.Future``, ``asubmit`` for asyncio callers),
per-worker state owned by the worker, and obs span shipping built in.

Two implementations share that contract:

* :class:`ThreadTopology` — one single-thread executor per slot, so a
  ``shard=`` hint pins work (and the slot's state) to a specific thread.
  This is serve's solver and aux lane in single-process mode.
* :class:`ProcessTopology` — forked worker processes with duplex pipes,
  one reader thread per worker, crash detection with optional
  restart, and fork-inherited state (compiled-spec caches, installed
  faultpoints).  This is the Monte-Carlo replica pool and serve's shard
  workers.

The handler contract is ``handler(state, payload) -> result`` where
``state`` is whatever the per-worker ``worker_state(index)`` factory
built inside the worker.  Results and exceptions travel back through the
future.  When tracing is active in the submitting process, process
workers record their spans via :func:`repro.obs.capture_spans` and the
parent adopts them under the span that was open at submission time.

Crash semantics: a worker that dies mid-task fails every in-flight
future on that worker with :class:`WorkerCrashed`; if ``restart=True``
the slot respawns (after a short backoff, so a deterministic crasher
cannot hot-loop) and subsequent submissions land on the replacement.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, List, Optional, Sequence

from .. import obs

__all__ = [
    "ProcessTopology",
    "ThreadTopology",
    "WorkerCrashed",
    "WorkerInfo",
    "WorkerTopology",
]

_RESTART_DELAY_S = 0.05


class WorkerCrashed(RuntimeError):
    """A worker process died with tasks in flight (or before accepting one)."""

    def __init__(self, message: str, exit_code: Optional[int] = None) -> None:
        super().__init__(message)
        self.exit_code = exit_code


@dataclass(frozen=True)
class WorkerInfo:
    """Point-in-time health of one worker slot."""

    index: int
    pid: Optional[int]
    alive: bool
    restarts: int
    pending: int
    #: Unix time of the slot's most recent crash; None if it never died.
    last_crash: Optional[float] = None


class WorkerTopology:
    """Common lifecycle and submission surface for all topologies."""

    name: str = "repro-worker"

    @property
    def size(self) -> int:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def stop(self, drain: bool = True) -> None:
        raise NotImplementedError

    def submit(self, payload: Any, shard: Optional[int] = None) -> Future:
        """Submit one task; returns a future of the handler's result.

        ``shard`` pins the task to slot ``shard % size`` (the caller's
        routing decision); without it, slots are picked round-robin.
        """
        raise NotImplementedError

    async def asubmit(self, payload: Any, shard: Optional[int] = None) -> Any:
        """Awaitable :meth:`submit` for asyncio front ends."""
        return await asyncio.wrap_future(self.submit(payload, shard=shard))

    def health(self) -> List[WorkerInfo]:
        raise NotImplementedError

    def __enter__(self) -> "WorkerTopology":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop(drain=exc_type is None)
        return False


class ThreadTopology(WorkerTopology):
    """One single-thread executor per slot, for shard-pinned thread work.

    A slot's state lives on its own thread and is only ever touched by
    tasks routed to that slot, so handler code needs no locking — the
    same isolation model the process topology gives, minus the fork.
    """

    def __init__(
        self,
        handler: Callable[[Any, Any], Any],
        size: int = 1,
        *,
        worker_state: Optional[Callable[[int], Any]] = None,
        name: str = "repro-thread",
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self._handler = handler
        self._size = size
        self._worker_state = worker_state
        self._executors: Optional[List[ThreadPoolExecutor]] = None
        self._states: List[Any] = [None] * size
        self._round_robin = itertools.count()
        self.name = name

    @property
    def size(self) -> int:
        return self._size

    def start(self) -> None:
        if self._executors is not None:
            return
        self._executors = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"{self.name}-{i}")
            for i in range(self._size)
        ]
        if self._worker_state is not None:
            for i, executor in enumerate(self._executors):
                executor.submit(self._init_state, i).result()

    def _init_state(self, index: int) -> None:
        self._states[index] = self._worker_state(index)

    def stop(self, drain: bool = True) -> None:
        executors, self._executors = self._executors, None
        for executor in executors or ():
            executor.shutdown(wait=drain, cancel_futures=not drain)
        self._states = [None] * self._size

    def submit(self, payload: Any, shard: Optional[int] = None) -> Future:
        if self._executors is None:
            raise RuntimeError(f"{self.name}: topology is not started")
        index = self._pick(shard)
        return self._executors[index].submit(self._handler, self._states[index], payload)

    def _pick(self, shard: Optional[int]) -> int:
        if shard is not None:
            return shard % self._size
        return next(self._round_robin) % self._size

    def health(self) -> List[WorkerInfo]:
        alive = self._executors is not None
        return [
            WorkerInfo(index=i, pid=os.getpid(), alive=alive, restarts=0, pending=0)
            for i in range(self._size)
        ]


def _process_worker_main(
    name: str,
    index: int,
    handler: Callable[[Any, Any], Any],
    worker_state: Optional[Callable[[int], Any]],
    conn,
) -> None:
    """Loop of one forked worker: recv tasks, run the handler, send replies.

    The fork inherits the parent's installed tracer; spans recorded into
    it would land in a buffer nobody drains, so the worker resets to the
    null tracer and only records under :func:`obs.capture_spans` when
    the submitting side said tracing was active for that task.
    """
    obs.set_tracer(None)
    state = worker_state(index) if worker_state is not None else None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, task_id, payload, tracing = message
        spans: Optional[List[dict]] = None
        try:
            if tracing:
                with obs.capture_spans() as shipped:
                    value = handler(state, payload)
                spans = shipped
            else:
                value = handler(state, payload)
            reply = (task_id, True, value, spans)
        except BaseException as exc:  # noqa: BLE001 — shipped to the parent
            reply = (task_id, False, exc, spans)
        try:
            conn.send(reply)
        except Exception as exc:  # unpicklable result or exception
            substitute = RuntimeError(
                f"{name}[{index}]: reply could not be serialized: {exc!r}"
            )
            try:
                conn.send((task_id, False, substitute, None))
            except Exception:
                break
    conn.close()


class _ProcessWorker:
    """One slot of a :class:`ProcessTopology`: process + pipe + reader."""

    __slots__ = ("index", "process", "conn", "reader", "lock", "pending", "alive")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.reader: Optional[threading.Thread] = None
        self.lock = threading.Lock()
        # task_id -> (future, parent span id captured at submission)
        self.pending: dict = {}
        self.alive = True


class ProcessTopology(WorkerTopology):
    """Forked worker processes with crash detection and optional restart.

    Uses the ``fork`` start method deliberately: workers inherit compiled
    caches, installed faultpoints, and module state built in the parent,
    and task payloads still cross a pipe (so the handler contract is the
    same as under spawn).  One daemon reader thread per worker resolves
    futures as replies arrive; span adoption happens on the reader thread
    *before* the future resolves, so by the time a caller observes a
    result its worker spans are already grafted into the parent trace.
    """

    def __init__(
        self,
        handler: Callable[[Any, Any], Any],
        size: int,
        *,
        worker_state: Optional[Callable[[int], Any]] = None,
        restart: bool = False,
        metrics: Optional[obs.Metrics] = None,
        on_crash: Optional[Callable[[int, Optional[int]], None]] = None,
        name: str = "repro-proc",
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self._handler = handler
        self._size = size
        self._worker_state = worker_state
        self._restart = restart
        # Crash-dump hook: called as on_crash(index, exit_code) from the
        # crashed worker's reader thread, after in-flight futures fail
        # but before any restart (the flight recorder's dump point).
        self._on_crash = on_crash
        self._ctx = get_context("fork")
        self._workers: List[_ProcessWorker] = []
        self._restart_counts = [0] * size
        self._last_crash: List[Optional[float]] = [None] * size
        self._stopping = False
        self._lock = threading.Lock()
        self._task_ids = itertools.count()
        self._round_robin = itertools.count()
        self.name = name
        registry = metrics if metrics is not None else obs.Metrics()
        self._spawned = registry.counter("runtime.worker.spawned")
        self._crashes = registry.counter("runtime.worker.crashes")
        self._restarts = registry.counter("runtime.worker.restarts")
        self._crash_failed = registry.counter("runtime.tasks.crash_failed")
        self._submitted = registry.counter("runtime.tasks.submitted")

    @property
    def size(self) -> int:
        return self._size

    def start(self) -> None:
        with self._lock:
            if self._workers:
                return
            self._stopping = False
            self._workers = [self._spawn(i) for i in range(self._size)]

    def _spawn(self, index: int) -> _ProcessWorker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(self.name, index, self._handler, self._worker_state, child_conn),
            name=f"{self.name}-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _ProcessWorker(index, process, parent_conn)
        worker.reader = threading.Thread(
            target=self._read_replies,
            args=(worker,),
            name=f"{self.name}-{index}-reader",
            daemon=True,
        )
        worker.reader.start()
        self._spawned.inc()
        return worker

    def submit(self, payload: Any, shard: Optional[int] = None) -> Future:
        if not self._workers:
            raise RuntimeError(f"{self.name}: topology is not started")
        if self._stopping:
            raise RuntimeError(f"{self.name}: topology is stopping")
        index = shard % self._size if shard is not None else next(self._round_robin) % self._size
        worker = self._workers[index]
        future: Future = Future()
        task_id = next(self._task_ids)
        tracing = obs.tracing_active()
        parent_span = obs.current_span_id() if tracing else None
        with worker.lock:
            if not worker.alive:
                future.set_exception(
                    WorkerCrashed(f"{self.name}[{index}]: worker is down (restarting)")
                )
                return future
            worker.pending[task_id] = (future, parent_span)
            try:
                worker.conn.send(("task", task_id, payload, tracing))
            except (OSError, ValueError) as exc:
                worker.pending.pop(task_id, None)
                future.set_exception(
                    WorkerCrashed(f"{self.name}[{index}]: worker pipe is closed: {exc}")
                )
                return future
        self._submitted.inc()
        return future

    def _read_replies(self, worker: _ProcessWorker) -> None:
        while True:
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                break
            task_id, ok, value, spans = reply
            with worker.lock:
                entry = worker.pending.pop(task_id, None)
            if entry is None:
                continue
            future, parent_span = entry
            if spans:
                obs.adopt_spans(spans, parent_span)
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        self._on_worker_exit(worker)

    def _on_worker_exit(self, worker: _ProcessWorker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=10)
        exit_code = worker.process.exitcode
        with worker.lock:
            worker.alive = False
            pending = list(worker.pending.values())
            worker.pending.clear()
        if self._stopping and exit_code == 0 and not pending:
            return  # clean drain
        self._crashes.inc()
        self._last_crash[worker.index] = time.time()
        crash = WorkerCrashed(
            f"{self.name}[{worker.index}]: worker pid {worker.process.pid} exited "
            f"with code {exit_code} ({len(pending)} task(s) in flight)",
            exit_code=exit_code,
        )
        if pending:
            self._crash_failed.inc(len(pending))
        for future, _parent in pending:
            if not future.done():
                future.set_exception(crash)
        if self._on_crash is not None:
            try:
                self._on_crash(worker.index, exit_code)
            except Exception:  # the hook must never kill the reader
                pass
        if not self._restart:
            return
        # Backoff keeps a deterministic crasher (e.g. a fork-inherited
        # faultpoint) from respawn-looping at CPU speed.
        time.sleep(_RESTART_DELAY_S)
        with self._lock:
            if self._stopping or not self._workers:
                return
            self._restart_counts[worker.index] += 1
            self._restarts.inc()
            self._workers[worker.index] = self._spawn(worker.index)

    def stop(self, drain: bool = True) -> None:
        with self._lock:
            if not self._workers:
                return
            self._stopping = True
            workers = list(self._workers)
        for worker in workers:
            if drain:
                with worker.lock:
                    if worker.alive:
                        try:
                            worker.conn.send(("stop",))
                        except (OSError, ValueError):
                            pass
            else:
                worker.process.terminate()
        for worker in workers:
            worker.process.join(timeout=10)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            if worker.reader is not None:
                worker.reader.join(timeout=10)
        with self._lock:
            self._workers = []

    def health(self) -> List[WorkerInfo]:
        with self._lock:
            workers = list(self._workers)
        infos = []
        for worker in workers:
            with worker.lock:
                pending = len(worker.pending)
                alive = worker.alive and worker.process.is_alive()
            infos.append(
                WorkerInfo(
                    index=worker.index,
                    pid=worker.process.pid,
                    alive=alive,
                    restarts=self._restart_counts[worker.index],
                    pending=pending,
                    last_crash=self._last_crash[worker.index],
                )
            )
        return infos

    def restart_count(self) -> int:
        """Total restarts across all slots since :meth:`start`."""
        return sum(self._restart_counts)


def gather(futures: Sequence[Future]) -> List[Any]:
    """Wait on futures in order, returning results (raises the first error)."""
    return [future.result() for future in futures]
