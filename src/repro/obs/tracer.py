"""Structured tracing: nested spans with cross-process propagation.

A :class:`Span` is one timed region of work — name, wall/CPU time,
free-form attributes and a parent id — and a :class:`Tracer` collects
finished spans into an in-memory buffer that the exporters in
:mod:`repro.obs.export` turn into JSONL traces and run reports.

Design constraints, in order:

* **Zero overhead when disabled.**  The module-level :func:`span` helper
  returns one shared no-op context manager when tracing is off; entering
  and leaving it allocates nothing and touches no locks, so hot paths
  (per-chain solves, per-batch binds) can be instrumented unconditionally.
* **Thread-safe nesting.**  The active-span stack is thread-local, so
  spans opened on different threads parent correctly and never interleave.
* **Process-safe shipping.**  Pool workers cannot write into the parent's
  tracer, so a worker records into its own tracer (see
  :func:`capture_spans`), ships the finished spans back with its results,
  and the parent re-parents them under its current span with
  :func:`adopt_spans`.  Span ids embed the producing pid plus a
  process-wide sequence number, so ids from any mix of forked workers and
  the parent never collide.

Wall time is measured with ``time.perf_counter`` (monotonic, high
resolution); span start instants are reconstructed on a shared
``time.time`` epoch (via a per-process clock anchor) so spans from
different processes order on one clock; CPU time uses
``time.thread_time`` so a span charges only the work of its own thread.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "NULL_SPAN",
    "NullTracer",
    "Span",
    "Tracer",
    "adopt_spans",
    "capture_spans",
    "current_span_id",
    "current_tracer",
    "set_tracer",
    "span",
    "synth_span",
    "tracing_active",
    "use_tracer",
]

#: Process-wide span-id sequence.  Shared by every tracer in the process
#: so a worker that runs several capture sessions never reissues an id;
#: forked children inherit the counter state but differ in pid, so the
#: combined ``pid-seq`` id stays unique across the whole process tree.
_SEQ = itertools.count(1)

#: Cached pid (an attribute load beats the ``os.getpid`` syscall on the
#: per-span hot path) and the realtime-vs-monotonic clock offset used to
#: reconstruct a span's wall-clock start from its ``perf_counter`` stamp.
#: Both clocks are system-wide on POSIX, so the anchor survives ``fork``;
#: the pid does not, hence the fork hook.
_PID = os.getpid()
_UNIX_ANCHOR = time.time() - time.perf_counter()


def _after_fork() -> None:
    global _PID
    _PID = os.getpid()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_after_fork)


class Span:
    """One timed region: identity, timings and attributes.

    A :class:`Span` is its own context manager — timing starts at
    ``__enter__`` and the span records itself into its tracer at
    ``__exit__``.  One object per span (no separate handle), plain
    ``list.append`` to record (atomic under the GIL): the enabled hot
    path stays cheap enough to wrap per-chain solves (guarded by
    ``benchmarks/bench_obs_overhead.py``).

    Attributes:
        name: dotted span name (see the taxonomy in docs/observability.md).
        span_id: unique ``"<pid hex>-<seq>"`` identifier.
        parent_id: enclosing span's id, or None for a root.
        attrs: free-form JSON-serializable attributes.
        start_unix: wall-clock start (``time.time()``), comparable across
            processes.
        wall_s / cpu_s: elapsed wall and same-thread CPU seconds (set when
            the span finishes).
        pid: producing process id.
    """

    __slots__ = (
        "name",
        "attrs",
        "wall_s",
        "cpu_s",
        "pid",
        "_seq",
        "_sid",
        "_parent",
        "_wall0",
        "_cpu0",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the live span."""
        self.attrs[key] = value

    @property
    def span_id(self) -> str:
        """The ``"<pid hex>-<seq>"`` id (formatted lazily, then cached)."""
        sid = self._sid
        if sid is None:
            sid = self._sid = f"{self.pid:x}-{self._seq}"
        return sid

    @property
    def parent_id(self) -> Optional[str]:
        """The enclosing span's id, or None for a root."""
        parent = self._parent
        if parent is None:
            return None
        return parent.span_id

    @property
    def start_unix(self) -> float:
        """Wall-clock start instant, comparable across processes."""
        return _UNIX_ANCHOR + self._wall0

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self.pid = _PID
        self._seq = next(_SEQ)
        self._sid = None
        stack.append(self)
        # Clocks read last so the span charges none of its own setup.
        self._cpu0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall1 = time.perf_counter()
        cpu1 = time.thread_time()
        stack = self._tracer._stack()
        # Pop down to this span even if an inner span leaked (an exception
        # escaping a hand-opened span); never corrupt the stack.
        while stack:
            if stack.pop() is self:
                break
        self.wall_s = max(0.0, wall1 - self._wall0)
        self.cpu_s = max(0.0, cpu1 - self._cpu0)
        self._tracer._finished.append(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "pid": self.pid,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, id={self.span_id}, wall={self.wall_s:.6f}s)"


def synth_span(
    name: str,
    start_unix: float,
    wall_s: float,
    parent_id: Optional[str] = None,
    **attrs: Any,
) -> Dict[str, Any]:
    """A finished span, in :meth:`Span.to_dict` form, for a phase that
    cannot hold a live span open (it crosses the event loop's task
    switches or a process boundary).

    The id comes from the tracer's own ``pid-seq`` sequence, so it never
    collides with a real span's; feed the result to :func:`adopt_spans`,
    which grafts parentless spans under the adopting thread's current
    span.
    """
    return {
        "type": "span",
        "span_id": f"{_PID:x}-{next(_SEQ)}",
        "parent_id": parent_id,
        "name": name,
        "start_unix": start_unix,
        "wall_s": max(0.0, wall_s),
        "cpu_s": 0.0,
        "pid": _PID,
        "attrs": attrs,
    }


class _NullSpan:
    """The shared no-op span: reentrant, allocation-free, attribute-silent."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass


#: The one no-op span context manager (reentrant; safe to nest freely).
NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    :meth:`span` always returns the shared :data:`NULL_SPAN` singleton, so
    instrumented hot paths cost one attribute check and one call when
    tracing is off — no allocation is retained per span (guarded by
    ``tests/obs/test_tracer.py``).
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def current_span_id(self) -> Optional[str]:
        return None

    def finished(self) -> List[Dict[str, Any]]:
        return []

    def adopt(
        self,
        span_dicts: Iterable[Dict[str, Any]],
        parent_id: Optional[str] = None,
    ) -> None:
        pass


#: The one shared disabled tracer.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects finished spans; thread-safe; one instance per process.

    Recording a span is one ``list.append`` (atomic under the GIL, so the
    hot path takes no lock); :meth:`finished` converts to the plain-dict
    wire form that ships across process boundaries and feeds the
    exporters.  Because children exit before their parents, the buffer is
    naturally ordered children-first.
    """

    enabled = True

    def __init__(self) -> None:
        # Mixed Span objects (recorded here) and dicts (adopted from
        # shipped workers); finished() normalizes to dicts.
        self._finished: List[Any] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager timing one region under the current span."""
        return Span(self, name, attrs)

    def current_span_id(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def finished(self) -> List[Dict[str, Any]]:
        """A snapshot of every finished span (dict form), children first."""
        with self._lock:
            snapshot = list(self._finished)
        return [
            s.to_dict() if isinstance(s, Span) else s for s in snapshot
        ]

    def adopt(
        self,
        span_dicts: Iterable[Dict[str, Any]],
        parent_id: Optional[str] = None,
    ) -> None:
        """Absorb spans shipped from another process (or capture session).

        Shipped roots — spans whose parent is absent from the shipped set
        — are re-parented under ``parent_id`` (default: this thread's
        current span), grafting the worker's subtree into the caller's.
        """
        span_dicts = [dict(d) for d in span_dicts]
        if not span_dicts:
            return
        if parent_id is None:
            parent_id = self.current_span_id()
        shipped_ids = {d["span_id"] for d in span_dicts}
        for d in span_dicts:
            if d.get("parent_id") not in shipped_ids:
                d["parent_id"] = parent_id
        with self._lock:
            self._finished.extend(span_dicts)


# --------------------------------------------------------------------- #
# the process-global tracer
# --------------------------------------------------------------------- #

_active: Any = NULL_TRACER


def current_tracer():
    """The process-global tracer (a :class:`NullTracer` when disabled)."""
    return _active


def set_tracer(tracer) -> Any:
    """Install ``tracer`` as the process-global tracer; returns the old one."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


def tracing_active() -> bool:
    """Whether an enabled tracer is currently installed."""
    return _active.enabled


def span(name: str, **attrs: Any):
    """Open a span on the global tracer (the shared no-op when disabled)."""
    tracer = _active
    if tracer.enabled:
        return tracer.span(name, **attrs)
    return NULL_SPAN


def current_span_id() -> Optional[str]:
    """The active span's id on the global tracer (None when disabled)."""
    return _active.current_span_id()


def adopt_spans(
    span_dicts: Sequence[Dict[str, Any]],
    parent_id: Optional[str] = None,
) -> None:
    """Graft shipped spans into the global tracer (no-op when disabled)."""
    tracer = _active
    if tracer.enabled and span_dicts:
        tracer.adopt(span_dicts, parent_id)


class capture_spans:
    """Record into a fresh tracer; yield the list the spans land in.

    Used inside pool workers (and the in-process broken-pool fallback):
    the worker wraps its chunk in ``with capture_spans() as shipped:``,
    returns ``shipped`` with its results, and the parent calls
    :func:`adopt_spans` to graft them under its own span tree.  The
    previous global tracer is restored on exit, so nesting captures (an
    in-process fallback inside a traced run) composes.
    """

    __slots__ = ("_previous", "_tracer", "_shipped")

    def __enter__(self) -> List[Dict[str, Any]]:
        self._tracer = Tracer()
        self._previous = set_tracer(self._tracer)
        self._shipped: List[Dict[str, Any]] = []
        return self._shipped

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_tracer(self._previous)
        self._shipped.extend(self._tracer.finished())
        return False


class use_tracer:
    """Temporarily install ``tracer`` as the process-global tracer."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer) -> None:
        self._tracer = tracer

    def __enter__(self):
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_tracer(self._previous)
        return False
