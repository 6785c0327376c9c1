"""Named fault-injection points for the execution substrate.

Failure handling — corrupt disk-cache entries, dying pool workers,
crashing shard workers, stale memo state — is only trustworthy if it can
be *exercised*, so the code paths that can fail in production call
:func:`fire` at a handful of named points.  By default nothing is
installed and ``fire`` is a single dict lookup; tests and
:mod:`repro.verify.faults` install actions that corrupt a file just
before it is read, kill a worker process as it starts a chunk, and so
on.

Actions installed before a worker process forks are inherited by the
workers (:class:`repro.runtime.topology.ProcessTopology` uses the
``fork`` start method), which is exactly what worker-death injection
needs.

Example::

    from repro.runtime import faultpoints

    with faultpoints.injected(faultpoints.CACHE_READ, corrupt_the_file):
        engine.evaluate_many(pairs)   # every cache read is sabotaged
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Tuple

__all__ = [
    "CACHE_READ",
    "POOL_WORKER_START",
    "SERVE_WORKER_CRASH",
    "active",
    "clear",
    "fire",
    "injected",
    "install",
    "uninstall",
]

#: Fired with the entry's path just before the disk cache reads it.
CACHE_READ = "cache.read"

#: Fired inside a pool worker process before it evaluates a chunk.
POOL_WORKER_START = "pool.worker_start"

#: Fired inside a serve shard worker before it solves a batch.
SERVE_WORKER_CRASH = "serve.worker_crash"

_ACTIONS: Dict[str, Callable[..., Any]] = {}
_LOCK = threading.Lock()


def install(point: str, action: Callable[..., Any]) -> None:
    """Install ``action`` at ``point`` (replacing any previous action)."""
    with _LOCK:
        _ACTIONS[point] = action


def uninstall(point: str) -> None:
    """Remove the action at ``point`` (no-op if none installed)."""
    with _LOCK:
        _ACTIONS.pop(point, None)


def clear() -> None:
    """Remove every installed action."""
    with _LOCK:
        _ACTIONS.clear()


def active() -> Tuple[str, ...]:
    """Names of the points with an installed action, sorted."""
    with _LOCK:
        return tuple(sorted(_ACTIONS))


def fire(point: str, *args: Any, **kwargs: Any) -> Any:
    """Invoke the action installed at ``point``, if any.

    Production call sites pass whatever context the injector might want
    (e.g. the cache file's path).  Returns the action's result, or None
    when nothing is installed.  An action may raise — the caller's normal
    error handling is exactly what is under test.
    """
    action = _ACTIONS.get(point)
    if action is None:
        return None
    return action(*args, **kwargs)


@contextmanager
def injected(point: str, action: Callable[..., Any]) -> Iterator[None]:
    """Scoped :func:`install`: the action is removed on exit."""
    install(point, action)
    try:
        yield
    finally:
        uninstall(point)
