"""repro.runtime — the execution substrate under serving and Monte Carlo.

Everything in this repo that fans work out — the Monte-Carlo replica
runner, serve's solver/aux lanes and its sharded multi-process topology
— runs on the worker topologies defined here.  One lifecycle (spawn /
health / drain / crash-restart), one submission interface (futures,
with an asyncio bridge), per-worker state owned by the worker, obs span
adoption built in, and a shared fault-injection registry
(:mod:`repro.runtime.faultpoints`).

Layers:

* :mod:`~repro.runtime.topology` — :class:`ThreadTopology` and
  :class:`ProcessTopology` behind the common :class:`WorkerTopology`
  contract.
* :mod:`~repro.runtime.chunks` — the "split into contiguous chunks, one
  per worker" fan-out (:func:`run_chunks`) with in-process fallback and
  crash recovery, built on :class:`ProcessTopology`.
* :mod:`~repro.runtime.faultpoints` — named fault-injection points
  shared by every layer.

Only :mod:`faultpoints` loads with the package, so the modules that
merely fire a fault point (the engine's disk cache) do not pull in
``multiprocessing`` and ``asyncio``; import the topologies and the
chunk runner from their own modules.
"""

from __future__ import annotations

from . import faultpoints

__all__ = ["faultpoints"]
