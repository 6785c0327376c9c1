"""repro.serve — the online reliability-query service.

The batch pipeline answers "what does the whole design space look
like?"; this package answers "what is the MTTDL of *this* configuration
at *these* parameters, right now?" at interactive latency, over plain
JSON-over-HTTP with nothing beyond the standard library.

The moving parts:

* :class:`~repro.serve.service.ReliabilityService` — the front door:
  TTL'd LRU result cache (keyed by the engine's stable config+params
  hash; the one result cache, in every topology), in-flight request
  coalescing, and admission control.
* :class:`~repro.serve.batcher.CoalescingBatcher` — the continuous
  batcher: concurrent in-flight points group by spec hash, bind in one
  :meth:`CompiledChain.bind_batch` pass and solve in one stacked GTH
  elimination, exactly the shape inference servers use.
* :class:`~repro.serve.http.HttpServer` — a stdlib-asyncio HTTP/1.1
  front end exposing ``/v1/evaluate``, ``/v1/sweep``, ``/healthz`` and
  ``/metricsz``.
* :mod:`repro.serve.shard` + ``ServeConfig(workers=N)`` — the sharded
  topology: N forked solver workers on :mod:`repro.runtime`, requests
  routed by spec hash so each worker owns its shard's compiled chains,
  with crash-restart and 503-retry semantics.
* :mod:`repro.serve.loadgen` — an open-loop load generator with
  realistic traffic shapes (diurnal, bursty, hot-key skew) reporting
  p50/p95/p99 latency and achieved throughput.

Every answer is bitwise identical to the corresponding direct
:func:`repro.evaluate` call; ``docs/serving.md`` documents the endpoint
schemas, the batching policy knobs and the overload semantics.
"""

from .batcher import CoalescingBatcher, Overloaded
from .http import HttpServer, run_server, serving
from .loadgen import LoadReport, RequestMix, TrafficShape, run_loadgen, shape_by_name
from .protocol import PointQuery, ProtocolError, SweepQuery
from .service import ReliabilityService, ServeConfig
from .shard import shard_index
from .ttl_cache import TTLCache

__all__ = [
    "CoalescingBatcher",
    "HttpServer",
    "LoadReport",
    "Overloaded",
    "PointQuery",
    "ProtocolError",
    "ReliabilityService",
    "RequestMix",
    "ServeConfig",
    "SweepQuery",
    "TTLCache",
    "TrafficShape",
    "run_loadgen",
    "run_server",
    "serving",
    "shape_by_name",
    "shard_index",
]
