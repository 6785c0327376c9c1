"""The reliability-query service: cache, coalescing, admission, sharding.

:class:`ReliabilityService` is the protocol-agnostic core behind the
HTTP front end (and behind in-process callers like the benchmark
harness).  A point query flows through the layers cheapest first:

1. the TTL'd LRU **result cache**, keyed by the engine's stable
   config+params hash — a hit costs a dict copy;
2. the **in-flight table** — a second request for a key already being
   solved awaits the first one's future instead of solving again;
3. the **coalescing batcher** — admitted points group by spec hash and
   solve as one stacked GTH elimination
   (:class:`~repro.serve.batcher.CoalescingBatcher`) on the runtime.

The first two layers are the same in every topology, so a repeated
point never reaches a queue.  With ``workers=N`` (N > 0) the service
runs the sharded topology: one
:class:`repro.runtime.topology.ProcessTopology` of N forked solver
workers, one batcher per shard, and every point routed by its spec hash
(:func:`repro.serve.shard.shard_index`) to the worker that owns its
chain family's compiled spec.  Workers that crash are restarted by the
runtime; requests in flight on the dead worker fail with
:class:`~repro.runtime.topology.WorkerCrashed`, which the HTTP layer
answers with ``503 Retry-After``.

Monte-Carlo points, availability profiles and axis sweeps do not batch
(their cost profile is different); they run on a single auxiliary worker
thread behind their own admission bound, so a burst of expensive
requests sheds with 429 instead of starving the chain solves.

Every answer is bitwise identical to the corresponding direct
:func:`repro.evaluate` call — the service only re-routes *where* the
same floats are computed, never *how*.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from .. import obs
from ..engine.sweep import SweepEngine
from ..models.availability import AvailabilityModel
from ..models.metrics import ReliabilityResult
from ..models.parameters import Parameters
from ..runtime.topology import ProcessTopology, ThreadTopology
from .batcher import CoalescingBatcher, Overloaded
from .protocol import AdviseQuery, PointQuery, SweepQuery, point_response
from .shard import shard_index
from .solvecore import make_state, solve_handler
from .ttl_cache import TTLCache

__all__ = ["ReliabilityService", "ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Every serving knob in one immutable bag.

    Attributes:
        host / port: bind address (port 0 picks an ephemeral port).
        max_batch_size: close a solve batch at this many points.
        max_wait_us: close a solve batch this many microseconds after its
            first point arrived — the latency traded for throughput.
        queue_depth: admission bound on queued (un-batched) points,
            per batcher (per shard in sharded mode); beyond it, requests
            shed with 429.
        retry_after_s: the ``Retry-After`` hint sent with a 429.
        cache_size: result-cache entry cap (0 disables caching); the
            one cache answers repeats in every topology.
        cache_ttl_s: result-cache entry lifetime (None = no expiry).
        aux_depth: admission bound on queued auxiliary work (Monte Carlo,
            availability profiles, sweeps, advise searches).
        advise_depth: additional admission bound on concurrent
            ``/v1/advise`` searches (they hold the aux lane much longer
            than a sweep, so they get a tighter gate inside
            ``aux_depth``).
        workers: shard worker processes.  0 (default) keeps the classic
            single-process topology (solver thread); N > 0 forks N
            workers and shards points across them by spec hash.
        deadline_margin_us: safety margin for deadline-aware batch
            closing (added to the solve-time EWMA).
        default_deadline_ms: deadline applied to points that do not
            carry their own ``deadline_ms`` (None = no deadline).
        live_metrics: windowed (1s/10s/60s) latency/SLO instruments on
            the serving path (the ``serve.live.*`` namespace).  Off, the
            service holds the no-op telemetry bundle and the request
            path pays nothing.
        slo_target: the availability objective the SLO tracker burns
            against (fraction of requests that must be good).
        trace_sample_rate: head-based per-request trace sampling
            probability (0 disables; a request body may still force a
            sample with ``"trace": true``).
        trace_sample_seed: seed of the sampling RNG — a replayed seeded
            load samples the same requests run over run.
        trace_sample_path: rotating JSONL file stitched sample trees are
            streamed to (defaults next to the CWD when sampling is on).
        flight_dir: directory flight-recorder postmortems dump into on
            WorkerCrashed / 5xx (None disables dumping; the in-memory
            ring still records when live telemetry is on).
        base_params: baseline :class:`Parameters` that request-level
            overrides apply to (the paper's Section 6 baseline when
            omitted).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch_size: int = 64
    max_wait_us: int = 2_000
    queue_depth: int = 1024
    retry_after_s: float = 1.0
    cache_size: int = 4096
    cache_ttl_s: Optional[float] = 300.0
    aux_depth: int = 8
    advise_depth: int = 2
    workers: int = 0
    deadline_margin_us: int = 500
    default_deadline_ms: Optional[float] = None
    live_metrics: bool = True
    slo_target: float = 0.99
    trace_sample_rate: float = 0.0
    trace_sample_seed: int = 0
    trace_sample_path: Optional[str] = None
    flight_dir: Optional[str] = None
    base_params: Optional[Parameters] = field(default=None, repr=False)

    def with_overrides(self, **changes: Any) -> "ServeConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


def _call_aux(state: None, fn) -> Any:
    """Aux-lane handler: run the offloaded callable."""
    return fn()


class ReliabilityService:
    """Answers validated reliability queries; owns cache + batcher(s).

    Use as an async context manager (or call :meth:`start` /
    :meth:`stop` explicitly) so the batcher's consumer task exists::

        service = ReliabilityService(ServeConfig())
        async with service:
            answers = await service.evaluate(queries)
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        metrics: Optional[obs.Metrics] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        if self.config.workers < 0:
            raise ValueError("workers must be >= 0")
        self.metrics = metrics if metrics is not None else obs.Metrics()
        self.base_params = (
            self.config.base_params
            if self.config.base_params is not None
            else Parameters.baseline()
        )
        self.cache = TTLCache(
            self.config.cache_size,
            self.config.cache_ttl_s,
            metrics=self.metrics,
        )
        sampling = self.config.trace_sample_rate > 0
        trace_path = self.config.trace_sample_path
        if sampling and trace_path is None:
            trace_path = "repro-serve-samples.jsonl"
        if (
            self.config.live_metrics
            or sampling
            or trace_path is not None
            or self.config.flight_dir is not None
        ):
            self.live: Any = obs.LiveTelemetry(
                self.metrics,
                windowed=self.config.live_metrics,
                slo_target=self.config.slo_target,
                sample_rate=self.config.trace_sample_rate,
                sample_seed=self.config.trace_sample_seed,
                trace_path=trace_path,
                flight_dir=self.config.flight_dir,
            )
        else:
            self.live = obs.NULL_LIVE
        self.topology: Optional[ProcessTopology] = None
        if self.config.workers > 0:
            self.topology = ProcessTopology(
                solve_handler,
                size=self.config.workers,
                worker_state=functools.partial(make_state, True),
                restart=True,
                metrics=self.metrics,
                on_crash=(
                    self.live.on_worker_crash if self.live.enabled else None
                ),
                name="repro-serve-shard",
            )
            self.batchers = [
                self._make_batcher(runtime=self.topology, shard=i)
                for i in range(self.config.workers)
            ]
        else:
            self.batchers = [self._make_batcher(runtime=None, shard=None)]
        # Compatibility alias: the single-process batcher (shard 0's in
        # sharded mode).
        self.batcher = self.batchers[0]
        # One aux worker: sweeps and Monte-Carlo runs share the engine's
        # solve context, which is not re-entrant across threads.
        self._aux = ThreadTopology(_call_aux, size=1, name="repro-serve-aux")
        self._aux_pending = 0
        self._aux_inflight = 0
        self._advise_pending = 0
        self._engine = SweepEngine(base_params=self.base_params)
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._coalesced = self.metrics.counter("serve.inflight.coalesced")
        self._aux_gauge = self.metrics.gauge("serve.aux.pending")
        self._aux_inflight_gauge = self.metrics.gauge("serve.aux.inflight")
        self._aux_queued_gauge = self.metrics.gauge("serve.aux.queued")
        self._aux_shed = self.metrics.counter("serve.aux.shed")
        self._advise_gauge = self.metrics.gauge("serve.advise.pending")
        self._advise_shed = self.metrics.counter("serve.advise.shed")
        self._eval_requests = self.metrics.counter("serve.requests.evaluate")
        self._sweep_requests = self.metrics.counter("serve.requests.sweep")
        self._advise_requests = self.metrics.counter("serve.requests.advise")
        self.started_unix = time.time()
        self.draining = False

    def _make_batcher(
        self, runtime, shard: Optional[int]
    ) -> CoalescingBatcher:
        return CoalescingBatcher(
            max_batch_size=self.config.max_batch_size,
            max_wait_us=self.config.max_wait_us,
            queue_depth=self.config.queue_depth,
            retry_after_s=self.config.retry_after_s,
            metrics=self.metrics,
            runtime=runtime,
            shard=shard,
            deadline_margin_us=self.config.deadline_margin_us,
            live=self.live,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the topology and batcher(s) on the running event loop."""
        if self.topology is not None:
            self.topology.start()
        self._aux.start()
        for batcher in self.batchers:
            batcher.start()

    async def stop(self) -> None:
        """Drain: answer everything admitted, then stop the workers."""
        self.draining = True
        for batcher in self.batchers:
            await batcher.stop()
        if self.topology is not None:
            # Joining worker processes blocks; keep it off the loop.
            await asyncio.get_running_loop().run_in_executor(
                None, self.topology.stop
            )
        self._aux.stop(drain=True)

    async def __aenter__(self) -> "ReliabilityService":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # point evaluation
    # ------------------------------------------------------------------ #

    async def evaluate(
        self,
        queries: List[PointQuery],
        trace_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Answer every query (concurrently); raises on any failure.

        Args:
            trace_id: the sampled-request trace id (propagated to every
                point of the request), or None when not sampled.

        Raises:
            Overloaded: at least one point was shed and none failed for a
                worse reason — the whole request is retryable.
        """
        self._eval_requests.inc()
        if len(queries) == 1:
            return [await self.answer_point(queries[0], trace_id=trace_id)]
        outcomes = await asyncio.gather(
            *(self.answer_point(q, trace_id=trace_id) for q in queries),
            return_exceptions=True,
        )
        overloaded: Optional[Overloaded] = None
        for outcome in outcomes:
            if isinstance(outcome, Overloaded):
                overloaded = overloaded or outcome
            elif isinstance(outcome, BaseException):
                raise outcome
        if overloaded is not None:
            raise overloaded
        return outcomes  # type: ignore[return-value]

    async def answer_point(
        self, query: PointQuery, trace_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """The JSON-ready answer for one point (cache → in-flight →
        batcher), raising :class:`Overloaded` when shed."""
        key = query.cache_key()
        hit = self.cache.get(key)
        if hit is not None:
            out = dict(hit)
            out["cached"] = True
            return out
        inflight = self._inflight.get(key)
        if inflight is not None:
            self._coalesced.inc()
            return dict(await asyncio.shield(inflight))
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[key] = future
        try:
            response = await self._compute_point(query, trace_id)
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # consumed: no zero-waiter warning
            raise
        else:
            future.set_result(response)
            self.cache.put(key, response)
            return dict(response)
        finally:
            self._inflight.pop(key, None)

    def _route(self, query: PointQuery) -> CoalescingBatcher:
        """The batcher owning this query's shard (trivial when unsharded)."""
        if len(self.batchers) == 1:
            return self.batchers[0]
        return self.batchers[
            shard_index(query.config.key, query.method, len(self.batchers))
        ]

    async def _compute_point(
        self, query: PointQuery, trace_id: Optional[str] = None
    ) -> Dict[str, Any]:
        if query.method == "monte_carlo":
            result = await self._offload(lambda: self._monte_carlo(query))
        else:
            deadline_ms = (
                query.deadline_ms
                if query.deadline_ms is not None
                else self.config.default_deadline_ms
            )
            mttdl = await self._route(query).submit(
                query.config,
                query.params,
                query.method,
                query.options,
                deadline_s=(
                    deadline_ms / 1e3 if deadline_ms is not None else None
                ),
                trace_id=trace_id,
            )
            result = ReliabilityResult.from_mttdl(mttdl, query.params)
        availability = None
        if query.recovery_hours is not None:
            availability = await self._offload(
                lambda: self._availability(query)
            )
        return point_response(
            query, result, cached=False, availability=availability
        )

    def _monte_carlo(self, query: PointQuery) -> ReliabilityResult:
        from ..core.solvers import SolveOptions
        from ..engine.facade import evaluate

        with obs.span(
            "serve.monte_carlo",
            config=query.config.key,
            replicas=query.replicas,
        ):
            return evaluate(
                query.config,
                query.params,
                options=SolveOptions(backend="monte_carlo"),
                replicas=query.replicas,
                seed=query.seed,
            )

    def _availability(self, query: PointQuery) -> Dict[str, float]:
        with obs.span("serve.availability", config=query.config.key):
            profile = AvailabilityModel(
                query.config, query.params, query.recovery_hours
            ).evaluate()
        return {
            "recovery_hours": query.recovery_hours,
            "fully_operational_fraction": profile.fully_operational_fraction,
            "degraded_fraction": profile.degraded_fraction,
            "post_loss_fraction": profile.post_loss_fraction,
            "degraded_hours_per_year": profile.degraded_hours_per_year,
        }

    # ------------------------------------------------------------------ #
    # sweeps
    # ------------------------------------------------------------------ #

    async def sweep(self, query: SweepQuery) -> Dict[str, Any]:
        """Answer one axis sweep through :class:`SweepEngine`, x-major."""
        self._sweep_requests.inc()
        pairs = [
            (config, params)
            for params in query.params
            for config in query.configs
        ]

        def run() -> Any:
            with obs.span(
                "serve.sweep",
                axis=query.axis_name,
                configs=len(query.configs),
                values=len(query.values),
            ):
                return self._engine.evaluate_many(pairs, method=query.method)

        results = await self._offload(run)
        by_config: Dict[str, Dict[str, List[float]]] = {}
        for (config, _), result in zip(pairs, results):
            entry = by_config.setdefault(
                config.key,
                {"mttdl_hours": [], "events_per_pb_year": []},
            )
            entry["mttdl_hours"].append(result.mttdl_hours)
            entry["events_per_pb_year"].append(result.events_per_pb_year)
        return {
            "axis": query.axis_name,
            "values": list(query.values),
            "method": query.method,
            "series": [
                {"config": key, **series} for key, series in by_config.items()
            ],
        }

    # ------------------------------------------------------------------ #
    # advise searches
    # ------------------------------------------------------------------ #

    async def advise(self, query: AdviseQuery) -> Dict[str, Any]:
        """Answer one design-space search (see :mod:`repro.advise`).

        Searches run on the aux lane behind a second, tighter admission
        gate (``advise_depth`` inside ``aux_depth``): a long search must
        not starve the cheap aux work, and a burst of searches sheds
        with 429 instead of queueing for minutes.  The shared engine's
        compiled-spec memo persists across searches, so repeat searches
        over the same chain families bind rather than rebuild.
        """
        self._advise_requests.inc()
        if self._advise_pending >= self.config.advise_depth:
            self._advise_shed.inc()
            raise Overloaded(self.config.retry_after_s)
        request = query.request

        def run() -> Any:
            from ..advise import advise as run_advise

            with obs.span(
                "serve.advise",
                candidates=request.space.size(),
                seed=request.seed,
            ):
                return run_advise(
                    request,
                    base_params=self.base_params,
                    engine=self._engine,
                )

        self._advise_pending += 1
        self._advise_gauge.set(self._advise_pending)
        try:
            result = await self._offload(run)
        finally:
            self._advise_pending -= 1
            self._advise_gauge.set(self._advise_pending)
        return result.to_dict()

    # ------------------------------------------------------------------ #
    # auxiliary work (single worker thread, bounded backlog)
    # ------------------------------------------------------------------ #

    async def _offload(self, fn) -> Any:
        if self.draining or self._aux_pending >= self.config.aux_depth:
            self._aux_shed.inc()
            raise Overloaded(self.config.retry_after_s)

        def tracked() -> Any:
            # Runs on the aux worker thread; the GIL makes the int
            # bumps safe and the gauges tolerate cross-thread sets.
            self._aux_inflight += 1
            self._aux_inflight_gauge.set(self._aux_inflight)
            self._aux_queued_gauge.set(
                max(0, self._aux_pending - self._aux_inflight)
            )
            try:
                return fn()
            finally:
                self._aux_inflight -= 1
                self._aux_inflight_gauge.set(self._aux_inflight)

        self._aux_pending += 1
        self._aux_gauge.set(self._aux_pending)
        self._aux_queued_gauge.set(
            max(0, self._aux_pending - self._aux_inflight)
        )
        try:
            return await self._aux.asubmit(tracked)
        finally:
            self._aux_pending -= 1
            self._aux_gauge.set(self._aux_pending)
            self._aux_queued_gauge.set(
                max(0, self._aux_pending - self._aux_inflight)
            )

    # ------------------------------------------------------------------ #
    # introspection endpoints
    # ------------------------------------------------------------------ #

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload."""
        from .. import __version__

        payload = {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "uptime_s": round(time.time() - self.started_unix, 3),
            "queue_depth": sum(b.depth for b in self.batchers),
            "inflight": len(self._inflight),
            "cache_entries": len(self.cache),
        }
        payload["aux"] = {
            "depth": self.config.aux_depth,
            "pending": self._aux_pending,
            "inflight": self._aux_inflight,
            "queued": max(0, self._aux_pending - self._aux_inflight),
            "shed": int(self._aux_shed.value),
            "advise": {
                "depth": self.config.advise_depth,
                "pending": self._advise_pending,
                "shed": int(self._advise_shed.value),
            },
        }
        payload.update(self.live.health())
        if self.topology is not None:
            payload["workers"] = [
                {
                    "index": info.index,
                    "pid": info.pid,
                    "alive": info.alive,
                    "restarts": info.restarts,
                    "restart_count": info.restarts,
                    "last_crash": info.last_crash,
                    "pending": info.pending,
                }
                for info in self.topology.health()
            ]
        return payload

    def metrics_registry(self) -> obs.Metrics:
        """The service registry folded with the process-global one (the
        live registry behind both ``/metricsz`` forms)."""
        return obs.Metrics.merged([obs.GLOBAL_METRICS, self.metrics])

    def metricsz(self) -> Dict[str, Any]:
        """The ``/metricsz`` payload: the service registry folded with
        the process-global one, in flat ``metrics.json`` form."""
        return self.metrics_registry().to_dict()
