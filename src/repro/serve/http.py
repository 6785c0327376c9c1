"""The stdlib-asyncio HTTP/1.1 front end.

A deliberately small server: JSON request bodies in, JSON responses out,
keep-alive connections, bounded header/body sizes, and nothing beyond
``asyncio.start_server``.  Routes::

    POST /v1/evaluate   single- or multi-point reliability queries
    POST /v1/sweep      one-axis sweeps over many configurations
    POST /v1/advise     design-space Pareto searches (the aux lane)
    GET  /healthz       liveness, SLO burn, queue/cache/worker/aux state
    GET  /metricsz      the flat metrics snapshot (serve.* + globals);
                        ``?format=prom`` switches to Prometheus text
                        exposition

Error mapping is uniform: a body that fails validation is a ``400`` with
the reason, an unknown path is ``404``, a wrong method ``405``, an
oversized body ``413``, admission-control shedding is ``429`` with a
``Retry-After`` header, and anything unexpected is a ``500`` (counted in
``serve.http.responses.5xx`` — the serve-smoke CI job asserts this stays
zero).

Graceful drain: on SIGTERM/SIGINT the listener closes (no new
connections), in-flight requests finish, the batcher solves everything
already admitted, and the process exits.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qsl

from .. import obs
from ..runtime.topology import WorkerCrashed
from .batcher import Overloaded
from .protocol import (
    ProtocolError,
    parse_advise_body,
    parse_evaluate_body,
    parse_sweep_body,
)
from .service import ReliabilityService, ServeConfig

__all__ = ["HttpServer", "run_server", "serving"]

logger = logging.getLogger("repro.serve.http")

#: Bounds on what a request may look like; beyond them the connection is
#: answered with an error and closed rather than buffered.
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_BYTES = 16 << 10
MAX_HEADER_COUNT = 64

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Request:
    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive")

    def __init__(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        query: Optional[Dict[str, str]] = None,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query if query is not None else {}
        self.headers = headers
        self.body = body
        self.keep_alive = headers.get("connection", "").lower() != "close"


class _BadRequest(Exception):
    """A connection-level HTTP parse failure (status carried along)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _NonFinite(str):
    """A parsed ``NaN``/``Infinity`` literal, kept to name its field."""


def _non_finite_field(value: Any, path: str) -> Optional[str]:
    """``"<path>: the JSON literal <literal>"`` for the first
    :class:`_NonFinite` in a parsed body, or None."""
    if isinstance(value, _NonFinite):
        return f"{path}: the JSON literal {value}"
    if isinstance(value, (dict, list)):
        keyed = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in keyed:
            step = f".{key}" if isinstance(value, dict) else f"[{key}]"
            found = _non_finite_field(child, path + step)
            if found is not None:
                return found
    return None


class HttpServer:
    """Serves one :class:`ReliabilityService` over HTTP.

    Args:
        service: the query service (started/stopped by this server).
        host / port: bind address; port 0 binds an ephemeral port, with
            the chosen one readable from :attr:`port` after
            :meth:`start`.
    """

    def __init__(
        self,
        service: ReliabilityService,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        self.service = service
        self.host = host if host is not None else service.config.host
        self.port = port if port is not None else service.config.port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        metrics = service.metrics
        self._requests = metrics.counter("serve.http.requests")
        self._latency = metrics.histogram("serve.http.latency_s")
        self._classes = {
            c: metrics.counter(f"serve.http.responses.{c}")
            for c in ("2xx", "4xx", "429", "5xx")
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listener and start the service's batcher."""
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: close the listener, finish in-flight
        requests, drain the batcher."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            await asyncio.gather(
                *tuple(self._connections), return_exceptions=True
            )
        await self.service.stop()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._write_response(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                    break
                if request is None:
                    break
                status, payload, headers = await self._dispatch(request)
                keep = request.keep_alive and self.service.draining is False
                await self._write_response(
                    writer, status, payload, close=not keep, headers=headers
                )
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        start_line = await reader.readline()
        if not start_line:
            return None
        try:
            method, path, version = (
                start_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _BadRequest(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise _BadRequest(400, f"unsupported protocol {version!r}")
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > MAX_HEADER_BYTES or len(headers) > MAX_HEADER_COUNT:
                raise _BadRequest(400, "header section too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(400, f"malformed header {name.strip()!r}")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            n = int(length)
        except ValueError:
            raise _BadRequest(400, "malformed Content-Length") from None
        if n < 0:
            raise _BadRequest(400, "malformed Content-Length")
        if n > MAX_BODY_BYTES:
            raise _BadRequest(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(n) if n else b""
        route, _, raw_query = path.partition("?")
        query = dict(parse_qsl(raw_query)) if raw_query else {}
        return _Request(method.upper(), route, headers, body, query)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    async def _dispatch(
        self, request: _Request
    ) -> Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]:
        self._requests.inc()
        t0 = time.monotonic()
        unix0 = time.time()
        headers: Dict[str, str] = {}
        points = 0
        # Filled in by _evaluate when the request is sampled / carries a
        # deadline; consumed after the wall-clock is known.
        req_info: Dict[str, Any] = {}
        payload: Union[Dict[str, Any], str]
        try:
            if request.path == "/healthz":
                status, payload = self._get_only(
                    request, lambda: self.service.health()
                )
            elif request.path == "/metricsz":
                status, payload = self._metricsz(request, headers)
            elif request.path == "/v1/evaluate":
                status, payload, points = await self._evaluate(
                    request, req_info
                )
            elif request.path == "/v1/sweep":
                status, payload, points = await self._sweep(request)
            elif request.path == "/v1/advise":
                status, payload, points = await self._advise(request)
            else:
                status, payload = 404, {"error": f"no route {request.path}"}
        except ProtocolError as exc:
            status, payload = 400, {"error": str(exc)}
        except Overloaded as exc:
            status = 429
            retry = max(1, round(exc.retry_after_s))
            headers["Retry-After"] = str(retry)
            payload = {
                "error": str(exc),
                "retry_after_s": exc.retry_after_s,
            }
        except WorkerCrashed as exc:
            # A shard worker died with this request in flight; the
            # runtime is already restarting it — the request is cleanly
            # retryable, so answer 503 + Retry-After rather than 500.
            logger.warning("shard worker crashed serving %s: %s", request.path, exc)
            status = 503
            retry = max(1, round(self.service.config.retry_after_s))
            headers["Retry-After"] = str(retry)
            payload = {
                "error": f"shard worker crashed; retry: {exc}",
                "retry_after_s": self.service.config.retry_after_s,
            }
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            logger.exception("unhandled error serving %s", request.path)
            status, payload = 500, {"error": f"internal error: {exc}"}
        wall = time.monotonic() - t0
        self._latency.observe(wall)
        self._classes[
            "429"
            if status == 429
            else f"{status // 100}xx"
            if status // 100 in (2, 4, 5)
            else "5xx"
        ].inc()
        live = self.service.live
        trace_id = req_info.get("trace_id")
        if live.enabled and request.path.startswith("/v1/"):
            # Record first, dump second: when a crash bubbles up as a
            # 503 the flight dump's last "request" entry must be the
            # request that observed it.
            live.record_request(
                status,
                wall,
                req_info.get("deadline_ms"),
                method=request.method,
                path=request.path,
                detail=req_info.get("detail"),
                trace_id=trace_id,
            )
            if status >= 500:
                live.dump_flight(f"http-{status}")
        if trace_id is not None:
            headers["X-Repro-Trace-Id"] = trace_id
            live.finish_trace(
                trace_id,
                obs.synth_span(
                    "serve.request",
                    unix0,
                    wall,
                    method=request.method,
                    path=request.path,
                    status=status,
                    points=points,
                ),
            )
        if obs.tracing_active():
            obs.adopt_spans(
                [
                    obs.synth_span(
                        "serve.request",
                        unix0,
                        wall,
                        method=request.method,
                        path=request.path,
                        status=status,
                        points=points,
                    )
                ]
            )
        return status, payload, headers

    @staticmethod
    def _get_only(request: _Request, fn) -> Tuple[int, Dict[str, Any]]:
        if request.method not in ("GET", "HEAD"):
            return 405, {"error": f"{request.path} accepts GET"}
        return 200, fn()

    def _metricsz(
        self, request: _Request, headers: Dict[str, str]
    ) -> Tuple[int, Union[Dict[str, Any], str]]:
        """``/metricsz``: the flat JSON snapshot, or Prometheus text
        exposition with ``?format=prom``."""
        if request.method not in ("GET", "HEAD"):
            return 405, {"error": f"{request.path} accepts GET"}
        fmt = request.query.get("format", "json")
        if fmt == "prom":
            text = obs.render_prom(self.service.metrics_registry())
            headers["Content-Type"] = obs.PROM_CONTENT_TYPE
            return 200, text
        if fmt != "json":
            return 400, {"error": f'unknown metrics format {fmt!r}'}
        return 200, self.service.metricsz()

    def _parse_json(self, request: _Request) -> Any:
        if request.method != "POST":
            raise ProtocolError(f"{request.path} accepts POST")
        try:
            text = request.body.decode("utf-8") or "null"
            body = json.loads(text, parse_constant=_NonFinite)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"body is not valid JSON: {exc}") from None
        # Python's parser accepts NaN/Infinity; JSON and every field
        # refuse them.  Only a body spelling one can hold a marker.
        if "NaN" in text or "Infinity" in text:
            literal = _non_finite_field(body, "body")
            if literal is not None:
                raise ProtocolError(f"{literal} is not a finite number")
        return body

    async def _evaluate(
        self, request: _Request, req_info: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any], int]:
        body = self._parse_json(request)
        with obs.span("serve.parse", path=request.path):
            queries = parse_evaluate_body(body, self.service.base_params)
        # Head-based sampling decision, made once per request before any
        # work is queued: the trace id rides every point of the request
        # through the batcher (and the shard pipe, in sharded mode) so
        # the worker ships its spans back for stitching.
        trace_id = self.service.live.sample(
            force=any(q.trace for q in queries)
        )
        if trace_id is not None:
            req_info["trace_id"] = trace_id
        default_deadline = self.service.config.default_deadline_ms
        deadlines = [
            q.deadline_ms if q.deadline_ms is not None else default_deadline
            for q in queries
        ]
        known = [d for d in deadlines if d is not None]
        if known:
            req_info["deadline_ms"] = min(known)
        req_info["detail"] = {
            "configs": sorted({q.config.key for q in queries})
        }
        answers = await self.service.evaluate(queries, trace_id=trace_id)
        with obs.span("serve.serialize", points=len(answers)):
            if isinstance(body, dict) and "points" in body:
                payload: Dict[str, Any] = {"results": answers}
            else:
                payload = answers[0]
        return 200, payload, len(queries)

    async def _sweep(
        self, request: _Request
    ) -> Tuple[int, Dict[str, Any], int]:
        body = self._parse_json(request)
        with obs.span("serve.parse", path=request.path):
            query = parse_sweep_body(body, self.service.base_params)
        payload = await self.service.sweep(query)
        return 200, payload, len(query.values) * len(query.configs)

    async def _advise(
        self, request: _Request
    ) -> Tuple[int, Dict[str, Any], int]:
        body = self._parse_json(request)
        with obs.span("serve.parse", path=request.path):
            query = parse_advise_body(body, self.service.base_params)
        payload = await self.service.advise(query)
        return 200, payload, query.request.space.size()

    # ------------------------------------------------------------------ #
    # response writing
    # ------------------------------------------------------------------ #

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], str],
        *,
        close: bool,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        extra = dict(headers or {})
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = extra.pop(
                "Content-Type", "text/plain; charset=utf-8"
            )
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = extra.pop("Content-Type", "application/json")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in extra.items():
            lines.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()


class serving:
    """Async context manager: a started server on an ephemeral port.

    The in-process harness used by tests, the smoke check and the
    benchmark::

        async with serving(ServeConfig(port=0)) as server:
            ... talk to ("127.0.0.1", server.port) ...
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig(port=0)
        self.service = ReliabilityService(self.config)
        self.server = HttpServer(self.service)

    async def __aenter__(self) -> HttpServer:
        await self.server.start()
        return self.server

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.server.stop()


async def run_server(
    config: Optional[ServeConfig] = None,
    *,
    shutdown: Optional[asyncio.Event] = None,
    ready=None,
) -> None:
    """Run a server until ``shutdown`` is set (or SIGTERM/SIGINT).

    Args:
        config: serving knobs (defaults throughout when omitted).
        shutdown: external stop signal; one is created (and wired to
            SIGTERM/SIGINT when the platform allows) when omitted.
        ready: optional callback invoked with the started
            :class:`HttpServer` once the port is bound.
    """
    service = ReliabilityService(config)
    server = HttpServer(service)
    stop = shutdown if shutdown is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    if shutdown is None:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    await server.start()
    try:
        if ready is not None:
            ready(server)
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.stop()
