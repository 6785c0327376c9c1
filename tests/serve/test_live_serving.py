"""Live-telemetry serving integration: SLO in /healthz, prom exposition,
cross-shard trace stitching, the flight recorder, and repro-top.

Everything here runs over real sockets against the real server, the
same way the smoke harness and CI drills do.
"""

import asyncio
import glob
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from repro.obs import export
from repro.obs.metrics import Metrics
from repro.runtime import faultpoints
from repro.serve import ServeConfig, serving
from repro.serve import top

pytestmark = pytest.mark.serve


async def _request(host, port, method, path, body=None):
    """One HTTP exchange; returns (status, headers, raw body bytes)."""
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head + payload)
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body_blob


async def _json_request(host, port, method, path, body=None):
    status, headers, blob = await _request(host, port, method, path, body)
    return status, headers, json.loads(blob) if blob else None


def _run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------- #
# /healthz: SLO, identity, worker provenance
# --------------------------------------------------------------------- #


def test_healthz_carries_slo_and_identity():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            host, port = server.host, server.port
            for _ in range(3):
                status, _, _ = await _json_request(
                    host, port, "POST", "/v1/evaluate", {"config": "ft1_raid5"}
                )
                assert status == 200
            status, _, health = await _json_request(
                host, port, "GET", "/healthz"
            )
            return status, health

    status, health = _run(drive())
    assert status == 200
    import repro

    assert health["version"] == repro.__version__
    assert health["uptime_s"] >= 0
    slo = health["slo"]
    assert slo["target"] == 0.99
    window = slo["windows"]["60s"]
    assert window["good"] == 3
    assert window["bad"] == 0
    assert window["burn_rate"] == 0.0
    # Sampling and flight recorder are unconfigured, so their health
    # blocks stay out of the payload.
    assert "trace_sampling" not in health
    assert "flight_recorder" not in health


def test_healthz_worker_fields_sharded():
    async def drive():
        async with serving(ServeConfig(port=0, workers=2)) as server:
            status, _, health = await _json_request(
                server.host, server.port, "GET", "/healthz"
            )
            return status, health

    status, health = _run(drive())
    assert status == 200
    workers = health["workers"]
    assert len(workers) == 2
    for w in workers:
        assert w["alive"] is True
        assert w["restart_count"] == 0
        assert w["last_crash"] is None


def test_healthz_slo_absent_when_live_disabled():
    async def drive():
        async with serving(
            ServeConfig(port=0, live_metrics=False)
        ) as server:
            _, _, health = await _json_request(
                server.host, server.port, "GET", "/healthz"
            )
            _, _, metrics = await _json_request(
                server.host, server.port, "GET", "/metricsz"
            )
            return health, metrics

    health, metrics = _run(drive())
    assert "slo" not in health
    assert not any(k.startswith("serve.live.") for k in metrics)


# --------------------------------------------------------------------- #
# /metricsz?format=prom
# --------------------------------------------------------------------- #


def test_metricsz_prom_exposition():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            host, port = server.host, server.port
            await _json_request(
                host, port, "POST", "/v1/evaluate", {"config": "ft1_raid5"}
            )
            return await _request(
                host, port, "GET", "/metricsz?format=prom"
            )

    status, headers, blob = _run(drive())
    assert status == 200
    assert headers["content-type"] == export.PROM_CONTENT_TYPE
    text = blob.decode("utf-8")
    families = export.validate_prom_text(text)
    assert "repro_serve_http_requests" in families
    assert "repro_serve_live_request_s" in text


def test_metricsz_unknown_format_is_400():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            return await _json_request(
                server.host, server.port, "GET", "/metricsz?format=bogus"
            )

    status, _, body = _run(drive())
    assert status == 400
    assert "format" in body["error"]


def test_metricsz_json_unchanged_by_query_machinery():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            plain = await _json_request(
                server.host, server.port, "GET", "/metricsz"
            )
            explicit = await _json_request(
                server.host, server.port, "GET", "/metricsz?format=json"
            )
            return plain, explicit

    (s1, _, flat), (s2, _, flat2) = _run(drive())
    assert (s1, s2) == (200, 200)
    assert "serve.http.requests" in flat
    assert "serve.http.requests" in flat2


# --------------------------------------------------------------------- #
# trace sampling: one stitched tree across the shard pipe
# --------------------------------------------------------------------- #


def test_forced_trace_stitches_across_shards(tmp_path):
    trace_path = str(tmp_path / "samples.jsonl")

    async def drive():
        async with serving(
            ServeConfig(port=0, workers=2, trace_sample_path=trace_path)
        ) as server:
            host, port = server.host, server.port
            body = {
                "points": [
                    {"config": "ft1_raid5", "trace": True},
                    {"config": "ft2_raid6", "trace": True},
                ]
            }
            return await _json_request(host, port, "POST", "/v1/evaluate", body)

    status, headers, answer = _run(drive())
    assert status == 200
    trace_id = headers.get("x-repro-trace-id")
    assert trace_id
    assert len(answer["results"]) == 2

    spans = export.validate_trace(trace_path)
    roots = [s for s in spans if s.get("parent_id") is None]
    assert len(roots) == 1
    assert roots[0]["name"] == "serve.request"
    assert roots[0]["attrs"]["trace_id"] == trace_id
    # The tree genuinely crossed the worker pipe: spans from more than
    # one process, and the solve actually shows up under the request.
    assert len({s["pid"] for s in spans}) >= 2
    names = {s["name"] for s in spans}
    assert any("solve" in n for n in names)


def test_unsampled_request_has_no_trace_header(tmp_path):
    async def drive():
        async with serving(
            ServeConfig(
                port=0, trace_sample_path=str(tmp_path / "s.jsonl")
            )
        ) as server:
            return await _json_request(
                server.host,
                server.port,
                "POST",
                "/v1/evaluate",
                {"config": "ft1_raid5"},
            )

    status, headers, _ = _run(drive())
    assert status == 200
    assert "x-repro-trace-id" not in headers


# --------------------------------------------------------------------- #
# flight recorder: crash drill leaves a usable postmortem
# --------------------------------------------------------------------- #


def test_crash_drill_dumps_flight_recorder(tmp_path):
    flight_dir = str(tmp_path / "flight")
    trigger = tmp_path / "crash.trigger"

    def kill_if_armed(shard=None, **_kwargs):
        if os.path.exists(str(trigger)):
            os._exit(17)

    async def drive():
        async with serving(
            ServeConfig(port=0, workers=1, flight_dir=flight_dir)
        ) as server:
            host, port = server.host, server.port
            body = {"config": "ft2_raid5"}
            status, _, _ = await _json_request(
                host, port, "POST", "/v1/evaluate", body
            )
            assert status == 200
            trigger.write_text("armed")
            # A new point: a repeat would answer from the result cache
            # without reaching the worker.
            status, _, error = await _json_request(
                host, port, "POST", "/v1/evaluate", {"config": "ft3_raid5"}
            )
            trigger.unlink()
            return status, error

    with faultpoints.injected(
        faultpoints.SERVE_WORKER_CRASH, kill_if_armed
    ):
        status, error = _run(drive())
    assert status == 503
    assert "worker" in error["error"].lower()

    dumps = glob.glob(os.path.join(flight_dir, "flight-*http-503*.json"))
    assert len(dumps) == 1
    with open(dumps[0], encoding="utf-8") as fh:
        dump = json.load(fh)
    assert dump["reason"] == "http-503"
    requests = [r for r in dump["records"] if r["kind"] == "request"]
    # The last request the recorder saw is the one that observed the 503.
    assert requests[-1]["status"] == 503
    assert requests[0]["status"] == 200
    # The worker crash left its own dump too (independent throttle).
    assert glob.glob(os.path.join(flight_dir, "flight-*worker-crash*"))


# --------------------------------------------------------------------- #
# repro-top
# --------------------------------------------------------------------- #


def test_top_render_from_canned_payloads():
    metrics = Metrics()
    win = metrics.windowed("serve.live.request_s")
    for _ in range(20):
        win.observe(0.004)
    metrics.counter("serve.cache.hits").inc(30)
    metrics.counter("serve.cache.misses").inc(10)
    health = {
        "version": "1.2.3",
        "uptime_s": 42.0,
        "status": "ok",
        "slo": {
            "target": 0.99,
            "windows": {
                "1s": {"good": 0, "bad": 0, "burn_rate": 0.0},
                "10s": {"good": 20, "bad": 0, "burn_rate": 0.0},
                "60s": {"good": 20, "bad": 0, "burn_rate": 0.0},
            },
        },
        "trace_sampling": {
            "rate": 0.01,
            "pending": 0,
            "dropped": 0,
            "written": 3,
        },
        "flight_recorder": {"directory": None, "capacity": 256, "dumps": 0},
        "workers": [
            {
                "index": 0,
                "pid": 123,
                "alive": True,
                "restart_count": 1,
                "last_crash": 1000.0,
                "pending": 0,
            }
        ],
    }
    frame = top.render(metrics.to_dict(), health, window="10s")
    assert "repro-top" in frame
    assert "1.2.3" in frame
    assert "slo" in frame.lower()
    assert "shard" not in frame or "workers" in frame.lower()


def test_top_once_against_live_server():
    async def drive():
        async with serving(ServeConfig(port=0)) as server:
            host, port = server.host, server.port
            await _json_request(
                host, port, "POST", "/v1/evaluate", {"config": "ft1_raid5"}
            )
            loop = asyncio.get_running_loop()

            def once():
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = top.main(
                        ["--url", f"http://{host}:{port}", "--once"]
                    )
                return code, buf.getvalue()

            return await loop.run_in_executor(None, once)

    code, frame = _run(drive())
    assert code == 0
    assert "repro-top" in frame
    assert "requests" in frame
