"""The serve smoke check (CI's ``serve-smoke`` / ``serve-shard-smoke`` jobs).

``python -m repro.serve.smoke`` starts ``repro-serve`` on an ephemeral
port with tracing enabled, drives it with the open-loop load generator
for a few seconds at a gentle rate, drains the server, and then asserts
the things that must hold for the service to be considered alive:

* zero 5xx responses and zero transport errors;
* the solve-batch-size histogram recorded at least one batch (the
  coalescing pipeline actually ran);
* every HTTP span count reconciles with the loadgen's request log;
* the emitted JSONL trace passes :func:`repro.obs.validate_trace` and
  contains the ``serve.request`` / ``serve.batch`` span taxonomy.

With ``--workers N`` the server runs the sharded multi-process topology
and the check additionally asserts that every shard solved at least one
batch (its ``serve.shard.<i>.batch.size`` histogram is non-empty) and
that no shard worker crashed or restarted during the run.  ``--shape``
selects a loadgen traffic shape (``uniform`` / ``diurnal`` / ``bursty``
/ ``hotkey``).

Live-telemetry coverage rides along: every run scrapes
``/metricsz?format=prom`` from the live server and lints the exposition,
and runs ``repro-top --once`` against it.  ``--sample-rate R`` turns on
head-based trace sampling and asserts at least one stitched span tree
was written and validates.  ``--crash-drill`` (sharded only) arms the
worker-crash faultpoint mid-run, asserts the clean 503, the restart,
and that the flight recorder left a dump whose last recorded request is
the one that observed the 503 — the dump directory is the CI artifact.

``--advise`` additionally POSTs a seeded design-space search to
``/v1/advise`` while the loadgen traffic is draining and asserts the
frontier it returns: non-empty, mutually non-dominated, and with a
reliability bitwise-equal to a direct ``repro.evaluate`` of the same
point (the serving layer must not perturb the numbers).

Exit status 0 means all checks passed; the trace and metrics files are
left behind as CI artifacts.
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import io
import json
import os
import sys
from contextlib import redirect_stdout
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..engine import evaluate
from ..models import Configuration, Parameters
from ..runtime import faultpoints
from . import top
from .http import serving
from .loadgen import LoadReport, TrafficShape, run_loadgen, shape_by_name
from .service import ServeConfig

__all__ = ["main", "run_smoke"]


async def _raw_get(host: str, port: int, target: str) -> Tuple[int, str, bytes]:
    """One GET over a raw socket: (status, content-type, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        (
            f"GET {target} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split()[1])
    ctype = ""
    for line in head_lines[1:]:
        if line.lower().startswith("content-type:"):
            ctype = line.split(":", 1)[1].strip()
    return status, ctype, body


async def _raw_post(
    host: str, port: int, path: str, body: Dict[str, Any]
) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode("utf-8")
    writer.write(
        (
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")
        + payload
    )
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, resp = raw.partition(b"\r\n\r\n")
    return int(head.decode("latin-1").split("\r\n")[0].split()[1]), resp


async def _run_crash_drill(
    host: str, port: int, trigger: str
) -> Tuple[int, int]:
    """Arm the faultpoint trigger, observe the 503, disarm.  Returns
    (healthy status, crash status).  The armed request asks a point no
    earlier request asked, so it misses the result cache and reaches a
    worker."""
    body = {"config": "ft2_raid5", "method": "analytic"}
    healthy, _ = await _raw_post(host, port, "/v1/evaluate", body)
    with open(trigger, "w", encoding="utf-8"):
        pass
    body["params"] = {"drive_mttf_hours": 271_828.0}
    crashed, _ = await _raw_post(host, port, "/v1/evaluate", body)
    os.unlink(trigger)
    return healthy, crashed


async def _drive(
    config: ServeConfig,
    rps: float,
    seconds: float,
    seed: int,
    shape: Optional[TrafficShape],
    crash_trigger: Optional[str] = None,
    advise: bool = False,
) -> Tuple[LoadReport, obs.Metrics, List[dict], Dict[str, Any]]:
    """Run the scenario; ``extras`` carries the live-telemetry probes
    taken while the server was up (prom text, top frame, drill result)."""
    extras: Dict[str, Any] = {}
    async with serving(config) as server:
        report = await run_loadgen(
            server.host,
            server.port,
            rps=rps,
            duration_s=seconds,
            seed=seed,
            shape=shape,
        )
        if crash_trigger is not None:
            healthy, crashed = await _run_crash_drill(
                server.host, server.port, crash_trigger
            )
            extras["drill"] = {"healthy": healthy, "crashed": crashed}
            # Give the runtime a beat to restart the shard.
            for _ in range(200):
                workers = server.service.health().get("workers", [])
                if workers and all(w.get("alive") for w in workers):
                    break
                await asyncio.sleep(0.01)
        if advise:
            advise_status, advise_resp = await _raw_post(
                server.host,
                server.port,
                "/v1/advise",
                {
                    "space": {
                        "internal": ["none", "raid5", "raid6"],
                        "fault_tolerance": [1, 2, 3],
                        "axes": {"redundancy_set_size": [6, 8, 12]},
                    },
                    "seed": 0,
                },
            )
            try:
                advise_payload = json.loads(advise_resp.decode("utf-8"))
            except ValueError:
                advise_payload = {}
            extras["advise"] = {
                "status": advise_status,
                "payload": advise_payload,
            }
        status, ctype, prom_body = await _raw_get(
            server.host, server.port, "/metricsz?format=prom"
        )
        extras["prom"] = {
            "status": status,
            "content_type": ctype,
            "text": prom_body.decode("utf-8"),
        }
        url = f"http://{server.host}:{server.port}"
        frame = io.StringIO()
        loop = asyncio.get_running_loop()

        def _top_once() -> int:
            with redirect_stdout(frame):
                return top.main(["--url", url, "--once"])

        extras["top"] = {
            "exit": await loop.run_in_executor(None, _top_once),
            "frame": frame.getvalue(),
        }
        # The telemetry probes are themselves HTTP requests the server
        # counts: 2 drill posts, 1 advise post, 1 prom scrape, 2
        # repro-top polls.
        extras["probe_requests"] = (
            3
            + (2 if crash_trigger is not None else 0)
            + (1 if advise else 0)
        )
        workers = server.service.health().get("workers", [])
        extras["health"] = server.service.health()
        metrics = obs.Metrics.merged([server.service.metrics])
    return report, metrics, workers, extras


def run_smoke(
    *,
    rps: float = 30.0,
    seconds: float = 5.0,
    seed: int = 0,
    workers: int = 0,
    shape: str = "uniform",
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    sample_rate: float = 0.0,
    samples_path: Optional[str] = None,
    flight_dir: Optional[str] = None,
    crash_drill: bool = False,
    advise: bool = False,
) -> Tuple[LoadReport, obs.Metrics, List[str]]:
    """Run the smoke scenario; returns (report, metrics, failures)."""
    if crash_drill and workers <= 0:
        raise ValueError("--crash-drill needs --workers > 0")
    if crash_drill and flight_dir is None:
        flight_dir = "smoke-flight"
    if sample_rate > 0 and samples_path is None:
        samples_path = "smoke-samples.jsonl"
    config = ServeConfig(
        port=0,
        workers=workers,
        trace_sample_rate=sample_rate,
        trace_sample_path=samples_path,
        flight_dir=flight_dir,
    )
    session = obs.trace(
        trace_path, metrics_path=metrics_path, root="repro-serve"
    )
    trigger = None
    drill_ctx = None
    if crash_drill:
        trigger = os.path.join(flight_dir or ".", "crash.trigger")
        os.makedirs(os.path.dirname(trigger) or ".", exist_ok=True)

        def _kill_if_armed(shard=None, **_kwargs):
            if os.path.exists(trigger):
                os._exit(17)

        drill_ctx = faultpoints.injected(
            faultpoints.SERVE_WORKER_CRASH, _kill_if_armed
        )
        drill_ctx.__enter__()
    try:
        with session as active:
            report, metrics, worker_health, extras = asyncio.run(
                _drive(
                    config,
                    rps,
                    seconds,
                    seed,
                    shape_by_name(shape),
                    crash_trigger=trigger,
                    advise=advise,
                )
            )
            active.add_metrics_source(lambda: metrics)
    finally:
        if drill_ctx is not None:
            drill_ctx.__exit__(None, None, None)

    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    check(report.sent > 0, f"sent {report.sent} requests (shape {shape})")
    check(
        report.completed == report.sent,
        f"all {report.sent} requests answered 200 "
        f"(got {report.completed}, shed {report.shed})",
    )
    check(report.server_errors == 0, f"zero 5xx (got {report.server_errors})")
    check(
        report.transport_errors == 0,
        f"zero transport errors (got {report.transport_errors})",
    )
    batches = metrics.histogram("serve.batch.size")
    check(
        batches.count > 0,
        f"batch-size histogram non-empty ({batches.count} batches, "
        f"mean size {batches.mean:.2f})",
    )
    http_requests = metrics.value("serve.http.requests", 0)
    expected = report.sent + extras["probe_requests"]
    check(
        http_requests == expected,
        f"serve.http.requests ({http_requests}) == sent + probes "
        f"({report.sent} + {extras['probe_requests']})",
    )
    admitted = metrics.value("serve.queue.admitted", 0)
    cache_hits = metrics.value("serve.cache.hits", 0)
    coalesced = metrics.value("serve.inflight.coalesced", 0)
    shed = metrics.value("serve.queue.shed", 0)
    check(
        admitted + cache_hits + coalesced + shed >= report.sent,
        f"admission accounting covers every request "
        f"(admitted {admitted} + cache hits {cache_hits} + "
        f"coalesced {coalesced} + shed {shed} >= {report.sent})",
    )
    if workers > 0:
        for i in range(workers):
            hist = metrics.histogram(f"serve.shard.{i}.batch.size")
            check(
                hist.count > 0,
                f"shard {i} solved batches "
                f"({hist.count} batches, mean size {hist.mean:.2f})",
            )
        restarts = sum(w.get("restarts", 0) for w in worker_health)
        if crash_drill:
            check(
                restarts >= 1,
                f"crash drill restarted a shard worker (got {restarts})",
            )
        else:
            check(
                restarts == 0,
                f"zero shard-worker restarts (got {restarts})",
            )
        check(
            len(worker_health) == workers
            and all(w.get("alive") for w in worker_health),
            f"all {workers} shard workers alive at drain",
        )
    prom = extras["prom"]
    check(
        prom["status"] == 200
        and prom["content_type"] == obs.PROM_CONTENT_TYPE,
        f"/metricsz?format=prom answers 200 with the exposition "
        f"content type (got {prom['status']}, {prom['content_type']!r})",
    )
    try:
        families = obs.validate_prom_text(prom["text"])
    except obs.PromFormatError as exc:
        check(False, f"prom exposition lints ({exc})")
    else:
        check(True, f"prom exposition lints ({len(families)} families)")
        check(
            "repro_serve_http_requests" in families,
            "prom exposition carries repro_serve_http_requests",
        )
    top_probe = extras["top"]
    check(
        top_probe["exit"] == 0 and "repro-top" in top_probe["frame"],
        f"repro-top --once rendered a frame (exit {top_probe['exit']})",
    )
    if advise:
        probe = extras["advise"]
        frontier = probe["payload"].get("frontier") or []
        check(
            probe["status"] == 200 and len(frontier) > 0,
            f"/v1/advise answered 200 with a non-empty frontier "
            f"(status {probe['status']}, {len(frontier)} points)",
        )
        objectives = [tuple(p["objectives"]) for p in frontier]
        dominated = sum(
            1
            for i, a in enumerate(objectives)
            for j, b in enumerate(objectives)
            if i != j
            and all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b))
        )
        check(
            dominated == 0,
            f"no frontier point dominates another "
            f"({len(frontier)} points, {dominated} violations)",
        )
        if frontier:
            point = frontier[0]
            direct = evaluate(
                Configuration.from_key(point["config"]),
                Parameters(**point["params"]),
            )
            check(
                direct.mttdl_hours == point["reliability"]["mttdl_hours"]
                and direct.events_per_pb_year
                == point["reliability"]["events_per_pb_year"],
                f"served frontier reliability bitwise-equal to "
                f"repro.evaluate ({point['config']})",
            )
    slo = extras["health"].get("slo", {})
    check(
        isinstance(slo, dict) and slo.get("good", 0) > 0,
        f"SLO tracker counted good requests ({slo.get('good')})",
    )
    if sample_rate > 0 and samples_path:
        try:
            sampled = obs.validate_trace(samples_path)
        except (obs.TraceFormatError, OSError) as exc:
            check(False, f"sampled span trees validate ({exc})")
        else:
            roots = [s for s in sampled if s.get("parent_id") is None]
            check(
                len(roots) >= 1,
                f"sampling wrote stitched span trees "
                f"({len(roots)} trees, {len(sampled)} spans)",
            )
    if crash_drill:
        drill = extras["drill"]
        check(
            drill["healthy"] == 200 and drill["crashed"] == 503,
            f"crash drill: healthy 200 then clean 503 "
            f"(got {drill['healthy']}, {drill['crashed']})",
        )
        dumps = sorted(
            glob.glob(os.path.join(flight_dir or ".", "flight-*http-503*.json"))
        )
        if not dumps:
            check(False, "flight recorder dumped on the 503")
        else:
            with open(dumps[-1], "r", encoding="utf-8") as fh:
                dump = json.load(fh)
            requests = [
                r for r in dump.get("records", [])
                if r.get("kind") == "request"
            ]
            check(
                bool(requests) and requests[-1].get("status") == 503,
                "flight dump's last recorded request is the 503 "
                f"({dumps[-1]})",
            )
    if trace_path:
        try:
            spans = obs.validate_trace(trace_path)
        except obs.TraceFormatError as exc:
            check(False, f"trace validates ({exc})")
        else:
            names = {s["name"] for s in spans}
            check(True, f"trace validates ({len(spans)} spans)")
            for required in ("repro-serve", "serve.request", "serve.batch"):
                check(required in names, f"trace contains {required!r} spans")
    print()
    print(report.format())
    return report, metrics, failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke",
        description="Start repro-serve, drive it with the load generator, "
        "assert liveness + coalescing, validate the trace.",
    )
    parser.add_argument("--rps", type=float, default=30.0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard worker processes (0 = single-process topology)",
    )
    parser.add_argument(
        "--shape",
        default="uniform",
        help="loadgen traffic shape (uniform/diurnal/bursty/hotkey)",
    )
    parser.add_argument("--trace", metavar="PATH", default=None)
    parser.add_argument("--metrics", metavar="PATH", default=None)
    parser.add_argument(
        "--sample-rate",
        type=float,
        default=0.0,
        help="head-based trace sampling rate; >0 asserts stitched trees",
    )
    parser.add_argument(
        "--samples",
        metavar="PATH",
        default=None,
        help="sampled-tree JSONL path (default smoke-samples.jsonl)",
    )
    parser.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="flight-recorder dump directory",
    )
    parser.add_argument(
        "--crash-drill",
        action="store_true",
        help="kill a shard worker mid-run and assert the 503 + restart "
        "+ flight dump (needs --workers > 0)",
    )
    parser.add_argument(
        "--advise",
        action="store_true",
        help="POST a seeded /v1/advise search and assert its frontier "
        "(non-empty, mutually non-dominated, bitwise vs repro.evaluate)",
    )
    args = parser.parse_args(argv)
    _, _, failures = run_smoke(
        rps=args.rps,
        seconds=args.seconds,
        seed=args.seed,
        workers=args.workers,
        shape=args.shape,
        trace_path=args.trace,
        metrics_path=args.metrics,
        sample_rate=args.sample_rate,
        samples_path=args.samples,
        flight_dir=args.flight_dir,
        crash_drill=args.crash_drill,
        advise=args.advise,
    )
    if failures:
        print(f"\nserve-smoke FAILED ({len(failures)} checks)")
        return 1
    print("\nserve-smoke OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
