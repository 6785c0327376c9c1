"""``serve``: an open loop against ``repro-serve`` with its default flags.

The server runs as a subprocess exactly as a user starts it (only the
port is chosen by the OS).  Requests arrive on a seeded schedule at a
fixed rate well below saturation, over at most ``nproc`` keep-alive
connections from one thread (:mod:`loadclient`).  Each request carries
``POINTS_PER_REQUEST`` points: half from a small hot set that the front
cache answers, half unique, which reach the batcher and the solver.  It
is the only workload that exercises HTTP, the protocol, the result cache,
the batcher and response serialization.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence

import loadclient
from common import (
    OUT_DIR,
    ROOT,
    Outcome,
    child_env,
    nearest_rank,
    pid_peak_rss_mb,
    quiet_windows,
    ratio,
    tail,
)

RATE_PER_S = 100
POINTS_PER_REQUEST = 8
HOT_KEYS = 32
#: Latency limit for ``slo_miss_share`` (timed from each request's due time).
SLO_MS = 50.0
SETUP_REPEATS = 3
#: Quiet-window pooling (see common.quiet_windows), windows by due time:
#: 1,000 of the 2,000 requests of a 20 s run put the tail at p99.
WINDOW_S = 0.5
QUIET_REQUESTS = 1_000
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Traced pass: segments alternate between the default server and a
#: traced one, so host drift lands on both sides of the overhead ratio.
TRACE_SEGMENTS = 4
BOOT_TIMEOUT_S = 60.0


class Server:
    """A ``python -m repro.serve`` subprocess on an ephemeral port."""

    def __init__(self, name: str, extra: Sequence[str] = ()) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.log_path = OUT_DIR / f"{name}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", *extra],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            match = re.search(r"listening on http://[^:]+:(\d+)", self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"repro-serve did not start; see {self.log_path}")

    def request(self, method: str, path: str, body: Optional[dict] = None) -> tuple:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, payload, {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Traffic:
    """Seeded request bodies: a hot set plus a stream of unique points."""

    def __init__(self, seed: int) -> None:
        import repro

        self.rng = random.Random(f"serve:{seed}")
        self.configs = [c.key for c in repro.ALL_CONFIGURATIONS]
        self.hot = [self._point() for _ in range(HOT_KEYS)]

    def _point(self) -> dict:
        rng = self.rng
        return {
            "config": rng.choice(self.configs),
            "params": {
                "drive_mttf_hours": rng.uniform(1e5, 1e6),
                "node_mttf_hours": rng.uniform(1e5, 1e6),
                "node_set_size": rng.choice((32, 48, 64, 96, 128)),
                "redundancy_set_size": rng.randint(6, 16),
                "drives_per_node": rng.randint(4, 16),
            },
        }

    def body(self) -> dict:
        half = POINTS_PER_REQUEST // 2
        points = [self.rng.choice(self.hot) for _ in range(half)]
        points += [self._point() for _ in range(POINTS_PER_REQUEST - half)]
        return {"points": points}

    def warm_bodies(self) -> Iterator[dict]:
        """Bodies that put every hot key into the server's cache."""
        half = POINTS_PER_REQUEST // 2
        for i in range(0, HOT_KEYS, half):
            yield {"points": self.hot[i : i + half]}

    def schedule(self, seconds: float) -> List[tuple]:
        """``RATE_PER_S * seconds`` arrivals, uniform order statistics over
        the window: a Poisson process conditioned on its count."""
        count = max(1, round(RATE_PER_S * seconds))
        offsets = sorted(self.rng.uniform(0.0, seconds) for _ in range(count))
        return [(offset, json.dumps(self.body()).encode()) for offset in offsets]


class Reference:
    """Memoized ``repro.evaluate`` answers for the correctness gate."""

    def __init__(self) -> None:
        import repro

        self._repro = repro
        self._base = repro.Parameters.baseline()
        self._memo: Dict[str, float] = {}

    def mttdl(self, point: dict) -> float:
        key = json.dumps(point, sort_keys=True)
        if key not in self._memo:
            params = self._base.replace(**point.get("params", {}))
            config = self._repro.Configuration.from_key(point["config"])
            self._memo[key] = self._repro.evaluate(config, params).mttdl_hours
        return self._memo[key]

    def wrong(self, request: dict, response: dict) -> Optional[str]:
        results = response.get("results", [])
        if len(results) != len(request["points"]):
            return f"{len(results)} results for {len(request['points'])} points"
        for point, answer in zip(request["points"], results):
            want = self.mttdl(point)
            if answer.get("mttdl_hours") != want:
                return f"{point['config']}: served {answer.get('mttdl_hours')!r} != evaluate {want!r}"
        return None


def boot(name: str, traffic: Traffic, reference: Reference, extra: Sequence[str] = ()) -> tuple:
    """Launch a server, wait for a first correct 200, warm the hot set.

    Returns ``(server, seconds from launch until warm)``.
    """
    t0 = time.perf_counter()
    server = Server(name, extra)
    try:
        for body in traffic.warm_bodies():
            status, payload = server.request("POST", "/v1/evaluate", body)
            problem = reference.wrong(body, payload) if status == 200 else f"HTTP {status}"
            if problem:
                raise RuntimeError(f"warm-up answer wrong: {problem}")
    except Exception:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def _drive(server: Server, schedule: List[tuple]) -> List[loadclient.Record]:
    return loadclient.run("127.0.0.1", server.port, CONNECTIONS, "/v1/evaluate", schedule)


def _gate(records: List[loadclient.Record], reference: Reference, mismatches: List[str]) -> List[bool]:
    """Per request: answered 200 with every mttdl bitwise equal to evaluate()."""
    ok = []
    for record in records:
        problem = record.error or (None if record.status == 200 else f"HTTP {record.status}")
        if not problem:
            request = json.loads(record.body.split(b"\r\n\r\n", 1)[1])
            problem = reference.wrong(request, json.loads(record.response))
        if problem:
            mismatches.append(problem)
        ok.append(not problem)
    return ok


def run(args, probe_argv: List[str]) -> Outcome:
    del probe_argv  # set-up is the server's own boot, timed here
    traffic = Traffic(args.seed)
    reference = Reference()
    for body in traffic.warm_bodies():
        for point in body["points"]:
            reference.mttdl(point)
    setups = []
    server = None
    for i in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, elapsed = boot(f"serve-setup{i}", traffic, reference)
        setups.append(elapsed)
    try:
        schedule = traffic.schedule(args.seconds)
        records = _drive(server, schedule)
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    mismatches: List[str] = []
    ok = _gate(records, reference, mismatches)
    answered = [r for r, good in zip(records, ok) if good]
    origin = records[0].due - schedule[0][0]
    span = max([args.seconds] + [r.done - origin for r in answered])
    slo_miss = sum(1 for r, good in zip(records, ok) if not good or r.latency * 1e3 > SLO_MS)

    out = Outcome("serve", attempted=len(records), failed=len(records) - len(answered))
    out.mismatches = mismatches
    out.add("setup_s", statistics.median(setups), "s",
            f"median of {len(setups)} boots to a warm server")
    out.add("ops_per_s", len(answered) / span, "1/s",
            f"achieved requests/s at {RATE_PER_S} offered, {POINTS_PER_REQUEST} points each")
    if answered:
        quiet = quiet_windows([r.due for r in answered], [r.latency for r in answered],
                              origin, WINDOW_S, QUIET_REQUESTS)
        pooled = quiet["latencies"]
        tl = tail(pooled)
        scope = f"quietest {quiet['windows']} of {quiet['of']} {WINDOW_S:g} s windows"
        out.add("latency_p50_ms", statistics.median(pooled) * 1e3, "ms",
                f"from each request's due time; {scope}; whole run "
                f"{statistics.median(r.latency for r in answered) * 1e3:.6g}")
        out.add(
            "latency_tail_ms",
            tl["value"] * 1e3,
            "ms",
            f"p{tl['percentile']:g}, {tl['beyond']} of {tl['samples']} samples beyond",
        )
        out.detail.update({"quiet": {k: v for k, v in quiet.items() if k != "latencies"},
                           "tail": tl})
    out.add("peak_rss_mb", rss, "MB", "server process VmHWM")
    late = sorted(r.late for r in answered) or [0.0]
    out.notes["slo_miss_share"] = f"{ratio(slo_miss, len(records)):.6g} (limit {SLO_MS:g} ms)"
    out.detail.update({
        "setup_s": setups,
        "slo_miss_share": ratio(slo_miss, len(records)),
        "slo_ms": SLO_MS,
        "loadgen_late_p99_ms": nearest_rank(late, 99.0) * 1e3,
        "connections": CONNECTIONS,
    })
    return out


def _delta_mean(before: dict, after: dict, name: str) -> float:
    count = after.get(f"{name}.count", 0) - before.get(f"{name}.count", 0)
    total = after.get(f"{name}.sum", 0.0) - before.get(f"{name}.sum", 0.0)
    return ratio(total, count)


def _delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


def traced(seed: int, seconds: float) -> Outcome:
    """Per-layer split of serving from ``/metricsz`` deltas and span traces.

    Server A runs with default flags; server B adds ``--trace`` (an
    ``obs.trace`` session over the whole server) and
    ``--trace-sample-rate 1.0``.  Load segments alternate A, B, A, B.
    Layer means come from A's ``/metricsz`` delta over its segments,
    parse and serialize times from B's trace, and the tracing overhead
    is B's client p50 over A's.
    """
    from repro import obs

    traffic = Traffic(seed + 7919)
    reference = Reference()
    trace_path = OUT_DIR / "serve-traced.jsonl"
    samples_path = OUT_DIR / "serve-traced-samples.jsonl"
    for path in (trace_path, samples_path):
        if path.exists():
            path.unlink()
    plain, _ = boot("serve-plain", traffic, reference)
    try:
        traced_server, _ = boot(
            "serve-traced",
            traffic,
            reference,
            ("--trace", str(trace_path), "--trace-sample-rate", "1.0",
             "--trace-sample-path", str(samples_path)),
        )
    except Exception:
        plain.stop()
        raise
    plain_records: List[loadclient.Record] = []
    traced_records: List[loadclient.Record] = []
    try:
        _, before = plain.request("GET", "/metricsz")
        for _ in range(TRACE_SEGMENTS // 2):
            plain_records += _drive(plain, traffic.schedule(seconds / TRACE_SEGMENTS))
            traced_records += _drive(traced_server, traffic.schedule(seconds / TRACE_SEGMENTS))
        _, after = plain.request("GET", "/metricsz")
    finally:
        plain.stop()
        traced_server.stop()

    spans = obs.validate_trace(str(trace_path))
    samples = samples_path.read_text() if samples_path.exists() else ""
    sampled = samples.count('"serve.request"')

    def span_us(name: str) -> float:
        walls = [s["wall_s"] for s in spans if s.get("name") == name]
        return statistics.median(walls) * 1e6 if walls else 0.0

    mismatches: List[str] = []
    plain_ok = _gate(plain_records, reference, mismatches)
    traced_ok = _gate(traced_records, reference, mismatches)
    plain_lat = [r.latency for r, good in zip(plain_records, plain_ok) if good]
    traced_lat = [r.latency for r, good in zip(traced_records, traced_ok) if good]
    late = sorted(r.late for r in plain_records) or [0.0]

    attempted = len(plain_records) + len(traced_records)
    out = Outcome("serve", attempted=attempted,
                  failed=attempted - sum(plain_ok) - sum(traced_ok))
    out.mismatches = mismatches
    hits = _delta(before, after, "serve.cache.hits")
    lookups = hits + _delta(before, after, "serve.cache.misses")
    out.add("serve.cache.hit_ratio", ratio(hits, lookups), "ratio",
            f"{hits:g} front-cache hits / {lookups:g} lookups")
    out.add("serve.queue.wait_ms", _delta_mean(before, after, "serve.queue.wait_s") * 1e3,
            "ms", "mean serve.queue.wait_s")
    out.add("serve.batch.size_mean", _delta_mean(before, after, "serve.batch.size"),
            "count", "mean points per solved batch")
    out.add("serve.batch.solve_ms", _delta_mean(before, after, "serve.batch.solve_s") * 1e3,
            "ms", "mean serve.batch.solve_s")
    out.add("serve.batch.assemble_ms",
            _delta_mean(before, after, "serve.batch.assemble_s") * 1e3,
            "ms", "mean serve.batch.assemble_s")
    out.add("serve.http.server_ms", _delta_mean(before, after, "serve.http.latency_s") * 1e3,
            "ms", "mean server-side request time")
    out.add("serve.parse_us", span_us("serve.parse"), "us", "median serve.parse span")
    out.add("serve.serialize_us", span_us("serve.serialize"), "us",
            "median serve.serialize span")
    out.add("serve.shed",
            _delta(before, after, "serve.queue.shed")
            + _delta(before, after, "serve.http.responses.429"),
            "count", "points shed + requests refused with 429")
    out.add("serve.loadgen.late_p99_ms", nearest_rank(late, 99.0) * 1e3, "ms",
            "how late the client sent, p99")
    out.add("serve.obs.tracing_overhead",
            statistics.median(traced_lat or [0.0]) / statistics.median(plain_lat or [1.0]),
            "ratio", "client p50 against the traced server / default server")
    out.detail = {
        "requests": {"plain": len(plain_records), "traced": len(traced_records)},
        "client_p50_ms": {
            "plain": statistics.median(plain_lat or [0.0]) * 1e3,
            "traced": statistics.median(traced_lat or [0.0]) * 1e3,
        },
        "trace_spans": len(spans),
        "sampled_request_trees": sampled,
        "span_wall_us_median": {
            name: span_us(name) for name in sorted({s["name"] for s in spans})
        },
    }
    return out
