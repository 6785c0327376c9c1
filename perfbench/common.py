"""Shared pieces of the benchmark: statistics, host facts, set-up timing,
the fig13 golden gate and result emission.

Every workload module returns a :class:`Outcome`; :func:`emit` prints the
human-readable summary (every metric by name with its unit) followed by
the one-line JSON result, and writes the full record to ``perfbench/out``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_baseline.json"
OUT_DIR = BENCH_DIR / "out"

#: Percentile ladder for the tail metric: the highest rung that leaves at
#: least ``TAIL_MIN_BEYOND`` samples above it is reported.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def require_checkout() -> None:
    """Fail fast (exit 2, no result) when the program under test is absent."""
    missing = [p for p in (SRC / "repro" / "__init__.py", GOLDEN) if not p.is_file()]
    if missing:
        names = ", ".join(str(p.relative_to(ROOT)) for p in missing)
        print(f"perfbench: not a repro checkout (missing {names})", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` importable."""
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    return env


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[min(n, rank) - 1]


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest ladder percentile with >= TAIL_MIN_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= TAIL_MIN_BEYOND:
            chosen = pct
    return {
        "value": nearest_rank(ordered, chosen),
        "percentile": chosen,
        "beyond": n - math.ceil(chosen / 100.0 * n),
        "samples": n,
    }


def quiet_windows(
    ends: Sequence[float],
    latencies: Sequence[float],
    start: float,
    window_s: float,
    min_ops: int,
) -> Dict[str, Any]:
    """Pool the quietest windows of a closed-loop run.

    The run is cut into ``window_s`` windows (an operation belongs to the
    window it ended in) and the windows are ranked by their median
    latency.  The fastest windows are pooled until they hold ``min_ops``
    operations.  On a shared host, speed flips between a quiet and a
    contended state every few hundred milliseconds, and the share of
    contended time differs from run to run; the pooled quiet windows
    measure the program at the host's quiet speed in every run, and a
    fixed pool size keeps the tail percentile the same from run to run.
    """
    count = max(1, math.ceil((ends[-1] - start) / window_s))
    buckets: List[List[float]] = [[] for _ in range(count)]
    for end, latency in zip(ends, latencies):
        buckets[min(count - 1, int((end - start) / window_s))].append(latency)
    durations = [window_s] * count
    durations[-1] = ends[-1] - start - window_s * (count - 1)
    ranked = sorted(
        (i for i in range(count) if buckets[i]),
        key=lambda i: statistics.median(buckets[i]),
    )
    pooled: List[float] = []
    seconds = 0.0
    used = 0
    for i in ranked:
        pooled.extend(buckets[i])
        seconds += durations[i]
        used += 1
        if len(pooled) >= min_ops:
            break
    return {"latencies": pooled, "seconds": seconds, "windows": used, "of": count}


def closed_loop_metrics(
    out: "Outcome",
    ends: Sequence[float],
    latencies: Sequence[float],
    start: float,
    window_s: float,
    min_ops: int,
    ops_per_call: int = 1,
) -> None:
    """ops_per_s, latency_p50_ms and latency_tail_ms over the quiet windows,
    with the whole-run figures alongside in the notes and the record."""
    quiet = quiet_windows(ends, latencies, start, window_s, min_ops)
    pooled = quiet["latencies"]
    tl = tail(pooled)
    whole = tail(latencies)
    elapsed = ends[-1] - start
    scope = f"quietest {quiet['windows']} of {quiet['of']} {window_s:g} s windows"
    out.add("ops_per_s", ops_per_call * len(pooled) / quiet["seconds"], "1/s",
            f"{scope}; whole run {ops_per_call * len(latencies) / elapsed:.6g}")
    out.add("latency_p50_ms", statistics.median(pooled) * 1e3, "ms",
            f"{scope}; whole run {statistics.median(latencies) * 1e3:.6g}")
    out.add(
        "latency_tail_ms",
        tl["value"] * 1e3,
        "ms",
        f"p{tl['percentile']:g}, {tl['beyond']} of {tl['samples']} samples beyond; "
        f"whole run p{whole['percentile']:g} {whole['value'] * 1e3:.6g}",
    )
    out.detail.update({
        "elapsed_s": elapsed,
        "quiet": {k: v for k, v in quiet.items() if k != "latencies"},
        "tail": tl,
        "whole_run": {
            "ops": len(latencies),
            "p50_ms": statistics.median(latencies) * 1e3,
            "tail": whole,
        },
    })


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --------------------------------------------------------------------- #
# host facts and the host-speed probe
# --------------------------------------------------------------------- #


def probe_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python reference loop (ms).

    The loop does the same work on every host, so a change in its time
    between runs is a change in host speed, not in the program.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_facts() -> Dict[str, Any]:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = os.getloadavg()
    except OSError:
        load = (float("nan"),) * 3
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "loadavg": [round(x, 2) for x in load],
    }


def self_peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Another process's VmHWM from /proc, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------- #
# set-up timing
# --------------------------------------------------------------------- #


def time_child_setup(argv: List[str], timeout_s: float = 60.0) -> float:
    """Seconds from launching ``argv`` until it prints ``ready``.

    The child imports the program, builds its inputs and warms up in a
    fresh interpreter, exactly as a user's first run would.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code}, said {line!r})")
    return elapsed


# --------------------------------------------------------------------- #
# correctness: the fig13 golden numbers
# --------------------------------------------------------------------- #


def golden_mismatches() -> List[str]:
    """Configurations whose baseline answers miss the golden numbers."""
    import repro

    golden = json.loads(GOLDEN.read_text())
    tol = golden["tolerances"]
    params = repro.Parameters.baseline()
    bad = []
    for key, pinned in golden["configurations"].items():
        result = repro.evaluate(repro.Configuration.from_key(key), params)
        for got, want, rel in (
            (result.mttdl_hours, pinned["mttdl_hours_analytic"], tol["mttdl_rel"]),
            (
                result.events_per_pb_year,
                pinned["events_per_pb_year"],
                tol["events_rel"],
            ),
        ):
            if not abs(got - want) <= rel * abs(want):
                bad.append(f"{key}: {got!r} != golden {want!r}")
    return bad


# --------------------------------------------------------------------- #
# result emission
# --------------------------------------------------------------------- #


@dataclass
class Outcome:
    """What one run measured."""

    workload: str
    attempted: int
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if note:
            self.notes[name] = note

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches.extend(other.mismatches)
        self.metrics.update(other.metrics)
        self.notes.update(other.notes)
        self.detail[other.workload] = other.detail


def emit(outcome: Outcome, args, host: Dict[str, Any], probes: List[float]) -> int:
    """Print the summary and the JSON result line; return the exit code."""
    correct = not outcome.mismatches and outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "host_probe_ms": probes,
        "result": result,
        "notes": outcome.notes,
        "mismatches": outcome.mismatches[:50],
        "detail": outcome.detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(
        f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s, "
        f"{'traced' if args.trace else 'untraced'}"
    )
    print(
        "host: nproc {nproc}, {cpu_model}, python {python}, numpy {numpy}, "
        "scipy {scipy}, commit {commit}, src {src_sha256}, loadavg {loadavg}".format(
            **host
        )
    )
    print("host.probe_ms (before, after): " + ", ".join(f"{p:.3f}" for p in probes))
    width = max(len(name) for name in outcome.metrics)
    for name, metric in outcome.metrics.items():
        note = outcome.notes.get(name, "")
        print(
            f"  {name:<{width}}  {metric['value']:>14.6g} {metric['unit']:<6}"
            + (f"  {note}" if note else "")
        )
    for name, note in outcome.notes.items():
        if name not in outcome.metrics:
            print(f"  {name}: {note}")
    error_share = ratio(outcome.failed, outcome.attempted)
    print(
        f"  error_share: {error_share:.6g} ({outcome.failed} of "
        f"{outcome.attempted} failed, refused or wrong)"
    )
    for line in outcome.mismatches[:10]:
        print(f"  MISMATCH {line}")
    print(f"correctness gate: {'passed' if correct else 'FAILED'}; record {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1
