"""Sharded-serve benchmark: 4 shard workers vs the single-process baseline.

The acceptance bar for the sharded topology is concrete: under a
hot-key Zipf workload (the skew real caches live under), the 4-worker
spec-hash-sharded service must sustain at least 2x the throughput of
the single-process baseline measured in
``benchmarks/results/serve.txt`` — the classic one-solve-per-request
server (``max_batch_size=1``, result cache off).  All arms run the
identical batcher-plus-runtime substrate from :mod:`repro.runtime` /
:mod:`repro.serve` and the identical seeded request stream, so the
ratios isolate exactly what each layer buys:

* arm 1 (baseline): one solve per request on the single solver thread —
  serve.txt's baseline arm;
* arm 2: the coalescing batcher on the same single solver thread,
  cache off — serve.txt's batched arm;
* arm 3: the production sharded path — a
  :class:`~repro.serve.service.ReliabilityService` with four forked
  shard workers: its one result cache and in-flight table answer
  repeats in front of the shards, and every miss routes by spec hash
  to the worker owning its chain family's compiled spec, with a
  declared per-request deadline budget.

On a single-CPU host the forked workers add pipe round-trips without
adding cores, so arm 3's margin over arm 1 comes from batching plus
the front cache (hot keys answer without queueing or re-solving); on
multi-core hosts the workers add parallel solve capacity on top.

The benchmark also asserts the serving-quality bars: the sharded arm's
p99 latency must land inside its declared deadline budget, and every
answer is bitwise identical across all three arms and against a direct
``repro.evaluate()`` call.  Results are archived in
``benchmarks/results/serve_sharded.txt``.
"""

import asyncio
import random
import time

from _bench_utils import archive, host_facts, show

import repro
from repro.analysis import format_table
from repro.core.solvers import SolveOptions
from repro.models.configurations import all_configurations
from repro.serve import PointQuery, ReliabilityService, ServeConfig
from repro.serve.batcher import CoalescingBatcher
from repro.serve.loadgen import percentile

TRIALS = 3
POINTS = 2000
SHARD_WORKERS = 4

#: Off-stream warmup points (one per chain family, parameters outside
#: the measured key space): compiles every spec in every topology before
#: the clock starts, exactly like serve.txt's warmup.
WARMUP_VALUE = 9e4

#: Closed-loop concurrency per arm, tuned the way serve.txt tunes its
#: arms: enough to keep each topology saturated without flooding it.
NAIVE_CONCURRENCY = 128
BATCHED_CONCURRENCY = 512
SHARDED_CONCURRENCY = 128

#: The declared per-request latency budget for the sharded arm.
DEADLINE_MS = 50.0

#: The required throughput multiple of the 4-worker sharded topology
#: over serve.txt's single-process one-solve-per-request baseline.
REQUIRED_SPEEDUP = 2.0

#: The hot-key key space: nine configs x 25 drive-MTTF values, drawn
#: Zipf(1.2) — a handful of hot keys dominate, as in production traffic.
VALUE_COUNT = 25
ZIPF_SKEW = 1.2


def _hotkey_points(base, n, seed=7):
    """``n`` Zipf-skewed (config, params) points over the key space.

    Mirrors the load generator's hot-key shape, in-process: the key
    order is a seeded shuffle, rank r carries weight 1/(r+1)^skew.
    """
    configs = all_configurations(3)
    keys = [
        (config, 1e5 * (1 + v * 1e-3))
        for config in configs
        for v in range(VALUE_COUNT)
    ]
    rng = random.Random(seed ^ 0x5A1F)
    rng.shuffle(keys)
    weights = [1.0 / (r + 1) ** ZIPF_SKEW for r in range(len(keys))]
    draw = random.Random(seed)
    return [
        (config, base.replace(drive_mttf_hours=value))
        for config, value in draw.choices(keys, weights=weights, k=n)
    ]


async def _drive_single(points, concurrency, max_batch_size, max_wait_us):
    """One batcher on the classic single solver thread, cache off."""
    batcher = CoalescingBatcher(
        max_batch_size=max_batch_size,
        max_wait_us=max_wait_us,
        queue_depth=100_000,
    )
    batcher.start()
    try:
        for config in all_configurations(3):
            await batcher.submit(
                config, points[0][1].replace(drive_mttf_hours=WARMUP_VALUE),
                "analytic",
            )
        semaphore = asyncio.Semaphore(concurrency)

        async def one(config, params):
            async with semaphore:
                t0 = time.perf_counter()
                mttdl = await batcher.submit(config, params, "analytic")
                return mttdl, time.perf_counter() - t0

        t0 = time.perf_counter()
        outcomes = await asyncio.gather(*[one(c, p) for c, p in points])
        wall = time.perf_counter() - t0
    finally:
        await batcher.stop()
    return wall, [m for m, _ in outcomes], [lat for _, lat in outcomes]


async def _drive_sharded(points, concurrency, workers=SHARD_WORKERS):
    """The service's sharded path: front cache, in-flight table, then
    per-shard batchers over forked workers."""
    service = ReliabilityService(
        ServeConfig(
            workers=workers,
            max_batch_size=256,
            max_wait_us=2000,
            queue_depth=100_000,
            cache_size=4096,
            cache_ttl_s=None,
            live_metrics=False,
        )
    )
    async with service:
        for config in all_configurations(3):
            await service.answer_point(
                PointQuery(
                    config,
                    points[0][1].replace(drive_mttf_hours=WARMUP_VALUE),
                )
            )
        semaphore = asyncio.Semaphore(concurrency)

        async def one(config, params):
            async with semaphore:
                t0 = time.perf_counter()
                answer = await service.answer_point(
                    PointQuery(config, params, deadline_ms=DEADLINE_MS)
                )
                return answer["mttdl_hours"], time.perf_counter() - t0

        t0 = time.perf_counter()
        outcomes = await asyncio.gather(*[one(c, p) for c, p in points])
        wall = time.perf_counter() - t0
    return wall, [m for m, _ in outcomes], [lat for _, lat in outcomes]


def _best_of(drive, trials=TRIALS):
    best = None
    for _ in range(trials):
        wall, answers, latencies = asyncio.run(drive())
        if best is None or wall < best[0]:
            best = (wall, answers, latencies)
    return best


def test_serve_sharded_speedup_report(baseline_params):
    base = baseline_params
    points = _hotkey_points(base, POINTS)

    naive_wall, naive_answers, _ = _best_of(
        lambda: _drive_single(points, NAIVE_CONCURRENCY, 1, 0)
    )
    batched_wall, batched_answers, _ = _best_of(
        lambda: _drive_single(points, BATCHED_CONCURRENCY, 256, 2000)
    )
    sharded_wall, sharded_answers, sharded_lat = _best_of(
        lambda: _drive_sharded(points, SHARDED_CONCURRENCY)
    )

    # Correctness bar: bitwise-identical answers across all topologies
    # and against the direct evaluate() path (sampled — ~500us/point).
    assert naive_answers == batched_answers == sharded_answers
    for i in range(0, POINTS, POINTS // 20):
        config, params = points[i]
        direct = repro.evaluate(
            config, params, options=SolveOptions(backend="auto")
        )
        assert sharded_answers[i] == direct.mttdl_hours

    naive_rps = POINTS / naive_wall
    batched_rps = POINTS / batched_wall
    sharded_rps = POINTS / sharded_wall
    speedup_batched = batched_rps / naive_rps
    speedup_sharded = sharded_rps / naive_rps
    ordered = sorted(sharded_lat)
    p50_ms = 1e3 * percentile(ordered, 50)
    p99_ms = 1e3 * percentile(ordered, 99)

    rows = [
        ["arm", "throughput", "p99 ms", "speedup"],
        [
            "one solve per request (serve.txt baseline)",
            f"{naive_rps:7.1f} req/s",
            "",
            "1.00x",
        ],
        [
            "coalescing batcher, single thread",
            f"{batched_rps:7.1f} req/s",
            "",
            f"{speedup_batched:.2f}x",
        ],
        [
            f"sharded x{SHARD_WORKERS} (front cache, spec-hash routing)",
            f"{sharded_rps:7.1f} req/s",
            f"{p99_ms:6.2f}",
            f"{speedup_sharded:.2f}x",
        ],
    ]
    text = show(
        f"repro.serve sharded topology: {POINTS} hot-key (Zipf {ZIPF_SKEW}) "
        f"analytic points over {9 * VALUE_COUNT} keys\n(closed loop, best of "
        f"{TRIALS}; sharded arm declares a {DEADLINE_MS:g}ms deadline "
        "budget per request)\n"
        + format_table(rows)
        + f"\nsharded p50 {p50_ms:.2f}ms / p99 {p99_ms:.2f}ms; answers "
        "bitwise-identical across all arms and vs direct repro.evaluate()\n"
        "single-CPU hosts measure batching + the front cache only; "
        "multi-core hosts add parallel solve capacity on top\n"
        + host_facts()
    )

    assert p99_ms <= DEADLINE_MS, (
        f"sharded p99 {p99_ms:.2f}ms blew the declared "
        f"{DEADLINE_MS:g}ms deadline budget"
    )
    assert speedup_sharded >= REQUIRED_SPEEDUP, (
        f"sharded topology gained only {speedup_sharded:.2f}x over the "
        f"one-solve-per-request baseline (bar: {REQUIRED_SPEEDUP}x)"
    )
    archive(text, "serve_sharded.txt")
