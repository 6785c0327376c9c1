"""Sharded-serve benchmark: 4 shard workers vs the single-process baseline.

The acceptance bar for the sharded topology is concrete: under a
hot-key Zipf workload (the skew real caches live under), the 4-worker
spec-hash-sharded topology with shard-local TTL caches must sustain at
least 2x the throughput of the single-process baseline measured in
``benchmarks/results/serve.txt`` — the classic one-solve-per-request
server (``max_batch_size=1``, result cache off).  All arms run the
identical batcher-plus-runtime substrate from :mod:`repro.runtime` /
:mod:`repro.serve` and the identical seeded request stream, so the
ratios isolate exactly what each layer buys:

* arm 1 (baseline): one solve per request on the single solver thread —
  serve.txt's baseline arm;
* arm 2: the coalescing batcher on the same single solver thread,
  cache off — serve.txt's batched arm;
* arm 3: four forked shard workers on :class:`repro.runtime.topology.ProcessTopology`,
  every point routed by spec hash to the worker owning its chain
  family's compiled spec and shard-local TTL cache, with a declared
  per-request deadline budget.

On a single-CPU host the forked workers add pipe round-trips without
adding cores, so arm 3's margin over arm 1 comes from batching plus
shard-cache locality (hot keys answer from the owning shard's cache
instead of re-solving); on multi-core hosts the workers add parallel
solve capacity on top.

The benchmark also asserts the serving-quality bars: the sharded arm's
p99 latency must land inside its declared deadline budget, and every
answer is bitwise identical across all three arms and against a direct
``repro.evaluate()`` call.  Results are archived in
``benchmarks/results/serve_sharded.txt``.
"""

import asyncio
import functools
import random
import time

from _bench_utils import archive, show

import repro
from repro.analysis import format_table
from repro.core.solvers import SolveOptions
from repro.engine.keys import point_key
from repro.models.configurations import all_configurations
from repro.runtime.topology import ProcessTopology
from repro.serve.batcher import CoalescingBatcher
from repro.serve.loadgen import percentile
from repro.serve.shard import shard_index
from repro.serve.solvecore import make_state, solve_handler

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
    """Per-shard batchers over forked workers with shard-local caches."""
    topology = ProcessTopology(
        solve_handler,
        size=workers,
        worker_state=functools.partial(make_state, 4096, None, True),
        restart=True,
        name="bench-serve-shard",
    )
    topology.start()
    batchers = [
        CoalescingBatcher(
            max_batch_size=256,
            max_wait_us=2000,
            queue_depth=100_000,
            runtime=topology,
            shard=i,
        )
        for i in range(workers)
    ]
    for batcher in batchers:
        batcher.start()
    try:
        for config in all_configurations(3):
            await batchers[shard_index(config.key, "analytic", workers)].submit(
                config, points[0][1].replace(drive_mttf_hours=WARMUP_VALUE),
                "analytic",
            )
        semaphore = asyncio.Semaphore(concurrency)

        async def one(config, params):
            async with semaphore:
                batcher = batchers[
                    shard_index(config.key, "analytic", workers)
                ]
                t0 = time.perf_counter()
                mttdl = await batcher.submit(
                    config,
                    params,
                    "analytic",
                    deadline_s=DEADLINE_MS / 1e3,
                    cache_key=point_key(config, params, "analytic", None),
                )
                return mttdl, time.perf_counter() - t0

        t0 = time.perf_counter()
        outcomes = await asyncio.gather(*[one(c, p) for c, p in points])
        wall = time.perf_counter() - t0
    finally:
        for batcher in batchers:
            await batcher.stop()
        await asyncio.get_running_loop().run_in_executor(None, topology.stop)
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
            f"sharded x{SHARD_WORKERS} (spec-hash routing, shard caches)",
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
        "single-CPU hosts measure batching + shard-cache locality only; "
        "multi-core hosts add parallel solve capacity on top"
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
