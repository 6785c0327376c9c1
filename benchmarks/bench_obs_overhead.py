"""Observability overhead: instrumented hot paths must stay nearly free.

Two contracts, both with a 5% budget:

* **Tracing** — times the figure-13 baseline evaluation (all nine
  configurations, the paper's Section 6 operating point) with tracing
  disabled and enabled, asserts the enabled-tracing penalty stays under
  5%, and checks the traced run's numbers are bitwise identical to the
  untraced ones.  Archived in ``benchmarks/results/obs_overhead.txt``.

* **Live serving telemetry** — drives the 4-worker spec-hash-sharded
  service (the ``serve_sharded.txt`` hot-key workload, front result
  cache included) with the full live-telemetry bundle on — windowed latency/SLO instruments plus
  1% head-based trace sampling shipping stitched span trees across the
  shard pipe — versus everything off, and asserts the throughput
  penalty stays under 5% with bitwise-identical answers.  Archived in
  ``benchmarks/results/obs_overhead_serve.txt``.
"""

import asyncio
import gc
import os
import time

from _bench_utils import archive, host_facts, show

from repro import obs
from repro.analysis import baseline_figure, run_baseline
from repro.models.configurations import all_configurations
from repro.obs.tracer import Tracer
from repro.serve import PointQuery, ReliabilityService, ServeConfig

#: Consecutive baseline evaluations per timed trial (amortizes timer noise).
REPEATS = 20
#: Interleaved trials per measurement session.
TRIALS = 15
#: Measurement sessions (best-of; a session ends the run early once it
#: lands inside the budget — noise can only inflate the estimate).
SESSIONS = 6
#: The acceptance budget for enabled-tracing overhead.
MAX_OVERHEAD = 0.05


def _paired_trials(arms, trials=TRIALS):
    """Per-trial wall times, arms interleaved A/B/A/B.

    Interleaving keeps slow drift (CPU frequency scaling, a noisy
    neighbor on a shared host) from landing entirely on one arm and
    masquerading as overhead; garbage collection is paused so a
    collection pause landing inside one arm cannot skew a pair (both
    arms allocate heavily either way).
    """
    times = [[] for _ in arms]
    gc.collect()
    gc.disable()
    try:
        for trial in range(trials):
            # Alternate arm order so any systematic first-arm advantage
            # (frequency boost decay, cache warmth) cancels across trials.
            order = range(len(arms)) if trial % 2 == 0 else reversed(range(len(arms)))
            for i in order:
                t0 = time.perf_counter()
                arms[i]()
                times[i].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return times


def _series_values(report):
    figure = baseline_figure(report)
    return [(s.label, s.values) for s in figure.series]


def test_tracing_overhead_under_budget(baseline_params):
    params = baseline_params

    def untraced():
        # Explicitly disable: under an env-traced CI session the baseline
        # arm must still measure the tracing-off path.
        with obs.use_tracer(None):
            for _ in range(REPEATS):
                run_baseline(params)

    def traced():
        # A fresh tracer per trial: steady-state span recording, not an
        # ever-growing buffer.
        with obs.use_tracer(Tracer()):
            for _ in range(REPEATS):
                run_baseline(params)

    untraced()  # warm-up: imports, allocator, caches
    traced()
    # Overhead as the median of per-trial paired ratios: a noise burst on
    # a shared host hits adjacent trials of both arms alike, so each pair
    # is a fair comparison, and the median discards the pairs a burst
    # landed inside — per-arm bests can fall in different noise regimes
    # and fabricate overhead.  Noise only inflates the estimate, so take
    # the best of a few measurement sessions, stopping at the first one
    # inside the budget.
    overhead = float("inf")
    disabled = enabled = float("inf")
    for _ in range(SESSIONS):
        disabled_times, enabled_times = _paired_trials([untraced, traced])
        ratios = sorted(e / d for d, e in zip(disabled_times, enabled_times))
        session_overhead = ratios[len(ratios) // 2] - 1.0
        if session_overhead < overhead:
            overhead = session_overhead
            disabled = min(disabled_times)
            enabled = min(enabled_times)
        if overhead < MAX_OVERHEAD:
            break

    # Bitwise safety: the traced run computes the exact same numbers.
    plain_report = run_baseline(params)
    tracer = Tracer()
    with obs.use_tracer(tracer):
        with obs.span("fig13.baseline", configurations=9):
            traced_report = run_baseline(params)
    assert _series_values(traced_report) == _series_values(plain_report)

    spans = tracer.finished()
    assert spans, "traced baseline run recorded no spans"

    lines = [
        "observability overhead — fig13 baseline (9 configurations)",
        "",
        f"disabled tracing : {disabled / REPEATS * 1e3:8.3f} ms/run "
        f"(best of {TRIALS} trials x {REPEATS} runs)",
        f"enabled tracing  : {enabled / REPEATS * 1e3:8.3f} ms/run",
        f"overhead         : {100.0 * overhead:+8.2f}%  "
        f"(budget {100.0 * MAX_OVERHEAD:+.2f}%; median paired ratio)",
        f"spans per run    : {len(spans)}",
        "",
        "per-phase timings of one traced baseline run:",
        "",
        obs.render_report(spans),
        "",
        host_facts(),
    ]
    text = show("\n".join(lines))

    assert overhead < MAX_OVERHEAD, (
        f"enabled tracing costs {100.0 * overhead:.2f}% "
        f"(budget {100.0 * MAX_OVERHEAD:.0f}%)"
    )
    archive(text, "obs_overhead.txt")


# --------------------------------------------------------------------- #
# live serving telemetry overhead
# --------------------------------------------------------------------- #

#: The sharded serving workload (mirrors bench_serve_sharded.py).
SERVE_POINTS = 1200
SERVE_WORKERS = 4
SERVE_CONCURRENCY = 128
SERVE_TRIALS = 3
SERVE_SESSIONS = 4
SERVE_SAMPLE_RATE = 0.01
SERVE_DEADLINE_MS = 50.0
_VALUE_COUNT = 25
_ZIPF_SKEW = 1.2


def _serve_points(base, n, seed=7):
    import random

    configs = all_configurations(3)
    keys = [
        (config, 1e5 * (1 + v * 1e-3))
        for config in configs
        for v in range(_VALUE_COUNT)
    ]
    rng = random.Random(seed ^ 0x5A1F)
    rng.shuffle(keys)
    weights = [1.0 / (r + 1) ** _ZIPF_SKEW for r in range(len(keys))]
    draw = random.Random(seed)
    return [
        (config, base.replace(drive_mttf_hours=value))
        for config, value in draw.choices(keys, weights=weights, k=n)
    ]


async def _drive_live(points, telemetry):
    """The sharded service with the given live-telemetry settings:
    per-request sampling decision + SLO/windowed recording, the front
    result cache, per-batch shard instruments, sampled spans shipped
    across the pipe and stitched — everything the HTTP layer would do
    per request, minus the socket."""
    service = ReliabilityService(
        ServeConfig(
            workers=SERVE_WORKERS,
            max_batch_size=256,
            max_wait_us=2000,
            queue_depth=100_000,
            cache_size=4096,
            cache_ttl_s=None,
            **telemetry,
        )
    )
    live = service.live
    async with service:
        for config in all_configurations(3):
            await service.answer_point(
                PointQuery(config, points[0][1].replace(drive_mttf_hours=9e4))
            )
        semaphore = asyncio.Semaphore(SERVE_CONCURRENCY)

        async def one(config, params):
            async with semaphore:
                trace_id = live.sample()
                t0 = time.perf_counter()
                unix0 = time.time()
                answer = await service.answer_point(
                    PointQuery(config, params, deadline_ms=SERVE_DEADLINE_MS),
                    trace_id=trace_id,
                )
                wall = time.perf_counter() - t0
                live.record_request(
                    200,
                    wall,
                    SERVE_DEADLINE_MS,
                    method="POST",
                    path="/v1/evaluate",
                    detail=None,
                    trace_id=trace_id,
                )
                if trace_id is not None:
                    live.finish_trace(
                        trace_id,
                        obs.synth_span(
                            "serve.request", unix0, wall, status=200, points=1
                        ),
                    )
                return answer["mttdl_hours"]

        t0 = time.perf_counter()
        answers = await asyncio.gather(*[one(c, p) for c, p in points])
        wall = time.perf_counter() - t0
    return wall, answers


def test_live_telemetry_overhead_under_budget(baseline_params, tmp_path):
    points = _serve_points(baseline_params, SERVE_POINTS)
    trace_path = os.path.join(str(tmp_path), "bench-samples.jsonl")

    def run_off():
        return asyncio.run(_drive_live(points, {"live_metrics": False}))

    def run_on():
        telemetry = {
            "live_metrics": True,
            "slo_target": 0.99,
            "trace_sample_rate": SERVE_SAMPLE_RATE,
            "trace_sample_seed": 0,
            "trace_sample_path": trace_path,
        }
        return asyncio.run(_drive_live(points, telemetry))

    run_off()  # warm-up: forks, spec compilation, allocator
    off_answers = on_answers = None
    overhead = float("inf")
    off_best = on_best = float("inf")
    for session in range(SERVE_SESSIONS):
        walls = ([], [])
        for trial in range(SERVE_TRIALS):
            order = (0, 1) if trial % 2 == 0 else (1, 0)
            for arm in order:
                wall, answers = (run_off, run_on)[arm]()
                walls[arm].append(wall)
                if arm == 0:
                    off_answers = answers
                else:
                    on_answers = answers
        ratios = sorted(on / off for off, on in zip(*walls))
        session_overhead = ratios[len(ratios) // 2] - 1.0
        if session_overhead < overhead:
            overhead = session_overhead
            off_best = min(walls[0])
            on_best = min(walls[1])
        if overhead < MAX_OVERHEAD:
            break

    # Bitwise safety: telemetry observes the serving path, never
    # perturbs it.
    assert off_answers == on_answers

    # The sampled trees really crossed the pipe and stitched.
    sampled = obs.validate_trace(trace_path)
    roots = [s for s in sampled if s.get("parent_id") is None]
    assert roots, "1% sampling produced no stitched span trees"

    off_rps = SERVE_POINTS / off_best
    on_rps = SERVE_POINTS / on_best
    lines = [
        "live serving telemetry overhead — "
        f"{SERVE_POINTS} hot-key points, {SERVE_WORKERS} shard workers",
        "",
        f"telemetry off : {off_rps:8.1f} req/s (best of {SERVE_TRIALS} "
        f"trials, closed loop x{SERVE_CONCURRENCY})",
        f"telemetry on  : {on_rps:8.1f} req/s  (windowed metrics + SLO + "
        f"{100 * SERVE_SAMPLE_RATE:g}% trace sampling)",
        f"overhead      : {100.0 * overhead:+8.2f}%  "
        f"(budget {100.0 * MAX_OVERHEAD:+.2f}%; median paired ratio)",
        f"sampled trees : {len(roots)} ({len(sampled)} spans, stitched "
        "across the shard pipe)",
        "",
        "answers bitwise-identical with telemetry on vs off",
        host_facts(),
    ]
    text = show("\n".join(lines))

    assert overhead < MAX_OVERHEAD, (
        f"live serving telemetry costs {100.0 * overhead:.2f}% "
        f"(budget {100.0 * MAX_OVERHEAD:.0f}%)"
    )
    archive(text, "obs_overhead_serve.txt")
