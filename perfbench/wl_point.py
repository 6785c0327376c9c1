"""``point``: a closed loop of single ``repro.evaluate`` calls.

One thread calls ``repro.evaluate(config, params)`` back to back on a
seeded stream of distinct points: the nine configurations crossed with
drawn drive/node MTTF, node-set size N, redundancy-set size R and drives
per node d.  This is the path the CLIs and library users hit one call at
a time; chain construction and the scalar GTH solve dominate it.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from array import array
from typing import Iterator, List, Tuple

from common import Outcome, closed_loop_metrics, ratio, self_peak_rss_mb, time_child_setup

#: Evaluations run before timing starts (first-call import and numpy warm-up).
WARMUP = 200
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Quiet-window pooling (see common.quiet_windows): 0.1 s windows hold a
#: few hundred calls; 2,000 pooled calls put the tail at p99 with 20
#: samples beyond it.
WINDOW_S = 0.1
QUIET_OPS = 2_000
#: Traced pass: alternating untraced/traced segments, so host drift
#: during the pass lands on both sides of the overhead ratio.
TRACE_SEGMENTS = 4


def stream(seed: int) -> Iterator[Tuple[object, object]]:
    """Distinct (configuration, parameters) points, reproducible from ``seed``."""
    import repro

    rng = random.Random(f"point:{seed}")
    configs = list(repro.ALL_CONFIGURATIONS)
    base = repro.Parameters.baseline()
    while True:
        yield rng.choice(configs), base.replace(
            drive_mttf_hours=rng.uniform(1e5, 1e6),
            node_mttf_hours=rng.uniform(1e5, 1e6),
            node_set_size=rng.choice((32, 48, 64, 96, 128)),
            redundancy_set_size=rng.randint(6, 16),
            drives_per_node=rng.randint(4, 16),
        )


def _warm(points: Iterator) -> None:
    import repro

    for _ in range(WARMUP):
        repro.evaluate(*next(points))


def setup_probe(seed: int) -> None:
    """Child side of a set-up sample: import, build inputs, warm up."""
    _warm(stream(seed))
    print("ready", flush=True)


def _same(a, b) -> bool:
    return a.mttdl_hours == b.mttdl_hours and a.events_per_pb_year == b.events_per_pb_year


def run(args, probe_argv: List[str]) -> Outcome:
    import repro

    setups = [time_child_setup(probe_argv) for _ in range(SETUP_REPEATS)]
    points = stream(args.seed)
    _warm(points)

    evaluate = repro.evaluate
    clock = time.perf_counter
    # Answers are kept as bare floats and the points are regenerated from
    # the seed for the gate, so the benchmark's own bookkeeping stays
    # small next to the program's memory.
    answers = array("d")
    latencies = array("d")
    ends = array("d")
    start = clock()
    deadline = start + args.seconds
    while True:
        point = next(points)
        t0 = clock()
        try:
            answer = evaluate(*point)
            mttdl, events = answer.mttdl_hours, answer.events_per_pb_year
        except Exception:  # noqa: BLE001 - fails the gate below, never the loop
            mttdl = events = math.nan
        t1 = clock()
        latencies.append(t1 - t0)
        ends.append(t1)
        answers.append(mttdl)
        answers.append(events)
        if t1 >= deadline:
            break
    rss = self_peak_rss_mb()
    count = len(latencies)

    # Gate: every answer bitwise equal to the batched engine's.
    replay = stream(args.seed)
    for _ in range(WARMUP):
        next(replay)
    done = [next(replay) for _ in range(count)]
    engine = repro.SweepEngine(jobs=1, cache=False)
    reference = engine.evaluate_many(done)
    mismatches = [
        f"point {i} ({done[i][0].key}): evaluate {answers[2 * i]!r} != "
        f"evaluate_many {ref.mttdl_hours!r}"
        for i, ref in enumerate(reference)
        if answers[2 * i] != ref.mttdl_hours or answers[2 * i + 1] != ref.events_per_pb_year
    ]

    out = Outcome("point", attempted=count, failed=len(mismatches))
    out.mismatches = mismatches
    out.add("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups")
    closed_loop_metrics(out, ends, latencies, start, WINDOW_S, QUIET_OPS)
    out.add("peak_rss_mb", rss, "MB", "benchmark process VmHWM")
    out.detail["setup_s"] = setups
    return out


def traced(seed: int, seconds: float) -> Outcome:
    """Per-layer split of ``repro.evaluate`` and the tracing overhead.

    Untraced segments time, per point, the two public calls ``evaluate``
    makes (``Configuration.model(p).chain()`` and
    ``CTMC.mean_time_to_absorption()``) next to the direct call, and
    check that the decomposed answer is bitwise the direct one.  Traced
    segments run the direct call inside an ``obs.trace`` session.
    """
    import repro
    from repro import obs
    from repro.models.metrics import ReliabilityResult

    points = stream(seed + 7919)
    _warm(points)
    clock = time.perf_counter
    chain_t: List[float] = []
    gth_t: List[float] = []
    direct_t: List[float] = []
    traced_t: List[float] = []
    residual_t: List[float] = []
    spans: List[dict] = []
    mismatches: List[str] = []
    attempted = 0
    segment_s = seconds / (2 * TRACE_SEGMENTS)
    for _ in range(TRACE_SEGMENTS):
        end = clock() + segment_s
        flip = False
        while clock() < end:
            config, params = next(points)
            flip = not flip
            if flip:
                t0 = clock()
                direct = repro.evaluate(config, params)
                t1 = clock()
            t2 = clock()
            chain = config.model(params).chain()
            t3 = clock()
            mttdl = chain.mean_time_to_absorption()
            t4 = clock()
            if not flip:
                t0 = clock()
                direct = repro.evaluate(config, params)
                t1 = clock()
            attempted += 1
            decomposed = ReliabilityResult.from_mttdl(mttdl, params)
            if not _same(decomposed, direct):
                mismatches.append(
                    f"{config.key}: decomposed {decomposed.mttdl_hours!r} != "
                    f"direct {direct.mttdl_hours!r}"
                )
            direct_t.append(t1 - t0)
            chain_t.append(t3 - t2)
            gth_t.append(t4 - t3)
            residual_t.append(direct_t[-1] - chain_t[-1] - gth_t[-1])
        end = clock() + segment_s
        with obs.trace() as session:
            while clock() < end:
                t0 = clock()
                repro.evaluate(*next(points))
                traced_t.append(clock() - t0)
                attempted += 1
        spans.extend(session.spans)

    out = Outcome("point", attempted=attempted, failed=len(mismatches))
    out.mismatches = mismatches
    out.add("point.models.chain_us", statistics.median(chain_t) * 1e6, "us",
            "Configuration.model(p).chain(), median per call")
    out.add("point.core.gth_us", statistics.median(gth_t) * 1e6, "us",
            "CTMC.mean_time_to_absorption(), median per call")
    out.add("point.engine.facade_self_us", statistics.median(residual_t) * 1e6, "us",
            "evaluate minus chain build and solve, median per call")
    out.add("point.attributed_share", ratio(sum(chain_t) + sum(gth_t), sum(direct_t)),
            "ratio", "chain build + solve over the whole evaluate call")
    out.add("point.obs.tracing_overhead",
            statistics.median(traced_t) / statistics.median(direct_t), "ratio",
            "traced p50 / untraced p50")
    out.detail = {
        "calls": {"decomposed": len(direct_t), "traced": len(traced_t)},
        "span_wall_us_median": _span_medians(spans),
    }
    return out


def _span_medians(spans: List[dict]) -> dict:
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span["wall_s"])
    return {name: statistics.median(v) * 1e6 for name, v in sorted(by_name.items())}

