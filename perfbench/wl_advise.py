"""``advise``: a closed loop of 576-candidate design-space searches.

One thread calls ``repro.advise(AdviseRequest(...), engine=engine)`` back
to back through one long-lived ``SweepEngine(jobs=1, cache=False)`` — the
engine the serving layer keeps for ``/v1/advise``.  Each search draws a
fresh space (9 configurations x 4 R x 2 N x 4 drive MTTFs x 2 scrub
intervals) so the compiled-spec and array-rates memos hit as often as
they would for a stream of different users.  This is the batched solve
path (prepare -> bind_batch -> stacked GTH) plus the grid and cost layers
that ``point`` never touches.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, Iterator, List

from common import Outcome, closed_loop_metrics, ratio, self_peak_rss_mb, time_child_setup

CANDIDATES = 576
WARMUP = 2
SETUP_REPEATS = 5
#: Quiet-window pooling (see common.quiet_windows): 0.25 s windows hold a
#: few searches; 120 pooled searches keep the tail at p90.
WINDOW_S = 0.25
QUIET_OPS = 120
#: Drive MTTFs are drawn from this grid, so some array-rates entries
#: recur across searches and others are new.
DRIVE_MTTFS = tuple(100_000.0 + 25_000.0 * i for i in range(37))
SCRUB_HOURS = (24.0, 72.0, 168.0, 336.0, 730.0)
NODE_SET_SIZES = (32, 48, 64, 96, 128)


def requests(seed: int) -> Iterator[object]:
    """Seeded stream of 576-candidate advise requests."""
    from repro import AdviseRequest
    from repro.models import ConfigSpace, ParamAxis, SearchSpace

    rng = random.Random(f"advise:{seed}")
    index = 0
    while True:
        space = SearchSpace(
            configs=ConfigSpace(),
            axes=(
                ParamAxis("redundancy_set_size", tuple(sorted(rng.sample(range(6, 17), 4)))),
                ParamAxis("node_set_size", tuple(sorted(rng.sample(NODE_SET_SIZES, 2)))),
                ParamAxis("drive_mttf_hours", tuple(sorted(rng.sample(DRIVE_MTTFS, 4)))),
                ParamAxis("scrub_interval_hours", tuple(sorted(rng.sample(SCRUB_HOURS, 2)))),
            ),
        )
        yield AdviseRequest(space=space, seed=index)
        index += 1


def _engine():
    from repro import SweepEngine

    return SweepEngine(jobs=1, cache=False)


def _warm(engine, stream: Iterator) -> None:
    import repro

    for _ in range(WARMUP):
        repro.advise(next(stream), engine=engine)


def setup_probe(seed: int) -> None:
    """Child side of a set-up sample: import, build the engine, warm up."""
    _warm(_engine(), requests(seed))
    print("ready", flush=True)


def _summary(result) -> tuple:
    """What the gate needs from one search, without its 576 candidates."""
    return (
        result.request.seed,
        result.evaluated,
        result.skipped,
        [(c.config, c.params, c.result.mttdl_hours, c.result.events_per_pb_year)
         for c in result.frontier],
    )


def _check(summary: tuple, mismatches: List[str]) -> int:
    """Gate one search: full evaluation, frontier bitwise equal to evaluate()."""
    import repro

    seed, evaluated, skipped, frontier = summary
    bad = 0
    if evaluated != CANDIDATES or skipped:
        mismatches.append(f"search {seed}: evaluated {evaluated}, skipped {skipped}")
        bad = 1
    for config, params, mttdl, events in frontier:
        direct = repro.evaluate(config, params)
        if direct.mttdl_hours != mttdl or direct.events_per_pb_year != events:
            mismatches.append(
                f"search {seed} {config.key}: frontier {mttdl!r} != "
                f"evaluate {direct.mttdl_hours!r}"
            )
            bad = 1
    return bad


def run(args, probe_argv: List[str]) -> Outcome:
    import repro

    setups = [time_child_setup(probe_argv) for _ in range(SETUP_REPEATS)]
    engine = _engine()
    stream = requests(args.seed)
    _warm(engine, stream)

    clock = time.perf_counter
    frontiers = []
    latencies: List[float] = []
    ends: List[float] = []
    failed = 0
    start = clock()
    deadline = start + args.seconds
    while True:
        request = next(stream)
        t0 = clock()
        try:
            frontiers.append(_summary(repro.advise(request, engine=engine)))
        except Exception:  # noqa: BLE001 - counted, never fatal
            failed += 1
        t1 = clock()
        latencies.append(t1 - t0)
        ends.append(t1)
        if t1 >= deadline:
            break
    rss = self_peak_rss_mb()

    mismatches: List[str] = []
    failed += sum(_check(summary, mismatches) for summary in frontiers)
    out = Outcome("advise", attempted=len(latencies), failed=failed)
    out.mismatches = mismatches
    out.add("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups")
    closed_loop_metrics(out, ends, latencies, start, WINDOW_S, QUIET_OPS, CANDIDATES)
    out.add("peak_rss_mb", rss, "MB", "benchmark process VmHWM")
    out.detail["setup_s"] = setups
    return out


def _search_layers(spans: List[dict]) -> Dict[str, float]:
    """Wall time (s) per span name in one search, plus bind sizes."""
    ids = {s["span_id"] for s in spans}
    child_wall: Dict[str, float] = {}
    for s in spans:
        if s.get("parent_id") in ids:
            child_wall[s["parent_id"]] = child_wall.get(s["parent_id"], 0.0) + s["wall_s"]
    layers: Dict[str, float] = {}
    binds = bound = 0
    for s in spans:
        layers[s["name"]] = layers.get(s["name"], 0.0) + s["wall_s"]
        if s["name"] == "advise.search":
            layers["advise.search.covered"] = child_wall.get(s["span_id"], 0.0)
        if s["name"] == "solve.bind":
            binds += 1
            bound += s["attrs"].get("points", 0)
    layers["binds"] = binds
    layers["bound_points"] = bound
    return layers


def traced(seed: int, seconds: float) -> Outcome:
    """Per-layer split of a search from the repo's own spans.

    Untraced and traced searches alternate one by one; each traced
    search runs in its own ``obs.trace`` session.  Layer times are the
    ``advise.*`` and ``solve.*`` spans; memo hit ratios come from the
    engine's provenance counters across the pass.
    """
    import repro
    from repro import obs

    engine = _engine()
    stream = requests(seed + 7919)
    _warm(engine, stream)
    before = engine.provenance()
    clock = time.perf_counter
    plain_t: List[float] = []
    traced_t: List[float] = []
    per_search: List[Dict[str, float]] = []
    mismatches: List[str] = []
    failed = 0
    end = clock() + seconds
    while clock() < end:
        t0 = clock()
        result = repro.advise(next(stream), engine=engine)
        plain_t.append(clock() - t0)
        failed += _check(_summary(result), mismatches)
        with obs.trace() as session:
            t0 = clock()
            result = repro.advise(next(stream), engine=engine)
            wall = clock() - t0
        traced_t.append(wall)
        failed += _check(_summary(result), mismatches)
        layers = _search_layers(session.spans)
        layers["call"] = wall
        per_search.append(layers)
    after = engine.provenance()

    def med_ms(name: str) -> float:
        return statistics.median(s.get(name, 0.0) for s in per_search) * 1e3

    out = Outcome("advise", attempted=len(plain_t) + len(traced_t), failed=failed)
    out.mismatches = mismatches
    out.add("advise.models.grid_ms", med_ms("advise.enumerate"), "ms", "advise.enumerate span")
    out.add("advise.cost_ms", med_ms("advise.cost"), "ms", "advise.cost span")
    out.add("advise.engine.prepare_ms", med_ms("solve.prepare"), "ms", "solve.prepare span")
    out.add("advise.spec.bind_ms", med_ms("solve.bind"), "ms", "solve.bind spans")
    out.add("advise.core.gth_ms", med_ms("solve.gth"), "ms", "solve.gth spans")
    out.add("advise.frontier_ms", med_ms("advise.frontier"), "ms", "advise.frontier span")
    spec_hits = after.spec_hits - before.spec_hits
    spec_misses = after.spec_misses - before.spec_misses
    array_hits = after.array_hits - before.array_hits
    array_misses = after.array_misses - before.array_misses
    out.add("advise.spec.hit_ratio", ratio(spec_hits, spec_hits + spec_misses), "ratio",
            f"{spec_hits} hits / {spec_hits + spec_misses} lookups")
    out.add("advise.engine.array_hit_ratio", ratio(array_hits, array_hits + array_misses),
            "ratio", f"{array_hits} hits / {array_hits + array_misses} lookups")
    out.add("advise.points_per_bind",
            ratio(sum(s["bound_points"] for s in per_search), sum(s["binds"] for s in per_search)),
            "count", "points per solve.bind call")
    out.add("advise.attributed_share",
            ratio(sum(s.get("advise.search.covered", 0.0) for s in per_search),
                  sum(s["call"] for s in per_search)),
            "ratio", "child spans of advise.search over the timed advise() call")
    out.add("advise.obs.tracing_overhead",
            statistics.median(traced_t) / statistics.median(plain_t), "ratio",
            "traced p50 / untraced p50")
    names = sorted({k for s in per_search for k in s} - {"binds", "bound_points", "call"})
    out.detail = {
        "searches": {"untraced": len(plain_t), "traced": len(traced_t)},
        "span_wall_ms_median": {name: med_ms(name) for name in names},
    }
    return out
