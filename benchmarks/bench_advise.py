"""Memoized design-space search vs cold per-candidate solves.

The optimizer's scalability claim is concrete: a >=500-candidate
``repro.advise`` search must run through one memoized
``SweepEngine.evaluate_many`` pass — where every candidate sharing a
chain topology binds as one stacked numpy solve and the compiled-spec
memo absorbs the rest — measurably faster than solving each candidate
cold with ``config.reliability(params)``, while returning bitwise-equal
reliability numbers for every point on the frontier.

Two arms over the same 576-candidate space (9 configurations x R in
{6,8,10,12} x N in {32,64} x four drive MTTFs x two scrub cadences):

* ``advise (memoized engine)`` — one ``advise()`` call through a shared
  engine (the serving layer's configuration);
* ``cold per-candidate``       — the same grid, one
  ``config.reliability`` per point, no engine, no memo.

The speedup and the engine's spec-cache hit rate are archived in
``benchmarks/results/advise.txt``; CI runs this file as the
``advise-smoke`` job's benchmark leg.
"""

import time

from _bench_utils import archive, show

from repro.advise import AdviseRequest, advise, dominates
from repro.analysis import format_table
from repro.engine import SweepEngine
from repro.models import ConfigSpace, ParamAxis, Parameters, SearchSpace

TRIALS = 3

SPACE = SearchSpace(
    configs=ConfigSpace(),
    axes=(
        ParamAxis("redundancy_set_size", (6, 8, 10, 12)),
        ParamAxis("node_set_size", (32, 64)),
        ParamAxis(
            "drive_mttf_hours", (200_000.0, 300_000.0, 400_000.0, 500_000.0)
        ),
        ParamAxis("scrub_interval_hours", (168.0, 730.0)),
    ),
)


def _best_of(fn, trials=TRIALS):
    best = float("inf")
    result = None
    for _ in range(trials):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_advise_speedup_report():
    base = Parameters.baseline()
    request = AdviseRequest(space=SPACE, seed=0)
    assert SPACE.size() >= 500

    engine = SweepEngine(base_params=base, jobs=1, cache=False)

    def advise_arm():
        return advise(request, base_params=base, engine=engine)

    points, _ = SPACE.grid(base)

    def cold_arm():
        return [p.config.reliability(p.params) for p in points]

    advise_time, result = _best_of(advise_arm)
    cold_time, cold_results = _best_of(cold_arm)

    assert result.evaluated == len(points) >= 500
    # Bitwise identity: the memoized search and the cold loop answer
    # every candidate with the same numbers...
    by_key = {
        (c.config.key, c.params.cache_key()): c
        for c in result.frontier
    }
    matched = 0
    for point, direct in zip(points, cold_results):
        candidate = by_key.get((point.config.key, point.params.cache_key()))
        if candidate is None:
            continue
        assert candidate.result.mttdl_hours == direct.mttdl_hours
        assert (
            candidate.result.events_per_pb_year == direct.events_per_pb_year
        )
        matched += 1
    assert matched == len(result.frontier)
    # ...and the frontier is sound.
    objectives = [c.objectives for c in result.frontier]
    for a in objectives:
        assert not any(dominates(b, a) for b in objectives)

    prov = result.provenance
    spec_total = prov.spec_hits + prov.spec_misses
    hit_rate = prov.spec_hits / spec_total if spec_total else 0.0
    speedup = cold_time / advise_time

    rows = [
        ["arm", "wall ms", "us/candidate", "speedup"],
        [
            "advise (memoized engine)",
            f"{advise_time * 1e3:8.1f}",
            f"{advise_time / len(points) * 1e6:6.0f}",
            f"{speedup:.2f}x",
        ],
        [
            "cold per-candidate",
            f"{cold_time * 1e3:8.1f}",
            f"{cold_time / len(points) * 1e6:6.0f}",
            "1.00x",
        ],
    ]
    table = format_table(rows)
    lines = [
        "advise: memoized engine search vs cold per-candidate solves",
        f"({len(points)} candidates, best of {TRIALS}; "
        f"{len(result.frontier)} frontier points)",
        "",
        table,
        "",
        f"spec-cache hit rate: {hit_rate:.3f} "
        f"({prov.spec_hits} hits / {prov.spec_misses} misses)",
        f"speedup: {speedup:.2f}x",
    ]
    text = show("\n".join(lines))

    assert hit_rate > 0.5, hit_rate
    assert speedup >= 1.5, (
        f"memoized search only {speedup:.2f}x faster than cold solves"
    )
    archive(text, "advise.txt")
