"""Steadiness log: two interleaved sets of runs per workload.

Runs the benchmark command from ``BENCHMARK.json`` ``--runs`` times per
workload and set, each run with its own seed, alternating the sets run
by run (and which set goes first).  For every end-to-end metric it
reports each set's median and quartiles, the spread (interquartile
distance over the median) and how far the second set's median moved
from the first's in the metric's worse direction, against the metric's
bound.  Run from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SET_SEED_BASE = (1000, 2000)


def run_once(command, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed its gate:\n{proc.stdout}")
    probes = next((l for l in lines if l.startswith("host.probe_ms")), "")
    return {"seed": seed, "wall_s": wall, "probe": probes.split(":", 1)[-1].strip(),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", default="perfbench/results/steadiness")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {w: [[], []] for w in workloads}
    started = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    for i in range(args.runs):
        for w in workloads:
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                record = run_once(spec["command"], w, SET_SEED_BASE[s] + i,
                                  spec["run_seconds"])
                runs[w][s].append(record)
                print(f"{w} set {'AB'[s]} seed {record['seed']}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in record["metrics"].items())
                      + f" | probe {record['probe']}", flush=True)

    report = {"started": started, "runs_per_set": args.runs,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    lines = [f"# Steadiness log ({started}, {args.runs} runs per set, "
             f"{spec['run_seconds']} s each)", "",
             "| workload | metric | bound | set A median [q1, q3] | spread A | "
             "set B median [q1, q3] | spread B | B vs A (worse +) | ok |",
             "|---|---|---|---|---|---|---|---|---|"]
    all_ok = True
    for w in workloads:
        report["workloads"][w] = {"runs": runs[w], "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [summarise([r["metrics"][name] for r in runs[w][s]]) for s in (0, 1)]
            shift = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            if metric["better"] == "higher":
                shift = -shift
            spread_ok = name == "setup_s" or all(st["spread"] <= bound for st in sets)
            ok = spread_ok and shift <= bound
            all_ok &= ok
            report["workloads"][w]["metrics"][name] = {
                "bound": bound, "sets": sets, "shift": shift, "ok": ok}
            a, b = sets
            lines.append(
                f"| {w} | {name} | {bound} | {a['median']:.4g} [{a['q1']:.4g}, "
                f"{a['q3']:.4g}] | {a['spread']:.3f} | {b['median']:.4g} "
                f"[{b['q1']:.4g}, {b['q3']:.4g}] | {b['spread']:.3f} | "
                f"{shift:+.3f} | {'yes' if ok else 'NO'} |")
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    out.with_suffix(".md").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
