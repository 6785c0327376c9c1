"""The repository benchmark: three workloads, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload point --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time, throughput,
p50 and tail latency, peak RSS) with tracing off.  ``--trace 1`` is a
separate run that measures the per-layer metrics of all three workloads
(the named workload for ``--seconds``, the other two for a 5 s pass
each) together with the tracing overhead.  Every run checks its answers
(see README.md) and ends with one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import common

WORKLOADS = ("point", "advise", "serve")
#: Length of the traced pass of each workload other than the named one.
CROSS_SECONDS = 5.0


def _module(name: str):
    import wl_advise
    import wl_point
    import wl_serve

    return {"point": wl_point, "advise": wl_advise, "serve": wl_serve}[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    common.require_checkout()
    module = _module(args.workload)
    if args.setup_probe:
        module.setup_probe(args.seed)
        return 0

    host = common.host_facts()
    probes = [common.probe_ms()]
    if args.trace:
        outcome = common.Outcome(args.workload, attempted=0)
        for name in WORKLOADS:
            seconds = args.seconds if name == args.workload else CROSS_SECONDS
            outcome.merge(_module(name).traced(args.seed, seconds))
    else:
        probe_argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-probe",
        ]
        outcome = module.run(args, probe_argv)
    golden = common.golden_mismatches()
    outcome.attempted += len(golden)
    outcome.failed += len(golden)
    outcome.mismatches.extend(f"golden {line}" for line in golden)
    probes.append(common.probe_ms())
    if args.trace:
        outcome.add("host.probe_ms", statistics.median(probes), "ms",
                    "fixed reference loop, median of before and after")
    return common.emit(outcome, args, host, probes)


if __name__ == "__main__":
    sys.exit(main())
