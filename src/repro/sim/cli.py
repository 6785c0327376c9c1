"""Command-line validation harness: simulation vs analytic chains.

Installed as ``repro-validate``::

    repro-validate                     # default cases, 100 replicas
    repro-validate --replicas 300
    repro-validate --scale 30 --seed 7
    repro-validate --jobs 4            # fan replicas out over processes
    repro-validate --no-cache          # always re-simulate

Replicas are independently seeded, so ``--jobs`` changes only wall-clock
time, never the estimates.  Finished estimates are cached on disk under
``.repro_cache/`` keyed by (configuration, parameters, replicas, seed),
so re-running the harness is instant; ``--no-cache`` bypasses that.

A case passes when ``|simulated - chain| <= 4 * stderr + bias * chain``:
the 4-sigma sampling band plus the relative bias the simulation oracle
declares for the configuration
(:func:`repro.verify.oracles.mc_bias_envelope`); the command exits 1 if
any case falls outside its band.  A case whose band is not below its
chain value could not fail for any non-negative estimate, so it is
``INCONCLUSIVE`` — too few replicas for a verdict — and also exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from .. import obs
from ..cli_common import add_observability_arguments, observed_session
from ..engine.cache import DiskCache
from ..runtime.chunks import default_jobs
from ..models.configurations import Configuration
from ..models.parameters import Parameters
from ..models.raid import InternalRaid
from ..verify.oracles import mc_bias_envelope
from .monte_carlo import (
    accelerated_parameters,
    cached_estimate,
    estimate_payload_valid,
)

__all__ = ["main"]

#: The sampling half of each case's band, in standard errors.
SIGMAS = 4.0

DEFAULT_CASES = [
    Configuration(InternalRaid.NONE, 1),
    Configuration(InternalRaid.NONE, 2),
    Configuration(InternalRaid.RAID5, 1),
    Configuration(InternalRaid.RAID5, 2),
    Configuration(InternalRaid.RAID6, 2),
]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-validate",
        description=(
            "Validate the analytic Markov chains against physical "
            "discrete-event simulation at accelerated failure rates."
        ),
    )
    parser.add_argument("--replicas", type=int, default=100)
    parser.add_argument(
        "--scale",
        type=float,
        default=50.0,
        help="failure-rate acceleration factor (default 50)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--nodes", type=int, default=16, help="node set size for the runs"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="processes for the replica fan-out (default: all CPUs)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (.repro_cache/)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="report jobs and cache hit rates on stderr",
    )
    add_observability_arguments(parser)
    args = parser.parse_args(argv)
    if args.replicas < 2:
        parser.error("need at least 2 replicas")
    if args.scale <= 0:
        parser.error("scale must be positive")
    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)
    cache = None if args.no_cache else DiskCache(validator=estimate_payload_valid)

    base = Parameters.baseline().replace(
        node_set_size=args.nodes, redundancy_set_size=8
    )
    acc = accelerated_parameters(base, failure_scale=args.scale)
    session = observed_session(args, root="repro-validate")
    with session if session is not None else contextlib.nullcontext():
        if session is not None and cache is not None:
            session.add_metrics_source(lambda: cache.metrics)
        print(
            f"acceleration x{args.scale:g}: drive MTTF {acc.drive_mttf_hours:.0f} h, "
            f"node MTTF {acc.node_mttf_hours:.0f} h; N = {acc.node_set_size}; "
            f"{args.replicas} replicas\n"
        )
        print(
            f"{'configuration':<26} {'simulated (h)':>14} {'chain (h)':>12} "
            f"{'z':>7} {'band (h)':>10}  verdict"
        )
        worst = 0.0
        outside = 0
        inconclusive = 0
        for config in DEFAULT_CASES:
            with obs.span("validate.case", config=config.key) as case_span:
                mc = cached_estimate(
                    config, acc, args.replicas, args.seed, jobs, cache
                )
                analytic = config.model(acc, rates_method="exact").mttdl_exact()
                z = (analytic - mc.mean_hours) / mc.std_error_hours
                case_span.set("z", z)
            band = SIGMAS * mc.std_error_hours + mc_bias_envelope(config) * analytic
            worst = max(worst, abs(z))
            if abs(mc.mean_hours - analytic) > band:
                outside += 1
                case_verdict = "OUTSIDE"
            elif band >= analytic:
                inconclusive += 1
                case_verdict = "INCONCLUSIVE"
            else:
                case_verdict = "ok"
            print(
                f"{config.label:<26} {mc.mean_hours:>14.4g} {analytic:>12.4g} "
                f"{z:>+7.2f} {band:>10.4g}  {case_verdict}"
            )
        if outside:
            verdict = f"{outside} case(s) outside"
        elif inconclusive:
            verdict = f"{len(DEFAULT_CASES) - inconclusive} case(s) within"
        else:
            verdict = "every case within"
        print(
            f"\nworst |z| = {worst:.2f}; {verdict} the {SIGMAS:g}-sigma "
            "band + bias envelope"
        )
        if inconclusive:
            print(
                f"{inconclusive} case(s) INCONCLUSIVE: the band is not below "
                "the chain value, so the case cannot fail; raise --replicas"
            )
        if args.verbose:
            cache_note = (
                f"disk cache {cache.hits} hits / {cache.misses} misses"
                if cache is not None
                else "disk cache off"
            )
            print(f"[repro-validate] jobs={jobs}; {cache_note}", file=sys.stderr)
    return 1 if outside or inconclusive else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
