"""The ``repro-serve`` console entry point.

Binds the asyncio HTTP front end over a :class:`ReliabilityService` and
runs until SIGTERM/SIGINT, draining gracefully.  All batching,
admission-control and caching knobs are flags; the observability flags
(``--trace`` / ``--metrics`` / ``--report``) are the same ones every
other CLI takes and capture the full ``serve.*`` span taxonomy plus the
metrics registry (see ``docs/serving.md`` and ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from typing import Optional, Sequence

from ..cli_common import (
    add_observability_arguments,
    apply_param_overrides,
    observed_session,
)
from ..models.parameters import Parameters
from .http import run_server
from .service import ServeConfig

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve online reliability queries (MTTDL, availability, "
            "sweeps) over JSON-over-HTTP with coalesced batched solves."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    batching = parser.add_argument_group("batching policy")
    batching.add_argument(
        "--max-batch-size",
        type=int,
        default=64,
        metavar="N",
        help="close a solve batch at N points (default 64)",
    )
    batching.add_argument(
        "--max-wait-us",
        type=int,
        default=2_000,
        metavar="US",
        help="close a solve batch US microseconds after its first point "
        "(default 2000)",
    )
    batching.add_argument(
        "--deadline-margin-us",
        type=int,
        default=500,
        metavar="US",
        help="close a batch early when a member's deadline is within this "
        "margin plus the solve-time estimate (default 500)",
    )
    batching.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="deadline applied to requests that do not declare one "
        "(default: none)",
    )
    topology = parser.add_argument_group("worker topology")
    topology.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="shard solves across N forked worker processes routed by "
        "spec hash (0 = single-process; default 0)",
    )
    admission = parser.add_argument_group("admission control")
    admission.add_argument(
        "--queue-depth",
        type=int,
        default=1024,
        metavar="N",
        help="shed with 429 beyond N queued points (default 1024)",
    )
    admission.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="S",
        help="Retry-After hint (seconds) sent with 429 (default 1)",
    )
    admission.add_argument(
        "--aux-depth",
        type=int,
        default=8,
        metavar="N",
        help="shed auxiliary work (Monte Carlo, availability, sweeps, "
        "advise) with 429 beyond N queued items (default 8)",
    )
    admission.add_argument(
        "--advise-depth",
        type=int,
        default=2,
        metavar="N",
        help="shed /v1/advise searches with 429 beyond N concurrent "
        "searches (inside --aux-depth; default 2)",
    )
    cache = parser.add_argument_group("result cache")
    cache.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        metavar="N",
        help="result-cache entries, in every topology (0 disables; "
        "default 4096)",
    )
    cache.add_argument(
        "--cache-ttl",
        type=float,
        default=300.0,
        metavar="S",
        help="result-cache TTL in seconds (0 = no expiry; default 300)",
    )
    live = parser.add_argument_group("live telemetry")
    live.add_argument(
        "--no-live-metrics",
        action="store_true",
        help="disable windowed latency/SLO instruments (they are on by "
        "default; disabling removes the serve.live.* families and the "
        "slo block from /healthz)",
    )
    live.add_argument(
        "--slo-target",
        type=float,
        default=0.99,
        metavar="FRAC",
        help="good-request SLO target used for burn-rate math "
        "(default 0.99)",
    )
    live.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="head-based trace sampling probability in [0, 1]; each "
        "sampled request yields one stitched span tree (default 0 = off)",
    )
    live.add_argument(
        "--trace-sample-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the sampling decision stream (default 0)",
    )
    live.add_argument(
        "--trace-sample-path",
        default=None,
        metavar="FILE",
        help="rotating JSONL file for sampled span trees (default "
        "repro-serve-samples.jsonl when sampling is on)",
    )
    live.add_argument(
        "--flight-recorder",
        default=None,
        metavar="DIR",
        help="keep a ring of recent request summaries and dump it to DIR "
        "on worker crashes and 5xx responses (default: off)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a baseline parameter field (repeatable); request "
        "bodies override on top of this baseline",
    )
    add_observability_arguments(parser)
    return parser


def config_from_args(args: argparse.Namespace, error) -> ServeConfig:
    params = apply_param_overrides(Parameters.baseline(), args.set, error)
    if not 0.0 <= args.trace_sample_rate <= 1.0:
        error("--trace-sample-rate must be in [0, 1]")
    if not 0.0 < args.slo_target < 1.0:
        error("--slo-target must be in (0, 1)")
    return ServeConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_wait_us=args.max_wait_us,
        queue_depth=args.queue_depth,
        retry_after_s=args.retry_after,
        cache_size=args.cache_size,
        cache_ttl_s=args.cache_ttl if args.cache_ttl > 0 else None,
        aux_depth=args.aux_depth,
        advise_depth=args.advise_depth,
        base_params=params,
        workers=args.workers,
        deadline_margin_us=args.deadline_margin_us,
        default_deadline_ms=args.default_deadline_ms,
        live_metrics=not args.no_live_metrics,
        slo_target=args.slo_target,
        trace_sample_rate=args.trace_sample_rate,
        trace_sample_seed=args.trace_sample_seed,
        trace_sample_path=args.trace_sample_path,
        flight_dir=args.flight_recorder,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args, parser.error)
    except ValueError as exc:
        parser.error(str(exc))

    def announce(server) -> None:
        print(
            f"repro-serve listening on http://{server.host}:{server.port} "
            f"(batch<= {config.max_batch_size}, wait {config.max_wait_us}us, "
            f"queue {config.queue_depth}, workers {config.workers})",
            file=sys.stderr,
            flush=True,
        )

    session = observed_session(args, "repro-serve")
    with session if session is not None else contextlib.nullcontext():
        try:
            asyncio.run(run_server(config, ready=announce))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
