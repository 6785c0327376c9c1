"""``repro-loadgen`` — an open-loop HTTP load generator for repro-serve.

Open-loop means send times are fixed by the target rate before any
response arrives: request *i* departs at ``t0 + offset[i]`` whether or
not earlier requests have finished.  That is the arrival model that
actually stresses admission control — a closed loop slows itself down
exactly when the server struggles, hiding overload — so shed rates and
tail latencies measured here mean what they appear to mean.

The request mix is seeded and reproducible: a :class:`RequestMix` draws
(configuration, method, one parameter override) per request from a
``random.Random(seed)``, so two runs against the same server hit the
same key sequence (and therefore the same cache behavior).

Traffic shapes generalize the arrival process and the key skew beyond
the uniform default.  A :class:`TrafficShape` owns both the arrival
offsets and the request-mix factory, so a shape is one seeded object:

* ``uniform`` — evenly spaced arrivals, uniform key mix (the default);
* ``diurnal`` — a sinusoidal rate ramp (a day/night cycle compressed
  into the run), arrivals placed by inverting the cumulative rate;
* ``bursty`` — on/off square-wave bursts with the on-rate scaled up so
  the average rate still matches the target;
* ``hotkey`` — uniform arrivals but a Zipf-skewed key mix, the shape
  that rewards the service's result cache.

The report carries p50/p95/p99 latency, achieved throughput, a status
histogram and the shape name; :func:`run_loadgen` returns it for
in-process callers (tests, the smoke check, benchmarks) and ``main``
prints it.  Client-side quantiles are computed twice: exactly (sorted
samples) and through the same :class:`~repro.obs.metrics.LogLinearHistogram`
the server's windowed instruments use, so a loadgen report and a
``/metricsz`` scrape of the same run are directly comparable —
identical bucketing, identical upper-edge bias.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import _QUANTILE_LABELS, LogLinearHistogram

__all__ = [
    "BurstyShape",
    "DiurnalShape",
    "HotKeyShape",
    "LoadReport",
    "RequestMix",
    "TrafficShape",
    "ZipfRequestMix",
    "main",
    "percentile",
    "run_loadgen",
    "shape_by_name",
]

#: The nine standard configuration keys (3 internal-RAID levels x 3
#: node fault tolerances), spelled out so the load generator does not
#: import model code — it is a pure HTTP client.
DEFAULT_CONFIGS = (
    "ft1_noraid",
    "ft2_noraid",
    "ft3_noraid",
    "ft1_raid5",
    "ft2_raid5",
    "ft3_raid5",
    "ft1_raid6",
    "ft2_raid6",
    "ft3_raid6",
)

#: Method draw: mostly the batched analytic path, some closed form.
DEFAULT_METHODS = ("analytic", "analytic", "analytic", "closed_form")

#: Default swept override axis and its values — enough distinct values
#: to generate cache misses, few enough to also exercise hits.
DEFAULT_AXIS = "drive_mttf_hours"
DEFAULT_VALUES = (100_000.0, 200_000.0, 300_000.0, 461_386.0, 750_000.0)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of pre-sorted values."""
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil without math
    return sorted_values[int(rank) - 1]


class RequestMix:
    """A seeded stream of ``/v1/evaluate`` request bodies."""

    def __init__(
        self,
        seed: int = 0,
        *,
        configs: Sequence[str] = DEFAULT_CONFIGS,
        methods: Sequence[str] = DEFAULT_METHODS,
        axis: str = DEFAULT_AXIS,
        values: Sequence[float] = DEFAULT_VALUES,
    ) -> None:
        self.seed = seed
        self.configs = tuple(configs)
        self.methods = tuple(methods)
        self.axis = axis
        self.values = tuple(values)
        self._rng = random.Random(seed)

    def body(self) -> Dict[str, Any]:
        """The next request body in the stream."""
        rng = self._rng
        return {
            "config": rng.choice(self.configs),
            "method": rng.choice(self.methods),
            "params": {self.axis: rng.choice(self.values)},
        }


class ZipfRequestMix(RequestMix):
    """A request mix whose (config, value) popularity follows a Zipf law.

    Rank *r* (0-based) of the ``configs x values`` key space carries
    weight ``1 / (r + 1) ** skew``, so a handful of hot keys dominate —
    the access pattern real caches live under.  Methods stay uniform.
    The hot-key order is itself a seeded shuffle, so the hottest key is
    not always ``configs[0]`` but is stable for a given seed.
    """

    def __init__(self, seed: int = 0, *, skew: float = 1.2, **kwargs: Any) -> None:
        super().__init__(seed, **kwargs)
        if skew <= 0:
            raise ValueError("skew must be positive")
        self.skew = skew
        keys = [(c, v) for c in self.configs for v in self.values]
        order_rng = random.Random(seed ^ 0x5A1F)
        order_rng.shuffle(keys)
        self._keys = keys
        self._weights = [1.0 / (r + 1) ** skew for r in range(len(keys))]

    def body(self) -> Dict[str, Any]:
        rng = self._rng
        config, value = rng.choices(self._keys, weights=self._weights, k=1)[0]
        return {
            "config": config,
            "method": rng.choice(self.methods),
            "params": {self.axis: value},
        }


class TrafficShape:
    """A named, seeded traffic pattern: arrival times plus key mix.

    The base class is the ``uniform`` shape — evenly spaced arrivals and
    the plain :class:`RequestMix`.  Subclasses override
    :meth:`arrival_offsets` (when the *rate* varies over the run) or
    :meth:`request_mix` (when the *keys* are skewed), or both.  All
    shapes send ``max(1, int(rps * duration_s))`` requests total, so the
    average rate always matches the target.
    """

    name = "uniform"

    def arrival_offsets(self, rps: float, duration_s: float) -> List[float]:
        """Send offsets (seconds from start), sorted ascending."""
        total = max(1, int(rps * duration_s))
        return [i / rps for i in range(total)]

    def request_mix(self, seed: int) -> RequestMix:
        return RequestMix(seed)


class DiurnalShape(TrafficShape):
    """A sinusoidal rate ramp: ``rate(t) = rps * (1 - amp * cos(w t))``.

    One full period spans ``duration_s / periods`` — a day/night cycle
    compressed into the run, starting at the trough.  Arrival *k* is
    placed where the cumulative rate
    ``R(t) = rps * (t - amp * sin(w t) / w)`` reaches *k*, found by
    bisection (R is strictly increasing for amp < 1).
    """

    name = "diurnal"

    def __init__(self, *, amplitude: float = 0.8, periods: int = 1) -> None:
        if not 0 < amplitude < 1:
            raise ValueError("amplitude must be in (0, 1)")
        if periods < 1:
            raise ValueError("periods must be >= 1")
        self.amplitude = amplitude
        self.periods = periods

    def arrival_offsets(self, rps: float, duration_s: float) -> List[float]:
        total = max(1, int(rps * duration_s))
        amp = self.amplitude
        omega = 2.0 * math.pi * self.periods / duration_s

        def cumulative(t: float) -> float:
            return rps * (t - amp * math.sin(omega * t) / omega)

        offsets: List[float] = []
        lo = 0.0
        for k in range(total):
            target = float(k)
            a, b = lo, duration_s
            for _ in range(48):  # ~fs resolution over a seconds-long run
                mid = 0.5 * (a + b)
                if cumulative(mid) < target:
                    a = mid
                else:
                    b = mid
            offsets.append(b)
            lo = b  # arrivals are monotone; resume bisection from here
        return offsets


class BurstyShape(TrafficShape):
    """An on/off square wave: bursts at an elevated rate, then silence.

    The on-rate is scaled by ``(on + off) / on`` so the run still sends
    ``rps * duration_s`` requests on average — the bursts are a pure
    redistribution of the same load into pulses.
    """

    name = "bursty"

    def __init__(self, *, on_s: float = 0.5, off_s: float = 0.5) -> None:
        if on_s <= 0 or off_s < 0:
            raise ValueError("on_s must be positive and off_s non-negative")
        self.on_s = on_s
        self.off_s = off_s

    def arrival_offsets(self, rps: float, duration_s: float) -> List[float]:
        total = max(1, int(rps * duration_s))
        cycle = self.on_s + self.off_s
        burst_rate = rps * cycle / self.on_s
        offsets: List[float] = []
        window_start = 0.0
        while len(offsets) < total and window_start < duration_s:
            per_window = max(1, int(burst_rate * self.on_s))
            for j in range(per_window):
                if len(offsets) >= total:
                    break
                t = window_start + j / burst_rate
                if t >= duration_s:
                    break
                offsets.append(t)
            window_start += cycle
        # Rounding can undershoot; top up at the tail inside the run.
        while len(offsets) < total:
            offsets.append(offsets[-1] if offsets else 0.0)
        return offsets


class HotKeyShape(TrafficShape):
    """Uniform arrivals, Zipf-skewed keys — the result-cache shape."""

    name = "hotkey"

    def __init__(self, *, skew: float = 1.2) -> None:
        if skew <= 0:
            raise ValueError("skew must be positive")
        self.skew = skew

    def request_mix(self, seed: int) -> RequestMix:
        return ZipfRequestMix(seed, skew=self.skew)


_SHAPES = {
    "uniform": TrafficShape,
    "diurnal": DiurnalShape,
    "bursty": BurstyShape,
    "hotkey": HotKeyShape,
}


def shape_by_name(name: str) -> TrafficShape:
    """Instantiate a traffic shape by its registered name."""
    try:
        cls = _SHAPES[name]
    except KeyError:
        raise ValueError(
            f"unknown traffic shape {name!r}; choose from {sorted(_SHAPES)}"
        ) from None
    return cls()


@dataclass
class LoadReport:
    """Everything one load-generation run measured."""

    target_rps: float
    duration_s: float
    shape: str = "uniform"
    sent: int = 0
    statuses: Dict[int, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)
    transport_errors: int = 0
    elapsed_s: float = 0.0
    #: Per-request log: (status, latency_s) in send order; status -1
    #: marks a transport failure.  Tests reconcile this against the
    #: server's admission metrics.
    log: List[Tuple[int, float]] = field(default_factory=list)
    #: Response bodies indexed by *send order*, populated only when
    #: ``run_loadgen(capture_bodies=True)``: ``bodies[i]`` is the raw
    #: body of the i-th request sent, or ``None`` on transport failure.
    #: Send-indexed (``log`` is completion-ordered) so two runs with the
    #: same seed can be compared request-by-request.
    bodies: List[Optional[bytes]] = field(default_factory=list)
    #: The same log-linear histogram the server's windowed instruments
    #: use, fed every successful latency — so this report's quantiles
    #: and a ``/metricsz`` scrape share one bucketing scheme.
    hist: LogLinearHistogram = field(default_factory=LogLinearHistogram)

    def record(self, status: int, latency_s: float) -> None:
        self.sent += 1
        self.log.append((status, latency_s))
        if status < 0:
            self.transport_errors += 1
            return
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.latencies_s.append(latency_s)
        self.hist.observe(latency_s)

    @property
    def completed(self) -> int:
        return self.statuses.get(200, 0)

    @property
    def shed(self) -> int:
        return self.statuses.get(429, 0)

    @property
    def server_errors(self) -> int:
        return sum(n for s, n in self.statuses.items() if s >= 500)

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_percentiles_ms(self) -> Dict[str, float]:
        ordered = sorted(self.latencies_s)
        return {
            "p50": 1e3 * percentile(ordered, 50),
            "p95": 1e3 * percentile(ordered, 95),
            "p99": 1e3 * percentile(ordered, 99),
        }

    def latency_quantiles_ms(self) -> Dict[str, float]:
        """Histogram-derived quantiles (server code path), in ms."""
        return {
            label: 1e3 * self.hist.quantile(q)
            for q, label in _QUANTILE_LABELS.items()
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target_rps": self.target_rps,
            "duration_s": self.duration_s,
            "shape": self.shape,
            "elapsed_s": round(self.elapsed_s, 3),
            "sent": self.sent,
            "completed": self.completed,
            "shed": self.shed,
            "server_errors": self.server_errors,
            "transport_errors": self.transport_errors,
            "achieved_rps": round(self.achieved_rps, 2),
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "latency_ms": {
                k: round(v, 3)
                for k, v in self.latency_percentiles_ms().items()
            },
            "latency_hist_ms": {
                k: round(v, 3)
                for k, v in self.latency_quantiles_ms().items()
            },
        }

    def format(self) -> str:
        pct = self.latency_percentiles_ms()
        lines = [
            "loadgen report",
            f"  target rate     {self.target_rps:g} req/s "
            f"for {self.duration_s:g}s (open loop, shape {self.shape})",
            f"  sent/completed  {self.sent}/{self.completed} "
            f"(shed {self.shed}, 5xx {self.server_errors}, "
            f"transport {self.transport_errors})",
            f"  achieved        {self.achieved_rps:.1f} req/s",
            f"  latency ms      p50 {pct['p50']:.2f}   "
            f"p95 {pct['p95']:.2f}   p99 {pct['p99']:.2f}",
        ]
        if self.hist.count:
            q = self.latency_quantiles_ms()
            lines.append(
                f"  histogram ms    p50 {q['p50']:.2f}   "
                f"p95 {q['p95']:.2f}   p99 {q['p99']:.2f}   "
                f"p999 {q['p999']:.2f}  (server bucketing)"
            )
        return "\n".join(lines)


async def _one_request(
    host: str,
    port: int,
    path: str,
    body: Dict[str, Any],
    report: LoadReport,
    timeout_s: float,
    body_slot: Optional[int] = None,
) -> None:
    payload = json.dumps(body).encode("utf-8")
    request = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1") + payload
    t0 = time.monotonic()
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout_s
        )
        try:
            writer.write(request)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), timeout_s)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        status = int(raw.split(b" ", 2)[1])
    except (OSError, asyncio.TimeoutError, ValueError, IndexError):
        report.record(-1, time.monotonic() - t0)
        return
    if body_slot is not None:
        parts = raw.split(b"\r\n\r\n", 1)
        report.bodies[body_slot] = parts[1] if len(parts) == 2 else b""
    report.record(status, time.monotonic() - t0)


async def run_loadgen(
    host: str,
    port: int,
    *,
    rps: float = 50.0,
    duration_s: float = 5.0,
    seed: int = 0,
    mix: Optional[RequestMix] = None,
    shape: Optional[TrafficShape] = None,
    path: str = "/v1/evaluate",
    timeout_s: float = 30.0,
    capture_bodies: bool = False,
) -> LoadReport:
    """Drive open-loop traffic at ``rps`` for ``duration_s`` seconds.

    ``shape`` selects the arrival process and the default key mix; an
    explicit ``mix`` overrides the shape's mix (arrivals still follow
    the shape).  ``capture_bodies`` stores each response body in
    ``report.bodies`` indexed by send order, for request-by-request
    comparison of two seeded runs.
    """
    if rps <= 0:
        raise ValueError("rps must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    shape = shape if shape is not None else TrafficShape()
    mix = mix if mix is not None else shape.request_mix(seed)
    offsets = shape.arrival_offsets(rps, duration_s)
    report = LoadReport(
        target_rps=rps, duration_s=duration_s, shape=shape.name
    )
    if capture_bodies:
        report.bodies = [None] * len(offsets)
    t0 = time.monotonic()
    tasks = []
    for i, offset in enumerate(offsets):
        delay = t0 + offset - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.ensure_future(
                _one_request(
                    host,
                    port,
                    path,
                    mix.body(),
                    report,
                    timeout_s,
                    body_slot=i if capture_bodies else None,
                )
            )
        )
    await asyncio.gather(*tasks)
    report.elapsed_s = time.monotonic() - t0
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Open-loop load generator for repro-serve.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--rps", type=float, default=50.0, help="target request rate"
    )
    parser.add_argument(
        "--seconds", type=float, default=5.0, help="run duration"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="request-mix seed"
    )
    parser.add_argument(
        "--shape",
        choices=sorted(_SHAPES),
        default="uniform",
        help="traffic shape: arrival process and key skew",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report as JSON to PATH",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    report = asyncio.run(
        run_loadgen(
            args.host,
            args.port,
            rps=args.rps,
            duration_s=args.seconds,
            seed=args.seed,
            shape=shape_by_name(args.shape),
        )
    )
    print(report.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    return 1 if report.server_errors or report.transport_errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
