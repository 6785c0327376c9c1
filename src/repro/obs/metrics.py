"""Metrics: counters, gauges and histograms with associative merging.

A :class:`Metrics` registry owns named instruments.  Components that used
to carry ad-hoc integer attributes (``DiskCache.hits``,
``CompiledSpecCache.misses``) now create their counters in a registry
and expose the old attributes as read-through properties — the numbers
are identical, but every registry can be merged into one flat
``metrics.json`` snapshot at the end of a run.

Merging is **associative and commutative** (guarded by
``tests/obs/test_metrics.py``), so per-worker registries can be folded in
any order — chunk arrival order, pool size and broken-pool recoveries
cannot change the exported totals:

* counters add,
* histograms combine ``(count, sum, min, max)`` componentwise,
* gauges keep the value with the largest update version (ties resolve to
  the larger value, keeping the merge order-free).

Instrument creation uses ``dict.setdefault`` so concurrent get-or-create
races resolve to one instrument; increments on a single instrument are
plain attribute updates (each instrument is owned by one component).
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, Iterable, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "GLOBAL_METRICS",
    "Histogram",
    "LogLinearHistogram",
    "Metrics",
    "WINDOWS_S",
    "WindowSummary",
    "WindowedHistogram",
    "global_metrics",
]

Number = Union[int, float]

#: The decaying time windows every windowed instrument reports on
#: (seconds).  Chosen so /healthz answers "is it burning *right now*"
#: (1s), "over the last scrape interval" (10s) and "over the last
#: minute" (60s) from one ring of slots.
WINDOWS_S = (1.0, 10.0, 60.0)

#: The quantiles the live endpoints report.
QUANTILES = (0.5, 0.95, 0.99, 0.999)

_QUANTILE_LABELS = {0.5: "p50", 0.95: "p95", 0.99: "p99", 0.999: "p999"}


class Counter:
    """A monotonically-increasing (by convention) integer tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-value instrument; merges keep the most recent update."""

    __slots__ = ("name", "value", "version")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self.version = 0

    def set(self, value: Number) -> None:
        self.value = value
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A streaming summary: count, sum, min, max of observed values."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


# --------------------------------------------------------------------- #
# log-linear histograms and decaying time windows
# --------------------------------------------------------------------- #

#: Linear sub-buckets per power of two.  16 sub-buckets bound the
#: relative quantile error at 1/16 ≈ 6.25% — comfortably inside the
#: noise floor of any latency measurement this repo makes.
_SUBBUCKETS = 16

#: Bucketable range: ~0.95 microseconds to 128 seconds.  Values outside
#: clamp to the edge buckets (the count and sum stay exact either way).
_EXP_MIN = -20
_EXP_MAX = 8
_BUCKETS = (_EXP_MAX - _EXP_MIN) * _SUBBUCKETS


def _bucket_index(value: float) -> int:
    """The log-linear bucket for a positive value.

    ``math.frexp`` gives value = m * 2**e with m in [0.5, 1); the
    exponent picks the power-of-two decade and the significand picks one
    of the :data:`_SUBBUCKETS` linear sub-buckets inside it.
    """
    if value <= 0.0:
        return 0
    m, e = math.frexp(value)
    if e < _EXP_MIN:
        return 0
    if e >= _EXP_MAX:
        return _BUCKETS - 1
    sub = int((m - 0.5) * 2.0 * _SUBBUCKETS)
    if sub >= _SUBBUCKETS:  # m == 1.0 - epsilon rounding
        sub = _SUBBUCKETS - 1
    return (e - _EXP_MIN) * _SUBBUCKETS + sub


def _bucket_upper(index: int) -> float:
    """The inclusive upper edge of a bucket (quantiles report this)."""
    e = index // _SUBBUCKETS + _EXP_MIN
    sub = index % _SUBBUCKETS
    return math.ldexp(0.5 + (sub + 1) / (2.0 * _SUBBUCKETS), e)


class LogLinearHistogram:
    """A fixed-bucket log-linear histogram with quantile estimation.

    Buckets are sparse (a dict of index -> count), merge by summing
    matching buckets, and quantiles report the upper edge of the bucket
    the rank lands in — a deterministic over-estimate with relative
    error bounded by ``1/_SUBBUCKETS``.  The same bucketing runs on the
    server (windowed instruments) and in the load generator's report,
    so client-side and server-side p99 are directly comparable.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    def observe(self, value: Number) -> None:
        value = float(value)
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value

    @classmethod
    def from_values(cls, values: Iterable[Number]) -> "LogLinearHistogram":
        hist = cls()
        for value in values:
            hist.observe(value)
        return hist

    def merge(self, other: "LogLinearHistogram") -> "LogLinearHistogram":
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not self.count:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return _bucket_upper(index)
        return _bucket_upper(max(self.buckets))  # pragma: no cover

    def quantiles(
        self, qs: Sequence[float] = QUANTILES
    ) -> Dict[float, float]:
        return {q: self.quantile(q) for q in qs}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LogLinearHistogram(n={self.count}, mean={self.mean:.4g})"


class WindowSummary:
    """What one decaying window reports: count, rate and quantiles."""

    __slots__ = ("window_s", "hist")

    def __init__(self, window_s: float, hist: LogLinearHistogram) -> None:
        self.window_s = window_s
        self.hist = hist

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def total(self) -> float:
        return self.hist.total

    @property
    def mean(self) -> float:
        return self.hist.mean

    @property
    def rate(self) -> float:
        """Observations per second over the window."""
        return self.hist.count / self.window_s

    def quantile(self, q: float) -> float:
        return self.hist.quantile(q)

    def to_dict(self) -> Dict[str, Number]:
        out: Dict[str, Number] = {
            "count": self.count,
            "rate": self.rate,
            "mean": self.mean,
        }
        if self.count:
            for q, label in _QUANTILE_LABELS.items():
                out[label] = self.hist.quantile(q)
        return out


class WindowedHistogram:
    """A log-linear histogram over wall-clock-aligned decaying windows.

    Observations land in a ring of fixed-width slots keyed by the
    **absolute** slot index ``int(now / SLOT_S)``.  Because slots align
    on the wall clock, two processes observing concurrently produce
    slot maps that merge by plain addition — the cross-process merge
    stays associative and commutative like every other instrument.
    The 1s/10s/60s windows are *derived at read time* by merging the
    slots younger than the window, so one ring serves every window.
    """

    #: Slot width.  0.25s gives the 1s window four slots of resolution.
    SLOT_S = 0.25

    #: Slots older than the widest window are pruned on write.
    _HORIZON_SLOTS = int(max(WINDOWS_S) / SLOT_S) + 1

    __slots__ = ("name", "count", "total", "_slots", "_clock")

    def __init__(self, name: str) -> None:
        self.name = name
        # All-time tallies survive window decay (rate baselines, merges).
        self.count = 0
        self.total = 0.0
        # slot index -> [count, total, {bucket: n}]
        self._slots: Dict[int, list] = {}
        self._clock = time.time  # injectable for tests

    def observe(self, value: Number, now: Optional[float] = None) -> None:
        value = float(value)
        if now is None:
            now = self._clock()
        slot_index = int(now / self.SLOT_S)
        slot = self._slots.get(slot_index)
        if slot is None:
            self._prune(slot_index)
            slot = self._slots.setdefault(slot_index, [0, 0.0, {}])
        bucket = _bucket_index(value)
        slot[0] += 1
        slot[1] += value
        slot[2][bucket] = slot[2].get(bucket, 0) + 1
        self.count += 1
        self.total += value

    def _prune(self, newest_slot: int) -> None:
        floor = newest_slot - self._HORIZON_SLOTS
        if len(self._slots) > self._HORIZON_SLOTS:
            for slot_index in [s for s in self._slots if s < floor]:
                del self._slots[slot_index]

    # -- reads ---------------------------------------------------------- #

    def window(
        self, window_s: float, now: Optional[float] = None
    ) -> WindowSummary:
        """The merged histogram of slots younger than ``window_s``."""
        if now is None:
            now = self._clock()
        newest = int(now / self.SLOT_S)
        oldest = newest - int(window_s / self.SLOT_S) + 1
        hist = LogLinearHistogram()
        for slot_index, (count, total, buckets) in self._slots.items():
            if oldest <= slot_index <= newest:
                hist.count += count
                hist.total += total
                for bucket, n in buckets.items():
                    hist.buckets[bucket] = hist.buckets.get(bucket, 0) + n
        return WindowSummary(window_s, hist)

    def windows(
        self,
        windows_s: Sequence[float] = WINDOWS_S,
        now: Optional[float] = None,
    ) -> Dict[float, WindowSummary]:
        if now is None:
            now = self._clock()
        return {w: self.window(w, now=now) for w in windows_s}

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # -- snapshot / merge ----------------------------------------------- #

    def state(self) -> list:
        """The wire form: all-time tallies plus the live slot ring."""
        return [
            self.count,
            self.total,
            {
                slot: [count, total, dict(buckets)]
                for slot, (count, total, buckets) in self._slots.items()
            },
        ]

    def merge_state(self, state: list) -> None:
        count, total, slots = state
        self.count += count
        self.total += total
        for slot_index, (s_count, s_total, s_buckets) in slots.items():
            slot_index = int(slot_index)
            slot = self._slots.get(slot_index)
            if slot is None:
                slot = self._slots.setdefault(slot_index, [0, 0.0, {}])
            slot[0] += s_count
            slot[1] += s_total
            for bucket, n in s_buckets.items():
                bucket = int(bucket)
                slot[2][bucket] = slot[2].get(bucket, 0) + n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WindowedHistogram({self.name!r}, n={self.count})"


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Metrics:
    """A registry of named instruments with snapshot/merge/export.

    Names are dotted, lowercase, and globally meaningful (the taxonomy
    lives in docs/observability.md); one registry never holds two
    instruments of different kinds under one name.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    # -- get-or-create -------------------------------------------------- #

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            # setdefault keeps concurrent creators converging on one object.
            instrument = self._instruments.setdefault(name, cls(name))
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def windowed(self, name: str) -> WindowedHistogram:
        return self._get(name, WindowedHistogram)

    # -- inspection ----------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> list:
        return sorted(self._instruments)

    def value(self, name: str, default: Optional[Number] = None) -> Any:
        """The current value of a counter/gauge (histograms return their
        mean); ``default`` when the instrument does not exist."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            return instrument.mean
        if isinstance(instrument, WindowedHistogram):
            return instrument.count
        return instrument.value

    # -- snapshot / merge ----------------------------------------------- #

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A typed, JSON-serializable snapshot (the cross-process wire
        form: workers ship this, parents merge it)."""
        counters: Dict[str, Number] = {}
        gauges: Dict[str, list] = {}
        histograms: Dict[str, list] = {}
        windowed: Dict[str, list] = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = [instrument.value, instrument.version]
            elif isinstance(instrument, WindowedHistogram):
                windowed[name] = instrument.state()
            else:
                histograms[name] = [
                    instrument.count,
                    instrument.total,
                    instrument.min,
                    instrument.max,
                ]
        snap = {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        # Only emitted when present: older snapshots without the key
        # still merge (merge_snapshot reads every section with .get).
        if windowed:
            snap["windowed"] = windowed
        return snap

    def merge_snapshot(self, snap: Dict[str, Dict[str, Any]]) -> "Metrics":
        """Fold a :meth:`snapshot` into this registry (associatively)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, (value, version) in snap.get("gauges", {}).items():
            gauge = self.gauge(name)
            if (version, value) > (gauge.version, gauge.value):
                gauge.value = value
                gauge.version = version
        for name, (count, total, lo, hi) in snap.get("histograms", {}).items():
            hist = self.histogram(name)
            hist.count += count
            hist.total += total
            if lo < hist.min:
                hist.min = lo
            if hi > hist.max:
                hist.max = hi
        for name, state in snap.get("windowed", {}).items():
            self.windowed(name).merge_state(state)
        return self

    def merge(self, other: "Metrics") -> "Metrics":
        """Fold another registry into this one; returns self."""
        return self.merge_snapshot(other.snapshot())

    @classmethod
    def merged(cls, registries: Iterable["Metrics"]) -> "Metrics":
        """A fresh registry holding the fold of ``registries``."""
        out = cls()
        for registry in registries:
            out.merge(registry)
        return out

    # -- export --------------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        """The flat export form (``metrics.json``): counters and gauges
        map name -> value; histograms flatten to ``name.count`` /
        ``name.sum`` / ``name.min`` / ``name.max`` / ``name.mean``."""
        flat: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                flat[f"{name}.count"] = instrument.count
                flat[f"{name}.sum"] = instrument.total
                if instrument.count:
                    flat[f"{name}.min"] = instrument.min
                    flat[f"{name}.max"] = instrument.max
                    flat[f"{name}.mean"] = instrument.mean
            elif isinstance(instrument, WindowedHistogram):
                flat[f"{name}.count"] = instrument.count
                flat[f"{name}.sum"] = instrument.total
                for window, summary in instrument.windows().items():
                    prefix = f"{name}.w{window:g}s"
                    for key, value in summary.to_dict().items():
                        flat[f"{prefix}.{key}"] = value
            else:
                flat[name] = instrument.value
        return flat

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Metrics({len(self._instruments)} instruments)"


#: The process-global registry for cross-cutting counters (simulation
#: replica tallies, verification check counts, span totals).  Component
#: caches keep instance-local registries and are merged in at export time.
GLOBAL_METRICS = Metrics()


def global_metrics() -> Metrics:
    """The process-global :class:`Metrics` registry."""
    return GLOBAL_METRICS
