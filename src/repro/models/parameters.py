"""System parameters (Section 6 of the paper).

:class:`Parameters` bundles every knob the paper's baseline analysis and
sensitivity sweeps touch.  All rates are internally expressed per hour, all
capacities in bytes; the constructors accept the units the paper quotes
(hours, GB, Gb/s, KB).

Baseline values (Section 6)::

    node MTTF              400,000 h
    drive MTTF             300,000 h
    hard error rate        1 sector per 10^14 bits read
    drive capacity         300 GB
    max drive throughput   150 IO/s
    drive sustained rate   40 MB/s
    node set size N        64
    redundancy set size R  8
    drives per node d      12
    re-stripe command      1 MB
    rebuild command        128 KB
    link speed             10 Gb/s (800 MB/s sustained)
    capacity utilization   75 %
    rebuild bandwidth      10 %
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence

import numpy as np

__all__ = [
    "Parameters",
    "ParameterColumns",
    "ParameterError",
    "GB",
    "MB",
    "KB",
    "HOURS_PER_YEAR",
    "elementwise_max",
    "elementwise_min",
    "per_value",
]

KB = 1024
MB = 10**6
GB = 10**9
HOURS_PER_YEAR = 8766.0  # 365.25 days, the convention we use throughout


def is_finite(value: Any) -> bool:
    """``math.isfinite`` that also answers False for an int beyond float
    range (where ``math.isfinite`` raises ``OverflowError``)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class ParameterError(ValueError):
    """Raised for physically-meaningless parameter values."""


@dataclass(frozen=True, kw_only=True)
class Parameters:
    """Complete parameterization of a networked-storage-node system.
    Construction is keyword-only (positional construction went through a
    DeprecationWarning cycle and was removed).

    Attributes:
        node_mttf_hours: mean time to failure of a whole node (controller,
            power supply, ... — anything that kills the sealed brick).
        drive_mttf_hours: mean time to failure of one disk drive.
        hard_error_rate_per_bit: probability of an uncorrectable (hard)
            read error per bit read.  The paper's "1 sector in 10^14 bits"
            is ``1e-14``.
        drive_capacity_bytes: raw capacity of one drive.
        drive_max_iops: maximum I/O operations per second per drive.
        drive_sustained_bps: sustained sequential transfer rate of a drive,
            bytes/second.
        node_set_size: N, the number of nodes data is spread across.
        redundancy_set_size: R, nodes per redundancy set (stripe width).
        drives_per_node: d.
        restripe_command_bytes: I/O size used during an internal-RAID
            re-stripe.
        rebuild_command_bytes: I/O size used during cross-node rebuild.
        link_speed_bps: raw speed of one node link, bits/second.
        link_sustained_fraction: fraction of raw link speed achievable
            sustained.  The paper quotes 800 MB/s sustained at 10 Gb/s raw
            (= 1250 MB/s), i.e. 0.64.
        capacity_utilization: fraction of raw capacity holding user data;
            the rest is over-provisioned spare for fail-in-place.
        rebuild_bandwidth_fraction: fraction of disk and network bandwidth
            a rebuild is allowed to consume (the rest serves foreground
            I/O).
    """

    node_mttf_hours: float = 400_000.0
    drive_mttf_hours: float = 300_000.0
    hard_error_rate_per_bit: float = 1e-14
    drive_capacity_bytes: float = 300 * GB
    drive_max_iops: float = 150.0
    drive_sustained_bps: float = 40 * MB
    node_set_size: int = 64
    redundancy_set_size: int = 8
    drives_per_node: int = 12
    restripe_command_bytes: float = 1024 * KB
    rebuild_command_bytes: float = 128 * KB
    link_speed_bps: float = 10e9
    link_sustained_fraction: float = 0.64
    capacity_utilization: float = 0.75
    rebuild_bandwidth_fraction: float = 0.10

    def __post_init__(self) -> None:
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if not is_finite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        positive = [
            ("node_mttf_hours", self.node_mttf_hours),
            ("drive_mttf_hours", self.drive_mttf_hours),
            ("drive_capacity_bytes", self.drive_capacity_bytes),
            ("drive_max_iops", self.drive_max_iops),
            ("drive_sustained_bps", self.drive_sustained_bps),
            ("restripe_command_bytes", self.restripe_command_bytes),
            ("rebuild_command_bytes", self.rebuild_command_bytes),
            ("link_speed_bps", self.link_speed_bps),
        ]
        for name, value in positive:
            if value <= 0:
                raise ParameterError(f"{name} must be positive, got {value!r}")
        if self.hard_error_rate_per_bit < 0:
            raise ParameterError("hard_error_rate_per_bit must be >= 0")
        for name, value in [
            ("link_sustained_fraction", self.link_sustained_fraction),
            ("capacity_utilization", self.capacity_utilization),
            ("rebuild_bandwidth_fraction", self.rebuild_bandwidth_fraction),
        ]:
            if not 0 < value <= 1:
                raise ParameterError(f"{name} must be in (0, 1], got {value!r}")
        if self.node_set_size < 2:
            raise ParameterError("node_set_size must be at least 2")
        if not 2 <= self.redundancy_set_size <= self.node_set_size:
            raise ParameterError(
                "redundancy_set_size must be between 2 and node_set_size"
            )
        if self.drives_per_node < 1:
            raise ParameterError("drives_per_node must be at least 1")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def baseline(cls) -> "Parameters":
        """The paper's Section 6 baseline."""
        return cls()

    @classmethod
    def with_overrides(cls, **overrides: Any) -> "Parameters":
        """The Section 6 baseline with keyword ``overrides`` applied.

        The preferred way to build a non-baseline parameter set::

            params = Parameters.with_overrides(node_set_size=128)

        Positional construction (``Parameters(400_000.0, ...)``) is
        an error — with fifteen float-heavy fields it is far too easy
        to transpose two values silently.
        """
        return cls(**overrides)

    def replace(self, **changes: Any) -> "Parameters":
        """A copy with ``changes`` applied (validated)."""
        return dataclasses.replace(self, **changes)

    def with_link_speed_gbps(self, gbps: float) -> "Parameters":
        """A copy with the link speed set in Gb/s."""
        return self.replace(link_speed_bps=gbps * 1e9)

    def with_rebuild_command_kb(self, kb: float) -> "Parameters":
        """A copy with the rebuild command size set in KB."""
        return self.replace(rebuild_command_bytes=kb * KB)

    # ------------------------------------------------------------------ #
    # derived rates and quantities
    # ------------------------------------------------------------------ #

    @property
    def node_failure_rate(self) -> float:
        """lambda_N, node failures per hour."""
        return 1.0 / self.node_mttf_hours

    @property
    def drive_failure_rate(self) -> float:
        """lambda_d, drive failures per hour."""
        return 1.0 / self.drive_mttf_hours

    @property
    def hard_error_per_drive_read(self) -> float:
        """``C * HER``: expected hard errors when reading one full drive."""
        return self.drive_capacity_bytes * 8 * self.hard_error_rate_per_bit

    @property
    def drive_data_bytes(self) -> float:
        """User data held by one drive (capacity x utilization)."""
        return self.drive_capacity_bytes * self.capacity_utilization

    @property
    def node_data_bytes(self) -> float:
        """User data held by one node."""
        return self.drives_per_node * self.drive_data_bytes

    @property
    def system_raw_bytes(self) -> float:
        """Raw capacity of the node set."""
        return self.node_set_size * self.drives_per_node * self.drive_capacity_bytes

    @property
    def system_logical_bytes(self) -> float:
        """Logical (user-visible) capacity of the node set.

        The paper normalizes data-loss events by logical petabytes, from a
        manufacturer's field-population point of view.
        """
        return self.system_raw_bytes * self.capacity_utilization

    @property
    def system_logical_pb(self) -> float:
        """Logical capacity in (decimal) petabytes."""
        return self.system_logical_bytes / 1e15

    @property
    def link_sustained_bytes_per_sec(self) -> float:
        """Sustained one-direction byte rate of a node's network attachment."""
        return self.link_speed_bps / 8 * self.link_sustained_fraction

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (useful for reports and parameter sweeps)."""
        # Every field is a scalar, so a direct dict build gives the same
        # result as dataclasses.asdict without its recursive deepcopy
        # (which dominates the serving layer's per-request key cost).
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }

    def cache_key(self) -> str:
        """The canonical value hash of this parameter set.

        A SHA-256 hex digest of the JSON-canonicalized field dict (via the
        engine's :func:`~repro.engine.keys.stable_digest` helper), stable
        across interpreter restarts and bitwise-sensitive: two parameter
        sets share a key if and only if every field is bitwise equal.

        This is **the** parameter identity used everywhere a stable hash
        of a parameter set is needed — the engine's disk-cache keys, the
        serving layer's result cache and the verification report all go
        through it, so the hash is derived in exactly one place.

        Memoized per instance: the fields are frozen scalars, so the
        digest can never change after construction.
        """
        memo = self.__dict__.get("_cache_key_memo")
        if memo is not None:
            return memo
        from ..engine.keys import stable_digest

        digest = stable_digest(self.to_dict())
        object.__setattr__(self, "_cache_key_memo", digest)
        return digest


#: Every field, in declaration order (the finiteness check walks them).
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(Parameters))

#: Fields declared ``int`` (the node, redundancy-set and drive counts).
_INT_FIELDS = frozenset(
    f.name for f in dataclasses.fields(Parameters) if f.type in (int, "int")
)


class ParameterColumns:
    """Many :class:`Parameters` as columns: one value per field.

    A field every member shares stays the member's own Python scalar, so
    arithmetic on it is exactly the scalar arithmetic; a field that
    varies becomes a numpy array (the count fields keep their integer
    dtype, every other field is ``float64``).  The derived rates are
    :class:`Parameters`' own properties, and the rebuild, ``h``-word and
    critical-fraction formulas accept either form, so one model object
    built over columns yields every member's binding environment at once,
    each column bitwise equal to the scalar value (integer-valued float
    fields and their pairwise products must stay below 2**53, which
    every physical parameter set does).

    Example:
        >>> cols = ParameterColumns([Parameters(), Parameters(node_set_size=32)])
        >>> cols.node_set_size.tolist(), cols.drives_per_node
        ([64, 32], 12)
    """

    def __init__(self, members: Sequence[Parameters]) -> None:
        rows = [member.__dict__ for member in members]
        for name in _FIELD_NAMES:
            values = [row[name] for row in rows]
            first = values[0]
            if values.count(first) == len(values) and len(
                set(map(type, values))
            ) == 1:
                column: Any = first
            elif name in _INT_FIELDS:
                column = np.array(values)
            else:
                column = np.array(values, dtype=float)
            setattr(self, name, column)

    node_failure_rate = Parameters.node_failure_rate
    drive_failure_rate = Parameters.drive_failure_rate
    hard_error_per_drive_read = Parameters.hard_error_per_drive_read
    drive_data_bytes = Parameters.drive_data_bytes
    node_data_bytes = Parameters.node_data_bytes
    link_sustained_bytes_per_sec = Parameters.link_sustained_bytes_per_sec


# --------------------------------------------------------------------- #
# arithmetic on scalars and columns alike
# --------------------------------------------------------------------- #


def elementwise_min(a: Any, b: Any) -> Any:
    """``min(a, b)`` for scalars, :func:`numpy.minimum` for columns."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def elementwise_max(a: Any, b: Any) -> Any:
    """``max(a, b)`` for scalars, :func:`numpy.maximum` for columns."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def per_value(fn: Callable[..., Any], *columns: Any) -> Any:
    """``fn(*columns)`` for scalars; for columns, ``fn`` runs once per
    distinct combination of Python scalars and the results broadcast
    back, for arithmetic numpy cannot reproduce bit for bit (big-integer
    ``math.comb``, ``int ** negative``)."""
    if not any(isinstance(c, np.ndarray) for c in columns):
        return fn(*columns)
    keys = list(zip(*(a.tolist() for a in np.broadcast_arrays(*columns))))
    memo: Dict[Any, Any] = {}
    for key in keys:
        if key not in memo:
            memo[key] = fn(*key)
    return np.array([memo[key] for key in keys])
