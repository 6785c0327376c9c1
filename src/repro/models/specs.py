"""Spec forms of the paper's chain families (Figures 1-10 + appendix).

This module is the declarative layer of the compile--bind--solve
pipeline: each of the nine configuration families is expressed once as a
:class:`~repro.core.spec.ModelSpec` whose edge rates are symbolic
expressions over the paper's parameters (``lambda_N``, ``lambda_d``,
``mu_N``, ``mu_d``, the ``h``-with-subscript probabilities, ``k_t``,
...), and the companion ``*_env`` functions turn the builders' raw
arguments into binding environments — scalars for a single chain, numpy
arrays for a whole lattice in one :meth:`CompiledChain.bind_batch` pass.

Bit-exactness: each spec reproduces the state registration order (which
fixes the generator layout and the GTH elimination order), rate formulas
in the same operation order, and clamping of the hand-written builders
it replaced.  Those builders' chains are frozen in
``tests/data/oracle_chains.json`` (and the detection-latency chains in
``tests/data/detection_chains.json``), and the test suite compares the
specs with them: bitwise for Figures 1, 4, 5-7, 8 and 10; for Figure 9
by label (``"loss"`` registers after ``"Nd"``, not last), with bitwise
off-diagonal rates and MTTDL; and within a few ulp per rate against the
appendix-literal recursion, up to ``k = 6``.

Specs are memoized per structural signature (family + fault tolerance +
flags) and their compiled forms live in a module-level
:class:`~repro.core.spec.CompiledSpecCache`, so a figure sweep compiles
each shape exactly once no matter how many points it binds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Tuple, Union

import numpy as np

from ..core.spec import (
    CompiledChain,
    CompiledSpecCache,
    ModelSpec,
    SpecBuilder,
    param,
)

__all__ = [
    "LOSS",
    "LOSS_DRIVES",
    "LOSS_SECTOR",
    "no_raid_spec",
    "no_raid_env",
    "internal_raid_spec",
    "internal_raid_env",
    "detection_spec",
    "detection_env",
    "raid5_spec",
    "raid6_spec",
    "raid_env",
    "compiled",
    "compiled_cache",
    "all_family_specs",
    "spec_for_key",
    "spec_hash_index",
    "check_node_count",
]

# Absorbing-state labels.
LOSS = "loss"
LOSS_DRIVES = "loss-drives"
LOSS_SECTOR = "loss-sector"

Value = Union[int, float, np.ndarray]


# --------------------------------------------------------------------- #
# the compiled-spec cache shared by the thin builder wrappers
# --------------------------------------------------------------------- #

_COMPILED = CompiledSpecCache()


def compiled(spec: ModelSpec) -> CompiledChain:
    """The compiled form of ``spec`` from the module-level cache."""
    return _COMPILED.get_or_compile(spec)


def compiled_cache() -> CompiledSpecCache:
    """The module-level :class:`CompiledSpecCache` (counters included)."""
    return _COMPILED


# --------------------------------------------------------------------- #
# no internal RAID, any fault tolerance (Figures 8-10 + appendix)
# --------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def no_raid_spec(fault_tolerance: int) -> ModelSpec:
    """The no-internal-RAID chain for fault tolerance ``k`` as a spec;
    parameters ``n, d, lambda_N, lambda_d, mu_N, mu_d`` plus one
    ``h_<word>`` per failure word of length ``k``.

    The appendix's doubling (the ``k`` chain is two copies of the
    ``k - 1`` chain under a new root), emitted one level at a time from
    the root (``j = 0``) down: Figures 8, 9 and 10 are its ``k = 1, 2,
    3`` cases, with their state order and rate operand order.  States
    are failure words: a prefix over {N, d} padded with ``"0"``s.
    """
    k = fault_tolerance
    if k < 1:
        raise ValueError("fault_tolerance must be >= 1")
    n, d = param("n"), param("d")
    lam_n, lam_d = param("lambda_N"), param("lambda_d")
    mu = {"N": param("mu_N"), "d": param("mu_d")}
    b = SpecBuilder()
    prefixes = [""]
    for j in range(k):
        m = n - j if j else n
        pad = "0" * (k - 1 - j)
        for prefix in prefixes:
            root = prefix + "0" + pad
            if j == k - 1:
                # Critical level: the next failure's rebuild may hit a
                # hard error, split off by h.
                h_n = param("h_" + prefix + "N")
                h_d = param("h_" + prefix + "d")
                b.add_rate(root, prefix + "N", m * lam_n * (1.0 - h_n))
                b.add_rate(root, prefix + "d", m * d * lam_d * (1.0 - h_d))
                b.add_rate(root, LOSS, m * (lam_n * h_n + d * lam_d * h_d))
            else:
                # Figure 10's operand order: (n d) lambda_d at the root,
                # m (d lambda_d) below it.
                drive = m * (d * lam_d) if j else n * d * lam_d
                b.add_rate(root, prefix + "N" + pad, m * lam_n)
                b.add_rate(root, prefix + "d" + pad, drive)
            for letter in "Nd":
                b.add_rate(prefix + letter + pad, root, mu[letter])
        prefixes = [prefix + letter for prefix in prefixes for letter in "Nd"]
    last = (n - k) * (lam_n + d * lam_d)
    for leaf in prefixes:
        b.add_rate(leaf, LOSS, last)
    return b.build(f"no_raid_ft{k}", initial_state="0" * k)


def no_raid_env(
    fault_tolerance: int,
    n: Value,
    d: Value,
    node_failure_rate: Value,
    drive_failure_rate: Value,
    node_rebuild_rate: Value,
    drive_rebuild_rate: Value,
    h: Mapping[str, Value],
) -> Dict[str, Value]:
    """Binding environment for :func:`no_raid_spec`.

    The node set must exceed the fault tolerance, every ``h``-word must
    be present (missing ones are named), and each ``h`` is checked
    non-negative and clamped to 1.  Values may be scalars or per-point
    arrays.
    """
    if fault_tolerance < 1:
        raise ValueError("fault_tolerance must be >= 1")
    _check_nodes(n, d, fault_tolerance)
    words = _words(fault_tolerance)
    missing = [w for w in words if w not in h]
    if missing:
        raise ValueError(f"missing h-parameters for words: {missing[:4]}...")
    env: Dict[str, Value] = {
        "n": n,
        "d": d,
        "lambda_N": node_failure_rate,
        "lambda_d": drive_failure_rate,
        "mu_N": node_rebuild_rate,
        "mu_d": drive_rebuild_rate,
    }
    for word in words:
        env["h_" + word] = _clamp_h(h[word])
    return env


# --------------------------------------------------------------------- #
# internal RAID node-level chains (Figures 5-7)
# --------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def internal_raid_spec(
    fault_tolerance: int, parallel_repair: bool = False
) -> ModelSpec:
    """Figure 5/6/7 as a spec; parameters ``n, lambda_N, lambda_D,
    lambda_S, mu_N, k_t``.

    ``parallel_repair`` is the scheduling ablation: repair out of state
    ``j+1`` runs at ``(j+1) mu_N`` instead of ``mu_N``.
    """
    if fault_tolerance < 1:
        raise ValueError("fault_tolerance must be >= 1")
    n, mu_n = param("n"), param("mu_N")
    lam = param("lambda_N") + param("lambda_D")
    b = SpecBuilder()
    for j in range(fault_tolerance):
        b.add_rate(j, j + 1, (n - j) * lam if j else n * lam)
        b.add_rate(j + 1, j, mu_n * (j + 1) if parallel_repair else mu_n)
    final_rate = lam + param("k_t") * param("lambda_S")
    b.add_rate(fault_tolerance, LOSS, (n - fault_tolerance) * final_rate)
    suffix = "_parallel" if parallel_repair else ""
    return b.build(f"internal_raid_t{fault_tolerance}{suffix}", initial_state=0)


def internal_raid_env(
    fault_tolerance: int,
    n: Value,
    node_failure_rate: Value,
    array_failure_rate: Value,
    restripe_sector_loss_rate: Value,
    node_rebuild_rate: Value,
    critical_sector_fraction: Value,
) -> Dict[str, Value]:
    """Binding environment for :func:`internal_raid_spec`."""
    if fault_tolerance < 1:
        raise ValueError("fault_tolerance must be >= 1")
    check_node_count(n, fault_tolerance)
    return {
        "n": n,
        "lambda_N": node_failure_rate,
        "lambda_D": array_failure_rate,
        "lambda_S": restripe_sector_loss_rate,
        "mu_N": node_rebuild_rate,
        "k_t": critical_sector_fraction,
    }


# --------------------------------------------------------------------- #
# internal RAID with a failure-detection stage (beyond the paper)
# --------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def detection_spec(fault_tolerance: int) -> ModelSpec:
    """The Figure 5/6/7 chain with an explicit detection stage; parameters
    as :func:`internal_raid_spec` plus ``delta`` (1 / detection latency).

    Degraded level ``j`` splits into ``(j, "u")`` (failure not yet
    detected, no repair) and ``(j, "r")`` (rebuild running); ``(0, "r")``
    is the all-up state.
    """
    if fault_tolerance < 1:
        raise ValueError("fault_tolerance must be >= 1")
    t = fault_tolerance
    n, mu_n, delta = param("n"), param("mu_N"), param("delta")
    lam = param("lambda_N") + param("lambda_D")
    b = SpecBuilder().add_state((0, "r"))
    for j in range(t + 1):
        if j < t:
            arrivals = (n - j) * lam if j else n * lam
            sources = [(j, "r")] if j == 0 else [(j, "u"), (j, "r")]
            for source in sources:
                b.add_rate(source, (j + 1, "u"), arrivals)
        else:
            final = lam + param("k_t") * param("lambda_S")
            for tag in ("u", "r"):
                b.add_rate((j, tag), LOSS, (n - j) * final)
        if j >= 1:
            b.add_rate((j, "u"), (j, "r"), delta)
            b.add_rate((j, "r"), (j - 1, "r"), mu_n)
    return b.build(f"detection_t{t}", initial_state=(0, "r"))


def detection_env(
    fault_tolerance: int,
    n: Value,
    node_failure_rate: Value,
    array_failure_rate: Value,
    restripe_sector_loss_rate: Value,
    node_rebuild_rate: Value,
    critical_sector_fraction: Value,
    detection_rate: Value,
) -> Dict[str, Value]:
    """Binding environment for :func:`detection_spec`."""
    env = internal_raid_env(
        fault_tolerance,
        n,
        node_failure_rate,
        array_failure_rate,
        restripe_sector_loss_rate,
        node_rebuild_rate,
        critical_sector_fraction,
    )
    rate = np.asarray(detection_rate)
    if not np.all((rate > 0) & np.isfinite(rate)):
        raise ValueError("detection rate must be finite and positive")
    env["delta"] = detection_rate
    return env


# --------------------------------------------------------------------- #
# drive-level RAID 5 / RAID 6 array chains (Figures 1 and 4)
# --------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def raid5_spec(split_loss: bool = False) -> ModelSpec:
    """Figure 1 (RAID 5 array) as a spec; parameters ``d, lambda_d,
    mu_d, h``."""
    d, lam, mu, h = param("d"), param("lambda_d"), param("mu_d"), param("h")
    sector, drives = (LOSS_SECTOR, LOSS_DRIVES) if split_loss else (LOSS, LOSS)
    b = SpecBuilder().add_states(0, 1)
    b.add_rate(0, 1, d * lam * (1.0 - h))
    b.add_rate(0, sector, d * lam * h)
    b.add_rate(1, 0, mu)
    b.add_rate(1, drives, (d - 1) * lam)
    suffix = "_split" if split_loss else ""
    return b.build(f"raid5{suffix}", initial_state=0)


@lru_cache(maxsize=None)
def raid6_spec(split_loss: bool = False) -> ModelSpec:
    """Figure 4 (RAID 6 array) as a spec; parameters as RAID 5."""
    d, lam, mu, h = param("d"), param("lambda_d"), param("mu_d"), param("h")
    sector, drives = (LOSS_SECTOR, LOSS_DRIVES) if split_loss else (LOSS, LOSS)
    b = SpecBuilder().add_states(0, 1, 2)
    b.add_rate(0, 1, d * lam)
    b.add_rate(1, 0, mu)
    b.add_rate(1, 2, (d - 1) * lam * (1.0 - h))
    b.add_rate(1, sector, (d - 1) * lam * h)
    b.add_rate(2, 1, mu)
    b.add_rate(2, drives, (d - 2) * lam)
    suffix = "_split" if split_loss else ""
    return b.build(f"raid6{suffix}", initial_state=0)


def raid_env(
    d: Value,
    drive_failure_rate: Value,
    restripe_rate: Value,
    hard_error_probability: Value,
    *,
    minimum_drives: int,
) -> Dict[str, Value]:
    """Binding environment for :func:`raid5_spec` / :func:`raid6_spec`."""
    if np.any(np.asarray(d) < minimum_drives):
        raise ValueError(f"array needs at least {minimum_drives} drives, got {d}")
    return {
        "d": d,
        "lambda_d": drive_failure_rate,
        "mu_d": restripe_rate,
        "h": _clamp_h(hard_error_probability),
    }


# --------------------------------------------------------------------- #


def all_family_specs() -> Dict[str, ModelSpec]:
    """Every distinct spec shape the nine configurations use, by name.

    The drive-level RAID specs appear in both plain and split-loss form
    (the latter backs the ``rates_method="exact"`` path and the
    monolithic model's array solves).
    """
    specs = [
        no_raid_spec(1),
        no_raid_spec(2),
        no_raid_spec(3),
        internal_raid_spec(1),
        internal_raid_spec(2),
        internal_raid_spec(3),
        raid5_spec(),
        raid5_spec(split_loss=True),
        raid6_spec(),
        raid6_spec(split_loss=True),
        no_raid_spec(4),
    ]
    return {spec.name: spec for spec in specs}


@lru_cache(maxsize=None)
def spec_for_key(config_key: str) -> ModelSpec:
    """The node-level spec for a configuration key (e.g. ``"ft2_raid5"``).

    The spec's *structure* depends only on the configuration family and
    fault tolerance, never on the operating point, so a configuration key
    alone pins the spec — and therefore the
    :attr:`~repro.core.spec.ModelSpec.spec_hash` that
    batched solves group on.  The serving layer uses this to coalesce
    concurrent requests into per-spec-hash solve groups *before* building
    any models or binding environments.

    Raises :class:`ValueError` for a malformed key (via
    :meth:`Configuration.from_key`).
    """
    from .configurations import Configuration
    from .raid import InternalRaid

    config = Configuration.from_key(config_key)
    if config.internal is InternalRaid.NONE:
        return no_raid_spec(config.node_fault_tolerance)
    return internal_raid_spec(config.node_fault_tolerance)


def spec_hash_index(max_fault_tolerance: int = 3) -> Dict[str, str]:
    """Configuration key -> spec hash, for the standard configuration grid.

    Nine configurations share six distinct spec shapes (the internal-RAID
    chain's structure does not depend on the RAID level — only its bound
    rates do), so the index maps nine keys onto six hashes at the default
    grid.
    """
    from .configurations import all_configurations

    return {
        config.key: spec_for_key(config.key).spec_hash
        for config in all_configurations(max_fault_tolerance)
    }


# --------------------------------------------------------------------- #
# shared validation helpers
# --------------------------------------------------------------------- #


def check_node_count(n: Value, t: int) -> None:
    """Reject a node set (scalar or column) no larger than the fault
    tolerance ``t``."""
    # Scalar fast path: single-point binds dominate, and ndarray coercion
    # is ~10x the cost of the comparison itself.
    if isinstance(n, (int, float)) and n > t:
        return
    if np.any(np.asarray(n) <= t):
        raise ValueError("node set must be larger than the fault tolerance")


def _check_nodes(n: Value, d: Value, t: int) -> None:
    check_node_count(n, t)
    if isinstance(d, (int, float)) and d >= 1:
        return
    if np.any(np.asarray(d) < 1):
        raise ValueError("need at least one drive per node")


def _clamp_h(h: Value) -> Value:
    if isinstance(h, (int, float)):  # scalar fast path (np.float64 included)
        if h < 0:
            raise ValueError(f"hard error probability must be >= 0, got {h}")
        return min(h, 1.0)
    if np.any(np.asarray(h) < 0):
        raise ValueError(f"hard error probability must be >= 0, got {h}")
    if isinstance(h, np.ndarray):
        return np.minimum(h, 1.0)
    return min(h, 1.0)


@lru_cache(maxsize=None)
def _words(k: int) -> Tuple[str, ...]:
    """The length-``k`` failure words, N before d at every position."""
    words = [""]
    for _ in range(k):
        words = [w + letter for w in words for letter in "Nd"]
    return tuple(words)
