"""Spec forms of the paper's chain families (Figures 1-10 + appendix).

This module is the declarative layer of the compile--bind--solve
pipeline: each of the nine configuration families is expressed once as a
:class:`~repro.core.spec.ModelSpec` whose edge rates are symbolic
expressions over the paper's parameters (``lambda_N``, ``lambda_d``,
``mu_N``, ``mu_d``, the ``h``-with-subscript probabilities, ``k_t``,
...), and the companion ``*_env`` functions turn the legacy builder
arguments into binding environments — scalars for a single chain, numpy
arrays for a whole lattice in one :meth:`CompiledChain.bind_batch` pass.

Bit-exactness: every spec below is a line-for-line transcription of the
corresponding hand-written builder in :mod:`repro.models.no_raid`,
:mod:`repro.models.internal_raid`, :mod:`repro.models.raid` and
:mod:`repro.models.recursive` — same state registration order (which
fixes the generator layout and the GTH elimination order), same rate
formulas in the same operation order, same clamping.  The legacy
builders are kept as ``legacy_build_*`` oracles and the test suite
asserts bitwise generator equality between both paths for every family.
The detection-latency spec has no legacy builder left; its generators
are pinned bitwise by frozen fixtures instead.

Specs are memoized per structural signature (family + fault tolerance +
flags) and their compiled forms live in a module-level
:class:`~repro.core.spec.CompiledSpecCache`, so a figure sweep compiles
each shape exactly once no matter how many points it binds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Union

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
    "recursive_spec",
    "recursive_env",
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

# Absorbing-state labels; textual duplicates of the constants in
# repro.models.raid / no_raid (importing them would be circular — those
# modules wrap the specs defined here).
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
# no internal RAID, fault tolerance 1-3 (Figures 8, 9, 10)
# --------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def no_raid_spec(fault_tolerance: int) -> ModelSpec:
    """Figure 8/9/10 as a spec; parameters ``n, d, lambda_N, lambda_d,
    mu_N, mu_d`` plus one ``h_<word>`` per failure word of the tolerance.
    """
    if fault_tolerance not in (1, 2, 3):
        raise ValueError(
            "explicit chains exist for fault tolerance 1-3 only; use "
            "recursive_spec for higher tolerance"
        )
    n, d = param("n"), param("d")
    lam_n, lam_d = param("lambda_N"), param("lambda_d")
    mu_n, mu_d = param("mu_N"), param("mu_d")
    b = SpecBuilder()

    if fault_tolerance == 1:
        h_n, h_d = param("h_N"), param("h_d")
        b.add_states("0", "N", "d", LOSS)
        b.add_rate("0", "N", n * lam_n * (1.0 - h_n))
        b.add_rate("0", "d", n * d * lam_d * (1.0 - h_d))
        b.add_rate("0", LOSS, n * (lam_n * h_n + d * lam_d * h_d))
        b.add_rate("N", "0", mu_n)
        b.add_rate("d", "0", mu_d)
        second = (n - 1) * (lam_n + d * lam_d)
        b.add_rate("N", LOSS, second)
        b.add_rate("d", LOSS, second)
        return b.build("no_raid_ft1", initial_state="0")

    if fault_tolerance == 2:
        b.add_states("00", "N0", "d0", "NN", "Nd", "dN", "dd", LOSS)
        b.add_rate("00", "N0", n * lam_n)
        b.add_rate("00", "d0", n * d * lam_d)
        b.add_rate("N0", "00", mu_n)
        b.add_rate("d0", "00", mu_d)
        for first in ("N", "d"):
            root = first + "0"
            h_to_n = param("h_" + first + "N")
            h_to_d = param("h_" + first + "d")
            b.add_rate(root, first + "N", (n - 1) * lam_n * (1.0 - h_to_n))
            b.add_rate(root, first + "d", (n - 1) * d * lam_d * (1.0 - h_to_d))
            b.add_rate(root, LOSS, (n - 1) * (lam_n * h_to_n + d * lam_d * h_to_d))
            b.add_rate(first + "N", root, mu_n)
            b.add_rate(first + "d", root, mu_d)
        third = (n - 2) * (lam_n + d * lam_d)
        for leaf in ("NN", "Nd", "dN", "dd"):
            b.add_rate(leaf, LOSS, third)
        return b.build("no_raid_ft2", initial_state="00")

    mu = {"N": mu_n, "d": mu_d}
    b.add_state("000")
    b.add_rate("000", "N00", n * lam_n)
    b.add_rate("000", "d00", n * d * lam_d)
    b.add_rate("N00", "000", mu_n)
    b.add_rate("d00", "000", mu_d)
    for first in "Nd":
        for second_letter in "Nd":
            state = first + second_letter + "0"
            b.add_rate(
                first + "00",
                state,
                (n - 1) * (lam_n if second_letter == "N" else d * lam_d),
            )
            b.add_rate(state, first + "00", mu[second_letter])
    for prefix in ("NN", "Nd", "dN", "dd"):
        root = prefix + "0"
        h_to_n = param("h_" + prefix + "N")
        h_to_d = param("h_" + prefix + "d")
        b.add_rate(root, prefix + "N", (n - 2) * lam_n * (1.0 - h_to_n))
        b.add_rate(root, prefix + "d", (n - 2) * d * lam_d * (1.0 - h_to_d))
        b.add_rate(root, LOSS, (n - 2) * (lam_n * h_to_n + d * lam_d * h_to_d))
        b.add_rate(prefix + "N", root, mu_n)
        b.add_rate(prefix + "d", root, mu_d)
    fourth = (n - 3) * (lam_n + d * lam_d)
    for first in "Nd":
        for second_letter in "Nd":
            for third_letter in "Nd":
                b.add_rate(first + second_letter + third_letter, LOSS, fourth)
    return b.build("no_raid_ft3", initial_state="000")


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

    Mirrors the legacy builders' validation: the node set must exceed the
    fault tolerance, every ``h``-word must be present, and each ``h`` is
    checked non-negative and clamped to 1.  Values may be scalars or
    per-point arrays.
    """
    _check_nodes(n, d, fault_tolerance)
    _check_words(h, fault_tolerance)
    env: Dict[str, Value] = {
        "n": n,
        "d": d,
        "lambda_N": node_failure_rate,
        "lambda_d": drive_failure_rate,
        "mu_N": node_rebuild_rate,
        "mu_d": drive_rebuild_rate,
    }
    for word in _words(fault_tolerance):
        env["h_" + word] = _clamp_h(h[word])
    return env


# --------------------------------------------------------------------- #
# no internal RAID, arbitrary fault tolerance (appendix recursion)
# --------------------------------------------------------------------- #


def _spec_level(
    b: SpecBuilder,
    prefix: str,
    k: int,
    remaining: int,
    depth: int,
) -> None:
    """Transcription of ``recursive._build_level`` with symbolic rates.

    ``depth`` replaces the legacy ``n_eff`` (= n - depth); everything
    else — recursion order, h-splits, the accumulated duplicate loss
    edge at the critical level — matches line for line.
    """
    n, d = param("n"), param("d")
    lam_n, lam_d = param("lambda_N"), param("lambda_d")
    root = prefix + "0" * remaining
    n_eff = n - depth if depth else n
    if remaining == 0:
        b.add_rate(root, LOSS, (n - k) * (lam_n + d * lam_d))
        return
    mu = {"N": param("mu_N"), "d": param("mu_d")}
    for letter, rate in (("N", lam_n), ("d", d * lam_d)):
        child_prefix = prefix + letter
        child = child_prefix + "0" * (remaining - 1)
        if remaining == 1:
            h_split = param("h_" + child_prefix)
            b.add_rate(root, child, n_eff * rate * (1.0 - h_split))
            b.add_rate(root, LOSS, n_eff * rate * h_split)
        else:
            b.add_rate(root, child, n_eff * rate)
        b.add_rate(child, root, mu[letter])
        _spec_level(b, child_prefix, k, remaining - 1, depth + 1)


@lru_cache(maxsize=None)
def recursive_spec(fault_tolerance: int) -> ModelSpec:
    """The appendix's recursively-doubled chain for arbitrary ``k``."""
    k = fault_tolerance
    if k < 1:
        raise ValueError("fault_tolerance must be >= 1")
    b = SpecBuilder()
    b.add_state("0" * k)
    _spec_level(b, prefix="", k=k, remaining=k, depth=0)
    return b.build(f"recursive_ft{k}", initial_state="0" * k)


def recursive_env(
    fault_tolerance: int,
    n: Value,
    d: Value,
    node_failure_rate: Value,
    drive_failure_rate: Value,
    node_rebuild_rate: Value,
    drive_rebuild_rate: Value,
    h: Mapping[str, Value],
) -> Dict[str, Value]:
    """Binding environment for :func:`recursive_spec`.

    The legacy recursion clamps each h-split into [0, 1] silently
    (``min(max(h, 0), 1)``) rather than rejecting negatives — preserved
    here exactly.
    """
    k = fault_tolerance
    if k < 1:
        raise ValueError("fault_tolerance must be >= 1")
    _check_nodes(n, d, k)
    missing = [w for w in _words(k) if w not in h]
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
    for word in _words(k):
        value = h[word]
        if isinstance(value, np.ndarray):
            env["h_" + word] = np.minimum(np.maximum(value, 0.0), 1.0)
        else:
            env["h_" + word] = min(max(value, 0.0), 1.0)
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

    ``parallel_repair`` reproduces the scheduling ablation of the legacy
    builder: repair out of state ``j+1`` runs at ``(j+1) mu_N`` instead
    of ``mu_N``.
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
        recursive_spec(4),
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
        if config.node_fault_tolerance <= 3:
            return no_raid_spec(config.node_fault_tolerance)
        return recursive_spec(config.node_fault_tolerance)
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
# shared validation helpers (mirroring the legacy builders')
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


def _check_words(h: Mapping[str, Value], k: int) -> None:
    expected = 2**k
    if len(h) < expected:
        raise ValueError(f"need all {expected} h-parameters for fault tolerance {k}")


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


def _words(k: int):
    words = [""]
    for _ in range(k):
        words = [w + letter for w in words for letter in "Nd"]
    return words
