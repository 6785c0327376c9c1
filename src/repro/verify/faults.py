"""Fault injection: prove failures degrade to recomputation.

Three accelerators — the Monte-Carlo estimates' on-disk cache, the
process-wide compiled-spec cache and the Monte-Carlo replica pool —
promise they can *never* change a result, only its cost.  This module
attacks each one and checks the promise:

* every estimate-cache entry is corrupted (garbage bytes), truncated, or
  replaced with a schema-mismatched payload between a warm-up estimate
  and a re-read (:func:`repro.sim.monte_carlo.cached_estimate`, the
  path ``repro-validate`` reads);
* the process-wide compiled-spec cache
  (:func:`repro.models.specs.compiled_cache`) is poisoned: every entry
  is replaced with a compiled chain whose structure does not match the
  hash it is stored under, which the cache must detect (its per-lookup
  hash check) and recompile from the spec;
* Monte-Carlo pool workers are killed (``os._exit``) the moment they
  pick up a chunk of replicas, via the
  :data:`~repro.runtime.faultpoints.POOL_WORKER_START` fault point.

After each attack the results must be **bitwise identical** to a
serial, cache-less reference run.  :func:`fault_drill` runs the whole
battery and is registered as the ``engine-fault-degradation`` invariant.
"""

from __future__ import annotations

import contextlib
import logging
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.spec import CompiledChain, ModelSpec, param
from ..engine.cache import DiskCache
from ..engine.sweep import SweepEngine
from ..models.configurations import Configuration
from ..models.parameters import Parameters
from ..models.specs import compiled_cache
from ..runtime import faultpoints
from ..runtime.chunks import MIN_TASKS_FOR_POOL
from ..sim.monte_carlo import (
    accelerated_parameters,
    cached_estimate,
    estimate_payload_valid,
)
from .oracles import MC_SYSTEM_OVERRIDES
from .registry import VerifyContext, Violation, invariant

__all__ = [
    "CACHE_CORRUPTION_MODES",
    "corrupt_cache_dir",
    "fault_drill",
    "kill_worker_action",
    "poison_spec_cache",
]

#: The on-disk damage patterns the drill (and the regression tests) plant.
CACHE_CORRUPTION_MODES = ("garbage", "truncate", "schema", "non-dict")


def corrupt_cache_dir(directory, mode: str = "garbage") -> int:
    """Damage every ``*.json`` entry under ``directory``; returns a count.

    Modes: ``"garbage"`` (unparseable bytes), ``"truncate"`` (cut the
    JSON mid-token), ``"schema"`` (valid dict, wrong layout), and
    ``"non-dict"`` (valid JSON that is not an object).
    """
    if mode not in CACHE_CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; use one of "
            f"{CACHE_CORRUPTION_MODES}"
        )
    damaged = 0
    for entry in Path(directory).glob("*.json"):
        if mode == "garbage":
            entry.write_bytes(b"\x00\xffnot json at all\xfe")
        elif mode == "truncate":
            text = entry.read_text(encoding="utf-8")
            entry.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")
        elif mode == "schema":
            entry.write_text('{"mean_hours": 1.0}', encoding="utf-8")
        else:  # non-dict
            entry.write_text("[1, 2, 3]", encoding="utf-8")
        damaged += 1
    return damaged


def kill_worker_action(exit_code: int = 17) -> Callable[[], None]:
    """An action for :data:`~repro.runtime.faultpoints.POOL_WORKER_START`
    that kills the worker process outright.

    ``os._exit`` skips every cleanup handler — exactly how the OOM killer
    or a SIGKILL would take a worker down — so the pool sees a broken
    process, not a tidy exception.
    """

    def kill() -> None:
        os._exit(exit_code)

    return kill


def poison_spec_cache(cache) -> int:
    """Replace every entry of a ``CompiledSpecCache`` with a compiled
    chain whose structure does not match the hash it is stored under.

    A correct cache must notice the mismatch on the next lookup (its
    per-lookup ``entry.spec_hash == key`` check), count a
    ``structure_rebuilds`` and recompile from the spec; a cache that
    blindly trusts its key would solve a two-state decoy chain instead of
    the real model.  Returns the number of entries poisoned.
    """
    decoy: CompiledChain = ModelSpec(
        name="verify-poison-decoy",
        states=("up", "down"),
        edges=(("up", "down", param("x")),),
        initial_state="up",
    ).compile()
    poisoned = 0
    for key in list(cache._chains):
        cache._chains[key] = decoy
        poisoned += 1
    return poisoned


# --------------------------------------------------------------------- #
# the drill
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def _muted(*logger_names: str):
    """Mute the named loggers' warnings while the drill does damage on
    purpose — the rejections and recoveries are the point, not an
    incident."""
    loggers = [logging.getLogger(name) for name in logger_names]
    previous = [logger.level for logger in loggers]
    for logger in loggers:
        logger.setLevel(logging.CRITICAL)
    try:
        yield
    finally:
        for logger, level in zip(loggers, previous):
            logger.setLevel(level)


def _mttdls(engine: SweepEngine, pairs) -> Dict[str, float]:
    results = engine.evaluate_many(pairs)
    return {config.key: r.mttdl_hours for (config, _), r in zip(pairs, results)}


def fault_drill(
    configs: Sequence[Configuration],
    params: Optional[Parameters] = None,
    *,
    jobs: int = 4,
) -> Tuple[int, List[Violation]]:
    """Run the full fault battery; returns ``(scenarios, violations)``.

    The poisoned-spec scenario must reproduce a serial run of
    ``configs`` at ``params`` bitwise.  The Monte-Carlo scenarios
    simulate ``configs[0]`` at the Monte-Carlo oracle's operating point:
    the corrupted-cache re-reads and the killed-worker run with ``jobs``
    workers must each reproduce the serial cache-less estimate bitwise.
    """
    if params is None:
        params = Parameters.baseline()
    pairs = [(config, params) for config in configs]
    violations: List[Violation] = []
    checked = 0

    def compare(scenario: str, observed, expected, extra: Dict) -> None:
        nonlocal checked
        checked += 1
        if observed != expected:
            violations.append(
                Violation(
                    invariant="engine-fault-degradation",
                    message=f"{scenario}: results differ from the serial run",
                    details={**extra, "expected": expected, "observed": observed},
                )
            )

    accelerated = accelerated_parameters(
        params.replace(**MC_SYSTEM_OVERRIDES), 200.0
    )

    def estimate(width: int, cache: Optional[DiskCache] = None) -> Tuple:
        # MIN_TASKS_FOR_POOL: the fewest replicas that engage the pool.
        mc = cached_estimate(
            configs[0], accelerated, MIN_TASKS_FOR_POOL, 0, width, cache
        )
        return (mc.mean_hours, mc.std_error_hours, mc.loss_causes)

    serial = estimate(1)

    # -- estimate-cache corruption: warm the cache, damage it, re-read. - #
    with _muted("repro.engine.cache"):
        for mode in CACHE_CORRUPTION_MODES:
            tmp = tempfile.mkdtemp(prefix="repro-verify-cache-")
            try:
                cache = DiskCache(tmp, validator=estimate_payload_valid)
                estimate(1, cache)  # warm
                corrupt_cache_dir(tmp, mode)
                compare(
                    f"cache corruption ({mode})",
                    estimate(1, cache),
                    serial,
                    {"mode": mode, "rejected_entries": cache.rejected},
                )
                # The damaged entry must have been overwritten with the
                # good value: a third read must be a hit and still agree.
                hits_before = cache.hits
                compare(
                    f"cache overwrite after corruption ({mode})",
                    estimate(1, cache),
                    serial,
                    {"mode": mode, "hits": cache.hits - hits_before},
                )
            finally:
                shutil.rmtree(tmp, ignore_errors=True)

    # -- killed Monte-Carlo pool workers -------------------------------- #
    with _muted("repro.runtime.chunks"), faultpoints.injected(
        faultpoints.POOL_WORKER_START, kill_worker_action()
    ):
        observed = estimate(jobs)
    compare("killed pool workers", observed, serial, {"jobs": jobs})

    # -- poisoned compiled-spec cache ---------------------------------- #
    specs = compiled_cache()
    engine = SweepEngine(params)
    reference = _mttdls(engine, pairs)  # the engine's chains are now cached
    originals = [chain.spec for chain in specs._chains.values()]
    rebuilds_before = specs.structure_rebuilds
    poisoned = poison_spec_cache(specs)
    observed_mttdls = _mttdls(engine, pairs)
    # Look every other poisoned entry up too (the cache is process-wide:
    # ``repro.evaluate`` and earlier runs left theirs), so each one must
    # be detected and none survives the drill.
    for spec in originals:
        specs.get_or_compile(spec)
    counts = {"entries_poisoned": poisoned,
              "rebuilds_detected": specs.structure_rebuilds - rebuilds_before}
    compare("poisoned compiled-spec cache", observed_mttdls, reference, counts)
    if counts["rebuilds_detected"] < poisoned:
        violations.append(
            Violation(
                invariant="engine-fault-degradation",
                message="poisoned compiled-spec cache: mismatched entries "
                "were not detected as structure rebuilds",
                details=counts,
            )
        )

    return checked, violations


@invariant(
    "engine-fault-degradation",
    "Corrupted/truncated/schema-mismatched Monte-Carlo estimate-cache "
    "entries, a poisoned process-wide compiled-spec cache and killed "
    "Monte-Carlo pool workers all degrade to correct recomputation: "
    "results stay bitwise identical to a serial run.",
    tags=("engine", "faults", "smoke"),
)
def check_engine_fault_degradation(ctx: VerifyContext) -> Tuple[int, List[Violation]]:
    return fault_drill(ctx.configs, ctx.base, jobs=max(2, ctx.mc_jobs))
