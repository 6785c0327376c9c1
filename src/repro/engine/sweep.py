"""The sweep engine.

:class:`SweepEngine` evaluates batches of (configuration, parameters)
points in-process with two accelerators — compiled-spec binding (plus
the array-rates memo) and an optional on-disk result cache — while
guaranteeing the exact floats of the pre-engine point-by-point code (see
:mod:`repro.engine.solver` for why every path is bitwise-deterministic).

The engine takes plain point lists; which points to evaluate is the
caller's business.  One-axis figure sweeps go through
:func:`repro.analysis.sweep` with ``engine=`` (grouped by
:func:`repro.analysis.sweep_to_figure`), design grids through
:func:`repro.advise`.  Typical use::

    engine = SweepEngine(cache=True)
    results = engine.evaluate_many(
        [(config, params.replace(drive_mttf_hours=x))
         for x in (100_000, 300_000, 750_000)
         for config in sensitivity_configurations()]
    )
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..core.solvers import DEFAULT_SOLVE_OPTIONS, SolveOptions
from ..models.configurations import Configuration
from ..models.metrics import ReliabilityResult
from ..models.parameters import Parameters
from .. import __version__, obs
from .cache import DEFAULT_CACHE_DIR, DiskCache
from .keys import point_key
from .result import EngineProvenance
from .solver import SolveContext, evaluate_chunk, normalize_method

__all__ = ["SweepEngine", "point_payload_valid"]


def point_payload_valid(payload: dict) -> bool:
    """Schema check for cached sweep-point payloads.

    A stored entry must carry a finite numeric ``mttdl_hours``; anything
    else (an old layout, a truncated write that still parses, a foreign
    file) is treated as a cache miss and overwritten.
    """
    mttdl = payload.get("mttdl_hours")
    return isinstance(mttdl, (int, float)) and not isinstance(mttdl, bool)


class SweepEngine:
    """Evaluates configuration/parameter grids fast and reproducibly.

    Args:
        base_params: default baseline for :meth:`evaluate` (the paper's
            Section 6 baseline when omitted).
        jobs: must be 1.  The engine always evaluates in-process (the
            widest sweep here is milliseconds of work, far below a
            process pool's start-up cost); Monte-Carlo replica fan-out
            is :func:`repro.sim.estimate_mttdl`'s ``jobs``.
        cache: on-disk result cache: ``False`` (off), ``True`` (default
            directory ``.repro_cache/``), a directory path, or a
            :class:`DiskCache` instance.
        method: default evaluation method ("analytic" or "closed_form";
            "exact"/"approx" accepted as aliases).
        options: default :class:`~repro.core.solvers.SolveOptions` for
            every evaluation — solver backend, array-rates derivation
            and iterative tolerances.  Non-default options participate
            in disk-cache keys, so switching backends never reads a
            stale entry.
    """

    def __init__(
        self,
        base_params: Optional[Parameters] = None,
        *,
        jobs: int = 1,
        cache: Union[bool, str, Path, DiskCache] = False,
        method: str = "analytic",
        options: Optional[SolveOptions] = None,
    ) -> None:
        if jobs != 1:
            raise ValueError(
                f"SweepEngine evaluates in-process; jobs must be 1, got "
                f"{jobs!r} (for Monte-Carlo replica fan-out use "
                "repro.sim.estimate_mttdl(jobs=...))"
            )
        self._base = base_params if base_params is not None else Parameters.baseline()
        self._method = normalize_method(method)
        self._options = DEFAULT_SOLVE_OPTIONS if options is None else options
        if isinstance(cache, DiskCache):
            self._cache: Optional[DiskCache] = cache
        elif cache is True:
            self._cache = DiskCache(DEFAULT_CACHE_DIR, validator=point_payload_valid)
        elif cache:
            self._cache = DiskCache(cache, validator=point_payload_valid)
        else:
            self._cache = None
        self._ctx = SolveContext()
        self.metrics = obs.Metrics()
        self._points_counter = self.metrics.counter("engine.points")
        self._batches_counter = self.metrics.counter("engine.batches")

    # ------------------------------------------------------------------ #
    # properties / stats
    # ------------------------------------------------------------------ #

    @property
    def base_params(self) -> Parameters:
        return self._base

    @property
    def cache(self) -> Optional[DiskCache]:
        return self._cache

    def provenance(self, method: Optional[str] = None) -> EngineProvenance:
        """A snapshot of the engine's settings and cumulative counters."""
        stats = self._ctx.stats()
        return EngineProvenance(
            method=normalize_method(method) if method else self._method,
            cache_enabled=self._cache is not None,
            cache_hits=self._cache.hits if self._cache else 0,
            cache_misses=self._cache.misses if self._cache else 0,
            spec_hits=stats["spec_hits"],
            spec_misses=stats["spec_misses"],
            array_hits=stats["array_hits"],
            array_misses=stats["array_misses"],
            spec_hashes=tuple(sorted(self._ctx.spec_hashes())),
            engine=f"repro.engine/{__version__}",
        )

    def metrics_snapshot(self) -> obs.Metrics:
        """Every counter this engine touched, merged into one registry.

        Folds the engine's own tallies (batches, points), the disk
        cache's registry and the solve context's registry (compiled-spec
        cache + array memo) — the ``metrics.json`` payload for a sweep
        run.
        """
        merged = obs.Metrics()
        merged.merge(self.metrics)
        merged.merge(self._ctx.metrics)
        if self._cache is not None:
            merged.merge(self._cache.metrics)
        return merged

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        config: Configuration,
        params: Optional[Parameters] = None,
        *,
        method: Optional[str] = None,
        options: Optional[SolveOptions] = None,
    ) -> ReliabilityResult:
        """Evaluate a single point (engine-accelerated, cacheable)."""
        return self.evaluate_many(
            [(config, params if params is not None else self._base)],
            method=method,
            options=options,
        )[0]

    def evaluate_many(
        self,
        pairs: Sequence[Tuple[Configuration, Parameters]],
        *,
        method: Optional[str] = None,
        options: Optional[SolveOptions] = None,
    ) -> List[ReliabilityResult]:
        """Evaluate many (configuration, parameters) points, in order.

        The disk cache is consulted first; remaining points are evaluated
        in one batch through the engine's persistent memos.  Under the
        default options, outputs are bitwise identical to
        ``config.reliability(params, method)`` for every point;
        non-default options reroute the solve through the selected
        backend and contribute to the cache key.
        """
        method = normalize_method(method) if method else self._method
        options = self._options if options is None else options
        if method == "monte_carlo":
            raise ValueError(
                "SweepEngine evaluates analytic/closed-form points; use "
                "repro.evaluate(..., options=SolveOptions("
                "backend='monte_carlo')) or "
                "repro.sim.estimate_mttdl for simulation"
            )
        pairs = list(pairs)
        with obs.span(
            "engine.evaluate_many", points=len(pairs), method=method
        ) as batch_span:
            self._batches_counter.inc()
            self._points_counter.inc(len(pairs))
            mttdls: List[Optional[float]] = [None] * len(pairs)

            # Default options add no key material, so pre-options cache
            # entries (and every default-path run) keep their keys.
            key_extra = (
                None
                if options.is_default()
                else {"solve_options": options.cache_key()}
            )

            miss_indices: List[int] = []
            miss_keys: List[Optional[str]] = []
            if self._cache is not None:
                with obs.span("engine.cache.lookup", points=len(pairs)):
                    for i, (config, params) in enumerate(pairs):
                        key = point_key(config, params, method, key_extra)
                        payload = self._cache.get(key)
                        if payload is not None and point_payload_valid(payload):
                            mttdls[i] = float(payload["mttdl_hours"])
                        else:
                            miss_indices.append(i)
                            miss_keys.append(key)
            else:
                miss_indices = list(range(len(pairs)))
                miss_keys = [None] * len(pairs)

            tasks = [
                (pairs[i][0], pairs[i][1], method) for i in miss_indices
            ]
            if tasks:
                with obs.span("engine.dispatch", tasks=len(tasks)):
                    computed = evaluate_chunk(tasks, self._ctx, options)
                for slot, key, mttdl in zip(miss_indices, miss_keys, computed):
                    mttdls[slot] = mttdl
                if self._cache is not None:
                    with obs.span(
                        "engine.cache.store", points=len(miss_indices)
                    ):
                        for key, mttdl in zip(miss_keys, computed):
                            if key is not None:
                                self._cache.put(key, {"mttdl_hours": mttdl})

            results = [
                ReliabilityResult.from_mttdl(mttdl, params)
                for mttdl, (_, params) in zip(mttdls, pairs)
            ]
            batch_span.set("cache_hits", len(pairs) - len(miss_indices))
        return results
