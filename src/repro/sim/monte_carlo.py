"""Monte-Carlo MTTDL estimation.

Runs many independent replicas of the physical failure processes to the
first data-loss event and summarizes the absorption times.  At the
paper's baseline the MTTDL is millions of years, so direct simulation is
run with *accelerated* parameters (failure rates scaled up, the chains
solved with the same parameters) — agreement validates the chain
constructions; the analytic models then extrapolate to the real regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..engine.cache import DiskCache
from ..engine.keys import point_key
from ..runtime.chunks import run_chunks, split_chunks
from ..models.configurations import Configuration
from ..models.parameters import Parameters
from ..models.raid import InternalRaid
from .events import SimulationError, Simulator
from .processes import InternalRaidFailureProcess, NoRaidFailureProcess
from .rng import StreamFactory

__all__ = [
    "MonteCarloResult",
    "EventRateResult",
    "cached_estimate",
    "estimate_mttdl",
    "estimate_event_rate",
    "estimate_payload_valid",
    "accelerated_parameters",
]


@dataclass(frozen=True)
class MonteCarloResult:
    """Summary of a Monte-Carlo MTTDL estimation.

    Attributes:
        mean_hours: sample mean time to data loss.
        std_error_hours: standard error of the mean.
        replicas: number of independent runs.
        loss_causes: tally of loss-cause tags across replicas.
    """

    mean_hours: float
    std_error_hours: float
    replicas: int
    loss_causes: Tuple[Tuple[str, int], ...]

    @property
    def ci95_hours(self) -> Tuple[float, float]:
        half = 1.96 * self.std_error_hours
        return (self.mean_hours - half, self.mean_hours + half)

    def ci_hours(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation confidence interval at any level.

        The replica times are i.i.d. and the replica counts used in
        practice are large enough for the CLT interval to be honest; the
        verification oracles use this to turn a seeded run into an
        agreement band of declared coverage.

        Args:
            confidence: two-sided coverage in (0, 1), e.g. 0.99.
        """
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        from scipy.stats import norm

        half = float(norm.ppf(0.5 + confidence / 2.0)) * self.std_error_hours
        return (self.mean_hours - half, self.mean_hours + half)

    def consistent_with(self, analytic_hours: float, sigmas: float = 4.0) -> bool:
        """Whether an analytic MTTDL lies within ``sigmas`` standard errors."""
        return abs(analytic_hours - self.mean_hours) <= sigmas * self.std_error_hours


def accelerated_parameters(
    params: Parameters, failure_scale: float = 50.0
) -> Parameters:
    """Scale failure rates up (MTTFs down) to make losses simulable.

    Rebuild rates are left alone, so the ratio ``mu / lambda`` shrinks by
    ``failure_scale`` — the chains are solved with the same accelerated
    parameters, so the comparison stays apples-to-apples.
    """
    if failure_scale <= 0:
        raise ValueError("failure_scale must be positive")
    return params.replace(
        node_mttf_hours=params.node_mttf_hours / failure_scale,
        drive_mttf_hours=params.drive_mttf_hours / failure_scale,
    )


def _run_replica(
    task: Tuple[Configuration, Parameters, int, int, str, int],
) -> Tuple[float, str]:
    """One independent replica: simulate to first loss.

    Module-level (picklable) so replicas fan out across a process pool.
    Replica ``i``'s stream seed depends only on ``(seed, i)`` — tuple
    hashing over ints is deterministic across processes — so any split
    of replicas over workers reproduces the serial run exactly.
    """
    config, params, seed, i, repair_distribution, max_events = task
    sim = Simulator()
    streams = StreamFactory(seed=hash((seed, i)) & 0x7FFFFFFF)
    process = _build_process(sim, config, params, streams, repair_distribution)
    sim.run(
        max_events=max_events,
        stop_when=lambda p=process: p.has_lost_data,
    )
    if not process.losses:
        raise RuntimeError(
            "replica ended without data loss; increase acceleration or "
            "max_events_per_replica"
        )
    event = process.losses[0]
    return event.time_hours, event.cause


def _run_replica_chunk(
    tasks: List[Tuple[Configuration, Parameters, int, int, str, int]],
) -> List[Tuple[float, str]]:
    """Pool-worker entry point: run a contiguous block of replicas.

    The runtime ships worker spans back and re-parents them under the
    caller's span automatically, so the chunk span here covers both the
    pooled and the in-process path (and is free when tracing is off).
    """
    with obs.span("sim.replica_chunk", replicas=len(tasks)):
        return [_run_replica(task) for task in tasks]


def estimate_mttdl(
    config: Configuration,
    params: Parameters,
    replicas: int = 200,
    seed: int = 0,
    repair_distribution: str = "exponential",
    max_events_per_replica: int = 5_000_000,
    jobs: int = 1,
) -> MonteCarloResult:
    """Estimate a configuration's MTTDL by repeated simulation to loss.

    Args:
        config: redundancy configuration to simulate.
        params: (typically accelerated) system parameters.
        replicas: independent runs; the standard error shrinks as
            ``1/sqrt(replicas)``.
        seed: master seed; replica ``i`` uses child seed ``seed + i``.
        repair_distribution: ``"exponential"`` (chain-faithful) or
            ``"deterministic"`` (ablation).
        max_events_per_replica: safety cap per run.
        jobs: replica fan-out width; each replica is seeded independently,
            so any ``jobs`` gives the identical estimate.

    Returns:
        A :class:`MonteCarloResult`.
    """
    if replicas < 2:
        raise ValueError("need at least two replicas for a standard error")
    tasks = [
        (config, params, seed, i, repair_distribution, max_events_per_replica)
        for i in range(replicas)
    ]
    with obs.span(
        "sim.estimate_mttdl", config=config.key, replicas=replicas, jobs=jobs
    ):
        chunks = split_chunks(tasks, max(1, jobs))
        with obs.span("sim.replicas", chunks=len(chunks)):
            outputs = run_chunks(_run_replica_chunk, chunks, max(1, jobs))
        times = np.empty(replicas)
        causes: dict = {}
        loss_hist = obs.global_metrics().histogram("sim.loss_hours")
        for i, (time_hours, cause) in enumerate(
            sample for chunk in outputs for sample in chunk
        ):
            times[i] = time_hours
            loss_hist.observe(time_hours)
            causes[cause] = causes.get(cause, 0) + 1
        obs.global_metrics().counter("sim.replicas").inc(replicas)
        mean = float(times.mean())
        sem = float(times.std(ddof=1) / math.sqrt(replicas))
        return MonteCarloResult(
            mean_hours=mean,
            std_error_hours=sem,
            replicas=replicas,
            loss_causes=tuple(sorted(causes.items())),
        )


def estimate_payload_valid(payload: Dict[str, Any]) -> bool:
    """Schema check for a cached :class:`MonteCarloResult` payload:
    numeric ``mean_hours`` and ``std_error_hours``, an int ``replicas``
    and ``loss_causes`` as ``[cause, count]`` pairs.  Anything else (an
    old layout, a truncated write that still parses) is a cache miss."""
    causes = payload.get("loss_causes")
    return (
        type(payload.get("mean_hours")) in (int, float)
        and type(payload.get("std_error_hours")) in (int, float)
        and type(payload.get("replicas")) is int
        and type(causes) is list
        and all(
            type(item) is list
            and len(item) == 2
            and type(item[0]) is str
            and type(item[1]) is int
            for item in causes
        )
    )


def cached_estimate(
    config: Configuration,
    params: Parameters,
    replicas: int,
    seed: int,
    jobs: int,
    cache: Optional[DiskCache],
) -> MonteCarloResult:
    """:func:`estimate_mttdl`, through ``cache`` (built with
    ``validator=estimate_payload_valid``) when one is given.

    Entries are keyed by (configuration, parameters, replicas, seed);
    ``jobs`` never changes an estimate.  A damaged entry is a miss,
    re-simulated and overwritten, so a hit returns a fresh run's floats.
    """
    key = None
    if cache is not None:
        extra = {"replicas": replicas, "seed": seed}
        key = point_key(config, params, "monte_carlo", extra=extra)
        payload = cache.get(key)
        if payload is not None and estimate_payload_valid(payload):
            return MonteCarloResult(
                mean_hours=float(payload["mean_hours"]),
                std_error_hours=float(payload["std_error_hours"]),
                replicas=payload["replicas"],
                loss_causes=tuple(map(tuple, payload["loss_causes"])),
            )
    mc = estimate_mttdl(config, params, replicas=replicas, seed=seed, jobs=jobs)
    if key is not None:
        payload = {
            "mean_hours": mc.mean_hours,
            "std_error_hours": mc.std_error_hours,
            "replicas": mc.replicas,
            "loss_causes": [list(item) for item in mc.loss_causes],
        }
        cache.put(key, payload)
    return mc


@dataclass(frozen=True)
class EventRateResult:
    """Direct estimate of the paper's headline metric by renewal simulation.

    Attributes:
        events: total data-loss events observed.
        system_years: total simulated system-time in years.
        events_per_pb_year: the paper's normalized metric.
        events_per_system_year: un-normalized rate.
    """

    events: int
    system_years: float
    logical_pb: float

    @property
    def events_per_system_year(self) -> float:
        return self.events / self.system_years

    @property
    def events_per_pb_year(self) -> float:
        return self.events_per_system_year / self.logical_pb

    @property
    def rate_std_error(self) -> float:
        """Poisson standard error on events/PB-year."""
        return math.sqrt(max(self.events, 1)) / self.system_years / self.logical_pb


def estimate_event_rate(
    config: Configuration,
    params: Parameters,
    horizon_hours: float,
    seed: int = 0,
    repair_distribution: str = "exponential",
    max_events: int = 50_000_000,
) -> EventRateResult:
    """Estimate data-loss events per PB-year by renewal simulation.

    Unlike :func:`estimate_mttdl` (first-passage, fresh replicas), this
    runs one long horizon: after every data-loss event the system is
    restored to fully-operational (the manufacturer's field view — the
    customer restores from backup and carries on) and the clock keeps
    running.  This directly measures the paper's per-PB-year metric.

    Args:
        config: redundancy configuration.
        params: (typically accelerated) parameters.
        horizon_hours: total simulated time.
        seed: reproducibility seed.
        repair_distribution: repair-time distribution for the processes.
        max_events: kernel event cap.

    Returns:
        An :class:`EventRateResult`.
    """
    if horizon_hours <= 0:
        raise ValueError("horizon must be positive")
    from ..models.parameters import HOURS_PER_YEAR

    sim = Simulator()
    events = 0
    epoch = 0
    process = None

    def renew() -> None:
        nonlocal process, epoch
        streams = StreamFactory(seed=hash((seed, epoch)) & 0x7FFFFFFF)
        epoch += 1
        process = _build_process(
            sim, config, params, streams, repair_distribution
        )

    renew()
    remaining = max_events
    with obs.span(
        "sim.event_rate", config=config.key, horizon_hours=horizon_hours
    ) as rate_span:
        while sim.now < horizon_hours and remaining > 0:
            before = sim.events_processed
            try:
                sim.run(
                    until=horizon_hours,
                    max_events=remaining,
                    stop_when=lambda: process.has_lost_data,
                )
            except SimulationError:
                # Kernel event budget exhausted: report what we measured so
                # far over the time actually simulated.
                horizon_hours = sim.now
                break
            remaining -= sim.events_processed - before
            if process.has_lost_data and sim.now < horizon_hours:
                events += 1
                renew()  # instant restore, keep the clock running
            else:
                break
        rate_span.set("events", events)
        rate_span.set("kernel_events", sim.events_processed)
    return EventRateResult(
        events=events,
        system_years=horizon_hours / HOURS_PER_YEAR,
        logical_pb=params.system_logical_pb,
    )


def _build_process(
    sim: Simulator,
    config: Configuration,
    params: Parameters,
    streams: StreamFactory,
    repair_distribution: str,
):
    if config.internal is InternalRaid.NONE:
        return NoRaidFailureProcess(
            sim, params, config.node_fault_tolerance, streams, repair_distribution
        )
    return InternalRaidFailureProcess(
        sim,
        params,
        config.internal,
        config.node_fault_tolerance,
        streams,
        repair_distribution,
    )
