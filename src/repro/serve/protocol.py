"""Request/response schemas for the serving endpoints.

Everything the HTTP layer accepts is validated here, eagerly, into typed
query objects — a request that parses is a request the solver can
answer, so admission control and batching never see malformed work.
Validation failures raise :class:`ProtocolError`, which the HTTP layer
maps to a 400 with the message in the body.

The JSON shapes are documented in ``docs/serving.md``; briefly::

    POST /v1/evaluate
    {"config": "ft2_raid5", "method": "analytic",
     "params": {"node_set_size": 128}}

    POST /v1/evaluate          # multi-point
    {"points": [{"config": "ft1_noraid"}, {"config": "ft3_raid6"}]}

    POST /v1/sweep
    {"configs": ["ft1_raid5", "ft2_raid5"],
     "axis": {"name": "drive_mttf_hours", "values": [1e5, 3e5, 7.5e5]},
     "method": "analytic"}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.solvers import DEFAULT_SOLVE_OPTIONS, SolveOptions, SolverError
from ..engine.keys import point_key
from ..engine.solver import normalize_method
from ..models.configurations import Configuration
from ..models.metrics import ReliabilityResult
from ..models.parameters import ParameterError, Parameters

__all__ = [
    "MAX_ADVISE_CANDIDATES_PER_REQUEST",
    "MAX_FAULT_TOLERANCE",
    "MAX_POINTS_PER_REQUEST",
    "AdviseQuery",
    "PointQuery",
    "ProtocolError",
    "SweepQuery",
    "params_with_overrides",
    "parse_advise_body",
    "parse_evaluate_body",
    "parse_sweep_body",
    "point_response",
]

#: Cap on points per /v1/evaluate call — a single request must not be
#: able to monopolize the batcher for seconds.
MAX_POINTS_PER_REQUEST = 256

#: Cap on Monte-Carlo replicas per served point (simulation is the one
#: method whose cost the client controls directly).
MAX_REPLICAS_PER_POINT = 10_000

#: Cap on a served configuration's cross-node fault tolerance.  The
#: no-internal-RAID chain has 2^(k+1) - 1 transient states, and its spec
#: is built before any node-count check; at 6 that is 127 states, the
#: largest chain the test suite solves.
MAX_FAULT_TOLERANCE = 6

#: Cap on axis values per /v1/sweep call.
MAX_SWEEP_VALUES = 512

#: Cap on a /v1/advise search's grid cardinality — tighter than the
#: library's own :data:`repro.advise.MAX_ADVISE_CANDIDATES` because an
#: online search holds the aux lane for its whole duration.
MAX_ADVISE_CANDIDATES_PER_REQUEST = 2048


class ProtocolError(ValueError):
    """A malformed request body; the HTTP layer answers 400."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def params_with_overrides(
    base: Parameters, overrides: Optional[Mapping[str, Any]]
) -> Parameters:
    """``base`` with a JSON object of field overrides applied.

    Values coerce to the field's current type (ints stay ints), matching
    the CLIs' ``--set FIELD=VALUE`` semantics; unknown fields and
    physically-meaningless values raise :class:`ProtocolError`.
    """
    if overrides is None:
        return base
    _require(isinstance(overrides, Mapping), '"params" must be an object')
    changes: Dict[str, Any] = {}
    for field, raw in overrides.items():
        try:
            current = getattr(base, field)
        except AttributeError:
            raise ProtocolError(f"unknown parameter field {field!r}") from None
        if isinstance(current, (int, float)) and not isinstance(current, bool):
            _require(
                isinstance(raw, (int, float)) and not isinstance(raw, bool),
                f"parameter {field!r} must be a number, got {raw!r}",
            )
            try:
                changes[field] = type(current)(raw)
            except (OverflowError, ValueError):  # int(inf), int(nan), float(10**400)
                raise ProtocolError(
                    f"parameter {field!r} must be finite, got {raw!r}"
                ) from None
        else:  # pragma: no cover - Parameters is all-numeric today
            changes[field] = raw
    try:
        return base.replace(**changes)
    except (ParameterError, TypeError) as exc:
        raise ProtocolError(str(exc)) from None


@dataclass(frozen=True)
class PointQuery:
    """One validated reliability query.

    Attributes:
        config: the parsed configuration.
        params: the full parameter set (baseline + request overrides).
        method: normalized method name.
        options: solver options (:class:`~repro.core.solvers.SolveOptions`)
            applied to the chain solve; defaults add no cache-key
            material, so pre-options clients keep their keys.
        replicas / seed: Monte-Carlo controls (``monte_carlo`` only).
        recovery_hours: when set, the response also carries the
            steady-state availability profile at this restore time.
        deadline_ms: the requester's latency budget; the batcher closes
            batches early rather than blow it.  Excluded from the cache
            key — a deadline changes scheduling, never the answer.
        trace: force this request into the trace sampler (head-based
            sampling normally decides; ``"trace": true`` pins the
            decision for debugging).  Excluded from the cache key —
            sampling changes what is recorded, never the answer.
    """

    config: Configuration
    params: Parameters
    method: str = "analytic"
    options: SolveOptions = field(default=DEFAULT_SOLVE_OPTIONS)
    replicas: int = 200
    seed: int = 0
    recovery_hours: Optional[float] = None
    deadline_ms: Optional[float] = None
    trace: bool = False

    def cache_key(self) -> str:
        """The stable result-cache key for this query — the engine's
        config+params point key, extended with the served extras."""
        extra: Dict[str, Any] = {}
        if self.method == "monte_carlo":
            extra["replicas"] = self.replicas
            extra["seed"] = self.seed
        if self.recovery_hours is not None:
            extra["recovery_hours"] = self.recovery_hours
        if not self.options.is_default():
            extra["solve_options"] = self.options.cache_key()
        return point_key(self.config, self.params, self.method, extra or None)


def _check_fault_tolerance(fault_tolerance: int) -> None:
    _require(
        fault_tolerance <= MAX_FAULT_TOLERANCE,
        f"fault tolerance {fault_tolerance} is above the served maximum "
        f"of {MAX_FAULT_TOLERANCE}",
    )


def _configuration(key: str) -> Configuration:
    """The configuration a key names, within the served tolerance."""
    try:
        config = Configuration.from_key(key)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    _check_fault_tolerance(config.node_fault_tolerance)
    return config


def _parse_point(obj: Any, base: Parameters) -> PointQuery:
    _require(isinstance(obj, Mapping), "each point must be an object")
    unknown = set(obj) - {
        "config",
        "method",
        "options",
        "params",
        "replicas",
        "seed",
        "availability",
        "deadline_ms",
        "trace",
    }
    _require(not unknown, f"unknown point field(s): {sorted(unknown)}")
    key = obj.get("config")
    _require(
        isinstance(key, str), 'each point needs a "config" key, e.g. "ft2_raid5"'
    )
    config = _configuration(key)
    method = obj.get("method", "analytic")
    _require(isinstance(method, str), '"method" must be a string')
    try:
        method = normalize_method(method)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    params = params_with_overrides(base, obj.get("params"))
    raw_options = obj.get("options")
    options = DEFAULT_SOLVE_OPTIONS
    if raw_options is not None:
        _require(
            isinstance(raw_options, Mapping), '"options" must be an object'
        )
        try:
            options = SolveOptions.from_dict(raw_options)
        except (SolverError, ValueError) as exc:
            raise ProtocolError(f'bad "options": {exc}') from None
        _require(
            options.backend != "monte_carlo",
            'select monte_carlo with "method", not "options.backend"',
        )
    replicas = obj.get("replicas", 200)
    seed = obj.get("seed", 0)
    _require(
        isinstance(replicas, int)
        and not isinstance(replicas, bool)
        and 1 <= replicas <= MAX_REPLICAS_PER_POINT,
        f'"replicas" must be an integer in [1, {MAX_REPLICAS_PER_POINT}]',
    )
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        '"seed" must be an integer',
    )
    recovery_hours: Optional[float] = None
    availability = obj.get("availability")
    if availability is not None and availability is not False:
        if availability is True:
            availability = {}
        _require(
            isinstance(availability, Mapping),
            '"availability" must be true or an object',
        )
        raw = availability.get("recovery_hours", 168.0)
        _require(
            isinstance(raw, (int, float))
            and not isinstance(raw, bool)
            and raw > 0,
            '"availability.recovery_hours" must be a positive number',
        )
        recovery_hours = float(raw)
        _require(
            method != "monte_carlo",
            "availability is defined for the chain methods, not monte_carlo",
        )
    deadline_ms: Optional[float] = None
    raw_deadline = obj.get("deadline_ms")
    if raw_deadline is not None:
        _require(
            isinstance(raw_deadline, (int, float))
            and not isinstance(raw_deadline, bool)
            and raw_deadline > 0,
            '"deadline_ms" must be a positive number',
        )
        deadline_ms = float(raw_deadline)
    trace = obj.get("trace", False)
    _require(isinstance(trace, bool), '"trace" must be a boolean')
    return PointQuery(
        config=config,
        params=params,
        method=method,
        options=options,
        replicas=replicas,
        seed=seed,
        recovery_hours=recovery_hours,
        deadline_ms=deadline_ms,
        trace=trace,
    )


def parse_evaluate_body(body: Any, base: Parameters) -> List[PointQuery]:
    """Validate a ``/v1/evaluate`` body into point queries.

    Accepts a single point object or ``{"points": [...]}``.
    """
    _require(isinstance(body, Mapping), "request body must be a JSON object")
    if "points" in body:
        points = body["points"]
        _require(
            isinstance(points, list) and points,
            '"points" must be a non-empty array',
        )
        _require(
            len(points) <= MAX_POINTS_PER_REQUEST,
            f"at most {MAX_POINTS_PER_REQUEST} points per request",
        )
        extra = set(body) - {"points"}
        _require(not extra, f"unknown field(s): {sorted(extra)}")
        return [_parse_point(p, base) for p in points]
    return [_parse_point(body, base)]


@dataclass(frozen=True)
class SweepQuery:
    """A validated ``/v1/sweep`` request: one axis over many configs.

    ``params`` holds the parameter set at each of ``values``, built by
    :func:`params_with_overrides` (so values cast to the field's type).
    """

    configs: Tuple[Configuration, ...]
    axis_name: str
    values: Tuple[float, ...]
    params: Tuple[Parameters, ...]
    method: str = "analytic"


def parse_sweep_body(body: Any, base: Parameters) -> SweepQuery:
    """Validate a ``/v1/sweep`` body."""
    _require(isinstance(body, Mapping), "request body must be a JSON object")
    unknown = set(body) - {"configs", "axis", "method"}
    _require(not unknown, f"unknown field(s): {sorted(unknown)}")
    raw_configs = body.get("configs")
    _require(
        isinstance(raw_configs, list) and raw_configs,
        '"configs" must be a non-empty array of configuration keys',
    )
    configs = []
    for key in raw_configs:
        _require(isinstance(key, str), "configuration keys must be strings")
        configs.append(_configuration(key))
    axis = body.get("axis")
    _require(isinstance(axis, Mapping), '"axis" must be an object')
    _require(
        set(axis) <= {"name", "values"},
        f'unknown axis field(s): {sorted(set(axis) - {"name", "values"})}',
    )
    name = axis.get("name")
    _require(isinstance(name, str), '"axis.name" must be a parameter field')
    current = getattr(base, name, None)
    _require(
        isinstance(current, (int, float)) and not isinstance(current, bool),
        f"unknown sweep axis {name!r}",
    )
    values = axis.get("values")
    _require(
        isinstance(values, list)
        and values
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values
        ),
        '"axis.values" must be a non-empty array of numbers',
    )
    _require(
        len(values) <= MAX_SWEEP_VALUES,
        f"at most {MAX_SWEEP_VALUES} axis values per sweep",
    )
    method = body.get("method", "analytic")
    _require(isinstance(method, str), '"method" must be a string')
    try:
        method = normalize_method(method)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    _require(
        method != "monte_carlo",
        "sweeps run the chain methods; use /v1/evaluate for monte_carlo",
    )
    # Build every swept parameter set now: a sweep must be fully
    # admissible before any of it is evaluated.
    params = tuple(params_with_overrides(base, {name: v}) for v in values)
    return SweepQuery(
        configs=tuple(configs),
        axis_name=name,
        values=tuple(float(v) for v in values),
        params=params,
        method=method,
    )


@dataclass(frozen=True)
class AdviseQuery:
    """A validated ``/v1/advise`` request."""

    request: "AdviseRequest"  # noqa: F821 - imported lazily below


def parse_advise_body(body: Any, base: Parameters) -> AdviseQuery:
    """Validate a ``/v1/advise`` body into an
    :class:`repro.advise.AdviseRequest`.

    The body is the request's JSON form (see ``docs/advise.md``)::

        {"space": {"internal": ["none", "raid5"], "fault_tolerance": [1, 2],
                   "axes": {"redundancy_set_size": [6, 8, 12]}},
         "cost_model": {"drive_cost_per_year": 120},
         "max_annual_cost": 2.5e6, "seed": 0}

    Validation failures — including a space axis that does not resolve
    against the server's base parameters — raise :class:`ProtocolError`
    with the offending axis or field named.
    """
    from ..advise import AdviseError, AdviseRequest
    from ..advise.cost import CostError
    from ..models.space import SpaceError

    _require(isinstance(body, Mapping), "request body must be a JSON object")
    try:
        request = AdviseRequest.from_dict(body)
        request.space.validate(base)
    except (AdviseError, CostError, SpaceError) as exc:
        raise ProtocolError(str(exc)) from None
    _check_fault_tolerance(max(request.space.configs.fault_tolerances))
    _require(
        request.space.size() <= MAX_ADVISE_CANDIDATES_PER_REQUEST,
        f"search space has {request.space.size()} candidates; "
        f"at most {MAX_ADVISE_CANDIDATES_PER_REQUEST} per online request "
        "(use the repro-advise CLI for larger searches)",
    )
    return AdviseQuery(request=request)


def point_response(
    query: PointQuery,
    result: ReliabilityResult,
    *,
    cached: bool,
    availability: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """The JSON-ready response object for one answered point."""
    out: Dict[str, Any] = {
        "config": query.config.key,
        "method": query.method,
        "mttdl_hours": result.mttdl_hours,
        "mttdl_years": result.mttdl_years,
        "events_per_pb_year": result.events_per_pb_year,
        "meets_target": result.meets_target,
        "params_key": query.params.cache_key(),
        "cached": cached,
    }
    if query.method == "monte_carlo":
        out["replicas"] = query.replicas
        out["seed"] = query.seed
    if availability is not None:
        out["availability"] = availability
    return out
