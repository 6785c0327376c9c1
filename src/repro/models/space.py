"""Declarative search spaces over configurations and parameters.

One helper owns the "enumerate a grid of candidate designs" job that
used to be spelled as ad-hoc nested loops in three places (the paper's
nine-configuration grid, the design search's candidates in
:mod:`repro.advise`, the fleet scenario generator's config choices).
A space is data:

* :class:`ConfigSpace` — which internal RAID levels crossed with which
  cross-node fault tolerances;
* :class:`ParamAxis` — one swept :class:`Parameters` field (or a
  *derived* axis such as ``scrub_interval_hours``, which folds through a
  physical model into the plain parameter fields);
* :class:`SearchSpace` — the cartesian product of both, enumerated
  config-major into plain ``(Configuration, Parameters)`` points.

Because every enumerated point reduces to a plain configuration and
parameter set, anything downstream (the sweep engine, the optimizer,
the serving layer) keeps the bitwise-identity contract with
:func:`repro.evaluate` — a search space changes *which* points are
evaluated, never *how*.

Validation failures raise :class:`SpaceError`, which always names the
offending axis, so a malformed request can be answered with "axis
'redundancy_set_size': ..." rather than a bare traceback.  Physically
infeasible combinations inside a valid space (``R <= t``, ``R > N``)
are skipped and counted, matching the analysis layer's long-standing
silent-skip semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .parameters import ParameterError, Parameters, is_finite
from .raid import InternalRaid
from .scrubbing import ScrubbingModel

if TYPE_CHECKING:  # pragma: no cover
    from .configurations import Configuration

__all__ = [
    "DERIVED_AXES",
    "ConfigSpace",
    "ParamAxis",
    "SearchSpace",
    "SpaceError",
    "SpacePoint",
    "storage_overhead",
]

#: JSON spellings of the internal RAID levels (``"noraid"`` accepted as
#: an alias so configuration keys like ``ft2_noraid`` round-trip).
INTERNAL_BY_NAME: Dict[str, InternalRaid] = {
    "none": InternalRaid.NONE,
    "noraid": InternalRaid.NONE,
    "raid5": InternalRaid.RAID5,
    "raid6": InternalRaid.RAID6,
}

_INTERNAL_NAMES: Dict[InternalRaid, str] = {
    InternalRaid.NONE: "none",
    InternalRaid.RAID5: "raid5",
    InternalRaid.RAID6: "raid6",
}


class SpaceError(ValueError):
    """A malformed search space; the message names the offending axis."""

    def __init__(self, axis: str, message: str) -> None:
        super().__init__(f"axis {axis!r}: {message}")
        self.axis = axis


def storage_overhead(config: "Configuration", r: int, d: int) -> float:
    """Raw-to-user byte ratio for a design (cross-node code x internal RAID)."""
    t = config.node_fault_tolerance
    if r <= t:
        raise ValueError("redundancy set must exceed the fault tolerance")
    cross = r / (r - t)
    if config.internal is InternalRaid.RAID5:
        return cross * d / (d - 1)
    if config.internal is InternalRaid.RAID6:
        return cross * d / (d - 2)
    return cross


# --------------------------------------------------------------------- #
# derived axes
# --------------------------------------------------------------------- #


def _apply_scrub_interval(params: Parameters, value: Any) -> Parameters:
    """Fold a scrub cadence into the effective hard-error rate."""
    return ScrubbingModel().scrubbed_parameters(params, float(value))


#: Axes that are not plain :class:`Parameters` fields but fold through a
#: physical model into one.  Each entry maps an axis name to a
#: ``(params, value) -> params`` transform; the resulting parameter set
#: is an ordinary one, so the bitwise contract with ``repro.evaluate``
#: holds for every derived point.  (Detection latency is deliberately
#: absent: it changes the chain *family*, not a parameter, so it cannot
#: be expressed as a plain ``(Configuration, Parameters)`` point.)
DERIVED_AXES: Dict[str, Callable[[Parameters, Any], Parameters]] = {
    "scrub_interval_hours": _apply_scrub_interval,
}


# --------------------------------------------------------------------- #
# configuration spaces
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConfigSpace:
    """A grid of redundancy configurations: RAID levels x tolerances.

    Attributes:
        internal_levels: the node-internal RAID levels to cross.
        fault_tolerances: the cross-node erasure tolerances to cross.
    """

    internal_levels: Tuple[InternalRaid, ...] = (
        InternalRaid.NONE,
        InternalRaid.RAID5,
        InternalRaid.RAID6,
    )
    fault_tolerances: Tuple[int, ...] = (1, 2, 3)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "internal_levels", tuple(self.internal_levels)
        )
        object.__setattr__(
            self, "fault_tolerances", tuple(self.fault_tolerances)
        )
        if not self.internal_levels:
            raise SpaceError("internal", "needs at least one RAID level")
        for level in self.internal_levels:
            if not isinstance(level, InternalRaid):
                raise SpaceError(
                    "internal", f"{level!r} is not an InternalRaid level"
                )
        if len(set(self.internal_levels)) != len(self.internal_levels):
            raise SpaceError("internal", "duplicate RAID levels")
        if not self.fault_tolerances:
            raise SpaceError(
                "fault_tolerance", "needs at least one tolerance"
            )
        for t in self.fault_tolerances:
            if not isinstance(t, int) or isinstance(t, bool) or t < 1:
                raise SpaceError(
                    "fault_tolerance",
                    f"tolerances must be integers >= 1, got {t!r}",
                )
        if len(set(self.fault_tolerances)) != len(self.fault_tolerances):
            raise SpaceError("fault_tolerance", "duplicate tolerances")

    @property
    def size(self) -> int:
        return len(self.internal_levels) * len(self.fault_tolerances)

    def configurations(self) -> List["Configuration"]:
        """The configuration grid, tolerances in the outer loop — the
        paper's Figure 13 order used by
        :func:`repro.models.all_configurations`."""
        from .configurations import Configuration

        return [
            Configuration(internal, t)
            for t in self.fault_tolerances
            for internal in self.internal_levels
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "internal": [
                _INTERNAL_NAMES[level] for level in self.internal_levels
            ],
            "fault_tolerance": list(self.fault_tolerances),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ConfigSpace":
        """Parse the JSON form; unknown RAID names raise :class:`SpaceError`."""
        if not isinstance(payload, Mapping):
            raise SpaceError("space", "configuration space must be an object")
        unknown = set(payload) - {"internal", "fault_tolerance"}
        if unknown:
            raise SpaceError(
                sorted(unknown)[0], "unknown configuration-space field"
            )
        raw_internal = payload.get("internal", ["none", "raid5", "raid6"])
        if not isinstance(raw_internal, (list, tuple)):
            raise SpaceError("internal", "must be an array of RAID levels")
        levels = []
        for name in raw_internal:
            if not isinstance(name, str) or name not in INTERNAL_BY_NAME:
                raise SpaceError(
                    "internal",
                    f"unknown RAID level {name!r}; "
                    "known: none, raid5, raid6",
                )
            levels.append(INTERNAL_BY_NAME[name])
        raw_ft = payload.get("fault_tolerance", [1, 2, 3])
        if not isinstance(raw_ft, (list, tuple)):
            raise SpaceError(
                "fault_tolerance", "must be an array of integers"
            )
        return cls(
            internal_levels=tuple(levels), fault_tolerances=tuple(raw_ft)
        )


# --------------------------------------------------------------------- #
# parameter axes
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ParamAxis:
    """One swept dimension of a search space.

    ``name`` is a numeric :class:`Parameters` field, or a derived axis
    from :data:`DERIVED_AXES`.  Values must be finite numbers; duplicates
    are rejected (they would enumerate indistinguishable candidates).
    """

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpaceError(str(self.name), "axis name must be a string")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SpaceError(self.name, "needs at least one value")
        for v in self.values:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise SpaceError(
                    self.name, f"values must be numbers, got {v!r}"
                )
            if not is_finite(v):
                raise SpaceError(
                    self.name, f"values must be finite, got {v!r}"
                )
        if len(set(self.values)) != len(self.values):
            raise SpaceError(self.name, "duplicate values")

    def apply(self, params: Parameters, value: Any) -> Parameters:
        """``params`` with this axis set to ``value``.

        Derived axes fold through their transform; plain fields coerce
        to the field's current type (ints stay ints), matching the
        CLIs' ``--set FIELD=VALUE`` semantics.
        """
        derived = DERIVED_AXES.get(self.name)
        if derived is not None:
            return derived(params, value)
        current = getattr(params, self.name)
        return params.replace(**{self.name: type(current)(value)})

    def validate(self, base: Parameters) -> None:
        """Check the axis resolves against ``base`` (name + value types)."""
        if self.name in DERIVED_AXES:
            for v in self.values:
                try:
                    DERIVED_AXES[self.name](base, v)
                except (ParameterError, ValueError) as exc:
                    raise SpaceError(self.name, str(exc)) from None
            return
        current = getattr(base, self.name, None)
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            raise SpaceError(
                self.name,
                "not a numeric Parameters field or derived axis "
                f"(derived: {', '.join(sorted(DERIVED_AXES))})",
            )


# --------------------------------------------------------------------- #
# search spaces
# --------------------------------------------------------------------- #


#: A point's grid coordinates: (axis name, value) pairs in axis order.
Coords = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class SpacePoint:
    """One feasible enumerated point: a config, its grid coordinates
    (axis name, value pairs in declaration order) and the fully-applied
    parameter set."""

    config: "Configuration"
    coords: Coords
    params: Parameters


@dataclass(frozen=True)
class SearchSpace:
    """A full design search space: configurations x parameter axes.

    Attributes:
        configs: the configuration grid.
        axes: swept parameter axes (cartesian product, declared order;
            the first axis is outermost).
    """

    configs: ConfigSpace = field(default_factory=ConfigSpace)
    axes: Tuple[ParamAxis, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        seen = set()
        for axis in self.axes:
            if not isinstance(axis, ParamAxis):
                raise SpaceError(str(axis), "axes must be ParamAxis instances")
            if axis.name in seen:
                raise SpaceError(axis.name, "axis declared twice")
            seen.add(axis.name)

    def size(self) -> int:
        """Grid cardinality before feasibility skips."""
        n = self.configs.size
        for axis in self.axes:
            n *= len(axis.values)
        return n

    def validate(self, base: Parameters) -> None:
        """Check every axis resolves against ``base``; raises
        :class:`SpaceError` naming the offending axis."""
        for axis in self.axes:
            axis.validate(base)

    def enumerate(self, base: Parameters) -> Iterator[SpacePoint]:
        """Yield every *feasible* point, config-major then axes in
        declared order.  Infeasible combinations (``R <= t`` or values
        the parameter model rejects, e.g. ``R > N``) are skipped; use
        :meth:`grid` to also get the skip count."""
        points, _ = self.grid(base)
        return iter(points)

    def grid(self, base: Parameters) -> Tuple[List[SpacePoint], int]:
        """Every feasible point plus the number of skipped combinations.

        Each axis combination is resolved once and its (frozen)
        parameter set shared by every configuration's point; only the
        ``R <= t`` guard depends on the configuration.  Combinations are
        derived prefix by prefix (axis 1 applied to the base, axis 2 to
        each result, and so on), so each prefix is validated once, and a
        prefix the parameter model rejects skips every combination under
        it.
        """
        self.validate(base)
        resolved: List[Optional[Tuple[Coords, Parameters]]] = [((), base)]
        for axis in self.axes:
            extended: List[Optional[Tuple[Coords, Parameters]]] = []
            for entry in resolved:
                if entry is None:
                    extended.extend([None] * len(axis.values))
                    continue
                coords, params = entry
                for value in axis.values:
                    try:
                        derived = axis.apply(params, value)
                    except (ParameterError, ValueError):
                        extended.append(None)
                    else:
                        extended.append(
                            (coords + ((axis.name, value),), derived)
                        )
            resolved = extended
        points: List[SpacePoint] = []
        skipped = 0
        for config in self.configs.configurations():
            t = config.node_fault_tolerance
            for entry in resolved:
                if entry is None or entry[1].redundancy_set_size <= t:
                    skipped += 1
                    continue
                coords, params = entry
                points.append(
                    SpacePoint(config=config, coords=coords, params=params)
                )
        return points, skipped

    def to_dict(self) -> Dict[str, Any]:
        payload = self.configs.to_dict()
        payload["axes"] = {
            axis.name: list(axis.values) for axis in self.axes
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SearchSpace":
        """Parse the JSON form used by ``POST /v1/advise``::

            {"internal": ["none", "raid5"], "fault_tolerance": [1, 2],
             "axes": {"redundancy_set_size": [6, 8, 12]}}

        Every validation failure raises :class:`SpaceError` naming the
        offending axis.
        """
        if not isinstance(payload, Mapping):
            raise SpaceError("space", "search space must be an object")
        unknown = set(payload) - {"internal", "fault_tolerance", "axes"}
        if unknown:
            raise SpaceError(
                sorted(unknown)[0], "unknown search-space field"
            )
        configs = ConfigSpace.from_dict(
            {
                k: v
                for k, v in payload.items()
                if k in ("internal", "fault_tolerance")
            }
        )
        raw_axes = payload.get("axes", {})
        if not isinstance(raw_axes, Mapping):
            raise SpaceError("axes", "must be an object of name -> values")
        axes = []
        for name, values in raw_axes.items():
            if not isinstance(values, (list, tuple)):
                raise SpaceError(str(name), "values must be an array")
            axes.append(ParamAxis(str(name), tuple(values)))
        return cls(configs=configs, axes=tuple(axes))
