"""repro — reliability models for networked storage nodes.

A production-quality reproduction of *"Reliability for Networked Storage
Nodes"* (KK Rao, James L. Hafner, Richard A. Golding; IBM Research /
DSN 2006): absorbing-CTMC reliability models for brick-based distributed
storage, the rebuild-time model, the recursive chain construction for
arbitrary fault tolerance, plus the substrates needed to exercise them —
an erasure-coding library, a simulated brick cluster, a Monte-Carlo
failure injector and a parallel, memoized sweep engine.

Quickstart::

    import repro

    params = repro.Parameters.baseline()
    config = repro.Configuration(repro.InternalRaid.RAID5, node_fault_tolerance=2)
    result = repro.evaluate(config, params)           # analytic chain solve
    approx = repro.evaluate(
        config, params, options=repro.core.SolveOptions(backend="closed_form")
    )
    print(result.events_per_pb_year, result.meets_target)

Sweeps run through the engine::

    engine = repro.SweepEngine()
    results = engine.evaluate_many(
        [(c, params) for c in repro.ALL_CONFIGURATIONS]
    )
"""

from . import obs
from .models import (
    ALL_CONFIGURATIONS,
    Configuration,
    InternalRaid,
    PAPER_TARGET_EVENTS_PER_PB_YEAR,
    Parameters,
    RebuildModel,
    ReliabilityResult,
    all_configurations,
    evaluate_all,
    sensitivity_configurations,
)

__version__ = "1.0.0"

# The engine imports repro.__version__ for cache keys, so it must come
# after the __version__ assignment above.
from .engine import (  # noqa: E402
    DiskCache,
    EngineProvenance,
    SweepEngine,
    SweepResult,
    evaluate,
)
from .advise import (  # noqa: E402
    AdviseRequest,
    AdviseResult,
    CostModel,
    advise,
)
from .models import (  # noqa: E402
    ConfigSpace,
    ParamAxis,
    SearchSpace,
)

__all__ = [
    "ALL_CONFIGURATIONS",
    "AdviseRequest",
    "AdviseResult",
    "ConfigSpace",
    "Configuration",
    "CostModel",
    "DiskCache",
    "EngineProvenance",
    "InternalRaid",
    "PAPER_TARGET_EVENTS_PER_PB_YEAR",
    "ParamAxis",
    "Parameters",
    "RebuildModel",
    "ReliabilityResult",
    "SearchSpace",
    "SweepEngine",
    "SweepResult",
    "advise",
    "all_configurations",
    "evaluate",
    "evaluate_all",
    "obs",
    "sensitivity_configurations",
    "__version__",
]
