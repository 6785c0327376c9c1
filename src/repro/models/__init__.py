"""Reliability models for networked storage nodes.

Everything in the paper's Sections 3-6: the nine redundancy
configurations, the drive-level and node-level Markov chains, the
rebuild-time model, the critical-redundancy-set combinatorics and the
closed-form MTTDL approximations.

The supported public surface is exactly ``__all__`` below.  Every
chain is declared once, as a spec in :mod:`repro.models.specs`.
"""

from .availability import (
    AvailabilityModel,
    AvailabilityResult,
    fleet_expected_events,
    fleet_loss_probability,
    mission_survival_probability,
)
from .closed_form import (
    mttdl_general_approx,
    mttdl_internal_raid_nft1,
    mttdl_internal_raid_nft2,
    mttdl_internal_raid_nft3,
    mttdl_no_raid_nft1,
    mttdl_no_raid_nft2,
    mttdl_no_raid_nft3,
)
from .configurations import (
    ALL_CONFIGURATIONS,
    Configuration,
    all_configurations,
    evaluate_all,
    sensitivity_configurations,
)
from .detection import DetectionLatencyModel, build_detection_chain
from .critical_sets import (
    critical_fraction,
    h_parameter,
    h_parameters,
    hard_error_probability_full_drive,
    k2_factor,
    k3_factor,
    redundancy_sets_per_node,
    redundancy_sets_total,
)
from .internal_raid import InternalRaidNodeModel, build_internal_raid_chain
from .metrics import (
    PAPER_TARGET_EVENTS_PER_PB_YEAR,
    ReliabilityResult,
    events_per_pb_year,
    events_per_year_to_mttdl_hours,
    mttdl_hours_for_target,
    mttdl_hours_to_events_per_year,
)
from .monolithic import MonolithicSystem
from .no_raid import NoRaidNodeModel, build_no_raid_chain
from .parameters import GB, HOURS_PER_YEAR, KB, MB, ParameterError, Parameters
from .performance import PerformanceImpact, PerformanceImpactModel
from .raid import (
    ArrayRates,
    InternalRaid,
    Raid5Model,
    Raid6Model,
    array_model,
    build_raid5_chain,
    build_raid6_chain,
    raid5_mttdl_approx,
    raid5_mttdl_exact_formula,
    raid6_mttdl_approx,
)
from .rebuild import RebuildModel, TransferBreakdown
from .scrubbing import SECTOR_BYTES, ScrubbingModel
from .space import (
    DERIVED_AXES,
    ConfigSpace,
    ParamAxis,
    SearchSpace,
    SpaceError,
    SpacePoint,
    storage_overhead,
)
from .recursive import l_k, l_value

__all__ = [
    "ALL_CONFIGURATIONS",
    "ArrayRates",
    "AvailabilityModel",
    "AvailabilityResult",
    "fleet_expected_events",
    "fleet_loss_probability",
    "mission_survival_probability",
    "ConfigSpace",
    "Configuration",
    "DERIVED_AXES",
    "DetectionLatencyModel",
    "GB",
    "build_detection_chain",
    "HOURS_PER_YEAR",
    "InternalRaid",
    "InternalRaidNodeModel",
    "KB",
    "MB",
    "MonolithicSystem",
    "NoRaidNodeModel",
    "PAPER_TARGET_EVENTS_PER_PB_YEAR",
    "ParamAxis",
    "ParameterError",
    "Parameters",
    "PerformanceImpact",
    "PerformanceImpactModel",
    "Raid5Model",
    "Raid6Model",
    "RebuildModel",
    "ReliabilityResult",
    "SECTOR_BYTES",
    "ScrubbingModel",
    "SearchSpace",
    "SpaceError",
    "SpacePoint",
    "TransferBreakdown",
    "all_configurations",
    "array_model",
    "build_internal_raid_chain",
    "build_no_raid_chain",
    "build_raid5_chain",
    "build_raid6_chain",
    "critical_fraction",
    "evaluate_all",
    "events_per_pb_year",
    "events_per_year_to_mttdl_hours",
    "h_parameter",
    "h_parameters",
    "hard_error_probability_full_drive",
    "k2_factor",
    "k3_factor",
    "l_k",
    "l_value",
    "mttdl_general_approx",
    "mttdl_hours_for_target",
    "mttdl_hours_to_events_per_year",
    "mttdl_internal_raid_nft1",
    "mttdl_internal_raid_nft2",
    "mttdl_internal_raid_nft3",
    "mttdl_no_raid_nft1",
    "mttdl_no_raid_nft2",
    "mttdl_no_raid_nft3",
    "raid5_mttdl_approx",
    "raid5_mttdl_exact_formula",
    "raid6_mttdl_approx",
    "redundancy_sets_per_node",
    "redundancy_sets_total",
    "sensitivity_configurations",
    "storage_overhead",
]
