"""Analysis harness: baseline comparison, sensitivity sweeps and reports.

Reproduces the paper's evaluation (Figures 13-20) on top of the
reliability models, and provides the generic sweep/tornado machinery for
exploring other operating points.
"""

from .baseline import BaselineReport, baseline_figure, run_baseline
from .crossover import Crossover, find_crossover, headroom_orders
from .elasticity import Elasticity, elasticity, elasticity_profile
from .figures import (
    DRIVE_MTTF_HIGH,
    DRIVE_MTTF_LOW,
    NODE_MTTF_HIGH,
    NODE_MTTF_LOW,
    all_figures,
    figure14_drive_mttf,
    figure15_node_mttf,
    figure16_rebuild_block_size,
    figure17_link_speed,
    figure18_node_set_size,
    figure19_redundancy_set_size,
    figure20_drives_per_node,
)
from ..engine.result import EngineProvenance, SweepResult
from .report import FigureData, Series, format_figure, format_table
from .sensitivity import SweepPoint, TornadoEntry, sweep, sweep_to_figure, tornado
from .uncertainty import LogUniform, UncertaintyResult, UncertaintyStudy
from .validity import ValidityPoint, separation_ratio, validity_map

__all__ = [
    "BaselineReport",
    "Crossover",
    "DRIVE_MTTF_HIGH",
    "Elasticity",
    "elasticity",
    "elasticity_profile",
    "find_crossover",
    "headroom_orders",
    "DRIVE_MTTF_LOW",
    "FigureData",
    "LogUniform",
    "NODE_MTTF_HIGH",
    "UncertaintyResult",
    "UncertaintyStudy",
    "ValidityPoint",
    "separation_ratio",
    "validity_map",
    "NODE_MTTF_LOW",
    "EngineProvenance",
    "Series",
    "SweepPoint",
    "SweepResult",
    "TornadoEntry",
    "all_figures",
    "baseline_figure",
    "figure14_drive_mttf",
    "figure15_node_mttf",
    "figure16_rebuild_block_size",
    "figure17_link_speed",
    "figure18_node_set_size",
    "figure19_redundancy_set_size",
    "figure20_drives_per_node",
    "format_figure",
    "format_table",
    "run_baseline",
    "sweep",
    "sweep_to_figure",
    "tornado",
]
