"""Single-drone multi-package delivery over skyway networks.

The package splits into four pieces: ``graph`` (the rooftop network),
``planner`` (release-order strategies), ``simulator`` (the ``Scenario``
bundle, kinematic mission execution, its telemetry and CSV export, and the
payload-linear energy model) and ``scenario``/``cli`` (documents only, and
the command-line front end).
"""
from __future__ import annotations

from . import errors
from .cli import cli_main
from .graph import (
    Node,
    Path,
    Segment,
    SkywayNetwork,
    build_network,
    shortest_path,
    shortest_paths_from,
    stop_matrix,
)
from .planner import (
    EXHAUSTIVE_PACKAGE_CAP,
    DroneConfig,
    FeasibilityReport,
    HangingAssignment,
    Leg,
    MissionPlan,
    Package,
    assign_levels,
    check_feasibility,
    optimal_order,
    plan_ndf,
    plan_optimal,
    plan_total_distance,
)
from .scenario import (
    generate_scenario,
    parse_scenario,
    serialize_report,
    serialize_scenario,
)
from .simulator import (
    DEFAULT_RELEASE_DWELL,
    DEFAULT_TELEMETRY_STEP,
    CompareResult,
    EnergyBreakdown,
    LegEnergy,
    MissionReport,
    Scenario,
    StrategyOutcome,
    StringRig,
    TelemetryLog,
    TelemetryRecord,
    compare_strategies,
    consumption_rate,
    export_telemetry,
    simulate_mission,
)

__version__ = "0.1.0"

__all__ = [
    "CompareResult",
    "DEFAULT_RELEASE_DWELL",
    "DEFAULT_TELEMETRY_STEP",
    "DroneConfig",
    "EnergyBreakdown",
    "EXHAUSTIVE_PACKAGE_CAP",
    "FeasibilityReport",
    "HangingAssignment",
    "Leg",
    "LegEnergy",
    "MissionPlan",
    "MissionReport",
    "Node",
    "Package",
    "Path",
    "Scenario",
    "Segment",
    "SkywayNetwork",
    "StrategyOutcome",
    "StringRig",
    "TelemetryLog",
    "TelemetryRecord",
    "assign_levels",
    "build_network",
    "check_feasibility",
    "cli_main",
    "compare_strategies",
    "consumption_rate",
    "errors",
    "export_telemetry",
    "generate_scenario",
    "optimal_order",
    "parse_scenario",
    "plan_ndf",
    "plan_optimal",
    "plan_total_distance",
    "serialize_report",
    "serialize_scenario",
    "shortest_path",
    "shortest_paths_from",
    "simulate_mission",
    "stop_matrix",
]
