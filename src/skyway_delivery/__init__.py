"""Single-drone multi-package delivery over skyway networks.

The package splits into five pieces: ``graph`` (the rooftop network),
``planner`` (release-order strategies), ``energy`` (payload-linear battery
model), ``simulator`` (kinematic mission execution) and ``scenario``/``cli``
(document I/O and the command-line front end).
"""
from __future__ import annotations

from . import errors
from .cli import cli_main
from .energy import (
    BatteryState,
    EnergyBreakdown,
    LegEnergy,
    consumption_rate,
    drain,
    leg_energy,
)
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
    Scenario,
    export_telemetry,
    generate_scenario,
    parse_scenario,
    serialize_report,
    serialize_scenario,
)
from .simulator import (
    DEFAULT_RELEASE_DWELL,
    DEFAULT_TELEMETRY_STEP,
    CompareResult,
    MissionReport,
    StrategyOutcome,
    StringRig,
    TelemetryLog,
    TelemetryRecord,
    compare_strategies,
    cruise_altitude,
    release_altitude,
    simulate_mission,
)

__version__ = "0.1.0"

__all__ = [
    "BatteryState",
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
    "cruise_altitude",
    "drain",
    "errors",
    "export_telemetry",
    "generate_scenario",
    "leg_energy",
    "optimal_order",
    "parse_scenario",
    "plan_ndf",
    "plan_optimal",
    "plan_total_distance",
    "release_altitude",
    "serialize_report",
    "serialize_scenario",
    "shortest_path",
    "shortest_paths_from",
    "simulate_mission",
    "stop_matrix",
]
