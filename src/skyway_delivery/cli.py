"""Command-line front end: plan, run, compare and gen subcommands.

Exit codes: 0 success, 1 infeasible payload or aborted mission, 2 invalid
input or arguments. Output is deterministic byte-for-byte for a given
scenario file.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import InfeasiblePayload, ScenarioSyntaxError, SkywayError
from .planner import PLANNERS, MissionPlan, assign_levels, plan_total_distance
from .scenario import (
    Scenario,
    _csv_chunks,
    generate_scenario,
    parse_scenario,
    serialize_report,
    serialize_scenario,
)
# The compare types stay importable from here as well as from the package.
from .simulator import (  # noqa: F401
    DEFAULT_TELEMETRY_STEP,
    CompareResult,
    StrategyOutcome,
    compare_strategies,
    simulate_mission,
)


def _plan(scenario: Scenario, strategy: str) -> MissionPlan:
    return PLANNERS[strategy](scenario.network, scenario.source, scenario.packages,
                              drone=scenario.drone, level_count=scenario.rig.level_count)


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioSyntaxError(
            f"{path}: not UTF-8 text ({exc.reason} at offset {exc.start})") from exc
    return parse_scenario(text)


def _format_order(release_order: tuple[str, ...]) -> str:
    return " ".join(release_order) if release_order else "(none)"


def _cmd_plan(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    plan = _plan(scenario, args.strategy)
    total = plan_total_distance(plan)
    if args.json:
        doc = {
            "strategy": plan.strategy_label,
            "source": plan.source,
            "release_order": list(plan.release_order),
            "legs": [
                {
                    "nodes": list(leg.path.nodes),
                    "length": leg.path.total_length,
                    "release": leg.release,
                }
                for leg in plan.legs
            ],
            "total_distance": total,
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"strategy: {plan.strategy_label}")
    print(f"source: {plan.source}")
    print(f"release order: {_format_order(plan.release_order)}")
    for i, leg in enumerate(plan.legs, start=1):
        route = " -> ".join(leg.path.nodes)
        tail = f"release {leg.release}" if leg.release is not None else "return"
        print(f"leg {i}: [{route}] {leg.path.total_length:.3f} m  {tail}")
    print(f"total distance: {total:.3f} m")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    plan = _plan(scenario, args.strategy)
    # Without a telemetry file the flight is for its report only, which is the
    # same at any step, so it takes no samples.
    step = DEFAULT_TELEMETRY_STEP if args.telemetry else math.inf
    log, report = simulate_mission(scenario.network, plan, assign_levels(plan),
                                   scenario.drone, scenario.rig, scenario.packages,
                                   telemetry_step=step)
    if args.telemetry:
        # The CSV goes out piece by piece, so no text of the whole log is built.
        with open(args.telemetry, "w", encoding="utf-8", newline="") as file:
            file.writelines(_csv_chunks(log))
    if args.report:
        Path(args.report).write_text(serialize_report(report),
                                     encoding="utf-8", newline="")
    print(f"strategy: {plan.strategy_label}")
    if report.completed:
        print("completed: yes")
    else:
        print(f"completed: no ({report.abort_reason})")
    released = " ".join(f"{pid}@{node} t={t:.3f}s" for pid, node, t in report.releases)
    print(f"releases: {released if released else '(none)'}")
    print(f"total distance (3D): {report.total_distance_3d:.3f} m")
    print(f"total energy: {report.energy.total:.3f} J")
    x, y, z = report.end_position
    print(f"end position: ({x:.3f}, {y:.3f}, {z:.3f})")
    if args.telemetry:
        print(f"telemetry written to {args.telemetry}")
    if args.report:
        print(f"report written to {args.report}")
    return 0 if report.completed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    result = compare_strategies(scenario)
    for outcome in (result.ndf, result.optimal):
        print(f"{outcome.label + ':':<12}order {_format_order(outcome.release_order)}  "
              f"distance {outcome.total_distance:.3f} m  "
              f"energy {outcome.total_energy:.3f} J  "
              f"completed {'yes' if outcome.completed else 'no'}")
    print(f"distance gap: {result.distance_gap_percent:.2f}% "
          f"(ndf {result.ndf.total_distance:.3f} m vs "
          f"exhaustive {result.optimal.total_distance:.3f} m)")
    return 0 if result.ndf.completed and result.optimal.completed else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    scenario = generate_scenario(args.nodes, args.packages, args.seed,
                                 (args.area[0], args.area[1]))
    Path(args.out).write_text(serialize_scenario(scenario),
                              encoding="utf-8", newline="")
    print(f"wrote {args.out} ({args.nodes} nodes, {args.packages} packages, "
          f"seed {args.seed})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyway-delivery",
        description="Plan and simulate single-drone multi-package rooftop delivery.")
    sub = parser.add_subparsers(dest="command", required=True)

    plan_parser = sub.add_parser("plan", help="compute a delivery plan")
    plan_parser.add_argument("scenario", help="scenario JSON file")
    plan_parser.add_argument("--strategy", choices=PLANNERS, default="ndf")
    plan_parser.add_argument("--json", action="store_true",
                             help="emit the plan as JSON")
    plan_parser.set_defaults(handler=_cmd_plan)

    run_parser = sub.add_parser("run", help="plan and fly a mission")
    run_parser.add_argument("scenario", help="scenario JSON file")
    run_parser.add_argument("--strategy", choices=PLANNERS, default="ndf")
    run_parser.add_argument("--telemetry", metavar="CSV",
                            help="write the telemetry log to this file")
    run_parser.add_argument("--report", metavar="JSON",
                            help="write the mission report to this file")
    run_parser.set_defaults(handler=_cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="fly both strategies and report the distance gap")
    compare_parser.add_argument("scenario", help="scenario JSON file")
    compare_parser.set_defaults(handler=_cmd_compare)

    gen_parser = sub.add_parser("gen", help="generate a random scenario")
    gen_parser.add_argument("--nodes", type=int, required=True)
    gen_parser.add_argument("--packages", type=int, required=True)
    gen_parser.add_argument("--seed", type=int, required=True)
    gen_parser.add_argument("--area", type=float, nargs=2, default=(500.0, 500.0),
                            metavar=("WIDTH", "HEIGHT"))
    gen_parser.add_argument("--out", required=True, help="output scenario file")
    gen_parser.set_defaults(handler=_cmd_gen)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except InfeasiblePayload as exc:
        print(f"error: infeasible payload: {exc}", file=sys.stderr)
        return 1
    except (SkywayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
