"""The public surface: every exported name resolves, README's library and
command-line examples run as written, and every public call judges its
arguments."""
from __future__ import annotations

import dataclasses
import functools
import math
import re
import shlex
import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import skyway_delivery as sd
from skyway_delivery.errors import SkywayError

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_exports_resolve_and_readme_library_example_runs(monkeypatch, capsys):
    missing = [name for name in sd.__all__ if not hasattr(sd, name)]
    assert missing == []
    section = README.split("\n## Library use\n", 1)[1]
    example = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True 1645.735464897913\n"


_COMMAND_LINE = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
_SESSIONS = re.findall(r"^```sh\n\$ skyway-delivery (.*?)\n(.*?)^```$", _COMMAND_LINE,
                       re.S | re.M)


@pytest.mark.parametrize("command, output", _SESSIONS, ids=[c.split()[0] for c, _ in _SESSIONS])
def test_readme_command_line_examples_print_as_written(command, output, tmp_path,
                                                       monkeypatch, capsys):
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    assert sd.cli_main(shlex.split(command)) == 0
    assert capsys.readouterr().out == output


def test_readme_shows_every_subcommand():
    assert sorted(command.split()[0] for command, _ in _SESSIONS) == [
        "compare", "gen", "plan", "run"]


@functools.cache
def _valid_calls() -> dict[str, tuple[object, tuple, dict]]:
    """Each public callable, and two methods, with arguments that make a
    valid call on the n1 scenario: name -> (callable, args, kwargs)."""
    path = ROOT / "scenarios" / "n1.json"
    text = path.read_text(encoding="utf-8")
    scenario = sd.parse_scenario(text)
    network, source, packages = scenario.network, scenario.source, scenario.packages
    drone, rig = scenario.drone, scenario.rig
    planned = {"drone": drone, "level_count": rig.level_count}
    plan = sd.plan_ndf(network, source, packages, **planned)
    log, report = sd.simulate_mission(network, plan, sd.assign_levels(plan), drone, rig,
                                      packages)
    result = sd.compare_strategies(scenario)
    calls = {
        "assign_levels": (plan,),
        "build_network": (helpers.N1_NODE_SPECS, helpers.N1_SEGMENT_SPECS),
        "check_feasibility": (drone, packages, rig.level_count),
        "cli_main": (["plan", str(path)],),
        "compare_strategies": (scenario,),
        "consumption_rate": (drone, 2.0),
        "export_telemetry": (log,),
        "generate_scenario": (5, 2, 7, (100.0, 100.0)),
        "optimal_order": ([[0.0, 1.0], [2.0, 0.0]],),
        "parse_scenario": (text,),
        "plan_ndf": (network, source, packages),
        "plan_optimal": (network, source, packages),
        "plan_total_distance": (plan,),
        "serialize_report": (report,),
        "serialize_scenario": (scenario,),
        "shortest_path": (network, "S", "C"),
        "shortest_paths_from": (network, "S", ["A", "C"]),
        "simulate_mission": (network, plan, sd.assign_levels(plan), drone, rig, packages),
        "stop_matrix": (network, ["S", "A", "C"]),
        "TelemetryLog": ([log[0], log[1]],),
    }
    # A class is called with the fields of one of its instances.
    for instance in (result, result.ndf, drone, report.energy, report.energy.legs[0],
                     sd.check_feasibility(drone, packages), sd.assign_levels(plan),
                     plan.legs[0], plan.legs[0].path, plan, report, network.node("S"),
                     packages[0], scenario, network.segments[0], network, rig, log[0]):
        calls[type(instance).__name__] = (
            tuple(instance) if isinstance(instance, tuple)
            else tuple(getattr(instance, f.name) for f in dataclasses.fields(instance)))
    keywords = {"plan_ndf": planned, "plan_optimal": planned,
                "simulate_mission": {"release_dwell": 2.0, "telemetry_step": 0.5}}
    table = {name: (getattr(sd, name), args, keywords.get(name, {}))
             for name, args in calls.items()}
    table["StringRig.hang"] = (rig.hang, (1,), {})
    table["SkywayNetwork.node"] = (network.node, ("S",), {})
    return table


_PUBLIC_CALLABLES = sorted(name for name in sd.__all__
                           if callable(getattr(sd, name)) and name != "errors")
# Values of a wrong type, and non-finite ones, for any argument.
_WRONG = [None, 5, "x", [1], ["S"], math.nan, math.inf, True, {"a": 1}]


def test_every_public_callable_has_a_valid_call():
    assert sorted(_valid_calls()) == sorted(
        [*_PUBLIC_CALLABLES, "StringRig.hang", "SkywayNetwork.node"])


@settings(max_examples=60)
@pytest.mark.parametrize("name", [*_PUBLIC_CALLABLES, "StringRig.hang", "SkywayNetwork.node"])
@given(data=st.data())
def test_a_wrong_argument_raises_a_package_error_or_returns(name, data):
    """One argument of a valid call on n1 replaced by a wrong value: the call
    raises SkywayError or ValueError, or returns."""
    function, args, kwargs = _valid_calls()[name]
    slot = data.draw(st.sampled_from([*range(len(args)), *kwargs]), label="slot")
    value = data.draw(st.sampled_from(_WRONG), label="value")
    args, kwargs = list(args), dict(kwargs)
    if isinstance(slot, int):
        args[slot] = value
    else:
        kwargs[slot] = value
    try:
        function(*args, **kwargs)
    except (SkywayError, ValueError):
        pass


_N1 = helpers.build_n1()
_N1_SCENARIO = sd.parse_scenario((ROOT / "scenarios" / "n1.json").read_text(encoding="utf-8"))
_N1_PLAN = sd.plan_ndf(_N1, "S", helpers.N1_PACKAGES)
# The n1 flight's log, and its own runs: TAKEOFF, ASCEND, then the climb as
# one move.
_N1_LOG = sd.simulate_mission(_N1, _N1_PLAN, sd.assign_levels(_N1_PLAN), sd.DroneConfig(),
                              sd.StringRig(), helpers.N1_PACKAGES)[0]
_N1_RUNS = _N1_LOG._runs


@pytest.mark.parametrize("call, text", [
    (lambda: sd.shortest_path(_N1, ["S"], "A"), "unknown node ['S']"),
    (lambda: sd.shortest_paths_from(5, "S"), "network: expected a SkywayNetwork, got int"),
    (lambda: sd.shortest_paths_from(_N1, "S", 5), "targets: expected an Iterable, got int"),
    (lambda: sd.shortest_paths_from(_N1, "S", [{"a": 1}]), "unknown node {'a': 1}"),
    # A str is iterable, but one character at a time.
    (lambda: sd.shortest_paths_from(_N1, "S", "AB"),
     "targets: expected an iterable of node ids, got str"),
    (lambda: sd.stop_matrix(_N1, 5), "stops: expected an Iterable, got int"),
    (lambda: sd.stop_matrix(_N1, "SA"), "stops: expected an iterable of node ids, got str"),
    # Bytes-like values are iterable too, but one int at a time.
    (lambda: sd.shortest_paths_from(_N1, "S", b"AB"),
     "targets: expected an iterable of node ids, got bytes"),
    (lambda: sd.stop_matrix(_N1, b""), "stops: expected an iterable of node ids, got bytes"),
    (lambda: sd.stop_matrix(_N1, bytearray(b"S")),
     "stops: expected an iterable of node ids, got bytearray"),
    (lambda: sd.shortest_paths_from(_N1, "S", memoryview(b"A")),
     "targets: expected an iterable of node ids, got memoryview"),
    (lambda: sd.build_network(None, []), "node_specs: expected an Iterable, got NoneType"),
    (lambda: sd.build_network([], math.nan), "segment_specs: expected an Iterable, got float"),
    (lambda: sd.optimal_order(5), "dist: expected a Sequence, got int"),
    (lambda: sd.optimal_order([1]), "dist[0]: expected a Sequence, got int"),
    (lambda: sd.plan_ndf("x", "S", helpers.N1_PACKAGES),
     "network: expected a SkywayNetwork, got str"),
    (lambda: sd.plan_optimal(_N1, ["S"], helpers.N1_PACKAGES), "unknown node ['S']"),
    (lambda: sd.simulate_mission(_N1, _N1_PLAN, tuple(sd.assign_levels(_N1_PLAN)),
                                 sd.DroneConfig(), sd.StringRig(), helpers.N1_PACKAGES),
     "assignment: expected a HangingAssignment, got tuple"),
    # A plan's legs are judged before its releases are read.
    (lambda: sd.simulate_mission(_N1, _N1_PLAN._replace(legs=5), sd.HangingAssignment({}, 0),
                                 sd.DroneConfig(), sd.StringRig(), helpers.N1_PACKAGES),
     "plan.legs: expected a tuple, got int"),
    (lambda: sd.assign_levels(_N1_PLAN._replace(legs=[*_N1_PLAN.legs])),
     "plan.legs: expected a tuple, got list"),
    (lambda: sd.assign_levels(_N1_PLAN._replace(legs=(5,))), "plan.legs[0]: expected a Leg, got int"),
    (lambda: sd.plan_total_distance(_N1_PLAN._replace(legs=(sd.Leg(("S",)),))),
     "plan.legs[0].path: expected a Path, got tuple"),
    (lambda: sd.plan_total_distance(_N1_PLAN._replace(legs=(sd.Leg(sd.Path(("S",), "0")),))),
     "plan.legs[0].path.total_length: expected a number, got str"),
    (lambda: sd.plan_total_distance(_N1_PLAN._replace(legs=(sd.Leg(sd.Path(("S",), -5.0)),))),
     "plan.legs[0].path.total_length: must be a number >= 0 (got -5.0)"),
    (lambda: sd.assign_levels(_N1_PLAN._replace(legs=(sd.Leg(sd.Path(("S",), math.nan)),))),
     "plan.legs[0].path.total_length: must be a number >= 0 (got nan)"),
    (lambda: sd.assign_levels(_N1_PLAN._replace(legs=(sd.Leg(sd.Path(("S",), 0.0), ["p1"]),))),
     "plan.legs[0].release: expected a non-empty string"),
    (lambda: sd.StringRig().hang("1"), "level: expected an int, got str"),
    (lambda: sd.StringRig().hang(2.0), "level: expected an int, got float"),
    (lambda: sd.serialize_report(5), "report: expected a MissionReport, got int"),
    (lambda: sd.serialize_scenario(5), "scenario: expected a Scenario, got int"),
    (lambda: sd.compare_strategies(None), "scenario: expected a Scenario, got NoneType"),
    (lambda: sd.cli_main(5), "argv: expected a list, got int"),
    (lambda: sd.cli_main(["plan", 1]), "argv[1]: expected a str, got int"),
    (lambda: sd.TelemetryLog(5), "log: expected a Sequence, got int"),
    (lambda: _N1_LOG[1.0], "index: expected an int or a slice of ints, got float"),
    (lambda: _N1_LOG["a"], "index: expected an int or a slice of ints, got str"),
    (lambda: _N1_LOG[1.0:2], "index: expected an int or a slice of ints, got slice"),
    # The containers that the writers read judge what they hold.
    (lambda: sd.export_telemetry([sd.TelemetryRecord("x", 0, 0, 0, 0, 0)]),
     "log[0].t: expected a number, got str"),
    (lambda: sd.TelemetryLog([sd.TelemetryRecord(0.0, 0, 0, 0, 0, 0, 5)]),
     "log[0].event: expected a str, got int"),
    (lambda: sd.TelemetryLog(_N1_RUNS[:3]), "log[2]: expected a TelemetryRecord, got _Move"),
    (lambda: sd.export_telemetry([sd.TelemetryRecord(0.0, 0, 0, 10**400, 0, 0)]),
     "log[0].z: must be finite"),
    (lambda: dataclasses.replace(_N1_SCENARIO, network=5),
     "network: expected a SkywayNetwork, got int"),
    (lambda: dataclasses.replace(_N1_SCENARIO, packages=[5]),
     "packages[0]: expected a Package, got int"),
    (lambda: dataclasses.replace(_N1_SCENARIO, drone=5), "drone: expected a DroneConfig, got int"),
    (lambda: sd.serialize_report(sd.MissionReport(True, 5, 0.0, None, (0, 0, 0))),
     "report.releases: expected a tuple, got int\n"
     "report.energy: expected an EnergyBreakdown, got NoneType"),
    (lambda: sd.serialize_report(sd.MissionReport(
        True, (), 0.0, sd.EnergyBreakdown((), 0.0), 5)),
     "report.end_position: expected a tuple, got int"),
    (lambda: sd.serialize_report(sd.MissionReport(
        True, (), 0.0, sd.EnergyBreakdown(5, 0.0), (0, 0, 0))),
     "report.energy.legs: expected a tuple, got int"),
    (lambda: sd.serialize_report(sd.MissionReport(
        True, (), 0.0, sd.EnergyBreakdown((5,), 0.0), (0, 0, 0))),
     "report.energy.legs[0]: expected a LegEnergy, got int"),
    # A network judges its fields, also when it is rebuilt with replace.
    (lambda: dataclasses.replace(_N1, segments=(*_N1.segments, sd.Segment("A", "C", -100.0))),
     "segments[4].length: must be 100.0, the distance between its ends (got -100.0)"),
    (lambda: dataclasses.replace(_N1, segments=(5,)),
     "segments[0]: expected an (a, b) pair or an (a, b, length) row"),
    (lambda: dataclasses.replace(_N1, segments=(("A", "ghost", 1.0),)),
     "segments[0].b: unknown node 'ghost'"),
    (lambda: dataclasses.replace(_N1, nodes=5), "nodes: expected a Mapping, got int"),
    (lambda: dataclasses.replace(_N1, nodes={**_N1.nodes, "A": _N1.node("B")}),
     "nodes['A']: expected the Node of id 'A'"),
    (lambda: sd.serialize_report(sd.MissionReport(
        True, (("p1", "A", "t"),), 0.0,
        sd.EnergyBreakdown((sd.LegEnergy(0.0, 0.0, None, 0.0),), 0.0), (0, 0))),
     "report.releases[0][2]: expected a number, got str\n"
     "report.energy.legs[0].rate: expected a number, got NoneType\n"
     "report.end_position: expected 3 values, got 2"),
])
def test_a_call_names_its_argument_of_the_wrong_type(call, text):
    with pytest.raises(SkywayError) as excinfo:
        call()
    assert str(excinfo.value) == text


def test_output_only_results_are_named_tuples():
    """The eight output-only results are tuples of their fields; the input
    types and the compare pair are dataclasses."""
    calls = _valid_calls()
    for name in ("Path", "Leg", "MissionPlan", "HangingAssignment", "FeasibilityReport",
                 "LegEnergy", "EnergyBreakdown", "MissionReport"):
        cls, fields, _ = calls[name]
        result = cls(*fields)
        assert isinstance(result, tuple) and result == fields, name
        assert result._replace(**{cls._fields[0]: "x"}) == ("x", *fields[1:]), name
    assert repr(sd.LegEnergy(1.0, 2.0, 3.0, 4.0)) == (
        "LegEnergy(distance_3d=1.0, payload_mass=2.0, rate=3.0, energy=4.0)")
    # perfbench/workloads.py's CompareWorkload.digests hashes
    # dataclasses.asdict of each CompareResult, so StrategyOutcome and
    # CompareResult stay dataclasses until that digest reads their fields.
    assert {name for name in sd.__all__ if dataclasses.is_dataclass(getattr(sd, name))} == {
        "Node", "SkywayNetwork", "Package", "DroneConfig", "StringRig", "Scenario",
        "StrategyOutcome", "CompareResult"}
    # A network is its nodes and segments; the search index is derived from them.
    assert [f.name for f in dataclasses.fields(sd.SkywayNetwork)] == ["nodes", "segments"]


# The judging checks, then the public searches and the node-list check,
# each of which judges its arguments again.
_CHECKS = ("_judge", "_checked", "_require_plan", "_check_consistency", "_is_walk",
           "shortest_paths_from", "shortest_path", "_distinct_nodes")


def _counting_checks(monkeypatch, checks=_CHECKS) -> Counter:
    """Count the calls of each of ``checks``, in every module that looks it
    up."""
    calls: Counter = Counter()
    modules = (sd.graph, sd.planner, sd.simulator, sd.scenario)
    for name in checks:
        original = next(getattr(module, name) for module in modules if hasattr(module, name))

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


# Calls of each check in _CHECKS per public call, in that order; "legs" is
# one per leg of the plan flown. _require_plan may run up to its count.
_ONE_JUDGEMENT = {
    "parse_scenario": (1, 1, 0, 0, 0, 0, 0, 0),
    "compare_strategies": (0, 1, 0, 0, 0, 0, 0, 1),
    "simulate_mission": (1, 1, 2, 1, "legs", 0, 0, 0),
    "plan_ndf": (1, 1, 0, 0, 0, 0, 0, 0),
    "plan_optimal": (1, 1, 0, 0, 0, 0, 0, 1),
}


@pytest.mark.parametrize("name", _ONE_JUDGEMENT)
def test_a_call_judges_its_arguments_once_on_entry(monkeypatch, name):
    text = sd.serialize_scenario(sd.generate_scenario(60, 5, seed=3))
    scenario = sd.parse_scenario(text)
    manifest = (scenario.network, scenario.source, scenario.packages)
    limits = {"drone": scenario.drone, "level_count": scenario.rig.level_count}
    plan = sd.plan_ndf(*manifest, **limits)
    assignment = sd.assign_levels(plan)
    call = {
        "parse_scenario": lambda: sd.parse_scenario(text),
        "compare_strategies": lambda: sd.compare_strategies(scenario),
        "simulate_mission": lambda: sd.simulate_mission(
            scenario.network, plan, assignment, scenario.drone, scenario.rig, scenario.packages),
        "plan_ndf": lambda: sd.plan_ndf(*manifest, **limits),
        "plan_optimal": lambda: sd.plan_optimal(*manifest, **limits),
    }[name]
    calls = _counting_checks(monkeypatch)
    call()
    expected = dict(zip(_CHECKS, _ONE_JUDGEMENT[name]))
    if expected["_is_walk"] == "legs":
        expected["_is_walk"] = len(plan.legs)
    assert calls["_require_plan"] <= expected.pop("_require_plan")
    assert {check: calls[check] for check in expected} == expected


@pytest.mark.parametrize("name", ["compare_strategies", "simulate_mission"])
def test_a_flight_does_not_judge_its_own_records_again(monkeypatch, name):
    scenario = sd.parse_scenario(sd.serialize_scenario(sd.generate_scenario(60, 5, seed=3)))
    plan = sd.plan_ndf(scenario.network, scenario.source, scenario.packages,
                       drone=scenario.drone, level_count=scenario.rig.level_count)
    call = {
        "compare_strategies": lambda: sd.compare_strategies(scenario),
        "simulate_mission": lambda: sd.simulate_mission(
            scenario.network, plan, sd.assign_levels(plan), scenario.drone, scenario.rig,
            scenario.packages),
    }[name]
    calls = _counting_checks(monkeypatch, ("_record_faults",))
    call()
    assert calls == {}
