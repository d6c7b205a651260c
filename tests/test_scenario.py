from __future__ import annotations

import csv
import io
import json

import pytest

from skyway_delivery import (
    DroneConfig,
    StringRig,
    export_telemetry,
    generate_scenario,
    parse_scenario,
    serialize_report,
    serialize_scenario,
)
from skyway_delivery.errors import InvalidParams, ScenarioSyntaxError, ValidationError

MINIMAL = """
{
  "source": "S",
  "nodes": [
    {"id": "S", "x": 0, "y": 0},
    {"id": "T", "x": 10, "y": 0}
  ],
  "segments": [{"a": "S", "b": "T"}]
}
"""


def doc(**overrides):
    base = json.loads(MINIMAL)
    base.update(overrides)
    return json.dumps(base)


def violations_of(text):
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario(text)
    return list(excinfo.value.violations)


def test_minimal_document_gets_defaults():
    scenario = parse_scenario(MINIMAL)
    assert scenario.label is None
    assert scenario.source == "S"
    assert scenario.drone == DroneConfig()
    assert scenario.rig == StringRig()
    assert scenario.packages == ()
    assert scenario.network.node("S").rooftop_height == 0.0
    assert scenario.network.segments[0].length == pytest.approx(10.0)


def test_single_node_document():
    scenario = parse_scenario(json.dumps({
        "source": "only",
        "nodes": [{"id": "only", "x": 3.0, "y": 4.0, "rooftop_height": 9.0}],
    }))
    assert scenario.packages == ()
    assert len(scenario.network.nodes) == 1
    assert scenario.network.segments == ()


def test_partial_drone_block_keeps_other_defaults():
    scenario = parse_scenario(doc(drone={"cruise_speed": 5.0}))
    assert scenario.drone.cruise_speed == 5.0
    assert scenario.drone.max_payload == 15.9
    assert scenario.drone.battery_capacity == 50000.0


def test_bundled_n1_fixture(scenario_dir):
    scenario = parse_scenario((scenario_dir / "n1.json").read_text())
    assert scenario.label == "n1"
    assert sorted(scenario.network.nodes) == ["A", "B", "C", "S"]
    assert len(scenario.network.segments) == 4
    assert [p.id for p in scenario.packages] == ["p1", "p2", "p3"]
    assert scenario.drone == DroneConfig()


def test_bundled_demo3_fixture(scenario_dir):
    scenario = parse_scenario((scenario_dir / "demo3.json").read_text())
    assert scenario.source == "depot"
    assert scenario.rig == StringRig((3.0, 2.0, 1.0), clearance=1.5)
    assert {p.destination for p in scenario.packages} == {
        "exchange", "quay", "galleria"}


def test_malformed_json():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("{not json")


def test_top_level_must_be_object():
    assert violations_of("[1, 2]") == [
        "document: expected a JSON object at the top level"]


def test_unknown_keys_are_rejected():
    problems = violations_of(doc(wind_speed=4))
    assert problems == ["document.wind_speed: unknown key"]


def test_violations_are_aggregated():
    text = json.dumps({
        "source": "S",
        "nodes": [
            {"id": "S", "x": 0, "y": 0},
            {"id": "S", "x": 1, "y": 0, "rooftop_height": -2},
        ],
        "segments": [{"a": "S", "b": "ghost"}],
        "packages": [{"id": "p", "mass": -1, "destination": "S"}],
    })
    problems = violations_of(text)
    assert "nodes[1].id: duplicate node id 'S'" in problems
    assert "nodes[1].rooftop_height: must be >= 0 (got -2.0)" in problems
    assert "segments[0].b: unknown node 'ghost'" in problems
    assert "packages[0].mass: must be > 0 (got -1.0)" in problems
    assert "packages[0].destination: must differ from the source" in problems
    assert len(problems) == 5


def test_missing_required_fields():
    problems = violations_of(json.dumps({"nodes": [{"id": "S"}]}))
    assert "document.source: missing" in problems
    assert "nodes[0].x: missing" in problems
    assert "nodes[0].y: missing" in problems


def test_booleans_are_not_numbers():
    problems = violations_of(doc(nodes=[
        {"id": "S", "x": True, "y": 0}, {"id": "T", "x": 10, "y": 0}]))
    assert problems == ["nodes[0].x: expected a number, got bool"]


def test_non_finite_numbers_rejected():
    problems = violations_of(doc(drone={"base_rate": 1e999}))
    assert problems == ["drone.base_rate: must be finite"]


def test_source_must_exist():
    problems = violations_of(doc(source="elsewhere"))
    assert problems == ["source: unknown node 'elsewhere'"]


def test_segment_self_loop_and_duplicate():
    problems = violations_of(doc(segments=[
        {"a": "S", "b": "S"},
        {"a": "S", "b": "T"},
        {"a": "T", "b": "S"},
    ]))
    assert "segments[0]: self-loop at 'S'" in problems
    assert "segments[2]: duplicate segment 'S'-'T'" in problems


def test_disconnected_network_reported_as_whole_network_fault():
    problems = violations_of(doc(segments=[]))
    assert len(problems) == 1
    assert problems[0].startswith("network: network is disconnected")
    assert "T" in problems[0]


def test_coincident_nodes_reported_as_whole_network_fault():
    problems = violations_of(doc(nodes=[
        {"id": "S", "x": 0, "y": 0}, {"id": "T", "x": 0, "y": 0}]))
    assert len(problems) == 1
    assert problems[0].startswith("network:")


def test_drone_field_bounds():
    problems = violations_of(doc(drone={"max_payload": 0, "frame_mass": -1}))
    assert "drone.max_payload: must be > 0 (got 0.0)" in problems
    assert "drone.frame_mass: must be >= 0 (got -1.0)" in problems


def test_rig_levels_must_strictly_decrease():
    problems = violations_of(doc(rig={"levels": [2.0, 2.0]}))
    assert problems == [
        "rig.levels[1]: hang lengths must strictly decrease from level 1 up"]


def test_rig_level_values_validated():
    assert violations_of(doc(rig={"levels": [3.0, -1.0]})) == [
        "rig.levels[1]: expected a positive number"]
    assert violations_of(doc(rig={"clearance": 0})) == [
        "rig.clearance: must be > 0 (got 0.0)"]


def test_too_many_packages_for_rig():
    packages = [
        {"id": f"p{i}", "mass": 0.5, "destination": "T"} for i in range(4)]
    problems = violations_of(doc(packages=packages))
    assert problems == ["packages: 4 packages exceed the rig's 3 hanging levels"]


def test_duplicate_package_ids():
    problems = violations_of(doc(packages=[
        {"id": "p", "mass": 1, "destination": "T"},
        {"id": "p", "mass": 1, "destination": "T"},
    ]))
    assert problems == ["packages[1].id: duplicate package id 'p'"]


def test_label_must_be_string():
    assert violations_of(doc(label=7)) == ["label: expected a string"]


def test_round_trip_preserves_the_document():
    for seed in (0, 1, 7, 42):
        scenario = generate_scenario(node_count=6, package_count=3, seed=seed)
        text = serialize_scenario(scenario)
        assert parse_scenario(text) == scenario
        assert serialize_scenario(parse_scenario(text)) == text


def test_round_trip_bundled_fixtures(scenario_dir):
    for name in ("n1.json", "n2.json", "demo3.json"):
        scenario = parse_scenario((scenario_dir / name).read_text())
        assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_generation_is_deterministic():
    first = generate_scenario(node_count=8, package_count=4, seed=123)
    second = generate_scenario(node_count=8, package_count=4, seed=123)
    assert first == second
    assert serialize_scenario(first) == serialize_scenario(second)
    assert generate_scenario(node_count=8, package_count=4, seed=124) != first


def test_generation_respects_bounds():
    scenario = generate_scenario(node_count=9, package_count=5, seed=31,
                                 area=(200.0, 120.0))
    assert scenario.label == "gen-n9-p5-s31"
    assert len(scenario.network.nodes) == 9
    assert scenario.source == "n1"
    for node in scenario.network.nodes.values():
        assert 0.0 <= node.x <= 200.0
        assert 0.0 <= node.y <= 120.0
        assert 5.0 <= node.rooftop_height <= 60.0
    assert len(scenario.network.segments) >= 8
    destinations = [p.destination for p in scenario.packages]
    assert len(set(destinations)) == len(destinations)
    assert scenario.source not in destinations
    for package in scenario.packages:
        assert 0.1 < package.mass <= 2.27
    assert scenario.rig.level_count == max(3, 5)


def test_generation_pads_ids_consistently():
    scenario = generate_scenario(node_count=12, package_count=0, seed=2)
    assert sorted(scenario.network.nodes)[:3] == ["n01", "n02", "n03"]


def test_generation_parameter_validation():
    with pytest.raises(InvalidParams):
        generate_scenario(node_count=1, package_count=0, seed=0)
    with pytest.raises(InvalidParams):
        generate_scenario(node_count=3, package_count=-1, seed=0)
    with pytest.raises(InvalidParams):
        generate_scenario(node_count=3, package_count=3, seed=0)
    with pytest.raises(InvalidParams):
        generate_scenario(node_count=3, package_count=1, seed=0, area=(0.0, 10.0))


def test_export_telemetry_empty_log():
    assert export_telemetry([]) == "t,x,y,z,payload_mass,battery_remaining,event\n"


def test_export_telemetry_single_record():
    from skyway_delivery import TelemetryRecord

    text = export_telemetry([TelemetryRecord(0.0, 0.0, 0.0, 0.0, 6.0, 50000.0,
                                             "TAKEOFF")])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.000000,")
    assert lines[1].endswith(",TAKEOFF")


def test_export_telemetry_format(n1_network, n1_packages):
    from skyway_delivery import assign_levels, plan_ndf, simulate_mission

    plan = plan_ndf(n1_network, "S", n1_packages)
    log, report = simulate_mission(
        n1_network, plan, assign_levels(plan), DroneConfig(), StringRig(),
        n1_packages)
    text = export_telemetry(log)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["t", "x", "y", "z", "payload_mass",
                       "battery_remaining", "event"]
    assert len(rows) == len(log) + 1
    assert rows[1] == ["0.000000", "0.000000", "0.000000", "0.000000",
                       "6.000000", "50000.000000", "TAKEOFF"]
    events = [row[6] for row in rows[1:] if row[6]]
    assert events[0] == "TAKEOFF"
    assert events[-1] == "LAND"
    assert "RELEASE(p2)" in events
    assert text.endswith("\n")
    assert serialize_report(report)  # smoke: report renders too


def test_serialize_report_layout(n1_network, n1_packages):
    from skyway_delivery import assign_levels, plan_ndf, simulate_mission

    plan = plan_ndf(n1_network, "S", n1_packages)
    _, report = simulate_mission(
        n1_network, plan, assign_levels(plan), DroneConfig(), StringRig(),
        n1_packages)
    doc = json.loads(serialize_report(report))
    assert list(doc) == ["completed", "releases", "total_distance_3d",
                         "energy", "end_position", "abort_reason"]
    assert doc["completed"] is True
    assert doc["abort_reason"] is None
    assert [r["package"] for r in doc["releases"]] == ["p1", "p2", "p3"]
    assert doc["releases"][0]["node"] == "A"
    assert doc["energy"]["total"] == pytest.approx(1645.735464897913)
    assert len(doc["energy"]["legs"]) == 4
    assert doc["end_position"] == pytest.approx([0.0, 0.0, 0.0])


def test_overflowing_segment_reported_as_whole_network_fault():
    problems = violations_of(doc(nodes=[
        {"id": "S", "x": -1e308, "y": 0}, {"id": "T", "x": 1e308, "y": 0}]))
    assert len(problems) == 1
    assert problems[0].startswith("network:")
