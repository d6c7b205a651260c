from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from skyway_delivery import graph, scenario as scenario_module
from skyway_delivery import (
    DroneConfig,
    Node,
    Package,
    Scenario,
    StringRig,
    TelemetryLog,
    TelemetryRecord,
    build_network,
    export_telemetry,
    generate_scenario,
    parse_scenario,
    serialize_report,
    serialize_scenario,
)
from skyway_delivery.errors import (
    InfeasiblePayload,
    InvalidPackage,
    InvalidParams,
    ScenarioSyntaxError,
    SkywayError,
    UnknownDestination,
    UnknownNode,
    ValidationError,
)
from skyway_delivery.simulator import _csv_chunks

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


@pytest.mark.parametrize("text, name", [(5, "int"), (None, "NoneType"), (["{}"], "list")])
def test_a_document_that_is_not_text_is_a_syntax_error(text, name):
    with pytest.raises(ScenarioSyntaxError, match=f"got {name}$"):
        parse_scenario(text)


def test_a_document_in_bytes_parses():
    assert parse_scenario(MINIMAL.encode()) == parse_scenario(MINIMAL)


@pytest.mark.parametrize("text", ["[" * 100_000, '{"nodes": ' * 100_000])
def test_json_nested_past_the_decoder_limit_is_a_syntax_error(text):
    with pytest.raises(ScenarioSyntaxError, match="^invalid JSON: "):
        parse_scenario(text)


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


HUGE = 10 ** 400  # a JSON integer literal too large for a float


@pytest.mark.parametrize("overrides, violation", [
    ({"nodes": [{"id": "S", "x": HUGE, "y": 0}, {"id": "T", "x": 10, "y": 0}]},
     "nodes[0].x: must be finite"),
    ({"nodes": [{"id": "S", "x": 0, "y": 0}, {"id": "T", "x": 10, "y": -HUGE}]},
     "nodes[1].y: must be finite"),
    ({"drone": {"battery_capacity": HUGE}}, "drone.battery_capacity: must be finite"),
    ({"drone": {"frame_mass": -HUGE}}, "drone.frame_mass: must be finite"),
    ({"rig": {"levels": [HUGE, 2, 1]}}, "rig.levels[0]: expected a positive number"),
    ({"rig": {"clearance": HUGE}}, "rig.clearance: must be finite"),
    ({"packages": [{"id": "p", "mass": HUGE, "destination": "T"}]},
     "packages[0].mass: must be finite"),
])
def test_integer_too_large_for_a_float_is_a_violation(overrides, violation):
    assert violations_of(doc(**overrides)) == [violation]


def test_integer_past_the_digit_limit_is_not_a_crash():
    # Interpreters with a digit limit for int conversion refuse the literal
    # (a syntax error); others read it as an infinite x.
    text = MINIMAL.replace('"x": 10', '"x": 1' + "0" * 5000)
    try:
        parse_scenario(text)
    except ScenarioSyntaxError:
        pass
    except ValidationError as exc:
        assert list(exc.violations) == ["nodes[1].x: must be finite"]
    else:
        raise AssertionError("a 5001-digit x was accepted")


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
    for nodes, packages, seed in ((6, 3, 0), (6, 3, 1), (6, 3, 7), (6, 3, 42),
                                  (2, 0, 5), (2, 1, 3), (50, 3, 9), (500, 9, 2)):
        scenario = generate_scenario(node_count=nodes, package_count=packages, seed=seed)
        text = serialize_scenario(scenario)
        assert text == helpers.json_dumps_scenario(scenario)
        assert parse_scenario(text) == scenario
        assert serialize_scenario(parse_scenario(text)) == text


def test_round_trip_bundled_fixtures(scenario_dir):
    for name in ("n1.json", "n2.json", "demo3.json"):
        scenario = parse_scenario((scenario_dir / name).read_text())
        assert serialize_scenario(scenario) == helpers.json_dumps_scenario(scenario)
        assert parse_scenario(serialize_scenario(scenario)) == scenario


# Ids with the characters JSON escapes: quotes, backslashes, control
# characters and anything outside ASCII.
_ODD_IDS = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f681'),
                             st.characters()), min_size=1, max_size=6)


@st.composite
def odd_scenarios(draw):
    """Scenarios built through the API: odd ids, int or float coordinates, any label."""
    ids = draw(st.lists(_ODD_IDS, min_size=1, max_size=6, unique=True))
    coordinate = st.one_of(st.integers(-10**6, 10**6),
                           st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))
    height = st.one_of(st.integers(0, 500), st.floats(0.0, 500.0))
    # Node i sits at x = i, so positions are distinct and a path joins them.
    nodes = [Node(node_id, i, draw(coordinate), draw(height)) for i, node_id in enumerate(ids)]
    network = build_network(nodes, list(zip(ids, ids[1:])))
    # Each package goes to a node other than the source, so a one-node
    # network gets none.
    package_ids = draw(st.lists(_ODD_IDS, max_size=3 if len(ids) > 1 else 0, unique=True))
    packages = tuple(Package(package_id, draw(st.one_of(st.integers(1, 9), st.floats(0.01, 9.0))),
                             draw(st.sampled_from(ids[1:])))
                     for package_id in package_ids)
    drone = DroneConfig(max_payload=draw(st.one_of(st.integers(1, 50), st.floats(0.5, 50.0))))
    return Scenario(network=network, source=ids[0], drone=drone, rig=StringRig(),
                    packages=packages, label=draw(st.none() | st.text(max_size=8)))


@given(odd_scenarios())
def test_serialize_scenario_matches_json_dumps(scenario):
    assert serialize_scenario(scenario) == helpers.json_dumps_scenario(scenario)
    assert parse_scenario(serialize_scenario(scenario)) == scenario


def _document_value(value):
    """A Scenario field's value as its scenario document writes it."""
    if isinstance(value, tuple):
        return [dataclasses.asdict(item) for item in value]
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value


@pytest.mark.parametrize("changes, error, text", [
    ({"packages": (*helpers.N1_PACKAGES, Package("h", 1.0, "S"))}, InvalidPackage,
     "package 'h': packages[3].destination: must differ from the source"),
    ({"packages": (*helpers.N1_PACKAGES, Package("g", 1.0, "ghost"))}, UnknownDestination,
     "package 'g': packages[3].destination: unknown node 'ghost'"),
    ({"packages": (*helpers.N1_PACKAGES, Package("p1", 1.0, "A"))}, InvalidPackage,
     "package 'p1': packages[3].id: duplicate package id 'p1'"),
    ({"source": "nowhere"}, UnknownNode, "unknown node 'nowhere'"),
    ({"rig": StringRig((2.0, 1.0))}, InfeasiblePayload,
     "3 packages exceed the rig's 2 hanging levels"),
])
def test_a_scenario_refuses_what_the_parser_refuses(scenario_dir, changes, error, text):
    """A Scenario made in Python, here through ``replace``, refuses each
    manifest the parser refuses, with the planners' error and text."""
    n1 = parse_scenario((scenario_dir / "n1.json").read_text())
    doc = json.loads(serialize_scenario(n1))
    doc.update({key: _document_value(value) for key, value in changes.items()})
    with pytest.raises(ValidationError):
        parse_scenario(json.dumps(doc))
    with pytest.raises(error) as excinfo:
        dataclasses.replace(n1, **changes)
    assert str(excinfo.value) == text


def test_an_overweight_scenario_builds_and_round_trips(scenario_dir):
    """The payload is left to the planners and the flight: 30 kg on a
    15.9 kg drone builds, parses and serializes."""
    n1 = parse_scenario((scenario_dir / "n1.json").read_text())
    heavy = dataclasses.replace(n1, packages=tuple(
        dataclasses.replace(package, mass=10.0) for package in n1.packages))
    assert parse_scenario(serialize_scenario(heavy)) == heavy


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
    with pytest.raises(InvalidParams, match="area"):
        generate_scenario(node_count=3, package_count=1, seed=0, area=(math.inf, 10.0))


@pytest.mark.parametrize("args, message", [
    ((3.0, 1, 1), "node_count: expected an int, got float"),
    ((5, True, 1), "package_count: expected an int, got bool"),
    ((5, 1, "1"), "seed: expected an int, got str"),
    ((5, 1, None), "seed: expected an int, got NoneType"),
    ((5, 1, 1, ("a", 5)), "area must be a (width, height) pair of numbers, got ('a', 5)"),
    ((5, 1, 1, (5,)), "area must be a (width, height) pair of numbers, got (5,)"),
    ((5, 1, 1, (5.0, True)), "area must be a (width, height) pair of numbers, got (5.0, True)"),
    ((5, 1, 1, (10 ** 400, 5.0)), "area must be positive and finite, got "),
])
def test_generation_judges_its_argument_types(args, message):
    with pytest.raises(InvalidParams) as excinfo:
        generate_scenario(*args)
    assert str(excinfo.value).startswith(message)


def test_generation_rejects_an_area_with_fewer_positions_than_nodes():
    # Coordinates are rounded to 0.01 m: a 1 mm square holds one position.
    with pytest.raises(InvalidParams, match="^area"):
        generate_scenario(node_count=5, package_count=2, seed=1, area=(1e-3, 1e-3))
    with pytest.raises(InvalidParams, match="^area"):
        generate_scenario(node_count=5, package_count=2, seed=1, area=(0.01, 0.01))
    # round(0.005, 2) is 0.01, but uniform(0, 0.005) stays below 0.005 and
    # so always rounds to 0.00.
    with pytest.raises(InvalidParams, match="^area"):
        generate_scenario(node_count=2, package_count=1, seed=1, area=(0.005, 0.001))


def test_generation_fills_a_tight_area():
    # A 1 cm square holds exactly four positions: its corners.
    scenario = generate_scenario(node_count=4, package_count=2, seed=1, area=(0.01, 0.01))
    positions = {(node.x, node.y) for node in scenario.network.nodes.values()}
    assert positions == {(0.0, 0.0), (0.0, 0.01), (0.01, 0.0), (0.01, 0.01)}


def test_export_telemetry_empty_log():
    assert export_telemetry([]) == "t,x,y,z,payload_mass,battery_remaining,event\n"


_LOG_FAULTS = pytest.mark.parametrize("log, violations", [
    ([1], ["log[0]: expected a TelemetryRecord, got int"]),
    (None, ["log: expected a Sequence, got NoneType"]),
    (5, ["log: expected a Sequence, got int"]),
    ({"a": 1}, ["log: expected a Sequence, got dict"]),
    ([TelemetryRecord(0, 0, 0, 0, 0, 0), "x", None],
     ["log[1]: expected a TelemetryRecord, got str",
      "log[2]: expected a TelemetryRecord, got NoneType"]),
])


@_LOG_FAULTS
def test_export_telemetry_judges_its_argument(log, violations):
    with pytest.raises(ValidationError) as excinfo:
        export_telemetry(log)
    assert list(excinfo.value.violations) == violations


@_LOG_FAULTS
def test_a_telemetry_log_judges_its_runs(log, violations):
    """The export reads a plain sequence as a log, so both report the same."""
    with pytest.raises(ValidationError) as excinfo:
        TelemetryLog(log)
    assert list(excinfo.value.violations) == violations


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


# Values a caller can put into a record through the API: floats of every
# kind, ints and bools.
_RECORD_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     1e300, -1e300, 5e-324, 0.0000005, 2.5e-6]),
    st.integers(-10**300, 10**300),
    st.booleans(),
)
# csv.writer itself treats \r and NUL differently from one Python to the
# next, so the oracle only covers events without them; the CLI tests pin the
# bytes for those two.
_EVENTS = st.text(st.one_of(st.sampled_from(',"\n '),
                            st.characters(exclude_characters="\r\x00")))


@given(st.lists(st.builds(TelemetryRecord, *[_RECORD_VALUES] * 6,
                          event=st.just("") | _EVENTS), max_size=12))
# More than 2 * 4096 records, so that the export yields several full pieces.
@example([TelemetryRecord(i / 8, i, -i, 0.5, 0.0, 1.0, "E,1" if i % 3 else "")
          for i in range(9000)])
def test_export_telemetry_matches_csv_writer(log):
    assert export_telemetry(log) == helpers.csv_writer_export(log)
    assert all(piece.count("\n") < 8192 for piece in _csv_chunks(TelemetryLog(log)))


def test_telemetry_record_is_a_read_only_tuple():
    record = TelemetryRecord(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert (record.t, record.x, record.y, record.z, record.payload_mass,
            record.battery_remaining, record.event) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, "")
    assert record == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, "")
    assert record[6] == record.event == ""
    with pytest.raises(AttributeError):
        record.t = 0.0
    with pytest.raises(AttributeError):
        record.event = "LAND"


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


# -- pinned violation lists ---------------------------------------------------
# Each malformed document with its exact ValidationError.violations, text and
# order, as the parser reported them before the value rules moved into the
# constructors. The cases mix faults inside one object on purpose: type and
# value faults, several bad drone fields, bad rig clearance and levels.

NAN, INF = math.nan, math.inf
NODE_S = {"id": "S", "x": 0, "y": 0}
NODE_T = {"id": "T", "x": 10, "y": 0}
SEG_ST = {"a": "S", "b": "T"}


def _package(package_id="p", mass=1, destination="T"):
    return {"id": package_id, "mass": mass, "destination": destination}


PINNED_VIOLATIONS = [
    ("raw_1e999_rooftop",
     '{"source": "S", "nodes": [{"id": "S", "x": 0, "y": 0, "rooftop_height": 1e999}]}',
     ["nodes[0].rooftop_height: must be finite"]),
    ("raw_nan_coordinate_and_mass",
     '{"source": "S", "nodes": [{"id": "S", "x": NaN, "y": 0}, {"id": "T", "x": 1, "y": 0}],'
     ' "segments": [{"a": "S", "b": "T"}],'
     ' "packages": [{"id": "p", "mass": -Infinity, "destination": "T"}]}',
     ["nodes[0].x: must be finite", "packages[0].mass: must be finite"]),
    ("node_type_then_value", doc(nodes=[{"id": "S", "x": "far", "y": INF}, NODE_T]),
     ["nodes[0].x: expected a number, got str", "nodes[0].y: must be finite"]),
    ("node_value_then_type", doc(nodes=[{"id": "S", "x": NAN, "y": "0"}, NODE_T]),
     ["nodes[0].x: must be finite", "nodes[0].y: expected a number, got str"]),
    ("node_bool_and_negative_rooftop",
     doc(nodes=[{"id": "S", "x": True, "y": 0, "rooftop_height": -1}, NODE_T]),
     ["nodes[0].x: expected a number, got bool",
      "nodes[0].rooftop_height: must be >= 0 (got -1.0)"]),
    ("node_empty_id", doc(nodes=[NODE_S, {"id": "", "x": 10, "y": 0}]),
     ["nodes[1].id: expected a non-empty string", "segments[0].b: unknown node 'T'"]),
    ("node_numeric_id", doc(nodes=[NODE_S, {"id": 7, "x": 10, "y": 0}]),
     ["nodes[1].id: expected a non-empty string", "segments[0].b: unknown node 'T'"]),
    ("node_missing_coords_and_unknown_key", doc(nodes=[NODE_S, {"id": "T", "z": 1}]),
     ["nodes[1].z: unknown key", "nodes[1].x: missing", "nodes[1].y: missing"]),
    ("nodes_not_a_list", doc(nodes={"S": NODE_S}),
     ["nodes: expected a non-empty list", "segments[0].a: unknown node 'S'",
      "segments[0].b: unknown node 'T'"]),
    ("nodes_empty", doc(nodes=[], segments=[]),
     ["nodes: expected a non-empty list"]),
    ("node_not_an_object", doc(nodes=[NODE_S, 3]),
     ["nodes[1]: expected an object", "segments[0].b: unknown node 'T'"]),
    ("node_duplicate_id", doc(nodes=[NODE_S, NODE_T, {"id": "S", "x": 5, "y": 5}]),
     ["nodes[2].id: duplicate node id 'S'"]),
    ("node_bad_coords_still_known_to_segments",
     doc(nodes=[NODE_S, {"id": "T", "x": INF, "y": 0}]),
     ["nodes[1].x: must be finite"]),
    ("segment_both_endpoints_unknown", doc(segments=[SEG_ST, {"a": "U", "b": "V"}]),
     ["segments[1].a: unknown node 'U'", "segments[1].b: unknown node 'V'"]),
    ("segment_self_loop_on_unknown_node", doc(segments=[SEG_ST, {"a": "Q", "b": "Q"}]),
     ["segments[1].a: unknown node 'Q'", "segments[1].b: unknown node 'Q'",
      "segments[1]: self-loop at 'Q'"]),
    ("segment_duplicate_reversed", doc(segments=[SEG_ST, {"a": "T", "b": "S"}]),
     ["segments[1]: duplicate segment 'S'-'T'"]),
    ("segment_duplicate_with_unknown_endpoint",
     doc(segments=[SEG_ST, {"a": "S", "b": "X"}, {"a": "X", "b": "S"}]),
     ["segments[1].b: unknown node 'X'", "segments[2].a: unknown node 'X'",
      "segments[2]: duplicate segment 'S'-'X'"]),
    ("segment_empty_endpoint", doc(segments=[{"a": "", "b": "T"}]),
     ["segments[0].a: expected a non-empty string"]),
    ("segments_not_a_list", doc(segments="S-T"),
     ["segments: expected a list"]),
    ("segment_not_an_object", doc(segments=[SEG_ST, ["S", "T"]]),
     ["segments[1]: expected an object"]),
    ("segment_unknown_key_and_missing_end", doc(segments=[{"a": "S", "c": "T"}]),
     ["segments[0].c: unknown key", "segments[0].b: missing"]),
    ("rig_clearance_and_levels_bad", doc(rig={"clearance": 0, "levels": [2.0, 3.0]}),
     ["rig.clearance: must be > 0 (got 0.0)",
      "rig.levels[1]: hang lengths must strictly decrease from level 1 up"]),
    ("rig_nan_clearance_and_levels_not_a_list",
     doc(rig={"clearance": NAN, "levels": "3,2,1"}),
     ["rig.clearance: must be finite", "rig.levels: expected a list of hang lengths"]),
    ("rig_levels_bool_then_negative", doc(rig={"levels": [True, -1]}),
     ["rig.levels[0]: expected a positive number"]),
    ("rig_levels_negative_then_string", doc(rig={"levels": [3.0, -1.0, "x"]}),
     ["rig.levels[1]: expected a positive number"]),
    ("rig_levels_rising_then_string", doc(rig={"levels": [2.0, 3.0, "x"]}),
     ["rig.levels[2]: expected a positive number"]),
    ("rig_levels_infinite", doc(rig={"levels": [INF, 1.0]}),
     ["rig.levels[0]: expected a positive number"]),
    ("rig_levels_zero", doc(rig={"levels": [1.0, 0]}),
     ["rig.levels[1]: expected a positive number"]),
    ("rig_not_an_object", doc(rig=[3.0, 2.0]),
     ["rig: expected an object"]),
    ("rig_unknown_key_and_string_clearance", doc(rig={"clearance": "1", "hooks": 3}),
     ["rig.hooks: unknown key", "rig.clearance: expected a number, got str"]),
    ("rig_empty_levels_with_a_package", doc(rig={"levels": []}, packages=[_package()]),
     ["packages: 1 packages exceed the rig's 0 hanging levels"]),
    ("drone_several_bad_fields",
     doc(drone={"frame_mass": -1, "max_payload": "x", "battery_capacity": 0,
                "cruise_speed": NAN, "vertical_speed": INF, "base_rate": -0.0,
                "payload_rate": True}),
     ["drone.frame_mass: must be >= 0 (got -1.0)",
      "drone.max_payload: expected a number, got str",
      "drone.battery_capacity: must be > 0 (got 0.0)",
      "drone.cruise_speed: must be finite",
      "drone.vertical_speed: must be finite",
      "drone.base_rate: must be > 0 (got -0.0)",
      "drone.payload_rate: expected a number, got bool"]),
    ("drone_value_fault_before_type_fault",
     doc(drone={"frame_mass": -0.5, "cruise_speed": None}),
     ["drone.frame_mass: must be >= 0 (got -0.5)",
      "drone.cruise_speed: expected a number, got NoneType"]),
    ("drone_unknown_key_and_negative_infinity", doc(drone={"wind": 3, "payload_rate": -INF}),
     ["drone.wind: unknown key", "drone.payload_rate: must be finite"]),
    ("drone_not_an_object", doc(drone=5),
     ["drone: expected an object"]),
    ("package_bad_mass_and_destination", doc(packages=[_package(mass=-1, destination=5)]),
     ["packages[0].destination: expected a non-empty string",
      "packages[0].mass: must be > 0 (got -1.0)"]),
    ("package_infinite_mass_and_bad_destination",
     doc(packages=[_package(mass=INF, destination=5)]),
     ["packages[0].mass: must be finite",
      "packages[0].destination: expected a non-empty string"]),
    ("package_empty_id_and_destination", doc(packages=[_package("", destination="")]),
     ["packages[0].id: expected a non-empty string",
      "packages[0].destination: expected a non-empty string"]),
    ("package_string_mass_unknown_destination",
     doc(packages=[_package(mass="1", destination="ghost")]),
     ["packages[0].mass: expected a number, got str",
      "packages[0].destination: unknown node 'ghost'"]),
    ("package_duplicate_id_and_source_destination",
     doc(packages=[_package(), _package(mass=0, destination="S")]),
     ["packages[1].mass: must be > 0 (got 0.0)",
      "packages[1].id: duplicate package id 'p'",
      "packages[1].destination: must differ from the source"]),
    ("packages_not_a_list", doc(packages={"id": "p"}),
     ["packages: expected a list"]),
    ("too_many_packages_and_one_bad",
     doc(packages=[_package(f"p{i}", mass=1 - i) for i in range(4)]),
     ["packages[1].mass: must be > 0 (got 0.0)",
      "packages[2].mass: must be > 0 (got -1.0)",
      "packages[3].mass: must be > 0 (got -2.0)",
      "packages: 4 packages exceed the rig's 3 hanging levels"]),
    ("source_empty_and_label_number", doc(source="", label=3),
     ["label: expected a string", "document.source: expected a non-empty string"]),
    ("source_unknown_with_unknown_top_key", doc(source="X", wind=1),
     ["document.wind: unknown key", "source: unknown node 'X'"]),
    ("network_fault_hidden_by_field_fault", doc(segments=[], drone={"base_rate": 0}),
     ["drone.base_rate: must be > 0 (got 0.0)"]),
    ("disconnected_network", doc(nodes=[NODE_S, NODE_T, {"id": "U", "x": 3, "y": 3}]),
     ["network: network is disconnected; unreachable nodes: U"]),
    ("coincident_nodes", doc(nodes=[NODE_S, {"id": "T", "x": -0.0, "y": 0}]),
     ["network: segment 'S'-'T' joins coincident positions"]),
    # Keys that name the constructor's own parameter or class attributes are
    # unknown keys like any other.
    ("node_keys_named_like_class_members",
     doc(nodes=[{**NODE_S, "self": 1, "RULES": 2, "__class__": 3}, NODE_T]),
     ["nodes[0].self: unknown key", "nodes[0].RULES: unknown key",
      "nodes[0].__class__: unknown key"]),
    ("package_keys_named_like_class_members",
     doc(packages=[{**_package(), "__class__": 1, "self": 2, "RULES": 3}]),
     ["packages[0].__class__: unknown key", "packages[0].self: unknown key",
      "packages[0].RULES: unknown key"]),
    ("drone_keys_named_like_class_members",
     doc(drone={"RULES": 1, "__class__": 2, "self": 3}),
     ["drone.RULES: unknown key", "drone.__class__: unknown key", "drone.self: unknown key"]),
    ("rig_keys_named_like_class_members",
     doc(rig={"self": 1, "__class__": 2, "RULES": 3}),
     ["rig.self: unknown key", "rig.__class__: unknown key", "rig.RULES: unknown key"]),
    # The node still builds, so the segment that names it finds it.
    ("valid_node_with_unknown_key_is_still_known",
     doc(nodes=[NODE_S, {**NODE_T, "z": 1}]),
     ["nodes[1].z: unknown key"]),
    ("segment_third_key", doc(segments=[{**SEG_ST, "length": 10}]),
     ["segments[0].length: unknown key"]),
    ("segment_numeric_endpoint", doc(segments=[{"a": 7, "b": "T"}]),
     ["segments[0].a: expected a non-empty string"]),
]


@pytest.mark.parametrize("text, expected",
                         [case[1:] for case in PINNED_VIOLATIONS],
                         ids=[case[0] for case in PINNED_VIOLATIONS])
def test_pinned_violation_lists(text, expected):
    assert violations_of(text) == expected


# -- one check per item --------------------------------------------------------

def test_one_parse_checks_each_node_and_segment_once(monkeypatch):
    text = serialize_scenario(generate_scenario(60, 4, seed=7))
    calls = Counter()
    originals = {name: getattr(graph, name) for name in ("node_faults", "segment_faults")}
    for name, original in originals.items():
        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        for module in (graph, scenario_module):
            monkeypatch.setattr(module, name, counted)
    network = parse_scenario(text).network
    assert calls == {"node_faults": len(network.nodes),
                     "segment_faults": len(network.segments)}


def test_a_valid_document_runs_no_item_diagnosis(monkeypatch):
    text = serialize_scenario(generate_scenario(60, 4, seed=7))
    calls = Counter()
    for name in ("_reject_unknown", "_take", "field_violations"):
        def counted(*args, original=getattr(scenario_module, name), name=name):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(scenario_module, name, counted)
    parse_scenario(text)
    # Only the document's own keys and its source are looked at one by one.
    assert calls == {"_reject_unknown": 1, "_take": 1}


def network_items(text):
    """The node tuples and segment pairs of a scenario document."""
    doc = json.loads(text)
    nodes = [(n["id"], n["x"], n["y"], n.get("rooftop_height", 0.0)) for n in doc["nodes"]]
    return nodes, [(s["a"], s["b"]) for s in doc.get("segments", [])]


def assert_parser_network_is_build_network(text):
    """The parser's network is ``build_network``'s on the same items, and a
    faulty network gives the parser's ``network:`` violation the same text."""
    try:
        expected = build_network(*network_items(text))
    except SkywayError as exc:
        assert violations_of(text) == [f"network: {exc}"]
    else:
        assert parse_scenario(text).network == expected


@st.composite
def network_documents(draw):
    """Generated scenario documents, some with a network fault: a segment
    between two nodes at one position, a segment too long to measure, or a
    node that no segment reaches."""
    node_count = draw(st.integers(2, 12))
    generated = generate_scenario(node_count, draw(st.integers(0, min(3, node_count - 1))),
                                  draw(st.integers(0, 10 ** 6)))
    document = json.loads(serialize_scenario(generated))
    by_id = {node["id"]: node for node in document["nodes"]}
    segment = draw(st.sampled_from(document["segments"]))
    a, b = by_id[segment["a"]], by_id[segment["b"]]
    fault = draw(st.sampled_from(["none", "coincident", "overflow", "disconnected"]))
    if fault == "coincident":
        b["x"], b["y"] = a["x"], a["y"]
    elif fault == "overflow":
        a["x"], b["x"] = -1e308, 1e308
    elif fault == "disconnected":
        document["nodes"].append({"id": "z", "x": -1.0, "y": -1.0, "rooftop_height": 0.0})
    return json.dumps(document)


@given(network_documents())
def test_parser_network_equals_build_network(text):
    assert_parser_network_is_build_network(text)


@pytest.mark.parametrize("name", ["n1", "n2", "demo3"])
def test_bundled_parser_network_equals_build_network(scenario_dir, name):
    assert_parser_network_is_build_network((scenario_dir / f"{name}.json").read_text())
