"""Field rules: each constructor reports every bad field in one ValidationError.

The scenario parser reports the same violations behind the field's document
path, so a value gets the same verdict from the library and from a document,
whether it is a bad number or not a number at all. A number is stored as a
float, so int and float inputs give the same bytes.
"""
from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from skyway_delivery import (
    DroneConfig,
    Node,
    Package,
    StringRig,
    assign_levels,
    build_network,
    export_telemetry,
    generate_scenario,
    parse_scenario,
    plan_ndf,
    serialize_report,
    serialize_scenario,
    simulate_mission,
)
from skyway_delivery.errors import (DisconnectedNetwork, NonFiniteLength, SkywayError,
                                    ValidationError, ZeroLengthSegment)
from skyway_delivery.scenario import Scenario, _problems

TWO_NODES = {
    "source": "S",
    "nodes": [{"id": "S", "x": 0, "y": 0}, {"id": "T", "x": 10, "y": 0}],
    "segments": [{"a": "S", "b": "T"}],
}
DRONE_FIELDS = ("frame_mass", "max_payload", "battery_capacity", "cruise_speed",
                "vertical_speed", "base_rate", "payload_rate")

values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
                     5e-324, 1.0, 2.5]),
    st.integers(-3, 3),
    # Not numbers, and ints too large for a float, which read as ±inf.
    st.sampled_from([True, False, None, 10 ** 400, -10 ** 400, 10 ** 401 + 7]),
    st.text(max_size=2),
)
hang_lists = st.one_of(st.lists(values, max_size=4), values)


def number(value):
    """The float a field stores for ``value``, or None when it is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def is_finite(value):
    return number(value) is not None and math.isfinite(number(value))


def is_finite_at_least_zero(value):
    return is_finite(value) and number(value) >= 0


def is_finite_above_zero(value):
    return is_finite(value) and number(value) > 0


def is_valid_hang_list(levels):
    if not isinstance(levels, list):
        return False
    hangs = [number(hang) for hang in levels]
    return (all(hang is not None and 0 < hang < math.inf for hang in hangs)
            and all(a > b for a, b in zip(hangs, hangs[1:])))


def verdict(make):
    """The field names a constructor call reports, or [] when it constructs."""
    try:
        make()
    except ValidationError as exc:
        return [violation.split(":")[0].split("[")[0] for violation in exc.violations]
    return []


def constructor_violations(make):
    try:
        make()
    except ValidationError as exc:
        return list(exc.violations)
    return []


def document_violations(text):
    try:
        parse_scenario(text)
    except ValidationError as exc:
        return list(exc.violations)
    return []


def with_two_nodes(**extra):
    doc = dict(TWO_NODES)
    doc.update(extra)
    return json.dumps(doc)


@given(values, values, values)
def test_node_names_exactly_the_bad_fields(x, y, height):
    expected = [name for name, ok in (("x", is_finite(x)), ("y", is_finite(y)),
                                      ("rooftop_height", is_finite_at_least_zero(height)))
                if not ok]
    assert verdict(lambda: Node("n", x, y, height)) == expected
    text = json.dumps({"source": "n",
                       "nodes": [{"id": "n", "x": x, "y": y, "rooftop_height": height}]})
    assert document_violations(text) == [
        f"nodes[0].{v}" for v in constructor_violations(lambda: Node("n", x, y, height))]


@given(values)
def test_package_names_exactly_the_bad_fields(mass):
    expected = [] if is_finite_above_zero(mass) else ["mass"]
    assert verdict(lambda: Package("p", mass, "T")) == expected
    text = with_two_nodes(packages=[{"id": "p", "mass": mass, "destination": "T"}])
    assert document_violations(text) == [
        f"packages[0].{v}" for v in constructor_violations(lambda: Package("p", mass, "T"))]


@given(st.tuples(*[values] * len(DRONE_FIELDS)))
def test_drone_config_names_exactly_the_bad_fields(drawn):
    fields = dict(zip(DRONE_FIELDS, drawn))
    expected = [name for name, value in fields.items()
                if not (is_finite_at_least_zero(value) if name == "frame_mass"
                        else is_finite_above_zero(value))]
    assert verdict(lambda: DroneConfig(**fields)) == expected
    assert document_violations(with_two_nodes(drone=fields)) == [
        f"drone.{v}" for v in constructor_violations(lambda: DroneConfig(**fields))]


@given(hang_lists, values)
def test_string_rig_names_exactly_the_bad_fields(levels, clearance):
    # StringRig reports a bad clearance before bad levels.
    expected = [name for name, ok in (("clearance", is_finite_above_zero(clearance)),
                                      ("levels", is_valid_hang_list(levels)))
                if not ok]
    assert verdict(lambda: StringRig(levels, clearance)) == expected
    text = with_two_nodes(rig={"levels": levels, "clearance": clearance})
    assert document_violations(text) == [
        f"rig.{v}" for v in constructor_violations(lambda: StringRig(levels, clearance))]


def test_validation_error_is_a_value_error_and_a_skyway_error():
    with pytest.raises(ValidationError) as excinfo:
        DroneConfig(max_payload=0.0, cruise_speed=math.nan, payload_rate=-1.0)
    assert isinstance(excinfo.value, ValueError)
    assert isinstance(excinfo.value, SkywayError)
    assert excinfo.value.violations == (
        "max_payload: must be > 0 (got 0.0)",
        "cruise_speed: must be finite",
        "payload_rate: must be > 0 (got -1.0)",
    )


def test_rule_violation_texts():
    assert constructor_violations(lambda: Node("", math.inf, 0.0, -1.0)) == [
        "id: expected a non-empty string", "x: must be finite",
        "rooftop_height: must be >= 0 (got -1.0)"]
    assert constructor_violations(lambda: StringRig((3.0, 3.0), math.inf)) == [
        "clearance: must be finite",
        "levels[1]: hang lengths must strictly decrease from level 1 up"]
    assert constructor_violations(lambda: StringRig((2.0, -1.0, 5.0))) == [
        "levels[1]: expected a positive number"]


def test_package_rejects_an_empty_destination():
    with pytest.raises(ValidationError) as excinfo:
        Package("p", 1.0, "")
    assert excinfo.value.violations == ("destination: expected a non-empty string",)


def test_package_reports_a_non_finite_mass_before_and_a_negative_mass_after_destination():
    assert constructor_violations(lambda: Package("p", math.nan, "")) == [
        "mass: must be finite", "destination: expected a non-empty string"]
    assert constructor_violations(lambda: Package("p", -1.0, "")) == [
        "destination: expected a non-empty string", "mass: must be > 0 (got -1.0)"]


@pytest.mark.parametrize("field", ["x", "y", "rooftop_height"])
def test_node_stores_negative_zero_as_zero(field):
    node = Node("n", **{"x": 1.0, "y": 1.0, "rooftop_height": 1.0, field: -0.0})
    assert math.copysign(1.0, getattr(node, field)) == 1.0


ONE_NODE = {"source": "n", "nodes": [{"id": "n", "x": 0.0, "y": 0.0}]}


@pytest.mark.parametrize("make, document, violation", [
    (lambda: Node("n", True, 0.0), dict(ONE_NODE, nodes=[{"id": "n", "x": True, "y": 0.0}]),
     "nodes[0].x: expected a number, got bool"),
    (lambda: Node(5, 0.0, 0.0), dict(ONE_NODE, nodes=[{"id": 5, "x": 0.0, "y": 0.0}]),
     "nodes[0].id: expected a non-empty string"),
    (lambda: DroneConfig(max_payload="5"), dict(TWO_NODES, drone={"max_payload": "5"}),
     "drone.max_payload: expected a number, got str"),
    (lambda: StringRig(levels="abc"), dict(TWO_NODES, rig={"levels": "abc"}),
     "rig.levels: expected a list of hang lengths"),
    (lambda: StringRig(levels=(3.0, None)), dict(TWO_NODES, rig={"levels": [3.0, None]}),
     "rig.levels[1]: expected a positive number"),
    (lambda: Package("p", "1", "T"),
     dict(TWO_NODES, packages=[{"id": "p", "mass": "1", "destination": "T"}]),
     "packages[0].mass: expected a number, got str"),
])
def test_a_type_fault_reads_the_same_from_the_library_and_a_document(make, document,
                                                                       violation):
    assert constructor_violations(make) == [violation.split(".", 1)[1]]
    assert document_violations(json.dumps(document)) == [violation]


def test_numbers_are_stored_as_floats():
    node = Node("n", 1, 2, 3)
    assert (node.x, node.y, node.rooftop_height) == (1.0, 2.0, 3.0)
    assert all(type(value) is float for value in (node.x, node.y, node.rooftop_height))
    assert type(DroneConfig(max_payload=5).max_payload) is float
    assert type(Package("p", 1, "T").mass) is float
    rig = StringRig([3, 2, 1], 1)
    assert rig.levels == (3.0, 2.0, 1.0)
    assert all(type(value) is float for value in (*rig.levels, rig.clearance))


def fly(scenario):
    plan = plan_ndf(scenario.network, scenario.source, scenario.packages,
                    drone=scenario.drone, level_count=scenario.rig.level_count)
    log, report = simulate_mission(scenario.network, plan, assign_levels(plan),
                                   scenario.drone, scenario.rig, scenario.packages)
    return serialize_scenario(scenario), serialize_report(report), export_telemetry(log)


def test_int_numbers_give_the_same_bytes_as_floats():
    def n1_scenario(num):
        nodes = [(nid, num(x), num(y), num(h)) for nid, x, y, h in helpers.N1_NODE_SPECS]
        return Scenario(
            network=build_network(nodes, helpers.N1_SEGMENT_SPECS),
            source="S",
            drone=DroneConfig(num(1), num(16), num(50_000), num(10), num(2), num(2), num(1)),
            rig=StringRig([num(3), num(2), num(1)], num(1)),
            packages=tuple(Package(p.id, num(p.mass), p.destination)
                           for p in helpers.N1_PACKAGES))

    with_ints, with_floats = fly(n1_scenario(int)), fly(n1_scenario(float))
    assert with_ints == with_floats
    assert '"end_position": [\n    0.0,' in with_ints[1]


# The parts of a document that each item mutation changes; "[]" is one
# item of the list.
_ANY_PART = ("", "drone", "rig", "rig.levels", "nodes", "nodes[]", "segments", "segments[]",
             "packages", "packages[]")
_PARTS = {"replace": _ANY_PART, "drop": _ANY_PART,
          "unknown": ("", "drone", "rig", "nodes[]", "segments[]", "packages[]"),
          "repeat": ("nodes", "segments", "packages"), "reshape": ("segments[]",)}
# The top-level values a mutation may give the wrong shape, and the shapes.
_BLOCKS = ("nodes", "segments", "packages", "drone", "rig")
_WRONG_SHAPES = ({}, [], "", 7)


def _part(draw, doc, names):
    """A non-empty object or list in ``doc`` at one of ``names``, or None."""
    name = draw(st.sampled_from(names))
    part = doc
    for key in filter(None, name.removesuffix("[]").split(".")):
        part = part.get(key) if isinstance(part, dict) else None
    if name.endswith("[]") and isinstance(part, list) and part:
        part = part[draw(st.integers(0, len(part) - 1))]
    return part if isinstance(part, (dict, list)) and part else None


@st.composite
def mutated_documents(draw):
    """Generated scenario documents after one or two mutations: a value
    replaced, a key dropped, an unknown key added, a node, segment or
    package repeated, a segment reshaped, a ``source`` that names no node,
    or one of ``_BLOCKS`` replaced by one of ``_WRONG_SHAPES``."""
    node_count = draw(st.integers(2, 8))
    doc = json.loads(serialize_scenario(generate_scenario(
        node_count, draw(st.integers(0, min(3, node_count - 1))), draw(st.integers(0, 10 ** 6)))))
    ids = [node["id"] for node in doc["nodes"]]
    for _ in range(draw(st.integers(1, 2))):
        mutation = draw(st.sampled_from(("source", "block", "crowd", *_PARTS)))
        if mutation == "source":
            doc["source"] = draw(st.sampled_from(["ghost", "", 7, None]))
            continue
        if mutation == "block":
            doc[draw(st.sampled_from(_BLOCKS))] = copy.deepcopy(draw(st.sampled_from(_WRONG_SHAPES)))
            continue
        if mutation == "crowd":  # fewer rig levels than packages
            rig, packages = doc.get("rig"), doc.get("packages")
            if isinstance(rig, dict) and isinstance(packages, list) and packages:
                rig["levels"] = [float(len(packages) - i) for i in range(1, len(packages))]
            continue
        part = _part(draw, doc, _PARTS[mutation])
        # An earlier mutation may have left no part of the kind this one needs.
        needs = {"repeat": list, "unknown": dict, "reshape": dict}.get(mutation, (dict, list))
        if not isinstance(part, needs) or (mutation == "reshape" and part.keys() != {"a", "b"}):
            continue
        key = draw(st.sampled_from(list(part) if isinstance(part, dict) else range(len(part))))
        if mutation == "replace":
            part[key] = draw(st.one_of(values, st.lists(values, max_size=2),
                                       st.dictionaries(st.text(max_size=2), values, max_size=2),
                                       st.just(""), st.sampled_from([*ids, "ghost"])))
        elif mutation == "drop":
            del part[key]
        elif mutation == "unknown":
            part["wind"] = draw(values)
        elif mutation == "repeat":
            part.append(copy.deepcopy(part[key]))
        else:
            a, b = part["a"], part["b"]
            part.clear()
            part.update(draw(st.sampled_from([
                {"a": b, "b": a}, {"a": a, "b": a}, {"a": a}, {"a": a, "b": b, "length": 1.0},
                {"a": a, "b": "ghost"}, {"a": a, "b": draw(st.sampled_from(ids))}])))
    return doc


@given(mutated_documents())
# Documents that would parse but for one fault at one key, which the
# generated ones seldom hold alone.
@example(dict(TWO_NODES, source="ghost"))
@example(dict(ONE_NODE, segments={}))
@example(dict(TWO_NODES, packages={}))
@example(dict(TWO_NODES, nodes=[]))
@example(dict(TWO_NODES, wind=1))
@example({key: value for key, value in TWO_NODES.items() if key != "source"})
@example(dict(TWO_NODES, segments=[{"a": "S", "b": "T", "length": 10.0}]))
@example(dict(TWO_NODES, packages=[{"id": "p", "mass": 1.0, "destination": "S"}]))
def test_the_parse_and_its_explanation_agree(doc):
    """A document is refused with exactly the faults ``_problems`` finds;
    one without any is refused only with ``build_network``'s fault, or
    parses to the scenario its items build in Python."""
    text = json.dumps(doc)
    problems = _problems(doc)
    if problems:
        assert document_violations(text) == problems
        return
    nodes = [(n["id"], n["x"], n["y"], n.get("rooftop_height", 0.0)) for n in doc["nodes"]]
    try:
        network = build_network(nodes, [(s["a"], s["b"]) for s in doc.get("segments", [])])
    except SkywayError as exc:
        # A fault of the whole network, which no document path names.
        assert isinstance(exc, (DisconnectedNetwork, NonFiniteLength, ZeroLengthSegment))
        assert document_violations(text) == [f"network: {exc}"]
        return
    assert parse_scenario(text) == Scenario(
        network, doc["source"], DroneConfig(**doc.get("drone", {})),
        StringRig(**doc.get("rig", {})),
        tuple(Package(p["id"], p["mass"], p["destination"]) for p in doc.get("packages", [])),
        doc.get("label"))
