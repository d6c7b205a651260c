"""Field rules: each constructor reports every bad field in one ValidationError.

The scenario parser reports the same violations behind the field's document
path, so a value gets the same verdict from the library and from a document.
"""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skyway_delivery import DroneConfig, Node, Package, StringRig, parse_scenario
from skyway_delivery.errors import SkywayError, ValidationError

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
)
hang_lists = st.lists(values, max_size=4)


def is_finite_at_least_zero(value):
    return math.isfinite(value) and value >= 0


def is_finite_above_zero(value):
    return math.isfinite(value) and value > 0


def is_valid_hang_list(levels):
    return (all(0 < hang < math.inf for hang in levels)
            and all(a > b for a, b in zip(levels, levels[1:])))


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
    expected = [name for name, ok in (("x", math.isfinite(x)), ("y", math.isfinite(y)),
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
    assert verdict(lambda: StringRig(tuple(levels), clearance)) == expected
    text = with_two_nodes(rig={"levels": levels, "clearance": clearance})
    assert document_violations(text) == [
        f"rig.{v}" for v in constructor_violations(lambda: StringRig(tuple(levels), clearance))]


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
