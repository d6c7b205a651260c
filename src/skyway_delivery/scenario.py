"""Scenario documents: JSON parsing, serialization, seeded generation.

A scenario bundles everything one mission needs: the network, the source
node, the drone, the hanging rig and the packages. Parsing collects every
violation it can find and reports them together, each with a path-like
locator such as ``packages[2].mass``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import MISSING, asdict, dataclass, fields
from json.encoder import encode_basestring_ascii

from .errors import InvalidParams, ScenarioSyntaxError, SkywayError, ValidationError
from .graph import Node, SkywayNetwork, build_network, node_faults, segment_faults
from .planner import DroneConfig, Package, level_violation, package_faults
from .rules import field_violations
from .simulator import MissionReport, StringRig, TelemetryLog

_TOP_KEYS = {"label", "source", "nodes", "segments", "drone", "rig", "packages"}
_SEGMENT_KEYS = {"a", "b"}


@dataclass(frozen=True)
class Scenario:
    network: SkywayNetwork
    source: str
    drone: DroneConfig
    rig: StringRig
    packages: tuple[Package, ...]
    label: str | None = None


class _ShapeFault(Exception):
    """A JSON value has the wrong type for its field."""


# JSON gives numbers as int or float; type(True) is bool, so a bool is not one.
_NUMBER_TYPES = (float, int)


def _string(value) -> str:
    if type(value) is not str or not value:
        raise _ShapeFault("expected a non-empty string")
    return value


def _float(value: float | int) -> float:
    """The JSON number as a float.

    An integer too large for a float reads as ±inf, as the literal 1e999
    does, so the field's rules report it at the field's locator.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(value) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise _ShapeFault(f"expected a number, got {type(value).__name__}")
    return _float(value)


def _hangs(value) -> tuple[float, ...]:
    if type(value) is not list:
        raise _ShapeFault("expected a list of hang lengths")
    # A hang that is not a number reads as NaN, which StringRig reports at its
    # index like any other hang that is not a positive number.
    return tuple(_float(hang) if type(hang) in _NUMBER_TYPES else math.nan for hang in value)


# Field name, shape check and default of each constructor argument, read from
# the dataclass annotations (strings under ``from __future__ import annotations``).
_SHAPES = {"str": _string, "float": _number, "tuple[float, ...]": _hangs}
_FIELDS = {cls: {f.name: (_SHAPES[f.type], f.default) for f in fields(cls)}
           for cls in (Node, DroneConfig, StringRig, Package)}


def _take(obj: dict, key: str, shape, locator: str, problems: list[str]):
    if key not in obj:
        problems.append(f"{locator}.{key}: missing")
        return None
    try:
        return shape(obj[key])
    except _ShapeFault as fault:
        problems.append(f"{locator}.{key}: {fault}")
        return None


def _reject_unknown(obj: dict, allowed, locator: str, problems: list[str]) -> None:
    for key in obj:
        if key not in allowed:
            problems.append(f"{locator}.{key}: unknown key")


def _block(doc: dict, key: str, problems: list[str]) -> dict:
    """The optional object ``doc[key]``; {} when it is absent or not an object."""
    raw = doc.get(key, {})
    if not isinstance(raw, dict):
        problems.append(f"{key}: expected an object")
        return {}
    return raw


def _build(cls, raw: dict, locator: str, problems: list[str]):
    """Shape-check ``raw`` against the fields of ``cls`` and construct it.

    Returns the object, or None when a field is missing, has the wrong type
    or breaks one of the class's rules, plus the well-typed field values.
    Shape faults and rule violations go to ``problems`` in the class's rule
    order, each behind ``locator``.
    """
    shapes = _FIELDS[cls]
    _reject_unknown(raw, shapes, locator, problems)
    values: dict = {}
    faults: dict[str, str] = {}
    for name, (shape, default) in shapes.items():
        if name in raw:
            try:
                values[name] = shape(raw[name])
            except _ShapeFault as fault:
                faults[name] = f"{name}: {fault}"
        elif default is MISSING:
            faults[name] = f"{name}: missing"
        else:
            values[name] = default
    if faults:
        violations = field_violations(cls.RULES, values, faults)
    else:
        try:
            return cls(*values.values()), values
        except ValidationError as exc:
            violations = exc.violations
    problems.extend(f"{locator}.{violation}" for violation in violations)
    return None, values


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario JSON document.

    Raises ScenarioSyntaxError for malformed JSON and ValidationError (with
    one locator-bearing entry per problem) for anything schema-level. The
    parser checks the document's shape; the value rules are the ones the
    constructors and ``build_network`` apply, collected for every item.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # A JSONDecodeError, or an integer literal longer than the
        # interpreter's digit limit for int conversion.
        raise ScenarioSyntaxError(f"invalid JSON: {exc}") from exc

    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ValidationError(["document: expected a JSON object at the top level"])
    _reject_unknown(doc, _TOP_KEYS, "document", problems)

    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        problems.append("label: expected a string")
        label = None

    source = _take(doc, "source", _string, "document", problems)

    # -- nodes ---------------------------------------------------------------
    nodes: list[Node] = []
    node_ids: set[str] = set()
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        problems.append("nodes: expected a non-empty list")
        raw_nodes = []
    for i, raw in enumerate(raw_nodes):
        if not isinstance(raw, dict):
            problems.append(f"nodes[{i}]: expected an object")
            continue
        node, values = _build(Node, raw, f"nodes[{i}]", problems)
        node_id = values.get("id")
        if node_id is not None:
            for fault in node_faults(i, node_id, node_ids):
                problems.append(str(fault))
            node_ids.add(node_id)
        if node is not None:
            nodes.append(node)

    # -- segments ------------------------------------------------------------
    segment_specs: list[tuple[str, str]] = []
    seen_pairs: set[tuple[str, str]] = set()
    raw_segments = doc.get("segments", [])
    if not isinstance(raw_segments, list):
        problems.append("segments: expected a list")
        raw_segments = []
    for i, raw in enumerate(raw_segments):
        locator = f"segments[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{locator}: expected an object")
            continue
        _reject_unknown(raw, _SEGMENT_KEYS, locator, problems)
        a = _take(raw, "a", _string, locator, problems)
        b = _take(raw, "b", _string, locator, problems)
        if a is None or b is None:
            continue
        faults = segment_faults(i, a, b, node_ids, seen_pairs)
        if faults:
            problems.extend(map(str, faults))
        else:
            segment_specs.append((a, b))

    # -- drone and rig -------------------------------------------------------
    drone, _ = _build(DroneConfig, _block(doc, "drone", problems), "drone", problems)
    rig, _ = _build(StringRig, _block(doc, "rig", problems), "rig", problems)

    # -- packages ------------------------------------------------------------
    packages: list[Package] = []
    package_ids: set[str] = set()
    raw_packages = doc.get("packages", [])
    if not isinstance(raw_packages, list):
        problems.append("packages: expected a list")
        raw_packages = []
    for i, raw in enumerate(raw_packages):
        locator = f"packages[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{locator}: expected an object")
            continue
        package, values = _build(Package, raw, locator, problems)
        problems.extend(map(str, package_faults(i, values.get("id"), values.get("destination"),
                                                 source, node_ids, package_ids)))
        if package is not None:
            packages.append(package)

    if source is not None and node_ids and source not in node_ids:
        problems.append(f"source: unknown node {source!r}")
    if rig is not None:
        violation = level_violation(len(raw_packages), rig.level_count)
        if violation is not None:
            problems.append(f"packages: {violation}")

    if problems:
        raise ValidationError(problems)
    try:
        network = build_network(nodes, segment_specs)
    except SkywayError as exc:
        # Whole-network faults without a single field to point at, e.g.
        # a disconnected graph or coincident node positions.
        raise ValidationError([f"network: {exc}"]) from exc
    assert source is not None and drone is not None and rig is not None
    return Scenario(network=network, source=source, drone=drone, rig=rig,
                    packages=tuple(packages), label=label)


_NODE_JSON = ('    {\n      "id": %s,\n      "x": %s,\n      "y": %s,\n'
              '      "rooftop_height": %s\n    }')
_SEGMENT_JSON = '    {\n      "a": %s,\n      "b": %s\n    }'


def _json_string(value) -> str:
    return encode_basestring_ascii(value) if type(value) is str else json.dumps(value)


def _json_number(value) -> str:
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _json_items(items: list[str]) -> str:
    """A list of rendered items, as ``json.dumps(..., indent=2)`` nests it in a document."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its JSON document form (stable ordering).

    The text is ``json.dumps(doc, indent=2)`` of the document. The node and
    segment lists, which grow with the network, are rendered item by item
    with the encoder's C string and float routines rather than its
    pure-Python indenting encoder.
    """
    network = scenario.network
    nodes = [_NODE_JSON % (_json_string(node.id), _json_number(node.x), _json_number(node.y),
                           _json_number(node.rooftop_height))
             for node in sorted(network.nodes.values(), key=lambda n: n.id)]
    segments = [_SEGMENT_JSON % (_json_string(seg.a), _json_string(seg.b))
                for seg in network.segments]
    members = [] if scenario.label is None else [("label", json.dumps(scenario.label))]
    members += [
        ("source", json.dumps(scenario.source)),
        ("nodes", _json_items(nodes)),
        ("segments", _json_items(segments)),
    ]
    for key, value in (("drone", asdict(scenario.drone)), ("rig", asdict(scenario.rig)),
                       ("packages", [asdict(package) for package in scenario.packages])):
        # The encoder escapes every newline inside a string, so each one in
        # its output starts a line that nests two spaces deeper here.
        members.append((key, json.dumps(value, indent=2).replace("\n", "\n  ")))
    return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in members) + "\n}\n"


def generate_scenario(node_count: int, package_count: int, seed: int,
                      area: tuple[float, float] = (500.0, 500.0)) -> Scenario:
    """Build a random connected scenario; the same seed gives the same bytes.

    Nodes land on distinct rounded positions inside ``area`` with rooftops in
    [5, 60] m; a random spanning tree keeps the network connected and a few
    extra segments add route choices. Destinations are distinct non-source
    nodes and package masses stay inside the drone's single-item band.
    """
    if node_count < 2:
        raise InvalidParams(f"node_count must be >= 2, got {node_count}")
    if package_count < 0:
        raise InvalidParams(f"package_count must be >= 0, got {package_count}")
    if package_count > node_count - 1:
        raise InvalidParams(
            f"package_count {package_count} needs {package_count} distinct "
            f"destinations but only {node_count - 1} non-source nodes exist")
    width, height = area
    if not 0 < width < math.inf or not 0 < height < math.inf:
        raise InvalidParams(f"area must be positive and finite, got {area}")

    rng = random.Random(seed)
    pad = len(str(node_count))
    ids = [f"n{i + 1:0{pad}d}" for i in range(node_count)]

    used_positions: set[tuple[float, float]] = set()
    node_specs: list[tuple[str, float, float, float]] = []
    for node_id in ids:
        while True:
            position = (round(rng.uniform(0.0, width), 2),
                        round(rng.uniform(0.0, height), 2))
            if position not in used_positions:
                break
        used_positions.add(position)
        rooftop = round(rng.uniform(5.0, 60.0), 2)
        node_specs.append((node_id, position[0], position[1], rooftop))

    pairs: set[tuple[str, str]] = set()
    segment_specs: list[tuple[str, str]] = []
    for i in range(1, node_count):
        j = rng.randrange(i)
        pair = (ids[j], ids[i]) if ids[j] < ids[i] else (ids[i], ids[j])
        pairs.add(pair)
        segment_specs.append(pair)
    for _ in range(rng.randint(0, node_count)):
        i, j = rng.sample(range(node_count), 2)
        pair = (ids[i], ids[j]) if ids[i] < ids[j] else (ids[j], ids[i])
        if pair in pairs:
            continue
        pairs.add(pair)
        segment_specs.append(pair)

    destinations = rng.sample(ids[1:], package_count)
    packages = tuple(
        Package(f"p{i + 1}", round(rng.uniform(0.11, 2.27), 3), destination)
        for i, destination in enumerate(destinations)
    )

    level_count = max(3, package_count)
    levels = tuple(1.0 + 0.5 * (level_count - i) for i in range(1, level_count + 1))
    rig = StringRig(levels, 1.0)

    network = build_network(node_specs, segment_specs)
    label = f"gen-n{node_count}-p{package_count}-s{seed}"
    return Scenario(network=network, source=ids[0], drone=DroneConfig(),
                    rig=rig, packages=packages, label=label)


_CSV_HEADER = "t,x,y,z,payload_mass,battery_remaining,event\n"
_CSV_ROW = "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%s\n"


def _csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted, with each ``"`` doubled, only when it
    holds a comma, a quote or a newline. Every other character, ``\\r`` and
    NUL included, is written as it is, whatever the Python version."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def export_telemetry(log: TelemetryLog) -> str:
    """Render telemetry as CSV; floats carry six decimals, samples a blank event."""
    return _CSV_HEADER + "".join([
        _CSV_ROW % rec if not rec.event else _CSV_ROW % (*rec[:6], _csv_field(rec.event))
        for rec in log
    ])


def serialize_report(report: MissionReport) -> str:
    """Render a mission report as a stable JSON document."""
    doc = {
        "completed": report.completed,
        "releases": [
            {"package": package_id, "node": node_id, "t": t}
            for package_id, node_id, t in report.releases
        ],
        "total_distance_3d": report.total_distance_3d,
        "energy": {
            "legs": [
                {
                    "distance_3d": leg.distance_3d,
                    "payload_mass": leg.payload_mass,
                    "rate": leg.rate,
                    "energy": leg.energy,
                }
                for leg in report.energy.legs
            ],
            "total": report.energy.total,
        },
        "end_position": list(report.end_position),
        "abort_reason": report.abort_reason,
    }
    return json.dumps(doc, indent=2) + "\n"
