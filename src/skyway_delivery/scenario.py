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
from operator import itemgetter
from dataclasses import MISSING, asdict, dataclass, fields
from json.encoder import encode_basestring_ascii as _json_string

from .errors import InvalidParams, ScenarioSyntaxError, SkywayError, ValidationError
from .graph import Node, SkywayNetwork, _assemble, build_network, node_faults, segment_faults
from .planner import DroneConfig, Package, _checked, level_violation, package_faults
from .rules import (_require, _type_violation, as_number, field_violations, integer, non_empty,
                    numeric)
from .simulator import EnergyBreakdown, LegEnergy, MissionReport, StringRig, _judge_mission

_TOP_KEYS = {"label", "source", "nodes", "segments", "drone", "rig", "packages"}
_SEGMENT_KEYS = {"a", "b"}
_segment_pair = itemgetter("a", "b")


@dataclass(frozen=True)
class Scenario:
    """One mission's inputs. A field of the wrong type raises
    ValidationError, also through ``dataclasses.replace``; an unknown source,
    a package fault or too few rig levels raises the planners' error. The
    payload is not judged, so an overweight scenario builds."""

    network: SkywayNetwork
    source: str
    drone: DroneConfig
    rig: StringRig
    packages: tuple[Package, ...]
    label: str | None = None

    def __post_init__(self):
        _judge_mission(self.network, self.rig, self.drone, self.packages, [
            _type_violation("source", self.source, str),
            None if self.label is None else _type_violation("label", self.label, str)])
        _checked(self.network, self.source, self.packages, None, self.rig.level_count)


# Each constructor argument's name and default. The type and value rules
# are the class's own ``RULES``.
_FIELDS = {cls: {f.name: f.default for f in fields(cls)}
           for cls in (Node, DroneConfig, StringRig, Package)}


def _take(obj: dict, key: str, locator: str, problems: list[str]) -> str | None:
    """The non-empty string ``obj[key]``, or None after reporting its fault."""
    violation = f"{key}: missing" if key not in obj else non_empty(key, obj[key])
    if violation is not None:
        problems.append(f"{locator}.{violation}")
        return None
    return obj[key]


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


def _build(cls, raw, problems: list[str], key: str, index: int | None = None):
    """Construct ``cls`` from the fields in ``raw``, the document's ``key``
    (its item ``key[index]`` when ``index`` is given).

    Returns the object, or None when ``raw`` is not an object or a field is
    missing or breaks one of the class's rules, plus the values of the fields
    that broke none (``raw`` itself when it builds at the first call). Only
    a failed first call collects the faults, each behind the item's locator:
    a value that is not an object, then unknown keys, then missing fields
    and rule violations in the class's rule order.
    """
    try:
        return cls(**raw), raw
    except (TypeError, ValidationError):
        pass
    locator = key if index is None else f"{key}[{index}]"
    if not isinstance(raw, dict):
        problems.append(f"{locator}: expected an object")
        return None, {}
    defaults = _FIELDS[cls]
    _reject_unknown(raw, defaults, locator, problems)
    values: dict = {}
    missing: dict[str, str] = {}
    for name, default in defaults.items():
        if name in raw:
            values[name] = raw[name]
        elif default is MISSING:
            missing[name] = f"{name}: missing"
        else:
            values[name] = default
    if not missing:
        try:
            return cls(*values.values()), values
        except ValidationError:
            pass
    found = field_violations(cls.RULES, values, missing)
    problems.extend(f"{locator}.{violation}" for violation in found.values())
    return None, {name: value for name, value in values.items() if name not in found}


def _ends(raw, index: int, problems: list[str]) -> tuple[str | None, str | None]:
    """The endpoints of segment ``index``, each None after its fault is
    reported: a value that is not an object, then unknown keys, then a
    missing or empty endpoint."""
    if type(raw) is dict and len(raw) == 2:
        a, b = raw.get("a"), raw.get("b")
        if type(a) is str and type(b) is str and a and b:
            return a, b
    locator = f"segments[{index}]"
    if not isinstance(raw, dict):
        problems.append(f"{locator}: expected an object")
        return None, None
    _reject_unknown(raw, _SEGMENT_KEYS, locator, problems)
    return _take(raw, "a", locator, problems), _take(raw, "b", locator, problems)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario JSON document.

    ``text`` is a str or bytes. Raises ScenarioSyntaxError for any other
    type and for malformed JSON, and ValidationError (with one
    locator-bearing entry per problem) for anything schema-level. The
    parser checks only the document's structure: objects, lists, unknown
    and missing keys. Each field's type and value rules are the ones the
    constructors and ``build_network`` apply, collected for every item.
    A valid item costs one constructor call (a segment, one shape check)
    and one fault check; the full violation list is collected only for an
    item that fails them. A document that passes every check goes straight
    to ``build_network``'s assembly step.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise ScenarioSyntaxError(
            f"expected the document as str or bytes, got {type(text).__name__}")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError, an integer literal longer than the interpreter's
        # digit limit for int conversion, or arrays or objects nested deeper
        # than the decoder's recursion limit.
        raise ScenarioSyntaxError(f"invalid JSON: {exc}") from exc

    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ValidationError(["document: expected a JSON object at the top level"])
    _reject_unknown(doc, _TOP_KEYS, "document", problems)

    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        problems.append("label: expected a string")
        label = None

    source = _take(doc, "source", "document", problems)

    # -- nodes ---------------------------------------------------------------
    # Each id a segment or package may name, with its Node (None when the
    # node breaks a rule).
    nodes: dict[str, Node | None] = {}
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        problems.append("nodes: expected a non-empty list")
        raw_nodes = []
    for i, raw in enumerate(raw_nodes):
        node, values = _build(Node, raw, problems, "nodes", i)
        node_id = values.get("id")
        if node_id is not None:
            faults = node_faults(i, node_id, nodes)
            if faults:
                problems.extend(map(str, faults))
            nodes[node_id] = node

    # -- segments ------------------------------------------------------------
    seen_pairs: set[tuple[str, str]] = set()
    raw_segments = doc.get("segments", [])
    if not isinstance(raw_segments, list):
        problems.append("segments: expected a list")
        raw_segments = []
    for i, raw in enumerate(raw_segments):
        a, b = _ends(raw, i, problems)
        if a is not None and b is not None:
            faults = segment_faults(i, a, b, nodes, seen_pairs)
            if faults:
                problems.extend(map(str, faults))

    # -- drone and rig -------------------------------------------------------
    drone, _ = _build(DroneConfig, _block(doc, "drone", problems), problems, "drone")
    rig, _ = _build(StringRig, _block(doc, "rig", problems), problems, "rig")

    # -- packages ------------------------------------------------------------
    packages: list[Package] = []
    package_ids: set[str] = set()
    raw_packages = doc.get("packages", [])
    if not isinstance(raw_packages, list):
        problems.append("packages: expected a list")
        raw_packages = []
    for i, raw in enumerate(raw_packages):
        package, values = _build(Package, raw, problems, "packages", i)
        problems.extend(map(str, package_faults(i, values.get("id"), values.get("destination"),
                                                 source, nodes, package_ids)))
        if package is not None:
            packages.append(package)

    if source is not None and nodes and source not in nodes:
        problems.append(f"source: unknown node {source!r}")
    if rig is not None:
        violation = level_violation(len(raw_packages), rig.level_count)
        if violation is not None:
            problems.append(f"packages: {violation}")

    if problems:
        raise ValidationError(problems)
    try:
        # Without problems every segment is an object with two known ends.
        network = _assemble(nodes, map(_segment_pair, raw_segments))
    except SkywayError as exc:
        # Whole-network faults without a single field to point at, e.g.
        # a disconnected graph or coincident node positions.
        raise ValidationError([f"network: {exc}"]) from exc
    assert source is not None and drone is not None and rig is not None
    return Scenario(network=network, source=source, drone=drone, rig=rig,
                    packages=tuple(packages), label=label)


# Every stored id is a str and every coordinate a finite float, which JSON
# writes as its repr.
_NODE_JSON = ('    {\n      "id": %s,\n      "x": %r,\n      "y": %r,\n'
              '      "rooftop_height": %r\n    }')
_SEGMENT_JSON = '    {\n      "a": %s,\n      "b": %s\n    }'


def _json_items(items: list[str]) -> str:
    """A list of rendered items, as ``json.dumps(..., indent=2)`` nests it in a document."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its JSON document form (stable ordering).

    The text is ``json.dumps(doc, indent=2)`` of the document. The node and
    segment lists, which grow with the network, are rendered item by item
    with the encoder's C string routine and ``repr`` of each float rather
    than its pure-Python indenting encoder.
    """
    _require("scenario", scenario, Scenario)
    network = scenario.network
    nodes = [_NODE_JSON % (_json_string(node.id), node.x, node.y, node.rooftop_height)
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
    Raises InvalidParams for a count or seed that is not an int, an area
    that is not two positive finite numbers, and counts no area can hold.
    """
    for name, value in (("node_count", node_count), ("package_count", package_count),
                        ("seed", seed)):
        violation = integer(name, value)
        if violation is not None:
            raise InvalidParams(violation)
    sides = list(map(as_number, area)) if isinstance(area, (tuple, list)) else []
    if len(sides) != 2 or None in sides:
        raise InvalidParams(f"area must be a (width, height) pair of numbers, got {area!r}")
    if node_count < 2:
        raise InvalidParams(f"node_count must be >= 2, got {node_count}")
    if package_count < 0:
        raise InvalidParams(f"package_count must be >= 0, got {package_count}")
    if package_count > node_count - 1:
        raise InvalidParams(
            f"package_count {package_count} needs {package_count} distinct "
            f"destinations but only {node_count - 1} non-source nodes exist")
    width, height = sides
    if not 0 < width < math.inf or not 0 < height < math.inf:
        raise InvalidParams(f"area must be positive and finite, got {area}")
    # uniform(0, side) is side * random(), and random() is at most 1 - 2**-53,
    # so a coordinate rounded to 0.01 m takes the values from 0.00 up to the
    # rounding of side * (1 - 2**-53). A side of node_count metres already
    # has enough of them; capping it there keeps the count finite.
    positions = 1
    for side in sides:
        top = round(min(side, node_count) * (1 - 2**-53), 2)
        positions *= round(top * 100) + 1
    if positions < node_count:
        raise InvalidParams(
            f"area {area} has only {positions} distinct positions at 0.01 m "
            f"for {node_count} nodes")

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


def _text(name, value):
    return _type_violation(name, value, str)


def _row_faults(name: str, row, rules) -> list[str | None]:
    """The violations of ``row``, a list or tuple of one value per rule."""
    if not isinstance(row, (list, tuple)):
        return [_type_violation(name, row, tuple)]
    if len(row) != len(rules):
        return [f"{name}: expected {len(rules)} values, got {len(row)}"]
    return [rule(f"{name}[{i}]", value) for i, (rule, value) in enumerate(zip(rules, row))]


def _report_faults(report: MissionReport) -> list[str]:
    """The violations among the fields that ``serialize_report`` writes,
    each behind a locator such as ``report.energy.legs[0].rate``."""
    found = [_type_violation("report.completed", report.completed, bool)]
    if isinstance(report.releases, (list, tuple)):
        for i, release in enumerate(report.releases):
            found += _row_faults(f"report.releases[{i}]", release, (_text, _text, numeric))
    else:
        found.append(_type_violation("report.releases", report.releases, tuple))
    found.append(numeric("report.total_distance_3d", report.total_distance_3d))
    energy = report.energy
    if not isinstance(energy, EnergyBreakdown):
        found.append(_type_violation("report.energy", energy, EnergyBreakdown))
    elif not isinstance(energy.legs, (list, tuple)):
        found.append(_type_violation("report.energy.legs", energy.legs, tuple))
    else:
        for i, leg in enumerate(energy.legs):
            found += ([numeric(f"report.energy.legs[{i}].{field}", getattr(leg, field))
                       for field in ("distance_3d", "payload_mass", "rate", "energy")]
                      if isinstance(leg, LegEnergy)
                      else [_type_violation(f"report.energy.legs[{i}]", leg, LegEnergy)])
        found.append(numeric("report.energy.total", energy.total))
    found += _row_faults("report.end_position", report.end_position, (numeric,) * 3)
    if report.abort_reason is not None:
        found.append(_text("report.abort_reason", report.abort_reason))
    return list(filter(None, found))


def serialize_report(report: MissionReport) -> str:
    """Render a mission report as a stable JSON document.

    A ``report`` that is not a MissionReport, or whose fields do not have
    the types ``simulate_mission`` gives them, raises ValidationError.
    """
    _require("report", report, MissionReport)
    found = _report_faults(report)
    if found:
        raise ValidationError(found)
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
