"""Scenario documents (parse, serialize, generate) and the report's JSON.

A document holds what a ``Scenario`` (see ``simulator``) bundles. Parsing
collects every violation it can find and reports them together, each with
a path-like locator such as ``packages[2].mass``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import MISSING, asdict, fields
from json.encoder import encode_basestring_ascii as _json_string

from .errors import InvalidParams, ScenarioSyntaxError, SkywayError, ValidationError
from .graph import Node, Segment, build_network, node_faults, segment_faults
from .planner import DroneConfig, Package, level_violation, package_faults
from .rules import (_require, _type_violation, as_number, field_violations, integer, non_empty,
                    numeric)
from .simulator import EnergyBreakdown, LegEnergy, MissionReport, Scenario, StringRig

# The most nodes generate_scenario draws. On a shared 2-core VM (Python
# 3.11), 100,000 nodes take 1.5-3 s and peak at about 170 MB RSS; 20,000
# take 0.2-0.4 s and 47 MB. The benchmark's largest network has 5000 nodes.
_NODE_CAP = 100_000

_TOP_KEYS = {"label", "source", "nodes", "segments", "drone", "rig", "packages"}

# Each item's keys and their defaults: a constructor's arguments, and a
# segment's two ends. The type and value rules are the class's own ``RULES``.
_FIELDS = {cls: {f.name: f.default for f in fields(cls)}
           for cls in (Node, DroneConfig, StringRig, Package)}
_FIELDS[Segment] = {name: MISSING for name, _ in Segment.RULES}


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


def _diagnose(cls, raw, problems: list[str], key: str, index: int | None = None) -> dict:
    """Report the faults of ``raw``, the document's ``key`` (its item
    ``key[index]`` when ``index`` is given), as fields of ``cls``: a
    constructor's arguments, or a ``Segment``'s two ends. Each fault is
    behind the item's locator: a value that is not an object, then unknown
    keys, then missing fields and rule violations in the class's rule order.
    Returns the values of the fields that broke no rule, defaults included.
    """
    locator = key if index is None else f"{key}[{index}]"
    if not isinstance(raw, dict):
        problems.append(f"{locator}: expected an object")
        return {}
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
    found = field_violations(cls.RULES, values, missing)
    problems.extend(f"{locator}.{violation}" for violation in found.values())
    return {name: value for name, value in values.items() if name not in found}


def _list(doc: dict, key: str) -> list | None:
    """The list ``doc[key]``, [] when it is absent, or None when it is not a list."""
    raw = doc.get(key, [])
    return raw if isinstance(raw, list) else None


def _scenario(doc: dict) -> Scenario:
    """The scenario of ``doc``, built by the constructors and
    ``build_network`` alone. Raises what they raise, and ValidationError for
    the document's own shape: an unknown top-level key, ``nodes`` that is not
    a non-empty list, or ``segments`` or ``packages`` that is not a list."""
    nodes, segments, packages = (_list(doc, key) for key in ("nodes", "segments", "packages"))
    if not (doc.keys() <= _TOP_KEYS and nodes and segments is not None and packages is not None):
        raise ValidationError(["document: not shaped as a scenario"])  # _problems says how
    # A segment of any shape but a two-key object is None, which the
    # network's constructor refuses.
    network = build_network([Node(**raw) for raw in nodes],
                            [(raw.get("a"), raw.get("b")) if type(raw) is dict and len(raw) == 2
                             else None for raw in segments])
    return Scenario(network=network, source=doc.get("source"),
                    drone=DroneConfig(**doc.get("drone", {})), rig=StringRig(**doc.get("rig", {})),
                    packages=tuple(Package(**raw) for raw in packages), label=doc.get("label"))


def _problems(doc: dict) -> list[str]:
    """Every fault of ``doc`` that names a document path, in report order,
    found without calling a constructor: the document's keys, ``label`` and
    ``source``, each node, each segment, ``drone``, ``rig``, each package,
    then an unknown source and too few rig levels. Whole-network faults,
    such as a disconnected graph, are left to ``build_network``."""
    problems: list[str] = []
    _reject_unknown(doc, _TOP_KEYS, "document", problems)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        problems.append("label: expected a string")
    source = _take(doc, "source", "document", problems)

    # Each id a segment or package may name.
    node_ids: set[str] = set()
    raw_nodes = _list(doc, "nodes")
    if not raw_nodes:
        problems.append("nodes: expected a non-empty list")
    for i, raw in enumerate(raw_nodes or []):
        node_id = _diagnose(Node, raw, problems, "nodes", i).get("id")
        if node_id is not None:
            problems.extend(map(str, node_faults(i, node_id, node_ids)))
            node_ids.add(node_id)

    raw_segments = _list(doc, "segments")
    if raw_segments is None:
        problems.append("segments: expected a list")
    seen_pairs: set[tuple[str, str]] = set()
    for i, raw in enumerate(raw_segments or []):
        ends = _diagnose(Segment, raw, problems, "segments", i)
        if len(ends) == 2:  # neither end breaks a rule
            problems.extend(map(str, segment_faults(i, ends["a"], ends["b"], node_ids, seen_pairs)))

    _diagnose(DroneConfig, _block(doc, "drone", problems), problems, "drone")
    rig = _diagnose(StringRig, _block(doc, "rig", problems), problems, "rig")

    raw_packages = _list(doc, "packages")
    if raw_packages is None:
        problems.append("packages: expected a list")
        raw_packages = []
    package_ids: set[str] = set()
    for i, raw in enumerate(raw_packages):
        values = _diagnose(Package, raw, problems, "packages", i)
        problems.extend(map(str, package_faults(i, values.get("id"), values.get("destination"),
                                                 source, node_ids, package_ids)))

    if source is not None and node_ids and source not in node_ids:
        problems.append(f"source: unknown node {source!r}")
    if rig.keys() == _FIELDS[StringRig].keys():  # no rig field breaks a rule
        violation = level_violation(len(raw_packages), len(rig["levels"]))
        if violation is not None:
            problems.append(f"packages: {violation}")
    return problems


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario JSON document.

    ``text`` is a str or bytes. Raises ScenarioSyntaxError for any other
    type and for malformed JSON, and ValidationError (with one
    locator-bearing entry per problem) for anything schema-level. The
    parser checks only the document's structure: objects, lists, unknown
    and missing keys. Each field's type and value rules are the ones the
    constructors and ``build_network`` apply, collected for every item.
    A valid document is read once, by the constructors: one call per node,
    package, ``drone`` and ``rig``, one ``build_network`` and one
    ``Scenario``. Only a document they refuse is read again, without them,
    to collect every violation with its document path.
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
    if not isinstance(doc, dict):
        raise ValidationError(["document: expected a JSON object at the top level"])
    try:
        return _scenario(doc)
    except (TypeError, SkywayError) as fault:
        # Without a fault at some document path, the network's is one no
        # single field points at, e.g. a disconnected graph or coincident
        # node positions.
        raise ValidationError(_problems(doc) or [f"network: {fault}"]) from fault


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
    that is not two positive finite numbers, more than ``_NODE_CAP`` nodes,
    and counts no area can hold.
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
    if node_count > _NODE_CAP:
        raise InvalidParams(f"node_count must be <= {_NODE_CAP}, got {node_count}")
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

    # A set, since a chord may repeat a pair; the network sorts its rows.
    pairs: set[tuple[str, str]] = set()
    for i in range(1, node_count):
        j = rng.randrange(i)
        pairs.add((ids[j], ids[i]) if ids[j] < ids[i] else (ids[i], ids[j]))
    for _ in range(rng.randint(0, node_count)):
        i, j = rng.sample(range(node_count), 2)
        pairs.add((ids[i], ids[j]) if ids[i] < ids[j] else (ids[j], ids[i]))

    destinations = rng.sample(ids[1:], package_count)
    packages = tuple(
        Package(f"p{i + 1}", round(rng.uniform(0.11, 2.27), 3), destination)
        for i, destination in enumerate(destinations)
    )

    level_count = max(3, package_count)
    levels = tuple(1.0 + 0.5 * (level_count - i) for i in range(1, level_count + 1))
    rig = StringRig(levels, 1.0)

    network = build_network(node_specs, pairs)
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
