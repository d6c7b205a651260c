"""Shared fixtures-as-functions and brute-force oracles for the test suite.

The oracles deliberately avoid the library's own algorithms: path minima come
from exhaustive DFS over simple paths, so Dijkstra has something independent
to agree with; exact tie-breaking comes from a Dijkstra whose heap entries
carry whole walks and that pushes every one of them, so the pruned one
does; NDF plans come from the nearest-first rule written out over the
full stop matrix, so the bounded search does; optimal release orders
come from scoring every permutation, so the Held–Karp planner does; a
compare comes from the two
planners run on their own, so the one that reads both plans off one stop
matrix does; and telemetry samples come from the sampling loop written
out over the flight's attributes, so the flight's moves, whose rows are
made only when they are read, do.
The telemetry CSV and the scenario document come from the standard
library's general writers, ``csv.writer`` and ``json.dumps``, which the
library's hand-built formats must match byte for byte.
"""
from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import math
import sys
from dataclasses import asdict

from hypothesis import strategies as st

from skyway_delivery import (
    CompareResult,
    Leg,
    MissionPlan,
    Package,
    Path,
    SkywayNetwork,
    StrategyOutcome,
    assign_levels,
    build_network,
    generate_scenario,
    plan_ndf,
    plan_optimal,
    plan_total_distance,
    simulate_mission,
    stop_matrix,
)
from skyway_delivery.errors import BatteryDepleted, NonFiniteLength
from skyway_delivery.simulator import _BOUNDARY_EPS, TelemetryRecord, _Flight

N1_NODE_SPECS = [
    ("S", 0.0, 0.0, 0.0),
    ("A", 30.0, 40.0, 10.0),
    ("B", 100.0, 0.0, 5.0),
    ("C", 130.0, 40.0, 20.0),
]
N1_SEGMENT_SPECS = [("S", "A"), ("S", "B"), ("A", "B"), ("B", "C")]
N1_PACKAGES = (
    Package("p1", 2.0, "A"),
    Package("p2", 2.0, "B"),
    Package("p3", 2.0, "C"),
)

# Collinear points S=0, A=+1, B=-2, C=+4 with every pairwise segment.
N2_NODE_SPECS = [
    ("S", 0.0, 0.0, 0.0),
    ("A", 1.0, 0.0, 0.0),
    ("B", -2.0, 0.0, 0.0),
    ("C", 4.0, 0.0, 0.0),
]
N2_SEGMENT_SPECS = [
    ("S", "A"), ("S", "B"), ("S", "C"), ("A", "B"), ("A", "C"), ("B", "C"),
]
N2_PACKAGES = (
    Package("pA", 1.2, "A"),
    Package("pB", 0.8, "B"),
    Package("pC", 1.5, "C"),
)


def build_n1() -> SkywayNetwork:
    return build_network(N1_NODE_SPECS, N1_SEGMENT_SPECS)


def build_n2() -> SkywayNetwork:
    return build_network(N2_NODE_SPECS, N2_SEGMENT_SPECS)


def collinear_network(xs) -> SkywayNetwork:
    """Nodes at the distinct integers ``xs`` on one line, every pair joined.

    Like n2: lengths are whole numbers, so a route through a middle node ties
    the direct segment exactly.
    """
    ids = [f"c{i:02d}" for i in range(len(xs))]
    specs = [(node_id, float(x), 0.0, 0.0) for node_id, x in zip(ids, xs)]
    return build_network(specs, list(itertools.combinations(ids, 2)))


def grid_network(width: int, height: int) -> SkywayNetwork:
    """A unit grid joined to its four neighbours: many routes of equal length."""
    def node_id(x, y):
        return f"g{x}-{y}"

    specs = [(node_id(x, y), float(x), float(y), 0.0)
             for x in range(width) for y in range(height)]
    segments = [(node_id(x, y), node_id(x + 1, y))
                for x in range(width - 1) for y in range(height)]
    segments += [(node_id(x, y), node_id(x, y + 1))
                 for x in range(width) for y in range(height - 1)]
    return build_network(specs, segments)


def lattice_networks():
    """Integer-lattice networks, where equal-length paths and orders are common."""
    collinear = st.lists(st.integers(-8, 8), min_size=2, max_size=8,
                         unique=True).map(collinear_network)
    grids = st.builds(grid_network, st.integers(1, 4), st.integers(2, 4))
    return st.one_of(collinear, grids)


def generated_networks(max_nodes: int = 30):
    """Networks of ``generate_scenario``: random positions, a spanning tree and extras."""
    return st.builds(lambda count, seed: generate_scenario(count, 0, seed).network,
                     st.integers(2, max_nodes), st.integers(0, 10**6))


@st.composite
def half_ulp_networks(draw):
    """A source at (0, 0) and 3-6 nodes at x = 1e16, where one ulp is 2 m.

    Their y values lie within 1.25 m of each other, so a segment between two
    of them is shorter than half an ulp of the distance so far (or only just
    longer), and flying it often leaves the float sum unchanged. Ids are
    shuffled so that id order and position order disagree.
    """
    count = draw(st.integers(3, 6))
    ys = draw(st.lists(st.integers(0, 125), min_size=count, max_size=count, unique=True))
    ids = draw(st.permutations([chr(ord("a") + i) for i in range(count + 1)]))
    specs = [(ids[0], 0.0, 0.0, 0.0)]
    specs += [(node_id, 1e16, y / 100, 0.0) for node_id, y in zip(ids[1:], ys)]
    pairs = {tuple(sorted((ids[i], ids[draw(st.integers(0, i - 1))])))
             for i in range(1, count + 1)}
    extras = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                           max_size=8))
    pairs |= {tuple(sorted(pair)) for pair in extras if pair[0] != pair[1]}
    return build_network(specs, sorted(pairs))


def segment_links(network: SkywayNetwork) -> dict[str, list[tuple[str, float]]]:
    """Each node id -> its (neighbour, length) pairs, read off
    ``network.segments`` alone, so that an oracle shares no structure with
    the search it checks."""
    links: dict[str, list[tuple[str, float]]] = {node_id: [] for node_id in network.nodes}
    for a, b, length in network.segments:
        links[a].append((b, length))
        links[b].append((a, length))
    return links


def walk_tuple_shortest_paths(network: SkywayNetwork, source: str,
                              targets=None) -> dict[str, Path]:
    """Dijkstra whose heap entries carry the full node sequence, so that
    equal-length paths resolve to the lexicographically smallest sequence by
    tuple comparison alone; the oracle for ``shortest_paths_from``.

    With ``targets`` it stops once every target is settled and returns every
    node it settled on the way.
    """
    pending = None if targets is None else set(targets)
    links = segment_links(network)
    best: dict[str, Path] = {}
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (source,))]
    while heap:
        dist, walk = heapq.heappop(heap)
        tail = walk[-1]
        if tail in best:
            continue
        best[tail] = Path(walk, dist)
        if pending is not None:
            pending.discard(tail)
            if not pending:
                break
        for neighbour, length in links[tail]:
            if neighbour not in best:
                heapq.heappush(heap, (dist + length, walk + (neighbour,)))
    return best


def best_simple_paths(network: SkywayNetwork, source: str):
    """(length, lexicographically smallest sequence) per node, by brute force."""
    links = segment_links(network)
    best: dict[str, tuple[float, tuple[str, ...]]] = {source: (0.0, (source,))}

    def walk(node: str, dist: float, seq: tuple[str, ...], seen: frozenset[str]):
        for neighbour, weight in links[node]:
            if neighbour in seen:
                continue
            candidate = (dist + weight, seq + (neighbour,))
            known = best.get(neighbour)
            if known is None or candidate < known:
                best[neighbour] = candidate
            walk(neighbour, candidate[0], candidate[1], seen | {neighbour})

    walk(source, 0.0, (source,), frozenset({source}))
    return best


def simple_path_minima(network: SkywayNetwork, source: str) -> dict[str, float]:
    """Minimum simple-path length from source to every node, by brute force."""
    links = segment_links(network)
    minima: dict[str, float] = {source: 0.0}

    def walk(node: str, dist: float, seen: frozenset[str]):
        for neighbour, weight in links[node]:
            if neighbour in seen:
                continue
            total = dist + weight
            if neighbour not in minima or total < minima[neighbour]:
                minima[neighbour] = total
            walk(neighbour, total, seen | {neighbour})

    walk(source, 0.0, frozenset({source}))
    return minima


def matrix_ndf_plan(network: SkywayNetwork, source: str, packages) -> MissionPlan:
    """The NDF plan read off the full stop matrix: from each stop on to the
    package whose destination is nearest, the smaller id on a tie, then
    back to the source; the oracle for ``plan_ndf``, whose searches end at
    the nearest stop."""
    paths = stop_matrix(network, [source, *(p.destination for p in packages)])
    left = list(packages)
    legs = []
    at = source
    while left:
        chosen = min(left, key=lambda p: (paths[at][p.destination].total_length, p.id))
        legs.append(Leg(paths[at][chosen.destination], chosen.id))
        left.remove(chosen)
        at = chosen.destination
    legs.append(Leg(paths[at][source], None))
    return MissionPlan(source=source, legs=tuple(legs), strategy_label="ndf")


def reference_compare(scenario) -> CompareResult:
    """``compare_strategies`` as ``plan_ndf`` and ``plan_optimal``, each
    searching on its own, then each plan flown at ``telemetry_step=math.inf``;
    the oracle for the compare that reads both plans off one stop matrix."""
    outcomes = []
    for planner in (plan_ndf, plan_optimal):
        plan = planner(scenario.network, scenario.source, scenario.packages,
                       drone=scenario.drone, level_count=scenario.rig.level_count)
        _, report = simulate_mission(scenario.network, plan, assign_levels(plan),
                                     scenario.drone, scenario.rig, scenario.packages,
                                     telemetry_step=math.inf)
        outcomes.append(StrategyOutcome(
            label=plan.strategy_label,
            release_order=plan.release_order,
            total_distance=plan_total_distance(plan),
            total_energy=report.energy.total,
            completed=report.completed,
        ))
    ndf, optimal = outcomes
    gap = (100.0 * (ndf.total_distance - optimal.total_distance) / optimal.total_distance
           if optimal.total_distance > 0 else 0.0)
    return CompareResult(ndf=ndf, optimal=optimal, distance_gap_percent=gap)


def permutation_order(dist) -> tuple[tuple[int, ...], float]:
    """Score every visiting order of stops 1..n-1 from and back to stop 0.

    Totals are summed left to right from 0.0; the first order (in
    lexicographic order) to reach the minimum wins. The oracle for
    ``planner.optimal_order``.
    """
    best_order: tuple[int, ...] | None = None
    best_total = math.inf
    for order in itertools.permutations(range(1, len(dist))):
        total = 0.0
        at = 0
        for stop in order:
            total += dist[at][stop]
            at = stop
        total += dist[at][0]
        if best_order is None or total < best_total:
            best_order, best_total = order, total
    return best_order, best_total


def csv_writer_export(log) -> str:
    """The telemetry CSV as ``csv.writer`` writes it; the oracle for
    ``export_telemetry``.

    Only for events without ``\\r`` or NUL: Python 3.13's writer quotes an
    event with a ``\\r`` and 3.10's refuses one with a NUL, where 3.11 and
    3.12 write both as they are.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t", "x", "y", "z", "payload_mass", "battery_remaining", "event"])
    for rec in log:
        writer.writerow([
            f"{rec.t:.6f}", f"{rec.x:.6f}", f"{rec.y:.6f}", f"{rec.z:.6f}",
            f"{rec.payload_mass:.6f}", f"{rec.battery_remaining:.6f}", rec.event,
        ])
    return buffer.getvalue()


def json_dumps_scenario(scenario) -> str:
    """The scenario document as ``json.dumps(doc, indent=2)`` writes it; the
    oracle for ``serialize_scenario``."""
    doc: dict = {}
    if scenario.label is not None:
        doc["label"] = scenario.label
    doc["source"] = scenario.source
    doc["nodes"] = [
        {"id": node.id, "x": node.x, "y": node.y, "rooftop_height": node.rooftop_height}
        for node in sorted(scenario.network.nodes.values(), key=lambda n: n.id)
    ]
    doc["segments"] = [{"a": seg.a, "b": seg.b} for seg in scenario.network.segments]
    doc["drone"] = asdict(scenario.drone)
    doc["rig"] = asdict(scenario.rig)
    doc["packages"] = [asdict(package) for package in scenario.packages]
    return json.dumps(doc, indent=2) + "\n"


def reference_advance(flight, x, y, z, dist, speed, rate, fraction, flown):
    """``_Flight._advance`` as a loop over the step grid that appends each
    sample, every value read from the flight and written inline in its
    formula; the oracle for the rows of the flight's moves."""
    x0, y0, z0, t0 = flight.x, flight.y, flight.z, flight.clock
    battery0 = flight.battery
    t1 = t0 + dist * fraction / speed
    if not math.isfinite(t1):
        raise NonFiniteLength(f"move to ({x}, {y}, {z}) takes no finite time")
    while True:
        ts = (flight._samples + 1) * flight.step
        if ts >= t1 - _BOUNDARY_EPS:
            break
        flight._samples += 1
        if ts <= t0 + _BOUNDARY_EPS:
            continue
        f = (ts - t0) * speed / dist
        flight.records.append(TelemetryRecord(
            ts,
            x0 + (x - x0) * f,
            y0 + (y - y0) * f,
            z0 + (z - z0) * f,
            flight.payload_mass,
            battery0 - rate * speed * (ts - t0),
            "",
        ))
    flight.clock = t1


class ReferenceFlight(_Flight):
    """A flight whose samples come from ``reference_advance`` and whose
    metres flown are a running total, added as each travel ends and not at
    all on a hold; the oracle for the fold of the moves' ``flown``. An
    aborted travel adds nothing when its fraction or its part flown is
    subnormal, since the drone then stays put."""

    _advance = reference_advance

    def __init__(self, *args):
        super().__init__(*args)
        self._samples = 0  # the grid points the loop has passed
        self.total_distance = 0.0

    def travel(self, x, y, z, speed):
        dist = math.dist((self.x, self.y, self.z), (x, y, z))
        battery, energy = self.battery, self.rate * dist
        try:
            super().travel(x, y, z, speed)
        except BatteryDepleted:
            fraction = (battery / energy if energy < math.inf
                        else battery / self.rate / dist)
            if min(fraction, dist * fraction) >= sys.float_info.min:
                self.total_distance += dist * fraction
            raise
        self.total_distance += dist
