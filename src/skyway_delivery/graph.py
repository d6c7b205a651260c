"""Skyway network: rooftop nodes joined by straight-line flight segments.

Segment lengths are horizontal (ground-plane) distances; rooftop heights only
matter once a flight altitude profile is computed on top of a route.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, NamedTuple

from .errors import (
    DisconnectedNetwork,
    DuplicateNodeId,
    DuplicateSegment,
    NonFiniteLength,
    SelfLoopSegment,
    SkywayError,
    UnknownEndpoint,
    UnknownNode,
    ValidationError,
    ZeroLengthSegment,
)
from .rules import check_fields, finite, non_empty, non_negative


@dataclass(frozen=True, slots=True)
class Node:
    """A rooftop take-off/landing point at ground coordinates (x, y).

    A zero coordinate or height is stored as 0.0, never -0.0, so that every
    position derived from the node prints the same. The class is slotted: a
    node has no ``__dict__``.
    """

    id: str
    x: float
    y: float
    rooftop_height: float = 0.0

    RULES = (("id", non_empty), ("x", finite), ("y", finite),
             ("rooftop_height", non_negative))

    def __post_init__(self):
        check_fields(self, self.RULES)
        if not (self.x and self.y and self.rooftop_height):  # some field is 0.0 or -0.0
            for name in ("x", "y", "rooftop_height"):
                if getattr(self, name) == 0:
                    object.__setattr__(self, name, 0.0)


class Segment(NamedTuple):
    """An undirected flight corridor; endpoints are stored with a < b."""

    a: str
    b: str
    length: float


@dataclass(frozen=True)
class Path:
    """A walk through the network; a single-node path has total_length 0."""

    nodes: tuple[str, ...]
    total_length: float


@dataclass(frozen=True)
class SkywayNetwork:
    """Immutable connected undirected graph with id-sorted adjacency lists."""

    nodes: dict[str, Node]
    segments: tuple[Segment, ...]
    adjacency: dict[str, tuple[tuple[str, float], ...]]

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(f"unknown node {node_id!r}") from None


def node_faults(index: int, node_id: str, known_ids) -> list[SkywayError]:
    """The faults of node ``index`` given the ids of the nodes before it."""
    if node_id in known_ids:
        return [DuplicateNodeId(f"nodes[{index}].id: duplicate node id {node_id!r}")]
    return []


def segment_faults(index: int, a: str, b: str, known_ids,
                   seen_pairs: set[tuple[str, str]]) -> list[SkywayError]:
    """The faults of segment ``index`` between ``a`` and ``b``, in report order.

    ``known_ids`` holds every node id; ``seen_pairs`` the (smaller, larger) id
    pairs of the segments before this one, and gains this one's pair.
    """
    faults: list[SkywayError] = []
    if a not in known_ids:
        faults.append(UnknownEndpoint(f"segments[{index}].a: unknown node {a!r}"))
    if b not in known_ids:
        faults.append(UnknownEndpoint(f"segments[{index}].b: unknown node {b!r}"))
    if a == b:
        faults.append(SelfLoopSegment(f"segments[{index}]: self-loop at {a!r}"))
        return faults
    pair = (a, b) if a < b else (b, a)
    if pair in seen_pairs:
        faults.append(DuplicateSegment(
            f"segments[{index}]: duplicate segment {pair[0]!r}-{pair[1]!r}"))
    seen_pairs.add(pair)
    return faults


def build_network(node_specs: Iterable[Node | tuple],
                  segment_specs: Iterable[tuple[str, str]]) -> SkywayNetwork:
    """Validate node/segment specs and assemble a connected network.

    ``node_specs`` holds Node objects or (id, x, y[, rooftop_height]) tuples,
    ``segment_specs`` (a, b) endpoint pairs. Raises the first fault it finds,
    behind a ``nodes[i]`` or ``segments[i]`` locator: a ValidationError for a
    spec of the wrong shape or a field that breaks its rule, or the fault
    ``node_faults`` or ``segment_faults`` finds (DuplicateNodeId,
    UnknownEndpoint, SelfLoopSegment or DuplicateSegment); then
    ZeroLengthSegment, NonFiniteLength or DisconnectedNetwork as appropriate.
    """
    nodes: dict[str, Node] = {}
    for i, spec in enumerate(node_specs):
        if not isinstance(spec, Node):
            if not isinstance(spec, (tuple, list)) or len(spec) not in (3, 4):
                raise ValidationError(
                    [f"nodes[{i}]: expected a Node or an (id, x, y[, rooftop_height]) tuple"])
            try:
                spec = Node(*spec)
            except ValidationError as exc:
                raise ValidationError(f"nodes[{i}].{v}" for v in exc.violations) from exc
        faults = node_faults(i, spec.id, nodes)
        if faults:
            raise faults[0]
        nodes[spec.id] = spec
    if not nodes:
        raise ValueError("a network needs at least one node")

    pairs: list[tuple[str, str]] = []
    seen_pairs: set[tuple[str, str]] = set()
    for i, spec in enumerate(segment_specs):
        if not isinstance(spec, (tuple, list)) or len(spec) != 2:
            raise ValidationError([f"segments[{i}]: expected an (a, b) pair"])
        a, b = spec
        violations = [v for v in (non_empty(f"segments[{i}].a", a),
                                  non_empty(f"segments[{i}].b", b)) if v]
        if violations:
            raise ValidationError(violations)
        faults = segment_faults(i, a, b, nodes, seen_pairs)
        if faults:
            raise faults[0]
        pairs.append((a, b))
    return _assemble(nodes, pairs)


def _assemble(nodes: dict[str, Node], pairs: Iterable[tuple[str, str]]) -> SkywayNetwork:
    """The connected network of checked input: ``nodes`` maps each id to its
    Node, ``pairs`` holds each segment's endpoints, two distinct known ids,
    no pair twice. Raises ZeroLengthSegment, NonFiniteLength or
    DisconnectedNetwork.
    """
    rows: list[Segment] = []
    hypot, inf, row = math.hypot, math.inf, tuple.__new__
    for a, b in pairs:
        node_a, node_b = nodes[a], nodes[b]
        # Equal to math.dist of the two positions bit for bit: both take the
        # norm of the same two differences.
        length = hypot(node_a.x - node_b.x, node_a.y - node_b.y)
        if length == 0.0:
            raise ZeroLengthSegment(f"segment {a!r}-{b!r} joins coincident positions")
        if length == inf:
            raise NonFiniteLength(f"segment {a!r}-{b!r} is too long: its length overflows")
        # tuple.__new__ builds the row without Segment's Python-level __new__.
        rows.append(row(Segment, (a, b, length) if a < b else (b, a, length)))
    rows.sort()  # endpoint pairs are unique, so a length never decides the order

    neighbours: dict[str, list[tuple[str, float]]] = {nid: [] for nid in nodes}
    for a, b, length in rows:
        neighbours[a].append((b, length))
        neighbours[b].append((a, length))
    # Each list is already sorted: the rows ending at n (a < n) come first, in
    # order of a, then the rows starting at n, in order of b.
    adjacency = {nid: tuple(links) for nid, links in neighbours.items()}

    first = next(iter(nodes))
    reached = {first}
    frontier = [first]
    while frontier:
        for neighbour, _ in adjacency[frontier.pop()]:
            if neighbour not in reached:
                reached.add(neighbour)
                frontier.append(neighbour)
    if len(reached) != len(nodes):
        raise DisconnectedNetwork(set(nodes) - reached)

    return SkywayNetwork(nodes=nodes, segments=tuple(rows), adjacency=adjacency)


def shortest_paths_from(network: SkywayNetwork, source: str,
                        targets: Iterable[str] | None = None) -> dict[str, Path]:
    """Dijkstra from ``source``: the shortest path to each target, or to every
    node without ``targets``.

    Of the paths of equal length (bit for bit) it returns the one whose node
    sequence is lexicographically smallest (see ``_settle``). With
    ``targets`` the search ends once each target is settled and returns
    exactly the targets' paths. Raises UnknownNode for an unknown source or
    target, and DisconnectedNetwork naming the targets (without ``targets``,
    the nodes) that no path reaches.
    """
    network.node(source)
    if targets is not None:
        targets = list(dict.fromkeys(targets))
        for target in targets:
            network.node(target)
    pending = set(network.adjacency if targets is None else targets)
    prev: dict[str, str | None] = {}
    dist: dict[str, float] = {}  # the settled nodes, in settling order
    if pending:
        for d, node in _settle(network.adjacency, source, prev):
            dist[node] = d
            pending.discard(node)
            if not pending:
                break
        else:
            raise DisconnectedNetwork(pending)
    if targets is not None:
        return {target: Path(_walk(prev, target), dist[target]) for target in targets}
    walks: dict[str, tuple[str, ...]] = {}
    for node in dist:
        before = prev[node]
        walks[node] = (node,) if before is None else walks[before] + (node,)
    return {node: Path(walk, dist[node]) for node, walk in walks.items()}


def _nearest_stops(network: SkywayNetwork, source: str,
                   stops: Collection[str]) -> dict[str, Path]:
    """The shortest paths from ``source`` to the stops nearest to it: every
    one of ``stops`` (known node ids) at the least distance.

    The search ends at the first distance popped past the first stop it
    settles, so the whole batch at that stop's distance is settled, and each
    path is the one ``shortest_paths_from`` returns. Raises
    DisconnectedNetwork when no stop is reachable.
    """
    prev: dict[str, str | None] = {}
    nearest: dict[str, float] = {}
    least = math.inf
    for d, node in _settle(network.adjacency, source, prev):
        if d > least:
            break
        if node in stops:
            nearest[node] = least = d
    if not nearest:
        raise DisconnectedNetwork(stops)
    return {stop: Path(_walk(prev, stop), d) for stop, d in nearest.items()}


def _settle(adjacency: dict[str, tuple[tuple[str, float], ...]], source: str,
            prev: dict[str, str | None]) -> Iterator[tuple[float, str]]:
    """Dijkstra's settling order from ``source``: yields (distance, node) as
    each reachable node settles, and fills ``prev`` with predecessor links.

    A node's distance and its walk along ``prev`` are final once it is
    yielded; the caller ends the search by leaving its loop. Of the walks of
    equal length (bit for bit) each node gets the lexicographically smallest.
    Each node keeps only its distance and its predecessor, and on an exactly
    equal tentative distance the two full walks decide. A segment shorter
    than half an ulp of the distance so far leaves the sum unchanged, so the
    nodes at the popped distance form one batch that settles smallest walk
    first, and a node reached at that distance again joins the batch.
    """
    push, pop = heapq.heappush, heapq.heappop
    dist = {source: 0.0}
    prev[source] = None
    settled: set[str] = set()
    heap = [(0.0, source)]
    while heap:
        d, node = pop(heap)
        if node in settled:
            continue
        if heap and heap[0][0] == d:
            # The batch at d: settle its smallest walk, put the rest back.
            batch = [node]
            while heap and heap[0][0] == d:
                other = pop(heap)[1]
                if other not in settled:
                    batch.append(other)
            node = min(batch, key=lambda n: _walk(prev, n))
            for other in batch:
                if other != node:
                    push(heap, (d, other))
        yield d, node
        settled.add(node)
        for neighbour, length in adjacency[node]:
            reach = d + length
            known = dist.get(neighbour)
            if known is None or reach < known:
                dist[neighbour] = reach
                prev[neighbour] = node
                push(heap, (reach, neighbour))
            elif (reach == known and neighbour not in settled
                  and _walk(prev, node) + (neighbour,) < _walk(prev, neighbour)):
                prev[neighbour] = node


def _walk(prev: dict[str, str | None], node: str) -> tuple[str, ...]:
    """The node sequence from the source to ``node`` along ``prev`` links."""
    walk = []
    while node is not None:
        walk.append(node)
        node = prev[node]
    return tuple(reversed(walk))


def stop_matrix(network: SkywayNetwork, stops: Iterable[str]) -> dict[str, dict[str, Path]]:
    """Shortest paths between every pair of ``stops``: ``matrix[a][b]`` runs a to b.

    One Dijkstra per distinct stop, first stop first, each ending once every
    stop is settled. Raises DisconnectedNetwork naming the stops that no
    path from the first stop reaches.
    """
    distinct = list(dict.fromkeys(stops))
    return {stop: shortest_paths_from(network, stop, distinct) for stop in distinct}


def shortest_path(network: SkywayNetwork, start: str, goal: str) -> Path:
    """Minimum-length path between two nodes (ties broken lexicographically)."""
    return shortest_paths_from(network, start, (goal,))[goal]
