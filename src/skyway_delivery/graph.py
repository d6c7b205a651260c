"""Skyway network: rooftop nodes joined by straight-line flight segments.

Segment lengths are horizontal (ground-plane) distances; rooftop heights only
matter once a flight altitude profile is computed on top of a route.
"""
from __future__ import annotations

import heapq
import math
from collections import abc
from dataclasses import dataclass
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, NamedTuple

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
from .rules import _require, as_number, check_fields, finite, non_empty, non_negative


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


class Path(NamedTuple):
    """A walk through the network; a single-node path has total_length 0."""

    nodes: tuple[str, ...]
    total_length: float


@dataclass(frozen=True)
class SkywayNetwork:
    """Immutable connected undirected graph: ``nodes`` maps each id to its
    Node, ``segments`` holds a Segment per joined pair, sorted, with a < b
    and the distance between the two positions as its length.

    Built, also through ``replace``, from any Mapping of nodes, which it
    keeps as a read-only ``MappingProxyType`` over its own copy, and any
    iterable of (a, b) pairs or (a, b, length) rows. The first row at fault
    raises: ValidationError for a row of the wrong shape or an empty end,
    the fault ``segment_faults`` finds, ZeroLengthSegment or
    NonFiniteLength, or ValidationError for a length other than the
    measured one. Then a node the first one cannot reach raises
    DisconnectedNetwork."""

    nodes: Mapping[str, Node]
    segments: tuple[Segment, ...]

    def __post_init__(self):
        _require("nodes", self.nodes, abc.Mapping)
        nodes = dict(self.nodes)
        links: dict[str, list[tuple[str, float]]] = {}
        for key, node in nodes.items():
            if not (isinstance(node, Node) and node.id == key):
                raise ValidationError([f"nodes[{key!r}]: expected the Node of id {key!r}"])
            links[key] = []
        _require("segments", self.segments, abc.Iterable)
        rows: list[Segment] = []
        seen_pairs: set[tuple[str, str]] = set()
        hypot, inf, row = math.hypot, math.inf, tuple.__new__
        for i, spec in enumerate(self.segments):
            size = len(spec) if isinstance(spec, (tuple, list)) else 0
            if size == 2:
                a, b = spec
            elif size == 3:
                a, b, given = spec
            else:
                raise ValidationError(
                    [f"segments[{i}]: expected an (a, b) pair or an (a, b, length) row"])
            if not (isinstance(a, str) and a and isinstance(b, str) and b):
                raise ValidationError(v for v in (non_empty(f"segments[{i}].a", a),
                                                  non_empty(f"segments[{i}].b", b)) if v)
            faults = segment_faults(i, a, b, links, seen_pairs)
            if faults:
                raise faults[0]
            node_a, node_b = nodes[a], nodes[b]
            # Equal to math.dist of the two positions bit for bit: both take the
            # norm of the same two differences.
            length = hypot(node_a.x - node_b.x, node_a.y - node_b.y)
            if length == 0.0:
                raise ZeroLengthSegment(f"segment {a!r}-{b!r} joins coincident positions")
            if length == inf:
                raise NonFiniteLength(f"segment {a!r}-{b!r} is too long: its length overflows")
            if size == 3 and as_number(given) != length:
                raise ValidationError([f"segments[{i}].length: must be {length!r}, the "
                                       f"distance between its ends (got {given!r})"])
            # tuple.__new__ builds the row without Segment's Python-level __new__.
            rows.append(row(Segment, (a, b, length) if a < b else (b, a, length)))
        rows.sort()  # endpoint pairs are unique, so a length never decides the order
        for a, b, length in rows:
            links[a].append((b, length))
            links[b].append((a, length))
        reached = {next(iter(links))} if links else set()
        frontier = list(reached)
        while frontier:
            for neighbour, _ in links[frontier.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        if len(reached) != len(links):
            raise DisconnectedNetwork(links.keys() - reached)
        object.__setattr__(self, "nodes", MappingProxyType(nodes))
        object.__setattr__(self, "segments", tuple(rows))
        object.__setattr__(self, "_links", links)

    def __reduce__(self):
        # A mappingproxy neither pickles nor deep-copies: rebuild from a dict.
        return SkywayNetwork, (dict(self.nodes), self.segments)

    def node(self, node_id: str) -> Node:
        """The node ``node_id``; UnknownNode for any other value, an
        unhashable one included."""
        try:
            return self.nodes[node_id]
        except (KeyError, TypeError):
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
                  segment_specs: Iterable[tuple]) -> SkywayNetwork:
    """The network of ``node_specs``, Node objects or (id, x, y[,
    rooftop_height]) tuples, and ``segment_specs``, which go to the
    ``SkywayNetwork`` constructor unchanged.

    Either argument that is not iterable raises ValidationError first; then
    a node spec of the wrong shape or with a field that breaks its rule
    ValidationError, a repeated id DuplicateNodeId, each behind its
    ``nodes[i]`` locator, and no node at all ValueError; then what the
    constructor raises.
    """
    _require("node_specs", node_specs, abc.Iterable)
    _require("segment_specs", segment_specs, abc.Iterable)
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
    return SkywayNetwork(nodes, segment_specs)


def shortest_paths_from(network: SkywayNetwork, source: str,
                        targets: Iterable[str] | None = None) -> dict[str, Path]:
    """Dijkstra from ``source``: the shortest path to each target, or to every
    node without ``targets``.

    Of the paths of equal length (bit for bit) it returns the one whose node
    sequence is lexicographically smallest (see ``_settle``). With
    ``targets`` the search ends once each target is settled and returns
    exactly the targets' paths. Raises UnknownNode for an unknown source or
    target, and ValidationError for a ``network`` that is not a SkywayNetwork
    or ``targets`` that are not iterable.
    """
    _require("network", network, SkywayNetwork)
    network.node(source)
    if targets is not None:
        targets = _distinct_nodes(network, "targets", targets)
    pending = network._links if targets is None else targets
    paths = _settle(network._links, source, set(pending)) if pending else {}
    return paths if targets is None else {node: paths[node] for node in targets}


def _distinct_nodes(network: SkywayNetwork, name: str, node_ids) -> list[str]:
    """The argument ``name``, ``node_ids``, without repeats in first-seen
    order, once it is iterable (else ValidationError) and each item names
    a node (else UnknownNode)."""
    _require(name, node_ids, abc.Iterable)
    node_ids = list(node_ids)
    for node_id in node_ids:
        network.node(node_id)
    return list(dict.fromkeys(node_ids))


def _nearest_stops(network: SkywayNetwork, source: str, stops: Collection[str]) -> dict[str, Path]:
    """The shortest paths from ``source`` to the stops nearest to it: every
    one of ``stops`` (known node ids) at the least distance, each the path
    ``shortest_paths_from`` returns (see ``_settle``)."""
    return _settle(network._links, source, stops, nearest=True)


def _settle(links: dict[str, list[tuple[str, float]]], source: str,
            stops: Collection[str], nearest: bool = False) -> dict[str, Path]:
    """Dijkstra from ``source`` over the search index ``links`` until every
    one of ``stops`` is settled, or, with ``nearest``, until the first
    distance popped past the first stop settled. Returns the paths of the
    stops settled, in settling order.

    A settled node's distance and its walk along ``prev`` are final. Of the
    walks of equal length (bit for bit) each node gets the lexicographically
    smallest. Each node keeps only its distance and its predecessor, and on
    an exactly equal tentative distance the two full walks decide. A segment
    shorter than half an ulp of the distance so far leaves the sum
    unchanged, so the nodes at the popped distance form one batch that
    settles smallest walk first, and a node reached at that distance again
    joins the batch.
    """
    push, pop = heapq.heappush, heapq.heappop
    dist = {source: 0.0}
    prev: dict[str, str | None] = {source: None}
    settled: set[str] = set()
    found: dict[str, float] = {}
    least = math.inf
    heap = [(0.0, source)]
    while heap:
        d, node = pop(heap)
        if node in settled:
            continue
        if d > least:
            break
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
        if node in stops:
            found[node] = d
            if nearest:
                least = d
            elif len(found) == len(stops):
                break
        settled.add(node)
        for neighbour, length in links[node]:
            reach = d + length
            known = dist.get(neighbour)
            if known is None or reach < known:
                dist[neighbour] = reach
                prev[neighbour] = node
                push(heap, (reach, neighbour))
            elif (reach == known and neighbour not in settled
                  and _walk(prev, node) + (neighbour,) < _walk(prev, neighbour)):
                prev[neighbour] = node
    return {stop: Path(_walk(prev, stop), d) for stop, d in found.items()}


def _walk(prev: dict[str, str | None], node: str) -> tuple[str, ...]:
    """The node sequence from the source to ``node`` along ``prev`` links."""
    walk = []
    while node is not None:
        walk.append(node)
        node = prev[node]
    return tuple(reversed(walk))


def _is_walk(network: SkywayNetwork, path, start: str) -> bool:
    """Whether ``path`` walks the network from ``start`` with a total_length
    equal to the left-to-right sum of its segments."""
    links = network._links
    try:
        nodes, length = path
        total, here = 0.0, links[start]
        for node in nodes[1:]:
            total += dict(here)[node]
            here = links[node]
        return nodes[0] == start and total == length
    except (IndexError, KeyError, TypeError, ValueError):
        return False


def stop_matrix(network: SkywayNetwork, stops: Iterable[str]) -> dict[str, dict[str, Path]]:
    """Shortest paths between every pair of ``stops``: ``matrix[a][b]`` runs a to b.

    One Dijkstra per distinct stop, first stop first, each ending once every
    stop is settled. Raises what ``shortest_paths_from`` does.
    """
    _require("network", network, SkywayNetwork)
    distinct = _distinct_nodes(network, "stops", stops)
    return {stop: shortest_paths_from(network, stop, distinct) for stop in distinct}


def shortest_path(network: SkywayNetwork, start: str, goal: str) -> Path:
    """Minimum-length path between two nodes (ties broken lexicographically)."""
    return shortest_paths_from(network, start, (goal,))[goal]
