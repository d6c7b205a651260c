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
from .rules import (_require, as_number, check_fields, field_violations, finite, non_empty,
                    non_negative)


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

    RULES = (("a", non_empty), ("b", non_empty))


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
    raises: ValidationError for a row of the wrong shape or an end that
    breaks ``Segment.RULES``, the fault ``segment_faults`` finds,
    ZeroLengthSegment or NonFiniteLength, or ValidationError for a length
    other than the measured one. Then a node the first one cannot reach
    raises DisconnectedNetwork.

    The search index numbers the nodes in id order: ``_ids`` maps each
    number to its id, ``_rank`` each id to its number, and ``_links`` each
    number to its (neighbour number, length) pairs."""

    nodes: Mapping[str, Node]
    segments: tuple[Segment, ...]

    def __post_init__(self):
        _require("nodes", self.nodes, abc.Mapping)
        nodes = dict(self.nodes)
        for key, node in nodes.items():
            if not (isinstance(node, Node) and node.id == key):
                raise ValidationError([f"nodes[{key!r}]: expected the Node of id {key!r}"])
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
            if not (isinstance(a, str) and a and isinstance(b, str) and b):  # Segment.RULES
                raise ValidationError(f"segments[{i}].{v}" for v in field_violations(
                    Segment.RULES, {"a": a, "b": b}).values())
            faults = segment_faults(i, a, b, nodes, seen_pairs)
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
        ids = tuple(sorted(nodes))
        rank = {node_id: r for r, node_id in enumerate(ids)}
        links: list[list[tuple[int, float]]] = [[] for _ in ids]
        for a, b, length in rows:
            a, b = rank[a], rank[b]
            links[a].append((b, length))
            links[b].append((a, length))
        reached = {rank[next(iter(nodes))]} if nodes else set()
        frontier = list(reached)
        while frontier:
            for neighbour, _ in links[frontier.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        if len(reached) != len(ids):
            raise DisconnectedNetwork(ids[r] for r in range(len(ids)) if r not in reached)
        object.__setattr__(self, "nodes", MappingProxyType(nodes))
        object.__setattr__(self, "segments", tuple(rows))
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_rank", rank)
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
    or ``targets`` that are not iterable or are a str.
    """
    _require("network", network, SkywayNetwork)
    network.node(source)
    if targets is not None:
        targets = _distinct_nodes(network, "targets", targets)
    pending = network.nodes if targets is None else targets
    paths = _settle(network, source, pending) if pending else {}
    return paths if targets is None else {node: paths[node] for node in targets}


def _distinct_nodes(network: SkywayNetwork, name: str, node_ids) -> list[str]:
    """The argument ``name``, ``node_ids``, without repeats in first-seen
    order, once it is iterable but not a str or bytes-like (else
    ValidationError: a str would be read one character at a time, and bytes
    one int at a time) and each item names a node (else UnknownNode)."""
    _require(name, node_ids, abc.Iterable)
    if isinstance(node_ids, (str, bytes, bytearray, memoryview)):
        raise ValidationError(
            [f"{name}: expected an iterable of node ids, got {type(node_ids).__name__}"])
    node_ids = list(node_ids)
    for node_id in node_ids:
        network.node(node_id)
    return list(dict.fromkeys(node_ids))


class _Walk:
    """A walk of a search: the walk ``prior`` (None before the source) then
    node number ``node``. Walks order as the tuples of their node numbers,
    which a walk builds only when the heap compares it with a walk of equal
    length, or when it reaches a stop; so a push costs the same at any hop
    depth, and a search that meets no tie copies no walk but its stops'."""

    __slots__ = ("prior", "node", "kept")

    def __init__(self, prior: _Walk | None, node: int):
        self.prior = prior
        self.node = node
        self.kept = None

    def numbers(self) -> tuple[int, ...]:
        """The numbers of the walk's nodes, source first."""
        if self.kept is None:
            tail, walk = [], self
            while walk is not None and walk.kept is None:
                tail.append(walk.node)
                walk = walk.prior
            self.kept = (() if walk is None else walk.kept) + tuple(reversed(tail))
            self.prior = None  # the numbers stand in for the chain, which may now go
        return self.kept

    def __lt__(self, other: _Walk) -> bool:
        return (self.kept or self.numbers()) < (other.kept or other.numbers())


def _settle(network: SkywayNetwork, source: str, stops: Collection[str],
            nearest: bool = False) -> dict[str, Path]:
    """Dijkstra from ``source`` over the network's search index until every
    one of ``stops`` (distinct node ids) is settled, or, with ``nearest``,
    until the first distance popped past the first stop settled. Returns the
    paths of the stops settled, in settling order.

    The heap holds (distance, walk) pairs, a walk (``_Walk``) ordering as
    the tuple of its nodes' rank numbers. Rank order is id order, so of the
    walks of equal length (bit for bit) the lexicographically smallest pops
    first, and a walk before its extensions. A node settles at its first
    pop. A neighbour not yet settled is pushed when the walk reaches it no
    later than every walk pushed for it before, so no walk that could pop
    first is left out and each segment pushes at most once each way.
    """
    ids, rank, links = network._ids, network._rank, network._links
    push, pop = heapq.heappush, heapq.heappop
    wanted = bytearray(len(ids))
    for stop in stops:
        wanted[rank[stop]] = 1
    dist = [math.inf] * len(ids)
    done = bytearray(len(ids))
    found: dict[str, Path] = {}
    least = math.inf
    heap = [(0.0, _Walk(None, rank[source]))]
    while heap:
        d, walk = pop(heap)
        node = walk.node
        if done[node]:
            continue
        if d > least:
            break
        done[node] = 1
        if wanted[node]:
            found[ids[node]] = Path(tuple(map(ids.__getitem__, walk.numbers())), d)
            if nearest:
                least = d
            elif len(found) == len(stops):
                break
        for neighbour, length in links[node]:
            reach = d + length
            if reach <= dist[neighbour] and not done[neighbour]:
                dist[neighbour] = reach
                push(heap, (reach, _Walk(walk, neighbour)))
    return found


def _is_walk(network: SkywayNetwork, path, start: str) -> bool:
    """Whether ``path`` walks the network from ``start`` with a total_length
    equal to the left-to-right sum of its segments."""
    links, rank = network._links, network._rank
    try:
        nodes, length = path
        total, here = 0.0, links[rank[start]]
        for node in nodes[1:]:
            node = rank[node]
            total += dict(here)[node]
            here = links[node]
        return nodes[0] == start and total == length
    except (IndexError, KeyError, TypeError, ValueError):
        return False


def stop_matrix(network: SkywayNetwork, stops: Iterable[str]) -> dict[str, dict[str, Path]]:
    """Shortest paths between every pair of ``stops``: ``matrix[a][b]`` runs a to b.

    One Dijkstra per distinct stop, first stop first, each ending once every
    stop is settled, each row keyed in stop order. Raises what ``shortest_paths_from`` does.
    """
    _require("network", network, SkywayNetwork)
    distinct = _distinct_nodes(network, "stops", stops)
    rows = {stop: _settle(network, stop, distinct) for stop in distinct}
    return {stop: {b: row[b] for b in distinct} for stop, row in rows.items()}


def shortest_path(network: SkywayNetwork, start: str, goal: str) -> Path:
    """Minimum-length path between two nodes (ties broken lexicographically)."""
    return shortest_paths_from(network, start, (goal,))[goal]
