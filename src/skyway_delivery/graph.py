"""Skyway network: rooftop nodes joined by straight-line flight segments.

Segment lengths are horizontal (ground-plane) distances; rooftop heights only
matter once a flight altitude profile is computed on top of a route.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable

from .errors import (
    DisconnectedNetwork,
    DuplicateNodeId,
    DuplicateSegment,
    NonFiniteLength,
    SelfLoopSegment,
    SkywayError,
    UnknownEndpoint,
    UnknownNode,
    ZeroLengthSegment,
)
from .rules import check_fields, finite, non_empty, non_negative


@dataclass(frozen=True)
class Node:
    """A rooftop take-off/landing point at ground coordinates (x, y).

    A zero coordinate or height is stored as 0.0, never -0.0, so that every
    position derived from the node prints the same.
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


@dataclass(frozen=True)
class Segment:
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

    ``node_specs`` holds Node objects or (id, x, y, rooftop_height) tuples,
    ``segment_specs`` (a, b) endpoint pairs. Raises the first fault that
    ``node_faults`` or ``segment_faults`` finds (DuplicateNodeId,
    UnknownEndpoint, SelfLoopSegment or DuplicateSegment, with a ``nodes[i]``
    or ``segments[i]`` locator), then ZeroLengthSegment, NonFiniteLength or
    DisconnectedNetwork as appropriate.
    """
    nodes: dict[str, Node] = {}
    for i, spec in enumerate(node_specs):
        node = spec if isinstance(spec, Node) else Node(*spec)
        faults = node_faults(i, node.id, nodes)
        if faults:
            raise faults[0]
        nodes[node.id] = node
    if not nodes:
        raise ValueError("a network needs at least one node")

    rows: list[tuple[str, str, float]] = []
    seen_pairs: set[tuple[str, str]] = set()
    positions = {node.id: (node.x, node.y) for node in nodes.values()}
    for i, (a, b) in enumerate(segment_specs):
        faults = segment_faults(i, a, b, nodes, seen_pairs)
        if faults:
            raise faults[0]
        length = math.dist(positions[a], positions[b])
        if length == 0.0:
            raise ZeroLengthSegment(f"segment {a!r}-{b!r} joins coincident positions")
        if length == math.inf:
            raise NonFiniteLength(f"segment {a!r}-{b!r} is too long: its length overflows")
        rows.append((a, b, length) if a < b else (b, a, length))
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

    return SkywayNetwork(nodes=nodes, segments=tuple(starmap(Segment, rows)), adjacency=adjacency)


def shortest_paths_from(network: SkywayNetwork, source: str) -> dict[str, Path]:
    """Dijkstra from ``source`` to every node.

    Heap entries carry the full node sequence so that equal-length paths
    resolve to the lexicographically smallest sequence.
    """
    network.node(source)
    best: dict[str, Path] = {}
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (source,))]
    while heap:
        dist, walk = heapq.heappop(heap)
        tail = walk[-1]
        if tail in best:
            continue
        best[tail] = Path(walk, dist)
        for neighbour, length in network.adjacency[tail]:
            if neighbour not in best:
                heapq.heappush(heap, (dist + length, walk + (neighbour,)))
    return best


def shortest_path(network: SkywayNetwork, start: str, goal: str) -> Path:
    """Minimum-length path between two nodes (ties broken lexicographically)."""
    network.node(goal)
    return shortest_paths_from(network, start)[goal]
