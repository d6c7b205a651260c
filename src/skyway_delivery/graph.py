"""Skyway network: rooftop nodes joined by straight-line flight segments.

Segment lengths are horizontal (ground-plane) distances; rooftop heights only
matter once a flight altitude profile is computed on top of a route.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DisconnectedNetwork,
    DuplicateNodeId,
    DuplicateSegment,
    NonFiniteLength,
    SelfLoopSegment,
    UnknownEndpoint,
    UnknownNode,
    ZeroLengthSegment,
)


@dataclass(frozen=True)
class Node:
    """A rooftop take-off/landing point at ground coordinates (x, y)."""

    id: str
    x: float
    y: float
    rooftop_height: float = 0.0

    def __post_init__(self):
        if not self.id:
            raise ValueError("node id must be a non-empty string")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"node {self.id!r}: coordinates must be finite")
        if not math.isfinite(self.rooftop_height) or self.rooftop_height < 0:
            raise ValueError(f"node {self.id!r}: rooftop_height must be >= 0")


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


def build_network(node_specs: Iterable[tuple], segment_specs: Iterable[tuple[str, str]]) -> SkywayNetwork:
    """Validate node/segment specs and assemble a connected network.

    ``node_specs`` holds (id, x, y, rooftop_height) tuples, ``segment_specs``
    (a, b) endpoint pairs. Raises DuplicateNodeId, UnknownEndpoint,
    SelfLoopSegment, DuplicateSegment, ZeroLengthSegment, NonFiniteLength or
    DisconnectedNetwork as appropriate.
    """
    nodes: dict[str, Node] = {}
    for spec in node_specs:
        node = Node(*spec)
        if node.id in nodes:
            raise DuplicateNodeId(f"duplicate node id {node.id!r}")
        nodes[node.id] = node
    if not nodes:
        raise ValueError("a network needs at least one node")

    segments: list[Segment] = []
    seen_pairs: set[tuple[str, str]] = set()
    for a, b in segment_specs:
        for endpoint in (a, b):
            if endpoint not in nodes:
                raise UnknownEndpoint(f"segment {a!r}-{b!r}: unknown endpoint {endpoint!r}")
        if a == b:
            raise SelfLoopSegment(f"segment {a!r}-{b!r} is a self-loop")
        pair = (a, b) if a < b else (b, a)
        if pair in seen_pairs:
            raise DuplicateSegment(f"segment {pair[0]!r}-{pair[1]!r} appears more than once")
        seen_pairs.add(pair)
        length = math.dist((nodes[a].x, nodes[a].y), (nodes[b].x, nodes[b].y))
        if length == 0.0:
            raise ZeroLengthSegment(f"segment {a!r}-{b!r} joins coincident positions")
        if length == math.inf:
            raise NonFiniteLength(f"segment {a!r}-{b!r} is too long: its length overflows")
        segments.append(Segment(pair[0], pair[1], length))
    segments.sort(key=lambda s: (s.a, s.b))

    neighbours: dict[str, list[tuple[str, float]]] = {nid: [] for nid in nodes}
    for seg in segments:
        neighbours[seg.a].append((seg.b, seg.length))
        neighbours[seg.b].append((seg.a, seg.length))
    adjacency = {nid: tuple(sorted(links)) for nid, links in neighbours.items()}

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

    return SkywayNetwork(nodes=nodes, segments=tuple(segments), adjacency=adjacency)


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
