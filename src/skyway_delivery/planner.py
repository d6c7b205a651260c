"""Delivery-order planning: greedy nearest-destination and exhaustive search."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InfeasiblePayload,
    InvalidPackage,
    TooManyPackagesForExhaustive,
    UnknownDestination,
)
from .rules import check_fields, finite, non_empty, non_negative, positive
from .graph import Path, SkywayNetwork, shortest_paths_from

EXHAUSTIVE_PACKAGE_CAP = 9


@dataclass(frozen=True)
class Package:
    id: str
    mass: float
    destination: str

    # mass has two rules so that a non-finite mass is reported before the
    # destination and a mass <= 0 after it, the order scenario documents have
    # always been reported in.
    RULES = (("id", non_empty), ("mass", finite), ("destination", non_empty),
             ("mass", positive))

    def __post_init__(self):
        check_fields(self, self.RULES)


@dataclass(frozen=True)
class DroneConfig:
    """Airframe and battery parameters; defaults model a heavy-lift quadrotor."""

    frame_mass: float = 1.0
    max_payload: float = 15.9
    battery_capacity: float = 50_000.0
    cruise_speed: float = 10.0
    vertical_speed: float = 2.0
    base_rate: float = 2.0
    payload_rate: float = 1.0

    RULES = (("frame_mass", non_negative), ("max_payload", positive),
             ("battery_capacity", positive), ("cruise_speed", positive),
             ("vertical_speed", positive), ("base_rate", positive),
             ("payload_rate", positive))

    def __post_init__(self):
        check_fields(self, self.RULES)


@dataclass(frozen=True)
class Leg:
    """One hop of a mission: fly ``path``, then release ``release`` (or nothing)."""

    path: Path
    release: str | None = None


@dataclass(frozen=True)
class MissionPlan:
    source: str
    legs: tuple[Leg, ...]
    strategy_label: str

    @property
    def release_order(self) -> tuple[str, ...]:
        return tuple(leg.release for leg in self.legs if leg.release is not None)


@dataclass(frozen=True)
class HangingAssignment:
    """Package id -> hanging level; level 1 is the bottom-most (longest) hang."""

    level_of: dict[str, int]
    level_count: int


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    total_payload: float
    capacity: float
    violations: tuple[str, ...]


def check_feasibility(drone: DroneConfig | None, packages: Sequence[Package],
                      level_count: int | None = None) -> FeasibilityReport:
    """Report whether the packages fit the drone (and rig, when given).

    Either constraint may be absent: no drone means no capacity bound, no
    level count means no rig bound. Infeasibility is an answer, not an
    error: callers that need a hard stop raise InfeasiblePayload from the
    returned report.
    """
    total = sum(p.mass for p in packages)
    capacity = drone.max_payload if drone is not None else math.inf
    violations = []
    if total > capacity:
        violations.append(f"payload {total} kg exceeds capacity {capacity} kg")
    if level_count is not None and len(packages) > level_count:
        violations.append(f"{len(packages)} packages exceed {level_count} hanging levels")
    return FeasibilityReport(
        feasible=not violations,
        total_payload=total,
        capacity=capacity,
        violations=tuple(violations),
    )


def _check_inputs(network: SkywayNetwork, source: str, packages: Sequence[Package],
                  drone: DroneConfig | None, level_count: int | None) -> list[Package]:
    network.node(source)
    ordered = sorted(packages, key=lambda p: p.id)
    for package in ordered:
        if package.destination not in network.nodes:
            raise UnknownDestination(
                f"package {package.id!r}: unknown destination {package.destination!r}"
            )
        if package.destination == source:
            raise InvalidPackage(f"package {package.id!r}: destination is the source")
    for earlier, later in zip(ordered, ordered[1:]):
        if earlier.id == later.id:
            raise InvalidPackage(f"package id {later.id!r} appears more than once")
    if drone is not None or level_count is not None:
        report = check_feasibility(drone, ordered, level_count)
        if not report.feasible:
            raise InfeasiblePayload(report)
    return ordered


def plan_ndf(network: SkywayNetwork, source: str, packages: Sequence[Package], *,
             drone: DroneConfig | None = None,
             level_count: int | None = None) -> MissionPlan:
    """Greedy plan: always deliver the package whose destination is nearest.

    Distances are shortest-path lengths from the drone's current node, so the
    ranking is recomputed after every delivery. Ties fall to the smaller
    package id. The plan ends with a return leg to the source.
    """
    remaining = _check_inputs(network, source, packages, drone, level_count)
    legs: list[Leg] = []
    current = source
    while remaining:
        paths = shortest_paths_from(network, current)
        chosen = min(remaining, key=lambda p: (paths[p.destination].total_length, p.id))
        legs.append(Leg(paths[chosen.destination], chosen.id))
        current = chosen.destination
        remaining.remove(chosen)
    legs.append(Leg(shortest_paths_from(network, current)[source], None))
    return MissionPlan(source=source, legs=tuple(legs), strategy_label="ndf")


def plan_optimal(network: SkywayNetwork, source: str, packages: Sequence[Package], *,
                 drone: DroneConfig | None = None,
                 level_count: int | None = None) -> MissionPlan:
    """Distance-optimal plan by scoring every release order, return leg included.

    Capped at EXHAUSTIVE_PACKAGE_CAP packages; equal-distance orders resolve
    to the lexicographically smallest package-id sequence.
    """
    if len(packages) > EXHAUSTIVE_PACKAGE_CAP:
        raise TooManyPackagesForExhaustive(
            f"{len(packages)} packages exceed the exhaustive cap of {EXHAUSTIVE_PACKAGE_CAP}"
        )
    ordered = _check_inputs(network, source, packages, drone, level_count)
    stops = sorted({source} | {p.destination for p in ordered})
    paths_from = {stop: shortest_paths_from(network, stop) for stop in stops}

    best_order: tuple[Package, ...] | None = None
    best_total = float("inf")
    for order in itertools.permutations(ordered):
        total = 0.0
        at = source
        for package in order:
            total += paths_from[at][package.destination].total_length
            at = package.destination
        total += paths_from[at][source].total_length
        if total < best_total:
            best_total = total
            best_order = order

    legs: list[Leg] = []
    at = source
    for package in best_order or ():
        legs.append(Leg(paths_from[at][package.destination], package.id))
        at = package.destination
    legs.append(Leg(paths_from[at][source], None))
    return MissionPlan(source=source, legs=tuple(legs), strategy_label="exhaustive")


def assign_levels(plan: MissionPlan) -> HangingAssignment:
    """Hang the i-th released package at level i, so releases run bottom to top."""
    level_of = {pid: i for i, pid in enumerate(plan.release_order, start=1)}
    return HangingAssignment(level_of=level_of, level_count=len(level_of))


def plan_total_distance(plan: MissionPlan) -> float:
    return sum(leg.path.total_length for leg in plan.legs)
