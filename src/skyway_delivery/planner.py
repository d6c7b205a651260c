"""Delivery-order planning: greedy nearest-destination and exhaustive search."""
from __future__ import annotations

import functools
import math
import operator
import struct
from collections import abc
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InfeasiblePayload,
    InvalidPackage,
    SkywayError,
    TooManyPackagesForExhaustive,
    UnknownDestination,
    ValidationError,
)
from .rules import (_require, _type_violation, as_number, check_fields, finite, integer,
                    non_empty, non_negative, numeric, positive)
from .graph import Path, SkywayNetwork, _settle, stop_matrix

# The largest manifest the Held–Karp planner takes. Each package more
# about doubles its time and memory: on a 2-core VM (Python 3.11),
# generate_scenario(500, 15, seed) plans in 0.30–0.55 s and peaks at 35 MB
# RSS (seeds 0–5), and 16 packages take 0.66–0.88 s and 56 MB.
EXHAUSTIVE_PACKAGE_CAP = 15


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


class Leg(NamedTuple):
    """One hop of a mission: fly ``path``, then release ``release`` (or nothing)."""

    path: Path
    release: str | None = None


class MissionPlan(NamedTuple):
    source: str
    legs: tuple[Leg, ...]
    strategy_label: str

    @property
    def release_order(self) -> tuple[str, ...]:
        return tuple(leg.release for leg in self.legs if leg.release is not None)


class HangingAssignment(NamedTuple):
    """Package id -> hanging level; level 1 is the bottom-most (longest) hang."""

    level_of: dict[str, int]
    level_count: int


class FeasibilityReport(NamedTuple):
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
    returned report. An argument of the wrong type raises ValidationError.
    """
    _judge(drone, packages, level_count)
    return _feasibility(drone, packages, level_count)


def _judge(drone: DroneConfig | None, packages: Sequence[Package],
           level_count: int | None, found: Iterable[str | None] = ()) -> None:
    """Raise one ValidationError naming each argument of the wrong type,
    after ``found``, the caller's violations for its other arguments (None
    for each one that is fine)."""
    violations = [*found, None if drone is None else _type_violation("drone", drone, DroneConfig)]
    if isinstance(packages, abc.Sequence):
        violations += [_type_violation(f"packages[{i}]", package, Package)
                       for i, package in enumerate(packages) if not isinstance(package, Package)]
    else:
        violations.append(f"packages: expected a sequence of packages, "
                          f"got {type(packages).__name__}")
    violations.append(None if level_count is None else integer("level_count", level_count)
                      or level_count < 0 and f"level_count: must be >= 0 (got {level_count})")
    if any(violations):
        raise ValidationError(filter(None, violations))


def _feasibility(drone: DroneConfig | None, packages: Sequence[Package],
                 level_count: int | None) -> FeasibilityReport:
    """``check_feasibility`` of arguments already judged."""
    total = left_to_right_sum(p.mass for p in packages)
    capacity = drone.max_payload if drone is not None else math.inf
    violations = []
    if total > capacity:
        violations.append(f"payload {total} kg exceeds capacity {capacity} kg")
    if level_count is not None:
        violation = level_violation(len(packages), level_count)
        if violation is not None:
            violations.append(violation)
    return FeasibilityReport(
        feasible=not violations,
        total_payload=total,
        capacity=capacity,
        violations=tuple(violations),
    )


def level_violation(package_count: int, level_count: int) -> str | None:
    """The rule that each package needs a hanging level of its own: its
    violation, or None when the rig's ``level_count`` levels are enough."""
    if package_count > level_count:
        return f"{package_count} packages exceed the rig's {level_count} hanging levels"
    return None


def package_faults(index: int, package_id: str | None, destination: str | None,
                   source: str | None, node_ids, seen_ids: set[str]) -> list[SkywayError]:
    """The faults of package ``index``, in report order.

    ``node_ids`` holds every node id and ``seen_ids`` the ids of the packages
    before this one; it gains this one's id. A None argument is unknown, so
    the checks that need it are skipped.
    """
    faults: list[SkywayError] = []
    if package_id is not None:
        if package_id in seen_ids:
            faults.append(InvalidPackage(
                f"packages[{index}].id: duplicate package id {package_id!r}"))
        seen_ids.add(package_id)
    if destination is not None:
        if destination not in node_ids:
            faults.append(UnknownDestination(
                f"packages[{index}].destination: unknown node {destination!r}"))
        elif destination == source:
            faults.append(InvalidPackage(
                f"packages[{index}].destination: must differ from the source"))
    return faults


def _checked(network: SkywayNetwork, source: str, packages: Sequence[Package],
             drone: DroneConfig | None, level_count: int | None) -> list[Package]:
    """The packages in id order, once the source is a node, no package has
    a fault and the payload and levels fit; else raise. The caller judges
    the arguments' types first."""
    network.node(source)
    seen_ids: set[str] = set()
    for i, package in enumerate(packages):
        faults = package_faults(i, package.id, package.destination, source,
                                network.nodes, seen_ids)
        if faults:
            raise type(faults[0])(f"package {package.id!r}: {faults[0]}")
    ordered = sorted(packages, key=lambda p: p.id)
    report = _feasibility(drone, ordered, level_count)
    if not report.feasible:
        raise InfeasiblePayload(report)
    return ordered


def plan_ndf(network: SkywayNetwork, source: str, packages: Sequence[Package], *,
             drone: DroneConfig | None = None,
             level_count: int | None = None) -> MissionPlan:
    """Greedy plan: always deliver the package whose destination is nearest.

    Distances are shortest-path lengths from the drone's current node, so the
    ranking is recomputed after every delivery; each search runs only as far
    as the nearest remaining destinations. Ties fall to the smaller package
    id, so a repeated destination is delivered next. The plan ends with a
    return leg to the source.
    """
    _judge(drone, packages, level_count, [_type_violation("network", network, SkywayNetwork)])
    return _ndf(source, _checked(network, source, packages, drone, level_count),
                lambda at, stops: _settle(network, at, stops, nearest=True))


def _ndf(source: str, left: list[Package], nearest_from) -> MissionPlan:
    """``plan_ndf``'s plan of ``left``, the packages in id order, which it
    empties; ``nearest_from(at, stops)`` gives the paths from ``at`` to those
    of ``stops`` at the least distance, bit for bit."""
    legs: list[Leg] = []
    at = source
    while left:
        nearest = nearest_from(at, {p.destination for p in left})
        package = left.pop(next(i for i, p in enumerate(left) if p.destination in nearest))
        legs.append(Leg(nearest[package.destination], package.id))
        at = package.destination
    legs.append(Leg(nearest_from(at, {source})[source], None))
    return MissionPlan(source=source, legs=tuple(legs), strategy_label="ndf")


def plan_optimal(network: SkywayNetwork, source: str, packages: Sequence[Package], *,
                 drone: DroneConfig | None = None,
                 level_count: int | None = None) -> MissionPlan:
    """Distance-optimal plan over every release order, return leg included.

    Capped at EXHAUSTIVE_PACKAGE_CAP packages. ``optimal_order`` finds the
    order over the stop matrix, stop 0 being the source and stop i the
    destination of the i-th package by id; equal-distance orders resolve to
    the lexicographically smallest package-id sequence.
    """
    _judge(drone, packages, level_count, [_type_violation("network", network, SkywayNetwork)])
    ordered, paths, dist = _stop_paths(network, source, packages, drone, level_count)
    return _plan_over(source, ordered, paths, optimal_order(dist)[0], "exhaustive")


def _compared_plans(network: SkywayNetwork, source: str, packages: Sequence[Package],
                    drone: DroneConfig | None,
                    level_count: int | None) -> tuple[MissionPlan, MissionPlan]:
    """``plan_ndf`` and ``plan_optimal`` of the same arguments, judged by
    the caller, both read off one stop matrix.

    NDF's bounded searches settle the same nodes in the same order as the
    matrix's full ones, so the nearest stops are those at the least distance in a row.
    """
    ordered, paths, dist = _stop_paths(network, source, packages, drone, level_count)

    def nearest_from(at: str, stops: set[str]) -> dict[str, Path]:
        row = paths[at]
        least = min(row[stop].total_length for stop in stops)
        return {stop: row[stop] for stop in stops if row[stop].total_length == least}
    return (_ndf(source, list(ordered), nearest_from),
            _plan_over(source, ordered, paths, optimal_order(dist)[0], "exhaustive"))


def _stop_paths(network: SkywayNetwork, source: str, packages: Sequence[Package],
                drone: DroneConfig | None, level_count: int | None
                ) -> tuple[list[Package], dict[str, dict[str, Path]], list[list[float]]]:
    """The packages in id order once they are fit to plan, and then the
    stop matrix's paths and its distances by stop number, stop 0 being the
    source and stop i the destination of the i-th package.

    Raises what ``_checked`` does, then TooManyPackagesForExhaustive past
    the cap before any search, then what ``stop_matrix`` does.
    """
    ordered = _checked(network, source, packages, drone, level_count)
    if len(ordered) > EXHAUSTIVE_PACKAGE_CAP:
        raise TooManyPackagesForExhaustive(
            f"{len(ordered)} packages exceed the exhaustive cap of {EXHAUSTIVE_PACKAGE_CAP}"
        )
    stops = [source, *(p.destination for p in ordered)]
    paths = stop_matrix(network, stops)
    return ordered, paths, [[paths[a][b].total_length for b in stops] for a in stops]


def _plan_over(source: str, ordered: list[Package], paths: dict[str, dict[str, Path]],
               order: Iterable[int], label: str) -> MissionPlan:
    """The plan that releases ``ordered[i - 1]`` for each stop i of
    ``order`` along the matrix's ``paths``, then returns to ``source``."""
    legs: list[Leg] = []
    at = source
    for stop in order:
        package = ordered[stop - 1]
        legs.append(Leg(paths[at][package.destination], package.id))
        at = package.destination
    legs.append(Leg(paths[at][source], None))
    return MissionPlan(source=source, legs=tuple(legs), strategy_label=label)


# The strategies by their CLI name. The CLI's ``plan`` and ``run`` look a
# planner up here when they call it, so a wrapper put into this table (as
# the benchmark's tracer does) is the one that runs; ``compare_strategies``
# plans both through ``_compared_plans`` instead.
PLANNERS = {"ndf": plan_ndf, "exhaustive": plan_optimal}


def optimal_order(dist: Sequence[Sequence[float]]) -> tuple[tuple[int, ...], float]:
    """The shortest round trip from stop 0 through every other stop (Held–Karp).

    ``dist[a][b]`` is the non-negative distance from stop a to stop b; it
    need not be symmetric or metric. A trip's total is summed left to right
    from 0.0, legs in flying order, return leg last. Returns the order of
    stops 1..n-1 and its total: of the orders whose total equals the exact
    float minimum, the lexicographically smallest.

    Dynamic programming over subsets, O(2^n·n²) time and O(2^n·n) memory, in
    three passes:

    1. forward, the least prefix total ``low[S][j]`` of any path from stop 0
       through the set S ending at j, and from it the minimum total;
    2. backward, the largest prefix total ``high[S][j]`` from which some
       completion still reaches the minimum. Float addition is monotone, so
       every prefix up to it does and none above it does. A state with
       ``high < low`` lies on no minimal trip and is left out (None or -inf);
    3. forward again, at each step the smallest stop whose actual prefix
       total stays within ``high``.

    Building the order through least prefixes only would be wrong: a prefix
    that is not the least can still round to the minimal total.

    Raises ValueError when ``dist`` is empty or not square, or holds an
    entry that is not a number >= 0; +inf is one. It is a ValidationError
    when ``dist`` or a row of it is not a sequence. Past those checks, more
    than EXHAUSTIVE_PACKAGE_CAP stops after stop 0 raise
    TooManyPackagesForExhaustive before any table is built.
    """
    _require("dist", dist, abc.Sequence)
    for a, row in enumerate(dist):
        _require(f"dist[{a}]", row, abc.Sequence)
    if not dist or any(len(row) != len(dist) for row in dist):
        raise ValueError("dist must be a non-empty square matrix")
    for a, row in enumerate(dist):
        for b, entry in enumerate(row):
            if as_number(entry) is None or not entry >= 0:
                raise ValueError(f"dist[{a}][{b}] must be a number >= 0 (got {entry!r})")
    n = len(dist) - 1
    if n > EXHAUSTIVE_PACKAGE_CAP:
        raise TooManyPackagesForExhaustive(
            f"{n} stops after stop 0 exceed the exhaustive cap of {EXHAUSTIVE_PACKAGE_CAP}")
    if n == 0:
        return (), 0.0 + dist[0][0]
    inf = math.inf
    full = (1 << n) - 1
    out = [dist[0][j + 1] for j in range(n)]
    back = [dist[j + 1][0] for j in range(n)]
    hop = [[dist[i + 1][j + 1] for j in range(n)] for i in range(n)]
    into = [list(column) for column in zip(*hop)]  # into[j][i] == hop[i][j]
    members: list[list[int]] = [[]]  # members[mask]: the stops in mask, ascending
    for j in range(n):
        members += [[*m, j] for m in members]

    # 1. low[mask][j], inf where j is not in mask.
    low: list[list[float]] = [[]] * (full + 1)
    for mask in range(1, full + 1):
        row = [inf] * n
        if mask & (mask - 1) == 0:
            j = mask.bit_length() - 1
            row[j] = 0.0 + out[j]
        else:
            for j in members[mask]:
                row[j] = min(map(operator.add, low[mask ^ (1 << j)], into[j]))
        low[mask] = row
    best = min(low[full][j] + back[j] for j in range(n))

    # 2. high[mask][j], or None when no state of mask lies on a minimal trip.
    high: list[list[float] | None] = [None] * (full + 1)
    high[full] = [_largest_prefix(back[j], best, low[full][j])
                  if low[full][j] + back[j] <= best else -inf for j in range(n)]
    # A row needs only the rows of the sets with one stop more, so the sets
    # go one stop count at a time, and only those one stop short of a state
    # on a minimal trip; every other row stays None.
    level = [full]
    while level:
        below = {upper ^ 1 << j for upper in level for j in members[upper]
                 if high[upper][j] > -inf} - {0}
        level = []
        for mask in below:
            onward = [(m, high[mask | 1 << m][m]) for m in range(n)
                      if not mask >> m & 1 and high[mask | 1 << m] is not None
                      and high[mask | 1 << m][m] > -inf]
            row = [-inf] * n
            for j in members[mask]:
                prefix = low[mask][j]
                for m, limit in onward:
                    leg = hop[j][m]
                    if prefix + leg <= limit:
                        row[j] = max(row[j], _largest_prefix(leg, limit, prefix))
            if max(row) > -inf:
                high[mask] = row
                level.append(mask)

    # 3. The smallest next stop whose prefix stays within reach of the minimum.
    order: list[int] = []
    mask, total, legs = 0, 0.0, out
    while mask != full:
        for m in range(n):
            if mask >> m & 1 or high[mask | 1 << m] is None:
                continue
            if total + legs[m] <= high[mask | 1 << m][m]:
                break
        else:
            raise AssertionError("no next stop keeps the minimum in reach")
        order.append(m)
        mask |= 1 << m
        total += legs[m]
        legs = hop[m]
    total += back[order[-1]]
    return tuple(j + 1 for j in order), total


def _largest_prefix(leg: float, limit: float, good: float) -> float:
    """The largest float c with c + leg <= limit, given that ``good`` is one.

    ``leg`` and ``good`` are non-negative. The answer sits within a few ulps
    of ``limit - leg`` unless ``leg`` dwarfs it; then a bisection over the
    float order (the bit patterns of non-negative floats sort like their
    values) finds it.
    """
    if limit == math.inf:
        return math.inf
    guess = limit - leg
    if guess + leg <= limit:
        good = max(good, guess)
        for _ in range(4):
            up = math.nextafter(good, math.inf)
            if up + leg > limit:
                return good
            good = up
        bad = math.nextafter(limit, math.inf)  # c + leg >= c > limit
    else:
        bad = guess
        for _ in range(4):
            down = math.nextafter(bad, -math.inf)
            if down <= good:
                return good
            if down + leg <= limit:
                return down
            bad = down
    lo, hi = _float_bits(good), _float_bits(bad)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _bits_float(mid) + leg <= limit:
            lo = mid
        else:
            hi = mid
    return _bits_float(lo)


def _float_bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _require_plan(plan) -> None:
    """Raise ValidationError unless ``plan`` is a MissionPlan of a tuple of
    Legs, each with a Path whose total_length is a number >= 0 and a release
    of None or a non-empty str. A total of +inf passes: finite segments can
    add up past the largest float."""
    _require("plan", plan, MissionPlan)
    _require("plan.legs", plan.legs, tuple)
    for i, leg in enumerate(plan.legs):
        name = f"plan.legs[{i}]"
        _require(name, leg, Leg)
        _require(f"{name}.path", leg.path, Path)
        length = leg.path.total_length
        violation = (numeric(f"{name}.path.total_length", length)
                     or not as_number(length) >= 0
                     and f"{name}.path.total_length: must be a number >= 0 (got {length!r})"
                     or leg.release is not None and non_empty(f"{name}.release", leg.release))
        if violation:
            raise ValidationError([violation])


def assign_levels(plan: MissionPlan) -> HangingAssignment:
    """Hang the i-th released package at level i, so releases run bottom to top."""
    _require_plan(plan)
    level_of = {pid: i for i, pid in enumerate(plan.release_order, start=1)}
    return HangingAssignment(level_of=level_of, level_count=len(level_of))


def plan_total_distance(plan: MissionPlan) -> float:
    _require_plan(plan)
    return left_to_right_sum(leg.path.total_length for leg in plan.legs)


def left_to_right_sum(values: Iterable[float]) -> float:
    """Add ``values`` one at a time, starting from 0.0.

    The built-in sum() does the same before Python 3.12, but from 3.12 on it
    compensates for rounding. That changes the last bits of some totals, and
    so the bytes of plans and reports, and it would break the exhaustive
    planner's rule that a mission's total is its legs added in flying order.
    """
    return functools.reduce(operator.add, values, 0.0)
