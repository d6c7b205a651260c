"""Kinematic mission execution: take-off, cruise, descend-release, return.

Motion is sequential (vertical then horizontal) at piecewise-constant speed
with instantaneous turns. Energy is payload-linear: every metre of 3D travel
costs ``consumption_rate`` joules, and hovering during the release dwell is
free. The battery is one float that the flight spends down. ``compare_strategies``
flies the NDF and the exhaustive plan of one scenario side by side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, NamedTuple, Sequence

from .errors import (BatteryDepleted, InconsistentAssignment, InvalidLevel, NegativePayload,
                     NonFiniteLength, ValidationError)
from .graph import Path, SkywayNetwork
from .planner import (PLANNERS, DroneConfig, HangingAssignment, MissionPlan, Package,
                      assign_levels, left_to_right_sum, level_violation,
                      plan_total_distance)
from .rules import check_fields, positive

if TYPE_CHECKING:
    from .scenario import Scenario

DEFAULT_RELEASE_DWELL = 2.0   # seconds of rebound pause before a package drops free
DEFAULT_TELEMETRY_STEP = 0.1  # seconds between interval samples
_BOUNDARY_EPS = 1e-9          # samples this close to a phase edge are dropped


def _hang_lengths(name, levels):
    """Field rule: every hang finite and > 0, then strictly decreasing."""
    for i, hang in enumerate(levels):
        if not 0 < hang < math.inf:
            return f"{name}[{i}]: expected a positive number"
    for i in range(1, len(levels)):
        if not levels[i - 1] > levels[i]:
            return f"{name}[{i}]: hang lengths must strictly decrease from level 1 up"
    return None


@dataclass(frozen=True)
class StringRig:
    """Hanging string taped at fixed levels; level 1 hangs lowest.

    ``levels[i]`` is how far level i+1 hangs below the drone, so the tuple is
    strictly decreasing and positive. A bad clearance is reported before bad
    levels.
    """

    levels: tuple[float, ...] = (3.0, 2.0, 1.0)
    clearance: float = 1.0

    RULES = (("clearance", positive), ("levels", _hang_lengths))

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        check_fields(self, self.RULES)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def hang(self, level: int) -> float:
        if not 1 <= level <= len(self.levels):
            raise InvalidLevel(f"level {level} outside 1..{len(self.levels)}")
        return self.levels[level - 1]


class TelemetryRecord(NamedTuple):
    """One telemetry row: a sample when ``event`` is empty, else an event.

    A tuple in CSV column order, so the export formats it as it stands.
    """

    t: float
    x: float
    y: float
    z: float
    payload_mass: float
    battery_remaining: float
    event: str = ""


TelemetryLog = list[TelemetryRecord]


def consumption_rate(drone: DroneConfig, payload_mass: float) -> float:
    """Joules per metre while carrying ``payload_mass`` kg of packages.

    The airframe's own mass is a constant load and is already folded into
    the drone's base rate. Two finite rates can add up to an infinite one;
    such a drone cannot fly, so it raises ValidationError.
    """
    if payload_mass < 0:
        raise NegativePayload(f"payload mass must be >= 0, got {payload_mass}")
    rate = drone.base_rate + drone.payload_rate * payload_mass
    if not math.isfinite(rate):
        raise ValidationError([
            f"drone: the consumption rate base_rate + payload_rate * {payload_mass} kg "
            f"must be finite (got {rate})"])
    return rate


@dataclass(frozen=True)
class LegEnergy:
    """Energy spent on one plan leg flown at a constant payload."""

    distance_3d: float
    payload_mass: float
    rate: float
    energy: float


@dataclass(frozen=True)
class EnergyBreakdown:
    legs: tuple[LegEnergy, ...]
    total: float


@dataclass(frozen=True)
class MissionReport:
    completed: bool
    releases: tuple[tuple[str, str, float], ...]
    total_distance_3d: float
    energy: EnergyBreakdown
    end_position: tuple[float, float, float]
    abort_reason: str | None = None


def cruise_altitude(network: SkywayNetwork, leg_path: Path, rig: StringRig,
                    loaded_levels: Collection[int]) -> float:
    """Altitude that keeps the lowest hanging package clear of every rooftop
    under the leg, plus the rig's safety clearance."""
    highest = max(network.node(nid).rooftop_height for nid in leg_path.nodes)
    hang = rig.hang(min(loaded_levels)) if loaded_levels else 0.0
    return highest + hang + rig.clearance


def release_altitude(node, rig: StringRig, level: int) -> float:
    """Altitude at which the package hanging at ``level`` touches the rooftop."""
    return node.rooftop_height + rig.hang(level)


class _Flight:
    """The one mutable flight state: position, clock, battery charge in
    joules, payload, the current leg's joules per metre, telemetry."""

    def __init__(self, x: float, y: float, z: float, battery: float,
                 payload_mass: float, telemetry_step: float):
        self.x, self.y, self.z = x, y, z
        self.clock = 0.0
        self.battery = battery
        self.rate = 0.0
        self.payload_mass = payload_mass
        self.step = telemetry_step
        self.records: TelemetryLog = []
        self.total_distance = 0.0
        self.leg_distance = 0.0
        self._samples = 0

    def emit(self, event: str) -> None:
        self.records.append(TelemetryRecord(
            self.clock, self.x, self.y, self.z, self.payload_mass, self.battery, event))

    def travel(self, x: float, y: float, z: float, speed: float) -> None:
        """Fly straight to (x, y, z).

        Exact exhaustion is legal. When the move needs more than the charge
        left, the drone flies the fraction the charge pays for and stops
        there with 0.0 J, an ABORT record closes the telemetry and
        BatteryDepleted is raised.
        """
        dist = math.dist((self.x, self.y, self.z), (x, y, z))
        if dist == 0.0:
            return
        if not math.isfinite(dist):
            raise NonFiniteLength(f"flight to ({x}, {y}, {z}) has no finite length")
        energy = self.rate * dist
        if energy > self.battery:
            fraction = self.battery / energy
            self._advance(x, y, z, dist, speed, self.rate, fraction)
            self.x += (x - self.x) * fraction
            self.y += (y - self.y) * fraction
            self.z += (z - self.z) * fraction
            self.total_distance += dist * fraction
            self.leg_distance += dist * fraction
            shortfall = f"need {energy} J but only {self.battery} J remaining"
            self.battery = 0.0
            self.emit("ABORT")
            raise BatteryDepleted(shortfall)
        self._advance(x, y, z, dist, speed, self.rate, 1.0)
        self.x, self.y, self.z = x, y, z  # land exactly on the target point
        self.total_distance += dist
        self.leg_distance += dist
        self.battery -= energy

    def hold(self, duration: float) -> None:
        """Hover in place, spending nothing: a move to the current point at
        rate 0 whose length, flown at unit speed, is the duration."""
        self._advance(self.x, self.y, self.z, duration, 1.0, 0.0, 1.0)

    def _advance(self, x: float, y: float, z: float, dist: float, speed: float,
                 rate: float, fraction: float) -> None:
        """Sample ``fraction`` of a move toward (x, y, z) on the step grid and
        move the clock to its end; the caller places the drone."""
        x0, y0, z0, t0 = self.x, self.y, self.z, self.clock
        battery0 = self.battery
        t1 = t0 + dist * fraction / speed
        if not math.isfinite(t1):
            raise NonFiniteLength(f"move to ({x}, {y}, {z}) takes no finite time")
        while True:
            ts = (self._samples + 1) * self.step
            if ts >= t1 - _BOUNDARY_EPS:
                break
            self._samples += 1
            if ts <= t0 + _BOUNDARY_EPS:
                continue
            f = (ts - t0) * speed / dist
            self.records.append(TelemetryRecord(
                ts,
                x0 + (x - x0) * f,
                y0 + (y - y0) * f,
                z0 + (z - z0) * f,
                self.payload_mass,
                battery0 - rate * speed * (ts - t0),
                "",
            ))
        self.clock = t1


def _check_consistency(plan: MissionPlan, assignment: HangingAssignment,
                       mass_of: dict[str, float], rig: StringRig) -> None:
    order = plan.release_order
    for i, package_id in enumerate(order):
        if package_id in order[:i]:
            raise InconsistentAssignment(f"package {package_id!r} is released twice")
        if package_id not in mass_of:
            raise InconsistentAssignment(f"released package {package_id!r} has no mass entry")
    if assignment != assign_levels(plan):
        raise InconsistentAssignment(
            "assignment must hang the i-th released package at level i")
    violation = level_violation(len(order), rig.level_count)
    if violation is not None:
        raise InvalidLevel(violation)


def simulate_mission(network: SkywayNetwork, plan: MissionPlan,
                     assignment: HangingAssignment, drone: DroneConfig,
                     rig: StringRig, packages: Sequence[Package],
                     *, release_dwell: float = DEFAULT_RELEASE_DWELL,
                     telemetry_step: float = DEFAULT_TELEMETRY_STEP
                     ) -> tuple[TelemetryLog, MissionReport]:
    """Fly ``plan`` and return (telemetry, report).

    Per leg: adjust to the leg's cruise altitude, traverse its path, then for
    delivery legs descend until the hanging package touches the rooftop, pause
    for the release dwell, and let it go. The final leg lands back at the
    source. A dead battery cuts the flight short with an ABORT record.
    ``assignment`` must equal ``assign_levels(plan)``.
    """
    if not telemetry_step > 0:
        raise ValueError("telemetry_step must be > 0")
    if not 0 <= release_dwell < math.inf:
        raise ValueError("release_dwell must be finite and >= 0")
    mass_of = {p.id: p.mass for p in packages}
    order = plan.release_order
    _check_consistency(plan, assignment, mass_of, rig)

    # Payload after k releases, built as suffix sums so the sequence is
    # non-negative throughout and ends at exactly 0.0.
    payload_after = [0.0] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        payload_after[k] = mass_of[order[k]] + payload_after[k + 1]
    source = network.node(plan.source)
    flight = _Flight(source.x, source.y, source.rooftop_height, drone.battery_capacity,
                     payload_after[0], telemetry_step)
    flight.emit("TAKEOFF")

    releases: list[tuple[str, str, float]] = []
    leg_energies: list[LegEnergy] = []
    abort_reason: str | None = None

    for leg_number, leg in enumerate(plan.legs, start=1):
        leg_payload = flight.payload_mass
        flight.rate = leg_rate = consumption_rate(drone, leg_payload)
        flight.leg_distance = 0.0
        if leg.release is None and leg.path.total_length == 0.0:
            # Package-free mission: the drone never leaves the rooftop.
            leg_energies.append(LegEnergy(0.0, leg_payload, leg_rate, 0.0))
            flight.emit("LAND")
            break
        try:
            if leg.release is None and order:
                flight.emit("RETURN_LEG")
            # The i-th release hangs at level i, so the loaded levels are the
            # ones above the releases made so far.
            altitude = cruise_altitude(network, leg.path, rig,
                                       range(len(releases) + 1, len(order) + 1))
            dz = altitude - flight.z
            if dz != 0.0:
                flight.emit("ASCEND" if dz > 0 else "DESCEND")
                flight.travel(flight.x, flight.y, altitude, drone.vertical_speed)
            for next_id in leg.path.nodes[1:]:
                target = network.node(next_id)
                flight.emit("CRUISE")
                flight.travel(target.x, target.y, altitude, drone.cruise_speed)
            end_node = network.node(leg.path.nodes[-1])
            flight.emit("ARRIVE")
            flight.emit("DESCEND")
            if leg.release is None:
                flight.travel(flight.x, flight.y, end_node.rooftop_height,
                              drone.vertical_speed)
                flight.emit("LAND")
            else:
                level = len(releases) + 1
                flight.travel(flight.x, flight.y, release_altitude(end_node, rig, level),
                              drone.vertical_speed)
                flight.hold(release_dwell)
                flight.payload_mass = payload_after[level]
                flight.emit(f"RELEASE({leg.release})")
                releases.append((leg.release, end_node.id, flight.clock))
        except BatteryDepleted:
            abort_reason = f"battery depleted on leg {leg_number}"
            break
        finally:
            leg_energies.append(LegEnergy(
                flight.leg_distance, leg_payload, leg_rate,
                leg_rate * flight.leg_distance))

    breakdown = EnergyBreakdown(tuple(leg_energies),
                                left_to_right_sum(rec.energy for rec in leg_energies))
    report = MissionReport(
        completed=abort_reason is None,
        releases=tuple(releases),
        total_distance_3d=flight.total_distance,
        energy=breakdown,
        end_position=(flight.x, flight.y, flight.z),
        abort_reason=abort_reason,
    )
    return flight.records, report


@dataclass(frozen=True)
class StrategyOutcome:
    label: str
    release_order: tuple[str, ...]
    total_distance: float
    total_energy: float
    completed: bool


@dataclass(frozen=True)
class CompareResult:
    ndf: StrategyOutcome
    optimal: StrategyOutcome
    distance_gap_percent: float


def compare_strategies(scenario: Scenario) -> CompareResult:
    """Plan and fly both strategies, then relate their total distances.

    The flights are for their reports only, so they record no telemetry
    samples.
    """
    outcomes = []
    for planner in PLANNERS.values():
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
