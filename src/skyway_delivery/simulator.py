"""Kinematic mission execution: take-off, cruise, descend-release, return.

A ``Scenario`` holds one mission's inputs. Motion is sequential (vertical
then horizontal) at piecewise-constant speed with instantaneous turns.
Energy is payload-linear: every metre of 3D travel costs
``consumption_rate`` joules, and hovering during the release dwell is free.
The battery is one float that the flight spends down. The flight's
telemetry is a ``TelemetryLog``, which ``export_telemetry`` writes as CSV.
``compare_strategies`` flies the NDF and the exhaustive plan of one
scenario side by side.
"""
from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from .errors import (BatteryDepleted, InconsistentAssignment, InvalidLevel, NegativePayload,
                     NonFiniteLength, ValidationError)
from .graph import SkywayNetwork, _is_walk
from .planner import (DroneConfig, HangingAssignment, MissionPlan, Package, _checked,
                      _compared_plans, _judge, _require_plan, assign_levels, left_to_right_sum)
from .rules import _require, _type_violation, as_number, check_fields, finite, integer, positive

DEFAULT_RELEASE_DWELL = 2.0   # seconds of rebound pause before a package drops free
DEFAULT_TELEMETRY_STEP = 0.1  # seconds between interval samples
_BOUNDARY_EPS = 1e-9          # samples this close to a phase edge are dropped


def _hang_lengths(name, levels):
    """Field rule: a list or tuple of hangs, each a finite number > 0, then
    strictly decreasing."""
    if not isinstance(levels, (list, tuple)):
        return f"{name}: expected a list of hang lengths"
    hangs = list(map(as_number, levels))
    for i, hang in enumerate(hangs):
        if hang is None or not 0 < hang < math.inf:
            return f"{name}[{i}]: expected a positive number"
    for i in range(1, len(hangs)):
        if not hangs[i - 1] > hangs[i]:
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
        check_fields(self, self.RULES)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def hang(self, level: int) -> float:
        violation = integer("level", level)
        if violation is not None:
            raise ValidationError([violation])
        if not 1 <= level <= len(self.levels):
            raise InvalidLevel(f"level {level} outside 1..{len(self.levels)}")
        return self.levels[level - 1]


@dataclass(frozen=True)
class Scenario:
    """One mission's inputs, judged once, when built (also through
    ``dataclasses.replace``): a field of the wrong type raises
    ValidationError; an unknown source, a package fault or too few rig levels
    raises the planners' error. The payload is not judged, so an overweight
    scenario builds. ``packages`` is stored as a tuple and the network's
    nodes are read-only, so a scenario stays as it was judged, and
    ``compare_strategies`` judges it no further. ``parse_scenario`` builds
    through this constructor too, so a parsed manifest is judged here
    alone; the parser reads a document again only to explain a refusal."""

    network: SkywayNetwork
    source: str
    drone: DroneConfig
    rig: StringRig
    packages: tuple[Package, ...]
    label: str | None = None

    def __post_init__(self):
        _judge(None, self.packages, None, [  # a scenario's drone may not be None
            _type_violation("network", self.network, SkywayNetwork),
            _type_violation("source", self.source, str),
            None if self.label is None else _type_violation("label", self.label, str),
            _type_violation("rig", self.rig, StringRig),
            _type_violation("drone", self.drone, DroneConfig)])
        object.__setattr__(self, "packages", tuple(self.packages))
        _checked(self.network, self.source, self.packages, None, self.rig.level_count)


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


def _record_faults(name: str, record) -> list[str]:
    """The violations of ``record`` as a telemetry row: not a
    TelemetryRecord, one of its six values not a number or an int too large
    for a float, its event not a str. A float is written as it is, nan and
    inf too, and a bool as the number it equals, as ``csv.writer`` does."""
    if not isinstance(record, TelemetryRecord):
        return [_type_violation(name, record, TelemetryRecord)]
    found = [None if type(value) is float or isinstance(value, bool)
             else finite(f"{name}.{field}", value)
             for field, value in zip(TelemetryRecord._fields[:6], record)]
    found.append(_type_violation(f"{name}.event", record.event, str))
    return list(filter(None, found))


class _Move(NamedTuple):
    """One move and its samples: grid points ``first``..``last`` of the step
    grid, none when ``first > last``, each made from these constants as the
    sampling loop makes it. ``flown`` is the metres the drone covered: 0.0
    on a hold, less than ``dist`` on an aborted travel."""

    t0: float
    x0: float
    y0: float
    z0: float
    dx: float
    dy: float
    dz: float
    speed: float
    dist: float
    drain: float      # joules per second: rate * speed
    battery0: float
    mass: float
    step: float
    first: int
    last: int
    flown: float

    def records(self, lo: int, hi: int) -> Iterator[TelemetryRecord]:
        """The samples at grid points ``lo``..``hi - 1``."""
        t0, x0, y0, z0, dx, dy, dz, speed, dist, drain, battery0, mass, step, *_ = self
        record = tuple.__new__  # skips TelemetryRecord's Python-level __new__
        for k in range(lo, hi):
            ts = k * step
            f = (ts - t0) * speed / dist
            yield record(TelemetryRecord, (ts, x0 + dx * f, y0 + dy * f, z0 + dz * f, mass,
                                           battery0 - drain * (ts - t0), ""))

    def rows(self, lo: int, hi: int) -> list[str]:
        """The CSV rows of the samples at grid points ``lo``..``hi - 1``.

        Each value is the one ``records`` gives. A column whose change over
        the move is zero holds one value on every row, so it is formatted
        once into the row template: the payload always, x and y on a
        vertical move or a hold, z on a cruise, the battery on a hold.
        """
        t0, x0, y0, z0, dx, dy, dz, speed, dist, drain, battery0, mass, step, *_ = self
        ts = lo * step
        f = (ts - t0) * speed / dist
        x, y, z, payload, battery = ("%.6f" % value for value in (
            x0 + dx * f, y0 + dy * f, z0 + dz * f, mass, battery0 - drain * (ts - t0)))
        grid = map(step.__rmul__, range(lo, hi))
        if dx == dy == dz == drain == 0.0:
            return list(map(f"%.6f,{x},{y},{z},{payload},{battery},\n".__mod__, grid))
        if dx == dy == 0.0:
            row = f"%.6f,{x},{y},%.6f,{payload},%.6f,\n"
            return [row % (ts, z0 + dz * ((ts - t0) * speed / dist),
                           battery0 - drain * (ts - t0))
                    for ts in grid]
        if dz == 0.0:
            row = f"%.6f,%.6f,%.6f,{z},{payload},%.6f,\n"
            return [row % (ts, x0 + dx * (f := (ts - t0) * speed / dist), y0 + dy * f,
                           battery0 - drain * (ts - t0))
                    for ts in grid]
        return list(map(_CSV_ROW.__mod__, self.records(lo, hi)))


class TelemetryLog(abc.Sequence):
    """A flight's telemetry: a read-only sequence of ``TelemetryRecord``s,
    one per CSV row, made on demand.

    The log holds one run per event (the record itself) and per move (its
    samples as a ``_Move``), so its memory grows with the number of moves,
    not of rows. ``list(log)`` gives the records as a list; a slice is a
    list too. An index that is neither an int nor a slice of ints raises
    ValidationError.
    """

    __slots__ = ("_runs", "_ends")

    def __init__(self, runs: Sequence[TelemetryRecord]):
        """A log of ``runs``, TelemetryRecords, each a row of its own.
        Anything else, the simulator's moves included, or a record with a
        value that is not a number or an event that is not a str, raises
        ValidationError."""
        _require("log", runs, abc.Sequence)
        runs = tuple(runs)
        found = [fault for i, run in enumerate(runs) for fault in _record_faults(f"log[{i}]", run)]
        if found:
            raise ValidationError(found)
        self._keep(runs)

    @classmethod
    def _of(cls, runs: tuple[TelemetryRecord | _Move, ...]) -> TelemetryLog:
        """The log of a flight's own runs, which it does not judge again."""
        log = cls.__new__(cls)
        log._keep(runs)
        return log

    def _keep(self, runs: tuple[TelemetryRecord | _Move, ...]) -> None:
        self._runs = runs
        # _ends[r] is the number of rows up to and including run r.
        self._ends = list(accumulate(max(0, run.last - run.first + 1) if type(run) is _Move
                                     else 1 for run in runs))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[TelemetryRecord]:
        for run in self._runs:
            if type(run) is _Move:
                yield from run.records(run.first, run.last + 1)
            else:
                yield run

    def __getitem__(self, index):
        try:
            if isinstance(index, slice):
                return [self[i] for i in range(*index.indices(len(self)))]
            i = operator.index(index)
        except TypeError:
            raise ValidationError([f"index: expected an int or a slice of ints, "
                                   f"got {type(index).__name__}"]) from None
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("telemetry log index out of range")
        r = bisect_right(self._ends, i)
        run = self._runs[r]
        if type(run) is not _Move:
            return run
        k = run.last + 1 - self._ends[r] + i
        return next(run.records(k, k + 1))


# The telemetry CSV. A log longer than _ROW_BUDGET rows, about 650 MB of
# text and 375 times the longest benchmark mission, is refused before the
# first byte: a slow enough drone gives a log of billions of rows at once.
_CSV_HEADER = "t,x,y,z,payload_mass,battery_remaining,event\n"
_CSV_ROW = "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%s\n"
_CHUNK_ROWS = 4096  # _csv_chunks yields a piece of text once it holds this many rows
_ROW_BUDGET = 10**7


def _csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted, with each ``"`` doubled, only when it
    holds a comma, a quote or a newline. Every other character, ``\\r`` and
    NUL included, is written as it is, whatever the Python version."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_chunks(log: TelemetryLog) -> Iterator[str]:
    """The telemetry CSV of ``log``, header first, in pieces of text of
    fewer than ``2 * _CHUNK_ROWS`` rows each.

    A log of more than ``_ROW_BUDGET`` rows raises ValidationError at this
    call, before the first piece is asked for.
    """
    if len(log) > _ROW_BUDGET:
        raise ValidationError([f"log: {len(log)} telemetry rows exceed the budget of "
                               f"{_ROW_BUDGET} rows"])
    return _csv_pieces(log._runs)


def _csv_pieces(runs: tuple[TelemetryRecord | _Move, ...]) -> Iterator[str]:
    yield _CSV_HEADER
    rows: list[str] = []
    for run in runs:
        if type(run) is _Move:
            for lo in range(run.first, run.last + 1, _CHUNK_ROWS):
                rows += run.rows(lo, min(lo + _CHUNK_ROWS, run.last + 1))
                if len(rows) >= _CHUNK_ROWS:
                    yield "".join(rows)
                    rows = []
            continue
        rows.append(_CSV_ROW % run if not run.event
                    else _CSV_ROW % (*run[:6], _csv_field(run.event)))
        if len(rows) >= _CHUNK_ROWS:
            yield "".join(rows)
            rows = []
    yield "".join(rows)


def export_telemetry(log: TelemetryLog | Sequence[TelemetryRecord]) -> str:
    """Render telemetry as CSV; floats carry six decimals, samples a blank event.

    ``log`` is what ``simulate_mission`` returns, or any sequence of
    TelemetryRecords, which is read as a TelemetryLog of them; anything else
    raises ValidationError, as does a log of more than ``_ROW_BUDGET`` rows.
    """
    return "".join(_csv_chunks(log if isinstance(log, TelemetryLog) else TelemetryLog(log)))


def consumption_rate(drone: DroneConfig, payload_mass: float) -> float:
    """Joules per metre while carrying ``payload_mass`` kg of packages.

    The airframe's own mass is a constant load and is already folded into
    the drone's base rate. Two finite rates can add up to an infinite one;
    such a drone cannot fly, so it raises ValidationError, as does a
    ``drone`` that is not a DroneConfig. A payload that is not a number
    raises ValueError.
    """
    _require("drone", drone, DroneConfig)
    mass = as_number(payload_mass)
    if mass is None:
        raise ValueError(f"payload mass must be a number, got {type(payload_mass).__name__}")
    if mass < 0:
        raise NegativePayload(f"payload mass must be >= 0, got {payload_mass}")
    rate = drone.base_rate + drone.payload_rate * mass
    if not math.isfinite(rate):
        raise ValidationError([
            f"drone: the consumption rate base_rate + payload_rate * {payload_mass} kg "
            f"must be finite (got {rate})"])
    return rate


class LegEnergy(NamedTuple):
    """Energy spent on one plan leg flown at a constant payload."""

    distance_3d: float
    payload_mass: float
    rate: float
    energy: float


class EnergyBreakdown(NamedTuple):
    legs: tuple[LegEnergy, ...]
    total: float


class MissionReport(NamedTuple):
    completed: bool
    releases: tuple[tuple[str, str, float], ...]
    total_distance_3d: float
    energy: EnergyBreakdown
    end_position: tuple[float, float, float]
    abort_reason: str | None = None


def _grid_count(t: float, step: float, before) -> int:
    """How many grid points ``k * step`` (k = 1, 2, ...) lie ``before`` t,
    where ``before`` is ``operator.lt`` or ``operator.le``.

    ``k * step`` never falls as k grows, so these are k = 1..n. The estimate
    ``t / step`` is corrected with the comparisons the sampling loop makes.
    From 2**53 on, consecutive k share one float, so such a count raises
    NonFiniteLength.
    """
    estimate = t / step
    if not estimate < 2**53:
        raise NonFiniteLength(f"{t} s hold 2**53 or more telemetry steps of {step} s")
    k = int(max(0.0, estimate))  # a time before 0 over a subnormal step is -inf steps
    while k > 0 and not before(k * step, t):
        k -= 1
    while before((k + 1) * step, t):
        k += 1
    return k


class _Flight:
    """The one mutable flight state: position, clock, battery charge in
    joules, payload, the current leg's joules per metre, telemetry runs."""

    def __init__(self, x: float, y: float, z: float, battery: float,
                 payload_mass: float, telemetry_step: float):
        self.x, self.y, self.z = x, y, z
        self.clock = 0.0
        self.battery = battery
        self.rate = 0.0
        self.payload_mass = payload_mass
        self.step = telemetry_step
        self.records: list[TelemetryRecord | _Move] = []

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
            # rate * dist overflows for a finite move longer than about 1e307 m.
            fraction = (self.battery / energy if energy < math.inf
                        else self.battery / self.rate / dist)
            flown = dist * fraction
            if min(fraction, flown) < sys.float_info.min:
                # A subnormal float has too few bits to price the part flown
                # (rate * flown could pass the charge): the drone stays put.
                fraction = flown = 0.0
            self._advance(x, y, z, dist, speed, self.rate, fraction, flown)
            self.x += (x - self.x) * fraction
            self.y += (y - self.y) * fraction
            self.z += (z - self.z) * fraction
            shortfall = f"need {energy} J but only {self.battery} J remaining"
            self.battery = 0.0
            self.emit("ABORT")
            raise BatteryDepleted(shortfall)
        self._advance(x, y, z, dist, speed, self.rate, 1.0, dist)
        self.x, self.y, self.z = x, y, z  # land exactly on the target point
        self.battery -= energy

    def hold(self, duration: float) -> None:
        """Hover in place, spending nothing: a move to the current point at
        rate 0 whose length, flown at unit speed, is the duration."""
        self._advance(self.x, self.y, self.z, duration, 1.0, 0.0, 1.0, 0.0)

    def _advance(self, x: float, y: float, z: float, dist: float, speed: float,
                 rate: float, fraction: float, flown: float) -> None:
        """Record ``fraction`` of a move toward (x, y, z), ``flown`` metres
        of it, as one ``_Move`` with its samples and move the clock to its
        end; the caller places the drone.

        The samples are the ones a loop over the step grid takes: grid
        point k (counted on from the last one taken) while k * step is below
        the move's end less _BOUNDARY_EPS, kept when above its start plus
        _BOUNDARY_EPS. No move ends before it starts, so ``first`` and
        ``last`` follow from its start and end alone.
        """
        x0, y0, z0, t0 = self.x, self.y, self.z, self.clock
        t1 = t0 + dist * fraction / speed
        if not math.isfinite(t1):
            raise NonFiniteLength(f"move to ({x}, {y}, {z}) takes no finite time")
        step = self.step
        last = _grid_count(t1 - _BOUNDARY_EPS, step, operator.lt)
        first = _grid_count(t0 + _BOUNDARY_EPS, step, operator.le) + 1
        # rate * speed is evaluated first, as in battery0 - rate * speed * (ts - t0).
        self.records.append(_Move(t0, x0, y0, z0, x - x0, y - y0, z - z0, speed, dist,
                                  rate * speed, self.battery, self.payload_mass, step,
                                  first, last, flown))
        self.clock = t1


def _flown(runs: Sequence[TelemetryRecord | _Move]) -> float:
    """The metres flown over the moves among ``runs``, added in flying order."""
    return left_to_right_sum(run.flown for run in runs if type(run) is _Move)


def _check_consistency(network: SkywayNetwork, plan: MissionPlan,
                       assignment: HangingAssignment, packages: Sequence[Package]) -> None:
    """Raise unless ``plan`` walks the network releasing each package once at
    its destination, and ``assignment`` hangs them in release order."""
    if not plan.legs or plan.legs[-1].release is not None:
        raise ValidationError(["plan.legs: expected a last leg that releases nothing"])
    unreleased = {p.id: p.destination for p in packages}
    at = network.node(plan.source).id
    for i, (path, release) in enumerate(plan.legs):
        if release is None and i < len(plan.legs) - 1:
            raise ValidationError([f"plan.legs[{i}]: only the last leg releases nothing"])
        if release is not None and release not in unreleased:
            raise InconsistentAssignment(f"package {release!r} is released twice"
                                         if any(p.id == release for p in packages) else
                                         f"released package {release!r} has no mass entry")
        if not _is_walk(network, path, at):
            raise ValidationError([f"plan.legs[{i}].path: expected a walk of the network's "
                                   f"segments from {at!r} whose total_length is their sum"])
        at, goal = path.nodes[-1], unreleased.pop(release, plan.source)
        if at != goal:
            raise ValidationError([f"plan.legs[{i}].path: expected to end at {goal!r}"])
    if unreleased:
        raise InconsistentAssignment(f"package {min(unreleased)!r} is never released")
    if assignment != assign_levels(plan):
        raise InconsistentAssignment("assignment must hang the i-th released package at level i")


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
    The packages raise what the planners raise, payload and rig levels
    included; the plan must release each once, and ``assignment`` must equal
    ``assign_levels(plan)``, else InconsistentAssignment. An argument of the
    wrong type raises ValidationError, as does a plan whose legs do not walk
    the network (see ``graph._is_walk``) each to the destination of the
    package it releases, and the last, which releases nothing, to the source.
    All of this is judged once, before the flight, which judges nothing."""
    _judge(None, packages, None, [  # a plan may leave out the drone, a mission may not
        _type_violation("network", network, SkywayNetwork),
        _type_violation("plan", plan, MissionPlan),
        _type_violation("assignment", assignment, HangingAssignment),
        _type_violation("rig", rig, StringRig), _type_violation("drone", drone, DroneConfig)])
    _require_plan(plan)
    step, dwell = as_number(telemetry_step), as_number(release_dwell)
    if step is None or not step > 0:
        raise ValueError(f"telemetry_step must be a number > 0 (got {telemetry_step!r})")
    if dwell is None or not 0 <= dwell < math.inf:
        raise ValueError(f"release_dwell must be a finite number >= 0 (got {release_dwell!r})")
    _checked(network, plan.source, packages, drone, rig.level_count)
    _check_consistency(network, plan, assignment, packages)
    runs, report = _fly(network, plan, drone, rig, packages, dwell, step)
    return TelemetryLog._of(runs), report


def _fly(network: SkywayNetwork, plan: MissionPlan, drone: DroneConfig, rig: StringRig,
         packages: Sequence[Package], dwell: float, step: float):
    """``simulate_mission``'s telemetry runs and report, of arguments it has
    judged."""
    mass_of = {p.id: p.mass for p in packages}
    order = plan.release_order

    # Payload after k releases, built as suffix sums so the sequence is
    # non-negative throughout and ends at exactly 0.0.
    payload_after = [0.0] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        payload_after[k] = mass_of[order[k]] + payload_after[k + 1]
    source = network.node(plan.source)
    flight = _Flight(source.x, source.y, source.rooftop_height, drone.battery_capacity,
                     payload_after[0], step)
    flight.emit("TAKEOFF")

    releases: list[tuple[str, str, float]] = []
    leg_energies: list[LegEnergy] = []
    abort_reason: str | None = None

    for leg_number, leg in enumerate(plan.legs, start=1):
        leg_payload = flight.payload_mass
        flight.rate = leg_rate = consumption_rate(drone, leg_payload)
        start = len(flight.records)
        try:
            if leg.release is None and leg.path.total_length == 0.0:
                # Package-free mission: the drone never leaves the rooftop.
                flight.emit("LAND")
                break
            if leg.release is None and order:
                flight.emit("RETURN_LEG")
            stops = [network.node(node_id) for node_id in leg.path.nodes]
            # The cruise keeps the lowest loaded package clear of every rooftop
            # under the leg. The i-th release hangs at level i, so the lowest
            # loaded level is the one after the releases made so far.
            hang = rig.levels[len(releases)] if len(releases) < len(order) else 0.0
            altitude = max(stop.rooftop_height for stop in stops) + hang + rig.clearance
            dz = altitude - flight.z
            if dz != 0.0:
                flight.emit("ASCEND" if dz > 0 else "DESCEND")
                flight.travel(flight.x, flight.y, altitude, drone.vertical_speed)
            for target in stops[1:]:
                flight.emit("CRUISE")
                flight.travel(target.x, target.y, altitude, drone.cruise_speed)
            end_node = stops[-1]
            flight.emit("ARRIVE")
            flight.emit("DESCEND")
            # Down until the lowest loaded package touches the rooftop; with
            # none left, hang is 0.0 and the drone lands.
            flight.travel(flight.x, flight.y, end_node.rooftop_height + hang,
                          drone.vertical_speed)
            if leg.release is None:
                flight.emit("LAND")
            else:
                flight.hold(dwell)
                flight.payload_mass = payload_after[len(releases) + 1]
                flight.emit(f"RELEASE({leg.release})")
                releases.append((leg.release, end_node.id, flight.clock))
        except BatteryDepleted:
            abort_reason = f"battery depleted on leg {leg_number}"
            break
        finally:
            distance = _flown(flight.records[start:])
            leg_energies.append(LegEnergy(distance, leg_payload, leg_rate, leg_rate * distance))

    breakdown = EnergyBreakdown(tuple(leg_energies),
                                left_to_right_sum(rec.energy for rec in leg_energies))
    report = MissionReport(
        completed=abort_reason is None,
        releases=tuple(releases),
        total_distance_3d=_flown(flight.records),
        energy=breakdown,
        end_position=(flight.x, flight.y, flight.z),
        abort_reason=abort_reason,
    )
    return tuple(flight.records), report


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

    The plans are ``plan_ndf``'s and ``plan_optimal``'s, both read off one
    stop matrix, and the errors are theirs: TooManyPackagesForExhaustive
    comes before any search. The flights are ``simulate_mission``'s with no
    telemetry samples. It judges only that ``scenario`` is a Scenario (else
    ValidationError), which judged its fields when it was built.
    """
    _require("scenario", scenario, Scenario)
    outcomes = []
    for plan in _compared_plans(scenario.network, scenario.source, scenario.packages,
                                scenario.drone, scenario.rig.level_count):
        _, report = _fly(scenario.network, plan, scenario.drone, scenario.rig,
                         scenario.packages, DEFAULT_RELEASE_DWELL, math.inf)
        outcomes.append(StrategyOutcome(
            label=plan.strategy_label,
            release_order=plan.release_order,
            total_distance=left_to_right_sum(leg.path.total_length for leg in plan.legs),
            total_energy=report.energy.total,
            completed=report.completed,
        ))
    ndf, optimal = outcomes
    gap = (100.0 * (ndf.total_distance - optimal.total_distance) / optimal.total_distance
           if optimal.total_distance > 0 else 0.0)
    return CompareResult(ndf=ndf, optimal=optimal, distance_gap_percent=gap)
