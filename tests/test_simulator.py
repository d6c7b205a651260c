from __future__ import annotations

import dataclasses
import math
import operator
import os
import pathlib
import resource
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import skyway_delivery
from skyway_delivery import (
    DEFAULT_RELEASE_DWELL,
    DroneConfig,
    HangingAssignment,
    Leg,
    Package,
    Path,
    StringRig,
    TelemetryLog,
    assign_levels,
    build_network,
    export_telemetry,
    generate_scenario,
    plan_ndf,
    simulate_mission,
)
from skyway_delivery.errors import (BatteryDepleted, InconsistentAssignment,
                                    InfeasiblePayload, InvalidLevel, InvalidPackage,
                                    NonFiniteLength, SkywayError, UnknownDestination,
                                    ValidationError)
from skyway_delivery import simulator
from skyway_delivery.planner import left_to_right_sum
from skyway_delivery.simulator import _BOUNDARY_EPS, _Flight, _grid_count


def events_of(log):
    return [record.event for record in log if record.event]


def fly_n1(battery_capacity=None, **kwargs):
    network = helpers.build_n1()
    packages = list(helpers.N1_PACKAGES)
    drone = DroneConfig()
    if battery_capacity is not None:
        drone = dataclasses.replace(drone, battery_capacity=battery_capacity)
    plan = plan_ndf(network, "S", packages)
    assignment = assign_levels(plan)
    return simulate_mission(
        network, plan, assignment, drone, StringRig(), packages, **kwargs)


def test_string_rig_validation():
    with pytest.raises(ValueError):
        StringRig(levels=(3.0, 3.0, 1.0))
    with pytest.raises(ValueError):
        StringRig(levels=(2.0, 3.0))
    with pytest.raises(ValueError):
        StringRig(levels=(3.0, 2.0, 0.0))
    with pytest.raises(ValueError):
        StringRig(clearance=0.0)


def test_string_rig_hang():
    rig = StringRig(levels=[3.0, 2.0, 1.0])
    assert rig.levels == (3.0, 2.0, 1.0)
    assert rig.level_count == 3
    assert rig.hang(1) == 3.0
    assert rig.hang(3) == 1.0
    with pytest.raises(InvalidLevel):
        rig.hang(0)
    with pytest.raises(InvalidLevel):
        rig.hang(4)


def rows_of_each_leg(log):
    """The rows after TAKEOFF, split into legs: each ends at its release or landing."""
    legs: list[list] = [[]]
    for record in log[1:]:
        legs[-1].append(record)
        if record.event.startswith("RELEASE(") or record.event == "LAND":
            legs.append([])
    assert legs.pop() == []
    return legs


def cruise_heights(rows):
    """The heights of a leg's rows from its first CRUISE through its ARRIVE."""
    events = [record.event for record in rows]
    return {record.z for record in rows[events.index("CRUISE"):events.index("ARRIVE") + 1]}


def test_cruise_altitude_clears_lowest_package():
    """Loaded legs cruise at the tallest rooftop under them plus the hang of the
    lowest loaded level plus the clearance: level 1 (3 m) on S->A, level 2 (2 m)
    on A->B once p1 is released."""
    log, report = fly_n1()
    assert report.completed
    first, second = rows_of_each_leg(log)[:2]
    assert cruise_heights(first) == {14.0}
    assert cruise_heights(second) == {13.0}


def test_cruise_altitude_unloaded_uses_clearance_only():
    """The empty return leg C->B->S cruises at C's 20 m rooftop plus the 1 m
    clearance, with no hang."""
    log, report = fly_n1()
    assert report.completed
    home = rows_of_each_leg(log)[-1]
    assert home[-1].event == "LAND"
    assert cruise_heights(home) == {21.0}


def test_release_altitude():
    """Each package is released at its rooftop plus the hang of its level, and a
    rig with fewer levels than packages raises InfeasiblePayload."""
    log, report = fly_n1()
    assert report.completed
    released = {record.event: record.z for record in log if record.event.startswith("RELEASE(")}
    assert released["RELEASE(p1)"] == pytest.approx(13.0)  # A at 10 m, level 1 hangs 3 m
    assert released["RELEASE(p3)"] == pytest.approx(21.0)  # C at 20 m, level 3 hangs 1 m
    network = helpers.build_n1()
    packages = list(helpers.N1_PACKAGES)
    plan = plan_ndf(network, "S", packages)
    with pytest.raises(InfeasiblePayload) as excinfo:
        simulate_mission(network, plan, assign_levels(plan), DroneConfig(),
                         StringRig(levels=(3.0, 2.0)), packages)
    assert str(excinfo.value) == "3 packages exceed the rig's 2 hanging levels"


@pytest.mark.parametrize("packages, rig, cruise, release", [
    (helpers.N1_PACKAGES, StringRig(), [14.0, 13.0, 22.0, 21.0], [13.0, 7.0, 21.0]),
    # p4 also goes to A, so the second leg's path is A alone: no cruise, an
    # arrival at the leg's altitude.
    (helpers.N1_PACKAGES + (Package("p4", 1.0, "A"),),
     StringRig((3.5, 2.5, 1.5, 0.5), 1.5), [15.0, 14.0, 13.0, 22.0, 21.5],
     [13.5, 12.5, 6.5, 20.5]),
], ids=["n1", "two-drops-on-A"])
def test_cruise_and_release_altitudes_along_the_n1_flight(packages, rig, cruise, release):
    """Each leg cruises at its tallest rooftop plus the hang of the lowest
    loaded level plus the clearance, and each package is released at its
    rooftop plus the hang of its level."""
    network = helpers.build_n1()
    plan = plan_ndf(network, "S", packages)
    log, report = simulate_mission(network, plan, assign_levels(plan), DroneConfig(), rig,
                                   packages)
    assert report.completed
    legs = rows_of_each_leg(log)
    assert len(legs) == len(plan.legs)
    order = plan.release_order
    cruised, released = [], []
    for i, (leg, rows) in enumerate(zip(plan.legs, legs)):
        rooftops = [network.node(node_id).rooftop_height for node_id in leg.path.nodes]
        hang = rig.hang(i + 1) if i < len(order) else 0.0
        altitude = max(rooftops) + hang + rig.clearance
        events = [record.event for record in rows]
        arrive = events.index("ARRIVE")
        start = events.index("CRUISE") if "CRUISE" in events else arrive
        assert start < arrive or len(leg.path.nodes) == 1
        # Every row from the first CRUISE through ARRIVE, samples included.
        assert {record.z for record in rows[start:arrive + 1]} == {altitude}
        cruised.append(altitude)
        if leg.release is not None:
            assert rows[-1].event == f"RELEASE({leg.release})"
            assert rows[-1].z == rooftops[-1] + rig.hang(i + 1)
            released.append(rows[-1].z)
    assert (cruised, released) == (cruise, release)


def test_n1_mission_event_sequence():
    log, report = fly_n1()
    assert report.completed
    assert events_of(log) == [
        "TAKEOFF",
        "ASCEND", "CRUISE", "ARRIVE", "DESCEND", "RELEASE(p1)",
        "CRUISE", "ARRIVE", "DESCEND", "RELEASE(p2)",
        "ASCEND", "CRUISE", "ARRIVE", "DESCEND", "RELEASE(p3)",
        "RETURN_LEG", "CRUISE", "CRUISE", "ARRIVE", "DESCEND", "LAND",
    ]


def test_n1_mission_frozen_totals():
    log, report = fly_n1()
    assert report.completed
    assert report.abort_reason is None
    assert report.total_distance_3d == pytest.approx(388.6225774829855, abs=1e-9)
    assert report.energy.total == pytest.approx(1645.735464897913, abs=1e-9)
    assert [leg.energy for leg in report.energy.legs] == pytest.approx(
        [520.0, 519.7354648979129, 264.0, 342.0], abs=1e-9)
    assert [leg.payload_mass for leg in report.energy.legs] == pytest.approx(
        [6.0, 4.0, 2.0, 0.0])
    assert [leg.rate for leg in report.energy.legs] == pytest.approx(
        [8.0, 6.0, 4.0, 2.0])
    assert report.end_position == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)
    assert log[-1].t == pytest.approx(68.06225774829855, abs=1e-9)
    assert log[-1].battery_remaining == pytest.approx(48354.264535102087, abs=1e-6)


def test_n1_mission_release_times():
    _, report = fly_n1()
    assert [(pid, node) for pid, node, _ in report.releases] == [
        ("p1", "A"), ("p2", "B"), ("p3", "C")]
    times = [t for _, _, t in report.releases]
    assert times == pytest.approx(
        [14.5, 27.56225774829855, 42.56225774829855], abs=1e-9)


def test_n1_mission_altitude_profile():
    log, _ = fly_n1()
    by_event = {record.event: record for record in log if record.event}
    assert by_event["RELEASE(p1)"].z == pytest.approx(13.0)
    assert by_event["RELEASE(p2)"].z == pytest.approx(7.0)
    assert by_event["RELEASE(p3)"].z == pytest.approx(21.0)
    assert max(record.z for record in log) == pytest.approx(22.0)


def test_n1_release_records_show_post_release_payload():
    log, _ = fly_n1()
    by_event = {record.event: record for record in log if record.event}
    assert by_event["RELEASE(p1)"].payload_mass == pytest.approx(4.0)
    assert by_event["RELEASE(p2)"].payload_mass == pytest.approx(2.0)
    assert by_event["RELEASE(p3)"].payload_mass == 0.0


def test_telemetry_monotonic_and_steps_only_at_release():
    log, _ = fly_n1()
    assert len(log) == 697
    for earlier, later in zip(log, log[1:]):
        assert later.t >= earlier.t
        assert later.battery_remaining <= earlier.battery_remaining + 1e-12
        if later.payload_mass != earlier.payload_mass:
            assert later.event.startswith("RELEASE(")
            assert later.payload_mass < earlier.payload_mass


def test_interval_samples_land_on_the_step_grid():
    log, _ = fly_n1(telemetry_step=0.5)
    samples = [record for record in log if not record.event]
    assert samples
    for record in samples:
        assert record.t == pytest.approx(round(record.t * 2) / 2, abs=1e-9)


def test_empty_mission_never_leaves_the_roof(n1_network):
    plan = plan_ndf(n1_network, "S", [])
    log, report = simulate_mission(
        n1_network, plan, assign_levels(plan), DroneConfig(), StringRig(), [])
    assert events_of(log) == ["TAKEOFF", "LAND"]
    assert [record.t for record in log] == [0.0, 0.0]
    assert report.completed
    assert report.total_distance_3d == 0.0
    assert report.energy.total == 0.0
    assert report.end_position == pytest.approx((0.0, 0.0, 0.0))


def test_abort_mid_ascent():
    log, report = fly_n1(battery_capacity=1.0)
    assert not report.completed
    assert report.abort_reason == "battery depleted on leg 1"
    assert report.releases == ()
    assert log[-1].event == "ABORT"
    assert log[-1].battery_remaining == 0.0
    assert report.total_distance_3d == pytest.approx(0.125, abs=1e-12)
    assert report.energy.total == pytest.approx(1.0, abs=1e-12)
    assert report.end_position == pytest.approx((0.0, 0.0, 0.125), abs=1e-12)


def test_abort_mid_cruise():
    log, report = fly_n1(battery_capacity=200.0)
    assert not report.completed
    assert report.abort_reason == "battery depleted on leg 1"
    assert log[-1].event == "ABORT"
    assert log[-1].t == pytest.approx(8.1, abs=1e-9)
    assert report.end_position == pytest.approx((6.6, 8.8, 14.0), abs=1e-9)
    assert report.total_distance_3d == pytest.approx(25.0, abs=1e-9)
    assert report.energy.total == pytest.approx(200.0, abs=1e-9)


def test_assignment_must_match_release_order(n1_network, n1_packages):
    plan = plan_ndf(n1_network, "S", n1_packages)
    swapped = HangingAssignment({"p1": 2, "p2": 1, "p3": 3}, 3)
    with pytest.raises(InconsistentAssignment):
        simulate_mission(n1_network, plan, swapped, DroneConfig(), StringRig(),
                         n1_packages)


def test_assignment_must_cover_every_release(n1_network, n1_packages):
    plan = plan_ndf(n1_network, "S", n1_packages)
    partial = HangingAssignment({"p1": 1, "p2": 2}, 2)
    with pytest.raises(InconsistentAssignment):
        simulate_mission(n1_network, plan, partial, DroneConfig(), StringRig(),
                         n1_packages)


def test_every_release_needs_a_mass(n1_network, n1_packages):
    plan = plan_ndf(n1_network, "S", n1_packages)
    with pytest.raises(InconsistentAssignment):
        simulate_mission(n1_network, plan, assign_levels(plan), DroneConfig(),
                         StringRig(), n1_packages[:2])


def test_every_package_must_be_released(n1_network, n1_packages):
    """A flight that carries a package its plan never releases is refused,
    not flown with the package left out of its payload."""
    plan = plan_ndf(n1_network, "S", n1_packages[:2])
    with pytest.raises(InconsistentAssignment) as excinfo:
        simulate_mission(n1_network, plan, assign_levels(plan), DroneConfig(),
                         StringRig(), n1_packages)
    assert str(excinfo.value) == "package 'p3' is never released"


def test_an_overweight_flight_is_refused(n1_network, n1_packages):
    """The flight judges the payload as the planners do: three 10 kg
    packages on a 15.9 kg drone."""
    plan = plan_ndf(n1_network, "S", n1_packages)
    heavy = [dataclasses.replace(package, mass=10.0) for package in n1_packages]
    with pytest.raises(InfeasiblePayload) as excinfo:
        simulate_mission(n1_network, plan, assign_levels(plan), DroneConfig(), StringRig(), heavy)
    assert str(excinfo.value) == "payload 30.0 kg exceeds capacity 15.9 kg"


def test_more_packages_than_rig_levels():
    specs = [("S", 0.0, 0.0, 0.0)] + [
        (nid, float(10 * i), 0.0, 0.0) for i, nid in enumerate("ABCD", start=1)]
    network = build_network(specs, [("S", nid) for nid in "ABCD"])
    packages = [Package(f"p{i}", 0.5, nid) for i, nid in enumerate("ABCD", start=1)]
    plan = plan_ndf(network, "S", packages)
    with pytest.raises(InfeasiblePayload) as excinfo:
        simulate_mission(network, plan, assign_levels(plan), DroneConfig(),
                         StringRig(), packages)
    assert str(excinfo.value) == "4 packages exceed the rig's 3 hanging levels"


def test_two_drops_on_one_rooftop_descend_between_levels():
    network = build_network(
        [("S", 0.0, 0.0, 0.0), ("A", 10.0, 0.0, 0.0)], [("S", "A")])
    packages = [Package("q1", 1.0, "A"), Package("q2", 1.0, "A")]
    plan = plan_ndf(network, "S", packages)
    assert plan.release_order == ("q1", "q2")
    assert plan.legs[1].path.nodes == ("A",)
    rig = StringRig(levels=(3.0, 2.0), clearance=0.5)
    log, report = simulate_mission(
        network, plan, assign_levels(plan), DroneConfig(), rig, packages)
    assert report.completed
    # after dropping q1 at 3.0 the cruise ceiling falls to 2.5, so the
    # zero-length second leg opens with a descent rather than a cruise
    assert events_of(log) == [
        "TAKEOFF",
        "ASCEND", "CRUISE", "ARRIVE", "DESCEND", "RELEASE(q1)",
        "DESCEND", "ARRIVE", "DESCEND", "RELEASE(q2)",
        "RETURN_LEG", "DESCEND", "CRUISE", "ARRIVE", "DESCEND", "LAND",
    ]
    assert report.end_position == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_zero_release_dwell(n1_network, n1_packages):
    plan = plan_ndf(n1_network, "S", n1_packages)
    _, report = simulate_mission(
        n1_network, plan, assign_levels(plan), DroneConfig(), StringRig(),
        n1_packages, release_dwell=0.0)
    assert report.completed
    assert report.releases[0][2] == pytest.approx(12.5, abs=1e-9)


def test_simulation_parameter_validation(n1_network, n1_packages):
    plan = plan_ndf(n1_network, "S", n1_packages)
    assignment = assign_levels(plan)
    with pytest.raises(ValueError):
        simulate_mission(n1_network, plan, assignment, DroneConfig(), StringRig(),
                         n1_packages, telemetry_step=0.0)
    with pytest.raises(ValueError):
        simulate_mission(n1_network, plan, assignment, DroneConfig(), StringRig(),
                         n1_packages, release_dwell=-1.0)


@pytest.mark.parametrize("option", [
    {"telemetry_step": "x"}, {"telemetry_step": None}, {"telemetry_step": True},
    {"telemetry_step": -math.inf}, {"release_dwell": "x"}, {"release_dwell": [1.0]},
    {"release_dwell": 10**400},
])
def test_simulation_options_of_the_wrong_type_raise_value_error(n1_network, n1_packages,
                                                                option):
    plan = plan_ndf(n1_network, "S", n1_packages)
    with pytest.raises(ValueError, match=next(iter(option))):
        simulate_mission(n1_network, plan, assign_levels(plan), DroneConfig(), StringRig(),
                         n1_packages, **option)


def test_generated_missions_complete_and_return_home():
    for offset in range(12):
        node_count = 2 + offset % 5
        package_count = min(1 + offset % 4, node_count - 1)
        scenario = generate_scenario(node_count, package_count, seed=900 + offset)
        drone = dataclasses.replace(scenario.drone, battery_capacity=1e7)
        plan = plan_ndf(scenario.network, scenario.source, scenario.packages,
                        drone=drone, level_count=scenario.rig.level_count)
        log, report = simulate_mission(
            scenario.network, plan, assign_levels(plan), drone, scenario.rig,
            scenario.packages)
        assert report.completed
        source = scenario.network.node(scenario.source)
        assert report.end_position == pytest.approx(
            (source.x, source.y, source.rooftop_height), abs=1e-9)
        assert len(report.releases) == len(scenario.packages)
        for earlier, later in zip(log, log[1:]):
            assert later.t >= earlier.t
            assert later.payload_mass <= earlier.payload_mass + 1e-12
            assert later.battery_remaining <= earlier.battery_remaining + 1e-9


@pytest.mark.parametrize("fields", [
    {"clearance": math.inf},
    {"clearance": math.nan},
    {"levels": (math.inf, 1.0)},
    {"levels": (3.0, math.nan)},
])
def test_string_rig_rejects_non_finite_values(fields):
    with pytest.raises(ValueError):
        StringRig(**fields)


@pytest.mark.parametrize("dwell", [math.inf, math.nan])
def test_release_dwell_must_be_finite(n1_network, dwell):
    plan = plan_ndf(n1_network, "S", [])
    with pytest.raises(ValueError):
        simulate_mission(n1_network, plan, assign_levels(plan), DroneConfig(),
                         StringRig(), [], release_dwell=dwell)


def raises_non_finite_in_a_capped_child(rooftop, drone, levels):
    """Fly S -> A in a child capped in time and memory, so a simulator that
    loops on the mission fails the caller rather than hanging the suite."""
    script = textwrap.dedent(f"""
        from skyway_delivery import (
            DroneConfig, Package, StringRig, assign_levels, build_network,
            plan_ndf, simulate_mission)
        from skyway_delivery.errors import NonFiniteLength
        network = build_network(
            [("S", 0.0, 0.0, 0.0), ("A", 10.0, 0.0, {rooftop!r})], [("S", "A")])
        packages = [Package("p", 1.0, "A")]
        plan = plan_ndf(network, "S", packages)
        try:
            simulate_mission(network, plan, assign_levels(plan), DroneConfig(**{drone!r}),
                             StringRig(levels={levels!r}), packages)
        except NonFiniteLength:
            print("raised")
    """)

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(pathlib.Path(skyway_delivery.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_memory,
                         timeout=30)
    assert out.stdout.strip() == "raised", out.stderr


def test_overflowing_altitude_raises_instead_of_hanging():
    # A finite rooftop plus a finite hang overflows to an infinite altitude.
    raises_non_finite_in_a_capped_child(1e308, {}, (1e308,))


def test_overflowing_move_duration_raises_instead_of_hanging():
    # A finite cruise at a subnormal speed takes longer than a float holds.
    raises_non_finite_in_a_capped_child(0.0, {"cruise_speed": 1e-320}, (3.0, 2.0, 1.0))


def test_a_move_of_2_53_telemetry_steps_raises_instead_of_hanging():
    # From 2**53 on, consecutive grid indices share one float.
    raises_non_finite_in_a_capped_child(0.0, {"cruise_speed": 1e-300}, (3.0, 2.0, 1.0))


def test_a_long_dwell_keeps_the_flight_small():
    tracemalloc.start()
    try:
        log, _ = fly_n1(release_dwell=2000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == 60_637
    assert peak < 1 << 20
    # The export runs over many pieces of text; csv.writer agrees with it.
    assert export_telemetry(log) == helpers.csv_writer_export(log)


def test_the_export_refuses_a_log_over_the_row_budget(monkeypatch):
    network = helpers.build_n1()
    plan = plan_ndf(network, "S", helpers.N1_PACKAGES)
    log, report = simulate_mission(network, plan, assign_levels(plan),
                                   DroneConfig(cruise_speed=1e-6), StringRig(),
                                   helpers.N1_PACKAGES)
    assert report.completed and len(log) == 3_306_226_141
    with pytest.raises(ValidationError) as excinfo:
        export_telemetry(log)
    assert excinfo.value.violations == (
        "log: 3306226141 telemetry rows exceed the budget of 10000000 rows",)
    # A log of exactly the budget is written.
    log, _ = fly_n1()
    monkeypatch.setattr(simulator, "_ROW_BUDGET", len(log))
    assert export_telemetry(log) == helpers.csv_writer_export(log)
    monkeypatch.setattr(simulator, "_ROW_BUDGET", len(log) - 1)
    with pytest.raises(ValidationError, match=f"log: {len(log)} telemetry rows exceed"):
        export_telemetry(log)


def test_release_dwell_samples_hold_position_payload_and_battery():
    log, report = fly_n1()
    release_t = report.releases[0][2]
    release = next(record for record in log if record.event == "RELEASE(p1)")
    dwell = [record for record in log
             if not record.event and release_t - DEFAULT_RELEASE_DWELL < record.t < release_t]
    assert len(dwell) == 19
    for record in dwell:
        assert (record.x, record.y, record.z) == (release.x, release.y, release.z)
        assert record.payload_mass == 6.0
        assert record.battery_remaining == release.battery_remaining


def assert_telemetry_integrates_to_report(log, report):
    integrated = sum(math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))
                     for a, b in zip(log, log[1:]))
    assert integrated == pytest.approx(report.total_distance_3d, rel=1e-6, abs=1e-9)
    drained = log[0].battery_remaining - log[-1].battery_remaining
    assert drained == pytest.approx(report.energy.total, rel=1e-6, abs=1e-9)


def test_abort_during_release_descent():
    # Leg 1 spends 512 J reaching A's cruise point and 8 J per metre of descent.
    log, report = fly_n1(battery_capacity=516.0)
    assert events_of(log)[-3:] == ["ARRIVE", "DESCEND", "ABORT"]
    assert log[-1].battery_remaining == 0.0
    assert report.abort_reason == "battery depleted on leg 1"
    assert report.releases == ()
    assert len(report.energy.legs) == 1
    assert report.energy.legs[0].distance_3d == pytest.approx(64.5, abs=1e-9)
    assert report.energy.legs[0].energy == pytest.approx(516.0, abs=1e-9)
    assert report.end_position == pytest.approx((30.0, 40.0, 13.5), abs=1e-9)
    assert_telemetry_integrates_to_report(log, report)


def test_abort_during_final_landing():
    # The landing descent from 21 m is the last 42 J of the 1645.7 J mission.
    log, report = fly_n1(battery_capacity=1620.0)
    events = events_of(log)
    assert events[-3:] == ["ARRIVE", "DESCEND", "ABORT"]
    assert "LAND" not in events
    assert report.abort_reason == "battery depleted on leg 4"
    assert [pid for pid, _, _ in report.releases] == ["p1", "p2", "p3"]
    legs = report.energy.legs
    assert len(legs) == 4
    assert legs[3].energy == pytest.approx(1620.0 - sum(leg.energy for leg in legs[:3]),
                                           abs=1e-9)
    x, y, z = report.end_position
    assert (x, y) == pytest.approx((0.0, 0.0), abs=1e-9)
    assert 0.0 < z < 21.0
    assert_telemetry_integrates_to_report(log, report)


def test_a_package_released_twice_is_inconsistent(n1_network, n1_packages):
    plan = plan_ndf(n1_network, "S", n1_packages[:1])
    twice = plan._replace(legs=(plan.legs[0], Leg(Path(("A",), 0.0), "p1"), plan.legs[-1]))
    with pytest.raises(InconsistentAssignment, match="twice"):
        simulate_mission(n1_network, twice, assign_levels(twice), DroneConfig(),
                         StringRig(), n1_packages)


_OFF_THE_NETWORK = "expected a walk of the network's segments from {!r} whose total_length is their sum"


def _flying(leg, path):
    """A change to a plan's legs: leg ``leg`` flies ``path``."""
    return lambda legs: (*legs[:leg], legs[leg]._replace(path=path), *legs[leg + 1:])


@pytest.mark.parametrize("change, text", [
    # Leg 2 starts where leg 1 did not end: the drone would fly from A to B.
    (_flying(1, Path(("C", "B"), 80.623)), "plan.legs[1].path: " + _OFF_THE_NETWORK.format("A")),
    # S-C is not a segment.
    (_flying(0, Path(("S", "C"), 1.0)), "plan.legs[0].path: " + _OFF_THE_NETWORK.format("S")),
    # S-A is a segment of 50 m, and the length must be its bits.
    (_flying(0, Path(("S", "A"), math.nextafter(50.0, 0.0))),
     "plan.legs[0].path: " + _OFF_THE_NETWORK.format("S")),
    # The flight would end at C, not at the source.
    (_flying(3, Path(("C",), 0.0)), "plan.legs[3].path: expected to end at 'S'"),
    # The releases of legs 0 and 1 swapped: p2 would drop at A, not at its B.
    (lambda legs: (legs[0]._replace(release="p2"), legs[1]._replace(release="p1"), *legs[2:]),
     "plan.legs[0].path: expected to end at 'B'"),
    # A leading leg that releases nothing would land at once with every package.
    (lambda legs: (Leg(Path(("S",), 0.0)), *legs),
     "plan.legs[0]: only the last leg releases nothing"),
    # Without its return leg the flight would end over C.
    (lambda legs: legs[:-1], "plan.legs: expected a last leg that releases nothing"),
    (lambda legs: (), "plan.legs: expected a last leg that releases nothing"),
])
def test_a_plan_must_walk_the_network_from_the_source_back(n1_network, n1_packages,
                                                          change, text):
    plan = plan_ndf(n1_network, "S", n1_packages)
    plan = plan._replace(legs=change(plan.legs))
    with pytest.raises(ValidationError) as excinfo:
        simulate_mission(n1_network, plan, assign_levels(plan), DroneConfig(), StringRig(),
                         n1_packages)
    assert str(excinfo.value) == text


def test_a_plan_over_parallel_segments_flies_the_shorter(n1_packages):
    """A network built by hand may join a pair twice; its plans fly the shorter segment."""
    two = build_network([("S", 0.0, 0.0, 0.0), ("A", 10.0, 0.0, 0.0)], [("S", "A")])
    network = dataclasses.replace(two, segments=(("A", "S", 12.0), *two.segments))
    plan = plan_ndf(network, "S", n1_packages[:1])
    assert [leg.path.total_length for leg in plan.legs] == [10.0, 10.0]
    _, report = simulate_mission(network, plan, assign_levels(plan), DroneConfig(), StringRig(),
                                 n1_packages[:1])
    assert report.completed


def test_a_repeated_package_id_is_rejected(n1_network, n1_packages):
    plan = plan_ndf(n1_network, "S", n1_packages)
    packages = [*n1_packages, Package("p1", 100.0, "A")]
    with pytest.raises(InvalidPackage) as excinfo:
        simulate_mission(n1_network, plan, assign_levels(plan), DroneConfig(),
                         StringRig(), packages)
    assert str(excinfo.value) == "package 'p1': packages[3].id: duplicate package id 'p1'"


@pytest.mark.parametrize("package, text", [
    (Package("h", 1.0, "S"), "package 'h': packages[3].destination: must differ from the source"),
    (Package("h", 1.0, "ghost"), "package 'h': packages[3].destination: unknown node 'ghost'"),
])
def test_a_package_is_judged_as_the_planners_judge_it(n1_network, n1_packages, package, text):
    """A package for the source is refused, so only the last leg, which
    releases nothing, ends at the source."""
    plan = plan_ndf(n1_network, "S", n1_packages)
    with pytest.raises((InvalidPackage, UnknownDestination)) as excinfo:
        simulate_mission(n1_network, plan, assign_levels(plan), DroneConfig(),
                         StringRig(), [*n1_packages, package])
    assert str(excinfo.value) == text


@pytest.mark.parametrize("argument, value, violation", [
    ("packages", [1], "packages[0]: expected a Package, got int"),
    ("packages", None, "packages: expected a sequence of packages, got NoneType"),
    ("drone", "x", "drone: expected a DroneConfig, got str"),
    ("drone", None, "drone: expected a DroneConfig, got NoneType"),
    ("rig", "x", "rig: expected a StringRig, got str"),
    ("plan", "x", "plan: expected a MissionPlan, got str"),
    ("network", "x", "network: expected a SkywayNetwork, got str"),
])
def test_simulation_judges_the_types_of_its_arguments(n1_network, n1_packages, argument,
                                                       value, violation):
    plan = plan_ndf(n1_network, "S", n1_packages)
    arguments = {"network": n1_network, "plan": plan, "assignment": assign_levels(plan),
                 "drone": DroneConfig(), "rig": StringRig(), "packages": n1_packages,
                 argument: value}
    with pytest.raises(ValidationError) as excinfo:
        simulate_mission(**arguments)
    assert list(excinfo.value.violations) == [violation]


def test_simulation_names_every_argument_of_the_wrong_type(n1_network):
    plan = plan_ndf(n1_network, "S", [])
    with pytest.raises(ValidationError) as excinfo:
        simulate_mission("x", "x", assign_levels(plan), 1, [], 2)
    assert list(excinfo.value.violations) == [
        "network: expected a SkywayNetwork, got str",
        "plan: expected a MissionPlan, got str",
        "rig: expected a StringRig, got list",
        "drone: expected a DroneConfig, got int",
        "packages: expected a sequence of packages, got int",
    ]


# -- the sampling loop against its reference ----------------------------------

# Bounds that keep a move to a few hundred samples, so that shrinking a
# failure stays quick.
coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.5]), st.floats(-20.0, 20.0))
# Dyadic steps and whole-second holds put clocks exactly on grid points.
steps = st.one_of(st.sampled_from([0.1, 0.125, 0.5, 1.0, math.inf]), st.floats(0.25, 3.0))
# How far past a grid point a hold ends: exactly on it, or within (or just
# beyond) the boundary tolerance on either side.
grid_offsets = st.one_of(
    st.sampled_from([0.0, _BOUNDARY_EPS, -_BOUNDARY_EPS, _BOUNDARY_EPS / 2, -_BOUNDARY_EPS / 2]),
    st.floats(-3 * _BOUNDARY_EPS, 3 * _BOUNDARY_EPS))
moves = st.one_of(
    st.tuples(st.just("travel"), coordinates, coordinates, coordinates,
              st.floats(1.0, 20.0), st.floats(0.0, 10.0)),
    st.tuples(st.just("hold"), st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 5.0))),
    st.tuples(st.just("hold to grid"), st.integers(0, 3), grid_offsets),
)


def fly_moves(flight, moves):
    """Apply each move to ``flight`` until one runs the battery dry."""
    for kind, *args in moves:
        if kind == "travel":
            x, y, z, speed, flight.rate = args
            try:
                flight.travel(x, y, z, speed)
            except BatteryDepleted:
                return
        elif kind == "hold":
            flight.hold(args[0])
        elif math.isfinite(flight.step):
            # End within the offset of the k-th grid point past the clock.
            k, offset = args
            end = (math.floor(flight.clock / flight.step) + k) * flight.step + offset
            flight.hold(max(0.0, end - flight.clock))


# The charge pays for a subnormal part of the travel, so the drone stays put.
@example((0.0, 0.0, 0.0), 1e-310, 0.0, 0.1, [("travel", 10.0, 0.0, 0.0, 1.0, 1.0)])
@given(st.tuples(coordinates, coordinates, coordinates), st.floats(0.0, 2000.0),
       st.floats(0.0, 5.0), steps, st.lists(moves, max_size=8))
def test_sampling_loop_matches_its_reference(start, battery, payload, step, moves):
    flights = [flight_class(*start, battery, payload, step)
               for flight_class in (_Flight, helpers.ReferenceFlight)]
    for flight in flights:
        fly_moves(flight, moves)
    fast, reference = flights
    fast_log, reference_log = TelemetryLog(fast.records), TelemetryLog(reference.records)
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(list(fast_log)) == repr(list(reference_log))
    assert export_telemetry(fast_log) == export_telemetry(reference_log)
    assert fast._samples == reference._samples
    assert repr((fast.clock, fast.x, fast.y, fast.z, fast.battery)) == repr(
        (reference.clock, reference.x, reference.y, reference.z, reference.battery))
    # The moves' metres, folded in flying order, are the running total,
    # aborted travels included.
    assert repr(simulator._flown(fast.records)) == repr(reference.total_distance)


def test_a_hold_that_straddles_a_grid_point_is_a_move_without_rows():
    # The second hold starts and ends within _BOUNDARY_EPS of the grid point 0.1.
    flight = _Flight(0.0, 0.0, 0.0, 100.0, 0.0, 0.1)
    flight.hold(0.1 - 5e-10)
    flight.hold(6e-10)
    assert [(move.first, move.last, move.flown) for move in flight.records] == [
        (1, 0, 0.0), (2, 0, 0.0)]
    log = TelemetryLog(flight.records)
    assert len(log) == len(list(log)) == 0
    assert log[:] == []
    assert export_telemetry(log) == "t,x,y,z,payload_mass,battery_remaining,event\n"


@example(118, 0.01, 0, operator.le)  # 118 * 0.01 == 1.18 but 1.18 / 0.01 < 118
@given(st.integers(0, 3000), steps, st.integers(-2, 2),
       st.sampled_from([operator.lt, operator.le]))
def test_grid_count_matches_the_loop(k, step, ulps, before):
    t = k * step if math.isfinite(step) else float(k)
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    count = 0
    while before((count + 1) * step, t):
        count += 1
    assert _grid_count(t, step, before) == count


# -- the telemetry log as a sequence ------------------------------------------

@given(st.integers(2, 10), st.integers(0, 3), st.integers(0, 10**6),
       st.one_of(st.none(), st.floats(1.0, 1500.0)), st.floats(0.0, 5.0),
       st.one_of(st.sampled_from([0.1, 0.125, 0.5, 1.0, math.inf]), st.floats(0.05, 3.0)),
       st.data())
def test_the_log_reads_as_the_list_of_its_records(node_count, package_count, seed, battery,
                                                  dwell, step, data):
    """A battery of at most 1500 J runs out partway through many of these 60 m
    missions."""
    scenario = generate_scenario(node_count, min(package_count, node_count - 1), seed,
                                 area=(60.0, 60.0))
    drone = scenario.drone
    if battery is not None:
        drone = dataclasses.replace(drone, battery_capacity=battery)
    plan = plan_ndf(scenario.network, scenario.source, scenario.packages)
    log, _ = simulate_mission(scenario.network, plan, assign_levels(plan), drone,
                              scenario.rig, scenario.packages, release_dwell=dwell,
                              telemetry_step=step)
    records = list(log)
    n = len(records)
    assert len(log) == n
    # repr tells -0.0 from 0.0, which == does not.
    assert repr([log[i] for i in range(-n, n)]) == repr(records + records)
    assert repr(log[-1]) == repr(records[-1])
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            log[index]
    bounds = st.one_of(st.none(), st.integers(-n - 2, n + 2))
    window = slice(data.draw(bounds), data.draw(bounds),
                   data.draw(st.sampled_from([None, 1, 2, 7, -1, -3])))
    assert repr(log[window]) == repr(records[window])
    # The export formats the moves' rows from their constants, and each
    # record of the list on its own.
    assert export_telemetry(log) == export_telemetry(records)


# -- any flight raises or reports what it flew --------------------------------

# Non-finite, huge, tiny and degenerate values for any number of a drone or a
# rig, a dwell or a step, beside ordinary ones.
edge_numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e-300, 1e-14, 2e-14,
                     1e-6, 1e300, 1.7e308]),
    st.floats(1e-3, 1e4))
drone_fields = st.fixed_dictionaries(
    {}, optional={field.name: edge_numbers for field in dataclasses.fields(DroneConfig)})


def fly_generated(node_count, package_count, seed, area, fields, hangs, clearance, dwell,
                  step):
    """Fly the NDF plan of a generated scenario with a drone of ``fields``,
    a rig of ``hangs`` (put in decreasing order) and ``clearance``, and the
    given dwell and step: (scenario, drone, log, report)."""
    scenario = generate_scenario(node_count, min(package_count, node_count - 1), seed,
                                 area=area)
    drone = DroneConfig(**fields)
    rig = StringRig(tuple(sorted(hangs, reverse=True)), clearance)
    plan = plan_ndf(scenario.network, scenario.source, scenario.packages)
    log, report = simulate_mission(scenario.network, plan, assign_levels(plan), drone, rig,
                                   scenario.packages, release_dwell=dwell,
                                   telemetry_step=step)
    return scenario, drone, log, report


# At a step of 2**-40 s, the 2**53rd grid point is at 8192 s: a dwell of
# 8000 s keeps this mission under it, one of 8192 s goes past it.
UNDER_2_53_STEPS = (2, 1, 0, (60.0, 60.0), {}, [3.0, 2.0, 1.0], 1.0, 8000.0, 2**-40)
PAST_2_53_STEPS = (*UNDER_2_53_STEPS[:-2], 8192.0, 2**-40)


# The charge pays for a subnormal part of the ascent.
SUBNORMAL_ABORT = (2, 1, 0, (0.05, 0.05), {"frame_mass": 0.0, "payload_rate": 5e-324,
                                           "base_rate": 1.7e308, "vertical_speed": 5e-324,
                                           "battery_capacity": 1e-14}, [5e-324], 1.0, 0.0,
                   math.inf)


@settings(max_examples=300)
@example(*UNDER_2_53_STEPS)
@example(*SUBNORMAL_ABORT)
# A move that ends at 0 s: (0 - _BOUNDARY_EPS) / 5e-324 is -inf steps.
@example(2, 1, 0, (0.05, 0.05), {"battery_capacity": 5e-324}, [5e-324], 5e-324, 0.0, 5e-324)
@given(st.integers(2, 6), st.integers(0, 3), st.integers(0, 10**6),
       st.sampled_from([(0.05, 0.05), (60.0, 60.0), (1e12, 1e12), (1e300, 1e300)]),
       drone_fields, st.lists(edge_numbers, min_size=1, max_size=4), edge_numbers,
       edge_numbers, edge_numbers)
def test_a_flight_raises_or_reports_what_it_flew(node_count, package_count, seed, area,
                                                 fields, hangs, clearance, dwell, step):
    try:
        scenario, drone, log, report = fly_generated(
            node_count, package_count, seed, area, fields, hangs, clearance, dwell, step)
    except (SkywayError, ValueError):
        return
    legs = report.energy.legs
    assert math.isclose(report.total_distance_3d,
                        left_to_right_sum(leg.distance_3d for leg in legs), rel_tol=1e-9)
    if report.completed:
        # An aborted flight can report more: see the test below.
        assert report.energy.total <= drone.battery_capacity
        source = scenario.network.node(scenario.source)
        home = (source.x, source.y, source.rooftop_height)
        assert math.dist(report.end_position, home) <= 1e-9
    if len(log) > simulator._ROW_BUDGET:
        with pytest.raises(ValidationError, match="exceed the budget"):
            export_telemetry(log)


def test_an_abort_too_small_to_price_stays_put():
    _, _, _, report = fly_generated(*SUBNORMAL_ABORT)
    assert not report.completed
    assert report.total_distance_3d == report.energy.total == 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a leg's energy is its rate times the metres it flew, which "
                          "rounding can push past the charge an abort spends")
@pytest.mark.parametrize("flight", [
    # The aborted ascent reports 50000.00000000001 J from a 50000 J battery.
    (2, 1, 1, (0.05, 0.05), {}, [1e300], 5e-324, 0.0, math.inf),
    # test_golden's abort at 4000 J reports 4000.000000000001 J.
    (12, 3, 2, (500.0, 500.0), {"battery_capacity": 4000.0}, [2.0, 1.5, 1.0], 1.0, 2.0, 0.07),
])
def test_an_aborted_flight_reports_at_most_its_battery(flight):
    _, drone, _, report = fly_generated(*flight)
    if report.completed:
        pytest.fail("the flight was meant to abort")
    assert report.energy.total <= drone.battery_capacity


def test_a_flight_of_2_53_telemetry_steps_raises():
    log = fly_generated(*UNDER_2_53_STEPS)[2]
    assert 2**52 < len(log) < 2**53
    with pytest.raises(NonFiniteLength, match=r"2\*\*53 or more telemetry steps"):
        fly_generated(*PAST_2_53_STEPS)
