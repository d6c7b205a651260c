from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import resource
import subprocess
import sys
import textwrap

import pytest

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
    assign_levels,
    build_network,
    cruise_altitude,
    generate_scenario,
    plan_ndf,
    shortest_path,
    simulate_mission,
)
from skyway_delivery.errors import InconsistentAssignment, InvalidLevel
from skyway_delivery.simulator import release_altitude


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


def test_cruise_altitude_clears_lowest_package(n1_network):
    rig = StringRig()
    path = shortest_path(n1_network, "S", "A")
    assert cruise_altitude(n1_network, path, rig, {1, 2, 3}) == pytest.approx(14.0)
    assert cruise_altitude(n1_network, path, rig, {2, 3}) == pytest.approx(13.0)


def test_cruise_altitude_unloaded_uses_clearance_only(n1_network):
    rig = StringRig()
    path = shortest_path(n1_network, "C", "S")
    assert cruise_altitude(n1_network, path, rig, set()) == pytest.approx(21.0)


def test_cruise_altitude_identity_path():
    network = build_network([("top", 0.0, 0.0, 13.5)], [])
    path = shortest_path(network, "top", "top")
    altitude = cruise_altitude(network, path, StringRig(), {1})
    assert altitude == pytest.approx(17.5)


def test_release_altitude(n1_network):
    rig = StringRig()
    assert release_altitude(n1_network.node("A"), rig, 1) == pytest.approx(13.0)
    assert release_altitude(n1_network.node("C"), rig, 3) == pytest.approx(21.0)
    with pytest.raises(InvalidLevel):
        release_altitude(n1_network.node("A"), rig, 4)


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


def test_more_packages_than_rig_levels():
    specs = [("S", 0.0, 0.0, 0.0)] + [
        (nid, float(10 * i), 0.0, 0.0) for i, nid in enumerate("ABCD", start=1)]
    network = build_network(specs, [("S", nid) for nid in "ABCD"])
    packages = [Package(f"p{i}", 0.5, nid) for i, nid in enumerate("ABCD", start=1)]
    plan = plan_ndf(network, "S", packages)
    with pytest.raises(InvalidLevel):
        simulate_mission(network, plan, assign_levels(plan), DroneConfig(),
                         StringRig(), packages)


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
    twice = dataclasses.replace(
        plan, legs=(plan.legs[0], Leg(Path(("A",), 0.0), "p1"), plan.legs[-1]))
    with pytest.raises(InconsistentAssignment, match="twice"):
        simulate_mission(n1_network, twice, assign_levels(twice), DroneConfig(),
                         StringRig(), n1_packages)
