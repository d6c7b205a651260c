from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from skyway_delivery import (
    DroneConfig,
    StringRig,
    assign_levels,
    consumption_rate,
    cruise_altitude,
    generate_scenario,
    plan_ndf,
    simulate_mission,
)
from skyway_delivery.errors import NegativePayload, SkywayError, ValidationError

masses = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


def fly_n1(battery_capacity, telemetry_step=0.1):
    network = helpers.build_n1()
    packages = helpers.N1_PACKAGES
    drone = dataclasses.replace(DroneConfig(), battery_capacity=battery_capacity)
    plan = plan_ndf(network, "S", packages)
    return simulate_mission(network, plan, assign_levels(plan), drone, StringRig(),
                            packages, telemetry_step=telemetry_step)


def n1_first_ascent():
    """The n1 mission's first move: (climb in metres, joules it costs)."""
    network = helpers.build_n1()
    plan = plan_ndf(network, "S", helpers.N1_PACKAGES)
    altitude = cruise_altitude(network, plan.legs[0].path, StringRig(), range(1, 4))
    dz = altitude - network.node("S").rooftop_height
    return dz, consumption_rate(DroneConfig(), 6.0) * dz


def test_rate_grows_linearly_with_payload():
    drone = DroneConfig()
    assert consumption_rate(drone, 0.0) == pytest.approx(2.0)
    assert consumption_rate(drone, 1.2) == pytest.approx(3.2)
    assert consumption_rate(drone, 6.0) == pytest.approx(8.0)


def test_rate_rejects_negative_payload():
    with pytest.raises(NegativePayload):
        consumption_rate(DroneConfig(), -0.001)


@pytest.mark.parametrize("payload", ["1", None, True, [1.0]])
def test_rate_rejects_a_payload_that_is_not_a_number(payload):
    with pytest.raises(ValueError, match="payload mass must be a number"):
        consumption_rate(DroneConfig(), payload)


def test_rate_judges_the_type_of_its_drone():
    with pytest.raises(ValidationError) as excinfo:
        consumption_rate("x", 1)
    assert list(excinfo.value.violations) == ["drone: expected a DroneConfig, got str"]


def test_rate_reads_an_int_payload_as_a_float():
    drone = DroneConfig()
    assert consumption_rate(drone, 6) == consumption_rate(drone, 6.0)
    with pytest.raises(ValidationError, match="consumption rate"):
        consumption_rate(drone, 10**400)


def test_overflowing_rate_is_a_validation_error():
    # Each rate passes the DroneConfig rules, but their sum overflows.
    drone = DroneConfig(base_rate=1e308, payload_rate=1e308)
    with pytest.raises(ValidationError, match="consumption rate") as caught:
        consumption_rate(drone, 1.0)
    assert isinstance(caught.value, SkywayError) and isinstance(caught.value, ValueError)
    network = helpers.build_n1()
    plan = plan_ndf(network, "S", helpers.N1_PACKAGES)
    with pytest.raises(ValidationError):
        simulate_mission(network, plan, assign_levels(plan), drone, StringRig(),
                         helpers.N1_PACKAGES)


@given(masses, masses)
def test_rate_is_affine_in_payload(m1, m2):
    drone = DroneConfig()
    combined = consumption_rate(drone, m1) + consumption_rate(drone, m2)
    assert math.isclose(
        combined - consumption_rate(drone, 0.0),
        consumption_rate(drone, m1 + m2),
        rel_tol=1e-9, abs_tol=1e-9)


@given(masses, masses, st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
def test_energy_difference_scales_with_mass_gap(m1, m2, distance):
    drone = DroneConfig()
    gap = consumption_rate(drone, m2) * distance - consumption_rate(drone, m1) * distance
    assert math.isclose(
        gap, drone.payload_rate * distance * (m2 - m1), rel_tol=1e-9, abs_tol=1e-6)


def test_battery_equal_to_the_ascent_ends_it_at_exactly_zero():
    dz, energy = n1_first_ascent()
    log, report = fly_n1(energy)
    # The ascent is paid in full; the cruise that follows aborts at its start.
    assert [record.event for record in log if record.event] == [
        "TAKEOFF", "ASCEND", "CRUISE", "ABORT"]
    cruise, abort = log[-2], log[-1]
    assert cruise.battery_remaining == 0.0
    assert (abort.t, abort.x, abort.y, abort.z) == (cruise.t, 0.0, 0.0, dz)
    assert abort.battery_remaining == 0.0
    assert report.abort_reason == "battery depleted on leg 1"
    assert report.total_distance_3d == dz
    assert report.energy.total == energy


def test_battery_one_ulp_short_aborts_inside_the_ascent():
    dz, energy = n1_first_ascent()
    log, report = fly_n1(math.nextafter(energy, 0.0))
    assert [record.event for record in log if record.event] == [
        "TAKEOFF", "ASCEND", "ABORT"]
    assert log[-1].battery_remaining == 0.0
    assert 0.0 < log[-1].z < dz
    assert report.end_position == (0.0, 0.0, log[-1].z)
    assert report.total_distance_3d < dz
    assert report.abort_reason == "battery depleted on leg 1"


def test_report_leg_energy_is_rate_times_distance_bit_for_bit():
    flights = aborted = 0
    for seed in range(40):
        scenario = generate_scenario(4 + seed % 8, 1 + seed % 3, seed=seed)
        plan = plan_ndf(scenario.network, scenario.source, scenario.packages,
                        drone=scenario.drone, level_count=scenario.rig.level_count)
        for battery in (50_000.0, 300.0 + 97.0 * seed):
            drone = dataclasses.replace(scenario.drone, battery_capacity=battery)
            _, report = simulate_mission(scenario.network, plan, assign_levels(plan),
                                         drone, scenario.rig, scenario.packages,
                                         telemetry_step=math.inf)
            flights += 1
            aborted += not report.completed
            for leg in report.energy.legs:
                assert leg.rate == consumption_rate(drone, leg.payload_mass)
                assert leg.energy == leg.rate * leg.distance_3d
    assert flights == 80 and 0 < aborted < flights


@settings(max_examples=60)
@given(st.floats(min_value=1e-9, max_value=2000.0, allow_nan=False))
def test_battery_never_goes_negative_and_abort_reads_zero(battery):
    log, report = fly_n1(battery, telemetry_step=0.5)
    for record in log:
        assert 0.0 <= record.battery_remaining <= battery
    if report.completed:
        assert log[-1].event == "LAND"
    else:
        assert log[-1].event == "ABORT"
        assert log[-1].battery_remaining == 0.0
