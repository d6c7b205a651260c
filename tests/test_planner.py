from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

import helpers
from skyway_delivery import (
    DroneConfig,
    Package,
    assign_levels,
    check_feasibility,
    plan_ndf,
    plan_optimal,
    plan_total_distance,
)
from skyway_delivery.errors import (
    InfeasiblePayload,
    InvalidPackage,
    TooManyPackagesForExhaustive,
    UnknownDestination,
)


def test_feasibility_within_limits(n1_packages):
    report = check_feasibility(DroneConfig(), n1_packages)
    assert report.feasible
    assert report.total_payload == pytest.approx(6.0)
    assert report.capacity == pytest.approx(15.9)
    assert report.violations == ()


def test_feasibility_empty_manifest():
    report = check_feasibility(DroneConfig(), [])
    assert report.feasible
    assert report.total_payload == 0.0


def test_feasibility_overweight():
    heavy = [Package("h1", 10.0, "A"), Package("h2", 10.0, "B")]
    report = check_feasibility(DroneConfig(), heavy)
    assert not report.feasible
    assert report.violations == ("payload 20.0 kg exceeds capacity 15.9 kg",)


def test_feasibility_too_many_for_levels(n1_packages):
    report = check_feasibility(DroneConfig(), n1_packages, level_count=2)
    assert not report.feasible
    assert report.violations == ("3 packages exceed 2 hanging levels",)


def test_package_validation():
    with pytest.raises(ValueError):
        Package("bad", 0.0, "A")
    with pytest.raises(ValueError):
        Package("", 1.0, "A")


def test_drone_config_validation():
    with pytest.raises(ValueError):
        DroneConfig(max_payload=0.0)
    with pytest.raises(ValueError):
        DroneConfig(frame_mass=-0.1)


def test_ndf_plan_n1(n1_network, n1_packages):
    plan = plan_ndf(n1_network, "S", n1_packages)
    assert plan.strategy_label == "ndf"
    assert plan.source == "S"
    assert plan.release_order == ("p1", "p2", "p3")
    assert [leg.path.nodes for leg in plan.legs] == [
        ("S", "A"), ("A", "B"), ("B", "C"), ("C", "B", "S")]
    assert [leg.release for leg in plan.legs] == ["p1", "p2", "p3", None]
    assert plan_total_distance(plan) == pytest.approx(
        50 + math.sqrt(6500) + 50 + 150, abs=1e-9)
    assert plan_total_distance(plan) == pytest.approx(330.6225774829855, abs=1e-9)


def test_ndf_breaks_distance_ties_by_package_id(n2_network, n2_packages):
    # pB sits 2.0 away and pA only 1.0, so pA goes first; afterwards C
    # (via A, 3.0) loses to B (via A, 3.0)... equal, so id order decides.
    plan = plan_ndf(n2_network, "S", n2_packages)
    assert plan.release_order == ("pA", "pB", "pC")
    assert plan_total_distance(plan) == pytest.approx(14.0)


def test_exhaustive_plan_n2(n2_network, n2_packages):
    plan = plan_optimal(n2_network, "S", n2_packages)
    assert plan.strategy_label == "exhaustive"
    assert plan.release_order == ("pA", "pC", "pB")
    assert plan_total_distance(plan) == pytest.approx(12.0)
    assert [leg.path.nodes for leg in plan.legs] == [
        ("S", "A"), ("A", "C"), ("C", "A", "B"), ("B", "S")]


def test_exhaustive_matches_ndf_on_n1(n1_network, n1_packages):
    ndf = plan_ndf(n1_network, "S", n1_packages)
    best = plan_optimal(n1_network, "S", n1_packages)
    assert best.release_order == ndf.release_order
    assert plan_total_distance(best) == plan_total_distance(ndf)


def test_exhaustive_package_cap(n1_network):
    crowd = [Package(f"x{i}", 0.1, "A") for i in range(10)]
    with pytest.raises(TooManyPackagesForExhaustive):
        plan_optimal(n1_network, "S", crowd)


def test_unknown_destination(n1_network):
    with pytest.raises(UnknownDestination):
        plan_ndf(n1_network, "S", [Package("p", 1.0, "nowhere")])


def test_planners_enforce_feasibility_when_given_a_drone(n1_network):
    heavy = [Package("h1", 10.0, "A"), Package("h2", 10.0, "B")]
    with pytest.raises(InfeasiblePayload) as excinfo:
        plan_ndf(n1_network, "S", heavy, drone=DroneConfig())
    assert not excinfo.value.report.feasible
    with pytest.raises(InfeasiblePayload):
        plan_optimal(n1_network, "S", heavy, drone=DroneConfig(), level_count=3)


def test_planners_enforce_level_count(n1_network, n1_packages):
    with pytest.raises(InfeasiblePayload):
        plan_ndf(n1_network, "S", n1_packages, level_count=2)


def test_empty_manifest_plans_no_travel(n1_network):
    for planner in (plan_ndf, plan_optimal):
        plan = planner(n1_network, "S", [])
        assert plan.release_order == ()
        assert len(plan.legs) == 1
        assert plan.legs[0].path.nodes == ("S",)
        assert plan.legs[0].release is None
        assert plan_total_distance(plan) == 0.0


def test_assign_levels_reverse_of_release_order(n1_network, n1_packages):
    plan = plan_ndf(n1_network, "S", n1_packages)
    assignment = assign_levels(plan)
    assert assignment.level_of == {"p1": 1, "p2": 2, "p3": 3}
    assert assignment.level_count == 3


def test_assign_levels_empty(n1_network):
    assignment = assign_levels(plan_ndf(n1_network, "S", []))
    assert assignment.level_of == {}
    assert assignment.level_count == 0


def test_ndf_picks_nearest_at_each_stop(n2_network, n2_packages):
    from skyway_delivery import shortest_paths_from

    plan = plan_ndf(n2_network, "S", n2_packages)
    by_id = {p.id: p for p in n2_packages}
    position = "S"
    remaining = dict(by_id)
    for leg in plan.legs[:-1]:
        paths = shortest_paths_from(n2_network, position)
        chosen = remaining.pop(leg.release)
        chosen_cost = paths[chosen.destination].total_length
        for other in remaining.values():
            other_cost = paths[other.destination].total_length
            assert (chosen_cost, chosen.id) <= (other_cost, other.id)
        position = chosen.destination


@given(st.permutations(["p1", "p2", "p3"]))
def test_planners_ignore_manifest_order(order):
    network = helpers.build_n1()
    by_id = {p.id: p for p in helpers.N1_PACKAGES}
    shuffled = [by_id[pid] for pid in order]
    assert plan_ndf(network, "S", shuffled).release_order == ("p1", "p2", "p3")
    baseline = plan_optimal(network, "S", helpers.N1_PACKAGES)
    assert plan_optimal(network, "S", shuffled).release_order == baseline.release_order


@given(st.integers(min_value=0, max_value=400))
def test_plans_chain_and_return_home(seed):
    from skyway_delivery import generate_scenario

    scenario = generate_scenario(
        node_count=2 + seed % 5, package_count=min(2, 1 + seed % 5), seed=seed)
    for planner in (plan_ndf, plan_optimal):
        plan = planner(scenario.network, scenario.source, scenario.packages)
        assert plan.legs[0].path.nodes[0] == scenario.source
        for prev, cur in zip(plan.legs, plan.legs[1:]):
            assert prev.path.nodes[-1] == cur.path.nodes[0]
        assert plan.legs[-1].path.nodes[-1] == scenario.source
        assert plan.legs[-1].release is None


@pytest.mark.parametrize("planner", [plan_ndf, plan_optimal])
def test_planners_reject_a_package_for_the_source(n1_network, planner):
    packages = [Package("p1", 1.0, "A"), Package("home", 1.0, "S")]
    with pytest.raises(InvalidPackage, match="'home'"):
        planner(n1_network, "S", packages)


@pytest.mark.parametrize("planner", [plan_ndf, plan_optimal])
def test_planners_reject_duplicate_package_ids(n1_network, planner):
    packages = [Package("p", 1.0, "A"), Package("p", 1.0, "B")]
    with pytest.raises(InvalidPackage, match="'p'"):
        planner(n1_network, "S", packages)


@pytest.mark.parametrize("field", ["frame_mass", "max_payload", "battery_capacity",
                                   "cruise_speed", "vertical_speed", "base_rate",
                                   "payload_rate"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_drone_config_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=field):
        DroneConfig(**{field: value})


@pytest.mark.parametrize("mass", [math.inf, math.nan])
def test_package_rejects_non_finite_mass(mass):
    with pytest.raises(ValueError, match="mass"):
        Package("p", mass, "A")
