from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from skyway_delivery import (
    EXHAUSTIVE_PACKAGE_CAP,
    DroneConfig,
    Leg,
    MissionPlan,
    Package,
    Path,
    Scenario,
    StringRig,
    assign_levels,
    build_network,
    check_feasibility,
    compare_strategies,
    generate_scenario,
    optimal_order,
    parse_scenario,
    plan_ndf,
    plan_optimal,
    plan_total_distance,
    shortest_paths_from,
    simulate_mission,
)
from skyway_delivery import graph, planner
from skyway_delivery.errors import (
    InfeasiblePayload,
    InvalidPackage,
    TooManyPackagesForExhaustive,
    UnknownDestination,
    ValidationError,
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
    assert report.violations == ("3 packages exceed the rig's 2 hanging levels",)


def test_level_rule_reads_the_same_in_planner_parser_and_simulator(
        n1_network, n1_packages, scenario_dir):
    text = "3 packages exceed the rig's 2 hanging levels"
    assert check_feasibility(None, n1_packages, level_count=2).violations == (text,)
    doc = json.loads((scenario_dir / "n1.json").read_text())
    doc["rig"] = {"levels": [2.0, 1.0]}
    with pytest.raises(ValidationError) as parsed:
        parse_scenario(json.dumps(doc))
    assert parsed.value.violations == ("packages: " + text,)
    plan = plan_ndf(n1_network, "S", n1_packages)
    with pytest.raises(InfeasiblePayload) as flown:
        simulate_mission(n1_network, plan, assign_levels(plan), DroneConfig(),
                         StringRig(levels=(2.0, 1.0)), n1_packages)
    assert str(flown.value) == text


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
    crowd = [Package(f"x{i}", 0.1, "A") for i in range(EXHAUSTIVE_PACKAGE_CAP + 1)]
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


def test_planner_faults_carry_the_package_and_its_locator(n1_network):
    packages = [Package("p1", 1.0, "A"), Package("q", 1.0, "ghost")]
    with pytest.raises(UnknownDestination,
                       match=r"^package 'q': packages\[1\]\.destination: unknown node 'ghost'$"):
        plan_ndf(n1_network, "S", packages)


# -- the Held–Karp planner against the permutation oracle ---------------------

# Small legs whose sums round (0.1 + 0.2 != 0.3), and long legs that swallow
# part of them: the ulp of 1e16 is 2 and that of 3e16 is 4.
SMALL_LEGS = [0.0, 0.1, 0.2, 0.3, 1.0, 3.0]
LONG_LEGS = [1e16, 3e16]


@st.composite
def distance_matrices(draw, max_stops=9):
    """Arbitrary (not symmetric, not metric) matrices of up to 8 packages.

    A share of the cells holds one long leg and the rest small ones, so that
    a long leg swallows different small prefixes: exact ties between orders
    and near-ties are common.
    """
    size = draw(st.integers(1, max_stops))
    long_leg = draw(st.sampled_from(LONG_LEGS))
    legs = SMALL_LEGS + [long_leg] * draw(st.integers(1, 12))
    cells = draw(st.lists(st.sampled_from(legs), min_size=size * size,
                          max_size=size * size))
    return [cells[i * size:(i + 1) * size] for i in range(size)]


@settings(max_examples=400)
@given(distance_matrices())
def test_optimal_order_matches_the_permutation_oracle(dist):
    order, total = optimal_order(dist)
    want_order, want_total = helpers.permutation_order(dist)
    assert order == want_order
    assert total.hex() == want_total.hex()


def test_optimal_order_ties_through_a_prefix_that_is_not_the_least():
    # [3, 1, 2] reaches {1, 2, 3} at 1e16 and [1, 3, 2] only at
    # 1.0000000000000002e16, yet both totals round to 1.0000000000000004e16;
    # building the order from least prefixes alone would give [3, 1, 2].
    dist = [[0, 1, 3, 1e16], [1, 0, 0.1, 0.2], [3, 0.1, 0, 1e16], [1e16, 0.2, 1e16, 0]]
    assert optimal_order(dist) == ((1, 3, 2), 1.0000000000000004e16)
    assert helpers.permutation_order(dist) == ((1, 3, 2), 1.0000000000000004e16)


def test_optimal_order_without_stops():
    assert optimal_order([[0.0]]) == ((), 0.0)


@pytest.mark.parametrize("dist, message", [
    ([], "dist must be a non-empty square matrix"),
    ([[0, 1, 2], [1, 0]], "dist must be a non-empty square matrix"),
    ([[0, 1], [1]], "dist must be a non-empty square matrix"),
    ([[0, math.nan], [math.nan, 0]], "dist[0][1] must be a number >= 0 (got nan)"),
    ([[0, 1], [-1, 0]], "dist[1][0] must be a number >= 0 (got -1)"),
    ([[0, 1], [-math.inf, 0]], "dist[1][0] must be a number >= 0 (got -inf)"),
    ([[0, "1"], [1, 0]], "dist[0][1] must be a number >= 0 (got '1')"),
    ([[0, True], [1, 0]], "dist[0][1] must be a number >= 0 (got True)"),
])
def test_optimal_order_rejects_a_malformed_matrix(dist, message):
    with pytest.raises(ValueError) as excinfo:
        optimal_order(dist)
    assert str(excinfo.value) == message


class _UnreadRow(list):
    """A matrix row that fails any read by index, which the tables make."""

    def __getitem__(self, index):
        raise AssertionError(f"a table read entry {index}")


def test_optimal_order_refuses_more_stops_than_the_cap_before_any_table():
    size = EXHAUSTIVE_PACKAGE_CAP + 2
    with pytest.raises(TooManyPackagesForExhaustive) as excinfo:
        optimal_order([_UnreadRow([0.0] * size) for _ in range(size)])
    assert str(excinfo.value) == (
        f"{size - 1} stops after stop 0 exceed the exhaustive cap of {EXHAUSTIVE_PACKAGE_CAP}")


def test_optimal_order_takes_an_infinite_distance():
    assert optimal_order([[0, math.inf], [math.inf, 0]]) == ((1,), math.inf)


def _compared_ndf_order(node_specs, segment_specs, packages) -> tuple[str, ...]:
    """The NDF release order that ``compare_strategies`` reads off its stop
    matrix, for packages sent from S."""
    scenario = Scenario(build_network(node_specs, segment_specs), "S", DroneConfig(),
                        StringRig(), tuple(packages))
    return compare_strategies(scenario).ndf.release_order


def test_nearest_first_breaks_a_tie_toward_the_smaller_stop():
    # A and B are both 1.0 from S, and A's walk is the smaller, but p1 goes to B.
    order = _compared_ndf_order([("S", 0.0, 0.0), ("A", 1.0, 0.0), ("B", -1.0, 0.0)],
                                [("S", "A"), ("S", "B")],
                                [Package("p2", 1.0, "A"), Package("p1", 1.0, "B")])
    assert order == ("p1", "p2")


def test_nearest_first_takes_a_repeated_destination_next():
    # From B, p3's 0.0 beats the smaller id p1, 3.0 away at A.
    order = _compared_ndf_order([("S", 0.0, 0.0), ("A", -2.0, 0.0), ("B", 1.0, 0.0)],
                                [("S", "A"), ("S", "B")],
                                [Package("p1", 1.0, "A"), Package("p2", 1.0, "B"),
                                 Package("p3", 1.0, "B")])
    assert order == ("p2", "p3", "p1")


def test_nearest_first_without_stops():
    assert _compared_ndf_order([("S", 0.0, 0.0), ("A", 1.0, 0.0)], [("S", "A")], []) == ()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ndf_searches_once_per_package_and_once_for_the_return_leg(monkeypatch, seed):
    scenario = generate_scenario(500, 9, seed)
    searches = []
    settle = graph._settle

    def counted(network, source, stops, **kwargs):
        searches.append(kwargs)
        return settle(network, source, stops, **kwargs)

    for module in (graph, planner):
        monkeypatch.setattr(module, "_settle", counted)
    plan_ndf(scenario.network, scenario.source, scenario.packages)
    assert searches == [{"nearest": True}] * (len(scenario.packages) + 1)


def _manifests(data, network, max_packages=6):
    """A source and packages to random other nodes; destinations may repeat."""
    ids = sorted(network.nodes)
    source = data.draw(st.sampled_from(ids))
    others = [node_id for node_id in ids if node_id != source]
    destinations = data.draw(st.lists(st.sampled_from(others), max_size=max_packages))
    packages = [Package(f"p{i}", 1.0, d) for i, d in enumerate(destinations)]
    return source, data.draw(st.permutations(packages))


@given(st.one_of(helpers.generated_networks(), helpers.lattice_networks()), st.data())
def test_plan_optimal_matches_the_permutation_oracle(network, data):
    source, packages = _manifests(data, network)
    ordered = sorted(packages, key=lambda p: p.id)
    stops = [source, *(p.destination for p in ordered)]
    full = {stop: shortest_paths_from(network, stop) for stop in stops}
    order, total = helpers.permutation_order(
        [[full[a][b].total_length for b in stops] for a in stops])

    plan = plan_optimal(network, source, packages)
    assert plan.release_order == tuple(ordered[i - 1].id for i in order)
    assert plan_total_distance(plan) == total
    visits = [source, *(stops[i] for i in order), source]
    assert [leg.path for leg in plan.legs] == [
        full[a][b] for a, b in zip(visits, visits[1:])]


@given(st.one_of(helpers.generated_networks(), helpers.lattice_networks()), st.data())
def test_ndf_matches_greedy_over_full_dijkstra_runs(network, data):
    source, packages = _manifests(data, network, max_packages=8)
    legs = []
    remaining = sorted(packages, key=lambda p: p.id)
    at = source
    while remaining:
        paths = shortest_paths_from(network, at)
        chosen = min(remaining, key=lambda p: (paths[p.destination].total_length, p.id))
        legs.append((paths[chosen.destination], chosen.id))
        remaining.remove(chosen)
        at = chosen.destination
    legs.append((shortest_paths_from(network, at)[source], None))

    plan = plan_ndf(network, source, packages)
    assert [(leg.path, leg.release) for leg in plan.legs] == legs


@given(st.one_of(helpers.generated_networks(), helpers.lattice_networks(),
                 helpers.half_ulp_networks()), st.data())
def test_ndf_equals_nearest_first_over_the_stop_matrix(network, data):
    source, packages = _manifests(data, network, max_packages=8)
    if packages:  # send some packages where another one already goes
        repeats = data.draw(st.lists(st.sampled_from(packages), max_size=3))
        packages += [Package(f"r{i}", 1.0, p.destination) for i, p in enumerate(repeats)]
    assert plan_ndf(network, source, packages) == (
        helpers.matrix_ndf_plan(network, source, packages))


def test_ndf_takes_the_smaller_id_of_stops_at_an_equal_distance():
    # A and B are both 1.0 from S. A's walk (S, A) is the smaller, so A
    # settles first, but p1 goes to B: a search that stopped at the first
    # stop it settled would deliver p2 first.
    network = build_network([("S", 0.0, 0.0), ("A", 1.0, 0.0), ("B", -1.0, 0.0)],
                            [("S", "A"), ("S", "B")])
    packages = [Package("p1", 1.0, "B"), Package("p2", 1.0, "A")]
    plan = plan_ndf(network, "S", packages)
    assert plan.release_order == ("p1", "p2")
    assert [leg.path for leg in plan.legs] == [
        Path(("S", "B"), 1.0), Path(("B", "S", "A"), 2.0), Path(("A", "S"), 1.0)]
    assert plan == helpers.matrix_ndf_plan(network, "S", packages)


@pytest.mark.parametrize("call, violations", [
    (lambda net, pk: plan_ndf(net, "S", pk, level_count="3"),
     ["level_count: expected an int, got str"]),
    (lambda net, pk: plan_optimal(net, "S", pk, level_count="3"),
     ["level_count: expected an int, got str"]),
    (lambda net, pk: plan_ndf(net, "S", pk, level_count=2.5),
     ["level_count: expected an int, got float"]),
    (lambda net, pk: plan_optimal(net, "S", pk, level_count=True),
     ["level_count: expected an int, got bool"]),
    (lambda net, pk: plan_ndf(net, "S", [1]), ["packages[0]: expected a Package, got int"]),
    (lambda net, pk: plan_optimal(net, "S", [*pk, "p4"]),
     ["packages[3]: expected a Package, got str"]),
    (lambda net, pk: plan_ndf(net, "S", pk, drone={}),
     ["drone: expected a DroneConfig, got dict"]),
    (lambda net, pk: check_feasibility(DroneConfig(), [1, 2]),
     ["packages[0]: expected a Package, got int", "packages[1]: expected a Package, got int"]),
    (lambda net, pk: check_feasibility(None, pk, level_count=2.5),
     ["level_count: expected an int, got float"]),
    (lambda net, pk: check_feasibility(None, [], level_count=-1),
     ["level_count: must be >= 0 (got -1)"]),
    (lambda net, pk: plan_ndf(net, "S", pk, level_count=-3),
     ["level_count: must be >= 0 (got -3)"]),
    (lambda net, pk: plan_optimal(net, "S", pk, drone=5, level_count=-1),
     ["drone: expected a DroneConfig, got int", "level_count: must be >= 0 (got -1)"]),
    (lambda net, pk: check_feasibility(1, [None], level_count="3"),
     ["drone: expected a DroneConfig, got int", "packages[0]: expected a Package, got NoneType",
      "level_count: expected an int, got str"]),
    (lambda net, pk: plan_ndf(net, "S", None),
     ["packages: expected a sequence of packages, got NoneType"]),
    (lambda net, pk: plan_optimal(net, "S", iter(pk)),
     ["packages: expected a sequence of packages, got list_iterator"]),
    (lambda net, pk: check_feasibility(None, 5),
     ["packages: expected a sequence of packages, got int"]),
    (lambda net, pk: assign_levels("x"), ["plan: expected a MissionPlan, got str"]),
    (lambda net, pk: plan_total_distance("x"), ["plan: expected a MissionPlan, got str"]),
])
def test_planners_judge_the_types_of_their_arguments(n1_network, n1_packages, call, violations):
    with pytest.raises(ValidationError) as excinfo:
        call(n1_network, list(n1_packages))
    assert list(excinfo.value.violations) == violations


def test_plan_optimal_delivers_every_package_when_every_total_overflows():
    # Each segment is finite, but every round trip sums past the largest float.
    network = build_network([("S", 0.0, 0.0, 0.0), ("A", 1.7e308, 0.0, 0.0),
                             ("B", -1.7e308, 0.0, 0.0)], [("S", "A"), ("S", "B")])
    plan = plan_optimal(network, "S", [Package("p2", 1.0, "B"), Package("p1", 1.0, "A")])
    assert plan.release_order == ("p1", "p2")
    assert plan_total_distance(plan) == math.inf


def test_plan_total_distance_adds_legs_in_flying_order():
    # Left to right, 1e16 + 1 rounds back to 1e16 (its ulp is 2) twice over;
    # a compensated sum, such as sum() from Python 3.12 on, gives 1e16 + 2.
    legs = (Leg(Path(("S", "A"), 1e16), "p1"), Leg(Path(("A", "B"), 1.0), "p2"),
            Leg(Path(("B", "S"), 1.0), None))
    plan = MissionPlan(source="S", legs=legs, strategy_label="exhaustive")
    assert plan_total_distance(plan) == 1e16
