from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

import helpers
from skyway_delivery import (
    Node,
    Path,
    Segment,
    build_network,
    shortest_path,
    shortest_paths_from,
    stop_matrix,
)
from skyway_delivery.errors import (
    DisconnectedNetwork,
    DuplicateNodeId,
    DuplicateSegment,
    NonFiniteLength,
    SelfLoopSegment,
    UnknownEndpoint,
    UnknownNode,
    ValidationError,
    ZeroLengthSegment,
)


def test_segment_lengths_are_horizontal_distances(n1_network):
    lengths = {(seg.a, seg.b): seg.length for seg in n1_network.segments}
    assert lengths[("A", "S")] == pytest.approx(50.0)
    assert lengths[("B", "S")] == pytest.approx(100.0)
    assert lengths[("A", "B")] == pytest.approx(math.sqrt(6500))
    assert lengths[("B", "C")] == pytest.approx(50.0)


def test_rooftop_height_does_not_affect_length():
    flat = build_network([("u", 0.0, 0.0, 0.0), ("v", 3.0, 4.0, 0.0)], [("u", "v")])
    tall = build_network([("u", 0.0, 0.0, 55.0), ("v", 3.0, 4.0, 7.0)], [("u", "v")])
    assert flat.segments[0].length == tall.segments[0].length == pytest.approx(5.0)


def test_duplicate_node_id_rejected():
    with pytest.raises(DuplicateNodeId):
        build_network([("u", 0.0, 0.0, 0.0), ("u", 1.0, 0.0, 0.0)], [])


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownEndpoint):
        build_network([("u", 0.0, 0.0, 0.0)], [("u", "ghost")])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopSegment):
        build_network([("u", 0.0, 0.0, 0.0), ("v", 1.0, 0.0, 0.0)], [("u", "u")])


def test_duplicate_segment_rejected_either_orientation():
    specs = [("u", 0.0, 0.0, 0.0), ("v", 1.0, 0.0, 0.0)]
    with pytest.raises(DuplicateSegment):
        build_network(specs, [("u", "v"), ("v", "u")])


def test_coincident_nodes_make_zero_length_segment():
    with pytest.raises(ZeroLengthSegment):
        build_network([("u", 2.0, 2.0, 0.0), ("v", 2.0, 2.0, 0.0)], [("u", "v")])


def test_disconnected_network_names_unreachable_nodes():
    specs = [
        ("a", 0.0, 0.0, 0.0), ("b", 1.0, 0.0, 0.0),
        ("c", 5.0, 5.0, 0.0), ("d", 6.0, 5.0, 0.0),
    ]
    with pytest.raises(DisconnectedNetwork) as excinfo:
        build_network(specs, [("a", "b"), ("c", "d")])
    assert excinfo.value.unreachable == {"c", "d"}


def test_single_node_network_is_connected():
    network = build_network([("only", 0.0, 0.0, 3.0)], [])
    assert shortest_path(network, "only", "only").total_length == 0.0


def test_unknown_node_on_query(n1_network):
    with pytest.raises(UnknownNode):
        shortest_path(n1_network, "S", "ghost")
    with pytest.raises(UnknownNode):
        shortest_path(n1_network, "ghost", "S")


def test_shortest_path_n1_prefers_southern_route(n1_network):
    path = shortest_path(n1_network, "S", "C")
    assert path.nodes == ("S", "B", "C")
    assert path.total_length == pytest.approx(150.0)
    # the alternative S-A-B-C loses at 50 + sqrt(6500) + 50
    assert 50 + math.sqrt(6500) + 50 > 150.0


def test_shortest_path_to_self_is_identity(n1_network):
    path = shortest_path(n1_network, "B", "B")
    assert path.nodes == ("B",)
    assert path.total_length == 0.0


def test_equal_length_tie_breaks_lexicographically(n2_network):
    # S-A-C also measures exactly 4.0, and ("S","A","C") < ("S","C").
    path = shortest_path(n2_network, "S", "C")
    assert path.total_length == pytest.approx(4.0)
    assert path.nodes == ("S", "A", "C")


def test_rebuild_is_deterministic():
    first = helpers.build_n1()
    second = helpers.build_n1()
    assert first == second
    assert shortest_paths_from(first, "S") == shortest_paths_from(second, "S")


@st.composite
def connected_networks(draw):
    count = draw(st.integers(min_value=2, max_value=6))
    points = draw(st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)),
        min_size=count, max_size=count, unique=True))
    ids = [f"n{i}" for i in range(count)]
    specs = [
        (ids[i], float(x), float(y), float(draw(st.integers(0, 40))))
        for i, (x, y) in enumerate(points)
    ]
    edges = set()
    for i in range(1, count):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add(tuple(sorted((ids[i], ids[j]))))
    for i, j in draw(st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
            max_size=6)):
        if i != j:
            edges.add(tuple(sorted((ids[i], ids[j]))))
    return build_network(specs, sorted(edges))


@given(connected_networks())
def test_dijkstra_agrees_with_exhaustive_enumeration(network):
    for source in network.nodes:
        got = shortest_paths_from(network, source)
        want = helpers.best_simple_paths(network, source)
        assert set(got) == set(want)
        for node_id, path in got.items():
            assert path.total_length == want[node_id][0]
            assert path.nodes == want[node_id][1]


@given(connected_networks())
def test_shortest_path_length_is_symmetric(network):
    ids = sorted(network.nodes)
    for u in ids:
        for v in ids:
            forward = shortest_path(network, u, v).total_length
            backward = shortest_path(network, v, u).total_length
            assert math.isclose(forward, backward, rel_tol=1e-12, abs_tol=1e-12)


@given(connected_networks())
def test_triangle_inequality(network):
    ids = sorted(network.nodes)
    dist = {u: shortest_paths_from(network, u) for u in ids}
    for u in ids:
        for v in ids:
            for w in ids:
                assert dist[u][w].total_length <= (
                    dist[u][v].total_length + dist[v][w].total_length + 1e-9)


def test_overflowing_segment_length_rejected():
    # Both coordinates are finite, but the distance between them is not.
    with pytest.raises(NonFiniteLength):
        build_network([("W", -1e308, 0.0, 0.0), ("E", 1e308, 0.0, 0.0)], [("W", "E")])


def test_topology_errors_carry_item_locators():
    specs = [("u", 0.0, 0.0, 0.0), ("v", 1.0, 0.0, 0.0)]
    with pytest.raises(DuplicateNodeId, match=r"^nodes\[1\]\.id: duplicate node id 'u'$"):
        build_network([specs[0], ("u", 1.0, 0.0, 0.0)], [])
    with pytest.raises(UnknownEndpoint, match=r"^segments\[1\]\.b: unknown node 'ghost'$"):
        build_network(specs, [("u", "v"), ("u", "ghost")])
    with pytest.raises(SelfLoopSegment, match=r"^segments\[0\]: self-loop at 'v'$"):
        build_network(specs, [("v", "v")])
    with pytest.raises(DuplicateSegment, match=r"^segments\[1\]: duplicate segment 'u'-'v'$"):
        build_network(specs, [("u", "v"), ("v", "u")])


def test_build_network_accepts_node_objects():
    nodes = [Node("u", 0.0, 0.0, 2.0), Node("v", 3.0, 4.0)]
    from_nodes = build_network(nodes, [("u", "v")])
    assert from_nodes == build_network([("u", 0.0, 0.0, 2.0), ("v", 3.0, 4.0, 0.0)],
                                       [("u", "v")])
    assert from_nodes.node("u") is nodes[0]


TWO_NODES = [("S", 0.0, 0.0, 0.0), ("A", 1.0, 0.0, 0.0)]
PAIR = "expected an (a, b) pair"
NODE_SPEC = "expected a Node or an (id, x, y[, rooftop_height]) tuple"


@pytest.mark.parametrize("node_specs, segment_specs, violations", [
    (TWO_NODES, [("S", "A", "B")], [f"segments[0]: {PAIR}"]),
    (TWO_NODES, [("S",)], [f"segments[0]: {PAIR}"]),
    (TWO_NODES, [None], [f"segments[0]: {PAIR}"]),
    (TWO_NODES, ["SA"], [f"segments[0]: {PAIR}"]),
    (TWO_NODES, [("S", "A"), ("S", 5)], ["segments[1].b: expected a non-empty string"]),
    (TWO_NODES, [["", None]], ["segments[0].a: expected a non-empty string",
                               "segments[0].b: expected a non-empty string"]),
    ([("S", 0)], [], [f"nodes[0]: {NODE_SPEC}"]),
    ([None], [], [f"nodes[0]: {NODE_SPEC}"]),
    ([TWO_NODES[0], ("A", 1.0, 0.0, 0.0, 0.0)], [], [f"nodes[1]: {NODE_SPEC}"]),
    ([("S", "0", 0.0)], [], ["nodes[0].x: expected a number, got str"]),
    ([TWO_NODES[0], ("A", math.nan, 0.0, -1.0)], [],
     ["nodes[1].x: must be finite", "nodes[1].rooftop_height: must be >= 0 (got -1.0)"]),
])
def test_build_network_judges_the_shape_of_each_spec(node_specs, segment_specs, violations):
    with pytest.raises(ValidationError) as excinfo:
        build_network(node_specs, segment_specs)
    assert list(excinfo.value.violations) == violations


def test_build_network_accepts_lists_and_three_field_node_tuples():
    network = build_network([["S", 0, 0], ("A", 3, 4)], [["A", "S"]])
    assert network.segments == (Segment("A", "S", 5.0),)
    assert network.node("S") == Node("S", 0.0, 0.0, 0.0)


def test_segment_is_a_read_only_tuple():
    segment = Segment("A", "B", 5.0)
    assert (segment.a, segment.b, segment.length) == ("A", "B", 5.0)
    assert segment == ("A", "B", 5.0)
    assert segment[2] == segment.length == 5.0
    with pytest.raises(AttributeError):
        segment.length = 0.0
    with pytest.raises(AttributeError):
        segment.a = "C"


def test_node_is_slotted_and_frozen():
    node = Node("A", 1, 2)
    assert not hasattr(node, "__dict__")
    assert dataclasses.asdict(node) == {"id": "A", "x": 1.0, "y": 2.0, "rooftop_height": 0.0}
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.x = 0.0


@given(st.one_of(helpers.generated_networks(), helpers.lattice_networks()))
def test_shortest_path_stops_at_the_goal_with_the_full_run_path(network):
    for start in network.nodes:
        full = shortest_paths_from(network, start)
        for goal in network.nodes:
            assert shortest_path(network, start, goal) == full[goal]


@given(st.one_of(helpers.generated_networks(), helpers.lattice_networks()), st.data())
def test_targeted_run_settles_its_targets_with_the_full_run_paths(network, data):
    ids = sorted(network.nodes)
    source = data.draw(st.sampled_from(ids))
    targets = data.draw(st.lists(st.sampled_from(ids), max_size=4))
    full = shortest_paths_from(network, source)
    early = shortest_paths_from(network, source, targets)
    assert set(targets) <= set(early) <= set(full)
    assert all(early[node_id] == full[node_id] for node_id in early)


def test_targeted_run_stops_once_its_targets_are_settled(n1_network):
    assert shortest_paths_from(n1_network, "S", ["S"]) == {"S": Path(("S",), 0.0)}
    assert shortest_paths_from(n1_network, "S", []) == {}


def test_unknown_target_raises(n1_network):
    with pytest.raises(UnknownNode):
        shortest_paths_from(n1_network, "S", ["A", "ghost"])
    with pytest.raises(UnknownNode):
        stop_matrix(n1_network, ["S", "ghost"])


@pytest.mark.parametrize("search, unreachable", [
    (lambda net: shortest_path(net, "S", "Q"), {"Q"}),
    (lambda net: shortest_paths_from(net, "S", ["A", "Q", "C"]), {"Q"}),
    (lambda net: shortest_paths_from(net, "S"), {"Q"}),
    (lambda net: shortest_paths_from(net, "Q", ["Q", "B", "A"]), {"A", "B"}),
    (lambda net: stop_matrix(net, ["S", "C", "Q"]), {"Q"}),
])
def test_a_search_raises_for_an_unreachable_target(search, unreachable):
    with pytest.raises(DisconnectedNetwork) as excinfo:
        search(helpers.disconnected_n1())
    assert excinfo.value.unreachable == unreachable


def test_a_search_reaches_every_target_of_its_own_component():
    network = helpers.disconnected_n1()
    assert shortest_path(network, "S", "C") == Path(("S", "B", "C"), 150.0)
    assert shortest_paths_from(network, "Q", ["Q"]) == {"Q": Path(("Q",), 0.0)}


@given(st.one_of(helpers.generated_networks(), helpers.lattice_networks()), st.data())
def test_stop_matrix_paths_equal_full_run_paths(network, data):
    stops = data.draw(st.lists(st.sampled_from(sorted(network.nodes)), min_size=1,
                               max_size=6))
    matrix = stop_matrix(network, stops)
    assert set(matrix) == set(stops)
    for a in stops:
        full = shortest_paths_from(network, a)
        assert matrix[a] == {b: full[b] for b in stops}


@given(st.one_of(helpers.generated_networks(), helpers.lattice_networks(),
                 helpers.half_ulp_networks()), st.data())
def test_shortest_paths_equal_the_walk_tuple_oracle(network, data):
    ids = sorted(network.nodes)
    for source in ids:
        assert shortest_paths_from(network, source) == (
            helpers.walk_tuple_shortest_paths(network, source))
    source = data.draw(st.sampled_from(ids))
    targets = data.draw(st.lists(st.sampled_from(ids), max_size=4))
    oracle = helpers.walk_tuple_shortest_paths(network, source, targets)
    assert shortest_paths_from(network, source, targets) == {
        node_id: oracle[node_id] for node_id in set(targets)}
