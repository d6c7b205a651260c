from __future__ import annotations

import copy
import dataclasses
import heapq
import math
import pickle
import types

import pytest
from hypothesis import given, strategies as st

import helpers
from skyway_delivery import graph
from skyway_delivery import (
    DroneConfig,
    Node,
    Package,
    Path,
    Scenario,
    Segment,
    SkywayNetwork,
    StringRig,
    build_network,
    parse_scenario,
    serialize_scenario,
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
    with pytest.raises(ValueError, match="a network needs at least one node"):
        build_network([], [])


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
PAIR = "expected an (a, b) pair or an (a, b, length) row"
NODE_SPEC = "expected a Node or an (id, x, y[, rooftop_height]) tuple"


@pytest.mark.parametrize("node_specs, segment_specs, violations", [
    (TWO_NODES, [("S", "A", "B")],
     ["segments[0].length: must be 1.0, the distance between its ends (got 'B')"]),
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


def _without(network, *pairs):
    """``network`` rebuilt with ``replace`` without the segments ``pairs``."""
    return dataclasses.replace(network, segments=tuple(
        row for row in network.segments if row[:2] not in pairs))


@pytest.mark.parametrize("make, unreachable", [
    # n1 plus a node Q that no segment joins.
    (lambda n1: dataclasses.replace(n1, nodes={**n1.nodes, "Q": Node("Q", 500.0, 500.0)}),
     {"Q"}),
    (lambda n1: _without(n1, ("B", "C")), {"C"}),
    (lambda n1: dataclasses.replace(n1, segments=()), {"A", "B", "C"}),
    # The walk starts at the first node, S: A, B and C are joined to one
    # another but not to it.
    (lambda n1: _without(n1, ("A", "S"), ("B", "S")), {"A", "B", "C"}),
    # A network of two components built by hand.
    (lambda n1: SkywayNetwork(
        {node_id: Node(node_id, x, 0.0) for node_id, x in zip("abcd", (0.0, 1.0, 5.0, 6.0))},
        (Segment("a", "b", 1.0), Segment("c", "d", 1.0))), {"c", "d"}),
])
def test_a_network_is_connected_however_it_is_made(n1_network, make, unreachable):
    with pytest.raises(DisconnectedNetwork) as excinfo:
        make(n1_network)
    assert excinfo.value.unreachable == unreachable
    # An empty network has nothing to reach; only build_network refuses it.
    assert SkywayNetwork({}, ()).nodes == {}


# A(0, 0), B(3, 4) and C(6, 8) lie on one line, 5 m apart.
LINE = {node_id: Node(node_id, 3.0 * i, 4.0 * i) for i, node_id in enumerate("ABC")}


def _round_trip(network):
    """A scenario over ``network`` from A, serialized and parsed back."""
    scenario = Scenario(network, "A", DroneConfig(), StringRig(), (Package("p1", 1.0, "C"),))
    assert parse_scenario(serialize_scenario(scenario)) == scenario


@pytest.mark.parametrize("make", [
    lambda segments: SkywayNetwork(LINE, segments),
    lambda segments: dataclasses.replace(build_network(LINE.values(), [("A", "B"), ("B", "C")]),
                                         segments=segments),
], ids=["constructor", "replace"])
@pytest.mark.parametrize("segments, error, text", [
    # Lengths the drone does not fly: the plan would total 4 m, the flight 28 m.
    ((("A", "B", 1.0), ("B", "C", 1.0)), ValidationError,
     "segments[0].length: must be 5.0, the distance between its ends (got 1.0)"),
    ((("A", "B"), ("B", "C", 5.0), ("A", "C", math.nan)), ValidationError,
     "segments[2].length: must be 10.0, the distance between its ends (got nan)"),
    ((("A", "B", True), ("B", "C")), ValidationError,
     "segments[0].length: must be 5.0, the distance between its ends (got True)"),
    ((("A", "B"), ("A", "A"), ("B", "C")), SelfLoopSegment, "segments[1]: self-loop at 'A'"),
    ((("A", "B"), ("B", "A", 5.0), ("B", "C")), DuplicateSegment,
     "segments[1]: duplicate segment 'A'-'B'"),
    ((("A", "B"), ("B", "ghost")), UnknownEndpoint, "segments[1].b: unknown node 'ghost'"),
    ((("A", ""), ("B", "C")), ValidationError, "segments[0].b: expected a non-empty string"),
    ((5,), ValidationError, f"segments[0]: {PAIR}"),
    (("AB",), ValidationError, f"segments[0]: {PAIR}"),
    ((("A", "B", 5.0, 5.0),), ValidationError, f"segments[0]: {PAIR}"),
    (5, ValidationError, "segments: expected an Iterable, got int"),
])
def test_a_network_built_by_hand_refuses_a_bad_row(make, segments, error, text):
    with pytest.raises(error) as excinfo:
        make(segments)
    assert str(excinfo.value) == text


@pytest.mark.parametrize("segments", [
    [("B", "A"), ("C", "B")],
    (("C", "B", 5.0), ("B", "A", 5.0)),
    (["A", "B", 5], ("B", "C", 5.0)),
    iter([("B", "C"), ("A", "B", 5.0)]),
], ids=["reversed-pairs", "reversed-unsorted-rows", "plain-rows", "iterator"])
def test_a_network_built_by_hand_stores_sorted_measured_segments(segments):
    network = SkywayNetwork(LINE, segments)
    assert network.segments == (("A", "B", 5.0), ("B", "C", 5.0))
    assert all(type(row) is Segment for row in network.segments)
    assert network == build_network(LINE.values(), [("B", "A"), ("C", "B")])
    assert dataclasses.replace(network) == network
    _round_trip(network)


def test_the_nodes_of_a_network_cannot_be_replaced():
    network = build_network(LINE.values(), [("A", "B"), ("B", "C")])
    with pytest.raises(TypeError):
        network.nodes["C"] = Node("C", 600.0, 800.0)
    assert network.nodes["C"] == LINE["C"]


def test_a_network_keeps_its_own_copy_of_the_nodes():
    nodes = dict(LINE)
    network = SkywayNetwork(nodes, [("A", "B"), ("B", "C")])
    nodes["C"] = Node("C", 600.0, 800.0)
    del nodes["A"]
    assert dict(network.nodes) == LINE
    assert shortest_path(network, "A", "C") == Path(("A", "B", "C"), 10.0)


@pytest.mark.parametrize("duplicate", [lambda net: pickle.loads(pickle.dumps(net)),
                                       lambda net: pickle.loads(pickle.dumps(net, 0)),
                                       copy.deepcopy, copy.copy, dataclasses.replace],
                         ids=["pickle", "pickle-0", "deepcopy", "copy", "replace"])
def test_a_copied_network_equals_its_original(duplicate):
    network = SkywayNetwork(LINE, [("B", "A"), ("C", "B")])
    copied = duplicate(network)
    assert copied == network
    with pytest.raises(TypeError):
        copied.nodes["C"] = Node("C", 600.0, 800.0)
    assert shortest_path(copied, "A", "C") == shortest_path(network, "A", "C")


@given(st.one_of(helpers.generated_networks(), helpers.lattice_networks()), st.data())
def test_the_constructor_builds_what_build_network_and_the_parser_build(network, data):
    pairs = data.draw(st.permutations([row[:2] for row in network.segments]))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [pair[::-1] if flip else pair for pair, flip in zip(pairs, flips)]
    rebuilt = SkywayNetwork(dict(network.nodes), pairs)
    assert rebuilt == network == build_network(network.nodes.values(), pairs)
    assert rebuilt._links == network._links
    ids = sorted(network.nodes)
    packages = tuple(Package(f"p{i}", 1.0, node_id) for i, node_id in enumerate(ids[1:4]))
    scenario = Scenario(rebuilt, ids[0], DroneConfig(), StringRig(), packages)
    assert parse_scenario(serialize_scenario(scenario)) == scenario


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
        full = shortest_paths_from(network, source)
        oracle = helpers.walk_tuple_shortest_paths(network, source)
        assert full == oracle
        assert list(full) == list(oracle)  # settled in the oracle's order
    source = data.draw(st.sampled_from(ids))
    targets = data.draw(st.lists(st.sampled_from(ids), max_size=4))
    oracle = helpers.walk_tuple_shortest_paths(network, source, targets)
    assert shortest_paths_from(network, source, targets) == {
        node_id: oracle[node_id] for node_id in set(targets)}


def test_full_runs_from_the_grid_corners_equal_the_walk_tuple_oracle():
    network = helpers.grid_network(20, 20)
    for corner in ("g0-0", "g0-19", "g19-0", "g19-19"):
        full = shortest_paths_from(network, corner)
        oracle = helpers.walk_tuple_shortest_paths(network, corner)
        assert full == oracle
        assert list(full) == list(oracle)


def test_a_grid_search_pushes_each_segment_at_most_once_each_way(monkeypatch):
    # A unit grid ties at nearly every node: the count pins the search's work
    # where equal-length walks abound, without a timer.
    network = helpers.grid_network(30, 30)
    pushes = []

    def heappush(heap, item):
        pushes.append(item[0])
        heapq.heappush(heap, item)

    monkeypatch.setattr(graph, "heapq", types.SimpleNamespace(heappush=heappush,
                                                              heappop=heapq.heappop))
    assert len(shortest_paths_from(network, "g0-0")) == 900
    assert len(pushes) <= 2 * len(network.segments) + 1


def test_a_search_without_ties_builds_only_its_stops_walk(monkeypatch):
    # Hop depth must not multiply a search's work: along a 2,000-node corridor
    # no two walks tie, so a search for the far end builds one walk, its own,
    # and none per push.
    ids = [f"n{i:04d}" for i in range(2000)]
    network = build_network([(node_id, i * 1.3, 0.0, 0.0) for i, node_id in enumerate(ids)],
                            list(zip(ids, ids[1:])))
    built = []
    numbers = graph._Walk.numbers

    def counted(walk):
        if walk.kept is None:
            built.append(walk.node)
        return numbers(walk)

    monkeypatch.setattr(graph._Walk, "numbers", counted)
    assert shortest_path(network, ids[0], ids[-1]).nodes == tuple(ids)
    assert built == [1999]
