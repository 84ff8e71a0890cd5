"""World graph, transition systems, and travel distances."""

import math
import random

import pytest

from fleetplan.errors import ScenarioError
from fleetplan.world import Fleet, Hops, Robot, TaskReq, World, Wts, build_wts, grid_world

from oracles import bellman_ford, reference_hops, shortest_travel, world_adjacency


def small_fleet():
    return Fleet(
        capabilities=("c1", "c2"),
        robots=(
            Robot(0, frozenset({"c1"}), "q0_0"),
            Robot(1, frozenset({"c2"}), "q1_0"),
        ),
    )


def test_grid_world_shape():
    world = grid_world(2, 2)
    assert len(world.regions) == 4
    assert len(world.edges) == 4
    assert all(world.edge_weight(a, b) == 1 for a, b in world.edges)


def test_world_requires_connectivity():
    with pytest.raises(ScenarioError):
        World(("a", "b", "c"), (("a", "b"),), {("a", "b"): 1})
    with pytest.raises(ScenarioError, match="not connected"):
        World(("c", "b", "a"), (("b", "c"),), {("b", "c"): 1})
    with pytest.raises(ScenarioError, match="not connected"):
        World((), (), {})


def test_one_region_world_without_edges_is_connected():
    world = World(("a",), (), {})
    assert (world.names, world.neighbours) == (("a",), ((),))
    assert (world.min_weight, world.exact) == (math.inf, True)


def test_world_indexes_regions_by_rank_on_construction():
    """Ranks, rank-indexed neighbours, the least weight and the exact-weights flag
    exist as soon as a world does, with no transition system built."""
    world = World(("c", "a", "b"), (("c", "a"), ("a", "b")), {("c", "a"): 3, ("a", "b"): 2})
    assert world.names == ("a", "b", "c")
    assert world.rank == {"a": 0, "b": 1, "c": 2}
    assert world.neighbours == (((1, 2), (2, 3)), ((0, 2),), ((0, 3),))
    assert (world.min_weight, world.exact) == (2, True)
    rng = random.Random(5)
    for weights in ({}, {e: rng.choice([1, 2, 3]) for e in grid_world(4, 3).edges},
                    {e: rng.choice([0.5, 1.25, 2.0]) for e in grid_world(4, 3).edges},
                    {("q0_0", "q1_0"): 2.0}):
        world = grid_world(4, 3, weights)
        assert world.names == tuple(sorted(world.regions))
        assert all(world.names[world.rank[r]] == r for r in world.regions)
        assert {world.names[x]: tuple((world.names[y], w) for y, w in pairs)
                for x, pairs in enumerate(world.neighbours)} == world_adjacency(world)
        assert world.min_weight == min(world.weights.values())
        assert world.exact == (len({type(w) for w in world.weights.values()}) == 1
                               and all(w == int(w) for w in world.weights.values()))


@pytest.mark.parametrize("weight", [0, -1, 0.0, float("nan"), float("inf"), "2", True])
def test_world_rejects_weights_that_are_not_finite_and_positive(weight):
    with pytest.raises(ScenarioError):
        World(("a", "b"), (("a", "b"),), {("a", "b"): weight})
    with pytest.raises(ScenarioError):
        grid_world(5, 5, {("q0_0", "q1_0"): weight})


def test_world_rejects_weight_keys_that_name_no_edge():
    with pytest.raises(ScenarioError):
        World(("a", "b", "c"), (("a", "b"), ("b", "c")), {("a", "b"): 1, ("b", "c"): 1,
                                                          ("a", "c"): 1})
    with pytest.raises(ScenarioError):
        grid_world(3, 3, {("q0_0", "q2_2"): 4})


def test_grid_override_in_reverse_orientation_maps_onto_its_edge():
    world = grid_world(3, 3, {("q1_0", "q0_0"): 5, ("q1_1", "q1_2"): 3})
    assert world.edge_weight("q0_0", "q1_0") == world.edge_weight("q1_0", "q0_0") == 5
    assert world.edge_weight("q1_1", "q1_2") == 3
    assert world.weights == grid_world(3, 3, {("q0_0", "q1_0"): 5, ("q1_1", "q1_2"): 3}).weights


def test_collaborative_label_requires_capability():
    world = grid_world(3, 2)
    fleet = small_fleet()
    task = TaskReq("ct1", "q2_1", {"c2": 1})
    wts0 = build_wts(world, fleet, [task], 0)
    wts1 = build_wts(world, fleet, [task], 1)
    rank = world.rank["q2_1"]
    assert "ct1" not in wts0.ranked_labels[rank]
    assert wts1.ranked_labels[rank] == frozenset({"ct1"})
    assert sum(map(bool, wts0.ranked_labels + wts1.ranked_labels)) == 1


def test_individual_label_only_for_owner():
    world = grid_world(3, 2)
    fleet = small_fleet()
    task = TaskReq("ts1", "q1_1", {"c1": 1}, owner=0)
    rank = world.rank["q1_1"]
    owner, other = build_wts(world, fleet, [task], 0), build_wts(world, fleet, [task], 1)
    assert owner.ranked_labels[rank] == frozenset({"ts1"})
    assert owner.start_rank == world.rank["q0_0"]
    assert not any(other.ranked_labels)
    assert other.start_rank == world.rank["q1_0"]


def test_unknown_task_region_rejected():
    world = grid_world(2, 2)
    with pytest.raises(ScenarioError):
        build_wts(world, small_fleet(), [TaskReq("ct1", "q9_9", {"c1": 1})], 0)


def test_travel_identity_and_corridor():
    world = grid_world(3, 1)
    wts = build_wts(world, small_fleet(), [], 0)
    assert shortest_travel(wts, "q1_0", "q1_0") == 0
    assert shortest_travel(wts, "q0_0", "q2_0") == 2


def test_travel_matches_bellman_ford_on_random_grids():
    rng = random.Random(99)
    for _ in range(5):
        weights = {}
        world = grid_world(6, 6)
        weights = {e: rng.choice([1, 2]) for e in world.edges}
        world = grid_world(6, 6, weights)
        wts = build_wts(world, small_fleet(), [], 0)
        edges = [(a, b, world.edge_weight(a, b)) for a, b in world.edges]
        src = rng.choice(world.regions)
        oracle = bellman_ford(edges, src)
        for dest in world.regions:
            assert shortest_travel(wts, src, dest) == oracle[dest]


def test_travel_symmetry_and_triangle_inequality():
    rng = random.Random(3)
    world = grid_world(4, 4, {e: rng.choice([1, 2]) for e in grid_world(4, 4).edges})
    wts = build_wts(world, small_fleet(), [], 0)
    picks = [rng.choice(world.regions) for _ in range(12)]
    for a, b, c in zip(picks, picks[1:], picks[2:]):
        assert shortest_travel(wts, a, b) == shortest_travel(wts, b, a)
        assert shortest_travel(wts, a, c) <= shortest_travel(wts, a, b) + shortest_travel(wts, b, c)


def test_hop_tables_equal_the_heap_reference_on_random_exact_worlds():
    """Every clean-hop table, settled in distance layers, equals the heap Dijkstra's
    field by field, dict order included, on random exact worlds: non-unit integer
    weights, float-typed integral weights, and unit weights with many ties, from
    origins on labeled and unlabeled regions alike."""
    rng = random.Random(15)
    cases = set()
    for trial in range(60):
        width, height = rng.randint(1, 7), rng.randint(2, 7)
        kind = ("integer", "float", "unit")[trial % 3]
        edges = grid_world(width, height).edges
        weights = {"integer": {e: rng.choice([1, 2, 3, 5]) for e in edges},
                   "float": {e: rng.choice([2.0, 3.0]) for e in edges}, "unit": {}}[kind]
        world = grid_world(width, height, weights)
        assert world.exact
        ranked = tuple(frozenset(rng.sample(["a", "b", "c"], rng.randint(1, 2)))
                       if rng.random() < 0.3 else frozenset() for _r in world.names)
        wts = Wts(0, world, ranked, rng.randrange(len(ranked)))
        for origin in range(len(ranked)):
            got, want = wts.hops(origin), reference_hops(wts, origin)
            for field in Hops._fields:
                assert repr(getattr(got, field)) == repr(getattr(want, field)), (trial, origin)
            assert wts.hops(origin) is got
            cases.add((kind, bool(ranked[origin])))
    assert cases == {(kind, labeled) for kind in ("integer", "float", "unit")
                     for labeled in (True, False)}


def test_individual_task_must_be_solo():
    with pytest.raises(ScenarioError):
        TaskReq("ts1", "q0_0", {"c1": 2}, owner=0)
