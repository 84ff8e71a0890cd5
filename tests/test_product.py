"""Local formula construction, product automata, and layered pruning."""

import random

import pytest

from fleetplan.errors import NoAcceptingPath
from fleetplan.ltl import format_formula, nfa_accepts, parse_formula, to_nfa
from fleetplan.product import (
    build_local_formula,
    ProductPa,
    build_product,
    prune_product,
)
from fleetplan.world import Fleet, Robot, TaskReq, build_wts, grid_world

from oracles import (
    ReferenceProductPa,
    bellman_ford,
    choice_weight,
    initial_run,
    initial_strategy,
    path_through,
    plain_adjacency,
    random_formula,
)


def corridor_setup(length=5, tasks=(), formula="true", start="q0_0", collab_props=()):
    """1 x `length` corridor with the given tasks for a single c1 robot."""
    world = grid_world(length, 1)
    fleet = Fleet(("c1",), (Robot(0, frozenset({"c1"}), start),))
    reqs = [
        TaskReq(prop, region, {"c1": 1}, owner=None if prop in collab_props else 0)
        for prop, region in tasks
    ]
    wts = build_wts(world, fleet, reqs, 0)
    return wts


def synth(wts, formula, assigned, collab_props):
    phi = build_local_formula(parse_formula(formula), assigned)
    nfa = to_nfa(phi)
    return build_product(wts, nfa, assigned, frozenset(collab_props)), nfa


def test_local_formula_single_subsequence_chain():
    phi = parse_formula("true")
    out = build_local_formula(phi, [((1, 1), "a"), ((1, 2), "b")])
    assert format_formula(out) == "true & F (a & F b)"


def test_local_formula_across_subsequences():
    phi = parse_formula("true")
    out = build_local_formula(phi, [((1, 1), "a"), ((2, 1), "b")])
    assert format_formula(out) == "true & F (a & F (F b))"


def test_local_formula_empty_assignment_is_identity():
    phi = parse_formula("F ts1")
    assert build_local_formula(phi, []) is phi


def test_degenerate_world_accepting_in_zero_moves():
    wts = corridor_setup(1, tasks=[("ct1", "q0_0")], collab_props=("ct1",))
    pa, _ = synth(wts, "true", [((1, 1), "ct1")], ("ct1",))
    strategy = initial_run(pa)
    assert strategy.weight == 0
    assert strategy.collab_positions[(1, 1)] == 0


def test_through_route_is_not_collaborative():
    # ct1 sits mid-corridor; a robot also doing ts1 at the far end passes through
    wts = corridor_setup(
        5, tasks=[("ct1", "q2_0"), ("ts1", "q4_0")], collab_props=("ct1",))
    pa, _ = synth(wts, "F ts1", [((1, 1), "ct1")], ("ct1",))
    collab = pa.collab_states("ct1")
    assert collab
    assert all(region == "q2_0" for region, _f in collab)
    strategy = initial_run(pa)
    # firing position is a collaborative state even though the walk passes q2_0 once
    pos = strategy.collab_positions[(1, 1)]
    assert strategy.run[pos] in collab


def test_initial_run_weight_matches_oracle_distance():
    rng = random.Random(4)
    for _ in range(10):
        width = rng.choice([3, 4, 5])
        world = grid_world(width, width)
        target = rng.choice([r for r in world.regions if r != "q0_0"])
        fleet = Fleet(("c1",), (Robot(0, frozenset({"c1"}), "q0_0"),))
        task = TaskReq("ts1", target, {"c1": 1}, owner=0)
        wts = build_wts(world, fleet, [task], 0)
        pa, _ = synth(wts, "F ts1", [], ())
        strategy = initial_run(pa)
        edges = [(a, b, world.edge_weight(a, b)) for a, b in world.edges]
        assert strategy.weight == bellman_ford(edges, "q0_0")[target]


def test_no_accepting_path_when_task_unreachable():
    # the robot lacks the capability, so its world never labels ct1
    world = grid_world(3, 1)
    fleet = Fleet(("c1", "c2"), (Robot(0, frozenset({"c1"}), "q0_0"),))
    task = TaskReq("ct1", "q2_0", {"c2": 1})
    wts = build_wts(world, fleet, [task], 0)
    with pytest.raises(NoAcceptingPath):
        synth(wts, "true", [((1, 1), "ct1")], ("ct1",))


def test_pruned_levels_and_edges():
    wts = corridor_setup(4, tasks=[("ct1", "q2_0")], collab_props=("ct1",))
    pa, _ = synth(wts, "true", [((1, 1), "ct1")], ("ct1",))
    pruned = prune_product(pa)
    assert len(pruned.levels) == 3
    choice, strategy = initial_strategy(pruned)
    assert strategy.weight == initial_run(pa).weight


def test_pruned_edges_match_product_distances():
    wts = corridor_setup(
        6, tasks=[("ct1", "q2_0"), ("ct2", "q4_0")], collab_props=("ct1", "ct2"))
    pa, _ = synth(wts, "true", [((1, 1), "ct1"), ((1, 2), "ct2")], ("ct1", "ct2"))
    pruned = prune_product(pa)
    # every edge weight equals its witness path weight in the product
    for (li, a, b), (weight, witness) in pruned.edges.items():
        assert witness[0] == a and witness[-1] == b
        total = sum(pa.edge_info[(u, v)][0] for u, v in zip(witness, witness[1:]))
        assert total == weight


def test_pruned_expansion_reproduces_weight_and_acceptance():
    wts = corridor_setup(
        6,
        tasks=[("ts1", "q5_0"), ("ct1", "q2_0"), ("ct2", "q3_0")],
        collab_props=("ct1", "ct2"),
    )
    assigned = [((1, 1), "ct1"), ((1, 2), "ct2")]
    pa, nfa = synth(wts, "F ts1", assigned, ("ct1", "ct2"))
    pruned = prune_product(pa)
    choice, strategy = initial_strategy(pruned)
    assert strategy.weight == choice_weight(pruned, choice)
    assert strategy.weight == initial_run(pa).weight
    assert nfa_accepts(nfa, strategy.label_trace())


def test_empty_assignment_prunes_to_two_levels():
    wts = corridor_setup(4, tasks=[("ts1", "q3_0")])
    pa, _ = synth(wts, "F ts1", [], ())
    pruned = prune_product(pa)
    assert len(pruned.levels) == 2
    _choice, strategy = initial_strategy(pruned)
    assert strategy.weight == 3


def test_path_through_consistency_and_triangle():
    wts = corridor_setup(
        6, tasks=[("ct1", "q2_0")], collab_props=("ct1",))
    pa, _ = synth(wts, "true", [((1, 1), "ct1")], ("ct1",))
    strategy = initial_run(pa)
    anchor = strategy.run[0]
    via = strategy.run[strategy.collab_positions[(1, 1)]]
    suffix = path_through(pa, anchor, via)
    direct = initial_run(pa)
    weight = sum(pa.edge_info[(a, b)][0] for a, b in zip(suffix, suffix[1:]))
    assert weight >= direct.weight  # forcing through a state can never beat the optimum
    assert suffix[0] == anchor and via in suffix


def test_path_through_matches_two_leg_oracle():
    rng = random.Random(12)
    wts = corridor_setup(
        6, tasks=[("ct1", "q3_0"), ("ts1", "q5_0")], collab_props=("ct1",))
    pa, _ = synth(wts, "F ts1", [((1, 1), "ct1")], ("ct1",))
    adjacency = plain_adjacency(pa)
    edges = [(a, b, w) for a, nbrs in adjacency.items() for b, w in nbrs]

    def oracle_dist(src, dsts):
        # bellman-ford over the directed product graph
        nodes = set(adjacency)
        dist = {n: float("inf") for n in nodes}
        dist[src] = 0
        for _ in range(len(nodes)):
            changed = False
            for a, b, w in edges:
                if dist[a] + w < dist.get(b, float("inf")):
                    dist[b] = dist[a] + w
                    changed = True
            if not changed:
                break
        return min(dist.get(d, float("inf")) for d in dsts)

    anchor = sorted(pa.initial)[0]
    for via in sorted(pa.collab_states("ct1")):
        suffix = path_through(pa, anchor, via)
        weight = sum(pa.edge_info[(a, b)][0] for a, b in zip(suffix, suffix[1:]))
        expected = oracle_dist(anchor, [via]) + oracle_dist(via, pa.accepting)
        assert weight == expected


def test_table_product_matches_edge_by_edge_reference():
    # ts1 and ct1 share a region; the start region carries ts2 on some grids
    rng = random.Random(31)
    collab_props = frozenset({"ct1", "ct2"})
    initial_self_loop = []  # per non-empty product
    for trial in range(40):
        start = rng.choice(["q0_0", "q1_1"])
        fleet = Fleet(("c1",), (Robot(0, frozenset({"c1"}), start),))
        tasks = [
            TaskReq("ts1", "q2_2", {"c1": 1}, owner=0),
            TaskReq("ct1", "q2_2", {"c1": 1}),
            TaskReq("ct2", "q0_2", {"c1": 1}),
            TaskReq("ts2", rng.choice(["q1_1", "q2_0"]), {"c1": 1}, owner=0),
        ]
        wts = build_wts(grid_world(3, 3), fleet, tasks, 0)
        assigned = [((1, 1), "ct1"), ((1, 2), "ct2")][:rng.randint(0, 2)]
        nfa = to_nfa(build_local_formula(random_formula(rng, ["ts1", "ts2"], 3), assigned))
        pa = ProductPa(wts, nfa, assigned, collab_props)
        ref = ReferenceProductPa(wts, nfa, assigned, collab_props)
        assert pa.initial == ref.initial, trial
        assert list(pa.adjacency.items()) == list(ref.adjacency.items()), trial
        assert list(pa.edge_info.items()) == list(ref.edge_info.items()), trial
        assert list(pa.entry_info.items()) == list(ref.entry_info.items()), trial
        assert pa.collab == ref.collab, trial
        assert pa.accepting == ref.accepting, trial
        if pa.edge_info:
            initial_self_loop += [(f0, f0) in nfa.transitions for f0 in nfa.initial]
    assert len(initial_self_loop) >= 15
    assert set(initial_self_loop) == {True, False}
