"""Local formula construction, product automata, and layered pruning."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from fleetplan import framework
from fleetplan.errors import LevelDisconnected, NoAcceptingPath
from fleetplan.milp import enumerate_robot_choices
from fleetplan.ltl import Eventually, format_formula, nfa_accepts, parse_formula, to_nfa
from fleetplan.product import (
    build_local_formula,
    ProductPa,
    build_product,
    prune_product,
)
from fleetplan.scenario import Scenario
from fleetplan.world import Fleet, Robot, TaskReq, build_wts, grid_world

from oracles import (
    ReferenceProductPa,
    ReferencePrunedPa,
    bellman_ford,
    choice_weight,
    decoded,
    initial_run,
    initial_strategy,
    path_through,
    plain_adjacency,
    random_formula,
    state_id,
    witness,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
    collab = pa.collab["ct1"]
    assert collab
    assert all(region == "q2_0" for region, _f in decoded(pa, collab))
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
    for (li, a, b), (weight, _u) in pruned.edges.items():
        path = witness(pruned, li, a, b)
        assert path[0] == pa.state_of(a) and path[-1] == pa.state_of(b)
        total = sum(pa.edge_info[(u, v)][0] for u, v in zip(path, path[1:]))
        assert total == weight


def test_product_and_pruning_hold_state_ids_that_decode_to_the_reference_states():
    """Initial, accepting and collaborative states, levels, pruned edges, the
    shortest choice and a strategy's run are integer ids; ``state_of`` maps them
    onto the tuple states of the references, and ``walk`` names their regions."""
    wts = corridor_setup(
        6, tasks=[("ct1", "q2_0"), ("ct2", "q4_0")], collab_props=("ct1", "ct2"))
    pa, _ = synth(wts, "true", [((1, 1), "ct1"), ((1, 2), "ct2")], ("ct1", "ct2"))
    pruned = prune_product(pa)
    ref = ReferencePrunedPa(pa)
    choice = pruned.shortest_choice()
    strategy = pruned.expand(choice)
    ids = [*pa.initial, *pa.accepting, *pa.entry_info, *pa.collab["ct1"], *pa.collab["ct2"],
           *(s for level in pruned.levels for s in level),
           *(s for _li, a, b in pruned.edges for s in (a, b)), *choice, *strategy.run]
    assert all(type(s) is int for s in ids)
    assert all(state_id(pa, pa.state_of(s)) == s for s in ids)
    assert [decoded(pa, level) for level in pruned.levels] == ref.levels
    assert list(decoded(pa, choice)) == ref.shortest_choice()
    assert strategy.run == ref.expand(ref.shortest_choice()).run
    assert decoded(pa, strategy.run)[0] == ("q0_0", strategy.run[0] % pa.nfa.n_states)
    assert strategy.walk == ("q0_0", "q1_0", "q2_0", "q3_0", "q4_0")


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
    assert nfa_accepts(nfa, strategy.emits)


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
    anchor, via = decoded(pa, [strategy.run[0], strategy.run[strategy.collab_positions[(1, 1)]]])
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

    anchor = pa.state_of(min(pa.initial))
    for via in decoded(pa, sorted(pa.collab["ct1"])):
        suffix = path_through(pa, anchor, via)
        weight = sum(pa.edge_info[(a, b)][0] for a, b in zip(suffix, suffix[1:]))
        expected = oracle_dist(anchor, [via]) + oracle_dist(via, decoded(pa, pa.accepting))
        assert weight == expected


def random_products():
    """40 small random products: ts1 and ct1 share a region, and the start
    region carries ts2 on some grids.  Yields ``(trial, wts, nfa, assigned)``."""
    rng = random.Random(31)
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
        yield trial, wts, nfa, assigned


RANDOM_COLLAB_PROPS = frozenset({"ct1", "ct2"})

# the empty-label move of F ts1 | G ts2's initial state leaves it, and G ts1 has none
NON_SELF_LOOP_FORMULAS = (
    "F ts1 | G ts2", "G ts1", "(F ts1 | G ts2) & F ts2", "G (ts1 | ts2) | F ts1")


def random_grid_products():
    """40 random products on 6 x 6 grids with the tasks of ``random_products``,
    placed at random, where most regions carry no label.  Every third formula
    is one of ``NON_SELF_LOOP_FORMULAS``, half the others are put under ``F``.
    Half the grids get random non-integer weights and a quarter random integer
    ones.  Yields ``(trial, wts, nfa, assigned)``."""
    rng = random.Random(57)
    for trial in range(40):
        cells = rng.sample([f"q{x}_{y}" for y in range(6) for x in range(6)], 4)
        start, shared, ct2, ts2 = cells
        if rng.random() < 0.5:
            ts2 = start
        fleet = Fleet(("c1",), (Robot(0, frozenset({"c1"}), start),))
        tasks = [
            TaskReq("ts1", shared, {"c1": 1}, owner=0),
            TaskReq("ct1", shared, {"c1": 1}),
            TaskReq("ct2", ct2, {"c1": 1}),
            TaskReq("ts2", ts2, {"c1": 1}, owner=0),
        ]
        world = grid_world(6, 6)
        if trial % 2:
            world = grid_world(6, 6, {e: rng.choice([0.5, 1.25, 2.0, 3.0]) for e in world.edges})
        elif trial % 4 == 2:
            world = grid_world(6, 6, {e: rng.choice([1, 2, 3]) for e in world.edges})
        wts = build_wts(world, fleet, tasks, 0)
        assigned = [((1, 1), "ct1"), ((1, 2), "ct2")][:rng.randint(0, 2)]
        if trial % 3 == 0:
            phi = parse_formula(NON_SELF_LOOP_FORMULAS[trial // 3 % len(NON_SELF_LOOP_FORMULAS)])
        else:  # half of them deferred, so that most products are not empty
            phi = random_formula(rng, ["ts1", "ts2"], 3)
            phi = Eventually(phi) if rng.random() < 0.5 else phi
        nfa = to_nfa(build_local_formula(phi, assigned))
        yield trial, wts, nfa, assigned


def assert_same_product(pa, trial=None):
    """``pa`` equals the edge-by-edge reference in its states, edges, entry info,
    collaborative and accepting states and counts.  Returns the reference."""
    ref = ReferenceProductPa(pa.wts, pa.nfa, pa.assigned, pa.collab_props)
    assert decoded(pa, pa.initial) == ref.initial, trial
    assert list(pa.adjacency.items()) == list(ref.adjacency.items()), trial
    assert list(pa.edge_info.items()) == list(ref.edge_info.items()), trial
    assert list(zip(decoded(pa, pa.entry_info), pa.entry_info.values())) == list(
        ref.entry_info.items()), trial
    assert {prop: set(decoded(pa, ids)) for prop, ids in pa.collab.items()} == ref.collab, trial
    assert set(decoded(pa, pa.accepting)) == ref.accepting, trial
    assert (pa.n_states, pa.n_edges) == (len(ref.adjacency), len(ref.edge_info)), trial
    return ref


def test_table_product_matches_edge_by_edge_reference():
    initial_self_loop = []  # per non-empty product
    for trial, wts, nfa, assigned in random_products():
        pa = ProductPa(wts, nfa, assigned, RANDOM_COLLAB_PROPS)
        assert_same_product(pa, trial)
        if pa.n_edges:
            initial_self_loop += [f0 in nfa.successors(f0) for f0 in nfa.initial]
    assert len(initial_self_loop) >= 15
    assert set(initial_self_loop) == {True, False}


def assert_same_pruning(pa):
    """Prune ``pa`` and compare with the tuple-state reference.  Levels, and every
    edge's weight and witness below the final level, are equal.  On the final
    level each source keeps one edge, to the reference's ``(cost, state)`` least
    accepting state, with the same weight and witness.  The shortest choice, the
    expansion of every enumerated choice and the size counters agree.  When the
    reference finds a level disconnected, the pruning must fail with the same
    message.  Returns whether it pruned."""
    try:
        ref = ReferencePrunedPa(pa)
    except LevelDisconnected as exc:
        with pytest.raises(LevelDisconnected) as got:
            prune_product(pa)
        assert str(got.value) == str(exc)
        return False
    pruned = prune_product(pa)
    assert [decoded(pa, level) for level in pruned.levels] == ref.levels
    final = len(ref.levels) - 2
    cheapest = {}
    for (li, a, b), (weight, _witness) in ref.edges.items():
        if li == final:
            cheapest[a] = min(cheapest.get(a, (weight, b)), (weight, b))
    kept = [key for key in ref.edges if key[0] < final]
    kept += [(final, a, b) for a, (_w, b) in cheapest.items()]
    assert [(li, *decoded(pa, (a, b))) for li, a, b in pruned.edges] == kept
    for (key, (weight, _u)), ref_key in zip(pruned.edges.items(), kept):
        assert weight == ref.edges[ref_key][0], ref_key
        assert witness(pruned, *key) == ref.witness(*ref_key), ref_key
    choice = pruned.shortest_choice()
    assert list(decoded(pa, choice)) == ref.shortest_choice()
    assert_same_expansions(pruned, ref)
    assert pruned.size_stats() == dict(ref.size_stats(), pruned_edges=len(kept))
    return True


def assert_same_expansions(pruned, ref):
    """Every choice ``enumerate_robot_choices`` yields expands as the reference's
    witnesses do, with the firing sets, labels and weights of the edge-by-edge
    reference product along the run."""
    pa = pruned.pa
    ref_pa = ReferenceProductPa(pa.wts, pa.nfa, pa.assigned, pa.collab_props)
    for timeline in enumerate_robot_choices(pruned):
        choice = timeline.choice
        got, want = pruned.expand(choice), ref.expand(decoded(pa, choice))
        assert (got.run, got.fired, got.emits, got.step_weights) == (
            want.run, want.fired, want.emits, want.step_weights), choice
        run = decoded(pa, got.run)
        assert got.walk == tuple(region for region, _f in run)
        steps = [ref_pa.edge_info[edge] for edge in zip(run, run[1:])]
        assert got.step_weights == tuple(w for w, _f, _e in steps)
        entry = [ref_pa.entry_info[run[0]]] + [(f, e) for _w, f, e in steps]
        assert (got.fired, got.emits) == tuple(map(tuple, zip(*entry)))


def test_pruning_matches_tuple_state_reference_on_random_products():
    pruned = [assert_same_pruning(ProductPa(wts, nfa, assigned, RANDOM_COLLAB_PROPS))
              for _trial, wts, nfa, assigned in random_products()]
    assert pruned.count(True) >= 10 and False in pruned


def test_grid_products_match_the_reference_with_both_kinds_of_copy():
    """Clean-hop searches and counts over both kinds of automaton copy: those that
    cross unlabeled regions on a plain self-loop (searched by hops) and the rest
    (searched state by state), on integer and non-integer weights."""
    kinds = set()
    pruned = []
    for trial, wts, nfa, assigned in random_grid_products():
        pa = ProductPa(wts, nfa, assigned, RANDOM_COLLAB_PROPS)
        ref = assert_same_product(pa, trial)
        kinds |= {pa._is_compressed(f) for _region, f in ref.adjacency}
        pruned.append(assert_same_pruning(pa))
    assert kinds == {True, False}
    assert pruned.count(True) >= 10 and False in pruned


def hop_tables_searched(pruned):
    """The hop tables that a pruning's searches expanded, by origin rank."""
    return {hops.dist.index(0): hops for trees in pruned._trees for tree in trees.values()
            for expanded in tree.expanded.values() for hops, _d in expanded}


def test_products_over_one_transition_system_share_its_hop_tables():
    """Two products of one robot's transition system, with different assigned
    sets, each match the references, and the second searches the very hop table
    the first built for every origin both search from."""
    fleet = Fleet(("c1",), (Robot(0, frozenset({"c1"}), "q1_1"),))
    tasks = [TaskReq("ts1", "q4_4", {"c1": 1}, owner=0), TaskReq("ct1", "q4_1", {"c1": 1}),
             TaskReq("ct2", "q0_5", {"c1": 1})]
    wts = build_wts(grid_world(6, 6), fleet, tasks, 0)
    tables = []
    for assigned in ([((1, 1), "ct1")], [((1, 1), "ct2"), ((2, 1), "ct1")]):
        nfa = to_nfa(build_local_formula(parse_formula("F ts1"), assigned))
        pa = ProductPa(wts, nfa, assigned, RANDOM_COLLAB_PROPS)
        assert_same_product(pa)
        assert assert_same_pruning(pa)
        tables.append(hop_tables_searched(prune_product(pa)))
    first, second = tables
    shared = first.keys() & second.keys()
    assert shared
    assert all(second[origin] is first[origin] for origin in shared)


def test_transition_system_labels_are_interned_by_first_rank():
    """On the random and grid products' transition systems each rank's label id reads
    back its label, id 0 is the empty label, and the other ids are dense, numbered in
    the order of the first rank carrying each label."""
    for trial, wts, _nfa, _assigned in [*random_products(), *random_grid_products()]:
        ranks = range(len(wts.ranked_labels))
        assert all(wts.labels[wts.label_ids[r]] == wts.ranked_labels[r] for r in ranks), trial
        first_seen = [label for label in dict.fromkeys(wts.ranked_labels) if label]
        assert wts.labels == (frozenset(), *first_seen), trial
        assert set(wts.label_ids) | {0} == set(range(len(wts.labels))), trial


def test_pruning_keeps_no_search_graph_and_can_repeat():
    pruned_any = 0
    for trial, wts, nfa, assigned in random_products():
        pa = ProductPa(wts, nfa, assigned, RANDOM_COLLAB_PROPS)
        try:
            first = prune_product(pa)
        except LevelDisconnected:
            continue
        assert not any(hasattr(pa, name) for name in ("quiet", "firing", "succ")), trial
        assert not hasattr(first, "_parents"), trial
        ref = ReferenceProductPa(wts, nfa, assigned, RANDOM_COLLAB_PROPS)
        assert list(pa.adjacency.items()) == list(ref.adjacency.items()), trial
        assert list(pa.edge_info.items()) == list(ref.edge_info.items()), trial
        assert prune_product(pa).edges == first.edges, trial
        pruned_any += 1
    assert pruned_any >= 10


def test_pruning_matches_tuple_state_reference_on_planned_products(monkeypatch):
    """Every product the planner builds for the synth-enum benchmark structure
    (template seed 7, placed by benchmark seed 0), rebuilt from its recorded
    arguments and pruned afresh."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    calls = []
    real = framework.build_product

    def recording(*args):
        pa = real(*args)
        calls.append(args)
        return pa

    monkeypatch.setattr(framework, "build_product", recording)
    data = workloads.scenario_json(workloads.WORKLOADS["synth-enum"], 7, 0)
    framework.run_framework(Scenario.from_json(data))
    assert len(calls) >= 10
    assert all(assert_same_pruning(build_product(*args)) for args in calls)
