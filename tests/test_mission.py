"""Pruning, shortest-run selection, decomposition, and mission assembly."""

import random

import pytest

from fleetplan.errors import EmptyLanguage, MissionError
from fleetplan.ltl import nfa_accepts, parse_formula, to_nfa
from fleetplan.mission import (
    Mission,
    build_mission,
    decomposition_states,
    prune_nfa,
    shortest_accepting_run,
)
from fleetplan.world import Fleet, Robot, TaskReq

from oracles import all_label_sets, element_of, random_formula


def fleet_of(*capability_sets):
    robots = tuple(
        Robot(i, frozenset(caps), "q0_0") for i, caps in enumerate(capability_sets)
    )
    caps = tuple(sorted({c for s in capability_sets for c in s}))
    return Fleet(caps, robots)


def ct(prop, **req):
    return TaskReq(prop, "q0_0", req)


def test_prune_removes_over_capacity_transitions():
    nfa = to_nfa(parse_formula("F ct1"))
    fleet = fleet_of({"c1"}, {"c1"})
    with pytest.raises(EmptyLanguage):
        prune_nfa(nfa, fleet, [ct("ct1", c1=3)])


def test_prune_keeps_feasible_disjunct():
    nfa = to_nfa(parse_formula("F ct1 | F (ct1 & ct2)"))
    fleet = fleet_of({"c1"})
    tasks = [ct("ct1", c1=1), ct("ct2", c1=1)]
    pruned = prune_nfa(nfa, fleet, tasks)
    assert nfa_accepts(pruned, [frozenset({"ct1"})])
    # every surviving disjunct demands a staffable simultaneous task set
    for guard in pruned.transitions.values():
        for pos, _neg in guard.cubes:
            assert not {"ct1", "ct2"} <= pos


def feasible_step_accepts(nfa, fleet, tasks, seq):
    """Oracle: subset simulation taking a transition only via a feasible disjunct."""
    by_prop = {t.prop: t for t in tasks}

    def cube_ok(pos):
        demand = {}
        for p in pos:
            for cap, count in by_prop[p].requirements.items():
                demand[cap] = demand.get(cap, 0) + count
        return all(total <= len(fleet.with_capability(cap)) for cap, total in demand.items())

    current = set(nfa.initial)
    for labels in seq:
        nxt = set()
        for q in current:
            for q2 in nfa.successors(q):
                guard = nfa.guard(q, q2)
                for pos, neg in guard.cubes:
                    if pos <= labels and not (labels & neg) and cube_ok(pos):
                        nxt.add(q2)
                        break
        current = nxt
        if not current:
            return False
    return bool(current & nfa.accepting)


def test_pruned_language_matches_feasible_step_oracle():
    rng = random.Random(42)
    fleet = fleet_of({"c1"}, {"c1", "c2"})
    tasks = [ct("ct1", c1=1), ct("ct2", c1=2), ct("ct3", c2=1)]
    letters = all_label_sets(["ct1", "ct2", "ct3"])
    for _ in range(25):
        f = random_formula(rng, ["ct1", "ct2", "ct3"], depth=3)
        nfa = to_nfa(f)
        try:
            pruned = prune_nfa(nfa, fleet, tasks)
        except EmptyLanguage:
            pruned = None
        for length in range(0, 3):
            for seq in _sequences(letters, length):
                expected = feasible_step_accepts(nfa, fleet, tasks, seq)
                got = nfa_accepts(pruned, seq) if pruned is not None else False
                assert got == expected, (f, seq)


def _sequences(letters, length):
    if length == 0:
        yield ()
        return
    for head in letters:
        for tail in _sequences(letters, length - 1):
            yield (head,) + tail


def test_shortest_run_of_eventuality():
    nfa = to_nfa(parse_formula("F ct1"))
    assert shortest_accepting_run(nfa) == [0, 1]


def test_shortest_run_of_true_is_a_single_state():
    nfa = to_nfa(parse_formula("true"))
    assert shortest_accepting_run(nfa) == [0]


def test_shortest_run_prefers_simultaneous_crossing():
    nfa = to_nfa(parse_formula("F a & F b"))
    run = shortest_accepting_run(nfa)
    assert len(run) == 2  # one transition firing both tasks beats two transitions
    # oracle: breadth-first search over the explicit graph
    assert _bfs_shortest_len(nfa) == 1


def _bfs_shortest_len(nfa):
    frontier = [(q, 0) for q in sorted(nfa.initial)]
    seen = set(nfa.initial)
    while frontier:
        q, d = frontier.pop(0)
        if q in nfa.accepting:
            return d
        for q2 in nfa.successors(q):
            if q2 not in seen and q2 != q:
                seen.add(q2)
                frontier.append((q2, d + 1))
    raise AssertionError("no accepting state reachable")


def test_decomposition_of_independent_tasks():
    nfa = to_nfa(parse_formula("F ct1 & F ct2"))
    run = _run_via_distinct_steps(nfa)
    positions = decomposition_states(nfa, run)
    assert positions == {0, 1, 2}
    mission = build_mission(nfa, run, positions)
    assert len(mission.subsequences) == 2


def _run_via_distinct_steps(nfa):
    """A 2-step accepting run firing one task per step (for decomposition tests)."""
    for mid in range(nfa.n_states):
        for init in sorted(nfa.initial):
            if mid in (init,):
                continue
            if nfa.guard(init, mid) is None:
                continue
            for acc in sorted(nfa.accepting):
                if acc != mid and nfa.guard(mid, acc) is not None:
                    return [init, mid, acc]
    raise AssertionError("expected a 2-step accepting run")


def test_ordering_blocks_decomposition():
    nfa = to_nfa(parse_formula("(!ct2 U ct1) & F ct2"))
    run = shortest_accepting_run(nfa)
    if len(run) < 3:
        run = _run_via_distinct_steps(nfa)
    positions = decomposition_states(nfa, run)
    # interleaving the suffix (ct2) before the prefix (ct1) violates the until
    assert positions == {0, len(run) - 1}
    mission = build_mission(nfa, run, positions)
    assert len(mission.subsequences) == 1


def test_single_step_run_has_endpoints_only():
    nfa = to_nfa(parse_formula("F ct1"))
    run = shortest_accepting_run(nfa)
    assert decomposition_states(nfa, run) == {0, 1}


def test_mission_indexing_and_sync_groups():
    mission = Mission(((("ct1", "ct2"), ("ct3",)),))
    assert mission.sorted_occurrences == ((1, 1), (1, 2), (1, 3))
    assert mission.task_of((1, 3)) == "ct3"
    assert mission.task_of((1, 2)) == "ct2"
    assert element_of(mission, (1, 2)) == (1, 1)
    assert frozenset(mission.element_tasks(element_of(mission, (1, 1)))) == frozenset({"ct1", "ct2"})
    assert mission.consecutive_element_pairs() == ((1, 1),)
    assert {occ: mission.elements()[e] for occ, e in mission.element_index.items()} == \
        {occ: element_of(mission, occ) for occ in mission.sorted_occurrences}


def test_mission_rejects_repeated_task():
    with pytest.raises(MissionError):
        Mission(((("ct1",), ("ct1",)),))


def test_empty_steps_emit_no_elements():
    nfa = to_nfa(parse_formula("F ct1"))
    # run with an explicit empty-label self-loop step at position 0
    run = [0, 0, 1]
    mission = build_mission(nfa, run, {0, 2})
    assert mission.subsequences == ((("ct1",),),)


def test_decomposition_positions_validated():
    nfa = to_nfa(parse_formula("F ct1"))
    with pytest.raises(MissionError):
        build_mission(nfa, [0, 1], {0})


def test_reported_decompositions_survive_oracle_interleaving():
    """Every interior split must keep all prefix/suffix merges in the language."""
    from oracles import essential_sequence, interleavings

    rng = random.Random(31)
    corpus = [
        parse_formula("F ct1 & F ct2 & F ct3"),
        parse_formula("F (ct1 & F ct2) & F ct3"),
        parse_formula("(!ct2 U ct1) & F ct2 & F ct3"),
        parse_formula("F ct1 & F ct2 & (!ct3 U ct2)"),
    ]
    corpus.extend(random_formula(rng, ["ct1", "ct2", "ct3"], depth=3) for _ in range(40))
    checked = 0
    for f in corpus:
        nfa = to_nfa(f)
        try:
            run = shortest_accepting_run(nfa)
        except EmptyLanguage:
            continue
        if len(run) < 3:
            # prefer a longer accepting run so interior positions exist
            longer = _longest_short_run(nfa, cap=4)
            if longer is None:
                continue
            run = longer
        labels = essential_sequence(nfa, run)
        positions = decomposition_states(nfa, run)
        for p in sorted(positions - {0, len(run) - 1}):
            prefix = [l for l in labels[:p] if l]
            suffix = [l for l in labels[p:] if l]
            for merge in interleavings(prefix, suffix):
                assert nfa_accepts(nfa, merge), (f, p, merge)
                checked += 1
    assert checked > 0


def _longest_short_run(nfa, cap):
    """Some accepting run with 3..cap+1 states and no repeated state, if any."""
    best = None
    frontier = [[q] for q in sorted(nfa.initial)]
    for _ in range(cap):
        nxt = []
        for run in frontier:
            for succ in nfa.successors(run[-1]):
                if succ in run:
                    continue
                extended = run + [succ]
                if succ in nfa.accepting and len(extended) >= 3:
                    if best is None or len(extended) > len(best):
                        best = extended
                nxt.append(extended)
        frontier = nxt
    return best
