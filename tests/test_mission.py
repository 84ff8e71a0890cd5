"""Pruning, shortest-run selection, decomposition, and mission assembly."""

import random

import pytest

from fleetplan.errors import EmptyLanguage, MissionError
from fleetplan import framework
from fleetplan.ltl import (
    Nfa,
    Table,
    essential_steps,
    nfa_accepts,
    on_demand_nfa,
    parse_formula,
    to_nfa,
)
from fleetplan.mission import (
    Mission,
    build_mission,
    decomposition_states,
    demand_feasible,
    prune_nfa,
    shortest_accepting_run,
)
from fleetplan.scenario import generate
from fleetplan.world import Fleet, Robot, TaskReq

from oracles import (
    all_label_sets,
    bfs,
    element_of,
    guard_nfa,
    random_formula,
    reference_decomposition_states,
    reference_prune_nfa,
    reference_shortest_accepting_run,
    reference_tables_read,
)


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
    for guard in guard_nfa(pruned).transitions.values():
        for pos, _neg in guard.cubes:
            assert not {"ct1", "ct2"} <= pos


def feasible_step_accepts(nfa, fleet, tasks, seq):
    """Oracle: subset simulation taking a transition only via a feasible disjunct."""
    by_prop = {t.prop: t for t in tasks}
    guards = guard_nfa(nfa)

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
                guard = guards.guard(q, q2)
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


def _pruned_or_error(prune, nfa, fleet, tasks, walk=True):
    """``prune``'s result, or the type of the error it raises.  With ``walk`` a
    search over its successors first decides every state it keeps reachable (the
    pruning decides a state when its successors are first read), and an unknown
    task found on the way is the pruning's error."""
    try:
        pruned = prune(nfa, fleet, tasks)
        if walk:
            bfs(pruned.successors, pruned.initial)
        return pruned
    except (EmptyLanguage, MissionError) as exc:
        return type(exc)


def assert_same_table_answers(got, ref, rng, exhaustive_atoms=8, sampled=200):
    """A pruned automaton's table answers equal its guard reference's.

    Both keep the same pairs; kept pairs have the same essential step (witness
    and negative set), all of them up to ``10 * sampled`` pairs and that many
    random ones above; every reached state has the same self-loop answer (its
    table leads the empty mask back to it, against its kept guard admitting the
    empty label); and every state steps alike on every mask of its table when
    it has at most ``exhaustive_atoms`` atoms, and on ``sampled`` random masks
    above that."""
    states = range(got.n_states)
    assert (got.n_states, got.initial, got.accepting) == (ref.n_states, ref.initial, ref.accepting)
    assert [got.successors(q) for q in states] == [ref.successors(q) for q in states]
    pairs = list(ref.transitions)
    for a, b in pairs if len(pairs) <= 10 * sampled else rng.sample(pairs, 10 * sampled):
        assert essential_steps(got, [a, b]) == essential_steps(ref, [a, b]), (a, b)
    reached = got.initial | {b for _a, b in pairs}
    for a in states:
        bits, targets, _required = got.tables[a]
        if a in reached:
            idle = ref.guard(a, a)
            assert (targets[0] == a) == (idle is not None and idle.empty_set_satisfies()), a
        masks = range(len(targets)) if len(bits) <= exhaustive_atoms else \
            [rng.randrange(len(targets)) for _ in range(sampled)]
        for m in masks:
            labels = frozenset(atom for atom, bit in bits.items() if m & bit)
            assert got.step(a, labels) == ref.step(a, labels), (a, sorted(labels))


TASKS = [ct("ct1", c1=1), ct("ct2", c2=1), ct("ct3", c1=1, c2=1), ct("ct4", c1=2)]
PRUNING_CASES = [
    (fleet_of({"c1"}, {"c1", "c2"}), TASKS),  # {ct2, ct3} and ct4 with ct1 or ct3 drop
    (fleet_of({"c1", "c2"}, {"c1", "c2"}, {"c1"}), TASKS),  # only {ct2, ct3, ct4} and up drop
    (fleet_of({"c2"}), TASKS),  # ct2 alone is staffable
    (fleet_of({"c1"}, {"c1", "c2"}), TASKS[:3]),  # ct4 is unknown
    (fleet_of({"c1"}, {"c1", "c2"}),  # ct4 is not collaborative
     TASKS[:3] + [TaskReq("ct4", "q0_0", {"c1": 1}, owner=0)]),
]


def test_table_pruning_equals_the_guard_reference():
    """Pruning decides each pair on its source's labeling table and reads steps,
    witnesses, negative sets and self-loops off the tables; the reference
    builds and filters every guard and reads them off the guards.  Both keep
    the same pairs, guards (cubes in order), accepting set, steps and table
    answers, give the same run, decomposition and mission, and raise the same
    errors."""
    rng = random.Random(24)
    atoms = ["ct1", "ct2", "ct3", "ct4"]
    letters = all_label_sets(atoms + ["x"])
    seen = {EmptyLanguage: 0, MissionError: 0, "dropped": 0, "pruned": 0, "longer": 0}
    for _ in range(60):
        nfa = to_nfa(random_formula(rng, atoms, depth=3))
        states = range(nfa.n_states)
        guards = guard_nfa(nfa)
        for fleet, task_list in PRUNING_CASES:
            ref = _pruned_or_error(reference_prune_nfa, nfa, fleet, task_list)
            got = _pruned_or_error(prune_nfa, nfa, fleet, task_list)
            if isinstance(ref, type):
                assert got is ref
                seen[ref] += 1
                continue
            seen["pruned"] += 1
            seen["dropped"] += any(g != guards.guard(*pair) for pair, g in ref.transitions.items())
            assert [[got.step(q, l) for l in letters] for q in states] == \
                [[ref.step(q, l) for l in letters] for q in states]
            run = shortest_accepting_run(got)
            assert run == shortest_accepting_run(ref)
            steps = essential_steps(got, run)
            positions = decomposition_states(got, run, steps)
            assert positions == reference_decomposition_states(ref, run)
            mission = build_mission(steps, positions)
            expected = build_mission(essential_steps(ref, run), positions)
            assert (mission.subsequences, mission.negative_obligations) == \
                (expected.subsequences, expected.negative_obligations)
            longer = _longest_short_run(got, cap=4)
            if longer is not None:  # interior positions, so self-loops decide
                assert decomposition_states(got, longer, essential_steps(got, longer)) == \
                    reference_decomposition_states(ref, longer)
                seen["longer"] += 1
            assert_same_table_answers(got, ref, rng)
            assert [(pair, g.cubes) for pair, g in guard_nfa(got).transitions.items()] == \
                [(pair, g.cubes) for pair, g in ref.transitions.items()]
    assert min(seen.values()) > 0, seen


def random_table_nfa(rng, atoms, n_states):
    """An automaton over random labeling tables: each state's atoms are a random
    subset, and each of its masks leads to one of a few random states or to none."""
    tables = []
    for _ in range(n_states):
        names = sorted(rng.sample(atoms, rng.randint(0, len(atoms))))
        choices = [-1] + rng.sample(range(n_states), rng.randint(1, min(3, n_states)))
        targets = tuple(rng.choice(choices) for _ in range(1 << len(names)))
        required = {}
        for m, j in enumerate(targets):
            if j >= 0:
                required[j] = required.get(j, m) & m
        tables.append(Table({a: 1 << k for k, a in enumerate(names)}, targets,
                            dict(sorted(required.items()))))
    accepting = rng.sample(range(n_states), rng.randint(1, n_states))
    return Nfa(n_states, {0}, accepting, tuple(tables))


def tally_searches_past_the_first_candidate(nfa, seen):
    """Count, on a pruned automaton, the answers whose search goes past its first
    candidate: negative sets holding an atom that does not lead elsewhere alone,
    steps allowed only through a staffable ``P`` strictly inside the label, and
    steps refused though some staffable ``P`` inside the label leads to the same
    target, because a mask between the two leads elsewhere."""
    for a, (bits, targets, _required) in enumerate(nfa.tables):
        for b in nfa.successors(a):
            pos, neg = (nfa.tables[a].mask(s) for s in nfa.essential_step(a, b))
            alone = sum(bit for bit in bits.values() if not bit & pos and targets[pos | bit] != b)
            seen["wider negative set"] += bool(neg & ~alone)
        for m, j in enumerate(targets):
            if j not in nfa.successors(a) or nfa.staffable(a, m):
                continue
            if nfa.step(a, frozenset(atom for atom, bit in bits.items() if m & bit)) == j:
                seen["smaller P"] += 1
            elif any(p & ~m == 0 and targets[p] == j and nfa.staffable(a, p)
                     for p in range(len(targets))):
                seen["refused between P and label"] += 1


def staffed_reach(nfa, fleet, known):
    """The states reachable from the initial ones by masks whose atoms among the
    ``known`` tasks the fleet can staff together; other atoms are ignored."""
    def targets_of(a):
        bits, targets, _required = nfa.tables[a]
        return {j for m, j in enumerate(targets) if j >= 0 and demand_feasible(
            [atom for atom, bit in bits.items() if m & bit and atom in known], fleet, known)}
    return bfs(targets_of, nfa.initial)[0].keys()


def test_table_answers_equal_the_guard_reference_on_random_tables():
    """Tables no formula need give: any subset of atoms per state, any mask to
    any of a few targets.  They reach the searches' later candidates, which the
    planned automata never do.  They also have states that no staffable step
    reaches: a task unknown to the fleet only there is an error to the reference,
    which reads every guard, and not to the pruning."""
    rng = random.Random(26)
    atoms = ["ct1", "ct2", "ct3", "ct4"]
    compared = 0
    seen = {"wider negative set": 0, "smaller P": 0, "refused between P and label": 0,
            "unknown only where the pruning never reaches": 0}
    for _ in range(150):
        nfa = random_table_nfa(rng, atoms, rng.randint(2, 6))
        for fleet, task_list in PRUNING_CASES:
            ref = _pruned_or_error(reference_prune_nfa, nfa, fleet, task_list)
            got = _pruned_or_error(prune_nfa, nfa, fleet, task_list)
            if ref is MissionError and got is not MissionError:
                known = {t.prop: t for t in task_list if t.collaborative}
                reached = staffed_reach(nfa, fleet, known)
                if got is not EmptyLanguage:
                    assert reached == bfs(got.successors, got.initial)[0].keys()
                for a in reached:
                    bits, targets, _required = nfa.tables[a]
                    assert not any(m & bit and j >= 0 and targets[m ^ bit] != j
                                   for atom, bit in bits.items() if atom not in known
                                   for m, j in enumerate(targets)), a
                seen["unknown only where the pruning never reaches"] += 1
                continue
            if isinstance(ref, type):
                assert got is ref
                continue
            assert_same_table_answers(got, ref, rng)
            tally_searches_past_the_first_candidate(got, seen)
            compared += 1
    assert compared > 200
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("robots,collab", [(5, 4), (10, 6), (10, 7), (40, 6), (20, 10)])
def test_table_answers_equal_the_guard_reference_on_generated_missions(robots, collab):
    """The collaborative automata the planner prunes for generated scenarios,
    up to ``k = 10`` collaborative tasks: every table answer, the chosen run's
    essential steps, decomposition and mission."""
    rng = random.Random(robots * 100 + collab)
    for seed in (7, 8):
        sc = generate(seed=seed, robots=robots, collab=collab, grid=(30, 30))
        nfa = to_nfa(sc.parsed_collaborative())
        got = _pruned_or_error(prune_nfa, nfa, sc.fleet, sc.collaborative_tasks())
        ref = reference_prune_nfa(nfa, sc.fleet, sc.collaborative_tasks())
        assert_same_table_answers(got, ref, rng)
        run = shortest_accepting_run(got)
        steps = essential_steps(got, run)
        positions = decomposition_states(got, run, steps)
        assert positions == reference_decomposition_states(ref, run)
        mission = build_mission(steps, positions)
        expected = build_mission(essential_steps(ref, run), positions)
        assert (mission.subsequences, mission.negative_obligations) == \
            (expected.subsequences, expected.negative_obligations)


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


def _run_or_message(select, nfa):
    try:
        return select(nfa)
    except EmptyLanguage as exc:
        return str(exc)


def listed_successors(pairs):
    """The successor function of a list of pairs: each state's targets in the
    order the list gives them."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    return lambda a: succ.get(a, ())


def test_shortest_run_equals_the_reference_on_random_automata():
    """One backward search picks the run that the reference's forward and
    backward searches pick, or fails with its message, on random automata:
    several initial states, states no initial one reaches, self-loops,
    successors listed in random order, and sometimes no accepting state."""
    rng = random.Random(27)
    seen = {"empty": 0, "accepting initial": 0, "tied initial": 0, "long": 0}
    for _ in range(3000):
        n = rng.randint(1, 9)
        pairs = rng.sample([(a, b) for a in range(n) for b in range(n)],
                           rng.randint(0, min(n * n, 2 * n)))
        initial = rng.sample(range(n), rng.randint(1, min(3, n)))
        successors = listed_successors(pairs)
        nfa = Nfa(n, initial, rng.sample(range(n), rng.randint(0, min(2, n))), (), successors)
        expected = _run_or_message(reference_shortest_accepting_run, nfa)
        assert _run_or_message(shortest_accepting_run, nfa) == expected, (initial, pairs)
        if isinstance(expected, str):
            seen["empty"] += 1
            continue
        seen["accepting initial"] += len(expected) == 1
        seen["long"] += len(expected) > 3
        alone = [_run_or_message(reference_shortest_accepting_run,
                                 Nfa(n, [q], nfa.accepting, (), successors)) for q in initial]
        seen["tied initial"] += [len(r) for r in alone if isinstance(r, list)].count(len(expected)) > 1
    assert min(seen.values()) > 0, seen


def test_on_demand_pruning_and_forward_run_equal_the_reference():
    """Pruning an automaton read on demand, searching forward only to the first
    layer holding an accepting state, gives the reference's run on the whole
    automaton's reference pruning, with the same essential steps and mission,
    or fails as the reference does.  The exception is a task unknown to the
    fleet that no state within the run's depth mentions: the reference raises
    MissionError, having checked every state.  Afterwards the pruned automaton
    answers label sequences of any length as the reference does, deciding
    further states as they are reached."""
    rng = random.Random(29)
    atoms = ["ct1", "ct2", "ct3", "ct4"]
    letters = all_label_sets(atoms)
    seen = {EmptyLanguage: 0, MissionError: 0, "unknown beyond the run": 0, "run": 0,
            "run of 2 or more steps": 0, "tables left": 0}
    for _ in range(80):
        f = random_formula(rng, atoms, depth=3)
        whole = to_nfa(f)
        for fleet, task_list in PRUNING_CASES:
            ref = _pruned_or_error(reference_prune_nfa, whole, fleet, task_list)
            nfa = on_demand_nfa(f)
            got = _pruned_or_error(prune_nfa, nfa, fleet, task_list, walk=False)
            if ref is MissionError and got is not MissionError:
                seen["unknown beyond the run"] += 1
                continue
            if isinstance(ref, type):
                assert got is ref
                seen[ref] += 1
                continue
            run = shortest_accepting_run(got)
            assert run == reference_shortest_accepting_run(ref)
            assert essential_steps(got, run) == essential_steps(ref, run)
            assert len(nfa.tables.progressed) == reference_tables_read(whole, fleet, task_list)
            seen["run"] += 1
            seen["run of 2 or more steps"] += len(run) > 2
            seen["tables left"] += len(nfa.tables.progressed) < whole.n_states
            assert got.accepting <= ref.accepting
            for _ in range(20):
                seq = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
                assert nfa_accepts(got, seq) == nfa_accepts(ref, seq), (f, seq)
    assert min(seen.values()) > 0, seen
    for robots, collab in [(5, 4), (10, 6), (10, 7)]:
        for seed in (7, 8):
            sc = generate(seed=seed, robots=robots, collab=collab, grid=(30, 30))
            ref = reference_prune_nfa(to_nfa(sc.parsed_collaborative()), sc.fleet,
                                      sc.collaborative_tasks())
            got = prune_nfa(on_demand_nfa(sc.parsed_collaborative()), sc.fleet,
                            sc.collaborative_tasks())
            run = shortest_accepting_run(got)
            assert run == reference_shortest_accepting_run(ref)
            steps = essential_steps(got, run)
            assert steps == essential_steps(ref, run)
            mission = build_mission(steps, decomposition_states(got, run, steps))
            expected = build_mission(steps, reference_decomposition_states(ref, run))
            assert (mission.subsequences, mission.negative_obligations) == \
                (expected.subsequences, expected.negative_obligations)


def _run_and_steps_or_error(nfa, fleet, tasks):
    """The shortest accepting run of ``nfa``'s pruning and its essential steps,
    or the type of the error the pruning raises."""
    try:
        pruned = prune_nfa(nfa, fleet, tasks)
    except (EmptyLanguage, MissionError) as exc:
        return type(exc)
    run = shortest_accepting_run(pruned)
    return run, essential_steps(pruned, run)


def test_whole_and_on_demand_pruning_equal_the_reference_run():
    """Pruning has one contract, whether the automaton was translated whole or
    is read on demand: it decides a state when its search forward first reaches
    it and stops at the first layer holding an accepting state.  Both give the
    run and essential steps that the reference run selection gives on the
    reference pruning, or fail as the reference does.  The exception is a task
    unknown to the fleet only in states that search never decides: the
    reference, reading every guard, raises MissionError."""
    rng = random.Random(33)
    atoms = ["ct1", "ct2", "ct3", "ct4"]
    seen = {EmptyLanguage: 0, MissionError: 0, "unknown only beyond the search": 0, "run": 0,
            "run of 2 or more steps": 0}
    for _ in range(80):
        f = random_formula(rng, atoms, depth=3)
        for fleet, task_list in PRUNING_CASES:
            whole = _run_and_steps_or_error(to_nfa(f), fleet, task_list)
            assert _run_and_steps_or_error(on_demand_nfa(f), fleet, task_list) == whole, f
            ref = _pruned_or_error(reference_prune_nfa, to_nfa(f), fleet, task_list)
            if ref is MissionError and whole is not MissionError:
                seen["unknown only beyond the search"] += 1
                continue
            if isinstance(ref, type):
                assert whole is ref, f
                seen[ref] += 1
                continue
            run = reference_shortest_accepting_run(ref)
            assert whole == (run, essential_steps(ref, run)), f
            seen["run"] += 1
            seen["run of 2 or more steps"] += len(run) > 2
    assert min(seen.values()) > 0, seen


def test_planning_at_20_robots_and_10_tasks_reads_the_reference_count_of_tables(monkeypatch):
    """At 20 robots and 10 collaborative tasks the automaton has 640 states and
    the shortest staffable run is one step: planning translates and prunes the
    initial state alone, the count the reference pruning's layers give."""
    sc = generate(seed=7, robots=20, collab=10, grid=(30, 30))
    sc.options.max_assignments = 1
    collaborative = []
    real = framework.on_demand_nfa

    def recording(f, state_cap):
        collaborative.append(real(f, state_cap))
        return collaborative[-1]

    monkeypatch.setattr(framework, "on_demand_nfa", recording)
    report = framework.run_framework(sc)
    assert [row.collab_accepted for row in report.rows] == [True]
    (nfa,) = collaborative
    assert (len(nfa.tables.progressed), len(nfa.tables.residuals)) == (1, 640)
    assert reference_tables_read(to_nfa(sc.parsed_collaborative()), sc.fleet,
                                 sc.collaborative_tasks()) == 1


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
    positions = decomposition_states(nfa, run, essential_steps(nfa, run))
    assert positions == {0, 1, 2}
    mission = build_mission(essential_steps(nfa, run), positions)
    assert len(mission.subsequences) == 2


def _run_via_distinct_steps(nfa):
    """A 2-step accepting run firing one task per step (for decomposition tests)."""
    for mid in range(nfa.n_states):
        for init in sorted(nfa.initial):
            if mid in (init,):
                continue
            if mid not in nfa.successors(init):
                continue
            for acc in sorted(nfa.accepting):
                if acc != mid and acc in nfa.successors(mid):
                    return [init, mid, acc]
    raise AssertionError("expected a 2-step accepting run")


def test_ordering_blocks_decomposition():
    nfa = to_nfa(parse_formula("(!ct2 U ct1) & F ct2"))
    run = shortest_accepting_run(nfa)
    if len(run) < 3:
        run = _run_via_distinct_steps(nfa)
    positions = decomposition_states(nfa, run, essential_steps(nfa, run))
    # interleaving the suffix (ct2) before the prefix (ct1) violates the until
    assert positions == {0, len(run) - 1}
    mission = build_mission(essential_steps(nfa, run), positions)
    assert len(mission.subsequences) == 1


def test_single_step_run_has_endpoints_only():
    nfa = to_nfa(parse_formula("F ct1"))
    run = shortest_accepting_run(nfa)
    assert decomposition_states(nfa, run, essential_steps(nfa, run)) == {0, 1}


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
    mission = build_mission(essential_steps(nfa, run), {0, 2})
    assert mission.subsequences == ((("ct1",),),)


def test_decomposition_positions_validated():
    nfa = to_nfa(parse_formula("F ct1"))
    with pytest.raises(MissionError):
        build_mission(essential_steps(nfa, [0, 1]), {0})


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
        positions = decomposition_states(nfa, run, essential_steps(nfa, run))
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
