"""Allocation constraints, enumeration order and completeness, and the dominance filter."""

import random
import time
from itertools import product

import pytest

from fleetplan import alloc
from fleetplan.alloc import AllocModel, Assignment, check_assignment, dominated, next_assignment
from fleetplan.errors import BudgetExceeded, FleetplanError
from fleetplan.ltl import essential_steps, to_nfa
from fleetplan.mission import (
    Mission,
    build_mission,
    decomposition_states,
    prune_nfa,
    shortest_accepting_run,
)
from fleetplan.scenario import generate
from fleetplan.world import Fleet, Robot, TaskReq

from oracles import ReferenceAllocator, as_bits, reference_check_assignment


def make_fleet(*capability_sets):
    robots = tuple(Robot(i, frozenset(c), "q0_0") for i, c in enumerate(capability_sets))
    caps = tuple(sorted({c for s in capability_sets for c in s}))
    return Fleet(caps, robots)


def make_tasks(reqs):
    return [TaskReq(prop, "q0_0", req) for prop, req in reqs.items()]


def brute_force_solutions(model):
    """All valuations of the assignment variables satisfying constraints (semantic check)."""
    solutions = set()
    n = len(model.robots) * len(model.occurrences)
    for bits in product([False, True], repeat=n):
        assignment = Assignment(model.robots, model.occurrences, as_bits(bits))
        if not check_assignment(model, assignment):
            solutions.add(bits)
    return solutions


def enumerate_all(model, cap=10_000):
    out = []
    while len(out) < cap:
        a = next_assignment(model)
        if a is None:
            break
        out.append(a)
    return out


def test_forced_two_of_two():
    mission = Mission(((("ct1",),),))
    fleet = make_fleet({"c1"}, {"c1"})
    model = AllocModel(mission, fleet, make_tasks({"ct1": {"c1": 2}}))
    solutions = enumerate_all(model)
    assert len(solutions) == 1
    assert solutions[0].robots_for((1, 1)) == frozenset({0, 1})


def test_single_robot_single_task_then_unsat():
    mission = Mission(((("ct1",),),))
    fleet = make_fleet({"c1"})
    model = AllocModel(mission, fleet, make_tasks({"ct1": {"c1": 1}}))
    first = next_assignment(model)
    assert first is not None and first.robots_for((1, 1)) == frozenset({0})
    assert next_assignment(model) is None


def test_two_interchangeable_robots_give_three_assignments():
    mission = Mission(((("ct1",),),))
    fleet = make_fleet({"c1"}, {"c1"})
    model = AllocModel(mission, fleet, make_tasks({"ct1": {"c1": 1}}))
    solutions = enumerate_all(model)
    assert len(solutions) == 3  # r0, r1, and both
    assert next_assignment(model) is None


def test_capacity_infeasible_is_unsat_immediately():
    mission = Mission(((("ct1",),),))
    fleet = make_fleet({"c1"})
    model = AllocModel(mission, fleet, make_tasks({"ct1": {"c1": 2}}))
    assert next_assignment(model) is None


def test_sync_element_excludes_double_booking():
    mission = Mission(((("ct1", "ct2"),),))
    fleet = make_fleet({"c1"}, {"c1"})
    model = AllocModel(mission, fleet, make_tasks({"ct1": {"c1": 1}, "ct2": {"c1": 1}}))
    for assignment in enumerate_all(model):
        assert not (assignment.robots_for((1, 1)) & assignment.robots_for((1, 2))) or \
            assignment.robots_for((1, 1)) != assignment.robots_for((1, 2))
        for r in (0, 1):
            booked = [occ for occ in ((1, 1), (1, 2)) if r in assignment.robots_for(occ)]
            assert len(booked) <= 1


def test_comm_pair_requires_shared_robot():
    mission = Mission(((("ct1",), ("ct2",)),))
    fleet = make_fleet({"c1"}, {"c1"})
    tasks = make_tasks({"ct1": {"c1": 1}, "ct2": {"c1": 1}})
    with_pair = AllocModel(mission, fleet, tasks, comm_pairs=[(1, 1)])
    for assignment in enumerate_all(with_pair):
        assert assignment.robots_for((1, 1)) & assignment.robots_for((1, 2))
    without = AllocModel(mission, fleet, tasks)
    split = [a for a in enumerate_all(without)
             if not (a.robots_for((1, 1)) & a.robots_for((1, 2)))]
    assert split  # without the constraint, disjoint allocations exist


def test_enumeration_matches_brute_force():
    rng = random.Random(5)
    for _ in range(8):
        n_robots = rng.choice([2, 3])
        shapes = [((("ct1",), ("ct2",)),), ((("ct1", "ct2"),),), ((("ct1",),), (("ct2",),))]
        mission = Mission(rng.choice(shapes))
        caps = [frozenset(rng.sample(["c1", "c2"], rng.choice([1, 2]))) for _ in range(n_robots)]
        fleet = make_fleet(*caps)
        tasks = make_tasks({
            "ct1": {"c1": rng.choice([1, 2])},
            "ct2": {rng.choice(["c1", "c2"]): 1},
        })
        comm = [(1, 1)] if rng.random() < 0.4 and mission.consecutive_element_pairs() else []
        model = AllocModel(mission, fleet, tasks, comm_pairs=comm)
        if len(model.robots) * len(model.occurrences) > 12:
            continue
        got = {a.vector for a in enumerate_all(model)}
        expected = brute_force_solutions(AllocModel(mission, fleet, tasks, comm_pairs=comm))
        assert got == {as_bits(bits) for bits in expected}


def test_no_assignment_returned_twice():
    mission = Mission(((("ct1",), ("ct2",)),))
    fleet = make_fleet({"c1"}, {"c1"}, {"c1"})
    model = AllocModel(mission, fleet, make_tasks({"ct1": {"c1": 1}, "ct2": {"c1": 1}}))
    seen = set()
    for assignment in enumerate_all(model):
        assert assignment.vector not in seen
        seen.add(assignment.vector)


def test_dominance_filter_discards_supersets():
    history = [as_bits((True, False, False, True))]
    assert dominated(as_bits((True, False, True, True)), history)
    assert dominated(as_bits((True, False, False, True)), history)  # identical counts as dominated
    assert not dominated(as_bits((False, True, False, True)), history)


def test_dominance_filter_matches_componentwise_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice([4, 6, 8])
        history = [tuple(rng.random() < 0.5 for _ in range(n)) for _ in range(rng.randint(1, 4))]
        cand = tuple(rng.random() < 0.5 for _ in range(n))
        oracle = any(all(c >= h for c, h in zip(cand, hist)) for hist in history)
        assert dominated(as_bits(cand), [as_bits(hist) for hist in history]) == oracle


def random_model(rng):
    """A small model with multi-capability tasks and, sometimes, coordinator pairs."""
    shapes = [((("ct1",), ("ct2",)),), ((("ct1", "ct2"),),), ((("ct1",),), (("ct2",),)),
              ((("ct1",), ("ct2", "ct3")),), ((("ct1", "ct2"), ("ct3",)),)]
    mission = Mission(rng.choice(shapes))
    caps = [frozenset(rng.sample(["c1", "c2"], rng.choice([1, 2])))
            for _ in range(rng.choice([2, 3]))]
    reqs = [{"c1": 1}, {"c1": 2}, {"c2": 1}, {"c1": 1, "c2": 1}]
    props = [p for sub in mission.subsequences for elem in sub for p in elem]
    tasks = make_tasks({p: rng.choice(reqs) for p in props})
    pairs = mission.consecutive_element_pairs()
    comm = pairs if pairs and rng.random() < 0.5 else ()
    return AllocModel(mission, make_fleet(*caps), tasks, comm_pairs=comm)


def test_enumeration_is_lexicographic():
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        model = random_model(rng)
        if len(model.robots) * len(model.occurrences) > 12:
            continue
        checked += 1
        got = [a.vector for a in enumerate_all(model)]
        assert got == [as_bits(bits) for bits in sorted(brute_force_solutions(model))]


def _mission_of(scenario):
    nfa = prune_nfa(to_nfa(scenario.parsed_collaborative()), scenario.fleet,
                    scenario.collaborative_tasks())
    run = shortest_accepting_run(nfa)
    steps = essential_steps(nfa, run)
    return build_mission(steps, decomposition_states(nfa, run, steps))


def test_check_assignment_matches_reference_on_random_vectors():
    """The judge reads bits; its problems, their messages and their order are
    the frozenset judge's, on valid, random and one-bit-off vectors."""
    rng = random.Random(23)
    models = [random_model(rng) for _ in range(40)]
    for seed in range(1000, 1006):
        scenario = generate(seed=seed, robots=4, collab=3, grid=(6, 6), individual_per_robot=1)
        mission, tasks = _mission_of(scenario), scenario.collaborative_tasks()
        for comm in ((), mission.consecutive_element_pairs()):
            models.append(AllocModel(mission, scenario.fleet, tasks, comm))
    kinds = {"lacks": 0, "doubly booked": 0, "no coordinator": 0}
    for model in models:
        valid = [a.vector for a in enumerate_all(model, cap=20)]
        n_x = len(model.robots) * len(model.occurrences)
        vectors = valid + [rng.getrandbits(n_x) for _ in range(20)]
        vectors += [v ^ 1 << rng.randrange(n_x) for v in valid]
        for vector in vectors:
            assignment = Assignment(model.robots, model.occurrences, vector)
            expected = reference_check_assignment(model, assignment)
            assert check_assignment(model, assignment) == expected, (model.comm_pairs, vector)
            for kind in kinds:
                kinds[kind] += any(kind in problem for problem in expected)
    assert any(model.comm_pairs for model in models) and any(not m.comm_pairs for m in models)
    assert all(kinds.values()), kinds


def _sequences(scenario, comm_pairs, limit):
    mission = _mission_of(scenario)
    tasks = scenario.collaborative_tasks()
    model = AllocModel(mission, scenario.fleet, tasks, comm_pairs)
    reference = ReferenceAllocator(mission, scenario.fleet, tasks, comm_pairs)
    got, expected = [], []
    for _ in range(limit):
        a = next_assignment(model)
        got.append(None if a is None else a.vector)
        vector = reference.next_vector()
        expected.append(None if vector is None else as_bits(vector))
        if a is None:
            break
    return got, expected


def test_sequence_matches_reference_dpll_on_generated_fleets():
    for seed in range(1000, 1020):
        scenario = generate(seed=seed, robots=4, collab=3, grid=(6, 6),
                            individual_per_robot=1)
        comm = _mission_of(scenario).consecutive_element_pairs() if seed % 2 else ()
        got, expected = _sequences(scenario, comm, 96)
        assert got == expected, seed


def test_first_solution_matches_reference_dpll_on_large_fleets():
    # criterion-7 structures: 10 robots, 6 collaborative tasks, 60 variables
    for seed in (6005, 6006, 6007):
        scenario = generate(seed=seed, robots=10, collab=6, grid=(20, 20),
                            individual_per_robot=2)
        got, expected = _sequences(scenario, (), 1)
        assert got[0] is not None and got == expected, seed


def test_expired_deadline_raises():
    mission = Mission(((("ct1",),),))
    model = AllocModel(mission, make_fleet({"c1"}, {"c1"}), make_tasks({"ct1": {"c1": 1}}))
    with pytest.raises(BudgetExceeded):
        next_assignment(model, deadline=time.perf_counter() - 1.0)


def deep_model():
    """120 robots and 10 single-task elements in one subsequence, every pair coordinated."""
    mission = Mission((tuple((f"ct{m}",) for m in range(1, 11)),))
    tasks = make_tasks({f"ct{m}": {"c1": 1} for m in range(1, 11)})
    return AllocModel(mission, make_fleet(*[{"c1"}] * 120), tasks,
                      comm_pairs=mission.consecutive_element_pairs())


def test_deep_fleet_yields_its_first_assignments():
    # a search one level deep per (robot, element) decision would overflow the stack here
    model = deep_model()
    every = tuple((1, l) for l in range(1, 11))
    first, second = next_assignment(model), next_assignment(model)
    assert [first.tasks_of(r) for r in (118, 119)] == [(), every]
    assert [second.tasks_of(r) for r in (118, 119)] == [((1, 10),), every]
    assert not any(first.tasks_of(r) or second.tasks_of(r) for r in range(118))


@pytest.mark.parametrize("need", [1, 1100])
def test_too_deep_fleet_allocates_or_ends_with_a_clean_error(need):
    """1,100 robots in one element make the search 1,101 deep.  Whether the
    interpreter's stack holds that differs between Python versions, so either
    outcome passes; a ``RecursionError`` does not."""
    mission = Mission(((("ct1",),),))
    model = AllocModel(mission, make_fleet(*[{"c1"}] * 1100), make_tasks({"ct1": {"c1": need}}))
    try:
        assignment = next_assignment(model)
    except FleetplanError as exc:
        assert "1100 robots + 1 elements" in str(exc)
    else:
        assert assignment.robots_for((1, 1)) == frozenset(range(1100 - need, 1100))


def test_recursion_error_in_the_search_becomes_a_fleetplan_error():
    def too_deep():
        raise RecursionError("maximum recursion depth exceeded")
        yield

    model = deep_model()
    model._solutions = too_deep()
    with pytest.raises(FleetplanError, match="120 robots [+] 10 elements"):
        next_assignment(model)


def test_deadline_raise_inside_the_search_ends_the_enumeration(monkeypatch):
    calls = []

    def stand_in(deadline):  # the first call is next_assignment's entry check
        calls.append(deadline)
        if len(calls) == 2:
            raise BudgetExceeded("budget")

    monkeypatch.setattr(alloc, "check_deadline", stand_in)
    model = deep_model()
    with pytest.raises(BudgetExceeded):
        next_assignment(model)
    assert len(calls) == 2
    assert next_assignment(model) is None
