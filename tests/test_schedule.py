"""Timeline computation, cost folding, and the event simulation."""

import pytest

from fleetplan.alloc import Assignment
from fleetplan.errors import DeadlockDetected, NegativeObligationViolated
from fleetplan.ltl import parse_formula, to_nfa
from fleetplan.mission import Mission
from fleetplan.product import build_local_formula, build_product
from fleetplan.schedule import Timeline, compute_time_cost, simulate
from fleetplan.world import Fleet, Robot, TaskReq, build_wts, grid_world

from oracles import compute_timeline, initial_run


def make_assignment(mission, robot_occ_pairs, robots):
    occurrences = mission.sorted_occurrences
    vector = []
    for r in robots:
        for occ in occurrences:
            vector.append((r, occ) in robot_occ_pairs)
    return Assignment(robots, occurrences, vector)


def timeline(robot, arrivals, completion):
    return Timeline(robot, arrivals, completion)


def test_cost_fold_two_robots_one_task():
    mission = Mission(((("ct1",),),))
    assignment = make_assignment(mission, {(1, (1, 1)), (2, (1, 1))}, (1, 2))
    tls = {
        1: timeline(1, {(1, 1): 5.0}, 10.0),
        2: timeline(2, {(1, 1): 8.0}, 12.0),
    }
    report = compute_time_cost(tls, mission, assignment)
    assert report.task_time((1, 1)) == 8.0
    assert report.delays == {1: 3.0, 2: 0.0}
    assert report.total == (10 + 3) + (12 + 0)


def test_cost_fold_without_collaborations():
    mission = Mission(())
    assignment = make_assignment(mission, set(), (1, 2))
    tls = {1: timeline(1, {}, 7.0), 2: timeline(2, {}, 4.0)}
    report = compute_time_cost(tls, mission, assignment)
    assert report.total == 11.0
    assert all(d == 0 for d in report.delays.values())


def test_cost_fold_chained_lateness():
    # hand trace of the folding pass on a 3-robot chain ct1 -> ct2
    mission = Mission(((("ct1",), ("ct2",)),))
    assignment = make_assignment(
        mission, {(1, (1, 1)), (2, (1, 1)), (2, (1, 2)), (3, (1, 2))}, (1, 2, 3))
    tls = {
        1: timeline(1, {(1, 1): 4.0}, 6.0),
        2: timeline(2, {(1, 1): 2.0, (1, 2): 9.0}, 11.0),
        3: timeline(3, {(1, 2): 5.0}, 8.0),
    }
    report = compute_time_cost(tls, mission, assignment)
    # ct1 fires at max(4, 2) = 4; robot 2 carries delay 2
    # ct2 fires at max(9 + 2, 5) = 11; robot 3 carries delay 6
    assert report.task_time((1, 1)) == 4.0
    assert report.task_time((1, 2)) == 11.0
    assert report.delays == {1: 0.0, 2: 2.0, 3: 6.0}
    assert report.total == 6.0 + (11.0 + 2.0) + (8.0 + 6.0)


def corridor_strategies(length, placements, assignments, formulas=None):
    """Build real strategies on a shared corridor for the given robots."""
    world = grid_world(length, 1)
    robots = tuple(sorted({r for r, _ in assignments}))
    fleet = Fleet(("c1",), tuple(Robot(r, frozenset({"c1"}), f"q{r}_0") for r in robots))
    collab_props = {prop for prop, _region in placements.items() if prop.startswith("ct")}
    tasks = [
        TaskReq(prop, region, {"c1": 1},
                owner=None if prop in collab_props else int(prop.split("_r")[-1]))
        for prop, region in placements.items()
    ]
    strategies = {}
    for r in robots:
        assigned = sorted((occ, prop) for rr, (occ, prop) in assignments if rr == r)
        wts = build_wts(world, fleet, tasks, r)
        base = parse_formula(formulas.get(r, "true")) if formulas else parse_formula("true")
        phi = build_local_formula(base, assigned)
        pa = build_product(wts, to_nfa(phi), assigned, frozenset(collab_props))
        strategies[r] = initial_run(pa)
    return strategies


def test_timeline_prefix_sums():
    strategies = corridor_strategies(
        6, {"ct1": "q3_0"}, [(0, ((1, 1), "ct1"))])
    tl = compute_timeline(strategies[0])
    assert tl.arrival((1, 1)) == 3.0
    assert tl.completion == 3.0


def test_simulation_matches_cost_fold_on_real_plan():
    placements = {"ct1": "q4_0", "ct2": "q2_0"}
    assignments = [
        (0, ((1, 1), "ct1")),
        (1, ((1, 1), "ct1")),
        (1, ((1, 2), "ct2")),
    ]
    strategies = corridor_strategies(6, placements, assignments)
    mission = Mission(((("ct1",), ("ct2",)),))
    assignment = make_assignment(
        mission, {(0, (1, 1)), (1, (1, 1)), (1, (1, 2))}, (0, 1))
    tls = {r: compute_timeline(s) for r, s in strategies.items()}
    report = compute_time_cost(tls, mission, assignment)
    sim = simulate(strategies, mission, assignment)
    assert sim.report.total == report.total
    assert sim.report.task_times == report.task_times
    assert sim.report.delays == report.delays


def test_single_robot_trace_shape():
    world = grid_world(4, 1)
    fleet = Fleet(("c1",), (Robot(0, frozenset({"c1"}), "q0_0"),))
    task = TaskReq("ts1", "q3_0", {"c1": 1}, owner=0)
    wts = build_wts(world, fleet, [task], 0)
    pa = build_product(wts, to_nfa(parse_formula("F ts1")), [], frozenset())
    strategies = {0: initial_run(pa)}
    mission = Mission(())
    assignment = make_assignment(mission, set(), (0,))
    sim = simulate(strategies, mission, assignment)
    kinds = [e.kind for e in sim.events]
    assert kinds.count("MOVE") == 3
    assert kinds.count("TASK") == 1  # the individual task fires on arrival
    assert sim.events[-1].kind == "TASK"
    assert sim.report.total == 3.0


def test_deadlock_detection_on_crossed_orders():
    """Hand-crafted invalid strategies: two robots waiting on each other."""
    placements = {"ct1": "q1_0", "ct2": "q2_0"}
    # robot 0 does ct1 then ct2; robot 1 does ct2 then ct1 -- the assignment is
    # invalid (contradicts the shared (k, l) order) and must deadlock
    s0 = corridor_strategies(4, placements, [(0, ((1, 1), "ct1")), (0, ((1, 2), "ct2"))])[0]
    s1 = corridor_strategies(4, placements, [(1, ((1, 1), "ct2")), (1, ((1, 2), "ct1"))])[1]
    mission = Mission(((("ct1",), ("ct2",)),))
    # remap robot 1's occurrences onto the mission's numbering: it waits for
    # ct2 first even though the mission orders ct1 before ct2
    class Crossed:
        run = s1.run
        robot_id = 1
        step_weights = s1.step_weights
        walk = s1.walk
        emits = s1.emits
        fired = s1.fired
        weight = s1.weight
        collab_positions = {
            (1, 2): s1.collab_positions[(1, 1)],
            (1, 1): s1.collab_positions[(1, 2)],
        }
    assignment = make_assignment(
        mission, {(0, (1, 1)), (0, (1, 2)), (1, (1, 1)), (1, (1, 2))}, (0, 1))
    with pytest.raises(DeadlockDetected):
        simulate({0: s0, 1: Crossed()}, mission, assignment)


def test_negative_obligation_instant_violation():
    """Two independent subsequences whose simultaneous firing is forbidden."""
    mission = Mission(
        ((("ct1",),), (("ct2",),)),
        negative_obligations={(1, 1): frozenset({"ct2"})},
    )
    strategies = {}
    strategies.update(corridor_strategies(3, {"ct1": "q1_0"}, [(0, ((1, 1), "ct1"))]))
    more = corridor_strategies(3, {"ct2": "q2_0"}, [(1, ((2, 1), "ct2"))])
    strategies[1] = more[1]
    assignment = make_assignment(mission, {(0, (1, 1)), (1, (2, 1))}, (0, 1))
    # both robots are one step from their task and fire at t=1 simultaneously
    with pytest.raises(NegativeObligationViolated):
        simulate(strategies, mission, assignment)


def test_sync_element_fires_as_one_barrier():
    """Tasks sharing an element wait for the whole element's robot set."""
    mission = Mission(((("ct1", "ct2"),),))
    strategies = {}
    strategies.update(corridor_strategies(6, {"ct1": "q1_0"}, [(0, ((1, 1), "ct1"))]))
    strategies.update(corridor_strategies(6, {"ct2": "q4_0"}, [(1, ((1, 2), "ct2"))]))
    assignment = make_assignment(mission, {(0, (1, 1)), (1, (1, 2))}, (0, 1))
    sim = simulate(strategies, mission, assignment)
    assert sim.element_sync_ok
    assert sim.fire_times[(1, 1)] == sim.fire_times[(1, 2)] == 3.0
    report = compute_time_cost(
        {r: compute_timeline(s) for r, s in strategies.items()}, mission, assignment)
    assert sim.report.total == report.total
    assert report.delays == {0: 2.0, 1: 0.0}
