"""Latest/earliest selection, greedy adjustment, and the full message protocol."""

from fleetplan.alloc import Assignment
from fleetplan.ltl import parse_formula, to_nfa
from fleetplan.mission import Mission
from fleetplan.product import build_local_formula, build_product, prune_product
from fleetplan.protocol import (
    NetSim,
    ProtocolContext,
    adjust_strategy,
    run_protocol,
    select_robot,
)
from fleetplan.schedule import FoldPlan, Timeline, choice_timeline, compute_time_cost, simulate
from fleetplan.world import Fleet, Robot, TaskReq, build_wts, grid_world

from oracles import as_bits


def make_assignment(mission, pairs, robots):
    occs = mission.sorted_occurrences
    vector = [(r, occ) in pairs for r in robots for occ in occs]
    return Assignment(robots, occs, as_bits(vector))


def fold_of(ctx):
    """The fold of the context's current timelines on its plan."""
    plan = ctx.plan
    return plan.fold([ctx.timelines[r] for r in plan.robots], len(plan.robots))


def select_both(mission, assignment, tls, occ):
    """The latest and the earliest robot of ``occ`` under the fold of ``tls``."""
    ctx = ProtocolContext(FoldPlan(mission, assignment), {}, tls)
    fold = fold_of(ctx)
    return select_robot(ctx, fold, occ, True), select_robot(ctx, fold, occ, False)


def test_find_latest_and_earliest_scores():
    mission = Mission(((("ct1",),),))
    assignment = make_assignment(mission, {(0, (1, 1)), (1, (1, 1))}, (0, 1))
    tls = {
        0: Timeline(0, {(1, 1): 7.0}, 9.0, None),
        1: Timeline(1, {(1, 1): 9.0}, 9.0, None),
    }
    assert select_both(mission, assignment, tls, (1, 1)) == (1, 0)


def test_find_latest_breaks_ties_by_lowest_id():
    mission = Mission(((("ct1",),),))
    assignment = make_assignment(mission, {(0, (1, 1)), (1, (1, 1))}, (0, 1))
    tls = {
        0: Timeline(0, {(1, 1): 7.0}, 8.0, None),
        1: Timeline(1, {(1, 1): 7.0}, 8.0, None),
    }
    assert select_both(mission, assignment, tls, (1, 1)) == (0, 0)


def test_find_latest_uses_previous_task_slack():
    """Hand-computed scores with distinct previous tasks (3 robots)."""
    mission = Mission(((("ct1",), ("ct2",), ("ct3",)),))
    pairs = {(0, (1, 1)), (0, (1, 3)), (1, (1, 2)), (1, (1, 3)), (2, (1, 3))}
    assignment = make_assignment(mission, pairs, (0, 1, 2))
    tls = {
        0: Timeline(0, {(1, 1): 2.0, (1, 3): 10.0}, 12.0, None),
        1: Timeline(1, {(1, 2): 6.0, (1, 3): 11.0}, 13.0, None),
        2: Timeline(2, {(1, 3): 9.0}, 9.0, None),
    }
    # ct1 fires at 2 (robot 0 alone); ct2 at 6 (robot 1 alone)
    # scores for ct3: r0 = (2-2) + 10 = 10; r1 = (6-6) + 11 = 11; r2 = 9
    assert select_both(mission, assignment, tls, (1, 3)) == (1, 2)


def two_robot_corridor(ct_positions, starts, extra_tasks=(), formulas=None):
    """Corridor world where both robots collaborate on tasks at given columns."""
    width = max(ct_positions.values()) + 3
    world = grid_world(width, 2)
    fleet = Fleet(("c1",), tuple(
        Robot(r, frozenset({"c1"}), start) for r, start in enumerate(starts)))
    tasks = [TaskReq(p, f"q{x}_0", {"c1": 2}) for p, x in ct_positions.items()]
    for prop, region, owner in extra_tasks:
        tasks.append(TaskReq(prop, region, {"c1": 1}, owner=owner))
    props = sorted(ct_positions)
    mission = Mission((tuple((p,) for p in props),))
    occs = mission.sorted_occurrences
    pairs = {(r, occ) for occ in occs for r in (0, 1)}
    assignment = make_assignment(mission, pairs, (0, 1))
    collab_props = frozenset(props)
    pruned = {}
    timelines = {}
    for r in (0, 1):
        assigned = [(occ, mission.task_of(occ)) for occ in assignment.tasks_of(r)]
        wts = build_wts(world, fleet, tasks, r)
        base = parse_formula((formulas or {}).get(r, "true"))
        phi = build_local_formula(base, assigned)
        pa = build_product(wts, to_nfa(phi), assigned, collab_props)
        pruned[r] = prune_product(pa)
        timelines[r] = choice_timeline(pruned[r], pruned[r].shortest_choice())
    return ProtocolContext(FoldPlan(mission, assignment), pruned, timelines)


def test_protocol_terminates_immediately_without_tasks():
    ctx = two_robot_corridor({"ct1": 2}, ["q0_0", "q0_1"])
    ctx.plan = FoldPlan(Mission(()), make_assignment(Mission(()), set(), (0, 1)))
    result = run_protocol(ctx)
    assert result.cycles == 0
    assert result.adjustments == 0
    assert result.history == [result.report.total]


def test_protocol_converges_and_is_monotone():
    """A robot with a detour option shortens waits; history strictly decreases."""
    ctx = two_robot_corridor(
        {"ct1": 4},
        ["q0_0", "q4_1"],
        extra_tasks=[("ts1", "q1_1", 0)],
        formulas={0: "F ts1"},
    )
    initial_total = compute_time_cost(ctx.timelines, ctx.plan).total
    result = run_protocol(ctx)
    assert result.report.total <= initial_total
    assert all(b < a for a, b in zip(result.history, result.history[1:]))
    ideal = sum(tl.completion for tl in ctx.timelines.values())
    assert result.report.total >= ideal - 1e-9


def test_protocol_stops_after_clean_cycle():
    ctx = two_robot_corridor({"ct1": 2}, ["q0_0", "q0_1"])
    result = run_protocol(ctx)
    assert result.cycles >= 1
    assert result.history[-1] == result.report.total
    # final strategies still satisfy their local automatons
    for r, strategy in result.strategies.items():
        sim_positions = strategy.collab_positions
        assert set(sim_positions) == set(ctx.plan.assignment.tasks_of(r))


def test_adjustment_requires_both_conditions():
    """A candidate that helps the robot but raises the total cost is rejected."""
    ctx = two_robot_corridor({"ct1": 3}, ["q0_0", "q3_1"])
    fold = fold_of(ctx)
    latest = select_robot(ctx, fold, (1, 1), True)
    before = dict(ctx.timelines)
    trial = adjust_strategy(ctx, fold, latest, (1, 1), True)
    if trial is None:
        assert ctx.timelines == before  # unchanged is a legitimate outcome
    else:
        assert trial[3] < fold[3]


def test_protocol_result_matches_simulation():
    ctx = two_robot_corridor(
        {"ct1": 4, "ct2": 6},
        ["q0_0", "q2_1"],
        extra_tasks=[("ts1", "q1_1", 0)],
        formulas={0: "F ts1"},
    )
    result = run_protocol(ctx)
    sim = simulate(result.strategies, ctx.plan.mission, ctx.plan.assignment)
    assert abs(sim.report.total - result.report.total) < 1e-9


def test_protocol_trace_on_complete_topology():
    """Exact trace lines of an adjusting run over the complete network of its
    two robots."""
    ctx = two_robot_corridor(
        {"ct1": 2, "ct2": 5},
        ["q6_1", "q0_1"],
        extra_tasks=[("ts1", "q3_1", 1)],
        formulas={1: "F ts1"},
    )
    result = run_protocol(ctx)
    assert result.history == [20.0, 16.0]
    assert result.trace == [
        "1 0->1 MSG - count=0",
        "3 1->0 MSG - count=0",
        "5 0->1 MSG ct(1,1) count=0",
        "7 0->1 TOKEN ct(1,1) count=0",
        "8 1->0 MSG ct(1,2) count=1",
        "10 0->1 MSG ct(1,1) count=0",
        "12 0->1 MSG ct(1,2) count=0",
        "14 0->1 TERM - count=0",
    ]


def test_protocol_builds_no_fold_plan_and_one_cost_report(monkeypatch):
    """The adjusting run above builds no fold plan (it folds the context's),
    and builds its cost report once, at the end, on that plan."""
    from fleetplan import protocol, schedule

    plans, reports = [], []
    real_report = protocol.compute_time_cost
    real_init = schedule.FoldPlan.__init__
    ctx = two_robot_corridor(
        {"ct1": 2, "ct2": 5},
        ["q6_1", "q0_1"],
        extra_tasks=[("ts1", "q3_1", 1)],
        formulas={1: "F ts1"},
    )
    monkeypatch.setattr(schedule.FoldPlan, "__init__",
                        lambda self, *args: plans.append(args) or real_init(self, *args))
    monkeypatch.setattr(protocol, "compute_time_cost",
                        lambda *args: reports.append(args) or real_report(*args))
    result = run_protocol(ctx)
    assert result.history == [20.0, 16.0] and len(result.trace) == 8
    assert plans == [] and len(reports) == 1 and reports[0][1] is ctx.plan
    assert result.report.total == result.history[-1]


def test_netsim_flood_and_route_count_messages():
    """A flood sends one message to every other robot, in id order, at the next
    hop and ticks the hop clock twice (once for a lone robot); a token goes
    straight to its target, and with no message to the robot holding it."""
    net = NetSim([3, 0, 2, 1])
    net.flood(2, (1, 1), 0)
    assert net.trace == ["1 2->0 MSG ct(1,1) count=0", "1 2->1 MSG ct(1,1) count=0",
                         "1 2->3 MSG ct(1,1) count=0"]
    assert (net.messages, net.hops) == (3, 2)
    net.route(3, 0, (1, 1), 1)
    assert net.trace[3:] == ["3 3->0 TOKEN ct(1,1) count=1"]
    assert (net.messages, net.hops) == (4, 3)
    net.route(1, 1, (1, 2), 1)
    assert (net.messages, net.hops, len(net.trace)) == (4, 3, 4)
    net.flood(0, None, 2, "TERM")
    assert net.trace[4:] == ["4 0->1 TERM - count=2", "4 0->2 TERM - count=2",
                             "4 0->3 TERM - count=2"]
    assert (net.messages, net.hops) == (7, 5)
    lone = NetSim([5])
    lone.flood(5, None, 0)
    lone.flood(5, (1, 1), 0)
    assert (lone.messages, lone.hops, lone.trace) == (0, 2, [])


def test_protocol_timelines_match_expanded_strategies():
    """Pruned-edge arithmetic must agree with the expanded runs it stands for."""
    from oracles import compute_timeline

    ctx = two_robot_corridor(
        {"ct1": 4, "ct2": 6},
        ["q0_0", "q2_1"],
        extra_tasks=[("ts1", "q1_1", 0)],
        formulas={0: "F ts1"},
    )
    result = run_protocol(ctx)
    for r, strategy in result.strategies.items():
        measured = compute_timeline(strategy)
        claimed = ctx.timelines[r]
        assert ctx.pruned[r].expand(claimed.choice) is strategy
        assert measured.completion == claimed.completion
        assert dict(measured.arrivals) == dict(claimed.arrivals)


def test_protocol_deterministic_across_runs():
    def build():
        return two_robot_corridor(
            {"ct1": 4, "ct2": 6},
            ["q0_0", "q2_1"],
            extra_tasks=[("ts1", "q1_1", 0)],
            formulas={0: "F ts1"},
        )

    r1 = run_protocol(build())
    r2 = run_protocol(build())
    assert r1.history == r2.history
    assert r1.messages == r2.messages
    assert {r: s.walk for r, s in r1.strategies.items()} == \
        {r: s.walk for r, s in r2.strategies.items()}
