"""The outer planning loop: allocation enumeration, local synthesis, adjustment, oracle.

Per feasible assignment the loop synthesizes each robot's initial strategy on
its pruned layered automaton, optionally runs the distributed adjustment and
the exact optimizer, and keeps the best adjusted plan as incumbent.
Previously returned assignments dominate later supersets, which are filtered
before any synthesis work.

A robot's local synthesis depends only on the robot and its assigned
occurrences, and nothing downstream mutates a product, so one cache per run
keeps each such key's automaton and pruned product, or the error it raised.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .alloc import AllocModel, Assignment, check_deadline, dominated, next_assignment
from .errors import (
    BudgetExceeded,
    EmptyLanguage,
    InfeasibleMission,
    LevelDisconnected,
    NoAcceptingPath,
    ScenarioError,
    StateLimitExceeded,
)
from .ltl import Nfa, nfa_accepts, to_nfa
from .milp import solve_exact
from .mission import Mission, build_mission, decomposition_states, prune_nfa, shortest_accepting_run
from .product import PrunedPa, Strategy, build_local_formula, build_product, prune_product
from .protocol import NetSim, ProtocolContext, run_protocol
from .scenario import Scenario
from .schedule import SimResult, choice_timeline, compute_time_cost, local_traces_accepted, simulate
from .world import build_wts


@dataclass
class AssignmentRow:
    index: int
    status: str  # evaluated | filtered | infeasible
    detail: str = ""
    t_init: Optional[float] = None
    t_ideal: Optional[float] = None
    t_adjusted: Optional[float] = None
    oracle_j: Optional[float] = None
    history: List[float] = field(default_factory=list)
    cycles: int = 0
    messages: int = 0
    wall_prune_avg: float = 0.0
    wall_adjust: float = 0.0
    wall_oracle: float = 0.0
    product_states: int = 0
    max_level_width: int = 0
    product_edges: int = 0
    sim_matches: Optional[bool] = None
    collab_accepted: Optional[bool] = None
    locals_accepted: Optional[bool] = None
    element_sync_ok: Optional[bool] = None
    element_order_ok: Optional[bool] = None
    trace_lines: List[str] = field(default_factory=list)


@dataclass
class PlanOutput:
    """Winning plan: strategies, schedule timing, and executable walks."""

    assignment_index: int
    assignment: Assignment
    strategies: Dict[int, Strategy]
    sim: SimResult
    total: float
    pruned_map: Dict[int, PrunedPa]


@dataclass
class RunReport:
    scenario_name: str
    mission: Optional[Mission]
    rows: List[AssignmentRow]
    incumbent: Optional[PlanOutput]
    stopped_because: str
    protocol_trace: List[str] = field(default_factory=list)


def _resolve_comm_pairs(option, mission: Mission):
    if option in (None, "none"):
        return ()
    available = mission.consecutive_element_pairs()
    if option == "all":
        return available
    chosen = {tuple(p) for p in option}
    return tuple(p for p in available if p in chosen)


def run_framework(scenario: Scenario) -> RunReport:
    """Execute the full pipeline on a scenario (the planner's main entry point)."""
    opts = scenario.options
    started = time.perf_counter()
    budget = opts.budget_seconds
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, (int, float))
                               or not 0 <= budget < math.inf):
        raise ScenarioError(f"budget {budget!r} must be a finite number >= 0")
    fleet = scenario.fleet
    tasks = list(scenario.tasks)
    collab_tasks = scenario.collaborative_tasks()
    collab_props = frozenset(t.prop for t in collab_tasks)
    wts = {r: build_wts(scenario.world, fleet, tasks, r) for r in fleet.robot_ids()}

    collab_nfa = to_nfa(scenario.parsed_collaborative(), opts.state_cap)
    try:
        pruned_nfa = prune_nfa(collab_nfa, fleet, collab_tasks)
    except EmptyLanguage as exc:
        raise InfeasibleMission(str(exc)) from None
    run = shortest_accepting_run(pruned_nfa)
    positions = decomposition_states(pruned_nfa, run)
    mission = build_mission(pruned_nfa, run, positions)
    comm_pairs = _resolve_comm_pairs(opts.comm_pairs, mission)

    model = AllocModel(mission, fleet, collab_tasks, comm_pairs)
    rows: List[AssignmentRow] = []
    incumbent: Optional[PlanOutput] = None
    protocol_trace: List[str] = []
    history_vectors: List[Tuple[bool, ...]] = []
    synthesis: Dict[tuple, object] = {}  # (robot, assigned) -> (Nfa, PrunedPa) or error
    deadline = None if budget is None else started + budget
    stopped = "unsat"
    index = 0
    while True:
        if opts.max_assignments is not None and index >= opts.max_assignments:
            stopped = "assignment-cap"
            break
        try:
            assignment = next_assignment(model, deadline)
        except BudgetExceeded:
            stopped = "budget"
            break
        if assignment is None:
            stopped = "unsat"
            break
        row = AssignmentRow(index=index, status="evaluated")
        rows.append(row)
        index += 1
        if dominated(assignment.vector, history_vectors):
            row.status = "filtered"
            history_vectors.append(assignment.vector)
            continue
        history_vectors.append(assignment.vector)
        try:
            plan = _evaluate_assignment(scenario, mission, assignment, wts, collab_props,
                                        synthesis, row, deadline)
        except SYNTHESIS_ERRORS as exc:
            row.status = "infeasible"
            row.detail = str(exc)
            continue
        except BudgetExceeded:
            rows.pop()  # the budget ran out between robots: no partial row
            stopped = "budget"
            break
        row.collab_accepted = nfa_accepts(collab_nfa, plan.sim.global_sequence)
        if incumbent is None or plan.total < incumbent.total:
            incumbent = plan
        protocol_trace.extend(row.trace_lines)
    return RunReport(scenario.name, mission, rows, incumbent, stopped, protocol_trace)


SYNTHESIS_ERRORS = (NoAcceptingPath, LevelDisconnected, StateLimitExceeded)


def _synthesize(scenario: Scenario, r: int, assigned, wts, collab_props, synthesis):
    """Robot ``r``'s local automaton and pruned product, built once per key."""
    key = (r, tuple(assigned))
    if key not in synthesis:
        try:
            nfa = to_nfa(build_local_formula(scenario.parsed_individual(r), assigned),
                         scenario.options.state_cap)
            synthesis[key] = (nfa, prune_product(build_product(wts[r], nfa, assigned, collab_props)))
        except SYNTHESIS_ERRORS as exc:
            synthesis[key] = exc
    if isinstance(synthesis[key], Exception):
        # a fresh traceback each time: the stored one would keep frames alive
        raise synthesis[key].with_traceback(None)
    return synthesis[key]


def _evaluate_assignment(scenario: Scenario, mission: Mission, assignment: Assignment,
                         wts, collab_props, synthesis, row: AssignmentRow,
                         deadline: Optional[float]) -> PlanOutput:
    opts = scenario.options
    fleet = scenario.fleet
    nfas: Dict[int, Nfa] = {}
    pruned_map: Dict[int, PrunedPa] = {}
    choices = {}
    prune_times = []
    for r in sorted(fleet.robot_ids()):
        check_deadline(deadline)
        assigned = [(occ, mission.task_of(occ)) for occ in assignment.tasks_of(r)]
        t0 = time.perf_counter()
        nfas[r], pruned_map[r] = _synthesize(scenario, r, assigned, wts, collab_props, synthesis)
        prune_times.append(time.perf_counter() - t0)
        choices[r] = pruned_map[r].shortest_choice()
    row.wall_prune_avg = sum(prune_times) / len(prune_times)
    stats = [p.size_stats() for p in pruned_map.values()]
    row.product_states = max(s["product_states"] for s in stats)
    row.max_level_width = max(s["max_level_width"] for s in stats)
    row.product_edges = max(s["product_edges"] for s in stats)

    timelines = {r: choice_timeline(pruned_map[r], choices[r]) for r in pruned_map}
    initial_report = compute_time_cost(timelines, mission, assignment)
    row.t_init = initial_report.total
    row.t_ideal = sum(tl.completion for tl in timelines.values())

    if opts.adjust:
        ctx = ProtocolContext(
            mission, assignment, pruned_map, dict(choices), dict(timelines),
            rng=random.Random(opts.seed) if opts.shuffle_candidates else None)
        net = NetSim(sorted(pruned_map))
        check_deadline(deadline)
        t0 = time.perf_counter()
        result = run_protocol(ctx, net)
        row.wall_adjust = time.perf_counter() - t0
        row.history = result.history
        row.cycles = result.cycles
        row.messages = result.messages
        row.trace_lines = result.trace
        strategies = result.strategies
        final_report = result.report
    else:
        strategies = {r: pruned_map[r].expand(choices[r]) for r in pruned_map}
        final_report = initial_report
        row.history = [initial_report.total]
    row.t_adjusted = final_report.total

    check_deadline(deadline)
    sim = simulate(strategies, mission, assignment)
    row.sim_matches = (
        abs(sim.report.total - final_report.total) < 1e-9
        and all(abs(sim.report.task_times[o] - final_report.task_times[o]) < 1e-9
                for o in final_report.task_times)
    )
    row.element_sync_ok = sim.element_sync_ok
    row.element_order_ok = sim.element_order_ok
    row.locals_accepted = all(local_traces_accepted(strategies, nfas).values())

    if opts.oracle:
        t0 = time.perf_counter()
        try:
            exact = solve_exact(pruned_map, mission, assignment, opts.combination_cap, deadline)
            row.oracle_j = exact.objective
        except BudgetExceeded as exc:
            row.detail = f"oracle skipped: {exc}"
        row.wall_oracle = time.perf_counter() - t0
    return PlanOutput(row.index, assignment, strategies, sim, final_report.total, pruned_map)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

METRIC_COLUMNS = [
    "assignment", "status", "detail", "t_init", "t_adjusted", "oracle_j",
    "cycles", "messages", "product_states", "max_level_width", "product_edges",
    "sim_matches", "collab_accepted", "locals_accepted", "element_sync_ok",
    "element_order_ok", "wall_prune_avg", "wall_adjust", "wall_oracle",
]

WALL_COLUMNS = {"wall_prune_avg", "wall_adjust", "wall_oracle"}


def write_metrics_csv(report: RunReport, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for row in report.rows:
            writer.writerow([
                row.index, row.status, row.detail,
                _num(row.t_init), _num(row.t_adjusted), _num(row.oracle_j),
                row.cycles, row.messages, row.product_states,
                row.max_level_width, row.product_edges,
                _flag(row.sim_matches), _flag(row.collab_accepted),
                _flag(row.locals_accepted), _flag(row.element_sync_ok),
                _flag(row.element_order_ok),
                f"{row.wall_prune_avg:.6f}", f"{row.wall_adjust:.6f}",
                f"{row.wall_oracle:.6f}",
            ])


def write_series_csv(report: RunReport, path):
    """Total-cost trajectory per assignment (one row per accepted adjustment)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["assignment", "step", "total_cost"])
        for row in report.rows:
            for step, value in enumerate(row.history):
                writer.writerow([row.index, step, _num(value)])


def write_schedule_json(report: RunReport, path):
    data = {"scenario": report.scenario_name, "stopped": report.stopped_because}
    if report.incumbent is not None:
        plan = report.incumbent
        robots = {}
        for r in sorted(plan.strategies):
            strategy = plan.strategies[r]
            robots[str(r)] = {
                "walk": list(strategy.walk),
                "totalTravel": _num(strategy.weight),
                "delay": _num(plan.sim.report.delays[r]),
                "completion": _num(plan.sim.report.per_robot[r]),
                "collaborations": [
                    {"occurrence": list(occ), "position": pos,
                     "time": _num(plan.sim.fire_times[occ])}
                    for occ, pos in sorted(strategy.collab_positions.items())
                ],
            }
        data.update({
            "assignment": plan.assignment_index,
            "totalCost": _num(plan.total),
            "robots": robots,
            "events": plan.sim.trace_lines(),
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_protocol_trace(report: RunReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        for line in report.protocol_trace:
            fh.write(line + "\n")


def write_reports(report: RunReport, out_dir):
    import os

    os.makedirs(out_dir, exist_ok=True)
    write_metrics_csv(report, os.path.join(out_dir, "metrics.csv"))
    write_series_csv(report, os.path.join(out_dir, "tcolla_series.csv"))
    write_schedule_json(report, os.path.join(out_dir, "schedule.json"))
    write_protocol_trace(report, os.path.join(out_dir, "protocol_trace.txt"))


def _num(value):
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _flag(value):
    return "" if value is None else ("yes" if value else "no")
