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
import time
from typing import Dict, List, Optional, Tuple

from .alloc import AllocModel, Assignment, check_deadline, dominated, next_assignment
from .errors import (
    BudgetExceeded,
    EmptyLanguage,
    InfeasibleMission,
    LevelDisconnected,
    NegativeObligationViolated,
    NoAcceptingPath,
    StateLimitExceeded,
)
from .ltl import Nfa, nfa_accepts, to_nfa
from .milp import solve_exact
from .mission import Mission, build_mission, decomposition_states, prune_nfa, shortest_accepting_run
from .product import PrunedPa, Strategy, build_local_formula, build_product, prune_product
from .protocol import NetSim, ProtocolContext, run_protocol
from .scenario import Scenario
from .schedule import SimResult, choice_timeline, compute_time_cost, simulate
from .world import build_wts


class AssignmentRow:
    """One assignment's outcome; ``write_metrics_csv`` reads its columns from ``vars``."""

    def __init__(self, index: int, status: str, detail: str = ""):
        self.index = index
        self.status = status  # evaluated | filtered | infeasible
        self.detail = detail
        self.t_init: Optional[float] = None
        self.t_ideal: Optional[float] = None
        self.t_adjusted: Optional[float] = None
        self.oracle_j: Optional[float] = None
        self.history: List[float] = []
        self.cycles = 0
        self.messages = 0
        self.wall_prune_avg = 0.0
        self.wall_adjust = 0.0
        self.wall_oracle = 0.0
        self.product_states = 0
        self.max_level_width = 0
        self.product_edges = 0
        self.sim_matches: Optional[bool] = None
        self.collab_accepted: Optional[bool] = None
        self.locals_accepted: Optional[bool] = None
        self.element_sync_ok: Optional[bool] = None
        self.element_order_ok: Optional[bool] = None
        self.trace_lines: List[str] = []


class PlanOutput:
    """Winning plan: strategies, schedule timing, and executable walks."""

    def __init__(self, assignment_index: int, assignment: Assignment,
                 strategies: Dict[int, Strategy], sim: SimResult, total: float,
                 pruned_map: Dict[int, PrunedPa]):
        self.assignment_index = assignment_index
        self.assignment = assignment
        self.strategies = strategies
        self.sim = sim
        self.total = total
        self.pruned_map = pruned_map


class RunReport:
    def __init__(self, scenario_name: str, mission: Optional[Mission], rows: List[AssignmentRow],
                 incumbent: Optional[PlanOutput], stopped_because: str,
                 protocol_trace: Optional[List[str]] = None):
        self.scenario_name = scenario_name
        self.mission = mission
        self.rows = rows
        self.incumbent = incumbent
        self.stopped_because = stopped_because
        self.protocol_trace = [] if protocol_trace is None else protocol_trace


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
    opts.validate()
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
    deadline = None if opts.budget_seconds is None else started + opts.budget_seconds
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
            row.status = "filtered"  # not kept: what dominates it dominates a kept vector
            continue
        history_vectors.append(assignment.vector)
        try:
            plan = _evaluate_assignment(scenario, mission, assignment, wts, collab_props,
                                        synthesis, row, deadline)
        except (*SYNTHESIS_ERRORS, NegativeObligationViolated) as exc:
            rows[-1] = AssignmentRow(index=row.index, status="infeasible", detail=str(exc))
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
    row.t_ideal = sum(tl.completion for tl in timelines.values())

    if opts.adjust:
        ctx = ProtocolContext(mission, assignment, pruned_map, dict(choices), dict(timelines))
        net = NetSim(sorted(pruned_map))
        check_deadline(deadline)
        t0 = time.perf_counter()
        result = run_protocol(ctx, net)
        row.wall_adjust = time.perf_counter() - t0
        row.t_init = result.history[0]  # the protocol folds the initial timelines
        row.history = result.history
        row.cycles = result.cycles
        row.messages = result.messages
        row.trace_lines = result.trace
        strategies = result.strategies
        final_report = result.report
    else:
        strategies = {r: pruned_map[r].expand(choices[r]) for r in pruned_map}
        final_report = compute_time_cost(timelines, mission, assignment)
        row.t_init = final_report.total
        row.history = [final_report.total]
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
    row.locals_accepted = all(nfa_accepts(nfas[r], strategies[r].emits) for r in strategies)

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
            values = {**vars(row), "assignment": row.index}
            writer.writerow([_cell(column, values[column]) for column in METRIC_COLUMNS])


def _cell(column: str, value):
    """Walls to six decimals, flags as yes/no, everything else as ``_num``."""
    if column in WALL_COLUMNS:
        return f"{value:.6f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return _num(value)


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
