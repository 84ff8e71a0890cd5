"""Distributed execution-strategy adjustment over a simulated robot network.

One broadcast message walks the global task order: the latest-arriving robot
of the current task tries to shorten its own arrival; failing that, a token
hands adjustment authority to the earliest robot, which may delay itself
instead.  Every decision is flooded to the whole network before the next
one, so all robots act on the same timelines, and a full cycle without
improvement terminates the protocol.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .alloc import Assignment
from .errors import LevelDisconnected, ProtocolStuck
from .mission import Mission, Occurrence
from .product import PrunedPa, Strategy
from .schedule import CostReport, Timeline, choice_timeline, compute_time_cost
from .search import bfs, reconstruct


class NetSim:
    """Connected robot network with deterministic flooding and relaying.

    Messages are counted and traced, not delivered: every robot reads the
    shared planning state, so a message needs only the fields its trace line
    prints.  Each robot's breadth-first search runs once (the topology is fixed).
    """

    def __init__(self, robot_ids: Sequence[int], topology: Optional[Mapping[int, Sequence[int]]] = None):
        self.robots = tuple(sorted(robot_ids))
        if topology is None:
            topology = {r: tuple(x for x in self.robots if x != r) for r in self.robots}
        self.topology = {r: tuple(sorted(topology[r])) for r in self.robots}
        self.searched = {r: bfs(self.topology.__getitem__, [r]) for r in self.robots}
        if self.robots and len(self.searched[self.robots[0]][0]) != len(self.robots):
            raise ProtocolStuck("communication topology is not connected")
        self.messages = 0
        self.hops = 0
        self.trace: List[str] = []

    def flood(self, sender: int, current: Optional[Occurrence], count: int, kind: str = "MSG"):
        """Breadth-first flood from the sender; every robot is informed once,
        by the first neighbor that reaches it."""
        dist, parent = self.searched[sender]
        occ = _occ_str(current)
        for receiver, via in parent.items():
            if via is not None:
                self.messages += 1
                self.trace.append(f"{self.hops + dist[receiver]} {via}->{receiver} {kind} "
                                  f"{occ} count={count}")
        # the hop clock also ticks for the last round, which finds no receiver
        self.hops += max(dist.values()) + 1

    def route(self, source: int, target: int, current: Occurrence, count: int) -> List[int]:
        """Relay a token along a shortest hop path to its target."""
        path = reconstruct(self.searched[source][1], target)
        for a, b in zip(path, path[1:]):
            self.messages += 1
            self.hops += 1
            self.trace.append(f"{self.hops} {a}->{b} TOKEN {_occ_str(current)} count={count}")
        return path


def _occ_str(occ) -> str:
    if occ is None:
        return "-"
    return f"ct({occ[0]},{occ[1]})"


def _score(robot: int, occ: Occurrence, assignment: Assignment,
           timelines: Mapping[int, Timeline], report: CostReport) -> float:
    """Actual arrival estimate: prior synchronization slack plus ideal arrival."""
    prev = assignment.previous(robot, occ)
    base = 0.0
    if prev is not None:
        base = report.task_times[prev] - timelines[robot].arrivals[prev]
    return base + timelines[robot].arrivals[occ]


def find_latest(occ: Occurrence, assignment: Assignment,
                timelines: Mapping[int, Timeline], report: CostReport) -> int:
    robots = sorted(assignment.robots_for(occ))
    scores = [(-_score(r, occ, assignment, timelines, report), r) for r in robots]
    return min(scores)[1]


def find_earliest(occ: Occurrence, assignment: Assignment,
                  timelines: Mapping[int, Timeline], report: CostReport) -> int:
    robots = sorted(assignment.robots_for(occ))
    scores = [(_score(r, occ, assignment, timelines, report), r) for r in robots]
    return min(scores)[1]


class ProtocolContext:
    """Shared planning state the agents operate on."""

    def __init__(self, mission: Mission, assignment: Assignment, pruned: Dict[int, PrunedPa],
                 choices: Dict[int, List[int]], timelines: Dict[int, Timeline]):
        self.mission = mission
        self.assignment = assignment
        self.pruned = pruned
        self.choices = choices
        self.timelines = timelines

    def report(self) -> CostReport:
        return compute_time_cost(self.timelines, self.mission, self.assignment)


def adjust_strategy(ctx: ProtocolContext, robot: int, occ: Occurrence,
                    is_latest: bool, report: CostReport) -> bool:
    """Try to re-place one collaborative firing; accept the first improvement.

    Keeps the run prefix up to the previous task, reroutes through an
    alternative collaborative state, and continues with the cheapest
    completion.  Acceptance needs both the arrival-side condition (advance
    the latest robot / delay the earliest within the current slack) and a
    strict drop in total cost.
    """
    pruned = ctx.pruned[robot]
    choice = ctx.choices[robot]
    level = next(i for i, (o, _p) in enumerate(pruned.assigned) if o == occ) + 1
    current_state = choice[level]
    anchor = choice[level - 1]
    timeline = ctx.timelines[robot]
    prev = ctx.assignment.previous(robot, occ)
    if prev is not None:
        slack = report.task_times[prev] - timeline.arrivals[prev]
        prefix_ideal = timeline.arrivals[prev]
    else:
        slack = 0.0
        prefix_ideal = 0.0
    t_ideal = timeline.arrivals[occ]
    t_sync = report.task_times[occ]
    for candidate in pruned.levels[level]:
        if candidate == current_state:
            continue
        w = pruned.edge_weight(level - 1, anchor, candidate)
        if w is None:
            continue
        t_prime = prefix_ideal + w
        arrival_estimate = slack + t_prime
        if is_latest:
            if not arrival_estimate < t_ideal:
                continue
        else:
            if not (t_ideal < arrival_estimate <= t_sync):
                continue
        try:
            tail = pruned.best_chain_from(level, candidate)
        except LevelDisconnected:
            continue
        new_choice = list(choice[:level]) + tail
        new_timeline = choice_timeline(pruned, new_choice)
        cand_report = compute_time_cost({**ctx.timelines, robot: new_timeline},
                                        ctx.mission, ctx.assignment)
        if cand_report.total < report.total:
            ctx.choices[robot] = new_choice
            ctx.timelines[robot] = new_timeline
            return True
    return False


class ProtocolResult:
    def __init__(self, strategies: Dict[int, Strategy], report: CostReport, history: List[float],
                 cycles: int, adjustments: int, messages: int, trace: List[str]):
        self.strategies = strategies
        self.report = report
        self.history = history
        self.cycles = cycles
        self.adjustments = adjustments
        self.messages = messages
        self.trace = trace


def run_protocol(ctx: ProtocolContext, net: Optional[NetSim] = None) -> ProtocolResult:
    """Execute the adjustment protocol to termination.

    Walks the mission's occurrences in global order; per occurrence the
    latest robot (then, on failure, the earliest) tries to adjust.  A cycle
    boundary with no accepted adjustment terminates.  The cycle count is
    bounded by the total slack over the smallest edge weight (total cost
    strictly decreases per accepted adjustment).
    """
    if net is None:
        net = NetSim(sorted(ctx.timelines))
    order = ctx.mission.sorted_occurrences
    report = ctx.report()  # refolded only when an adjustment is accepted
    history = [report.total]
    cycles = adjustments = 0
    if order:
        ideal_total = sum(tl.completion for tl in ctx.timelines.values())
        min_edge = min(ctx.pruned[r].pa.wts.world.min_weight for r in ctx.pruned)
        bound = int((history[0] - ideal_total) / min_edge) + 2

        robots = sorted(ctx.timelines)
        for r in robots:
            net.flood(r, None, 0)  # initialization: every robot announces its timeline
        net.flood(robots[0], order[0], 0)  # kick-off

        count = position = 0
        terminate = False
        while not terminate:
            occ = order[position]
            actor = find_latest(occ, ctx.assignment, ctx.timelines, report)
            improved = adjust_strategy(ctx, actor, occ, True, report)
            if not improved:
                earliest = find_earliest(occ, ctx.assignment, ctx.timelines, report)
                net.route(actor, earliest, occ, count)
                actor = earliest
                improved = adjust_strategy(ctx, actor, occ, False, report)
            if improved:
                count += 1
                adjustments += 1
                report = ctx.report()
                history.append(report.total)
            position += 1
            if position == len(order):
                # cycle boundary: no accepted adjustment in a full pass ends the protocol
                cycles += 1
                terminate = count == 0
                count = 0
                position = 0
                if cycles > bound:
                    raise ProtocolStuck(
                        f"protocol exceeded its cycle bound ({bound}); cost history: {history}")
            net.flood(actor, None if terminate else order[position], count,
                      "TERM" if terminate else "MSG")
    strategies = {r: ctx.pruned[r].expand(ctx.choices[r]) for r in ctx.pruned}
    return ProtocolResult(strategies, report, history, cycles, adjustments,
                          net.messages, net.trace)
