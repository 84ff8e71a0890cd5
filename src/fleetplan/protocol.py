"""Distributed execution-strategy adjustment over a simulated robot network.

One broadcast message walks the global task order: the latest-arriving robot
of the current task tries to shorten its own arrival; failing that, a token
hands adjustment authority to the earliest robot, which may delay itself
instead.  Every accepted adjustment floods the revised timeline before the
next decision (timeline views stay consistent), and a full cycle without
improvement terminates the protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from .alloc import Assignment
from .errors import LevelDisconnected, ProtocolStuck
from .mission import Mission, Occurrence
from .product import PrunedPa, State, Strategy
from .schedule import CostReport, Timeline, choice_timeline, compute_time_cost
from .search import bfs_layers


@dataclass(frozen=True)
class Msg:
    """Broadcast protocol message."""

    success: bool
    sender: int
    received: frozenset
    timeline: Optional[Timeline]
    current: Optional[Occurrence]
    count: int


@dataclass(frozen=True)
class Token:
    """Directed adjustment authority."""

    source: int
    target: int
    payload: Msg


class NetSim:
    """Connected robot network with deterministic flooding and relaying."""

    def __init__(self, robot_ids: Sequence[int], topology: Optional[Mapping[int, Sequence[int]]] = None):
        self.robots = tuple(sorted(robot_ids))
        if topology is None:
            topology = {r: tuple(x for x in self.robots if x != r) for r in self.robots}
        self.topology = {r: tuple(sorted(topology[r])) for r in self.robots}
        reached = bfs_layers(lambda r: self.topology[r], [self.robots[0]]) if self.robots else {}
        if len(reached) != len(self.robots):
            raise ProtocolStuck("communication topology is not connected")
        self.messages = 0
        self.hops = 0
        self.trace: List[str] = []

    def flood(self, msg: Msg, kind: str = "MSG"):
        """Breadth-first flood from the sender; every robot is informed once.

        Each newly informed robot joins the message's received set and
        forwards to neighbors not yet in it.
        """
        informed = {msg.sender}
        frontier = [msg.sender]
        hop = 0
        while frontier:
            hop += 1
            nxt = []
            for sender in frontier:
                for receiver in self.topology[sender]:
                    if receiver in informed:
                        continue
                    informed.add(receiver)
                    nxt.append(receiver)
                    self.messages += 1
                    self.trace.append(
                        f"{self.hops + hop} {sender}->{receiver} {kind} "
                        f"{_occ_str(msg.current)} count={msg.count}")
            frontier = sorted(nxt)
        self.hops += hop
        return informed

    def route(self, token: Token) -> List[int]:
        """Relay a token along a shortest hop path to its target."""
        if token.source == token.target:
            return [token.source]
        parents = {token.source: None}
        frontier = [token.source]
        while frontier and token.target not in parents:
            nxt = []
            for node in frontier:
                for nbr in self.topology[node]:
                    if nbr not in parents:
                        parents[nbr] = node
                        nxt.append(nbr)
            frontier = sorted(nxt)
        if token.target not in parents:
            raise ProtocolStuck(
                f"token target {token.target} unreachable from {token.source}")
        path = [token.target]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        path.reverse()
        for a, b in zip(path, path[1:]):
            self.messages += 1
            self.hops += 1
            self.trace.append(
                f"{self.hops} {a}->{b} TOKEN {_occ_str(token.payload.current)} "
                f"count={token.payload.count}")
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
        base = report.task_time(prev) - timelines[robot].arrival(prev)
    return base + timelines[robot].arrival(occ)


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


@dataclass
class ProtocolContext:
    """Shared planning state the agents operate on."""

    mission: Mission
    assignment: Assignment
    pruned: Dict[int, PrunedPa]
    choices: Dict[int, List[State]]
    timelines: Dict[int, Timeline]
    rng: Optional[random.Random] = None  # None = deterministic candidate order

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
        slack = report.task_time(prev) - timeline.arrival(prev)
        prefix_ideal = timeline.arrival(prev)
    else:
        slack = 0.0
        prefix_ideal = 0.0
    t_ideal = timeline.arrival(occ)
    t_sync = report.task_time(occ)
    candidates = [s for s in pruned.levels[level] if s != current_state]
    if ctx.rng is not None:
        ctx.rng.shuffle(candidates)
    for candidate in candidates:
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
        trial = dict(ctx.timelines)
        trial[robot] = new_timeline
        cand_report = compute_time_cost(trial, ctx.mission, ctx.assignment)
        if cand_report.total < report.total:
            ctx.choices[robot] = new_choice
            ctx.timelines[robot] = new_timeline
            return True
    return False


@dataclass
class ProtocolResult:
    strategies: Dict[int, Strategy]
    report: CostReport
    history: List[float]
    cycles: int
    adjustments: int
    messages: int
    trace: List[str]


def run_protocol(ctx: ProtocolContext, net: Optional[NetSim] = None,
                 max_cycles: Optional[int] = None) -> ProtocolResult:
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
    report = ctx.report()
    history = [report.total]
    initial_total = report.total
    if not order:
        strategies = {r: ctx.pruned[r].expand(ctx.choices[r]) for r in ctx.pruned}
        return ProtocolResult(strategies, report, history, 0, 0, net.messages, net.trace)

    ideal_total = sum(tl.completion for tl in ctx.timelines.values())
    min_edge = min(ctx.pruned[r].pa.wts.min_edge_weight() for r in ctx.pruned)
    bound = int((initial_total - ideal_total) / min_edge) + 2
    if max_cycles is not None:
        bound = min(bound, max_cycles)

    robots = sorted(ctx.timelines)
    for r in robots:
        # initialization: every robot propagates its timeline
        net.flood(Msg(False, r, frozenset(), ctx.timelines[r], None, 0))
    net.flood(Msg(False, robots[0], frozenset(), None, order[0], 0))  # kick-off

    count = 0
    cycles = 0
    adjustments = 0
    position = 0
    while True:
        occ = order[position]
        report = ctx.report()
        latest = find_latest(occ, ctx.assignment, ctx.timelines, report)
        improved = adjust_strategy(ctx, latest, occ, True, report)
        actor = latest
        if improved:
            count += 1
        else:
            earliest = find_earliest(occ, ctx.assignment, ctx.timelines, report)
            token = Token(latest, earliest,
                          Msg(False, latest, frozenset({latest}),
                              ctx.timelines[latest], occ, count))
            net.route(token)
            improved = adjust_strategy(ctx, earliest, occ, False, report)
            actor = earliest
            if improved:
                count += 1
        if improved:
            adjustments += 1
            history.append(ctx.report().total)
        position += 1
        terminate = False
        if position == len(order):
            # cycle boundary: no accepted adjustment in a full pass ends the protocol
            cycles += 1
            if count == 0:
                terminate = True
            count = 0
            position = 0
            if cycles > bound:
                raise ProtocolStuck(
                    f"protocol exceeded its cycle bound ({bound}); cost history: {history}")
        msg = Msg(improved, actor, frozenset({actor}),
                  ctx.timelines[actor] if improved else None,
                  None if terminate else order[position], count)
        net.flood(msg, "TERM" if terminate else "MSG")
        if terminate:
            break
    strategies = {r: ctx.pruned[r].expand(ctx.choices[r]) for r in ctx.pruned}
    final_report = ctx.report()
    return ProtocolResult(strategies, final_report, history, cycles, adjustments,
                          net.messages, net.trace)
