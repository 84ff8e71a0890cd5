"""Distributed execution-strategy adjustment over a simulated robot network.

One broadcast message walks the global task order: the latest-arriving robot
of the current task tries to shorten its own arrival; failing that, a token
hands adjustment authority to the earliest robot, which may delay itself
instead.  Every decision is flooded to the whole network before the next
one, so all robots act on the same timelines, and a full cycle without
improvement terminates the protocol.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .errors import LevelDisconnected, ProtocolStuck
from .mission import Occurrence
from .product import PrunedPa, Strategy
from .schedule import CostReport, FoldPlan, Timeline, choice_timeline, compute_time_cost


class NetSim:
    """Complete robot network with deterministic flooding and relaying.

    Messages are counted and traced, not delivered: every robot reads the
    shared planning state, so a message needs only the fields its trace line
    prints.  Every robot is one hop from every other.
    """

    def __init__(self, robot_ids: Iterable[int]):
        self.robots = tuple(sorted(robot_ids))
        self.messages = 0
        self.hops = 0
        self.trace: List[str] = []

    def flood(self, sender: int, current: Optional[Occurrence], count: int, kind: str = "MSG"):
        """Send to every other robot, in id order, one hop away."""
        occ = _occ_str(current)
        for receiver in self.robots:
            if receiver != sender:
                self.messages += 1
                self.trace.append(f"{self.hops + 1} {sender}->{receiver} {kind} "
                                  f"{occ} count={count}")
        # the hop clock also ticks for the last round, which finds no receiver
        self.hops += 2 if len(self.robots) > 1 else 1

    def route(self, source: int, target: int, current: Occurrence, count: int):
        """Relay a token straight to its target (no message when the source holds it)."""
        if source != target:
            self.messages += 1
            self.hops += 1
            self.trace.append(f"{self.hops} {source}->{target} TOKEN "
                              f"{_occ_str(current)} count={count}")


def _occ_str(occ) -> str:
    if occ is None:
        return "-"
    return f"ct({occ[0]},{occ[1]})"


class ProtocolContext:
    """Shared planning state the agents operate on: the assignment's fold plan,
    each robot's pruned product, and its current timeline (with its choice)."""

    def __init__(self, plan: FoldPlan, pruned: Dict[int, PrunedPa],
                 timelines: Dict[int, Timeline]):
        self.plan = plan
        self.pruned = pruned
        self.timelines = timelines


def _carried(ctx: ProtocolContext, fold: tuple, robot: int, occ: Occurrence) -> Tuple[float, float]:
    """The robot's synchronization slack carried into ``occ`` (its previous task's
    folded time less its ideal arrival there) and that ideal arrival; 0.0 for both
    when ``occ`` is its first task."""
    prev = ctx.plan.assignment.previous(robot, occ)
    if prev is None:
        return 0.0, 0.0
    prefix_ideal = ctx.timelines[robot].arrivals[prev]
    return fold[1][ctx.plan.mission.element_index[prev]] - prefix_ideal, prefix_ideal


def select_robot(ctx: ProtocolContext, fold: tuple, occ: Occurrence, latest: bool) -> int:
    """The robot of ``occ`` with the latest (else the earliest) arrival estimate,
    carried slack plus ideal arrival, under ``fold``; ties go to the least id."""
    scores = []
    for r in sorted(ctx.plan.assignment.robots_for(occ)):
        score = _carried(ctx, fold, r, occ)[0] + ctx.timelines[r].arrivals[occ]
        scores.append((-score if latest else score, r))
    return min(scores)[1]


def adjust_strategy(ctx: ProtocolContext, fold: tuple, robot: int, occ: Occurrence,
                    is_latest: bool) -> Optional[tuple]:
    """Try to re-place one collaborative firing; accept the first improvement.

    Keeps the run prefix up to the previous task, reroutes through an
    alternative collaborative state, and continues with the cheapest
    completion.  Acceptance needs both the arrival-side condition (advance
    the latest robot / delay the earliest within the current slack) and a
    strict drop in total cost.  ``fold`` is ``ctx.plan.fold`` of the current
    timelines; each candidate is folded from the first element, and an
    accepted candidate's fold is returned (None when none is accepted).
    """
    plan = ctx.plan
    pruned = ctx.pruned[robot]
    choice = ctx.timelines[robot].choice
    level = plan.assignment.tasks_of(robot).index(occ) + 1
    current_state = choice[level]
    anchor = choice[level - 1]
    slack, prefix_ideal = _carried(ctx, fold, robot, occ)
    t_ideal = ctx.timelines[robot].arrivals[occ]
    t_sync = fold[1][plan.mission.element_index[occ]]
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
        new_timeline = choice_timeline(pruned, list(choice[:level]) + tail)
        trial = plan.fold([new_timeline if r == robot else ctx.timelines[r] for r in plan.robots],
                          len(plan.robots))
        if trial[3] < fold[3]:
            ctx.timelines[robot] = new_timeline
            return trial
    return None


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


def run_protocol(ctx: ProtocolContext) -> ProtocolResult:
    """Execute the adjustment protocol to termination.

    Walks the mission's occurrences in global order; per occurrence the
    latest robot (then, on failure, the earliest) tries to adjust.  A cycle
    boundary with no accepted adjustment terminates.  The cycle count is
    bounded by the total slack over the smallest edge weight (total cost
    strictly decreases per accepted adjustment).
    """
    net = NetSim(ctx.timelines)
    plan = ctx.plan
    order = plan.mission.sorted_occurrences
    # the fold of the current timelines: an accepted trial's fold replaces it
    fold = plan.fold([ctx.timelines[r] for r in plan.robots], len(plan.robots))
    history = [fold[3]]
    cycles = adjustments = 0
    if order:
        ideal_total = sum(tl.completion for tl in ctx.timelines.values())
        min_edge = min(ctx.pruned[r].pa.wts.world.min_weight for r in ctx.pruned)
        bound = int((history[0] - ideal_total) / min_edge) + 2

        for r in net.robots:
            net.flood(r, None, 0)  # initialization: every robot announces its timeline
        net.flood(net.robots[0], order[0], 0)  # kick-off

        count = position = 0
        terminate = False
        while not terminate:
            occ = order[position]
            actor = select_robot(ctx, fold, occ, True)
            trial = adjust_strategy(ctx, fold, actor, occ, True)
            if trial is None:
                earliest = select_robot(ctx, fold, occ, False)
                net.route(actor, earliest, occ, count)
                actor = earliest
                trial = adjust_strategy(ctx, fold, actor, occ, False)
            if trial is not None:
                count += 1
                adjustments += 1
                fold = trial
                history.append(fold[3])
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
    strategies = {r: ctx.pruned[r].expand(ctx.timelines[r].choice) for r in ctx.pruned}
    report = compute_time_cost(ctx.timelines, plan)
    return ProtocolResult(strategies, report, history, cycles, adjustments,
                          net.messages, net.trace)
