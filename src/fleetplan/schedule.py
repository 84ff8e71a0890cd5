"""Timelines, synchronized execution times, and discrete-event validation.

Two independent implementations of the same timing semantics live here: the
closed-form pass (`compute_time_cost`) that folds waits into per-robot delays
task by task, and the event simulation (`simulate`) that moves robots along
their walks and blocks them at collaborations.  Valid plans must get the
same total cost from both.  The protocol and the exact oracle both take
their timelines from `choice_timeline` and their costs from one fold,
`FoldPlan.fold`, which the oracle resumes at every search node.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .alloc import Assignment
from .errors import DeadlockDetected, NegativeObligationViolated
from .mission import Mission, Occurrence
from .product import PrunedPa, Strategy


class Timeline:
    """A robot's ideal arrival times (no waits) and ideal completion time."""

    __slots__ = ("robot_id", "arrivals", "completion")

    def __init__(self, robot_id: int, arrivals: Mapping[Occurrence, float], completion: float):
        self.robot_id = robot_id
        self.arrivals = arrivals
        self.completion = completion

    def __eq__(self, other):
        if type(other) is not Timeline:
            return NotImplemented
        return ((self.robot_id, self.arrivals, self.completion)
                == (other.robot_id, other.arrivals, other.completion))


class CostReport:
    """Synchronized task times, per-robot final delays, and the total cost."""

    __slots__ = ("task_times", "delays", "per_robot", "total")

    def __init__(self, task_times: Mapping[Occurrence, float], delays: Mapping[int, float],
                 per_robot: Mapping[int, float], total: float):
        self.task_times = task_times
        self.delays = delays
        self.per_robot = per_robot
        self.total = total

    def __eq__(self, other):
        if type(other) is not CostReport:
            return NotImplemented
        return ((self.task_times, self.delays, self.per_robot, self.total)
                == (other.task_times, other.delays, other.per_robot, other.total))


def choice_timeline(pruned: PrunedPa, choice: Sequence[int]) -> Timeline:
    """Ideal arrivals induced by a level choice (prefix sums of pruned edges)."""
    arrivals = {}
    total = 0.0
    for li, (a, b) in enumerate(zip(choice, choice[1:])):
        w = pruned.edge_weight(li, a, b)
        total += w
        if li < len(pruned.assigned):
            arrivals[pruned.assigned[li][0]] = total
    return Timeline(pruned.pa.wts.robot_id, arrivals, total)


class FoldPlan:
    """A mission and assignment laid out for the cost fold, robots by position
    in sorted order: ``steps[e]`` has an (occurrence, position) pair per robot
    serving element e, and ``first`` maps a robot to the first it serves."""

    __slots__ = ("robots", "steps", "first")

    def __init__(self, mission: Mission, assignment: Assignment):
        self.robots = tuple(sorted(assignment.robots))
        position = {r: p for p, r in enumerate(self.robots)}
        self.steps = tuple(
            tuple((occ, position[r]) for occ in occs for r in sorted(assignment.robots_for(occ)))
            for occs in map(mission.element_occurrences, mission.elements()))
        # walked backwards, so each robot keeps its first element
        self.first = {p: e for e, pairs in reversed(list(enumerate(self.steps))) for _occ, p in pairs}

    def fold(self, timelines: Sequence[Timeline], fixed: Sequence[bool],
             start: int = 0, prior: Optional[tuple] = None) -> tuple:
        """``compute_time_cost`` by position, ``timelines[p]`` a floor unless ``fixed[p]``:
        ``(trail, times, costs, total)`` are the delays on reaching each element and at
        the end, element times, robot costs and their sum.  From ``start`` it resumes
        ``prior``, a fold that differs only for robots serving no earlier element."""
        trail, times = (prior[0][:start], prior[1][:start]) if prior else ([], [])
        delays = prior[0][start][:] if prior else [0.0] * len(timelines)
        for pairs in self.steps[start:]:
            trail.append(delays[:])
            t = max([timelines[p].arrivals[occ] + delays[p] for occ, p in pairs])
            times.append(t)
            for occ, p in pairs:
                if fixed[p]:
                    delays[p] = t - timelines[p].arrivals[occ]
        trail.append(delays)
        costs = [tl.completion + d for tl, d in zip(timelines, delays)]
        return trail, times, costs, sum(costs)


def compute_time_cost(timelines: Mapping[int, Timeline], mission: Mission,
                      assignment: Assignment) -> CostReport:
    """Fold synchronization waits over the global task order.

    Walks the mission's elements in (k, m) order.  Tasks sharing an element
    are synchronization-coupled and execute together when the last robot of
    the whole element arrives; every participant's delay is then overwritten
    with its accumulated wait.  On singleton elements this is exactly the
    per-task fold (arrival plus carried delay, max over the task's robots).
    """
    plan = FoldPlan(mission, assignment)
    if len(timelines) != len(plan.robots):
        raise ValueError(f"timelines of robots {sorted(timelines)} for {plan.robots}")
    trail, times, costs, total = plan.fold(
        [timelines[r] for r in plan.robots], [True] * len(plan.robots))
    task_times = {occ: t for elem, t in zip(mission.elements(), times)
                  for occ in mission.element_occurrences(elem)}
    return CostReport(task_times, dict(zip(plan.robots, trail[-1])),
                      dict(zip(plan.robots, costs)), total)


class SimEvent:
    __slots__ = ("time", "kind", "robot", "detail")

    def __init__(self, time: float, kind: str, robot: Optional[int], detail: Tuple):
        self.time = time
        self.kind = kind  # "MOVE" or "TASK"
        self.robot = robot
        self.detail = detail

    def format(self) -> str:
        if self.kind == "MOVE":
            src, dst = self.detail
            return f"{_fmt(self.time)} {self.robot} MOVE {src} {dst}"
        props, robots = self.detail
        return (f"{_fmt(self.time)} TASK {'+'.join(sorted(props))} ROBOTS "
                + ",".join(str(r) for r in sorted(robots)))


def _fmt(value: float) -> str:
    return f"{value:g}"


class SimResult:
    def __init__(self, events: List[SimEvent], report: CostReport,
                 fire_times: Dict[Occurrence, float], global_sequence: List[FrozenSet[str]],
                 element_sync_ok: bool, element_order_ok: bool):
        self.events = events
        self.report = report
        self.fire_times = fire_times
        self.global_sequence = global_sequence
        self.element_sync_ok = element_sync_ok
        self.element_order_ok = element_order_ok

    def trace_lines(self) -> List[str]:
        return [e.format() for e in self.events]


def simulate(strategies: Mapping[int, Strategy], mission: Mission,
             assignment: Assignment) -> SimResult:
    """Discrete-event execution of the strategies.

    Robots move asynchronously along their runs and block at collaborative
    positions until every robot of the occurrence is ready; all participants
    then fire together at the latest arrival.  Raises on deadlock and when a
    proposition fires at an instant its element forbids it.  The resulting
    cost report is computed from observed times and must match
    `compute_time_cost` on valid plans.
    """
    robots = sorted(strategies)
    next_pos = {r: 0 for r in robots}  # next run position to arrive at
    clock = {r: 0.0 for r in robots}
    waiting: Dict[int, Occurrence] = {}
    fire_times: Dict[Occurrence, float] = {}
    events: List[SimEvent] = []
    elements = mission.elements()
    members = {
        elem: sorted(
            (r, occ)
            for occ in mission.element_occurrences(elem)
            for r in assignment.robots_for(occ)
        )
        for elem in elements
    }
    collab_at = {
        r: {pos: occ for occ, pos in strategies[r].collab_positions.items()}
        for r in robots
    }

    def advance(r: int):
        """Move robot r forward until it blocks or finishes; emit events."""
        strategy = strategies[r]
        while next_pos[r] < len(strategy.run):
            pos = next_pos[r]
            if pos > 0:
                clock[r] += strategy.step_weights[pos - 1]
                events.append(SimEvent(clock[r], "MOVE", r,
                                       (strategy.walk[pos - 1], strategy.walk[pos])))
            occ = collab_at[r].get(pos)
            individual = strategy.emits[pos] - strategy.fired[pos]
            if individual:
                events.append(SimEvent(clock[r], "TASK", r, (tuple(sorted(individual)), (r,))))
            if occ is not None:
                waiting[r] = occ
                return
            next_pos[r] += 1

    for r in robots:
        advance(r)

    fired_elements = set()
    while any(next_pos[r] < len(strategies[r].run) for r in robots):
        fireable = []
        for elem in elements:
            if elem in fired_elements:
                continue
            pairs = members[elem]
            if pairs and all(waiting.get(r) == occ for r, occ in pairs):
                t = max(clock[r] for r, _occ in pairs)
                fireable.append((t, elem))
        if not fireable:
            blocked = {r: waiting.get(r) for r in robots if next_pos[r] < len(strategies[r].run)}
            raise DeadlockDetected(f"no collaborative element can fire; blocked: {blocked}")
        fireable.sort(key=lambda item: (item[0], item[1]))
        t, elem = fireable[0]
        fired_elements.add(elem)
        pairs = members[elem]
        props = mission.element_tasks(elem)
        for occ in mission.element_occurrences(elem):
            fire_times[occ] = t
        events.append(SimEvent(t, "TASK", None, (tuple(props), tuple(r for r, _o in pairs))))
        for r, _occ in pairs:
            clock[r] = t
            del waiting[r]
            next_pos[r] += 1
            advance(r)

    # negative obligations: a forbidden proposition must not fire at the same
    # instant as the element that forbids it
    by_time: Dict[float, set] = {}
    for occ, t in fire_times.items():
        by_time.setdefault(t, set()).add(mission.task_of(occ))
    for elem in mission.elements():
        forbidden = mission.forbidden_at(elem)
        if not forbidden:
            continue
        for occ in mission.element_occurrences(elem):
            simultaneous = by_time[fire_times[occ]]
            hit = sorted(forbidden & (simultaneous - {mission.task_of(occ)}))
            if hit:
                raise NegativeObligationViolated(hit[0], fire_times[occ], elem)

    # element synchrony / ordering verification (reported, not raised)
    sync_ok = True
    order_ok = True
    for elem in mission.elements():
        times = [fire_times[occ] for occ in mission.element_occurrences(elem)]
        if max(times) != min(times):
            sync_ok = False
    for k, m in mission.consecutive_element_pairs():
        before = max(fire_times[o] for o in mission.element_occurrences((k, m)))
        after = min(fire_times[o] for o in mission.element_occurrences((k, m + 1)))
        if after < before:
            order_ok = False

    global_sequence = [
        frozenset(by_time[t]) for t in sorted(by_time)
    ]
    per_robot = {r: clock[r] for r in robots}
    delays = {r: clock[r] - strategies[r].weight for r in robots}
    task_times = dict(fire_times)
    report = CostReport(task_times, delays, per_robot, sum(per_robot.values()))
    return SimResult(events, report, fire_times, global_sequence, sync_ok, order_ok)
