"""Collaborative task allocation: every solution once, in lexicographic order.

The assignment variables are robot-major, ``x[r_i * n_occ + o_i]``, and an
element's occurrences are consecutive.  For each robot in id order and each
element in (k, m) order, the search decides which occurrence of the element
the robot serves, if any: none first, then the occurrences from last to
first.  That is increasing lexicographic order of the robot's variables
(false < true), and no robot serves two occurrences of one element.  One
generator per robot drives a chain of generators over the robot's elements,
so the search is robots + elements deep.  It keeps its state between calls,
and successive calls return the satisfying vectors in increasing
lexicographic order, each exactly once.

A branch is cut as soon as one element can no longer be staffed: each later
robot serves at most one occurrence of it and counts toward every required
capability it holds.  The test is exact and memoised on the element's
residual demand and first later robot; elements share no variables, so
without coordinator pairs no surviving branch is a dead end.  The last
robot's choices are cut once no robot can still be in both elements of a
coordinator pair, which is exact once the pair's later element is decided.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from .errors import BudgetExceeded, FleetplanError
from .mission import Mission, Occurrence
from .world import Fleet, TaskReq

DEADLINE_EVERY = 256  # options tried between deadline checks


class Assignment:
    """One satisfying allocation: which robot serves which task occurrence."""

    def __init__(self, robots: Sequence[int], occurrences: Sequence[Occurrence],
                 vector: Sequence[bool]):
        self.robots = tuple(robots)
        self.occurrences = tuple(occurrences)
        self.vector = tuple(vector)
        n_occ = len(self.occurrences)
        self._by_robot: Dict[int, Tuple[Occurrence, ...]] = {}
        self._previous: Dict[Tuple[int, Occurrence], Optional[Occurrence]] = {}
        by_occ: Dict[Occurrence, list] = {occ: [] for occ in self.occurrences}
        for i, robot in enumerate(self.robots):
            mine = tuple(sorted(occ for j, occ in enumerate(self.occurrences)
                                if self.vector[i * n_occ + j]))
            self._by_robot[robot] = mine
            for prev, occ in zip((None,) + mine, mine):
                by_occ[occ].append(robot)
                self._previous[(robot, occ)] = prev
        self._by_occ = {occ: frozenset(rs) for occ, rs in by_occ.items()}

    def tasks_of(self, robot: int) -> Tuple[Occurrence, ...]:
        """The robot's occurrences in increasing (k, l) order."""
        return self._by_robot.get(robot, ())

    def robots_for(self, occ: Occurrence) -> FrozenSet[int]:
        return self._by_occ[occ]

    def previous(self, robot: int, occ: Occurrence) -> Optional[Occurrence]:
        """The robot's occurrence just before ``occ`` (which it serves), or None."""
        return self._previous[(robot, occ)]

    def __eq__(self, other):
        return isinstance(other, Assignment) and self.vector == other.vector

    def __hash__(self):
        return hash(self.vector)

    def __repr__(self):
        pairs = [f"r{r}:{list(self.tasks_of(r))}" for r in self.robots if self.tasks_of(r)]
        return "Assignment(" + ", ".join(pairs) + ")"


class AllocModel:
    """The allocation constraints and the state of their resumable enumeration."""

    def __init__(self, mission: Mission, fleet: Fleet, tasks: Sequence[TaskReq],
                 comm_pairs: Iterable[Tuple[int, int]] = ()):
        self.mission = mission
        self.fleet = fleet
        self.tasks = {t.prop: t for t in tasks}
        self.comm_pairs = tuple(sorted(comm_pairs))
        self.robots = tuple(sorted(fleet.robot_ids()))
        self.occurrences = mission.sorted_occurrences
        self.n_x = len(self.robots) * len(self.occurrences)
        self.deadline: Optional[float] = None
        elements = list(mission.elements())
        index = {occ: j for j, occ in enumerate(self.occurrences)}
        fleet_robots = sorted(fleet.robots, key=lambda rb: rb.robot_id)
        # per element: its occurrences' variable offsets, demand slots (one
        # per required capability of each occurrence), each occurrence's
        # slot range, a 0/1 mask per robot i and occurrence of the slots it
        # fills there, and how many robots from i on hold each slot's capability
        self._columns, self._demand, self._spans, self._hits, self._supply = [], [], [], [], []
        for elem in elements:
            occs = mission.element_occurrences(elem)
            slots, demand, spans = [], [], []  # a slot is (occurrence, capability)
            for a, occ in enumerate(occs):
                reqs = self.tasks[mission.task_of(occ)].requirements
                spans.append((len(slots), len(slots) + len(reqs)))
                slots.extend((a, cap) for cap in sorted(reqs))
                demand.extend(reqs[cap] for cap in sorted(reqs))
            self._columns.append([index[occ] for occ in occs])
            self._demand.append(tuple(demand))
            self._spans.append(spans)
            self._hits.append([
                [tuple(int(b == a and cap in robot.capabilities) for b, cap in slots)
                 for a in range(len(occs))]
                for robot in fleet_robots])
            self._supply.append([
                [sum(cap in rb.capabilities for rb in fleet_robots[i:])
                 for i in range(len(fleet_robots) + 1)]
                for _a, cap in slots])
        position = {elem: e for e, elem in enumerate(elements)}
        # (earlier, later) element positions, as elements are in (k, m) order
        self._pairs = [(position[(k, m)], position[(k, m + 1)]) for k, m in self.comm_pairs]
        self._memo: Dict[tuple, bool] = {}
        self._solutions = self._search()

    def _feasible(self, e: int, resid: Tuple[int, ...], i: int) -> bool:
        """Whether robots ``i..``, each serving at most one occurrence of
        element ``e``, can still meet its residual demand."""
        key = (e, resid, i)
        known = self._memo.get(key)
        if known is None:
            known = not any(resid)
            # necessary: enough holders per capability, and enough robots
            # to give every occurrence its largest residual count
            if not known and all(need <= supply[i] for need, supply in
                                 zip(resid, self._supply[e])) \
                    and sum(max(resid[lo:hi]) for lo, hi in self._spans[e]) \
                    <= len(self.robots) - i:
                for mask in self._hits[e][i]:
                    left = tuple([n - (n and m) for n, m in zip(resid, mask)])
                    if left != resid and self._feasible(e, left, i + 1):
                        known = True
                        break
                else:
                    known = self._feasible(e, resid, i + 1)
            self._memo[key] = known
        return known

    def _search(self):
        """Generator of the satisfying vectors in lexicographic order."""
        n_occ, n_elements, last = len(self.occurrences), len(self._demand), len(self.robots) - 1
        feasible, pairs = self._feasible, self._pairs
        resid = list(self._demand)
        members = [0] * n_elements  # per element, a bit per robot serving it
        x = [False] * self.n_x
        tried = 0
        if not all(feasible(e, d, 0) for e, d in enumerate(self._demand)):
            return

        def place(r, e):
            """Robot ``r``'s choices for elements ``e..``, in lexicographic order."""
            nonlocal tried
            if e == n_elements:
                yield
                return
            row, masks, bit = resid[e], self._hits[e][r], 1 << r
            cols, base = self._columns[e], r * n_occ
            for a in (None, *range(len(masks) - 1, -1, -1)):
                tried += 1
                if tried % DEADLINE_EVERY == 0:
                    check_deadline(self.deadline)
                if a is not None:
                    resid[e] = tuple([n - (n and m) for n, m in zip(row, masks[a])])
                    q = base + cols[a]
                    x[q] = True
                    members[e] |= bit
                # the last robot can still join every element after e
                if feasible(e, resid[e], r + 1) and (r < last or all(
                        members[f] & (members[g] | (bit if g > e else 0))
                        for f, g in pairs if f <= e)):
                    yield from place(r, e + 1)
                if a is not None:
                    x[q] = False
            resid[e] = row
            members[e] &= ~bit

        def robot(r):
            """Every choice of robots ``r..`` that completes the fixed ones."""
            for _ in place(r, 0):
                yield from robot(r + 1) if r < last else (tuple(x),)

        yield from robot(0)


def check_deadline(deadline: Optional[float]) -> None:
    """Raise ``BudgetExceeded("budget")`` once a ``time.perf_counter()`` deadline has passed."""
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceeded("budget")


def next_assignment(model: AllocModel, deadline: Optional[float] = None) -> Optional[Assignment]:
    """The next satisfying assignment in lexicographic order, or None when exhausted.

    ``deadline`` is checked on entry and every ``DEADLINE_EVERY`` options
    the search tries (see ``check_deadline``); a raise from inside the search
    ends the model's enumeration.  A search deeper than the interpreter's
    stack allows ends it with a ``FleetplanError``.
    """
    check_deadline(deadline)
    model.deadline = deadline
    try:
        vector = next(model._solutions, None)
    except RecursionError:
        raise FleetplanError(f"allocation search too deep for the interpreter's stack: "
                             f"{len(model.robots)} robots + {len(model._demand)} elements") from None
    if vector is None:
        return None
    assignment = Assignment(model.robots, model.occurrences, vector)
    problems = check_assignment(model, assignment)
    if problems:
        raise FleetplanError(f"solver returned an invalid assignment: {problems}")
    return assignment


def check_assignment(model: AllocModel, assignment: Assignment) -> list[str]:
    """Semantic re-verification of the allocation constraints (solver-independent)."""
    problems = []
    for occ in model.occurrences:
        task = model.tasks[model.mission.task_of(occ)]
        staffed = assignment.robots_for(occ)
        for cap, count in sorted(task.requirements.items()):
            holders = model.fleet.with_capability(cap)
            if len(staffed & holders) < count:
                problems.append(f"occurrence {occ} lacks {count} robots with {cap}")
    for elem in model.mission.elements():
        occs = model.mission.element_occurrences(elem)
        for r in model.robots:
            hits = [occ for occ in occs if r in assignment.robots_for(occ)]
            if len(hits) > 1:
                problems.append(f"robot {r} doubly booked in element {elem}: {hits}")
    for k, m in model.comm_pairs:
        first = model.mission.element_occurrences((k, m))
        second = model.mission.element_occurrences((k, m + 1))
        lhs = set().union(*(assignment.robots_for(o) for o in first))
        rhs = set().union(*(assignment.robots_for(o) for o in second))
        if not lhs & rhs:
            problems.append(f"no coordinator between elements {(k, m)} and {(k, m + 1)}")
    return problems


def dominated(candidate: Sequence[bool], history: Iterable[Sequence[bool]]) -> bool:
    """Componentwise dominance: the candidate assigns a superset to every robot."""
    cand = tuple(candidate)
    for past in history:
        if all(c >= p for c, p in zip(cand, past)):
            return True
    return False
