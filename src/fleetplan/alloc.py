"""Collaborative task allocation: every solution once, in lexicographic order.

The assignment variables are robot-major, ``x[r_i * n_occ + o_i]``.  A
depth-first search decides them in index order, false before true, and keeps
its stack between calls, so successive calls return the satisfying vectors in
increasing lexicographic order (false < true), each exactly once.

A branch is cut as soon as one synchronized element can no longer be staffed:
each undecided robot serves at most one occurrence of it and counts toward
every required capability it holds.  The test is exact and memoised on the
element's residual demand and first undecided robot; elements share no
variables, so without coordinator pairs no surviving branch is a dead end.
A coordinator pair is cut once no robot can still be in both elements, and
every leaf re-checks the pairs exactly.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from .errors import BudgetExceeded, FleetplanError
from .mission import Mission, Occurrence
from .world import Fleet, TaskReq

DEADLINE_EVERY = 256  # search nodes between deadline checks


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
        # per element: demand slots (one per required capability of each
        # occurrence), which slots robot i fills at its a-th occurrence, how
        # many robots from i on hold each slot's capability, each
        # occurrence's slot range, and the index of its last occurrence
        self._demand, self._hits, self._supply, self._spans, self._last = [], [], [], [], []
        self._where = [None] * len(self.occurrences)  # occurrence -> (element, local index)
        for e, elem in enumerate(elements):
            occs = mission.element_occurrences(elem)
            demand, slots = [], []
            for a, occ in enumerate(occs):
                self._where[index[occ]] = (e, a)
                reqs = self.tasks[mission.task_of(occ)].requirements
                slots.append([(len(demand) + s, cap) for s, cap in enumerate(sorted(reqs))])
                demand.extend(reqs[cap] for cap in sorted(reqs))
            self._demand.append(tuple(demand))
            self._hits.append([
                [tuple(s for s, cap in occ_slots if cap in robot.capabilities)
                 for occ_slots in slots]
                for robot in fleet_robots])
            self._supply.append([
                [sum(cap in rb.capabilities for rb in fleet_robots[i:])
                 for i in range(len(fleet_robots) + 1)]
                for occ_slots in slots for _s, cap in occ_slots])
            self._spans.append([(occ_slots[0][0], occ_slots[-1][0] + 1)
                                for occ_slots in slots if occ_slots])
            self._last.append(index[occs[-1]])
        position = {elem: e for e, elem in enumerate(elements)}
        self._pairs = [(position[(k, m)], position[(k, m + 1)]) for k, m in self.comm_pairs]
        self._pairs_of = [[pair for pair in self._pairs if e in pair]
                          for e in range(len(elements))]
        self._memo: Dict[tuple, bool] = {}
        self._solutions = self._search()

    def _feasible(self, e: int, resid: Tuple[int, ...], i: int, a: int) -> bool:
        """Whether robots ``i..`` can still meet element ``e``'s residual demand.

        Robot ``i`` may take only the element's occurrences from local index
        ``a`` on; later robots may take any.  Each takes at most one.
        """
        key = (e, resid, i, a)
        known = self._memo.get(key)
        if known is None:
            known = not any(resid)
            # necessary: enough holders per capability, and enough robots
            # to give every occurrence its largest residual count
            if not known and all(need <= supply[i] for need, supply in
                                 zip(resid, self._supply[e])) \
                    and sum(max(resid[lo:hi]) for lo, hi in self._spans[e]) \
                    <= len(self.robots) - i:
                for hits in self._hits[e][i][a:]:
                    useful = [s for s in hits if resid[s]]
                    if useful:
                        left = list(resid)
                        for s in useful:
                            left[s] -= 1
                        if self._feasible(e, tuple(left), i + 1, 0):
                            known = True
                            break
                else:
                    known = self._feasible(e, resid, i + 1, 0)
            self._memo[key] = known
        return known

    def _search(self):
        """Generator of the satisfying vectors in lexicographic order."""
        n_occ, n_robots = len(self.occurrences), len(self.robots)
        resid = [list(d) for d in self._demand]
        booked = [[False] * n_robots for _ in self._demand]
        undo = [()] * self.n_x  # demand slots filled by each true decision
        x = [False] * self.n_x
        if not all(self._feasible(e, tuple(d), 0, 0) for e, d in enumerate(self._demand)):
            return

        def unbook(q):  # undo the true decision at position q
            r, j = divmod(q, n_occ)
            e = self._where[j][0]
            booked[e][r] = False
            for s in undo[q]:
                resid[e][s] += 1

        p, value, nodes = 0, False, 0
        while True:
            if p == self.n_x:  # a leaf: some robot must be booked in both elements of each pair
                if all(any(map(min, booked[e1], booked[e2])) for e1, e2 in self._pairs):
                    yield tuple(x)
            else:
                nodes += 1
                if nodes % DEADLINE_EVERY == 0:
                    check_deadline(self.deadline)
                r, j = divmod(p, n_occ)
                e, a = self._where[j]
                if not (value and booked[e][r]):  # one occurrence per element
                    if value:
                        booked[e][r] = True
                        undo[p] = tuple(s for s in self._hits[e][r][a] if resid[e][s])
                        for s in undo[p]:
                            resid[e][s] -= 1
                    done = booked[e][r] or j == self._last[e]  # r is through with e
                    if self._feasible(e, tuple(resid[e]), r + done, 0 if done else a + 1) \
                            and (r < n_robots - 1 or self._pairs_open(e, booked, r, j)):
                        x[p] = value
                        p, value = p + 1, False
                        continue
                    if value:
                        unbook(p)
                if not value:
                    value = True
                    continue
            # back up to the deepest false decision and flip it
            while True:
                if p == 0:
                    return
                p -= 1
                if not x[p]:
                    value = True
                    break
                x[p] = False
                unbook(p)

    def _pairs_open(self, e, booked, r, j) -> bool:
        """Whether each coordinator pair of element ``e`` can still share a robot.

        Called while the last robot ``r`` decides position ``j``: earlier
        robots are fixed, and ``r`` can still join an element it has not
        decided to its end.
        """
        for pair in self._pairs_of[e]:
            if not any(all(booked[f][s] or (s == r and j < self._last[f]) for f in pair)
                       for s in range(len(self.robots))):
                return False
        return True


def check_deadline(deadline: Optional[float]) -> None:
    """Raise ``BudgetExceeded("budget")`` once a ``time.perf_counter()`` deadline has passed."""
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceeded("budget")


def next_assignment(model: AllocModel, deadline: Optional[float] = None) -> Optional[Assignment]:
    """The next satisfying assignment in lexicographic order, or None when exhausted.

    ``deadline`` is checked on entry and every ``DEADLINE_EVERY`` search
    nodes (see ``check_deadline``); a raise from inside the search ends the
    model's enumeration.
    """
    check_deadline(deadline)
    model.deadline = deadline
    vector = next(model._solutions, None)
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
