"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the production code paths: trace
satisfaction is evaluated directly on the formula tree, shortest paths use
Bellman-Ford, and combinatorial questions are settled by exhaustive
enumeration.  ``ReferenceAllocator`` keeps the clause-store DPLL that the
lexicographic allocator replaced, as a reference for its solution order.
The exceptions are the test-only helpers at the end, which build on the
production code: ``ReferenceProductPa`` keeps the product's original
edge-by-edge construction as a reference for the table-driven one, and
``reference_solve_exact`` keeps the exact oracle's branch-and-bound on the
sum of ideal completions as a reference for the wait-aware bound.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import chain, combinations, product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from fleetplan.alloc import DEADLINE_EVERY, Assignment, check_deadline
from fleetplan.errors import BudgetExceeded, LevelDisconnected, NoAcceptingPath, Unreachable
from fleetplan.ltl import (
    And,
    Atom,
    Always,
    Eventually,
    FalseF,
    Formula,
    Not,
    Or,
    TrueF,
    Until,
    essential_steps,
)
from fleetplan.milp import (
    DEFAULT_COMBINATION_CAP,
    ExactResult,
    MilpModel,
    RobotChoice,
    enumerate_robot_choices,
)
from fleetplan.mission import Mission
from fleetplan.product import ProductPa, PrunedPa, State, Strategy
from fleetplan.schedule import CostReport, Timeline, compute_time_cost
from fleetplan.search import dijkstra, reconstruct
from fleetplan.world import Wts


def eval_trace(f: Formula, trace) -> bool:
    """Recursive finite-trace satisfaction; the empty trace is allowed."""
    trace = tuple(frozenset(s) for s in trace)
    if not trace:
        return _eval_empty(f)
    return _eval_at(f, trace, 0)


def _eval_empty(f: Formula) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, (FalseF, Atom, Eventually, Until)):
        return False
    if isinstance(f, Not):
        return not _eval_empty(f.child)
    if isinstance(f, And):
        return all(_eval_empty(c) for c in f.children)
    if isinstance(f, Or):
        return any(_eval_empty(c) for c in f.children)
    if isinstance(f, Always):
        return True
    raise TypeError(f)


def _eval_at(f: Formula, trace, i: int) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return f.name in trace[i]
    if isinstance(f, Not):
        return not _eval_at(f.child, trace, i)
    if isinstance(f, And):
        return all(_eval_at(c, trace, i) for c in f.children)
    if isinstance(f, Or):
        return any(_eval_at(c, trace, i) for c in f.children)
    if isinstance(f, Eventually):
        return any(_eval_at(f.child, trace, j) for j in range(i, len(trace)))
    if isinstance(f, Always):
        return all(_eval_at(f.child, trace, j) for j in range(i, len(trace)))
    if isinstance(f, Until):
        for j in range(i, len(trace)):
            if _eval_at(f.right, trace, j):
                return all(_eval_at(f.left, trace, k) for k in range(i, j))
        return False
    raise TypeError(f)


def random_formula(rng: random.Random, atoms, depth: int) -> Formula:
    """Random formula of bounded depth over the given atom names."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.12:
            return TrueF()
        return Atom(rng.choice(atoms))
    kind = rng.choice(["not", "and", "or", "ev", "alw", "until"])
    if kind == "not":
        return Not(random_formula(rng, atoms, depth - 1))
    if kind == "ev":
        return Eventually(random_formula(rng, atoms, depth - 1))
    if kind == "alw":
        return Always(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    if kind == "and":
        return And(left, right)
    if kind == "or":
        return Or(left, right)
    return Until(left, right)


def all_label_sets(atoms):
    atoms = sorted(atoms)
    return [frozenset(c) for r in range(len(atoms) + 1) for c in combinations(atoms, r)]


def all_traces(atoms, max_len: int):
    """Every trace up to the given length over the atom alphabet."""
    letters = all_label_sets(atoms)
    for length in range(max_len + 1):
        yield from product(letters, repeat=length)


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def bellman_ford(edges, source):
    """Textbook Bellman-Ford over an undirected edge list [(a, b, w), ...]."""
    nodes = set()
    for a, b, _ in edges:
        nodes.add(a)
        nodes.add(b)
    dist = {n: float("inf") for n in nodes}
    dist[source] = 0
    for _ in range(max(len(nodes) - 1, 0)):
        changed = False
        for a, b, w in edges:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
            if dist[b] + w < dist[a]:
                dist[a] = dist[b] + w
                changed = True
        if not changed:
            break
    return dist


def interleavings(left, right, cap=None):
    """All order-preserving merges of two sequences."""
    out = []

    def rec(prefix, a, b):
        if cap is not None and len(out) >= cap:
            return
        if not a and not b:
            out.append(tuple(prefix))
            return
        if a:
            rec(prefix + [a[0]], a[1:], b)
        if b:
            rec(prefix + [b[0]], a, b[1:])

    rec([], tuple(left), tuple(right))
    return out


# ---------------------------------------------------------------------------
# Allocation: the clause-store DPLL (reference for the enumeration order)
# ---------------------------------------------------------------------------


class ReferenceAllocator:
    """All-solutions DPLL over the allocation clauses, blocking each solution.

    Variables are robot-major, ``x[r_i * n_occ + o_i]``; auxiliary variables
    for the coordination constraint sit after the assignment block.  Branching
    picks the lowest-index unassigned variable, false before true, and every
    call re-solves from scratch against all blocking clauses so far.
    """

    def __init__(self, mission, fleet, tasks, comm_pairs=()):
        self.mission = mission
        self.fleet = fleet
        self.tasks = {t.prop: t for t in tasks}
        self.comm_pairs = tuple(sorted(comm_pairs))
        self.robots = tuple(sorted(fleet.robot_ids()))
        self.occurrences = mission.sorted_occurrences
        self.n_x = len(self.robots) * len(self.occurrences)
        self.n_vars = self.n_x
        self.clauses: list = []
        self.atleasts: list = []
        self.blocked: list = []
        self._encode()

    def var(self, robot, occ) -> int:
        return self.robots.index(robot) * len(self.occurrences) + self.occurrences.index(occ)

    def _new_aux(self) -> int:
        v = self.n_vars
        self.n_vars += 1
        return v

    def _encode(self):
        # (1) staffing: each occurrence gets the required robots per capability
        for occ in self.occurrences:
            task = self.tasks[self.mission.task_of(occ)]
            for cap in sorted(task.requirements):
                count = task.requirements[cap]
                holders = sorted(self.fleet.with_capability(cap))
                lits = tuple(self.var(r, occ) + 1 for r in holders)
                if len(lits) < count:
                    self.clauses.append(())  # unsatisfiable requirement
                else:
                    self.atleasts.append((count, lits))
        # (2) one task per robot within a synchronized element
        for elem in self.mission.elements():
            occs = self.mission.element_occurrences(elem)
            for a in range(len(occs)):
                for b in range(a + 1, len(occs)):
                    for r in self.robots:
                        self.clauses.append((-(self.var(r, occs[a]) + 1),
                                             -(self.var(r, occs[b]) + 1)))
        # (3) coordinator overlap between selected consecutive elements
        for k, m in self.comm_pairs:
            first = self.mission.element_occurrences((k, m))
            second = self.mission.element_occurrences((k, m + 1))
            aux_lits = []
            for r in self.robots:
                a = self._new_aux()
                b = self._new_aux()
                both = self._new_aux()
                self._define_or(a, [self.var(r, occ) for occ in first])
                self._define_or(b, [self.var(r, occ) for occ in second])
                self.clauses.append((-(both + 1), a + 1))
                self.clauses.append((-(both + 1), b + 1))
                self.clauses.append((both + 1, -(a + 1), -(b + 1)))
                aux_lits.append(both + 1)
            self.clauses.append(tuple(aux_lits))

    def _define_or(self, var: int, members):
        self.clauses.append((-(var + 1),) + tuple(m + 1 for m in members))
        for m in members:
            self.clauses.append((var + 1, -(m + 1)))

    def blocking_clauses(self) -> list:
        return [tuple((-(v + 1) if value else v + 1) for v, value in enumerate(vector))
                for vector in self.blocked]

    def next_vector(self) -> Optional[Tuple[bool, ...]]:
        """The next solution's assignment vector, blocked at once; None when exhausted."""
        clauses = self.clauses + self.blocking_clauses()
        solution = _dpll_search(clauses, self.atleasts, [None] * self.n_vars)
        if solution is None:
            return None
        vector = tuple(bool(v) for v in solution[: self.n_x])
        self.blocked.append(vector)
        return vector


def _dpll_propagate(clauses, atleasts, assign) -> bool:
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = None
            satisfied = False
            count = 0
            for lit in clause:
                val = assign[abs(lit) - 1]
                if val is None:
                    unassigned = lit
                    count += 1
                elif val == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if count == 0:
                return False
            if count == 1:
                assign[abs(unassigned) - 1] = unassigned > 0
                changed = True
        for k, lits in atleasts:
            true_count = 0
            open_lits = []
            for lit in lits:
                val = assign[abs(lit) - 1]
                if val is None:
                    open_lits.append(lit)
                elif val == (lit > 0):
                    true_count += 1
            if true_count >= k:
                continue
            if true_count + len(open_lits) < k:
                return False
            if true_count + len(open_lits) == k:
                for lit in open_lits:
                    assign[abs(lit) - 1] = lit > 0
                changed = True
    return True


def _dpll_search(clauses, atleasts, assign) -> Optional[list]:
    if not _dpll_propagate(clauses, atleasts, assign):
        return None
    try:
        v = assign.index(None)
    except ValueError:
        return list(assign)
    for value in (False, True):
        trial = list(assign)
        trial[v] = value
        result = _dpll_search(clauses, atleasts, trial)
        if result is not None:
            return result
    return None


# ---------------------------------------------------------------------------
# Product helpers (test-only)
# ---------------------------------------------------------------------------


def plain_adjacency(pa: ProductPa) -> Dict[State, Tuple[Tuple[State, float], ...]]:
    """The product's edges with their weights only."""
    return {s: tuple((t, w) for t, w, _f, _e in edges) for s, edges in pa.adjacency.items()}


def choice_weight(pruned: PrunedPa, choice: Sequence[State]) -> float:
    """Sum of the pruned edge weights along a level choice."""
    total = 0.0
    for li, (a, b) in enumerate(zip(choice, choice[1:])):
        w = pruned.edge_weight(li, a, b)
        if w is None:
            raise Unreachable(f"missing pruned edge at level {li}: {a}->{b}")
        total += w
    return total


def compute_timeline(strategy: Strategy) -> Timeline:
    """Arrival times read off an expanded strategy's run; the reference for
    ``schedule.choice_timeline``, which derives them from pruned edges."""
    arrivals = {occ: strategy.arrival(occ) for occ in strategy.collab_positions}
    return Timeline(strategy.robot_id, arrivals, strategy.weight)


def initial_strategy(pruned: PrunedPa) -> Tuple[List[State], Strategy]:
    """The shortest level choice and its expanded strategy."""
    choice = pruned.shortest_choice()
    return choice, pruned.expand(choice)


def initial_run(pa: ProductPa) -> Strategy:
    """Weight-minimal accepting run found by Dijkstra on the product."""
    if not pa.accepting:
        raise NoAcceptingPath(f"robot {pa.wts.robot_id}: empty accepting set")
    try:
        _cost, path = shortest_path(plain_adjacency(pa), pa.initial, pa.accepting)
    except Unreachable as exc:
        raise NoAcceptingPath(str(exc)) from None
    return Strategy(pa, path)


def path_through(pa: ProductPa, anchor: State, via: State) -> List[State]:
    """Shortest run suffix from ``anchor`` through ``via`` to an accepting state."""
    adjacency = plain_adjacency(pa)
    _c1, leg1 = shortest_path(adjacency, [anchor], [via])
    _c2, leg2 = shortest_path(adjacency, [via], pa.accepting)
    return leg1 + leg2[1:]


class ReferenceProductPa(ProductPa):
    """The product built edge by edge: guard, label split and firing set per edge."""

    def _split_label(self, region: str):
        label = self.wts.label(region)
        return label - self.collab_props, label & self._assigned_props

    def _build(self):
        self._collab_sets = {}
        nfa = self.nfa
        start = self.wts.initial
        base0, optional0 = self._split_label(start)
        initial_states = []
        for f0 in sorted(nfa.initial):
            for f in sorted(set(nfa.successors(f0)) | {f0}):
                guard = nfa.guard(f0, f)
                if guard is None:
                    continue
                fired = self._select_emit(guard, base0, optional0)
                if fired is None:
                    continue
                state = (start, f)
                if state not in self.entry_info:
                    initial_states.append(state)
                    self.entry_info[state] = (fired, base0 | fired)
                    self._note_collab(state, nfa.guard(f0, f), f0, f)
        self.initial = tuple(sorted(initial_states))
        seen = set(self.initial)
        queue = deque(self.initial)
        adjacency = {}
        while queue:
            state = queue.popleft()
            region, f = state
            out = []
            for succ_region, weight in self.wts.adjacency[region]:
                base, optional = self._split_label(succ_region)
                for f2 in nfa.successors(f):
                    guard = nfa.guard(f, f2)
                    fired = self._select_emit(guard, base, optional)
                    if fired is None:
                        continue
                    target = (succ_region, f2)
                    out.append((target, weight, fired, base | fired))
                    self._note_collab(target, guard, f, f2)
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
            adjacency[state] = tuple(sorted(out))
            for target, weight, fired, emit in out:
                self.edge_info[(state, target)] = (weight, fired, emit)
        self.adjacency = adjacency
        self.accepting = frozenset(s for s in seen if s[1] in nfa.accepting)
        self.collab = {
            prop: frozenset(s for s in self._collab_sets.get(prop, ()) if s in seen)
            for _occ, prop in self.assigned
        }

    def _note_collab(self, state, guard, f_from: int, f_to: int):
        if f_from == f_to:
            return
        witnesses = guard.minimal_witnesses()
        if not witnesses:
            return
        required = frozenset.intersection(*witnesses)
        region_label = self.wts.label(state[0])
        for _occ, prop in self.assigned:
            if prop in required and prop in region_label:
                self._collab_sets.setdefault(prop, set()).add(state)


# ---------------------------------------------------------------------------
# Test-only helpers over the production modules
# ---------------------------------------------------------------------------


def shortest_path(adjacency, sources, targets):
    """Cheapest path from any source to any target: ``(cost, path)``.

    Among equal-cost targets the smallest node key (by ``repr``) wins.
    """
    targets = set(targets)
    dist, parent = dijkstra(adjacency, sources, targets=targets)
    reachable = [(dist[t], t) for t in targets if t in dist]
    if not reachable:
        raise Unreachable("no path from sources to targets")
    cost, best = min(reachable, key=lambda item: (item[0], repr(item[1])))
    return cost, reconstruct(parent, best)


def shortest_travel(wts: Wts, origin: str, destination: str) -> float:
    """Minimum travel duration between two regions; 0 when they coincide."""
    if origin == destination:
        return 0
    dist, _ = dijkstra(wts.adjacency, [origin], targets={destination})
    if destination not in dist:
        raise Unreachable(f"{destination} unreachable from {origin}")
    return dist[destination]


def essential_sequence(nfa, run: Sequence[int]) -> List[frozenset]:
    """The positive label set of each essential step along ``run``."""
    return [step.labels for step in essential_steps(nfa, run)]


def element_of(mission: Mission, occ) -> Tuple[int, int]:
    """The element (k, m) holding occurrence ``occ``."""
    return next(elem for elem in mission.elements() if occ in mission.element_occurrences(elem))


def variable_names(model: MilpModel) -> Tuple[str, ...]:
    """Every variable of an LP model, binaries first."""
    return tuple(model.binaries) + tuple(model.continuous)


def reference_solve_exact(pruned_map: Mapping[int, PrunedPa], mission: Mission,
                          assignment: Assignment,
                          combination_cap: int = DEFAULT_COMBINATION_CAP,
                          deadline: Optional[float] = None) -> ExactResult:
    """Optimal total time cost over all joint collaborative placements.

    Depth-first over robots with branch-and-bound: a partial tuple is pruned
    when its ideal completions (a valid lower bound on the synchronized
    total) cannot beat the incumbent.  ``deadline`` is checked on entry and
    every ``DEADLINE_EVERY`` search nodes (see ``alloc.check_deadline``).
    """
    robots = sorted(pruned_map)
    per_robot = {r: enumerate_robot_choices(pruned_map[r]) for r in robots}
    count = 1
    for r in robots:
        count *= len(per_robot[r])
        if count > combination_cap:
            raise BudgetExceeded(
                f"joint choice count exceeds cap ({combination_cap})")
    min_completion = {
        r: min(c.timeline.completion for c in per_robot[r]) for r in robots
    }
    best: Optional[Tuple[float, Dict[int, RobotChoice], CostReport]] = None
    explored = nodes = 0
    stack_choice: Dict[int, RobotChoice] = {}

    def dfs(idx: int, partial_sum: float):
        nonlocal best, explored, nodes
        if nodes % DEADLINE_EVERY == 0:
            check_deadline(deadline)
        nodes += 1
        bound = partial_sum + sum(min_completion[r] for r in robots[idx:])
        if best is not None and bound >= best[0]:
            return
        if idx == len(robots):
            explored += 1
            timelines = {r: stack_choice[r].timeline for r in robots}
            report = compute_time_cost(timelines, mission, assignment)
            if best is None or report.total < best[0]:
                best = (report.total, dict(stack_choice), report)
            return
        r = robots[idx]
        for choice in per_robot[r]:
            stack_choice[r] = choice
            dfs(idx + 1, partial_sum + choice.timeline.completion)
        del stack_choice[r]

    dfs(0, 0.0)
    if best is None:
        raise LevelDisconnected("no joint feasible placement")
    objective, choices, report = best
    strategies = {
        r: pruned_map[r].expand(choices[r].full_choice()) for r in robots
    }
    return ExactResult(objective, report, choices, strategies, explored)
