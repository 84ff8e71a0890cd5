"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the production code paths: trace
satisfaction is evaluated directly on the formula tree, shortest paths use
Bellman-Ford, and combinatorial questions are settled by exhaustive
enumeration.  ``ReferenceAllocator`` keeps the clause-store DPLL that the
lexicographic allocator replaced, as a reference for its solution order, and
``reference_check_assignment`` the allocator's judge on frozensets of robots,
as a reference for the one that reads the vector's bits (``as_bits`` turns a
tuple of bools into such a vector).
The exceptions are the test-only helpers at the end, which build on the
production code: ``ReferenceProductPa`` keeps the product's original
edge-by-edge construction, which picks each firing set by scanning the
guard's cubes (``_select_emit``), as a reference for the table lookups,
``ReferencePrunedPa`` the layered pruning by a Dijkstra over every tuple
state, with eager witness paths, as a reference for the clean-hop search with
walks rebuilt on demand,
``reference_solve_exact`` keeps the exact oracle's branch-and-bound on the
sum of ideal completions as a reference for the wait-aware bound,
``refold_solve_exact`` the wait-aware search that refolds every node from the
first element as a reference for the resumed fold, with ``partial_time_cost``,
the partial fold over floors that ``compute_time_cost`` used to offer, and
``reference_to_nfa`` keeps the translator that progresses every residual
over the formula's whole alphabet, with cubes as frozensets of unit formulas,
as a reference for the alphabet-local one on bit-packed cubes; of the
translator it reuses only ``simplify``.  Its automaton, and the one
``reference_prune_nfa`` returns, is a ``GuardNfa``: explicit guards, where the
planner's ``Nfa`` keeps only labeling tables.  Guards (``Guard``, built as
prime covers by ``guard_from_minterms``) are the representation the tables
replaced; ``guard_nfa`` builds them from an ``Nfa``'s tables, and a
``GuardNfa`` reads its essential steps off them, as a reference for the
answers the planner reads off the tables.  ``reference_shortest_accepting_run``
keeps the run selection that searched forward from the initial states and
backward from the accepting ones and took the least total over every state
both reached, as a reference for the forward layered search; and
``reference_tables_read`` counts the tables of an automaton read on demand
that its pruning and run selection need, from the reference pruning's layers.
``reference_primes`` finds a truth table's prime implicants by trying all 3^n
cubes, as a judge of ``guard_from_minterms``.  ``reference_prune_nfa`` keeps
capacity pruning as it was before it decided pairs on the labeling tables: it
builds every guard and filters each one's cubes, as a reference for the
pruned pairs, steps, witnesses and negative sets.
``guard_from_cubes`` normalizes hand-written cube lists for the guard tests
(``TRUE_GUARD`` is its tautology), ``witness`` decodes the
product path behind a pruned edge, ``dijkstra`` is the weighted search
those references run and ``bfs`` their breadth-first search in layers, and
``reconstruct`` reads a path off either one's parent map.  ``reference_hops``
keeps the clean-hop tables' heap Dijkstra, one entry per improved region, as a
reference for ``Wts.hops``, which settles regions in distance layers.  The references key
product states by ``(region, f)`` and regions by name (``world_adjacency``),
where the planner uses integer ids and ranks; ``state_id`` and ``decoded``
translate between the two.
"""

from __future__ import annotations

import math
import random
from collections import deque
from heapq import heappop, heappush
from functools import lru_cache
from itertools import chain, combinations, product
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from fleetplan.alloc import DEADLINE_EVERY, Assignment, check_deadline
from fleetplan.errors import (
    BudgetExceeded,
    EmptyLanguage,
    FleetplanError,
    LevelDisconnected,
    NoAcceptingPath,
    NoPositiveWitness,
    StateLimitExceeded,
    Unreachable,
)
from fleetplan.ltl import (
    DEFAULT_STATE_CAP,
    And,
    Atom,
    Always,
    EssentialStep,
    Eventually,
    FalseF,
    Formula,
    Nfa,
    Not,
    Or,
    TrueF,
    Until,
    atoms_of,
    essential_steps,
    format_formula,
    nfa_accepts,
    simplify,
)
from fleetplan.milp import (
    DEFAULT_COMBINATION_CAP,
    ExactResult,
    MilpModel,
    enumerate_robot_choices,
    least_timeline,
)
from fleetplan.mission import INTERLEAVE_CAP, Mission, demand_feasible
from fleetplan.product import ProductPa, PrunedPa, Strategy
from fleetplan.schedule import CostReport, FoldPlan, Timeline, compute_time_cost
from fleetplan.world import Fleet, Hops, TaskReq, World, Wts

State = Tuple[str, int]  # a reference product state: (region name, automaton state)


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


def as_bits(vector: Sequence[bool]) -> int:
    """The allocator's int vector for a sequence of bools: bit ``q`` is ``vector[q]``."""
    return sum(1 << q for q, value in enumerate(vector) if value)


def reference_check_assignment(model, assignment: Assignment) -> list[str]:
    """The allocator's judge as it was on frozensets of robots (``robots_for``),
    as a reference for the problem list ``check_assignment`` reads off the bits."""
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


# ---------------------------------------------------------------------------
# Product helpers (test-only)
# ---------------------------------------------------------------------------


def state_id(pa: ProductPa, state: State) -> int:
    """The id of ``pa`` for a reference state ``(region, f)``; ``decoded`` is the inverse."""
    return pa.wts.world.rank[state[0]] * pa.nfa.n_states + state[1]


def decoded(pa: ProductPa, ids: Iterable[int]) -> Tuple[State, ...]:
    """Ids of ``pa`` as the references' ``(region, f)`` states, in the given order."""
    return tuple(map(pa.state_of, ids))


def world_adjacency(world: World) -> Dict[str, Tuple[Tuple[str, float], ...]]:
    """Each region's sorted ``(neighbour, weight)`` pairs, by name, from the edge list."""
    adjacency = {region: set() for region in world.regions}
    for a, b in world.edges:
        w = world.edge_weight(a, b)
        adjacency[a].add((b, w))
        adjacency[b].add((a, w))
    return {region: tuple(sorted(pairs)) for region, pairs in adjacency.items()}


def plain_adjacency(pa: ProductPa) -> Dict[State, Tuple[Tuple[State, float], ...]]:
    """The product's edges with their weights only."""
    return {s: tuple((t, w) for t, w, _f, _e in edges) for s, edges in pa.adjacency.items()}


def choice_weight(pruned: PrunedPa, choice: Sequence[int]) -> float:
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
    arrivals = {occ: sum(strategy.step_weights[:pos])
                for occ, pos in strategy.collab_positions.items()}
    return Timeline(strategy.robot_id, arrivals, strategy.weight, None)


def initial_strategy(pruned: PrunedPa) -> Tuple[List[int], Strategy]:
    """The shortest level choice and its expanded strategy."""
    choice = pruned.shortest_choice()
    return choice, pruned.expand(choice)


def initial_run(pa: ProductPa) -> Strategy:
    """Weight-minimal accepting run found by Dijkstra on the product."""
    if not pa.accepting:
        raise NoAcceptingPath(f"robot {pa.wts.robot_id}: empty accepting set")
    try:
        _cost, path = shortest_path(plain_adjacency(pa), decoded(pa, pa.initial),
                                    decoded(pa, pa.accepting))
    except Unreachable as exc:
        raise NoAcceptingPath(str(exc)) from None
    return Strategy(pa, [state_id(pa, s) for s in path])


def path_through(pa: ProductPa, anchor: State, via: State) -> List[State]:
    """Shortest run suffix from ``anchor`` through ``via`` to an accepting state."""
    adjacency = plain_adjacency(pa)
    _c1, leg1 = shortest_path(adjacency, [anchor], [via])
    _c2, leg2 = shortest_path(adjacency, [via], decoded(pa, pa.accepting))
    return leg1 + leg2[1:]


class ReferenceProductPa:
    """The product built edge by edge over tuple states: guard, label split and
    firing set per edge."""

    def _select_emit(self, guard: Guard, base: FrozenSet[str], optional: FrozenSet[str]):
        """Cheapest firing set justifying the guard, or None.

        At most one assigned collaborative task fires per step; individual
        tasks always fire.
        """
        best = None
        for pos, neg in guard.cubes:
            if base & neg:
                continue
            extra = pos - base
            if not extra <= optional or len(extra) > 1:
                continue
            key = (len(extra), tuple(sorted(extra)), len(neg), tuple(sorted(neg)))
            if best is None or key < best[0]:
                best = (key, extra)
        if best is None:
            return None
        return best[1]

    def __init__(self, wts: Wts, nfa: Nfa, assigned, collab_props):
        self.wts = wts
        self.nfa = nfa
        self.assigned = tuple(assigned)
        self.collab_props = collab_props
        self._assigned_props = frozenset(p for _o, p in self.assigned)
        self.entry_info: Dict[State, tuple] = {}
        self.edge_info: Dict[Tuple[State, State], tuple] = {}
        self.labels = dict(zip(wts.world.names, wts.ranked_labels))
        self._build()

    def _split_label(self, region: str):
        label = self.labels[region]
        return label - self.collab_props, label & self._assigned_props

    def _build(self):
        self._collab_sets = {}
        nfa = guard_nfa(self.nfa)
        start = self.wts.world.names[self.wts.start_rank]
        neighbours = world_adjacency(self.wts.world)
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
            for succ_region, weight in neighbours[region]:
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
        region_label = self.labels[state[0]]
        for _occ, prop in self.assigned:
            if prop in required and prop in region_label:
                self._collab_sets.setdefault(prop, set()).add(state)


class ReferencePrunedPa:
    """The layered view over tuple states, with every witness path built eagerly.

    Level 0 holds the initial states, one level per assigned occurrence holds
    that task's collaborative states, and the final level holds accepting
    states.  Edges connect consecutive levels with shortest-path weights and
    carry their witness path for exact expansion.
    """

    def __init__(self, pa: ProductPa):
        self.pa = pa
        self.assigned = pa.assigned
        self.levels: List[Tuple[State, ...]] = [tuple(sorted(decoded(pa, pa.initial)))]
        for _occ, prop in pa.assigned:
            self.levels.append(tuple(sorted(decoded(pa, pa.collab[prop]))))
        self.levels.append(tuple(sorted(decoded(pa, pa.accepting))))
        self.edges: Dict[Tuple[int, State, State], Tuple[float, Tuple[State, ...]]] = {}
        self._build_edges()
        self._suffix: Dict[Tuple[int, State], Tuple[float, Optional[State]]] = {}
        self._build_suffix()

    def _build_edges(self):
        pa = self.pa
        nonfiring = {s: tuple((t, w) for t, w, fired, _e in edges if not fired)
                     for s, edges in pa.adjacency.items()}
        edge_info = pa.edge_info
        for li in range(len(self.levels) - 1):
            sources = self.levels[li]
            targets = self.levels[li + 1]
            if not sources or not targets:
                raise LevelDisconnected(
                    f"robot {pa.wts.robot_id}: level {li if sources else li + 1} is empty")
            is_final = li == len(self.levels) - 2
            prop = None if is_final else pa.assigned[li][1]
            # collaborative entry firings connect a state to itself across levels
            if li == 0 and not is_final:
                for state in sources:
                    fired, _emit = pa.entry_info[state_id(pa, state)]
                    if prop in fired and state in targets:
                        self.edges[(0, state, state)] = (0, (state,))
            firing_in: Dict[State, list] = {}
            if not is_final:
                for (a, b), (w, fired, _e) in edge_info.items():
                    if prop in fired and b in targets:
                        firing_in.setdefault(b, []).append((a, w))
            for source in sources:
                dist, parent = dijkstra(nonfiring, [source])
                if is_final:
                    for t in targets:
                        if t in dist:
                            self.edges[(li, source, t)] = (
                                dist[t], tuple(reconstruct(parent, t)))
                else:
                    for t in targets:
                        best = None
                        for u, w in sorted(firing_in.get(t, ())):
                            if u in dist:
                                cand = (dist[u] + w, u)
                                if best is None or cand < best:
                                    best = cand
                        if best is not None:
                            cost, u = best
                            witness = tuple(reconstruct(parent, u)) + (t,)
                            self.edges[(li, source, t)] = (cost, witness)
            if not any(key[0] == li for key in self.edges):
                raise LevelDisconnected(
                    f"robot {pa.wts.robot_id}: no edges into level {li + 1}")

    def _build_suffix(self):
        last = len(self.levels) - 1
        for state in self.levels[last]:
            self._suffix[(last, state)] = (0, None)
        for li in range(last - 1, -1, -1):
            for state in self.levels[li]:
                best = None
                for succ in self.levels[li + 1]:
                    edge = self.edges.get((li, state, succ))
                    if edge is None:
                        continue
                    tail = self._suffix.get((li + 1, succ))
                    if tail is None:
                        continue
                    cand = (edge[0] + tail[0], succ)
                    if best is None or cand < best:
                        best = cand
                if best is not None:
                    self._suffix[(li, state)] = best
        if not any((0, s) in self._suffix for s in self.levels[0]):
            raise LevelDisconnected(
                f"robot {self.pa.wts.robot_id}: accepting level unreachable through the hierarchy")

    # -- queries ----------------------------------------------------------

    def suffix_cost(self, level: int, state: State) -> Optional[float]:
        entry = self._suffix.get((level, state))
        return None if entry is None else entry[0]

    def best_chain_from(self, level: int, state: State) -> List[State]:
        """Cheapest continuation through the remaining levels (greedy by DP)."""
        chain = [state]
        li = level
        while True:
            entry = self._suffix.get((li, chain[-1]))
            if entry is None:
                raise LevelDisconnected(f"state {chain[-1]} has no continuation")
            if entry[1] is None:
                return chain
            chain.append(entry[1])
            li += 1

    def shortest_choice(self) -> List[State]:
        """Level choice of minimal total weight, starting from the best initial state."""
        best = None
        for state in self.levels[0]:
            cost = self.suffix_cost(0, state)
            if cost is not None:
                cand = (cost, state)
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise LevelDisconnected("no initial state reaches the accepting level")
        return self.best_chain_from(0, best[1])

    def witness(self, li: int, a: State, b: State) -> Tuple[State, ...]:
        return self.edges[(li, a, b)][1]

    def expand(self, choice: Sequence[State]) -> Strategy:
        """Expand a level choice into a concrete strategy via edge witnesses."""
        if len(choice) != len(self.levels):
            raise FleetplanError(
                f"choice length {len(choice)} != level count {len(self.levels)}")
        run: List[State] = [choice[0]]
        for li, (a, b) in enumerate(zip(choice, choice[1:])):
            edge = self.edges.get((li, a, b))
            if edge is None:
                raise Unreachable(f"missing pruned edge at level {li}: {a}->{b}")
            run.extend(edge[1][1:])
        return Strategy(self.pa, [state_id(self.pa, s) for s in run])

    def size_stats(self) -> Dict[str, int]:
        return {
            "product_states": len(self.pa.adjacency),
            "product_edges": len(self.pa.edge_info),
            "max_level_width": max(len(l) for l in self.levels),
            "pruned_edges": len(self.edges),
        }


# ---------------------------------------------------------------------------
# Test-only helpers over the production modules
# ---------------------------------------------------------------------------


Node = Hashable


def reconstruct(parent: Mapping, node: Node) -> list:
    path = [node]
    while parent[node] is not None:
        node = parent[node]
        path.append(node)
    path.reverse()
    return path


def bfs(successors: Callable[[Node], Iterable[Node]], sources: Iterable[Node]):
    """Breadth-first search in layers: ``(dist, parent)`` hop maps.

    Each layer is expanded in key order and a node keeps the first parent
    found, so ``parent`` lists nodes in discovery order (sources first, with
    parent ``None``).
    """
    layer = sorted(sources)
    dist = dict.fromkeys(layer, 0)
    parent = dict.fromkeys(layer)
    depth = 0
    while layer:
        depth += 1
        found = []
        for node in layer:
            for succ in successors(node):
                if succ not in dist:
                    dist[succ] = depth
                    parent[succ] = node
                    found.append(succ)
        layer = sorted(found)
    return dist, parent


def dijkstra(adjacency: Mapping, sources: Iterable):
    """Multi-source Dijkstra over ``{node: [(succ, weight), ...]}``: ``(dist, parent)``
    maps over every reachable node.  Nodes settle in ``(dist, node)`` order and
    keep the first parent found."""
    dist: dict = {}
    parent: dict = {}
    heap = []
    for s in sorted(sources):
        dist[s] = 0
        parent[s] = None
        heappush(heap, (0, s))
    while heap:
        d, node = heappop(heap)
        if d > dist[node]:
            continue
        for succ, weight in adjacency.get(node, ()):
            nd = d + weight
            if nd < dist.get(succ, float("inf")):
                dist[succ] = nd
                parent[succ] = node
                heappush(heap, (nd, succ))
    return dist, parent


def shortest_path(adjacency, sources, targets):
    """Cheapest path from any source to any target: ``(cost, path)``.

    Among equal-cost targets the smallest node key (by ``repr``) wins.
    """
    targets = set(targets)
    dist, parent = dijkstra(adjacency, sources)
    reachable = [(dist[t], t) for t in targets if t in dist]
    if not reachable:
        raise Unreachable("no path from sources to targets")
    cost, best = min(reachable, key=lambda item: (item[0], repr(item[1])))
    return cost, reconstruct(parent, best)


def shortest_travel(wts: Wts, origin: str, destination: str) -> float:
    """Minimum travel duration between two regions; 0 when they coincide."""
    if origin == destination:
        return 0
    dist, _ = dijkstra(world_adjacency(wts.world), [origin])
    if destination not in dist:
        raise Unreachable(f"{destination} unreachable from {origin}")
    return dist[destination]


def reference_hops(wts: Wts, origin: int) -> Hops:
    """Clean hops from region rank ``origin`` by the heap Dijkstra that ``Wts.hops``
    ran before it settled regions in distance layers: one heap entry per improved
    region, popped in ``(dist, rank)`` order."""
    labels, neighbours = wts.ranked_labels, wts.world.neighbours
    inner, parent = [math.inf] * len(labels), [None] * len(labels)
    inner[origin], border, border_parent = 0, {}, {}
    heap = [(0, origin)]
    while heap:
        d, x = heappop(heap)
        if d > inner[x]:
            continue
        for y, w in neighbours[x]:
            nd = d + w
            if labels[y]:
                if nd < border.get(y, math.inf):
                    border[y] = nd
                    border_parent[y] = x
            elif nd < inner[y]:
                inner[y] = nd
                parent[y] = x
                heappush(heap, (nd, y))
    return Hops(inner, parent, border, border_parent)


def essential_sequence(nfa, run: Sequence[int]) -> List[frozenset]:
    """The positive label set of each essential step along ``run``."""
    return [step.labels for step in essential_steps(nfa, run)]


def element_of(mission: Mission, occ) -> Tuple[int, int]:
    """The element (k, m) holding occurrence ``occ``."""
    return next(elem for elem in mission.elements() if occ in mission.element_occurrences(elem))


def witness(pruned: PrunedPa, li: int, a: int, b: int) -> Tuple[State, ...]:
    """The product path behind pruned edge ``(li, a, b)``, from ``a`` to ``b``, decoded."""
    return decoded(pruned.pa, pruned._path(li, a, b))


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
        r: min(c.completion for c in per_robot[r]) for r in robots
    }
    best: Optional[Tuple[float, Dict[int, Timeline], CostReport]] = None
    explored = nodes = 0
    stack_choice: Dict[int, Timeline] = {}
    plan = FoldPlan(mission, assignment)

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
            report = compute_time_cost(stack_choice, plan)
            if best is None or report.total < best[0]:
                best = (report.total, dict(stack_choice), report)
            return
        r = robots[idx]
        for choice in per_robot[r]:
            stack_choice[r] = choice
            dfs(idx + 1, partial_sum + choice.completion)
        del stack_choice[r]

    dfs(0, 0.0)
    if best is None:
        raise LevelDisconnected("no joint feasible placement")
    objective, choices, report = best
    return ExactResult(objective, report, choices, explored)


def partial_time_cost(timelines: Mapping[int, Timeline], mission: Mission,
                      assignment: Assignment,
                      floors: Optional[Mapping[int, Timeline]] = None) -> CostReport:
    """``compute_time_cost`` with ``floors``, a partial fold (the references' bound).

    Walks the mission's elements in (k, m) order.  Tasks sharing an element
    are synchronization-coupled and execute together when the last robot of
    the whole element arrives; every participant's delay is then overwritten
    with its accumulated wait.  On singleton elements this is exactly the
    per-task fold (arrival plus carried delay, max over the task's robots).

    ``floors`` makes this a partial fold: it gives each robot missing from
    ``timelines`` the least arrival per occurrence and least completion over
    its choices.  Such a robot joins each max with that arrival and carries
    no delay, so every task time and the total (summed in robot order) bound
    from below those of any full fold agreeing with ``timelines``.  The fold
    fixes a count of leading robots, so ``timelines`` must be a prefix of the
    plan's robot order.
    """
    every = {**timelines, **floors} if floors else timelines
    plan = FoldPlan(mission, assignment)
    if len(every) != len(plan.robots):
        raise ValueError(f"timelines of robots {sorted(every)} for {plan.robots}")
    if set(timelines) != set(plan.robots[:len(timelines)]):
        raise ValueError(f"fixed robots {sorted(timelines)} do not lead {plan.robots}")
    trail, times, costs, total = plan.fold([every[r] for r in plan.robots], len(timelines))
    task_times = {occ: t for elem, t in zip(mission.elements(), times)
                  for occ in mission.element_occurrences(elem)}
    return CostReport(task_times, dict(zip(plan.robots, trail[-1])),
                      dict(zip(plan.robots, costs)), total)


def refold_solve_exact(pruned_map: Mapping[int, PrunedPa], mission: Mission,
                       assignment: Assignment,
                       combination_cap: int = DEFAULT_COMBINATION_CAP,
                       deadline: Optional[float] = None) -> ExactResult:
    """Optimal total time cost over all joint collaborative placements.

    Depth-first over robots with branch-and-bound.  A node with
    ``robots[:idx]`` fixed is bounded by ``partial_time_cost`` over the fixed
    timelines with each free robot's ``least_timeline`` as its floor: sync
    times only rise as participants are added, so no completion of the node
    costs less, and the node is pruned when the bound cannot beat the
    incumbent.  At a leaf the bound is the exact fold, so ``explored`` counts
    the leaves that improved the incumbent.  ``deadline`` is checked on
    entry and every ``DEADLINE_EVERY`` search nodes (see
    ``alloc.check_deadline``).
    """
    robots = sorted(pruned_map)
    per_robot = {r: enumerate_robot_choices(pruned_map[r]) for r in robots}
    count = 1
    for r in robots:
        count *= len(per_robot[r])
        if count > combination_cap:
            raise BudgetExceeded(
                f"joint choice count exceeds cap ({combination_cap})")
    floors = {r: least_timeline(per_robot[r]) for r in robots}
    best: Optional[Tuple[float, Dict[int, Timeline], CostReport]] = None
    explored = nodes = 0
    stack_choice: Dict[int, Timeline] = {}

    def dfs(idx: int):
        nonlocal best, explored, nodes
        if nodes % DEADLINE_EVERY == 0:
            check_deadline(deadline)
        nodes += 1
        if best is not None or idx == len(robots):
            # the free robots follow the fixed ones, so the bound sums in the leaf fold's order
            report = partial_time_cost({r: stack_choice[r] for r in robots[:idx]},
                                       mission, assignment, {r: floors[r] for r in robots[idx:]})
            if best is not None and report.total >= best[0]:
                return
        if idx == len(robots):
            explored += 1
            best = (report.total, dict(stack_choice), report)
            return
        r = robots[idx]
        for choice in per_robot[r]:
            stack_choice[r] = choice
            dfs(idx + 1)
        del stack_choice[r]

    dfs(0)
    if best is None:
        raise LevelDisconnected("no joint feasible placement")
    objective, choices, report = best
    return ExactResult(objective, report, choices, explored)


# The frozenset residual kernel that the bit-packed one in fleetplan.ltl
# replaced: cubes are pairs of frozensets of unit formulas.

_DNF_TRUE = frozenset({(frozenset(), frozenset())})
_DNF_FALSE: frozenset = frozenset()


def _dnf_minimize(cubes) -> frozenset:
    cubes = set(cubes)
    out = set()
    for pos, neg in cubes:
        if pos & neg:
            continue
        if any((p2, n2) != (pos, neg) and p2 <= pos and n2 <= neg for p2, n2 in cubes):
            continue
        out.add((pos, neg))
    return frozenset(out)


def _dnf_or(*dnfs) -> frozenset:
    merged = set()
    for d in dnfs:
        merged |= d
    return _dnf_minimize(merged)


def _dnf_and(a: frozenset, b: frozenset) -> frozenset:
    cubes = set()
    for pa, na in a:
        for pb, nb in b:
            pos, neg = pa | pb, na | nb
            if not (pos & neg):
                cubes.add((pos, neg))
    return _dnf_minimize(cubes)


def _dnf_not(a: frozenset) -> frozenset:
    # De Morgan: complement of a DNF is the product of complemented cubes.
    result = _DNF_TRUE
    for pos, neg in a:
        complement = frozenset(
            {(frozenset(), frozenset((u,))) for u in pos}
            | {(frozenset((u,)), frozenset()) for u in neg}
        )
        result = _dnf_and(result, complement)
        if not result:
            return _DNF_FALSE
    return result


def _dnf_eval_empty(dnf: frozenset) -> bool:
    # only G units hold on the empty trace: atoms, eventualities and untils need a position
    return any(all(isinstance(u, Always) for u in pos)
               and not any(isinstance(u, Always) for u in neg) for pos, neg in dnf)


@lru_cache(maxsize=None)
def _formula_dnf(f: Formula) -> frozenset:
    if isinstance(f, TrueF):
        return _DNF_TRUE
    if isinstance(f, FalseF):
        return _DNF_FALSE
    if isinstance(f, (Atom, Eventually, Always, Until)):
        return frozenset({(frozenset((f,)), frozenset())})
    if isinstance(f, Not):
        return _dnf_not(_formula_dnf(f.child))
    if isinstance(f, And):
        out = _DNF_TRUE
        for c in f.children:
            out = _dnf_and(out, _formula_dnf(c))
        return out
    if isinstance(f, Or):
        return _dnf_or(*[_formula_dnf(c) for c in f.children])
    raise TypeError(f"not a formula: {f!r}")


class _Translator:
    def __init__(self):
        self._unit_cache: dict[tuple[Formula, frozenset], frozenset] = {}

    def progress_unit(self, unit: Formula, labels: frozenset) -> frozenset:
        key = (unit, labels)
        hit = self._unit_cache.get(key)
        if hit is not None:
            return hit
        if isinstance(unit, Atom):
            out = _DNF_TRUE if unit.name in labels else _DNF_FALSE
        elif isinstance(unit, Eventually):
            out = _dnf_or(self.progress_formula(unit.child, labels),
                          frozenset({(frozenset((unit,)), frozenset())}))
        elif isinstance(unit, Always):
            out = _dnf_and(self.progress_formula(unit.child, labels),
                           frozenset({(frozenset((unit,)), frozenset())}))
        elif isinstance(unit, Until):
            stay = _dnf_and(self.progress_formula(unit.left, labels),
                            frozenset({(frozenset((unit,)), frozenset())}))
            out = _dnf_or(self.progress_formula(unit.right, labels), stay)
        else:
            raise TypeError(f"not a unit: {unit!r}")
        self._unit_cache[key] = out
        return out

    def progress_formula(self, f: Formula, labels: frozenset) -> frozenset:
        return self.progress_dnf(_formula_dnf(f), labels)

    def progress_dnf(self, dnf: frozenset, labels: frozenset) -> frozenset:
        results = []
        for pos, neg in dnf:
            cube = _DNF_TRUE
            for u in pos:
                cube = _dnf_and(cube, self.progress_unit(u, labels))
                if not cube:
                    break
            if cube:
                for u in neg:
                    cube = _dnf_and(cube, _dnf_not(self.progress_unit(u, labels)))
                    if not cube:
                        break
            if cube:
                results.append(cube)
        return _dnf_or(*results) if results else _DNF_FALSE


# Transition guards, the representation the planner's labeling tables replaced:
# positive/negative cubes in inclusion-minimal DNF.  A guard is a disjunction of
# cubes, each a pair of disjoint proposition sets (positive literals, negative
# literals).  A label set satisfies a cube when it contains every positive
# literal and none of the negative ones.  A guard is built from a truth table as
# the complete set of its prime implicants, which is canonical, deduplicated,
# and free of pairwise subsumption; no prime mentions a proposition the table
# does not depend on.

Cube = Tuple[FrozenSet[str], FrozenSet[str]]


class Guard:
    """Disjunction of (positive, negative) literal cubes, equal and hashed by them."""

    __slots__ = ("cubes",)

    def __init__(self, cubes: Tuple[Cube, ...]):
        self.cubes = cubes

    def __eq__(self, other):
        return self.cubes == other.cubes if type(other) is Guard else NotImplemented

    def __hash__(self):
        return hash(self.cubes)

    def satisfied_by(self, labels: FrozenSet[str]) -> bool:
        return any(pos <= labels and not (labels & neg) for pos, neg in self.cubes)

    def is_unsatisfiable(self) -> bool:
        return not self.cubes

    def minimal_witnesses(self) -> list[FrozenSet[str]]:
        """Inclusion-minimal positive label sets satisfying the guard."""
        candidates = [pos for pos, _neg in self.cubes]
        return sorted({pos for pos in candidates if not any(other < pos for other in candidates)},
                      key=lambda s: (len(s), sorted(s)))

    def empty_set_satisfies(self) -> bool:
        return any(not pos for pos, _neg in self.cubes)

    def __str__(self) -> str:
        return " | ".join(" & ".join(sorted(pos) + [f"!{p}" for p in sorted(neg)]) or "true"
                          for pos, neg in self.cubes) or "false"


FALSE_GUARD = Guard(())


def _cube_key(cube: Cube):
    pos, neg = cube
    return (len(pos) + len(neg), sorted(pos), sorted(neg))


def guard_from_minterms(atoms: Sequence[str], minterms: Iterable[int]) -> Guard:
    """Build the prime-implicant cover of a truth table.

    ``minterms`` are bitmasks over ``atoms`` (bit i set = atom i true).  The
    complete prime set is the canonical inclusion-minimal DNF: no prime
    subsumes another.
    """
    minterms = set(minterms)
    if not minterms:
        return FALSE_GUARD
    n = len(atoms)
    low, high = -1, 0
    for m in minterms:
        low &= m
        high |= m
    if len(minterms) == 1 << (low ^ high).bit_count():
        current, primes = set(), {(low, low ^ high)}  # they fill one cube, its only prime
    else:  # Quine-McCluskey merge: implicants are (value, dontcare-mask) pairs
        current, primes = {(m, 0) for m in minterms}, set()
    while current:
        merged = set()
        used = set()
        for v, d in current:
            for i in range(n):
                bit = 1 << i
                if d & bit:
                    continue
                partner = (v ^ bit, d)
                if partner in current:
                    merged.add((v & ~bit, d | bit))
                    used.add((v, d))
                    used.add(partner)
        primes |= current - used
        current = merged
    cubes = []
    for value, dontcare in primes:
        pos, neg = [], []
        care = ((1 << n) - 1) & ~dontcare
        while care:
            bit = care & -care
            (pos if value & bit else neg).append(atoms[bit.bit_length() - 1])
            care ^= bit
        cubes.append((frozenset(pos), frozenset(neg)))
    return Guard(tuple(sorted(cubes, key=_cube_key)))


class GuardNfa:
    """An automaton given by explicit guards, as the references build it.

    ``transitions`` maps state pairs to guards, in pair order.  ``step``
    follows ``tables`` when given and then checks the guard of the pair found,
    so the guards must imply the tables'.  ``essential_step`` reads the
    guards: the least minimal positive set of the pair's cubes, and the least
    negative set among the cubes with that positive set.
    """

    def __init__(self, n_states, initial, accepting, transitions, tables=()):
        self.n_states = n_states
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.transitions = dict(sorted(transitions.items()))
        self.tables = tables
        succ: dict[int, list[int]] = {}
        for a, b in self.transitions:
            succ.setdefault(a, []).append(b)
        self._succ = {a: tuple(bs) for a, bs in succ.items()}

    def successors(self, state: int) -> tuple[int, ...]:
        return self._succ.get(state, ())

    def guard(self, a: int, b: int) -> Optional[Guard]:
        return self.transitions.get((a, b))

    def step(self, state: int, labels: FrozenSet[str]) -> int:
        table = self.tables[state]
        j = table.targets[table.mask(labels)]
        return j if (self.guard(state, j) or FALSE_GUARD).satisfied_by(labels) else -1

    def essential_step(self, a: int, b: int) -> EssentialStep:
        guard = self.guard(a, b)
        if guard is None or guard.is_unsatisfiable():
            raise NoPositiveWitness(f"no satisfiable guard on run step {a}->{b}")
        witnesses = guard.minimal_witnesses()
        if not witnesses:
            raise NoPositiveWitness(f"guard {guard} admits no positive witness")
        chosen = witnesses[0]
        negs = sorted(
            (neg for pos, neg in guard.cubes if pos == chosen),
            key=lambda s: (len(s), sorted(s)),
        )
        return EssentialStep(chosen, negs[0])


def reference_decomposition_states(nfa: GuardNfa, run: Sequence[int]) -> set[int]:
    """Decomposition positions read off the guards: the run's endpoints, and each
    interior position whose state's self-loop guard admits the empty label and
    where the automaton accepts every interleaving of the nonempty essential
    labels before and after it (at most ``INTERLEAVE_CAP`` on either side)."""
    positions = {0, len(run) - 1}
    labels = [step.labels for step in essential_steps(nfa, run)]
    for p in range(1, len(run) - 1):
        idle = nfa.guard(run[p], run[p])
        prefix, suffix = [l for l in labels[:p] if l], [l for l in labels[p:] if l]
        if idle is not None and idle.empty_set_satisfies() and \
                max(len(prefix), len(suffix)) <= INTERLEAVE_CAP and \
                all(nfa_accepts(nfa, merge) for merge in interleavings(prefix, suffix)):
            positions.add(p)
    return positions


def reference_shortest_accepting_run(nfa) -> list[int]:
    """A minimal-transition accepting run; lexicographic state ties.

    Self-loop steps never appear (they cannot shorten a run).
    """
    accepting_initial = sorted(nfa.initial & nfa.accepting)
    if accepting_initial:
        return [accepting_initial[0]]
    predecessors: Dict[int, list] = {}
    for a in range(nfa.n_states):
        for b in nfa.successors(a):
            predecessors.setdefault(b, []).append(a)
    # hop distances; a self-loop never shortens one, so loops need no filtering
    dist_fwd = bfs(nfa.successors, nfa.initial)[0]
    dist_back = bfs(lambda q: predecessors.get(q, ()), nfa.accepting)[0]
    candidates = [
        (dist_fwd[q] + dist_back[q], q)
        for q in dist_fwd
        if q in dist_back
    ]
    if not candidates:
        raise EmptyLanguage("no accepting state reachable from an initial state")
    best = min(c for c, _ in candidates)
    start = min(q for q in sorted(nfa.initial) if dist_back.get(q) == best)
    run = [start]
    remaining = best
    while remaining:
        current = run[-1]
        for q2 in nfa.successors(current):
            if q2 != current and dist_back.get(q2) == remaining - 1:
                run.append(q2)
                remaining -= 1
                break
        else:
            raise EmptyLanguage("backward distances are inconsistent")
    return run


def reference_tables_read(nfa: Nfa, fleet: Fleet, tasks: Sequence[TaskReq]) -> int:
    """The tables an on-demand copy of the whole automaton ``nfa`` translates to be
    pruned and to give its shortest run: states are progressed in number order,
    up to the greatest state that the reference pruning's forward layers expand
    before the first layer holding an accepting state."""
    ref = reference_prune_nfa(nfa, fleet, tasks)
    layer, seen, expanded = set(ref.initial), set(ref.initial), set()
    while not layer & ref.accepting:
        expanded |= layer
        layer = {b for a in layer for b in ref.successors(a)} - seen
        seen |= layer
    return max(expanded, default=-1) + 1


def guard_nfa(nfa: Nfa) -> GuardNfa:
    """``nfa`` with each kept pair's guard built from its source's table: the
    prime cover of the masks leading there, less, on a pruned automaton, the
    cubes whose positive set is not staffable."""
    transitions = {}
    for a, (bits, targets, _required) in enumerate(nfa.tables):
        for b in nfa.successors(a):
            cubes = guard_from_minterms(list(bits), [m for m, j in enumerate(targets) if j == b]).cubes
            if nfa.staffable is not None:
                cubes = tuple(c for c in cubes if nfa.staffable(a, nfa.tables[a].mask(c[0])))
            transitions[(a, b)] = Guard(cubes)
    return GuardNfa(nfa.n_states, nfa.initial, nfa.accepting, transitions, nfa.tables)


def reference_to_nfa(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> GuardNfa:
    """Translate a formula into an automaton accepting exactly its finite models."""
    root = simplify(f)
    atoms = sorted(atoms_of(root))
    n = len(atoms)
    translator = _Translator()
    root_dnf = _formula_dnf(root)
    index = {root_dnf: 0}
    order = [root_dnf]
    minterms: dict[tuple[int, int], set[int]] = {}
    queue = deque([root_dnf])
    while queue:
        state = queue.popleft()
        i = index[state]
        if not state:  # unsatisfiable residual: dead state
            continue
        for mask in range(1 << n):
            labels = frozenset(atoms[b] for b in range(n) if (mask >> b) & 1)
            target = translator.progress_dnf(state, labels)
            if not target:
                continue
            if target not in index:
                if len(index) >= state_cap:
                    raise StateLimitExceeded(
                        f"automaton for {format_formula(root)!r} exceeds {state_cap} states")
                index[target] = len(order)
                order.append(target)
                queue.append(target)
            minterms.setdefault((i, index[target]), set()).add(mask)
    transitions = {
        pair: guard_from_minterms(atoms, masks) for pair, masks in sorted(minterms.items())
    }
    accepting = frozenset(i for s, i in index.items() if _dnf_eval_empty(s))
    return GuardNfa(len(order), frozenset((0,)), accepting, transitions)


TRUE_GUARD = Guard(((frozenset(), frozenset()),))


def guard_from_cubes(cubes: Iterable[Cube]) -> Guard:
    """Normalize an arbitrary cube list into canonical minimal DNF."""
    cleaned = []
    for pos, neg in cubes:
        if pos & neg:
            continue  # contradictory cube, never satisfiable
        cleaned.append((frozenset(pos), frozenset(neg)))
    if not cleaned:
        return FALSE_GUARD
    atoms = sorted(set().union(*(p | n for p, n in cleaned)))
    if not atoms:
        return TRUE_GUARD
    minterms = set()
    for pos, neg in cleaned:
        free = [a for a in atoms if a not in pos and a not in neg]
        base = sum(1 << i for i, a in enumerate(atoms) if a in pos)
        for r in range(len(free) + 1):
            for extra in combinations(free, r):
                minterms.add(base + sum(1 << atoms.index(a) for a in extra))
    return guard_from_minterms(atoms, minterms)


def reference_primes(atoms: Sequence[str], minterms: Iterable[int]) -> Guard:
    """The prime implicants of a truth table over ``atoms``, by exhaustion.

    Every one of the 3^n cubes whose minterms all lie in the table is kept,
    then the maximal ones, sorted as guards sort their cubes.
    """
    table = set(minterms)
    n = len(atoms)
    implicants = []  # (value, care) bit pairs
    for signs in product((None, 1, 0), repeat=n):
        care = sum(1 << i for i, s in enumerate(signs) if s is not None)
        value = sum(1 << i for i, s in enumerate(signs) if s == 1)
        if value in table and all(m in table for m in range(1 << n) if m & care == value):
            implicants.append((value, care))
    primes = [(value, care) for value, care in implicants
              if not any(c != care and c & ~care == 0 and value & c == v for v, c in implicants)]
    cubes = [(frozenset(a for i, a in enumerate(atoms) if (care & value) >> i & 1),
              frozenset(a for i, a in enumerate(atoms) if (care & ~value) >> i & 1))
             for value, care in primes]
    return Guard(tuple(sorted(cubes, key=_cube_key)))


def reference_prune_nfa(nfa: Nfa, fleet: Fleet, tasks: Sequence[TaskReq]) -> GuardNfa:
    """Drop guard disjuncts (and transitions) the fleet can never staff.

    State indices are preserved; transitions out of forward-unreachable
    states are dropped along with the states themselves.  Each distinct
    positive set is tested once.  The result keeps its filtered guards and
    steps by ``nfa``'s tables.
    """
    by_prop = {t.prop: t for t in tasks if t.collaborative}
    feasible: Dict[FrozenSet[str], bool] = {}
    filtered = {}
    for pair, guard in guard_nfa(nfa).transitions.items():
        for pos, _neg in guard.cubes:
            if pos not in feasible:
                feasible[pos] = demand_feasible(pos, fleet, by_prop)
        cubes = tuple(c for c in guard.cubes if feasible[c[0]])
        if cubes:
            filtered[pair] = Guard(cubes)
    reachable = set(bfs(GuardNfa(nfa.n_states, nfa.initial, (), filtered).successors,
                        nfa.initial)[0])
    transitions = {(a, b): g for (a, b), g in filtered.items() if a in reachable and b in reachable}
    pruned = GuardNfa(nfa.n_states, nfa.initial, frozenset(nfa.accepting & reachable), transitions,
                      nfa.tables)
    if not pruned.accepting:
        raise EmptyLanguage("no accepting state is reachable after capacity pruning")
    return pruned
