"""Per-robot synthesis: modified formulas, product automata, layered pruning.

A robot's product automaton pairs its transition-system position with the
automaton state of its modified formula.  Labels are consumed on entry: the
label emitted when entering a region is the region's individual tasks (which
always fire) plus at most one assigned collaborative task when the crossing
guard requires it.  A collaborative task therefore fires exactly at the run
position whose incoming guard demands it, which is what makes the layered
(pruned) view below exact.

Edges are built from a table of moves per (automaton state, region label),
the only inputs an edge's firing set, label and collaborative marks depend on.
Pruning searches the non-firing edges and the firing edges, then releases them:
a product keeps its move tables, from which runs and the edge views are decoded.

Inside the product and its pruning a state ``(region, f)`` is the integer
``rank(region) * nfa.n_states + f``, ``rank`` being the region's position in name
order.  The integers order like the tuples, and every search breaks ties by
state key, so walks and costs are those of a tuple-keyed product.  Initial,
accepting and collaborative states, levels, choices and ``Strategy.run`` stay tuples.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .errors import FleetplanError, LevelDisconnected, NoAcceptingPath, Unreachable
from .guards import Guard
from .ltl import And, Atom, Eventually, Formula, Nfa
from .mission import Occurrence
from .search import dijkstra, reconstruct
from .world import Wts

State = Tuple[str, int]  # (region, automaton state)


def build_local_formula(phi_r: Formula, assigned: Sequence[Tuple[Occurrence, str]]) -> Formula:
    """Conjoin the robot's formula with its collaborative ordering chain.

    Within a subsequence the assigned tasks are chained as nested
    eventualities; chains of later subsequences hang off the last task of the
    previous one, fixing a deadlock-free execution order across subsequences.
    """
    if not assigned:
        return phi_r
    by_sub: Dict[int, List[str]] = {}
    for (k, _l), prop in assigned:
        by_sub.setdefault(k, []).append(prop)
    chain: Optional[Formula] = None
    for k in sorted(by_sub, reverse=True):
        props = by_sub[k]
        last: Formula = Atom(props[-1])
        if chain is not None:
            last = And(last, Eventually(chain))
        expr = last
        for prop in reversed(props[:-1]):
            expr = And(Atom(prop), Eventually(expr))
        chain = Eventually(expr)
    return And(phi_r, chain)


class ProductPa:
    """Product of a robot's transition system and its formula automaton."""

    def __init__(self, wts: Wts, nfa: Nfa, assigned: Sequence[Tuple[Occurrence, str]],
                 collab_props: FrozenSet[str]):
        self.wts = wts
        self.nfa = nfa
        self.assigned = tuple(assigned)
        self.collab_props = collab_props
        self._assigned_props = frozenset(p for _o, p in self.assigned)
        self.regions: Tuple[str, ...] = tuple(sorted(wts.adjacency))
        self._rank = {region: i for i, region in enumerate(self.regions)}
        self.initial: Tuple[State, ...] = ()
        self.accepting: frozenset = frozenset()
        self.entry_info: Dict[State, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        self.collab: Dict[str, frozenset] = {}
        self._tables: List[Dict[FrozenSet[str], tuple]] = [{} for _f in range(nfa.n_states)]
        # the search graph, released by pruning
        self.quiet: Optional[Dict[int, tuple]] = {}  # id: ((target, weight), ...) non-firing
        self.firing: Optional[List[tuple]] = []  # (source, target, weight, fired) per firing edge
        self.n_states = self.n_edges = 0
        self._build()

    # -- construction -----------------------------------------------------

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

    def _moves(self, f: int, label: FrozenSet[str]) -> tuple:
        """``(f2, fired, emit, collab_props)`` per move out of ``f`` into a region
        labelled ``label``, in successor order.  ``collab_props`` are the assigned
        tasks that a state-changing guard requires and the region carries."""
        base, optional = label - self.collab_props, label & self._assigned_props
        moves = []
        for f2 in self.nfa.successors(f):
            guard = self.nfa.guard(f, f2)
            fired = self._select_emit(guard, base, optional)
            if fired is None:
                continue
            witnesses = guard.minimal_witnesses() if f2 != f else ()
            required = frozenset.intersection(*witnesses) if witnesses else frozenset()
            props = tuple(p for _o, p in self.assigned if p in required and p in label)
            moves.append((f2, fired, base | fired, props))
        return tuple(moves)

    def _build(self):
        tables, labels = self._tables, self.wts.labels
        collab_sets: Dict[str, set] = {}
        start = self.wts.initial
        initial_states = []
        for f0 in sorted(self.nfa.initial):
            tables[f0][labels[start]] = moves = self._moves(f0, labels[start])
            for f, fired, emit, props in moves:
                state = (start, f)
                if state not in self.entry_info:
                    initial_states.append(state)
                    self.entry_info[state] = (fired, emit)
                    for prop in props:
                        collab_sets.setdefault(prop, set()).add(self.state_id(state))
        self.initial = tuple(sorted(initial_states))
        for s, steps in self._walk():
            silent = []
            for base, weight, moves in steps:
                self.n_edges += len(moves)
                for f2, fired, _emit, props in moves:
                    if fired:
                        self.firing.append((s, base + f2, weight, fired))
                    else:
                        silent.append((base + f2, weight))
                    for prop in props:
                        collab_sets.setdefault(prop, set()).add(base + f2)
            self.quiet[s] = tuple(silent)
        self.n_states = len(self.quiet)
        n, decode = self.nfa.n_states, self.state_of
        self.accepting = frozenset(decode(s) for s in self.quiet if s % n in self.nfa.accepting)
        self.collab = {prop: frozenset(map(decode, collab_sets.get(prop, ())))
                       for _occ, prop in self.assigned}

    def _walk(self):
        """Breadth-first walk of the reachable product, filling the move tables:
        ``(s, steps)`` per state in discovery order, one ``(base, weight, moves)``
        step per neighbour in name order, so the targets ``base + f2`` ascend."""
        n, labels, tables = self.nfa.n_states, self.wts.labels, self._tables
        neighbours = [tuple((self._rank[r2] * n, w, labels[r2]) for r2, w in self.wts.adjacency[r])
                      for r in self.regions]
        queue = deque(map(self.state_id, self.initial))
        seen = set(queue)
        while queue:
            s = queue.popleft()
            rank, f = divmod(s, n)
            table = tables[f]
            steps = []
            for base, weight, label in neighbours[rank]:
                moves = table.get(label)
                if moves is None:
                    moves = table[label] = self._moves(f, label)
                steps.append((base, weight, moves))
                for move in moves:
                    t = base + move[0]
                    if t not in seen:
                        seen.add(t)
                        queue.append(t)
            yield s, steps

    # -- queries ----------------------------------------------------------

    def state_id(self, state: State) -> int:
        return self._rank[state[0]] * self.nfa.n_states + state[1]

    def state_of(self, sid: int) -> State:
        rank, f = divmod(sid, self.nfa.n_states)
        return self.regions[rank], f

    def step(self, a: int, b: int) -> Optional[Tuple[float, FrozenSet[str], FrozenSet[str]]]:
        """``(weight, fired, emit)`` of the product edge ``a -> b``, or None."""
        (ra, fa), (rb, fb) = divmod(a, self.nfa.n_states), divmod(b, self.nfa.n_states)
        region = self.regions[rb]
        weight = dict(self.wts.adjacency[self.regions[ra]]).get(region)
        moves = () if weight is None else self._tables[fa].get(self.wts.labels[region], ())
        return next(((weight, fired, emit) for f2, fired, emit, _p in moves if f2 == fb), None)

    @property
    def adjacency(self) -> Mapping[State, tuple]:
        """``{state: ((target, weight, fired, emit), ...)}`` by target, re-walked from
        the move tables on each access (for tests and tracing)."""
        decode = self.state_of
        return MappingProxyType({
            decode(s): tuple((decode(base + f2), w, fired, emit)
                             for base, w, moves in steps for f2, fired, emit, _p in moves)
            for s, steps in self._walk()})

    @property
    def edge_info(self) -> Mapping[Tuple[State, State], tuple]:
        """``{(a, b): (weight, fired, emit)}``, re-walked on each access."""
        return MappingProxyType({(s, t): (w, f, e) for s, out in self.adjacency.items()
                                 for t, w, f, e in out})


def build_product(wts: Wts, nfa: Nfa, assigned: Sequence[Tuple[Occurrence, str]],
                  collab_props: FrozenSet[str]) -> ProductPa:
    pa = ProductPa(wts, nfa, assigned, collab_props)
    if not pa.accepting:
        raise NoAcceptingPath(
            f"robot {wts.robot_id}: no accepting product state is reachable")
    return pa


class Strategy:
    """An accepting product run, given by its state ids, with its firing bookkeeping."""

    def __init__(self, pa: ProductPa, ids: Sequence[int]):
        self.pa = pa
        self.robot_id = pa.wts.robot_id
        self.run = tuple(map(pa.state_of, ids))
        first = self.run[0]
        if first not in pa.entry_info:
            raise FleetplanError(f"run does not start at an initial state: {first}")
        steps = []
        for a, b in zip(ids, ids[1:]):
            steps.append(pa.step(a, b))
            if steps[-1] is None:
                raise FleetplanError(f"run uses a non-edge {pa.state_of(a)}->{pa.state_of(b)}")
        fired0, emit0 = pa.entry_info[first]
        self.fired = (fired0, *(fired for _w, fired, _e in steps))
        self.emits = (emit0, *(emit for _w, _f, emit in steps))
        self.step_weights = tuple(w for w, _f, _e in steps)
        self.walk = tuple(region for region, _f in self.run)
        self.collab_positions = self._locate_firings()

    def _locate_firings(self) -> Dict[Occurrence, int]:
        positions: Dict[Occurrence, int] = {}
        events = [(i, prop) for i, f in enumerate(self.fired) for prop in sorted(f)]
        expected = list(self.pa.assigned)
        if len(events) != len(expected):
            raise FleetplanError(
                f"robot {self.robot_id}: fired {len(events)} tasks, expected {len(expected)}")
        for (i, prop), (occ, want) in zip(events, expected):
            if prop != want:
                raise FleetplanError(
                    f"robot {self.robot_id}: fired {prop} out of order (expected {want})")
            if self.run[i] not in self.pa.collab[prop]:
                raise FleetplanError(
                    f"robot {self.robot_id}: fired {prop} outside its collaborative states")
            positions[occ] = i
        return positions

    @property
    def weight(self) -> float:
        return sum(self.step_weights)


class PrunedPa:
    """Layered view of a product automaton.

    Level 0 holds the initial states, one level per assigned occurrence holds
    that task's collaborative states, and the final level holds accepting
    states.  Edges join consecutive levels; each stores ``(cost, u)``, ``u`` ending its
    witness's path in the source's Dijkstra tree (None for an entry firing).  Into the
    final level a source keeps only its edge to the ``(cost, state)`` least accepting state.
    """

    def __init__(self, pa: ProductPa):
        if pa.quiet is None:
            raise FleetplanError(
                f"robot {pa.wts.robot_id}: product already pruned; its search graph is released")
        self.pa = pa
        self.assigned = pa.assigned
        self.levels: List[Tuple[State, ...]] = [tuple(sorted(pa.initial))]
        for _occ, prop in pa.assigned:
            self.levels.append(tuple(sorted(pa.collab[prop])))
        self.levels.append(tuple(sorted(pa.accepting)))
        self.edges: Dict[Tuple[int, State, State], Tuple[float, Optional[int]]] = {}
        self._parents: List[Dict[State, Dict[int, Optional[int]]]] = []
        self._expanded: Dict[Tuple[State, ...], Strategy] = {}
        self._build_edges()
        pa.quiet = pa.firing = None
        self._suffix: Dict[Tuple[int, State], Tuple[float, Optional[State]]] = {}
        self._build_suffix()

    def _build_edges(self):
        pa = self.pa
        for li in range(len(self.levels) - 1):
            sources = self.levels[li]
            targets = self.levels[li + 1]
            if not sources or not targets:
                raise LevelDisconnected(
                    f"robot {pa.wts.robot_id}: level {li if sources else li + 1} is empty")
            is_final = li == len(self.levels) - 2
            prop = None if is_final else pa.assigned[li][1]
            found = len(self.edges)
            # collaborative entry firings connect a state to itself across levels
            if li == 0 and not is_final:
                for state in sources:
                    fired, _emit = pa.entry_info[state]
                    if prop in fired and state in targets:
                        self.edges[(0, state, state)] = (0, None)
            target_ids = {pa.state_id(t): t for t in targets}
            firing_in: Dict[int, list] = {tid: [] for tid in target_ids}
            for u, t, w, fired in pa.firing:
                if prop in fired and t in firing_in:
                    firing_in[t].append((u, w))
            parents = {}
            for source in sources:
                if is_final:  # one edge, to the (cost, state) least accepting state
                    dist, parents[source], tid = dijkstra(pa.quiet, [pa.state_id(source)],
                                                          stop=target_ids)
                    if tid is not None:
                        self.edges[(li, source, target_ids[tid])] = (dist[tid], tid)
                    continue
                dist, parents[source] = dijkstra(pa.quiet, [pa.state_id(source)])
                for tid, t in target_ids.items():
                    best = min(((dist[u] + w, u) for u, w in firing_in[tid] if u in dist),
                               default=None)
                    if best is not None:
                        self.edges[(li, source, t)] = best
            self._parents.append(parents)
            if len(self.edges) == found:
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

    def edge_weight(self, level: int, a: State, b: State) -> Optional[float]:
        edge = self.edges.get((level, a, b))
        return None if edge is None else edge[0]

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
        """The product path behind pruned edge ``(li, a, b)``, from ``a`` to ``b``."""
        return tuple(map(self.pa.state_of, self._path(li, a, b)))

    def _path(self, li: int, a: State, b: State) -> List[int]:
        _cost, u = self.edges[(li, a, b)]
        if u is None:
            return [self.pa.state_id(a)]
        path = reconstruct(self._parents[li][a], u)
        if li < len(self.levels) - 2:
            path.append(self.pa.state_id(b))
        return path

    def expand(self, choice: Sequence[State]) -> Strategy:
        """Expand a level choice into a concrete strategy via edge witnesses, once per
        choice: assignments sharing this product often settle on the same one."""
        key = tuple(choice)
        if key not in self._expanded:
            if len(choice) != len(self.levels):
                raise FleetplanError(
                    f"choice length {len(choice)} != level count {len(self.levels)}")
            ids = [self.pa.state_id(choice[0])]
            for li, (a, b) in enumerate(zip(choice, choice[1:])):
                if (li, a, b) not in self.edges:
                    raise Unreachable(f"missing pruned edge at level {li}: {a}->{b}")
                ids.extend(self._path(li, a, b)[1:])
            self._expanded[key] = Strategy(self.pa, ids)
        return self._expanded[key]

    def size_stats(self) -> Dict[str, int]:
        return {
            "product_states": self.pa.n_states,
            "product_edges": self.pa.n_edges,
            "max_level_width": max(len(l) for l in self.levels),
            "pruned_edges": len(self.edges),
        }


def prune_product(pa: ProductPa) -> PrunedPa:
    return PrunedPa(pa)
