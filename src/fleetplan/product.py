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
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
        self.initial: Tuple[State, ...] = ()
        self.accepting: frozenset = frozenset()
        self.adjacency: Dict[State, Tuple[Tuple[State, float, FrozenSet[str], FrozenSet[str]], ...]] = {}
        self.edge_info: Dict[Tuple[State, State], Tuple[float, FrozenSet[str], FrozenSet[str]]] = {}
        self.entry_info: Dict[State, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        self.collab: Dict[str, frozenset] = {}
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
        table: Dict[Tuple[int, FrozenSet[str]], tuple] = {}
        collab_sets: Dict[str, set] = {}
        label_of = self.wts.label
        start = self.wts.initial
        initial_states = []
        for f0 in sorted(self.nfa.initial):
            table[f0, label_of(start)] = moves = self._moves(f0, label_of(start))
            for f, fired, emit, props in moves:
                state = (start, f)
                if state not in self.entry_info:
                    initial_states.append(state)
                    self.entry_info[state] = (fired, emit)
                    for prop in props:
                        collab_sets.setdefault(prop, set()).add(state)
        self.initial = tuple(sorted(initial_states))
        seen = set(self.initial)
        queue = deque(self.initial)
        adjacency: Dict[State, list] = {}
        while queue:
            state = queue.popleft()
            region, f = state
            out = []
            for succ_region, weight in self.wts.adjacency[region]:
                key = (f, label_of(succ_region))
                moves = table.get(key)
                if moves is None:
                    moves = table[key] = self._moves(*key)
                for f2, fired, emit, props in moves:
                    target = (succ_region, f2)
                    out.append((target, weight, fired, emit))
                    for prop in props:
                        collab_sets.setdefault(prop, set()).add(target)
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
            adjacency[state] = tuple(sorted(out))
            for target, weight, fired, emit in out:
                self.edge_info[(state, target)] = (weight, fired, emit)
        self.adjacency = adjacency
        self.accepting = frozenset(s for s in seen if s[1] in self.nfa.accepting)
        # collaborative states must be reachable product states
        self.collab = {
            prop: frozenset(s for s in collab_sets.get(prop, ()) if s in seen)
            for _occ, prop in self.assigned
        }

    # -- queries ----------------------------------------------------------

    def collab_states(self, prop: str) -> frozenset:
        return self.collab.get(prop, frozenset())

    def nonfiring_adjacency(self) -> Dict[State, Tuple[Tuple[State, float], ...]]:
        out = {}
        for state, edges in self.adjacency.items():
            out[state] = tuple((t, w) for t, w, fired, _e in edges if not fired)
        return out


def build_product(wts: Wts, nfa: Nfa, assigned: Sequence[Tuple[Occurrence, str]],
                  collab_props: FrozenSet[str]) -> ProductPa:
    pa = ProductPa(wts, nfa, assigned, collab_props)
    if not pa.accepting:
        raise NoAcceptingPath(
            f"robot {wts.robot_id}: no accepting product state is reachable")
    return pa


class Strategy:
    """An accepting product run with its firing bookkeeping."""

    def __init__(self, pa: ProductPa, run: Sequence[State]):
        self.pa = pa
        self.robot_id = pa.wts.robot_id
        self.run = tuple(run)
        first = self.run[0]
        if first not in pa.entry_info:
            raise FleetplanError(f"run does not start at an initial state: {first}")
        fired0, emit0 = pa.entry_info[first]
        fired = [fired0]
        emits = [emit0]
        weights = []
        for a, b in zip(self.run, self.run[1:]):
            info = pa.edge_info.get((a, b))
            if info is None:
                raise FleetplanError(f"run uses a non-edge {a}->{b}")
            w, f, e = info
            weights.append(w)
            fired.append(f)
            emits.append(e)
        self.fired = tuple(fired)
        self.emits = tuple(emits)
        self.step_weights = tuple(weights)
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
            if self.run[i] not in self.pa.collab_states(prop):
                raise FleetplanError(
                    f"robot {self.robot_id}: fired {prop} outside its collaborative states")
            positions[occ] = i
        return positions

    @property
    def weight(self) -> float:
        return sum(self.step_weights)

    def arrival(self, occ: Occurrence) -> float:
        """Ideal arrival time at the occurrence's firing position (no waits)."""
        pos = self.collab_positions[occ]
        return sum(self.step_weights[:pos])

    def label_trace(self) -> List[FrozenSet[str]]:
        """Per-position emitted labels, suitable for automaton acceptance checks."""
        return list(self.emits)


class PrunedPa:
    """Layered view of a product automaton.

    Level 0 holds the initial states, one level per assigned occurrence holds
    that task's collaborative states, and the final level holds accepting
    states.  Edges connect consecutive levels with shortest-path weights and
    carry their witness path for exact expansion.
    """

    def __init__(self, pa: ProductPa):
        self.pa = pa
        self.assigned = pa.assigned
        self.levels: List[Tuple[State, ...]] = [tuple(sorted(pa.initial))]
        for _occ, prop in pa.assigned:
            self.levels.append(tuple(sorted(pa.collab_states(prop))))
        self.levels.append(tuple(sorted(pa.accepting)))
        self.edges: Dict[Tuple[int, State, State], Tuple[float, Tuple[State, ...]]] = {}
        self._build_edges()
        self._suffix: Dict[Tuple[int, State], Tuple[float, Optional[State]]] = {}
        self._build_suffix()

    def _build_edges(self):
        pa = self.pa
        nonfiring = pa.nonfiring_adjacency()
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
                    fired, _emit = pa.entry_info[state]
                    if prop in fired and state in targets:
                        self.edges[(0, state, state)] = (0, (state,))
            firing_in: Dict[State, list] = {}
            if not is_final:
                for (a, b), (w, fired, _e) in pa.edge_info.items():
                    if prop in fired and b in targets:
                        firing_in.setdefault(b, []).append((a, w))
            any_edge = {key for key in self.edges if key[0] == li}
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
        return Strategy(self.pa, run)

    def size_stats(self) -> Dict[str, int]:
        return {
            "product_states": len(self.pa.adjacency),
            "product_edges": len(self.pa.edge_info),
            "max_level_width": max(len(l) for l in self.levels),
            "pruned_edges": len(self.edges),
        }


def prune_product(pa: ProductPa) -> PrunedPa:
    return PrunedPa(pa)
