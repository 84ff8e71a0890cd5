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
Moves are looked up in the automaton state's labeling table; no guard is read.
A region's label is its interned id in the robot's ``Wts`` (``label_ids``), so
each copy keeps one move row, a list indexed by label id.  A move keeps no
emitted label: it is always the label without its collaborative tasks plus the
tasks fired, and is formed only where it is read.

Most of a product is the grid copied once per automaton state: the copy of
state ``q``.  A copy is *compressed* when its only move into an unlabeled region
is a non-firing self-loop and every world weight is an integer of one type, so
sums of weights are exact.  In a compressed copy the robot crosses unlabeled
regions without changing anything, so the product is searched by *clean hops*:
shortest grid paths whose interior regions carry no label, one table per origin
region (a Dijkstra that reaches labeled regions but does not expand them).  The
search nodes are every state of an uncompressed copy, whose hops are its grid
neighbours, and in a compressed copy the states on labeled regions, on the start
region and on regions the copy is entered on from another copy.  Any other
state's distance is the least ``dist(node) + hop`` over the settled nodes of its
copy.  With positive weights the full product's Dijkstra keeps, as parent of a
state ``c``, the ``(dist, state)`` least predecessor ``p`` with ``dist(p) + w(p, c) ==
dist(c)``; witness walks are rebuilt by that local rule, so they are the walks a
search over every product state finds.  State and edge counts sum over the
connected components of unlabeled regions each compressed copy reaches.  Both
these and the hop tables belong to the robot's ``Wts``, shared by its products.

A product state ``(region, f)`` is the integer id ``rank(region) * nfa.n_states + f``,
``rank`` being the region's position in name order (``World.rank``).  Initial,
accepting and collaborative states, levels, pruned edges, choices and
``Strategy.run`` all hold ids; ``state_of`` decodes one for a message, and
``Strategy.walk`` names the regions of a run.  The ids order like the tuples, and
every search breaks ties by state, so walks and costs are those of a tuple-keyed
product.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import FleetplanError, LevelDisconnected, NoAcceptingPath, Unreachable
from .ltl import And, Atom, Eventually, Formula, Nfa
from .mission import Occurrence
from .world import Hops, Wts

INF = float("inf")


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


class Tree(NamedTuple):
    """One source's search: the distance of every settled node, and per compressed
    copy the ``(hops, dist)`` of its expanded nodes in settling order, from which
    the distance of any other state of the copy follows."""

    source: int
    dist: Dict[int, float]
    expanded: Dict[int, List[Tuple[Hops, float]]]


class ProductPa:
    """Product of a robot's transition system and its formula automaton."""

    def __init__(self, wts: Wts, nfa: Nfa, assigned: Sequence[Tuple[Occurrence, str]],
                 collab_props: FrozenSet[str]):
        self.wts = wts
        self.nfa = nfa
        self.assigned = tuple(assigned)
        self.collab_props = collab_props
        # per label id: the label without collaborative props, its assigned props
        # in name order and in assignment order
        self._parts = tuple((label - collab_props, sorted(label & {p for _o, p in self.assigned}),
                             tuple(p for _o, p in self.assigned if p in label))
                            for label in wts.labels)
        self.initial: Tuple[int, ...] = ()
        self.accepting: FrozenSet[int] = frozenset()
        self.entry_info: Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        self.collab: Dict[str, FrozenSet[int]] = {}
        n = nfa.n_states
        self._rows: List[Optional[List[tuple]]] = [None] * n
        self._sources: Dict[int, Dict[int, list]] = {}  # label id: {f2: quiet f}
        self._compressed: List[bool] = [False] * n
        # per compressed copy, the unlabeled ranks whose states are search nodes
        self._node_cells: Dict[int, Tuple[int, ...]] = {}
        self._outs: Dict[int, Tuple[Tuple[float, int], ...]] = {}
        self._copies: Tuple[int, ...] = ()
        self.n_states = self.n_edges = 0
        self._build()

    # -- construction -----------------------------------------------------

    def _moves(self, f: int, lid: int) -> tuple:
        """``(f2, fired, collab_props)`` per move out of ``f`` into a region of label id
        ``lid``, by ascending ``f2``.  Individual tasks always fire, and at most one
        assigned collaborative task: none if the rest of the label leads somewhere, else
        the first by name whose addition leads somewhere new.  The move emits the label
        without its collaborative tasks plus ``fired``.  ``collab_props`` are the assigned
        tasks that every label leading to a new state contains and the region carries."""
        bits, targets, required = self.nfa.tables[f]
        base, optional, ordered = self._parts[lid]
        mask = sum(map(bits.get, base & bits.keys()))
        fired = {targets[mask]: frozenset()}
        for p in optional:
            fired.setdefault(targets[mask | bits.get(p, 0)], frozenset((p,)))
        fired.pop(-1, None)
        return tuple((f2, fired[f2], () if f2 == f else tuple(
            p for p in ordered if bits.get(p, 0) & required[f2])) for f2 in sorted(fired))

    def _row(self, f: int) -> List[tuple]:
        """Copy ``f``'s move row, its moves into each label id, built on first request (a
        reached copy meets nearly every label of its robot) with the copy's flag in
        ``_compressed``: whether its one move into an unlabeled region is a plain self-loop."""
        row = self._rows[f]
        if row is None:
            row = self._rows[f] = [self._moves(f, lid) for lid in range(len(self._parts))]
            self._compressed[f] = self.wts.world.exact and row[0] == ((f, frozenset(), ()),)
        return row

    def _is_compressed(self, f: int) -> bool:
        self._row(f)
        return self._compressed[f]

    def _build(self):
        wts, n, parts = self.wts, self.nfa.n_states, self._parts
        label_ids, neighbours, start_rank = wts.label_ids, wts.world.neighbours, wts.start_rank
        collab_sets: Dict[str, set] = {}
        start_id = label_ids[start_rank]
        for f0 in sorted(self.nfa.initial):
            for f, fired, props in self._row(f0)[start_id]:
                s = start_rank * n + f
                if s not in self.entry_info:
                    self.entry_info[s] = (fired, parts[start_id][0] | fired)
                    for prop in props:
                        collab_sets.setdefault(prop, set()).add(s)
        self.initial = tuple(sorted(self.entry_info))
        # reachability over single states and (component, compressed copy) blocks, each
        # expanded when first dequeued
        component, blocks_of = wts.components()
        states, blocks = set(), set()
        entered: Dict[int, set] = {}  # copy: unlabeled ranks entered from another
        queue = deque((start_rank, s % n) for s in self.initial)
        while queue:
            rank, f = queue.popleft()
            row = self._row(f)
            if label_ids[rank] or not self._compressed[f]:
                if rank * n + f in states:
                    continue
                states.add(rank * n + f)
                self.n_states += 1
                steps = [(y, 1) for y, _w in neighbours[rank]]
            else:  # every state of the component, in copy f
                if component[rank] * n + f in blocks:
                    continue
                blocks.add(component[rank] * n + f)
                ranks, inner, steps = blocks_of[component[rank]]
                self.n_states += len(ranks)
                self.n_edges += inner
            for y, m in steps:
                lid = label_ids[y]
                moves = row[lid]
                self.n_edges += m * len(moves)
                for f2, _fired, props in moves:
                    for prop in props:
                        collab_sets.setdefault(prop, set()).add(y * n + f2)
                    if f2 != f and not lid:
                        entered.setdefault(f2, set()).add(y)
                    queue.append((y, f2))
        self._copies = tuple(sorted({s % n for s in states} | {b % n for b in blocks}))
        start_cell = set() if start_id else {start_rank}
        self._node_cells = {f: tuple(sorted(start_cell | entered.get(f, set())))
                            for f in self._copies if self._compressed[f]}
        accepting = self.nfa.accepting
        reached = [s for s in states if s % n in accepting]
        reached += [rank * n + block % n for block in blocks if block % n in accepting
                    for rank in blocks_of[block // n][0]]
        self.accepting = frozenset(reached)
        self.collab = {prop: frozenset(collab_sets.get(prop, ())) for _occ, prop in self.assigned}

    # -- clean-hop search ---------------------------------------------------

    def _out(self, s: int) -> Tuple[Tuple[float, int], ...]:
        """``(hop, target)`` per non-firing hop out of node ``s``, kept in ``_outs``."""
        n, wts = self.nfa.n_states, self.wts
        rank, f = divmod(s, n)
        row, label_ids = self._row(f), wts.label_ids
        if self._compressed[f]:
            hops = wts.hops(rank)
            steps = hops.border.items()
            out = [(hops.dist[c], c * n + f) for c in self._node_cells[f]
                   if hops.dist[c] < INF and c != rank]
        else:
            steps, out = wts.world.neighbours[rank], []
        out += [(h, y * n + g) for y, h in steps for g, fired, _p in row[label_ids[y]] if not fired]
        out = self._outs[s] = tuple(out)
        return out

    def search(self, source: int, stop: bool = False) -> Tuple[Tree, Optional[int]]:
        """Dijkstra over the non-firing edges from ``source``, settling nodes in
        ``(dist, state)`` order.  With ``stop`` it ends on the first settled
        accepting state, which is the full product's first, and returns it."""
        n, accepting, compressed = self.nfa.n_states, self.nfa.accepting, self._compressed
        outs, hop_tables = self._outs, self.wts.hop_tables
        tree = Tree(source, {}, {})
        settled = tree.dist
        best = {source: 0}
        heap = [(0, source)]
        while heap:
            d, s = heappop(heap)
            if s in settled:
                continue
            settled[s] = d
            rank, f = divmod(s, n)
            if stop and f in accepting:
                return tree, s
            out = outs.get(s)
            if out is None:
                out = self._out(s)
            if compressed[f]:
                tree.expanded.setdefault(f, []).append((hop_tables[rank], d))
            for h, t in out:
                nd = d + h
                if nd < best.get(t, INF):
                    best[t] = nd
                    heappush(heap, (nd, t))
        return tree, None

    def distance(self, tree: Tree, s: int) -> Optional[float]:
        """Distance from the tree's source: a settled node's, else the least
        ``dist(node) + hop`` over the expanded nodes of the state's copy; None if the
        search did not reach the state.  After an early stop it is exact below the
        stop's distance."""
        d = tree.dist.get(s)
        if d is not None:
            return d
        rank, f = divmod(s, self.nfa.n_states)
        best = INF
        for hops, do in tree.expanded.get(f, ()):
            if do >= best:  # settling order: no later node is closer
                break
            best = min(best, do + hops.dist[rank])
        return None if best == INF else best

    def _quiet_sources(self, lid: int, f2: int) -> list:
        """The reached copies with a non-firing move into label id ``lid`` ending in ``f2``."""
        sources = self._sources.get(lid)
        if sources is None:
            sources = self._sources[lid] = {}
            for f in self._copies:
                for g, fired, _p in self._row(f)[lid]:
                    if not fired:
                        sources.setdefault(g, []).append(f)
        return sources.get(f2, [])

    def walk(self, tree: Tree, s: int) -> List[int]:
        """The tree's path from its source to ``s``: each state's parent is the
        ``(dist, state)`` least predecessor ``p`` with ``dist(p) + w == dist(s)``.

        In a compressed copy ``g`` the candidates are the hop parents of ``s``'s region
        from the expanded nodes of ``g`` whose hops reach ``s`` at its distance: every
        predecessor of ``s`` at ``dist(s) - w`` lies on such a hop.  When one node
        alone reaches an unlabeled region, the walk follows its hop parents back to it."""
        n, label_ids, neighbours = self.nfa.n_states, self.wts.label_ids, self.wts.world.neighbours
        settled, expanded, compressed = tree.dist, tree.expanded, self._compressed
        path = [s]
        d = self.distance(tree, s)
        while s != tree.source:
            rank, f = divmod(s, n)
            lid = label_ids[rank]
            candidates, owners = [], []
            for g in self._quiet_sources(lid, f):
                if not compressed[g]:  # every state of the copy is a node
                    for y, w in neighbours[rank]:
                        dp = settled.get(y * n + g)
                        if dp is not None and dp + w == d:
                            candidates.append((dp, y * n + g))
                    continue
                for hops, do in expanded.get(g, ()):
                    if do >= d:
                        break
                    if do + (hops.border.get(rank, INF) if lid else hops.dist[rank]) == d:
                        owners.append((g, hops, do))
            if not candidates and len(owners) == 1 and not lid:
                g, hops, d = owners[0]
                rank = hops.parent[rank]
                while rank is not None:
                    path.append(rank * n + g)
                    rank = hops.parent[rank]
                s = path[-1]
                continue
            for g, hops, do in owners:
                y = (hops.border_parent if lid else hops.parent)[rank]
                candidates.append((do + hops.dist[y], y * n + g))
            d, s = min(candidates)
            path.append(s)
        path.reverse()
        return path

    def firing_into(self, t: int, prop: str) -> List[Tuple[int, float]]:
        """``(u, w)`` per edge ``u -> t`` of a reached copy that fires ``prop``."""
        rank, f2 = divmod(t, self.nfa.n_states)
        lid = self.wts.label_ids[rank]
        copies = [f for f in self._copies
                  if any(g == f2 and prop in fired for g, fired, _p in self._row(f)[lid])]
        return [(y * self.nfa.n_states + f, w) for y, w in self.wts.world.neighbours[rank]
                for f in copies]

    # -- queries ----------------------------------------------------------

    def state_of(self, sid: int) -> Tuple[str, int]:
        rank, f = divmod(sid, self.nfa.n_states)
        return self.wts.world.names[rank], f

    def step(self, a: int, b: int) -> Optional[Tuple[float, FrozenSet[str], FrozenSet[str]]]:
        """``(weight, fired, emit)`` of the product edge ``a -> b``, or None."""
        (ra, fa), (rb, fb) = divmod(a, self.nfa.n_states), divmod(b, self.nfa.n_states)
        for y, weight in self.wts.world.neighbours[ra]:
            if y == rb:
                lid = self.wts.label_ids[rb]
                for f2, fired, _p in self._row(fa)[lid]:
                    if f2 == fb:
                        return weight, fired, self._parts[lid][0] | fired
                break
        return None

    @property
    def adjacency(self) -> Mapping[Tuple[str, int], tuple]:
        """``{state: ((target, weight, fired, emit), ...)}`` by target, re-walked breadth-first
        from the move rows on each access (for tests and tracing)."""
        n, label_ids, decode = self.nfa.n_states, self.wts.label_ids, self.state_of
        adjacency, queue, seen = {}, deque(self.initial), set(self.initial)
        while queue:
            rank, f = divmod(queue.popleft(), n)
            row, out = self._row(f), []
            for y, weight in self.wts.world.neighbours[rank]:  # in name order: targets ascend
                base = self._parts[label_ids[y]][0]
                for f2, fired, _p in row[label_ids[y]]:
                    out.append((decode(y * n + f2), weight, fired, base | fired))
                    if y * n + f2 not in seen:
                        seen.add(y * n + f2)
                        queue.append(y * n + f2)
            adjacency[decode(rank * n + f)] = tuple(out)
        return MappingProxyType(adjacency)

    @property
    def edge_info(self) -> Mapping[Tuple[Tuple[str, int], Tuple[str, int]], tuple]:
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
        self.run = tuple(ids)
        first = self.run[0]
        if first not in pa.entry_info:
            raise FleetplanError(f"run does not start at an initial state: {pa.state_of(first)}")
        steps = []
        for a, b in zip(ids, ids[1:]):
            steps.append(pa.step(a, b))
            if steps[-1] is None:
                raise FleetplanError(f"run uses a non-edge {pa.state_of(a)}->{pa.state_of(b)}")
        fired0, emit0 = pa.entry_info[first]
        self.fired = (fired0, *(fired for _w, fired, _e in steps))
        self.emits = (emit0, *(emit for _w, _f, emit in steps))
        self.step_weights = tuple(w for w, _f, _e in steps)
        self.walk = tuple(pa.state_of(s)[0] for s in self.run)
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
    witness's path in the source's search tree (None for an entry firing).  Into the
    final level a source keeps only its edge to the ``(cost, state)`` least accepting state.
    """

    def __init__(self, pa: ProductPa):
        self.pa = pa
        self.assigned = pa.assigned
        self.levels: List[Tuple[int, ...]] = [
            pa.initial, *(tuple(sorted(pa.collab[prop])) for _occ, prop in pa.assigned),
            tuple(sorted(pa.accepting))]
        self.edges: Dict[Tuple[int, int, int], Tuple[float, Optional[int]]] = {}
        self._trees: List[Dict[int, Tree]] = []
        self._expanded: Dict[Tuple[int, ...], Strategy] = {}
        self._build_edges()
        self._suffix: Dict[Tuple[int, int], Tuple[float, Optional[int]]] = {}
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
            firing_in = {} if is_final else {t: pa.firing_into(t, prop) for t in targets}
            trees = {}
            for source in sources:
                trees[source], t = pa.search(source, stop=is_final)
                if is_final:  # one edge, to the (cost, state) least accepting state
                    if t is not None:
                        self.edges[(li, source, t)] = (trees[source].dist[t], t)
                    continue
                for t, into in firing_in.items():
                    reached = ((pa.distance(trees[source], u), w, u) for u, w in into)
                    best = min(((d + w, u) for d, w, u in reached if d is not None), default=None)
                    if best is not None:
                        self.edges[(li, source, t)] = best
            self._trees.append(trees)
            if len(self.edges) == found:
                raise LevelDisconnected(
                    f"robot {pa.wts.robot_id}: no edges into level {li + 1}")

    def _build_suffix(self):
        last = len(self.levels) - 1
        for state in self.levels[last]:
            self._suffix[(last, state)] = (0, None)
        for li in range(last - 1, -1, -1):
            for state in self.levels[li]:
                best = min(((edge[0] + tail[0], succ) for succ in self.levels[li + 1]
                            if (edge := self.edges.get((li, state, succ))) is not None
                            and (tail := self._suffix.get((li + 1, succ))) is not None),
                           default=None)
                if best is not None:
                    self._suffix[(li, state)] = best
        if not any((0, s) in self._suffix for s in self.levels[0]):
            raise LevelDisconnected(
                f"robot {self.pa.wts.robot_id}: accepting level unreachable through the hierarchy")

    # -- queries ----------------------------------------------------------

    def edge_weight(self, level: int, a: int, b: int) -> Optional[float]:
        edge = self.edges.get((level, a, b))
        return None if edge is None else edge[0]

    def suffix_cost(self, level: int, state: int) -> Optional[float]:
        entry = self._suffix.get((level, state))
        return None if entry is None else entry[0]

    def best_chain_from(self, level: int, state: int) -> List[int]:
        """Cheapest continuation through the remaining levels (greedy by DP)."""
        chain = [state]
        li = level
        while True:
            entry = self._suffix.get((li, chain[-1]))
            if entry is None:
                raise LevelDisconnected(
                    f"state {self.pa.state_of(chain[-1])} has no continuation")
            if entry[1] is None:
                return chain
            chain.append(entry[1])
            li += 1

    def shortest_choice(self) -> List[int]:
        """Level choice of minimal total weight, starting from the best initial state."""
        best = min(((cost, state) for state in self.levels[0]
                    if (cost := self.suffix_cost(0, state)) is not None), default=None)
        if best is None:
            raise LevelDisconnected("no initial state reaches the accepting level")
        return self.best_chain_from(0, best[1])

    def _path(self, li: int, a: int, b: int) -> List[int]:
        _cost, u = self.edges[(li, a, b)]
        if u is None:
            return [a]
        path = self.pa.walk(self._trees[li][a], u)
        if li < len(self.levels) - 2:
            path.append(b)
        return path

    def expand(self, choice: Sequence[int]) -> Strategy:
        """Expand a level choice into a concrete strategy via edge witnesses, once per
        choice: assignments sharing this product often settle on the same one."""
        key = tuple(choice)
        if key not in self._expanded:
            if len(choice) != len(self.levels):
                raise FleetplanError(
                    f"choice length {len(choice)} != level count {len(self.levels)}")
            ids = [choice[0]]
            for li, (a, b) in enumerate(zip(choice, choice[1:])):
                if (li, a, b) not in self.edges:
                    raise Unreachable(f"missing pruned edge at level {li}: "
                                      f"{self.pa.state_of(a)}->{self.pa.state_of(b)}")
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
