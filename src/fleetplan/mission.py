"""Collaborative sequence selection: pruning, shortest runs, decomposition, mission assembly.

The collaborative automaton is pruned against fleet capacity, a shortest
accepting run is selected, its essential sequence extracted, and the sequence
split at decomposition states into independently executable subsequences with
synchronization (same element) and precedence (element order) structure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from .errors import EmptyLanguage, MissionError
from .guards import Guard
from .ltl import Nfa, essential_steps, nfa_accepts
from .search import bfs
from .world import Fleet, TaskReq

Occurrence = Tuple[int, int]  # (subsequence index k, flat index l), both 1-based

INTERLEAVE_CAP = 6  # max elements per side in the decomposition certificate


def demand_feasible(props: FrozenSet[str], fleet: Fleet, tasks: Mapping[str, TaskReq]) -> bool:
    """Can the fleet staff all of ``props`` simultaneously?

    Necessary capacity condition: per capability, the summed requirement over
    the simultaneous tasks must not exceed the number of robots holding it
    (one robot serves at most one of the tasks at a time).
    """
    demand: Dict[str, int] = {}
    for prop in props:
        task = tasks.get(prop)
        if task is None:
            raise MissionError(f"guard references unknown collaborative task {prop!r}")
        for cap, count in task.requirements.items():
            demand[cap] = demand.get(cap, 0) + count
    return all(total <= len(fleet.with_capability(cap)) for cap, total in demand.items())


def prune_nfa(nfa: Nfa, fleet: Fleet, tasks: Sequence[TaskReq]) -> Nfa:
    """Drop guard disjuncts (and transitions) the fleet can never staff.

    State indices are preserved; transitions out of forward-unreachable
    states are dropped along with the states themselves.
    """
    by_prop = {t.prop: t for t in tasks if t.collaborative}
    filtered = {}
    for pair, guard in nfa.transitions.items():
        cubes = tuple(c for c in guard.cubes if demand_feasible(c[0], fleet, by_prop))
        if cubes:
            filtered[pair] = Guard(cubes)
    reachable = set(bfs(Nfa(nfa.n_states, nfa.initial, (), filtered).successors, nfa.initial)[0])
    transitions = {(a, b): g for (a, b), g in filtered.items() if a in reachable and b in reachable}
    pruned = Nfa(nfa.n_states, nfa.initial, frozenset(nfa.accepting & reachable), transitions)
    if not pruned.accepting:
        raise EmptyLanguage("no accepting state is reachable after capacity pruning")
    return pruned


def shortest_accepting_run(nfa: Nfa) -> list[int]:
    """A minimal-transition accepting run; lexicographic state ties.

    Self-loop steps never appear (they cannot shorten a run).
    """
    accepting_initial = sorted(nfa.initial & nfa.accepting)
    if accepting_initial:
        return [accepting_initial[0]]
    predecessors: Dict[int, list] = {}
    for a, b in nfa.transitions:
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


def decomposition_states(nfa: Nfa, run: Sequence[int]) -> set[int]:
    """Run positions where the essential sequence may be split.

    A position qualifies when the state can idle on an empty-label self-loop
    and every order-preserving interleaving of the prefix and suffix elements
    stays in the automaton's language (a conservative certificate of the
    independence and completeness of the split).  Run endpoints always
    qualify.
    """
    positions = {0, len(run) - 1}
    if len(run) < 3:
        return positions
    steps = essential_steps(nfa, run)
    labels = [s.labels for s in steps]
    for p in range(1, len(run) - 1):
        guard = nfa.guard(run[p], run[p])
        if guard is None or not guard.empty_set_satisfies():
            continue
        prefix = [l for l in labels[:p] if l]
        suffix = [l for l in labels[p:] if l]
        if len(prefix) > INTERLEAVE_CAP or len(suffix) > INTERLEAVE_CAP:
            continue
        if all(nfa_accepts(nfa, merge) for merge in _interleavings(prefix, suffix)):
            positions.add(p)
    return positions


def _interleavings(left, right):
    out = []

    def rec(prefix, i, j):
        if i == len(left) and j == len(right):
            out.append(tuple(prefix))
            return
        if i < len(left):
            rec(prefix + [left[i]], i + 1, j)
        if j < len(right):
            rec(prefix + [right[j]], i, j + 1)

    rec([], 0, 0)
    return out


class Mission:
    """Decomposed collaborative task sequence with allocation structure.

    ``subsequences[k-1][m-1]`` is the m-th element of subsequence k: a tuple
    of task propositions that must execute synchronously.  Occurrences are
    (k, l) pairs with l flat within the subsequence; ``sorted_occurrences``
    orders all of them by (k, l).  The occurrence and element indexes are
    built once, here: ``element_index`` maps an occurrence to its element's
    position in ``elements()``.
    """

    def __init__(self, subsequences: Tuple[Tuple[Tuple[str, ...], ...], ...],
                 negative_obligations: Optional[Mapping[Tuple[int, int], FrozenSet[str]]] = None):
        self.subsequences = subsequences
        self.negative_obligations = {} if negative_obligations is None else negative_obligations
        seen, task, members, pairs = {}, {}, {}, []
        for k, sub in enumerate(subsequences, start=1):
            pairs.extend((k, m) for m in range(1, len(sub)))
            l = 0
            for m, props in enumerate(sub, start=1):
                group = []
                for prop in props:
                    if not isinstance(prop, str):
                        raise MissionError(f"element entries must be proposition ids, got {prop!r}")
                    if prop in seen:
                        raise MissionError(
                            f"task {prop!r} occurs in elements {seen[prop]} and ({k},{m})")
                    seen[prop] = (k, m)
                    l += 1
                    task[(k, l)] = prop
                    group.append((k, l))
                members[(k, m)] = tuple(group)
        self.sorted_occurrences = tuple(task)
        self._task = task
        self._members = members
        self._elements = tuple(members)
        self._pairs = tuple(pairs)
        self.element_index = {occ: e for e, group in enumerate(members.values()) for occ in group}

    def task_of(self, occ: Occurrence) -> str:
        try:
            return self._task[occ]
        except KeyError:
            raise MissionError(f"no occurrence {occ}") from None

    def element_tasks(self, elem: Tuple[int, int]) -> Tuple[str, ...]:
        k, m = elem
        return self.subsequences[k - 1][m - 1]

    def elements(self) -> Tuple[Tuple[int, int], ...]:
        """Every element (k, m) in (k, m) order."""
        return self._elements

    def consecutive_element_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """All (k, m) pairs naming the boundary between elements m and m+1 of σ^k."""
        return self._pairs

    def element_occurrences(self, elem: Tuple[int, int]) -> Tuple[Occurrence, ...]:
        return self._members[elem]

    def forbidden_at(self, elem: Tuple[int, int]) -> FrozenSet[str]:
        return self.negative_obligations.get(elem, frozenset())


def build_mission(nfa: Nfa, run: Sequence[int], positions: set[int]) -> Mission:
    """Assemble the mission from a run and its decomposition positions."""
    if 0 not in positions or (len(run) - 1) not in positions:
        raise MissionError("decomposition positions must include the run endpoints")
    steps = essential_steps(nfa, run)
    cuts = sorted(positions)
    segments = [(a, b) for a, b in zip(cuts, cuts[1:])]
    subsequences = []
    negatives = {}
    for a, b in segments:
        elements = []
        element_negs = []
        for step in steps[a:b]:
            if not step.labels:
                continue  # no positive obligation, nothing to schedule
            elements.append(tuple(sorted(step.labels)))
            element_negs.append(step.forbidden)
        if not elements:
            continue
        k = len(subsequences) + 1
        subsequences.append(tuple(elements))
        for m, neg in enumerate(element_negs, start=1):
            if neg:
                negatives[(k, m)] = frozenset(neg)
    return Mission(tuple(subsequences), negatives)
