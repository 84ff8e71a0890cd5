"""Collaborative sequence selection: pruning, shortest runs, decomposition, mission assembly.

The collaborative automaton is pruned against fleet capacity, a shortest
accepting run is selected, its essential sequence extracted, and the sequence
split at decomposition states into independently executable subsequences with
synchronization (same element) and precedence (element order) structure.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from .errors import EmptyLanguage, MissionError
from .ltl import EssentialStep, Nfa, nfa_accepts
from .search import bfs
from .world import Fleet, TaskReq

Occurrence = Tuple[int, int]  # (subsequence index k, flat index l), both 1-based

INTERLEAVE_CAP = 6  # max elements per side in the decomposition certificate


def demand_feasible(props: FrozenSet[str], fleet: Fleet, tasks: Mapping[str, TaskReq]) -> bool:
    """Can the fleet staff all of ``props`` simultaneously?

    Necessary capacity condition: per capability, the summed requirement over
    the simultaneous tasks must not exceed the number of robots holding it
    (one robot serves at most one of the tasks at a time).  It is closed under
    subsets, which pruning and the pruned automaton's answers rely on.
    """
    demand: Dict[str, int] = {}
    for prop in props:
        task = tasks.get(prop)
        if task is None:
            raise MissionError(f"collaborative formula references unknown task {prop!r}")
        for cap, count in task.requirements.items():
            demand[cap] = demand.get(cap, 0) + count
    return all(total <= len(fleet.with_capability(cap)) for cap, total in demand.items())


def prune_nfa(nfa: Nfa, fleet: Fleet, tasks: Sequence[TaskReq]) -> Nfa:
    """Drop the transitions, and the label sets on them, the fleet can never staff.

    State indices are preserved; transitions out of forward-unreachable
    states are dropped along with the states themselves.  The test is closed
    under subsets, so a pair is kept exactly when some label mask of the
    source's table leads there with a staffable positive set: pairs are
    decided on the tables, with one test per distinct positive set.  The
    result keeps that test as its ``staffable`` predicate, from which it
    answers its steps and essential steps (see ``Nfa``).
    """
    by_prop = {t.prop: t for t in tasks if t.collaborative}
    index = {prop: 1 << i for i, prop in enumerate(by_prop)}  # task -> its bit in a key
    staffable = cache(lambda key: demand_feasible([p for p, b in index.items() if key & b],
                                                  fleet, by_prop))
    succ: Dict[int, list] = {}
    for a, (bits, targets, required) in enumerate(nfa.tables):
        keys = [0]  # label mask -> its positive set over the known tasks
        for atom, bit in bits.items():
            if atom not in index and any(
                    m & bit and j >= 0 and targets[m ^ bit] != j for m, j in enumerate(targets)):
                raise MissionError(f"collaborative formula references unknown task {atom!r}")
            keys += [key | index.get(atom, 0) for key in keys]
        for b, low in required.items():  # every mask leading to b contains low
            if staffable(keys[low]) and (targets[low] == b or any(
                    j == b and staffable(keys[m]) for m, j in enumerate(targets))):
                succ.setdefault(a, []).append(b)
    reachable = bfs(lambda q: succ.get(q, ()), nfa.initial)[0]
    pruned = Nfa(nfa.n_states, nfa.initial, nfa.accepting & reachable.keys(), tables=nfa.tables,
                 pairs=[(a, b) for a, bs in succ.items() if a in reachable for b in bs],
                 staffable=lambda a, mask: staffable(sum(
                     index.get(atom, 0) for atom, bit in nfa.tables[a].bits.items() if mask & bit)))
    if not pruned.accepting:
        raise EmptyLanguage("no accepting state is reachable after capacity pruning")
    return pruned


def shortest_accepting_run(nfa: Nfa) -> list[int]:
    """A minimal-transition accepting run, by one breadth-first search backward
    from the accepting states: it starts at the least initial state of least
    distance and steps to the first successor one hop nearer (never a self-loop)."""
    predecessors: Dict[int, list] = {}
    for a in range(nfa.n_states):
        for b in nfa.successors(a):
            predecessors.setdefault(b, []).append(a)
    dist = bfs(lambda q: predecessors.get(q, ()), nfa.accepting)[0]
    starts = [(dist[q], q) for q in nfa.initial if q in dist]
    if not starts:
        raise EmptyLanguage("no accepting state reachable from an initial state")
    remaining, start = min(starts)
    run = [start]
    while remaining:
        remaining -= 1
        run.append(next(q for q in nfa.successors(run[-1]) if dist.get(q) == remaining))
    return run


def decomposition_states(nfa: Nfa, run: Sequence[int], steps: Sequence[EssentialStep]) -> set[int]:
    """Run positions where the run's essential sequence (its ``steps``) may be split.

    A position qualifies when the state can idle on an empty-label self-loop
    (its table leads the empty mask back to it) and every order-preserving
    interleaving of the prefix and suffix elements stays in the automaton's
    language (a conservative certificate of the independence and
    completeness of the split).  Run endpoints always qualify.
    """
    positions = {0, len(run) - 1}
    labels = [s.labels for s in steps]
    for p in range(1, len(run) - 1):
        if nfa.tables[run[p]].targets[0] != run[p]:
            continue
        prefix = [l for l in labels[:p] if l]
        suffix = [l for l in labels[p:] if l]
        if len(prefix) > INTERLEAVE_CAP or len(suffix) > INTERLEAVE_CAP:
            continue
        if all(nfa_accepts(nfa, merge) for merge in _interleavings(prefix, suffix)):
            positions.add(p)
    return positions


def _interleavings(left, right):
    """Every order-preserving merge of two sequences, left elements first."""
    n = len(left) + len(right)
    for picks in combinations(range(n), len(left)):
        lefts, rights = iter(left), iter(right)
        yield tuple(next(lefts) if i in picks else next(rights) for i in range(n))


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


def build_mission(steps: Sequence[EssentialStep], positions: set[int]) -> Mission:
    """Assemble the mission from a run's essential steps and its decomposition positions."""
    if 0 not in positions or len(steps) not in positions:
        raise MissionError("decomposition positions must include the run endpoints")
    cuts = sorted(positions)
    subsequences, negatives = [], {}
    for a, b in zip(cuts, cuts[1:]):
        elements, element_negs = [], []
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
