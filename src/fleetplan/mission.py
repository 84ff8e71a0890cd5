"""Collaborative sequence selection: pruning, shortest runs, decomposition, mission assembly.

The collaborative automaton is pruned against fleet capacity, a shortest
accepting run is selected, its essential sequence extracted, and the sequence
split at decomposition states into independently executable subsequences with
synchronization (same element) and precedence (element order) structure.
Pruning and run selection search any automaton forward only to the first layer
holding an accepting state, so one read on demand is translated no further.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from .errors import EmptyLanguage, MissionError
from .ltl import EssentialStep, Nfa, nfa_accepts
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

    State indices are preserved.  A state's pairs are decided when the state
    is first reached, in one pass over its table: a pair is kept when some
    mask with a staffable positive set leads there (one test per distinct
    positive set; the test is closed under subsets).  The result keeps the
    test as its ``staffable`` predicate, from which it answers its steps and
    essential steps (see ``Nfa``); unreached states have no pairs, and
    ``accepting`` holds the accepting states reached.  The search forward
    stops at the first layer holding an accepting state, so an automaton read
    on demand is translated only that far; reading a reached state's successors
    decides it, so walking them checks each state reached for unknown tasks.
    """
    by_prop = {t.prop: t for t in tasks if t.collaborative}
    index = {prop: 1 << i for i, prop in enumerate(by_prop)}  # task -> its bit in a key
    staffable = cache(lambda key: demand_feasible([p for p, b in index.items() if key & b],
                                                  fleet, by_prop))

    @cache
    def keys(a: int) -> list:  # state a's label masks -> their positive sets over the known tasks
        bits, targets, _required = nfa.tables[a]
        out = [0]
        for atom, bit in bits.items():
            if atom not in index and any(
                    m & bit and j >= 0 and targets[m ^ bit] != j for m, j in enumerate(targets)):
                raise MissionError(f"collaborative formula references unknown task {atom!r}")
            out += [key | index.get(atom, 0) for key in out]
        return out

    reached = set(nfa.initial)
    accepting = reached & nfa.accepting

    @cache
    def decide(a: int) -> tuple:
        _bits, targets, required = nfa.tables[a]
        kept = set()
        for j, key in zip(targets, keys(a)):
            if j >= 0 and j not in kept and staffable(key):
                kept.add(j)
        reached.update(kept)
        accepting.update(kept & nfa.accepting)
        return tuple(b for b in required if b in kept)

    layer = set(nfa.initial)
    while layer and not accepting:
        known = set(reached)
        layer = {b for a in layer for b in decide(a)} - known
    if not accepting:
        raise EmptyLanguage("no accepting state is reachable after capacity pruning")
    return Nfa(nfa.n_states, nfa.initial, accepting, nfa.tables,
               pairs=lambda a: decide(a) if a in reached else (),
               staffable=lambda a, mask: staffable(keys(a)[mask]))


def shortest_accepting_run(nfa: Nfa) -> list[int]:
    """A minimal-transition accepting run.  A breadth-first search forward stops
    at the first layer holding an accepting state, at depth ``D``; a search
    backward inside the layers marks the states at depth ``k`` that are
    ``D - k`` steps from acceptance, whose shortest paths stay within depth
    ``D``.  The run starts at the least marked initial state and steps to the
    first marked successor (never a self-loop)."""
    layers = [set(nfa.initial)]
    seen = set(nfa.initial)
    while not layers[-1] & nfa.accepting:
        layer = {b for a in layers[-1] for b in nfa.successors(a)} - seen
        if not layer:
            raise EmptyLanguage("no accepting state reachable from an initial state")
        seen |= layer
        layers.append(layer)
    marked = [layers.pop() & nfa.accepting]
    for layer in reversed(layers):
        marked.append({a for a in layer if not marked[-1].isdisjoint(nfa.successors(a))})
    marked.reverse()
    run = [min(marked[0])]
    for good in marked[1:]:
        run.append(next(b for b in nfa.successors(run[-1]) if b in good))
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
