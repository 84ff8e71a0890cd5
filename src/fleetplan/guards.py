"""Transition guards: positive/negative cubes in inclusion-minimal DNF.

A guard is a disjunction of cubes.  Each cube is a pair of disjoint
proposition sets (positive literals, negative literals).  A label set
satisfies a cube when it contains every positive literal and none of the
negative ones.  Normalization rewrites an arbitrary cube list into the
complete set of prime implicants over the mentioned propositions, which is
canonical, deduplicated, and free of pairwise subsumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, Sequence, Tuple

Cube = Tuple[FrozenSet[str], FrozenSet[str]]


@dataclass(frozen=True)
class Guard:
    """Disjunction of (positive, negative) literal cubes."""

    cubes: Tuple[Cube, ...]

    def satisfied_by(self, labels: FrozenSet[str]) -> bool:
        return any(pos <= labels and not (labels & neg) for pos, neg in self.cubes)

    def is_unsatisfiable(self) -> bool:
        return not self.cubes

    def minimal_witnesses(self) -> list[FrozenSet[str]]:
        """Inclusion-minimal positive label sets satisfying the guard."""
        candidates = [pos for pos, _neg in self.cubes]
        out = []
        for pos in candidates:
            if not any(other < pos for other in candidates):
                out.append(pos)
        return sorted(set(out), key=lambda s: (len(s), sorted(s)))

    def empty_set_satisfies(self) -> bool:
        return any(not pos for pos, _neg in self.cubes)

    def __str__(self) -> str:
        if not self.cubes:
            return "false"
        parts = []
        for pos, neg in self.cubes:
            lits = sorted(pos) + [f"!{p}" for p in sorted(neg)]
            parts.append(" & ".join(lits) if lits else "true")
        return " | ".join(parts)


TRUE_GUARD = Guard(((frozenset(), frozenset()),))
FALSE_GUARD = Guard(())


def _cube_key(cube: Cube):
    pos, neg = cube
    return (len(pos) + len(neg), sorted(pos), sorted(neg))


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
    if len(minterms) == 1 << n:
        return TRUE_GUARD
    # Quine-McCluskey merge: implicants are (value, dontcare-mask) pairs.
    current = {(m, 0) for m in minterms}
    primes = set()
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
        pos = frozenset(atoms[i] for i in range(n) if not (dontcare >> i) & 1 and (value >> i) & 1)
        neg = frozenset(atoms[i] for i in range(n) if not (dontcare >> i) & 1 and not (value >> i) & 1)
        cubes.append((pos, neg))
    return Guard(tuple(sorted(cubes, key=_cube_key)))
