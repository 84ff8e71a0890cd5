"""Transition guards: positive/negative cubes in inclusion-minimal DNF.

A guard is a disjunction of cubes.  Each cube is a pair of disjoint
proposition sets (positive literals, negative literals).  A label set
satisfies a cube when it contains every positive literal and none of the
negative ones.  A guard is built from a truth table as the complete set of
its prime implicants, which is canonical, deduplicated, and free of pairwise
subsumption; no prime mentions a proposition the table does not depend on.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Tuple

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
