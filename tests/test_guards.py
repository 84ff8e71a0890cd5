"""Guard normalization: canonical minimal DNF properties."""

import random
from itertools import combinations, product

from fleetplan.guards import FALSE_GUARD, TRUE_GUARD, Guard, guard_from_minterms

from oracles import guard_from_cubes, reference_primes

PROPS = ["p1", "p2", "p3", "p4", "p5", "p6"]


def all_label_sets(props):
    return [frozenset(c) for r in range(len(props) + 1) for c in combinations(props, r)]


def random_cubes(rng, n_props, n_cubes):
    props = PROPS[:n_props]
    cubes = []
    for _ in range(n_cubes):
        pos = {p for p in props if rng.random() < 0.35}
        neg = {p for p in props if p not in pos and rng.random() < 0.3}
        cubes.append((frozenset(pos), frozenset(neg)))
    return cubes


def test_normalization_preserves_satisfying_family_and_is_idempotent():
    rng = random.Random(17)
    for _ in range(150):
        n_props = rng.randint(1, 6)
        cubes = random_cubes(rng, n_props, rng.randint(1, 4))
        raw = Guard(tuple(cubes))
        norm = guard_from_cubes(cubes)
        universe = all_label_sets(PROPS[:n_props])
        for labels in universe:
            assert norm.satisfied_by(labels) == raw.satisfied_by(labels)
        again = guard_from_cubes(norm.cubes)
        assert again == norm


def test_normalized_cubes_form_an_antichain():
    rng = random.Random(23)
    for _ in range(100):
        cubes = random_cubes(rng, rng.randint(2, 6), rng.randint(2, 4))
        norm = guard_from_cubes(cubes)
        for a in norm.cubes:
            for b in norm.cubes:
                if a is b:
                    continue
                assert not (a[0] <= b[0] and a[1] <= b[1]), (a, b)


def test_contradictory_cube_is_dropped():
    guard = guard_from_cubes([(frozenset({"p1"}), frozenset({"p1"}))])
    assert guard == FALSE_GUARD


def test_tautology_collapses_to_true():
    guard = guard_from_cubes([
        (frozenset({"p1"}), frozenset()),
        (frozenset(), frozenset({"p1"})),
    ])
    assert guard == TRUE_GUARD


def test_minimal_witnesses_are_inclusion_minimal():
    guard = guard_from_cubes([
        (frozenset({"p1", "p2"}), frozenset()),
        (frozenset({"p1"}), frozenset({"p3"})),
    ])
    for witness in guard.minimal_witnesses():
        assert guard.satisfied_by(witness)
        for prop in witness:
            smaller = witness - {prop}
            others = [w for w in guard.minimal_witnesses() if w != witness]
            assert not any(w <= smaller for w in [witness]), "witness not minimal"


def test_prime_covers_equal_exhaustive_primes_on_every_table_up_to_three_atoms():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            minterms = [m for m in range(1 << n) if table >> m & 1]
            assert guard_from_minterms(PROPS[:n], minterms) == reference_primes(PROPS[:n], minterms)


def test_prime_covers_equal_exhaustive_primes_on_every_single_cube_table():
    for n in range(4, 7):
        full = (1 << n) - 1
        for signs in product((None, 1, 0), repeat=n):
            care = sum(1 << i for i, s in enumerate(signs) if s is not None)
            value = sum(1 << i for i, s in enumerate(signs) if s == 1)
            minterms = [m for m in range(full + 1) if m & care == value]
            got = guard_from_minterms(PROPS[:n], minterms)
            assert got == reference_primes(PROPS[:n], minterms) and len(got.cubes) == 1


def test_prime_covers_equal_exhaustive_primes_on_random_tables():
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(4, 6)
        density = rng.choice((0.2, 0.5, 0.8))
        minterms = [m for m in range(1 << n) if rng.random() < density]
        assert guard_from_minterms(PROPS[:n], minterms) == reference_primes(PROPS[:n], minterms)
