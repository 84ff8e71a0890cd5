"""Parser, automaton translation, and essential-sequence behavior."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from fleetplan import framework, ltl
from fleetplan.errors import NextOperatorForbidden, ParseError, StateLimitExceeded
from fleetplan.ltl import (
    FALSE,
    TRUE,
    And,
    Atom,
    Eventually,
    Not,
    Or,
    TrueF,
    Until,
    atoms_of,
    essential_steps,
    format_formula,
    nfa_accepts,
    parse_formula,
    simplify,
    to_nfa,
)
from fleetplan.scenario import Scenario, _collab_formula

from oracles import (
    all_traces,
    essential_sequence,
    eval_trace,
    guard_from_cubes,
    random_formula,
    reference_to_nfa,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def lbl(*props):
    return frozenset(props)


def test_parse_conjunction_of_eventualities():
    f = parse_formula("F a & F b")
    assert f == And(Eventually(Atom("a")), Eventually(Atom("b")))


def test_parse_until_with_negation():
    assert parse_formula("!a U b") == Until(Not(Atom("a")), Atom("b"))


def test_parse_rejects_next_operator():
    with pytest.raises(NextOperatorForbidden):
        parse_formula("X a")


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_formula("a & & b")
    assert err.value.position == 4


def test_parse_nested_parentheses_and_precedence():
    f = parse_formula("F (a & F b) | G !c")
    g = parse_formula(format_formula(f))
    assert f == g


@pytest.mark.parametrize("text", [
    "true", "a", "!a", "a & b & c", "a | b & c", "F a U b", "G (a U b)",
    "!(a | b)", "F (ct1 & F ct2)", "!ts1 U ts4",
])
def test_format_round_trips(text):
    f = parse_formula(text)
    assert parse_formula(format_formula(f)) == f


def test_eventually_automaton_shape():
    nfa = to_nfa(parse_formula("F a"))
    assert nfa.n_states == 2
    assert nfa.initial == frozenset({0})
    assert nfa.accepting == frozenset({1})
    assert nfa.guard(0, 0) is not None and not nfa.guard(0, 0).satisfied_by(lbl("a"))
    assert nfa.guard(0, 1).satisfied_by(lbl("a"))
    assert nfa.guard(1, 1).satisfied_by(lbl())


def test_true_automaton_is_single_accepting_state():
    nfa = to_nfa(TrueF())
    assert nfa.n_states == 1
    assert nfa.initial == nfa.accepting == frozenset({0})
    assert nfa.guard(0, 0).satisfied_by(lbl())


def test_acceptance_basics():
    ev = to_nfa(parse_formula("F a"))
    assert nfa_accepts(ev, [lbl(), lbl("a")])
    assert not nfa_accepts(ev, [lbl(), lbl()])
    until = to_nfa(parse_formula("!a U b"))
    assert not nfa_accepts(until, [lbl("a"), lbl("b")])
    assert nfa_accepts(until, [lbl(), lbl("b")])
    assert nfa_accepts(until, [lbl("b")])


def test_empty_trace_semantics():
    assert nfa_accepts(to_nfa(TrueF()), [])
    assert not nfa_accepts(to_nfa(parse_formula("F a")), [])
    assert nfa_accepts(to_nfa(parse_formula("G a")), [])


@pytest.mark.parametrize("kind, other, zero, unit", [(And, Or, FALSE, TRUE), (Or, And, TRUE, FALSE)],
                         ids=["and", "or"])
def test_simplify_normalises_n_ary_nodes(kind, other, zero, unit):
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    # nested children of the same kind are flattened; another kind stays a child
    assert simplify(kind(c, kind(a, kind(b, c)))) == kind(a, b, c)
    assert simplify(kind(other(c, b), a)) == kind(a, other(b, c))
    # duplicates merge, and children sort by printed form: "!c" < "F a" < "b"
    assert simplify(kind(b, Eventually(a), Not(c), b, Not(Not(b)))) == \
        kind(Not(c), Eventually(a), b)
    # the absorbing constant, also from a nested node or a simplified child
    assert simplify(kind(a, zero, b)) == zero
    assert simplify(kind(a, kind(b, zero))) == zero
    assert simplify(kind(a, Not(unit))) == zero
    # the identity is dropped
    assert simplify(kind(a, unit, b, unit)) == kind(a, b)
    # a child next to its negation, a literal or a compound one
    assert simplify(kind(a, b, Not(a))) == zero
    assert simplify(kind(kind(Eventually(c)), a, Not(Eventually(c)))) == zero
    # empty and single-child results
    assert simplify(kind()) == unit
    assert simplify(kind(unit, kind(unit))) == unit
    assert simplify(kind(a)) == a
    assert simplify(kind(a, kind(a), unit)) == a


def test_state_cap_raises():
    f = parse_formula("(a U b) & (b U c) & (c U a) & F (a & b) & F (b & c)")
    with pytest.raises(StateLimitExceeded):
        to_nfa(f, state_cap=2)


def test_translation_matches_trace_evaluator():
    """Progression automaton agrees with direct semantics on a random corpus."""
    rng = random.Random(20240)
    atoms = ["a", "b", "c"]
    for _ in range(120):
        f = random_formula(rng, atoms, depth=3)
        nfa = to_nfa(f)
        for trace in all_traces(sorted(atoms_of(f)), 3):
            assert nfa_accepts(nfa, trace) == eval_trace(f, trace), format_formula(f)


def assert_same_nfa(f):
    nfa, ref = to_nfa(f), reference_to_nfa(f)
    got = (nfa.n_states, nfa.initial, nfa.accepting, nfa.transitions)
    assert got == (ref.n_states, ref.initial, ref.accepting, ref.transitions), format_formula(f)
    return nfa


@pytest.mark.parametrize("n_atoms,depth,count", [(4, 4, 300), (6, 3, 100)])
def test_alphabet_local_translation_equals_reference(n_atoms, depth, count):
    """Progressing each residual over its own atoms gives the same automaton,
    state numbering included, as progressing it over the whole alphabet."""
    rng = random.Random(9000 + n_atoms)
    atoms = [f"p{i}" for i in range(n_atoms)]
    for _ in range(count):
        assert_same_nfa(random_formula(rng, atoms, depth))


def test_alphabet_local_translation_equals_reference_on_planned_formulas(monkeypatch):
    """Every collaborative and local formula the planner translates for the
    alloc-oracle benchmark structures (template seeds 6001-6010)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS["alloc-oracle"]
    formulas = []
    real = framework.to_nfa

    def recording(f, state_cap):
        formulas.append(f)
        return real(f, state_cap)

    monkeypatch.setattr(framework, "to_nfa", recording)
    for seed in workload.template_seeds:
        framework.run_framework(Scenario.from_json(workloads.scenario_json(workload, seed, 0)))
    assert len(formulas) > 2 * len(workload.template_seeds)
    for f in formulas:
        assert_same_nfa(f)


def test_translation_equals_reference_beyond_64_units():
    """F (a & F (b & F (a & ... F a))) nested 70 deep numbers 72 units, so its
    cubes need ints wider than a machine word; a and b alternate so that the
    automaton counts every step of the chain."""
    a, b = Atom("a"), Atom("b")
    f = Eventually(a)
    for i in range(69):
        f = Eventually(And(b if i % 2 == 0 else a, f))
    assert assert_same_nfa(f).n_states == 71


@pytest.mark.parametrize("text", ["!F a", "!(a U b)", "G !F a", "!G (a | F b)"])
def test_negated_temporal_units_equal_reference(text):
    assert_same_nfa(parse_formula(text))


def test_no_translation_cache_outlives_a_call():
    assert not [name for name, obj in vars(ltl).items() if hasattr(obj, "cache_info")]

    def table_sizes():
        return {name: len(obj) for name, obj in vars(ltl).items()
                if isinstance(obj, (dict, set, list))}

    before = table_sizes()
    to_nfa(parse_formula("F a & G (b | F c)"))
    to_nfa(parse_formula("!(a U b) & F (c & F d)"))
    assert table_sizes() == before


def collab_formula(k, template="auto"):
    return _collab_formula([f"ct{i}" for i in range(1, k + 1)], template)


@pytest.mark.parametrize("template", ["auto", "plain"])
@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_translation_equals_reference_on_generated_collaborative_formulas(k, template):
    """The collaborative formulas generate writes, at the sizes the planner
    translates most: alloc-oracle's 6 tasks, and one more."""
    assert_same_nfa(parse_formula(collab_formula(k, template)))


@pytest.mark.parametrize("text", [
    "(a U b) & (b U c) & (c U a) & F (a & b) & F (b & c)",
    "F a & F b & F c & (!c U a)",
    "G (a | !b) & F (c & F d)",
    pytest.param(collab_formula(7), id="generated k=7"),
])
def test_state_cap_fires_at_the_same_state_as_reference(text):
    """The cap one below the state count, and 40 where that is lower."""
    f = parse_formula(text)
    n_states = assert_same_nfa(f).n_states
    for cap in sorted({n_states - 1, min(40, n_states - 1)}):
        with pytest.raises(StateLimitExceeded) as got:
            to_nfa(f, state_cap=cap)
        with pytest.raises(StateLimitExceeded) as ref:
            reference_to_nfa(f, state_cap=cap)
        assert str(got.value) == str(ref.value)


def test_essential_sequence_unique_minimal_set():
    nfa = to_nfa(parse_formula("F (a & b)"))
    run = shortest_two_state_run(nfa)
    assert essential_sequence(nfa, run) == [lbl("a", "b")]


def test_essential_sequence_prefers_smallest_disjunct():
    guard = guard_from_cubes([
        (frozenset({"a", "b"}), frozenset()),
        (frozenset({"c"}), frozenset()),
    ])
    witnesses = guard.minimal_witnesses()
    assert witnesses[0] == lbl("c")


def test_essential_sequence_empty_step_on_true_self_loop():
    nfa = to_nfa(TrueF())
    assert essential_sequence(nfa, [0, 0]) == [lbl()]


def test_essential_steps_record_negative_obligations():
    nfa = to_nfa(parse_formula("!a U b"))
    run = shortest_two_state_run(nfa)
    steps = essential_steps(nfa, run)
    assert steps[0].labels == lbl("b")
    # the chosen disjunct may not forbid anything beyond what b requires
    assert "b" not in steps[0].forbidden


def test_essential_sequence_describes_run_and_is_minimal():
    rng = random.Random(7)
    for _ in range(60):
        f = random_formula(rng, ["a", "b", "c"], depth=3)
        nfa = to_nfa(f)
        run = find_accepting_run(nfa, max_len=4)
        if run is None:
            continue
        steps = essential_sequence(nfa, run)
        for (a,b2), labels in zip(zip(run, run[1:]), steps):
            guard = nfa.guard(a, b2)
            assert guard.satisfied_by(labels)
            for prop in labels:
                assert not guard.satisfied_by(labels - {prop})


def shortest_two_state_run(nfa):
    for init in sorted(nfa.initial):
        for acc in sorted(nfa.accepting):
            if nfa.guard(init, acc) is not None:
                return [init, acc]
    raise AssertionError("expected a direct initial-to-accepting transition")


def find_accepting_run(nfa, max_len):
    """Breadth-first search for any accepting run (oracle-side helper)."""
    frontier = [[q] for q in sorted(nfa.initial)]
    for _ in range(max_len + 1):
        nxt = []
        for run in frontier:
            if run[-1] in nfa.accepting and len(run) > 1:
                return run
            for succ in nfa.successors(run[-1]):
                nxt.append(run + [succ])
        frontier = nxt
    return None
