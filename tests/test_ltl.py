"""Parser, automaton translation, and essential-sequence behavior."""

import random

import pytest

from fleetplan.errors import NextOperatorForbidden, ParseError
from fleetplan.guards import guard_from_cubes
from fleetplan.ltl import (
    And,
    Atom,
    Eventually,
    Not,
    TrueF,
    Until,
    atoms_of,
    essential_steps,
    format_formula,
    nfa_accepts,
    parse_formula,
    to_nfa,
)

from oracles import all_traces, essential_sequence, eval_trace, random_formula


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


def test_state_cap_raises():
    from fleetplan.errors import StateLimitExceeded

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
