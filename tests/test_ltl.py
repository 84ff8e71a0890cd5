"""Parser, automaton translation, and essential-sequence behavior."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from fleetplan import framework, generate, ltl
from fleetplan.cli import main as cli_main
from fleetplan.errors import EmptyLanguage, NextOperatorForbidden, ParseError, StateLimitExceeded
from fleetplan.ltl import (
    FALSE,
    MAX_NESTING,
    TRUE,
    Always,
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
    on_demand_nfa,
    parse_formula,
    simplify,
    to_nfa,
)
from fleetplan.mission import prune_nfa
from fleetplan.scenario import Scenario, _collab_formula
from fleetplan.world import Fleet, Robot, TaskReq

from oracles import (
    all_traces,
    essential_sequence,
    eval_trace,
    guard_from_cubes,
    guard_nfa,
    random_formula,
    reference_tables_read,
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


@pytest.mark.parametrize("text, message, position", [
    ("a $ b", "unexpected character '$'", 2),
    ("(a b", "expected ')'", 3),
    ("a )", "unexpected trailing input ')'", 2),
    ("U a", "until operator needs a left operand", 0),
])
def test_parse_error_names_its_token_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_parse_refuses_nesting_past_the_limit():
    """A formula nested past the limit is a ParseError naming the limit, not a
    RecursionError; at the limit, the deepest trees of several shapes parse,
    print and translate."""
    with pytest.raises(ParseError, match=f"^formula nests deeper than {MAX_NESTING} levels"):
        parse_formula("F (a & " * 300 + "F a" + ")" * 300)
    shapes = [
        lambda d: "F (a & " * d + "F a" + ")" * d,  # two levels per (
        lambda d: "(x | y & z U " * d + "c" + ")" * d,  # an Or, an And and an Until per (
        lambda d: "!" * d + "a",
        lambda d: " U ".join(["a", "b"] * d),
    ]
    for shape in shapes:
        depth = next(d for d in range(MAX_NESTING, 0, -1) if _parses(shape(d)))
        with pytest.raises(ParseError):
            parse_formula(shape(depth + 1))
        f = parse_formula(shape(depth))
        assert parse_formula(format_formula(f)) == f
        to_nfa(f)


def _parses(text):
    try:
        parse_formula(text)
    except ParseError:
        return False
    return True


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
    guards = guard_nfa(nfa)
    assert guards.guard(0, 0) is not None and not guards.guard(0, 0).satisfied_by(lbl("a"))
    assert guards.guard(0, 1).satisfied_by(lbl("a"))
    assert guards.guard(1, 1).satisfied_by(lbl())


def test_true_automaton_is_single_accepting_state():
    nfa = to_nfa(TrueF())
    assert nfa.n_states == 1
    assert nfa.initial == nfa.accepting == frozenset({0})
    assert guard_nfa(nfa).guard(0, 0).satisfied_by(lbl())


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


def test_simplify_prints_each_node_once(monkeypatch):
    """Sorting the children of a node by printed form does not print their
    subtrees again: on a formula nested 30 deep, ``format_formula`` runs at most
    twice per node, where printing every subtree at every level takes 5,133 calls."""
    text = "ts0"
    for i in range(1, 30):
        text = f"ts{i} & F ({text} | G ts{i})"
    f = parse_formula(text)
    calls = []
    real = ltl.format_formula
    monkeypatch.setattr(ltl, "format_formula", lambda g: calls.append(g) or real(g))
    out = simplify(f)

    def nodes(g):
        return 1 + sum(nodes(c) for c in g._parts() if isinstance(c, ltl.Formula))

    assert nodes(out) == nodes(f) == 175
    assert len(calls) <= 2 * nodes(out)
    assert parse_formula(format_formula(out)) == out  # the kept text is the node's own


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


def assert_same_nfa(f, *received):
    """``to_nfa(f)``, and each automaton a caller received for ``f``, equal the
    reference translation."""
    nfa, ref = to_nfa(f), reference_to_nfa(f)
    for got in (nfa, *received):
        assert (got.n_states, got.initial, got.accepting, guard_nfa(got).transitions) == \
            (ref.n_states, ref.initial, ref.accepting, ref.transitions), format_formula(f)
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
    """Every local formula the planner translates for the alloc-oracle benchmark
    structures (template seeds 6001-6010), and each collaborative automaton it
    reads on demand, completed after the run."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS["alloc-oracle"]
    received, hits = [], []
    real = framework.to_nfa

    def recording(f, state_cap, memo=None):
        size = None if memo is None else len(memo)
        nfa = real(f, state_cap, memo)
        received.append((f, nfa))
        hits.append(size is not None and len(memo) == size)
        return nfa

    collaborative = []
    real_on_demand = framework.on_demand_nfa

    def recording_on_demand(f, state_cap):
        nfa = real_on_demand(f, state_cap)
        collaborative.append((f, nfa))
        return nfa

    monkeypatch.setattr(framework, "to_nfa", recording)
    monkeypatch.setattr(framework, "on_demand_nfa", recording_on_demand)
    scenarios = [Scenario.from_json(workloads.scenario_json(workload, seed, 0))
                 for seed in workload.template_seeds]
    for scenario in scenarios:
        framework.run_framework(scenario)
    assert len(received) > 2 * len(workload.template_seeds)
    # most local formulas repeat a shape: the planner receives those automata renamed
    assert len(received) / 2 < sum(hits) < len(received)
    for f, nfa in received:
        assert_same_nfa(f, nfa)
    # the collaborative automaton, read on demand while planning: to its shortest
    # staffable run's depth, one table where that run is one step (all but 6009)
    read = [len(nfa.tables.progressed) for _f, nfa in collaborative]
    assert read == [1] * 8 + [38, 1]
    for (f, nfa), scenario, count in zip(collaborative, scenarios, read):
        assert count == reference_tables_read(to_nfa(f), scenario.fleet,
                                              scenario.collaborative_tasks())
        tables = tuple(nfa.tables)
        assert_same_nfa(f, ltl.Nfa(len(tables), nfa.initial, nfa.accepting, tables))


def test_on_demand_translation_read_in_any_order_equals_the_reference():
    """An automaton read on demand, its tables read in random state order, then
    completed: each table read, the numbering, the tables and the accepting
    set equal the complete translation's and the reference's.  Between reads
    it accepts what the formula does, for traces that reach only states found
    so far and for traces that read further."""
    rng = random.Random(2929)
    atoms = ["p0", "p1", "p2", "p3"]
    partial = 0
    for _ in range(200):
        f = random_formula(rng, atoms, depth=3)
        whole = assert_same_nfa(f)
        nfa = on_demand_nfa(f)
        assert nfa.n_states is None
        order = rng.sample(range(whole.n_states), rng.randint(1, whole.n_states))
        for q in order:
            assert nfa.tables[q] == whole.tables[q], format_formula(f)
            assert nfa.accepting == whole.accepting & set(range(len(nfa.tables.residuals)))
            trace = [frozenset(a for a in atoms if rng.random() < 0.5)
                     for _ in range(rng.randint(0, 3))]
            assert nfa_accepts(nfa, trace) == eval_trace(f, trace), (format_formula(f), trace)
        partial += len(nfa.tables.progressed) < whole.n_states
        tables = tuple(nfa.tables)
        completed = ltl.Nfa(len(tables), nfa.initial, nfa.accepting, tables)
        assert_same_tables(completed, whole, f)
        assert_same_nfa(f, completed)
    assert partial > 30


def test_on_demand_state_cap_fires_like_the_reference():
    """A cap below the state count raises, with the reference's message, only
    once a read finds one state more than the cap.  A generated collaborative
    formula numbers every state when its first table is read, so its cap fires
    there, as on a complete translation."""
    f = parse_formula("F ct1 | (F (ct2 & F (ct3 & F (ct4 & F ct5)))"
                      " & G !(ct2 & ct3) & G !(ct3 & ct4) & G !(ct4 & ct5))")
    n_states = to_nfa(f).n_states
    for cap in range(1, n_states):
        with pytest.raises(StateLimitExceeded) as ref:
            reference_to_nfa(f, state_cap=cap)
        nfa = on_demand_nfa(f, state_cap=cap)
        found = 1
        while found <= cap:
            try:
                nfa.tables[len(nfa.tables.progressed)]
            except StateLimitExceeded as exc:
                assert str(exc) == str(ref.value)
                break
            found = len(nfa.tables.residuals)
        else:
            raise AssertionError("the cap did not fire")
        assert len(nfa.tables.residuals) == cap
    nfa = on_demand_nfa(f)
    nfa.tables[0]
    assert len(nfa.tables.residuals) == 4 < n_states
    for k in (4, 6, 7):
        g = parse_formula(collab_formula(k))
        n_states = to_nfa(g).n_states
        nfa = on_demand_nfa(g)
        nfa.tables[0]
        assert len(nfa.tables.residuals) == n_states
        with pytest.raises(StateLimitExceeded) as got:
            on_demand_nfa(g, state_cap=n_states - 1).tables[0]
        with pytest.raises(StateLimitExceeded) as ref:
            reference_to_nfa(g, state_cap=n_states - 1)
        assert str(got.value) == str(ref.value)


def test_plan_stops_at_the_collaborative_state_cap_with_the_reference_message(tmp_path, capsys):
    """``stateCap`` bounds the states each automaton translates.  A generated
    collaborative formula finds every state on its first read, so a cap below
    its size stops ``fleetplan plan`` there, with the reference's message.  A
    formula whose automaton passes the cap only beyond its shortest staffable
    run is planned, as with a cap above its size; the complete translation
    would stop."""
    data = generate(seed=3, robots=2, collab=5, grid=(5, 5), individual_per_robot=1).to_json()
    data["options"]["maxAssignments"] = 4
    deep = ("F ct1 | (F (ct2 & F (ct3 & F (ct4 & F ct5)))"
            " & G !(ct2 & ct3) & G !(ct3 & ct4) & G !(ct4 & ct5))")
    for text, cap in [(data["collaborativeFormula"], None), (deep, 4)]:
        f = parse_formula(text)
        cap = cap or to_nfa(f).n_states - 1
        with pytest.raises(StateLimitExceeded) as ref:
            reference_to_nfa(f, state_cap=cap)
        data.update(collaborativeFormula=text)
        data["options"]["stateCap"] = cap
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(data))
        code = cli_main(["plan", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if text != deep:
            assert (code, err) == (1, f"error: {ref.value}\n")
            continue
        assert (code, err) == (0, "")
        capped = framework.run_framework(Scenario.from_json(data))
        data["options"]["stateCap"] = 20_000
        whole = framework.run_framework(Scenario.from_json(data))
        assert [(r.status, r.t_init, r.collab_accepted) for r in capped.rows] == \
            [(r.status, r.t_init, r.collab_accepted) for r in whole.rows]
        assert capped.incumbent.total == whole.incumbent.total


# names that are prefixes of one another or sort around digits, "_" and capitals
RENAMED_ATOMS = ["a", "ab", "a_b", "p1", "p10", "p2", "b", "_a", "Z", "ts1_r0", "ts1_r10"]


def renamed(f, names):
    if isinstance(f, Atom):
        return Atom(names[f.name])
    if isinstance(f, Until):
        return Until(renamed(f.left, names), renamed(f.right, names))
    if isinstance(f, (And, Or)):
        return type(f)(*(renamed(c, names) for c in f.children))
    if isinstance(f, (Not, Eventually, Always)):
        return type(f)(renamed(f.child, names))
    return f


def assert_same_tables(got, want, f):
    assert (got.n_states, got.initial, got.accepting) == \
        (want.n_states, want.initial, want.accepting), format_formula(f)
    assert [(list(t.bits.items()), t.targets, t.required) for t in got.tables] == \
        [(list(t.bits.items()), t.targets, t.required) for t in want.tables], format_formula(f)
    assert list(guard_nfa(got).transitions.items()) == \
        list(guard_nfa(want).transitions.items()), format_formula(f)


def test_memo_tables_equal_direct_translation_under_renamings():
    """Random formulas under random renamings, order-preserving or not,
    translated through one shared memo: each automaton, the order of every
    table's atoms included, is the one a translation without a memo gives."""
    rng = random.Random(2525)
    memo = {}
    hits = 0
    for _ in range(250):
        f = random_formula(rng, ["a", "b", "c", "d"], depth=3)
        atoms = sorted(atoms_of(f))
        for _ in range(3):
            g = renamed(f, dict(zip(atoms, rng.sample(RENAMED_ATOMS, len(atoms)))))
            size = len(memo)
            assert_same_tables(to_nfa(g, memo=memo), to_nfa(g), g)
            hits += len(memo) == size
    assert hits == 750 - len(memo) > 250


def test_memo_tables_keep_the_false_constant_apart_from_an_atom_named_false():
    """``G !true`` simplifies to ``G false``, which prints like ``G`` of an atom
    named false: a formula naming such an atom shares no progression."""
    memo = {}
    for text in ["G !true & F false", "G false & F false", "G !true & F x", "G false & F x"]:
        f = parse_formula(text)
        assert_same_tables(to_nfa(f, memo=memo), to_nfa(f), f)
    assert list(memo) == ["F _0 & G false"]


def test_state_cap_on_a_memo_hit_names_each_formula_like_the_reference():
    """With the memo holding the shape's automaton, a cap below its size raises
    for each formula of that shape, naming that formula as the reference does;
    a failed translation is not stored."""
    memo = {}
    n_states = to_nfa(parse_formula("F p & F q & (!p U q)"), memo=memo).n_states
    for text in ["F a & F b & (!a U b)", "F ts1_r3 & F ts2_r3 & (!ts1_r3 U ts2_r3)"]:
        f = parse_formula(text)
        with pytest.raises(StateLimitExceeded) as got:
            to_nfa(f, state_cap=n_states - 1, memo=memo)
        with pytest.raises(StateLimitExceeded) as ref:
            reference_to_nfa(f, state_cap=n_states - 1)
        assert str(got.value) == str(ref.value)
        assert format_formula(simplify(f)) in str(got.value)
        assert to_nfa(f, state_cap=n_states, memo=memo).n_states == n_states
    assert len(memo) == 1
    with pytest.raises(StateLimitExceeded):
        to_nfa(parse_formula("F x & F y & G (x | y)"), state_cap=1, memo=memo)
    assert len(memo) == 1


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


def test_table_steps_equal_guard_scans_on_random_formulas():
    """On random formulas and random labels, props outside the formula included:
    the table step is the one successor whose guard, built from the tables, the
    label satisfies; each table's required-atom mask is the intersection of the
    minimal witnesses of the guard into its target; and the pruned automaton's
    step is the one successor whose kept guard the label satisfies."""
    rng = random.Random(2323)
    atoms = ["a", "b", "c", "d"]
    fleet = Fleet(("c1", "c2"), (Robot(0, frozenset({"c1"}), "q0_0"),
                                 Robot(1, frozenset({"c1", "c2"}), "q0_0")))
    tasks = [TaskReq("a", "q0_0", {"c1": 1}), TaskReq("b", "q0_0", {"c1": 2}),
             TaskReq("c", "q0_0", {"c2": 1}), TaskReq("d", "q0_0", {"c1": 1, "c2": 1})]

    def scan(guards, q, labels):
        found = [q2 for q2 in guards.successors(q) if guards.guard(q, q2).satisfied_by(labels)]
        assert len(found) <= 1
        return found[0] if found else -1

    pruned_steps = 0
    for _ in range(150):
        nfa = to_nfa(random_formula(rng, atoms, depth=3))
        guards = guard_nfa(nfa)
        for q, table in enumerate(nfa.tables):
            for q2, mask in table.required.items():
                if q2 != q:
                    witnesses = guards.guard(q, q2).minimal_witnesses()
                    assert {a for a, bit in table.bits.items() if mask & bit} == set(
                        frozenset.intersection(*witnesses))
        try:
            pruned = prune_nfa(nfa, fleet, tasks)
            pruned_guards = guard_nfa(pruned)
        except EmptyLanguage:
            pruned = None
        for _ in range(20):
            labels = frozenset(p for p in atoms + ["x", "y"] if rng.random() < 0.4)
            for q in range(nfa.n_states):
                assert nfa.step(q, labels) == scan(guards, q, labels)
                if pruned is not None:
                    assert pruned.step(q, labels) == scan(pruned_guards, q, labels)
                    pruned_steps += 1
    assert pruned_steps > 1000


def collab_formula(k, template="auto"):
    """The formula ``generate`` writes over ct1..ctk, or ("plain") the conjunction
    of their eventualities alone."""
    props = [f"ct{i}" for i in range(1, k + 1)]
    return _collab_formula(props) if template == "auto" else " & ".join(f"(F {p})" for p in props)


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
        guards = guard_nfa(nfa)
        for (a,b2), labels in zip(zip(run, run[1:]), steps):
            guard = guards.guard(a, b2)
            assert guard.satisfied_by(labels)
            for prop in labels:
                assert not guard.satisfied_by(labels - {prop})


def shortest_two_state_run(nfa):
    for init in sorted(nfa.initial):
        for acc in sorted(nfa.accepting):
            if acc in nfa.successors(init):
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
