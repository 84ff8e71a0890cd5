"""Finite-trace LTL: syntax, parsing, and automaton translation.

The supported fragment is next-free finite LTL over task propositions:

    f ::= true | <ident> | ! f | f & f | f "|" f | F f | G f | f U f

Formulas are translated to finite automata by syntactic progression: states
are residual obligations, transitions are labeled by the label sets that
rewrite one residual into another, and a state accepts when the empty
remainder of the trace satisfies it.  The construction is deterministic and
worst-case exponential in the formula size, hence the configurable state cap.

Conjunction and disjunction are n-ary so that residuals stay shallow no
matter how wide they grow.
"""

from __future__ import annotations

import re
from collections import deque
from functools import lru_cache
from typing import FrozenSet, Iterable, Sequence

from .errors import NextOperatorForbidden, NoPositiveWitness, ParseError, StateLimitExceeded
from .guards import Guard, guard_from_minterms


class Formula:
    __slots__ = ("_hash",)

    def _parts(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._parts() == other._parts()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self).__name__, self._parts()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return format_formula(self)


class TrueF(Formula):
    __slots__ = ()

    def _parts(self):
        return ()


class FalseF(Formula):
    """Internal normalization constant; not part of the concrete syntax."""

    __slots__ = ()

    def _parts(self):
        return ()


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def _parts(self):
        return (self.name,)


class Not(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)

    def _parts(self):
        return (self.child,)


class And(Formula):
    __slots__ = ("children",)

    def __init__(self, *children: Formula):
        object.__setattr__(self, "children", tuple(children))

    def _parts(self):
        return self.children


class Or(Formula):
    __slots__ = ("children",)

    def __init__(self, *children: Formula):
        object.__setattr__(self, "children", tuple(children))

    def _parts(self):
        return self.children


class Eventually(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)

    def _parts(self):
        return (self.child,)


class Always(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)

    def _parts(self):
        return (self.child,)


class Until(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def _parts(self):
        return (self.left, self.right)


TRUE = TrueF()
FALSE = FalseF()

RESERVED = {"true", "F", "G", "U", "X"}

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([!&|()]))")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        word, sym = m.group(1), m.group(2)
        if word is not None:
            tokens.append(("word", word, m.start(1)))
        else:
            tokens.append(("sym", sym, m.start(2)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(self.text))
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        tok = self.next()
        if tok[0] != "sym" or tok[1] != sym:
            raise ParseError(f"expected {sym!r}", tok[2])

    def parse(self) -> Formula:
        f = self.or_expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return f

    def or_expr(self) -> Formula:
        parts = [self.and_expr()]
        while self.peek() and self.peek()[:2] == ("sym", "|"):
            self.next()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def and_expr(self) -> Formula:
        parts = [self.until_expr()]
        while self.peek() and self.peek()[:2] == ("sym", "&"):
            self.next()
            parts.append(self.until_expr())
        return parts[0] if len(parts) == 1 else And(*parts)

    def until_expr(self) -> Formula:
        f = self.unary()
        tok = self.peek()
        if tok and tok[0] == "word" and tok[1] == "U":
            self.next()
            return Until(f, self.until_expr())  # right-associative
        return f

    def unary(self) -> Formula:
        tok = self.next()
        kind, value, pos = tok
        if kind == "sym":
            if value == "!":
                return Not(self.unary())
            if value == "(":
                f = self.or_expr()
                self.expect_sym(")")
                return f
            raise ParseError(f"unexpected symbol {value!r}", pos)
        if value == "true":
            return TRUE
        if value == "F":
            return Eventually(self.unary())
        if value == "G":
            return Always(self.unary())
        if value == "X":
            raise NextOperatorForbidden("the next operator is not supported", pos)
        if value == "U":
            raise ParseError("until operator needs a left operand", pos)
        return Atom(value)


def parse_formula(text: str) -> Formula:
    """Parse the concrete syntax into a formula tree."""
    return _Parser(text).parse()


_PREC = {Or: 1, And: 2, Until: 3, Not: 4, Eventually: 4, Always: 4, Atom: 5, TrueF: 5, FalseF: 5}


def format_formula(f: Formula) -> str:
    """Pretty-print with minimal parentheses; re-parses to the same tree."""

    def wrap(child: Formula, parent_prec: int) -> str:
        s = format_formula(child)
        if _PREC[type(child)] < parent_prec:
            return f"({s})"
        return s

    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + wrap(f.child, 5)
    if isinstance(f, Eventually):
        return "F " + wrap(f.child, 5)
    if isinstance(f, Always):
        return "G " + wrap(f.child, 5)
    if isinstance(f, Until):
        # right-associative: parenthesize a left child of equal precedence
        return f"{wrap(f.left, 4)} U {wrap(f.right, 3)}"
    if isinstance(f, And):
        return " & ".join(wrap(c, 3) for c in f.children)
    if isinstance(f, Or):
        return " | ".join(wrap(c, 2) for c in f.children)
    raise TypeError(f"not a formula: {f!r}")


def atoms_of(f: Formula) -> FrozenSet[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, (Not, Eventually, Always)):
            stack.append(g.child)
        elif isinstance(g, (And, Or)):
            stack.extend(g.children)
        elif isinstance(g, Until):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


@lru_cache(maxsize=None)
def _key(f: Formula) -> str:
    return format_formula(f)


def _conj(children: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    stack = list(children)
    while stack:
        c = stack.pop()
        if isinstance(c, And):
            stack.extend(c.children)
        elif isinstance(c, FalseF):
            return FALSE
        elif not isinstance(c, TrueF):
            flat.append(c)
    uniq = sorted(set(flat), key=_key)
    present = set(uniq)
    for c in uniq:
        if isinstance(c, Not) and c.child in present:
            return FALSE
    if not uniq:
        return TRUE
    if len(uniq) == 1:
        return uniq[0]
    return And(*uniq)


def _disj(children: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    stack = list(children)
    while stack:
        c = stack.pop()
        if isinstance(c, Or):
            stack.extend(c.children)
        elif isinstance(c, TrueF):
            return TRUE
        elif not isinstance(c, FalseF):
            flat.append(c)
    uniq = sorted(set(flat), key=_key)
    present = set(uniq)
    for c in uniq:
        if isinstance(c, Not) and c.child in present:
            return TRUE
    if not uniq:
        return FALSE
    if len(uniq) == 1:
        return uniq[0]
    return Or(*uniq)


@lru_cache(maxsize=None)
def simplify(f: Formula) -> Formula:
    """Canonical light-weight normal form used to deduplicate residuals.

    Constant folding, flattening/sorting of conjunctions and disjunctions,
    double-negation and idempotent-nesting removal.  Not a full semantic
    canonicalizer; logically equal residuals of different shape may stay
    distinct (the automaton is still correct, just possibly larger).
    """
    if isinstance(f, (TrueF, FalseF, Atom)):
        return f
    if isinstance(f, Not):
        c = simplify(f.child)
        if isinstance(c, TrueF):
            return FALSE
        if isinstance(c, FalseF):
            return TRUE
        if isinstance(c, Not):
            return c.child
        return Not(c)
    if isinstance(f, And):
        return _conj([simplify(c) for c in f.children])
    if isinstance(f, Or):
        return _disj([simplify(c) for c in f.children])
    if isinstance(f, Eventually):
        c = simplify(f.child)
        if isinstance(c, FalseF):
            return FALSE
        if isinstance(c, Eventually):
            return c
        return Eventually(c)
    if isinstance(f, Always):
        c = simplify(f.child)
        if isinstance(c, TrueF):
            return TRUE
        if isinstance(c, Always):
            return c
        return Always(c)
    if isinstance(f, Until):
        left = simplify(f.left)
        right = simplify(f.right)
        if isinstance(right, FalseF):
            return FALSE
        return Until(left, right)
    raise TypeError(f"not a formula: {f!r}")


class Nfa:
    """Finite automaton with guard-labeled transitions.

    ``transitions`` maps state pairs to guards; absent pairs have no
    transition.  Progression construction yields a deterministic automaton,
    but all consumers treat the structure as a general NFA (pruning can make
    it partial).
    """

    def __init__(self, n_states, initial, accepting, transitions, atom_order, state_names=()):
        self.n_states = n_states
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)
        self.atom_order = tuple(atom_order)
        self.state_names = tuple(state_names)
        succ: dict[int, list[int]] = {}
        for (a, b) in sorted(self.transitions):
            succ.setdefault(a, []).append(b)
        self._succ = {a: tuple(bs) for a, bs in succ.items()}

    def successors(self, state: int) -> tuple[int, ...]:
        return self._succ.get(state, ())

    def guard(self, a: int, b: int) -> Guard | None:
        return self.transitions.get((a, b))


# ---------------------------------------------------------------------------
# Residual representation for the translation.
#
# A residual obligation is a subsumption-minimal DNF over "units": atoms and
# temporal subformulas treated opaquely.  Progression rewrites unit literals
# and recombines cubes; because cubes live in a finite space the construction
# terminates even for formulas that negate temporal subformulas, where naive
# syntactic simplification grows without bound.
# ---------------------------------------------------------------------------

_DNF_TRUE = frozenset({(frozenset(), frozenset())})
_DNF_FALSE: frozenset = frozenset()


def _dnf_minimize(cubes) -> frozenset:
    cubes = set(cubes)
    out = set()
    for pos, neg in cubes:
        if pos & neg:
            continue
        if any((p2, n2) != (pos, neg) and p2 <= pos and n2 <= neg for p2, n2 in cubes):
            continue
        out.add((pos, neg))
    return frozenset(out)


def _dnf_or(*dnfs) -> frozenset:
    merged = set()
    for d in dnfs:
        merged |= d
    return _dnf_minimize(merged)


def _dnf_and(a: frozenset, b: frozenset) -> frozenset:
    cubes = set()
    for pa, na in a:
        for pb, nb in b:
            pos, neg = pa | pb, na | nb
            if not (pos & neg):
                cubes.add((pos, neg))
    return _dnf_minimize(cubes)


def _dnf_not(a: frozenset) -> frozenset:
    # De Morgan: complement of a DNF is the product of complemented cubes.
    result = _DNF_TRUE
    for pos, neg in a:
        complement = frozenset(
            {(frozenset(), frozenset((u,))) for u in pos}
            | {(frozenset((u,)), frozenset()) for u in neg}
        )
        result = _dnf_and(result, complement)
        if not result:
            return _DNF_FALSE
    return result


def _unit_eval_empty(unit: Formula) -> bool:
    if isinstance(unit, Always):
        return True
    return False  # atoms, eventualities, and untils need at least one position


def _dnf_eval_empty(dnf: frozenset) -> bool:
    return any(
        all(_unit_eval_empty(u) for u in pos) and not any(_unit_eval_empty(u) for u in neg)
        for pos, neg in dnf
    )


@lru_cache(maxsize=None)
def _formula_dnf(f: Formula) -> frozenset:
    if isinstance(f, TrueF):
        return _DNF_TRUE
    if isinstance(f, FalseF):
        return _DNF_FALSE
    if isinstance(f, (Atom, Eventually, Always, Until)):
        return frozenset({(frozenset((f,)), frozenset())})
    if isinstance(f, Not):
        return _dnf_not(_formula_dnf(f.child))
    if isinstance(f, And):
        out = _DNF_TRUE
        for c in f.children:
            out = _dnf_and(out, _formula_dnf(c))
        return out
    if isinstance(f, Or):
        return _dnf_or(*[_formula_dnf(c) for c in f.children])
    raise TypeError(f"not a formula: {f!r}")


def _dnf_format(dnf: frozenset) -> str:
    if not dnf:
        return "false"
    parts = []
    for pos, neg in sorted(dnf, key=lambda c: (sorted(map(_key, c[0])), sorted(map(_key, c[1])))):
        lits = sorted(map(_key, pos)) + ["!(%s)" % _key(u) for u in sorted(neg, key=_key)]
        parts.append(" & ".join(lits) if lits else "true")
    return " | ".join(parts)


class _Translator:
    def __init__(self, atoms: Sequence[str]):
        self.atoms = tuple(atoms)
        self._unit_cache: dict[tuple[Formula, frozenset], frozenset] = {}

    def progress_unit(self, unit: Formula, labels: frozenset) -> frozenset:
        key = (unit, labels)
        hit = self._unit_cache.get(key)
        if hit is not None:
            return hit
        if isinstance(unit, Atom):
            out = _DNF_TRUE if unit.name in labels else _DNF_FALSE
        elif isinstance(unit, Eventually):
            out = _dnf_or(self.progress_formula(unit.child, labels),
                          frozenset({(frozenset((unit,)), frozenset())}))
        elif isinstance(unit, Always):
            out = _dnf_and(self.progress_formula(unit.child, labels),
                           frozenset({(frozenset((unit,)), frozenset())}))
        elif isinstance(unit, Until):
            stay = _dnf_and(self.progress_formula(unit.left, labels),
                            frozenset({(frozenset((unit,)), frozenset())}))
            out = _dnf_or(self.progress_formula(unit.right, labels), stay)
        else:
            raise TypeError(f"not a unit: {unit!r}")
        self._unit_cache[key] = out
        return out

    def progress_formula(self, f: Formula, labels: frozenset) -> frozenset:
        return self.progress_dnf(_formula_dnf(f), labels)

    def progress_dnf(self, dnf: frozenset, labels: frozenset) -> frozenset:
        results = []
        for pos, neg in dnf:
            cube = _DNF_TRUE
            for u in pos:
                cube = _dnf_and(cube, self.progress_unit(u, labels))
                if not cube:
                    break
            if cube:
                for u in neg:
                    cube = _dnf_and(cube, _dnf_not(self.progress_unit(u, labels)))
                    if not cube:
                        break
            if cube:
                results.append(cube)
        return _dnf_or(*results) if results else _DNF_FALSE


def to_nfa(f: Formula, state_cap: int = 20_000) -> Nfa:
    """Translate a formula into an automaton accepting exactly its finite models."""
    root = simplify(f)
    atoms = sorted(atoms_of(root))
    n = len(atoms)
    translator = _Translator(atoms)
    root_dnf = _formula_dnf(root)
    index = {root_dnf: 0}
    order = [root_dnf]
    minterms: dict[tuple[int, int], set[int]] = {}
    queue = deque([root_dnf])
    while queue:
        state = queue.popleft()
        i = index[state]
        if not state:  # unsatisfiable residual: dead state
            continue
        for mask in range(1 << n):
            labels = frozenset(atoms[b] for b in range(n) if (mask >> b) & 1)
            target = translator.progress_dnf(state, labels)
            if not target:
                continue
            if target not in index:
                if len(index) >= state_cap:
                    raise StateLimitExceeded(
                        f"automaton for {format_formula(root)!r} exceeds {state_cap} states")
                index[target] = len(order)
                order.append(target)
                queue.append(target)
            minterms.setdefault((i, index[target]), set()).add(mask)
    transitions = {
        pair: guard_from_minterms(atoms, masks) for pair, masks in sorted(minterms.items())
    }
    accepting = frozenset(i for s, i in index.items() if _dnf_eval_empty(s))
    names = tuple(_dnf_format(s) for s in order)
    return Nfa(len(order), frozenset((0,)), accepting, transitions, atoms, names)


def nfa_accepts(nfa: Nfa, sequence: Sequence[FrozenSet[str]]) -> bool:
    """Subset-simulation acceptance over a finite label sequence."""
    current = set(nfa.initial)
    for labels in sequence:
        labels = frozenset(labels)
        nxt = set()
        for q in current:
            for q2 in nfa.successors(q):
                if nfa.transitions[(q, q2)].satisfied_by(labels):
                    nxt.add(q2)
        current = nxt
        if not current:
            return False
    return bool(current & nfa.accepting)


class EssentialStep:
    """Minimal positive firing set for one run step, plus the negative
    obligations of the disjunct that justified it."""

    __slots__ = ("labels", "forbidden")

    def __init__(self, labels: FrozenSet[str], forbidden: FrozenSet[str]):
        self.labels = labels
        self.forbidden = forbidden

    def __repr__(self):
        return f"EssentialStep({sorted(self.labels)}, forbid={sorted(self.forbidden)})"

    def __eq__(self, other):
        return (isinstance(other, EssentialStep)
                and self.labels == other.labels and self.forbidden == other.forbidden)


def essential_steps(nfa: Nfa, run: Sequence[int]) -> list[EssentialStep]:
    """Per-step minimal positive witnesses along a run.

    For every consecutive state pair the smallest positive label set that
    satisfies the guard is chosen (ties broken lexicographically); removing
    any single proposition falsifies the guard.
    """
    steps = []
    for a, b in zip(run, run[1:]):
        guard = nfa.guard(a, b)
        if guard is None or guard.is_unsatisfiable():
            raise NoPositiveWitness(f"no satisfiable guard on run step {a}->{b}")
        witnesses = guard.minimal_witnesses()
        if not witnesses:
            raise NoPositiveWitness(f"guard {guard} admits no positive witness")
        chosen = witnesses[0]
        negs = sorted(
            (neg for pos, neg in guard.cubes if pos == chosen),
            key=lambda s: (len(s), sorted(s)),
        )
        steps.append(EssentialStep(chosen, negs[0]))
    return steps
