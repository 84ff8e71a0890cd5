"""Finite-trace LTL: syntax, parsing, and automaton translation.

The supported fragment is next-free finite LTL over task propositions:

    f ::= true | <ident> | ! f | f & f | f "|" f | F f | G f | f U f

Formulas are translated to finite automata by syntactic progression: states
are residual obligations, transitions are labeled by the label sets that
rewrite one residual into another, and a state accepts when the empty
remainder of the trace satisfies it.  Each residual is progressed only under
the valuations of the atoms it mentions, all at once as one labeling table,
and its guards are built over them.
The construction is deterministic and worst-case exponential in the formula
size, hence the configurable state cap.

Each translation works on bit sets over its own formula's subformulas and
keeps no table beyond its call.

Conjunction and disjunction are n-ary so that residuals stay shallow no
matter how wide they grow.
"""

from __future__ import annotations

import re
from collections import deque
from typing import FrozenSet, Iterable, NamedTuple, Sequence

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


def _flatten(kind, zero: Formula, unit: Formula, children: Iterable[Formula]) -> Formula:
    """The n-ary ``kind`` (And or Or) of ``children`` in canonical form.

    Nested ``kind`` children are flattened, ``unit`` children dropped, and the
    rest de-duplicated and sorted by printed form.  ``zero`` absorbs the whole
    node, as does a child next to its own negation.
    """
    flat: list[Formula] = []
    stack = list(children)
    while stack:
        c = stack.pop()
        if isinstance(c, kind):
            stack.extend(c.children)
        elif isinstance(c, type(zero)):
            return zero
        elif not isinstance(c, type(unit)):
            flat.append(c)
    uniq = sorted(set(flat), key=format_formula)
    present = set(uniq)
    if any(isinstance(c, Not) and c.child in present for c in uniq):
        return zero
    if len(uniq) < 2:
        return uniq[0] if uniq else unit
    return kind(*uniq)


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
        return _flatten(And, FALSE, TRUE, map(simplify, f.children))
    if isinstance(f, Or):
        return _flatten(Or, TRUE, FALSE, map(simplify, f.children))
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

    def __init__(self, n_states, initial, accepting, transitions):
        self.n_states = n_states
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)
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
#
# Each to_nfa call numbers its units with bits, atoms first in name order.  A
# cube is an int pair (pos, neg) of unit bit sets, a label set an int over the
# atom bits, and every table lives in the call's _Translator.  A conjunction's
# minimized DNF is the set of minimal non-contradictory cubes of the full
# product, so the order in which a table conjoins units cannot change it.
# ---------------------------------------------------------------------------

_DNF_TRUE = frozenset({(0, 0)})
_DNF_FALSE: frozenset = frozenset()


def _bits(x: int):
    """The single-bit ints of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low
        x ^= low


def _dnf_minimize(cubes: set) -> frozenset:
    # A cube is only subsumed by one with fewer literals, so fewer come first and
    # each is tested against those kept; a contradictory cube goes wherever it sorts.
    kept = []
    for pos, neg in sorted(cubes, key=lambda cube: (cube[0] | cube[1]).bit_count()):
        if not pos & neg and not any(p & ~pos == 0 and n & ~neg == 0 for p, n in kept):
            kept.append((pos, neg))
    return frozenset(kept)


class _Translator:
    """The unit numbering and progression tables of one ``to_nfa`` call."""

    def __init__(self, root: Formula):
        self.names = sorted(atoms_of(root))
        self.bit = {Atom(a): 1 << i for i, a in enumerate(self.names)}
        self.atom_mask = (1 << len(self.names)) - 1
        self.scope = {b: b for b in self.bit.values()}  # unit bit -> bits of its atoms
        # l U r steps to r, or to l and itself again; F r is true U r, G l is l U false
        self.rule: dict[int, tuple[frozenset, frozenset]] = {}
        self.always_mask = 0
        self.progressed: dict[tuple[int, int], frozenset] = {}  # (unit, labels on its scope)
        self.conjoined: dict[tuple[frozenset, frozenset], frozenset] = {}
        self.negated: dict[frozenset, frozenset] = {}
        self.root = self.dnf(root)

    def dnf(self, f: Formula) -> frozenset:
        if isinstance(f, TrueF):
            return _DNF_TRUE
        if isinstance(f, FalseF):
            return _DNF_FALSE
        if isinstance(f, Not):
            return self.negate(self.dnf(f.child))
        if isinstance(f, And):
            out = _DNF_TRUE
            for c in f.children:
                out = self.conjoin(out, self.dnf(c))
            return out
        if isinstance(f, Or):
            return _dnf_minimize({cube for c in f.children for cube in self.dnf(c)})
        bit = self.bit.get(f)
        if bit is None:
            if isinstance(f, Until):
                rule = (self.dnf(f.left), self.dnf(f.right))
            elif isinstance(f, Eventually):
                rule = (_DNF_TRUE, self.dnf(f.child))
            elif isinstance(f, Always):
                rule = (self.dnf(f.child), _DNF_FALSE)
            else:
                raise TypeError(f"not a formula: {f!r}")
            bit = self.bit[f] = 1 << len(self.bit)
            self.rule[bit] = rule
            self.scope[bit] = self.scope_of(rule[0] | rule[1])
            if isinstance(f, Always):
                self.always_mask |= bit
        return frozenset({(bit, 0)})

    def scope_of(self, dnf: frozenset) -> int:
        scope = 0
        for pos, neg in dnf:
            for u in _bits(pos | neg):
                scope |= self.scope[u]
        return scope

    def conjoin(self, a: frozenset, b: frozenset) -> frozenset:
        if a == _DNF_TRUE or b == _DNF_TRUE:
            return b if a == _DNF_TRUE else a
        out = self.conjoined.get((a, b))
        if out is None:
            out = _dnf_minimize({(pa | pb, na | nb) for pa, na in a for pb, nb in b})
            self.conjoined[(a, b)] = out
        return out

    def negate(self, a: frozenset) -> frozenset:
        # De Morgan: complement of a DNF is the product of complemented cubes.
        out = self.negated.get(a)
        if out is None:
            out = _DNF_TRUE
            for pos, neg in a:
                if out:
                    complement = [(0, u) for u in _bits(pos)] + [(u, 0) for u in _bits(neg)]
                    out = self.conjoin(out, frozenset(complement))
            self.negated[a] = out
        return out

    def unit(self, u: int, labels: int, negated: int = 0) -> frozenset:
        """The residual of unit ``u``, or of its negation, after one position
        labeled ``labels``."""
        out = self.progressed.get((u, labels & self.scope[u]))
        if out is None:
            # a state's table asks for every labeling of the unit's scope: fill them all
            atom_bits = list(_bits(self.scope[u]))
            left, right = self.rule[u]
            stay = frozenset({(u, 0)})
            for l, lt, rt in zip(_labelings(atom_bits), self.table(left, atom_bits),
                                 self.table(right, atom_bits)):
                out = self.conjoin(lt, stay)
                self.progressed[(u, l)] = _dnf_minimize(rt | out) if rt else out
            out = self.progressed[(u, labels & self.scope[u])]
        return self.negate(out) if negated else out

    def table(self, dnf: frozenset, atom_bits: list[int]) -> list[frozenset]:
        """The residuals of ``dnf`` after one position, under every labeling
        of ``atom_bits`` (ascending, covering the dnf's scope) in mask order.

        A cube's table doubles at each atom and conjoins each temporal unit,
        once per row, at the atom that closes the unit's scope.
        """
        labelings = _labelings(atom_bits)
        tables = []
        for pos, neg in dnf:
            closing: dict[int, list[int]] = {}  # highest scope bit (0: none) -> units
            for u in _bits((pos | neg) & ~self.atom_mask):
                closing.setdefault(1 << self.scope[u].bit_length() >> 1, []).append(u)
            rows = [_DNF_TRUE]
            for b in [0, *atom_bits]:
                if pos & b:
                    rows = [_DNF_FALSE] * len(rows) + rows
                elif neg & b:
                    rows = rows + [_DNF_FALSE] * len(rows)
                elif b:
                    rows = rows + rows
                for u in closing.get(b, ()):
                    rows = [c and self.conjoin(c, self.unit(u, l, u & neg))
                            for c, l in zip(rows, labelings)]
            tables.append(rows)
        if len(tables) < 2:
            return tables[0] if tables else [_DNF_FALSE] * len(labelings)
        return [_dnf_minimize(set().union(*column)) for column in zip(*tables)]


def _labelings(atom_bits: list[int]) -> list[int]:
    """Entry ``mask`` sets atom_bits[k] where mask sets bit k."""
    labelings = [0]
    for b in atom_bits:
        labelings += [labels | b for labels in labelings]
    return labelings


DEFAULT_STATE_CAP = 20_000


def to_nfa(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> Nfa:
    """Translate a formula into an automaton accepting exactly its finite models.

    Transitions enumerate only the atoms each residual mentions, in sorted
    order, so states are numbered as if the whole alphabet were enumerated.
    """
    root = simplify(f)
    translator = _Translator(root)
    index = {translator.root: 0}
    order = [translator.root]
    transitions = {}
    queue = deque(order)
    while queue:
        state = queue.popleft()
        i = index[state]
        if not state:  # unsatisfiable residual: dead state
            continue
        atom_bits = list(_bits(translator.scope_of(state)))
        minterms: dict[int, set[int]] = {}
        for mask, target in enumerate(translator.table(state, atom_bits)):
            if not target:
                continue
            if target not in index:
                if len(index) >= state_cap:
                    raise StateLimitExceeded(
                        f"automaton for {format_formula(root)!r} exceeds {state_cap} states")
                index[target] = len(order)
                order.append(target)
                queue.append(target)
            minterms.setdefault(index[target], set()).add(mask)
        atoms = [translator.names[b.bit_length() - 1] for b in atom_bits]
        for j, masks in sorted(minterms.items()):
            transitions[(i, j)] = guard_from_minterms(atoms, masks)
    # only G units hold on the empty trace: atoms, eventualities and untils need a position
    always = translator.always_mask
    accepting = frozenset(i for s, i in index.items()
                          if any(pos & ~always == 0 and not neg & always for pos, neg in s))
    return Nfa(len(order), frozenset((0,)), accepting, transitions)


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


class EssentialStep(NamedTuple):
    """Minimal positive firing set for one run step, plus the negative
    obligations of the disjunct that justified it."""

    labels: FrozenSet[str]
    forbidden: FrozenSet[str]


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
