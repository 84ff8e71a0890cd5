"""Finite-trace LTL: syntax, parsing, and automaton translation.

The supported fragment is next-free finite LTL over task propositions:

    f ::= true | <ident> | ! f | f & f | f "|" f | F f | G f | f U f

Formulas are translated to finite automata by syntactic progression: states
are residual obligations, transitions are labeled by the label sets that
rewrite one residual into another, and a state accepts when the empty
remainder of the trace satisfies it.  Each residual is progressed only under
the valuations of the atoms it mentions, all at once as one labeling table.
The automaton keeps each state's table and steps by lookup; the minimal
positive set and the negative set of a run step are read off the source
state's table too, so no guard (a DNF over the atoms) is ever built.
The construction is deterministic and worst-case exponential in the formula
size, hence the configurable cap on the states a translation finds.  It is
breadth-first and progresses a state when its table is first read:
``to_nfa`` drives it to completion, and ``on_demand_nfa`` leaves it to its
reader, as the planner does with the collaborative automaton.

Each translation works on bit sets over its own formula's subformulas and
keeps no progression table beyond its call.  A caller's memo (the framework
keeps one per run) shares one progression between formulas equal up to an
order-preserving renaming of their atoms.

Conjunction and disjunction are n-ary so that residuals stay shallow no
matter how wide they grow.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, NamedTuple, Sequence, Tuple

from .errors import NextOperatorForbidden, NoPositiveWitness, ParseError, StateLimitExceeded


class Formula:
    """A formula node.  Its hash and its printed text are computed once, on first
    use, and kept on the node."""

    __slots__ = ("_hash", "_text")

    def _parts(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._parts() == other._parts()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._hash = hash((type(self).__name__, self._parts()))
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
        self.name = name

    def _parts(self):
        return (self.name,)


class _Unary(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        self.child = child

    def _parts(self):
        return (self.child,)


class _Nary(Formula):
    __slots__ = ("children",)

    def __init__(self, *children: Formula):
        self.children = tuple(children)

    def _parts(self):
        return self.children


class Not(_Unary):
    __slots__ = ()


class And(_Nary):
    __slots__ = ()


class Or(_Nary):
    __slots__ = ()


class Eventually(_Unary):
    __slots__ = ()


class Always(_Unary):
    __slots__ = ()


class Until(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right

    def _parts(self):
        return (self.left, self.right)


TRUE = TrueF()
FALSE = FalseF()

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([!&|()])|(\S))")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):  # matches are contiguous: each starts where one ended
        word, sym, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", m.start(3))
        tokens.append(("word", word, m.start(1)) if word is not None else ("sym", sym, m.start(2)))
    return tokens


MAX_NESTING = 50  # operators and parentheses one inside another; deeper ones are refused


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    def nested(self, parse, pos: int) -> Formula:
        """``parse()`` one level deeper, so that no formula nests past Python's
        recursion limit here or in the recursive passes over its tree."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

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
            return Until(f, self.nested(self.until_expr, tok[2]))  # right-associative
        return f

    def unary(self) -> Formula:
        tok = self.next()
        kind, value, pos = tok
        if kind == "sym":
            if value == "!":
                return Not(self.nested(self.unary, pos))
            if value == "(":
                # "!(", "F (" and "G (" are one level: the printer wraps each such operand
                after_unary = self.i > 1 and self.tokens[self.i - 2][1] in ("!", "F", "G")
                f = self.or_expr() if after_unary else self.nested(self.or_expr, pos)
                self.expect_sym(")")
                return f
            raise ParseError(f"unexpected symbol {value!r}", pos)
        if value == "true":
            return TRUE
        if value == "F":
            return Eventually(self.nested(self.unary, pos))
        if value == "G":
            return Always(self.nested(self.unary, pos))
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
    """Pretty-print with minimal parentheses; re-parses to the same tree.  Each
    node is printed once and keeps its text."""
    text = getattr(f, "_text", None)
    if text is None:
        text = f._text = _print(f)
    return text


def _print(f: Formula) -> str:
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
        elif isinstance(g, _Unary):
            stack.append(g.child)
        elif isinstance(g, _Nary):
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


class Table(NamedTuple):
    """One state's labeling table.  ``bits`` maps the state's atoms, ascending, to
    their bits in a label mask; ``targets[mask]`` is the state that mask leads to
    (-1: none); ``required`` maps each target, ascending, to the AND of the masks
    that reach it, the atoms every label leading there contains."""

    bits: Dict[str, int]
    targets: Tuple[int, ...]
    required: Dict[int, int]

    def mask(self, labels: FrozenSet[str]) -> int:
        return sum(bit for atom, bit in self.bits.items() if atom in labels)


class EssentialStep(NamedTuple):
    """Minimal positive firing set for one run step, plus the negative
    obligations of the least prime implicant on it."""

    labels: FrozenSet[str]
    forbidden: FrozenSet[str]


class Nfa:
    """Finite automaton over per-state labeling tables.

    ``tables[a]`` gives the state each label mask leads to from ``a``, and
    ``successors(a)`` the targets of the ``pairs`` kept from ``a``: by default
    every pair a table leads to, else what the function ``pairs``
    answers.  An automaton read on demand (``on_demand_nfa``) has no
    ``n_states``: it translates its tables as they are read, and its
    ``accepting`` set grows with the states found.  A capacity-pruned
    automaton also keeps ``staffable(a, mask)``, a predicate closed under
    subsets on the positive sets its transitions may rest on.  It steps from
    ``a`` on mask ``m`` to ``j = targets[m]`` only when ``(a, j)`` is kept and
    some staffable ``P`` within ``m`` has every mask between ``P`` and ``m``
    leading to ``j``, that is, when a staffable prime implicant of the masks
    leading to ``j`` holds on ``m``.  Progression construction yields a
    deterministic automaton, but all consumers treat the structure as a
    general NFA (pruning can make it partial).
    """

    def __init__(self, n_states, initial, accepting, tables, pairs=None, staffable=None):
        self.n_states = n_states
        self.initial = frozenset(initial)
        self.accepting = accepting if isinstance(accepting, set) else frozenset(accepting)
        self.tables = tables
        self.staffable = staffable
        if pairs is None:
            pairs = lambda a: tuple(tables[a].required)
        self.successors = pairs

    def step(self, state: int, labels: FrozenSet[str]) -> int:
        """The state ``labels`` lead to from ``state``, or -1.  A pruned automaton
        tries the submasks ``P`` of the label's mask largest first."""
        table = self.tables[state]
        mask = table.mask(labels)
        targets = table.targets
        j = targets[mask]
        if self.staffable is None or j < 0:
            return j
        if j in self.successors(state) and any(
                all(targets[p | m] == j for m in _labelings(list(_bits(mask & ~p))))
                and self.staffable(state, p) for p in reversed(_labelings(list(_bits(mask))))):
            return j
        return -1

    def essential_step(self, a: int, b: int) -> EssentialStep:
        """The minimal positive set of step ``(a, b)`` and its negative set.

        The positive set ``P`` is the least staffable mask of ``a``'s table
        leading to ``b``, by size and then by its atoms in name order (the
        table's bit order), hence the least minimal positive set of the
        staffable prime implicants of the masks leading to ``b``.  The negative
        set is the first ``N`` of the other atoms, by size and then in
        ``combinations`` order, that meets every mask ``m`` of them with
        ``P | m`` leading elsewhere: the least prime implicant on ``P``.  It
        tries at most ``2^k`` candidates, each against at most ``2^k`` masks,
        ``k`` the number of the table's atoms outside ``P``.
        """
        if b not in self.successors(a):
            raise NoPositiveWitness(f"no transition along run step {a}->{b}")
        bits, targets, _required = self.tables[a]
        pos = min((m for m, j in enumerate(targets)
                   if j == b and (self.staffable is None or self.staffable(a, m))),
                  key=lambda m: (m.bit_count(), list(_bits(m))), default=None)
        if pos is None:
            raise NoPositiveWitness(f"no staffable label leads along run step {a}->{b}")
        beyond = list(_bits(len(targets) - 1 & ~pos))
        elsewhere = [m for m in _labelings(beyond) if targets[pos | m] != b]
        neg = next(n for size in range(len(beyond) + 1)
                   for n in map(sum, combinations(beyond, size)) if all(m & n for m in elsewhere))
        return EssentialStep(*(frozenset(atom for atom, bit in bits.items() if s & bit)
                               for s in (pos, neg)))


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

    def __init__(self, root: Formula, names: list[str]):
        self.names = names
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


class _Translation:
    """One formula's breadth-first translation, progressed as far as its tables
    are read.  States are numbered as they are found, and reading table ``q``
    progresses the states before it first, so each keeps the number a complete
    translation gives it; iterating reads every table."""

    def __init__(self, root: Formula, names: list[str], state_cap: int):
        self.root, self.names, self.state_cap = root, names, state_cap
        self.translator = _Translator(root, names)
        self.numbers: dict[frozenset, int] = {}  # residual -> its state
        self.residuals: list[frozenset] = []
        self.accepting: set[int] = set()
        self.progressed: list[Table] = []
        self._number(self.translator.root)

    def __getitem__(self, q: int) -> Table:
        progressed = self.progressed
        while len(progressed) <= q:
            if len(progressed) == len(self.residuals):
                raise IndexError(q)
            progressed.append(self._progress(self.residuals[len(progressed)]))
        return progressed[q]

    def _number(self, residual: frozenset) -> int:
        j = self.numbers[residual] = len(self.residuals)
        self.residuals.append(residual)
        # only G units hold on the empty trace: atoms, eventualities and untils need a position
        always = self.translator.always_mask
        if any(pos & ~always == 0 and not neg & always for pos, neg in residual):
            self.accepting.add(j)
        return j

    def _progress(self, state: frozenset) -> Table:
        if not state:  # unsatisfiable residual: dead state
            return Table({}, (-1,), {})
        translator, numbers = self.translator, self.numbers
        atom_bits = list(_bits(translator.scope_of(state)))
        targets, required = [], {}
        for mask, target in enumerate(translator.table(state, atom_bits)):
            if not target:
                targets.append(-1)
                continue
            j = numbers.get(target)
            if j is None:
                if len(numbers) >= self.state_cap:
                    raise StateLimitExceeded(f"automaton for {format_formula(self.root)!r} "
                                             f"exceeds {self.state_cap} states")
                j = self._number(target)
            targets.append(j)
            required[j] = required.get(j, mask) & mask
        bits = {self.names[b.bit_length() - 1]: 1 << k for k, b in enumerate(atom_bits)}
        return Table(bits, tuple(targets), dict(sorted(required.items())))


def on_demand_nfa(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> Nfa:
    """``to_nfa(f, state_cap)`` with each state's table progressed when first
    read (see ``Nfa``).  The cap fires only once a read finds more states."""
    root = simplify(f)
    translation = _Translation(root, sorted(atoms_of(root)), state_cap)
    return Nfa(None, (0,), translation.accepting, translation)


def to_nfa(f: Formula, state_cap: int = DEFAULT_STATE_CAP, memo: dict | None = None) -> Nfa:
    """Translate a formula into an automaton accepting exactly its finite models.

    The breadth-first translation of ``on_demand_nfa``, driven to completion.
    Transitions enumerate only the atoms each residual mentions, in sorted
    order, so states are numbered as if the whole alphabet were enumerated.
    With a ``memo``, a formula of a shape translated before within the cap
    gets that automaton with its atoms renamed: atoms are numbered in name
    order and units by structure, so only the names in ``Table.bits`` differ.
    """
    root = simplify(f)
    names = sorted(atoms_of(root))
    key = None if memo is None else _shape(root, names)
    hit = memo.get(key) if memo else None
    if hit is not None and hit[1].n_states <= state_cap:
        first_names, first = hit
        rename = dict(zip(first_names, names))
        return Nfa(first.n_states, first.initial, first.accepting, tuple(
            Table({rename[a]: bit for a, bit in t.bits.items()}, t.targets, t.required)
            for t in first.tables))
    translation = _Translation(root, names, state_cap)
    tables = tuple(translation)
    nfa = Nfa(len(tables), (0,), frozenset(translation.accepting), tables)
    if key is not None:
        memo[key] = (names, nfa)
    return nfa


_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PRINTED_KEYWORDS = frozenset({"true", "false", "F", "G", "U"})


def _shape(root: Formula, names: list[str]) -> str | None:
    """``root``'s printed form, which re-parses to the same tree, with each atom
    replaced by its rank in ``names``: equal for trees equal up to an
    order-preserving renaming.  None when a name is not a plain identifier or
    is a word the printer writes itself."""
    rank = {a: f"_{i}" for i, a in enumerate(names)}
    if not _PRINTED_KEYWORDS.isdisjoint(rank) or not all(map(_WORD_RE.fullmatch, names)):
        return None
    return _WORD_RE.sub(lambda m: rank.get(m[0], m[0]), format_formula(root))


def nfa_accepts(nfa: Nfa, sequence: Sequence[FrozenSet[str]]) -> bool:
    """Subset-simulation acceptance over a finite label sequence."""
    current = set(nfa.initial)
    for labels in sequence:
        labels = frozenset(labels)
        current = {q2 for q in current if (q2 := nfa.step(q, labels)) >= 0}
        if not current:
            return False
    return bool(current & nfa.accepting)


def essential_steps(nfa: Nfa, run: Sequence[int]) -> list[EssentialStep]:
    """Per-step minimal positive witnesses along a run, with their negative sets
    (``Nfa.essential_step``); removing any one proposition from a witness
    leads elsewhere or onto an unstaffable set."""
    return [nfa.essential_step(a, b) for a, b in zip(run, run[1:])]
