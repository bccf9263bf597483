"""Linear temporal logic over finite words: parsing, direct semantic
evaluation, and translation to complete DFAs by formula progression.

The DFA states are Boolean functions of the temporal atoms of the
syntactically normalized input, kept as reduced ordered BDDs, so equal
obligations are one state and the translation always terminates.  A
state accepts iff its obligation holds on the empty continuation, following
the usual end-of-trace evaluation (the empty word satisfies ``G f``
vacuously and falsifies ``F f``, ``X f``, ``U`` and plain propositions).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .automata import Dfa, sort_alphabet
from .model import Model

MAX_DFA_STATES = 50_000


class LtlfError(ValueError):
    pass


class LtlfSyntaxError(LtlfError):
    def __init__(self, message: str, token_index: int, position: int):
        super().__init__(f"{message} (token {token_index}, column {position})")
        self.token_index = token_index
        self.position = position


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    arg: Formula


@dataclass(frozen=True)
class Always(Formula):
    arg: Formula


TRUE = TrueF()
FALSE = FalseF()
NONEMPTY = Eventually(TRUE)  # holds exactly on nonempty words


def props(f: Formula) -> frozenset[str]:
    if isinstance(f, Prop):
        return frozenset((f.name,))
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, (Not, Next, Eventually, Always)):
        return props(f.arg)
    if isinstance(f, Until):
        return props(f.left) | props(f.right)
    return frozenset().union(*(props(g) for g in f.args)) if f.args else frozenset()


# ---------------------------------------------------------------------------
# pretty printer: ! X F G bind tightest, then U (right-assoc), & and |

_LEVEL_OR, _LEVEL_AND, _LEVEL_UNTIL, _LEVEL_UNARY = 0, 1, 2, 3


def _fmt(f: Formula, need: int) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Not):
        return _wrap("!" + _fmt(f.arg, _LEVEL_UNARY), _LEVEL_UNARY, need)
    if isinstance(f, Next):
        return _wrap("X " + _fmt(f.arg, _LEVEL_UNARY), _LEVEL_UNARY, need)
    if isinstance(f, Eventually):
        return _wrap("F " + _fmt(f.arg, _LEVEL_UNARY), _LEVEL_UNARY, need)
    if isinstance(f, Always):
        return _wrap("G " + _fmt(f.arg, _LEVEL_UNARY), _LEVEL_UNARY, need)
    if isinstance(f, Until):
        text = _fmt(f.left, _LEVEL_UNARY) + " U " + _fmt(f.right, _LEVEL_UNTIL)
        return _wrap(text, _LEVEL_UNTIL, need)
    if isinstance(f, And):
        text = " & ".join(_fmt(g, _LEVEL_UNTIL) for g in f.args)
        return _wrap(text, _LEVEL_AND, need)
    if isinstance(f, Or):
        text = " | ".join(_fmt(g, _LEVEL_AND) for g in f.args)
        return _wrap(text, _LEVEL_OR, need)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, level: int, need: int) -> str:
    return "(" + text + ")" if level < need else text


def to_str(f: Formula) -> str:
    return _fmt(f, _LEVEL_OR)


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"\s*(?:(\()|(\))|(!)|(&)|(\|)|([A-Za-z_][A-Za-z0-9_]*))")
_UNARY = {"X": Next, "F": Eventually, "G": Always}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise LtlfSyntaxError(f"bad character {rest[0]!r}", len(tokens) + 1, pos + 1)
        pos = m.end()
        value = m.group(m.lastindex)
        kind = "ident" if m.lastindex == 6 else value
        tokens.append((kind, value, m.start(m.lastindex) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, message: str):
        if self.i < len(self.tokens):
            _, value, col = self.tokens[self.i]
            raise LtlfSyntaxError(f"{message}, got {value!r}", self.i + 1, col)
        raise LtlfSyntaxError(f"{message}, got end of input", self.i + 1, -1)

    def parse(self) -> Formula:
        f = self.parse_or()
        if self.peek() is not None:
            self.fail("trailing input")
        return f

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.peek() and self.peek()[0] == "|":
            self.take()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Formula:
        parts = [self.parse_until()]
        while self.peek() and self.peek()[0] == "&":
            self.take()
            parts.append(self.parse_until())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        tok = self.peek()
        if tok and tok[0] == "ident" and tok[1] == "U":
            self.take()
            return Until(left, self.parse_until())
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            self.fail("expected a formula")
        kind, value, _ = tok
        if kind == "!":
            self.take()
            return Not(self.parse_unary())
        if kind == "ident" and value in _UNARY:
            self.take()
            return _UNARY[value](self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok is None:
            self.fail("expected a formula")
        kind, value, _ = tok
        if kind == "(":
            self.take()
            f = self.parse_or()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                self.fail("expected ')'")
            self.take()
            return f
        if kind == "ident":
            self.take()
            if value == "true":
                return TRUE
            if value == "false":
                return FALSE
            if value == "U":
                self.fail("expected a formula")
            return Prop(value)
        self.fail("expected a formula")


def parse_ltlf(text: str) -> Formula:
    """Parse a formula; ``X U F G true false`` are reserved words."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# direct finite-word semantics (kept independent of the progression path)


def eval_empty(f: Formula) -> bool:
    """Truth on the empty word."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, (FalseF, Prop, Next, Until, Eventually)):
        return False
    if isinstance(f, Not):
        return not eval_empty(f.arg)
    if isinstance(f, And):
        return all(eval_empty(g) for g in f.args)
    if isinstance(f, Or):
        return any(eval_empty(g) for g in f.args)
    if isinstance(f, Always):
        return True
    raise TypeError(f"not a formula: {f!r}")


def evaluate(f: Formula, word: Sequence) -> bool:
    """Evaluate a formula on a finite word of letters (sets of names).

    Computed bottom-up over subformulas and positions, straight from the
    satisfaction relation.
    """
    letters = [frozenset(x) for x in word]
    n = len(letters)
    if n == 0:
        return eval_empty(f)
    memo: dict[Formula, list[bool]] = {}

    def table(g: Formula) -> list[bool]:
        got = memo.get(g)
        if got is not None:
            return got
        if isinstance(g, TrueF):
            t = [True] * n
        elif isinstance(g, FalseF):
            t = [False] * n
        elif isinstance(g, Prop):
            t = [g.name in letters[i] for i in range(n)]
        elif isinstance(g, Not):
            t = [not v for v in table(g.arg)]
        elif isinstance(g, And):
            sub = [table(x) for x in g.args]
            t = [all(col[i] for col in sub) for i in range(n)]
        elif isinstance(g, Or):
            sub = [table(x) for x in g.args]
            t = [any(col[i] for col in sub) for i in range(n)]
        elif isinstance(g, Next):
            sub = table(g.arg)
            t = [sub[i + 1] if i + 1 < n else False for i in range(n)]
        elif isinstance(g, Until):
            lt, rt = table(g.left), table(g.right)
            t = [False] * n
            t[n - 1] = rt[n - 1]
            for i in range(n - 2, -1, -1):
                t[i] = rt[i] or (lt[i] and t[i + 1])
        elif isinstance(g, Eventually):
            sub = table(g.arg)
            t = [False] * n
            t[n - 1] = sub[n - 1]
            for i in range(n - 2, -1, -1):
                t[i] = sub[i] or t[i + 1]
        elif isinstance(g, Always):
            sub = table(g.arg)
            t = [False] * n
            t[n - 1] = sub[n - 1]
            for i in range(n - 2, -1, -1):
                t[i] = sub[i] and t[i + 1]
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = t
        return t

    return table(f)[0]


# ---------------------------------------------------------------------------
# normalization

_KIND_ORDER = {
    TrueF: 0, FalseF: 1, Prop: 2, Not: 3, Next: 4, Eventually: 5,
    Always: 6, Until: 7, And: 8, Or: 9,
}


def _formula_key(f: Formula):
    if isinstance(f, Prop):
        return (_KIND_ORDER[Prop], f.name)
    if isinstance(f, (TrueF, FalseF)):
        return (_KIND_ORDER[type(f)],)
    if isinstance(f, (Not, Next, Eventually, Always)):
        return (_KIND_ORDER[type(f)], _formula_key(f.arg))
    if isinstance(f, Until):
        return (_KIND_ORDER[Until], _formula_key(f.left), _formula_key(f.right))
    return (_KIND_ORDER[type(f)], tuple(_formula_key(g) for g in f.args))


def m_not(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, Not):
        return f.arg
    return Not(f)


def _assoc(cls, items: Iterable[Formula], absorb: Formula, unit: Formula) -> Formula:
    flat: list[Formula] = []
    seen: set[Formula] = set()
    stack = list(items)
    while stack:
        g = stack.pop(0)
        if isinstance(g, cls):
            stack = list(g.args) + stack
            continue
        if g == absorb:
            return absorb
        if g == unit or g in seen:
            continue
        seen.add(g)
        flat.append(g)
    for g in flat:
        if m_not(g) in seen:
            return absorb
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(sorted(flat, key=_formula_key)))


def m_and(items: Iterable[Formula]) -> Formula:
    return _assoc(And, items, FALSE, TRUE)


def m_or(items: Iterable[Formula]) -> Formula:
    return _assoc(Or, items, TRUE, FALSE)


def normalize(f: Formula) -> Formula:
    if isinstance(f, (TrueF, FalseF, Prop)):
        return f
    if isinstance(f, Not):
        return m_not(normalize(f.arg))
    if isinstance(f, And):
        return m_and(normalize(g) for g in f.args)
    if isinstance(f, Or):
        return m_or(normalize(g) for g in f.args)
    if isinstance(f, Next):
        return Next(normalize(f.arg))
    if isinstance(f, Until):
        return Until(normalize(f.left), normalize(f.right))
    if isinstance(f, Eventually):
        return Eventually(normalize(f.arg))
    if isinstance(f, Always):
        return Always(normalize(f.arg))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# translation: progression over canonical Boolean combinations of atoms


class _Progression:
    """Formula progression on reduced ordered BDDs over temporal atoms.

    An atom is a proposition or an ``X``, ``U``, ``F`` or ``G`` formula.
    Progressing an atom on a letter yields a Boolean combination of atoms
    drawn from the subformulas of the normalized input (and ``NONEMPTY``),
    a finite set; and a Boolean function has exactly one reduced ordered
    BDD.  So the states of the translation are finitely many by
    construction, which syntactic normalization alone cannot promise: it
    does not apply absorption (``a | a & b``), and progressing
    ``(G !q) U (G !q)`` on the empty letter grows that formula forever.

    Node 0 is false and node 1 is true; every other node is a unique
    ``(var, lo, hi)`` triple, ``var`` indexing ``atoms``.  Atoms are
    numbered in order of first use, which fixes the variable order for the
    life of one translation.
    """

    def __init__(self) -> None:
        self.atoms: list[Formula] = []
        self.atom_index: dict[Formula, int] = {}
        self.nodes: list[tuple[int, int, int]] = [(-1, 0, 0), (-1, 1, 1)]
        self.unique: dict[tuple[int, int, int], int] = {}
        self.ite_memo: dict[tuple[int, int, int], int] = {}
        self.atom_steps: dict[tuple[int, frozenset[str]], int] = {}
        self.steps: dict[tuple[int, frozenset[str]], int] = {}
        self.names: dict[int, Formula] = {}

    def _node(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        u = self.unique.get(key)
        if u is None:
            u = self.unique[key] = len(self.nodes)
            self.nodes.append(key)
        return u

    def _cofactors(self, u: int, var: int) -> tuple[int, int]:
        if u > 1 and self.nodes[u][0] == var:
            return self.nodes[u][1], self.nodes[u][2]
        return u, u

    def ite(self, f: int, g: int, h: int) -> int:
        """The node of ``(f & g) | (!f & h)``."""
        if f <= 1:
            return g if f == 1 else h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        got = self.ite_memo.get(key)
        if got is not None:
            return got
        var = min(self.nodes[x][0] for x in key if x > 1)
        f0, f1 = self._cofactors(f, var)
        g0, g1 = self._cofactors(g, var)
        h0, h1 = self._cofactors(h, var)
        u = self._node(var, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self.ite_memo[key] = u
        return u

    def atom(self, f: Formula) -> int:
        var = self.atom_index.get(f)
        if var is None:
            var = self.atom_index[f] = len(self.atoms)
            self.atoms.append(f)
        return self._node(var, 0, 1)

    def _boolean(self, f: Formula, leaf) -> int:
        """The node of ``f``'s Boolean structure, with ``leaf`` giving the
        node of each atom."""
        if isinstance(f, TrueF):
            return 1
        if isinstance(f, FalseF):
            return 0
        if isinstance(f, Not):
            return self.ite(self._boolean(f.arg, leaf), 0, 1)
        if isinstance(f, And):
            u = 1
            for g in f.args:
                u = self.ite(u, self._boolean(g, leaf), 0)
            return u
        if isinstance(f, Or):
            u = 0
            for g in f.args:
                u = self.ite(u, 1, self._boolean(g, leaf))
            return u
        return leaf(f)

    def encode(self, f: Formula) -> int:
        return self._boolean(f, self.atom)

    def _progress_formula(self, f: Formula, letter: frozenset[str]) -> int:
        return self._boolean(f, lambda a: self._progress_atom(a, letter))

    def _progress_atom(self, a: Formula, letter: frozenset[str]) -> int:
        """For every continuation w (including the empty one),
        ``letter . w`` satisfies ``a`` iff ``w`` satisfies the result."""
        key = (self.atom(a), letter)
        got = self.atom_steps.get(key)
        if got is not None:
            return got
        if isinstance(a, Prop):
            u = 1 if a.name in letter else 0
        elif isinstance(a, Next):
            u = self.encode(a.arg)
            # the strict next requires a nonempty continuation
            if eval_empty(a.arg):
                u = self.ite(u, self.atom(NONEMPTY), 0)
        elif isinstance(a, Until):
            right = self._progress_formula(a.right, letter)
            left = self._progress_formula(a.left, letter)
            u = self.ite(right, 1, self.ite(left, self.atom(a), 0))
        elif isinstance(a, Eventually):
            u = self.ite(self._progress_formula(a.arg, letter), 1, self.atom(a))
        elif isinstance(a, Always):
            u = self.ite(self._progress_formula(a.arg, letter), self.atom(a), 0)
        else:
            raise TypeError(f"not a formula: {a!r}")
        self.atom_steps[key] = u
        return u

    def step(self, u: int, letter: frozenset[str]) -> int:
        """The state left after reading ``letter`` in state ``u``:
        every atom of ``u`` replaced by its progression."""
        if u <= 1:
            return u
        key = (u, letter)
        got = self.steps.get(key)
        if got is None:
            var, lo, hi = self.nodes[u]
            got = self.ite(
                self._progress_atom(self.atoms[var], letter),
                self.step(hi, letter),
                self.step(lo, letter),
            )
            self.steps[key] = got
        return got

    def accepts_empty(self, u: int) -> bool:
        while u > 1:
            var, lo, hi = self.nodes[u]
            u = hi if eval_empty(self.atoms[var]) else lo
        return u == 1

    def formula(self, u: int) -> Formula:
        """A normalized formula with the Boolean function of ``u``."""
        if u <= 1:
            return TRUE if u else FALSE
        got = self.names.get(u)
        if got is None:
            var, lo, hi = self.nodes[u]
            a = self.atoms[var]
            if lo == 0:
                got = m_and((a, self.formula(hi)))
            elif hi == 0:
                got = m_and((m_not(a), self.formula(lo)))
            elif hi == 1:
                got = m_or((a, self.formula(lo)))
            elif lo == 1:
                got = m_or((m_not(a), self.formula(hi)))
            else:
                got = m_or((
                    m_and((a, self.formula(hi))),
                    m_and((m_not(a), self.formula(lo))),
                ))
            self.names[u] = got
        return got


def ltlf_to_dfa(
    formula: Formula | str,
    alphabet: Iterable[frozenset[str]],
    declared_props: Iterable[str] | None = None,
) -> Dfa:
    """Translate a formula into a complete DFA over the given letters.

    Each DFA state is a Boolean function of the input's temporal atoms
    (see :class:`_Progression`), named by a normalized formula; a state
    accepts iff it holds on the empty continuation.
    """
    if isinstance(formula, str):
        formula = parse_ltlf(formula)
    letters = sort_alphabet(frozenset(l) for l in alphabet)
    if declared_props is None:
        declared_props = frozenset().union(*letters) if letters else frozenset()
    undeclared = props(formula) - frozenset(declared_props)
    if undeclared:
        raise LtlfError(f"formula uses undeclared propositions {sorted(undeclared)}")

    start = normalize(formula)
    bdd = _Progression()
    root = bdd.encode(start)
    order: dict[int, int] = {root: 0}
    queue = deque([root])
    transitions: dict[tuple[int, frozenset[str]], int] = {}
    while queue:
        u = queue.popleft()
        idx = order[u]
        for letter in letters:
            nxt = bdd.step(u, letter)
            if nxt not in order:
                if len(order) >= MAX_DFA_STATES:
                    raise LtlfError("formula translation exceeded the state budget")
                order[nxt] = len(order)
                queue.append(nxt)
            transitions[(idx, letter)] = order[nxt]
    states = sorted(order, key=order.get)
    return Dfa(
        alphabet=letters,
        transitions=transitions,
        initial=0,
        accepting=frozenset(order[u] for u in states if bdd.accepts_empty(u)),
        state_names=tuple(to_str(bdd.formula(u)) for u in states),
    )


def dfa_over_model_labels(formula: Formula | str, model: Model) -> Dfa:
    """Translate against the label sets the model actually realizes."""
    return ltlf_to_dfa(formula, model.label_alphabet(), model.atomic_props)
