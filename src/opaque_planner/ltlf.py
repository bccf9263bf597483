"""Linear temporal logic over finite words: parsing and translation to
complete DFAs by formula progression.

The DFA states are Boolean functions of the input's temporal atoms, kept
as reduced ordered BDDs, and an atom is keyed by its operator and the BDDs
of its arguments; so equal obligations are one state and the translation
always terminates.  A state accepts iff its obligation holds on the empty
continuation, following the usual end-of-trace evaluation (the empty word
satisfies ``G f`` vacuously and falsifies ``F f``, ``X f``, ``U`` and plain
propositions).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import wraps
from typing import Iterable

import numpy as np

from .automata import Dfa, sort_alphabet
from .model import Model

MAX_DFA_STATES = 50_000
#: the deepest nesting of parentheses, prefix operators and right-nested
#: ``U`` that ``parse_ltlf`` takes, counted by the parser itself: a level
#: costs it at most six Python frames, so the cut-off is the same from any
#: caller less than ~300 frames deep under the default recursion limit
MAX_NESTING = 100


class LtlfError(ValueError):
    pass


def _nesting_checked(function):
    """``function``, raising :class:`LtlfError` where a formula nested too
    deeply for its recursion would overflow Python's stack."""

    @wraps(function)
    def checked(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        except RecursionError:
            raise LtlfError("formula nested too deeply") from None

    return checked


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
        self.depth = 0  # the nesting levels open

    def nested(self, parse) -> Formula:
        """``parse()`` one nesting level deeper, or ``LtlfError`` past
        ``MAX_NESTING`` levels."""
        if self.depth == MAX_NESTING:
            raise LtlfError(f"formula nested too deeply: more than {MAX_NESTING} levels")
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

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
            return Until(left, self.nested(self.parse_until))
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            self.fail("expected a formula")
        kind, value, _ = tok
        if kind == "!":
            self.take()
            return Not(self.nested(self.parse_unary))
        if kind == "ident" and value in _UNARY:
            self.take()
            return _UNARY[value](self.nested(self.parse_unary))
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok is None:
            self.fail("expected a formula")
        kind, value, _ = tok
        if kind == "(":
            self.take()
            f = self.nested(self.parse_or)
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


@_nesting_checked
def parse_ltlf(text: str) -> Formula:
    """Parse a formula; ``X U F G true false`` are reserved words."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# translation: progression over canonical Boolean combinations of atoms

#: the operator that keys an ``X``, ``F`` or ``G`` atom
_OPERATOR = {cls: op for op, cls in _UNARY.items()}


def _joined(cls, first: Formula, rest: Formula) -> Formula:
    """``cls((first, rest))``, with ``rest``'s arguments in place of
    ``rest`` when it is a ``cls`` too, and ``first`` alone when ``rest``
    is a constant: a node's two children differ, so that constant is
    ``cls``'s unit."""
    if isinstance(rest, (TrueF, FalseF)):
        return first
    return cls((first,) + (rest.args if isinstance(rest, cls) else (rest,)))


class _Progression:
    """Formula progression on reduced ordered BDDs over temporal atoms.

    An atom is a proposition or an ``X``, ``F``, ``G`` or ``U`` of
    Boolean functions, keyed by its operator and the nodes of its
    arguments: ``("p", name)``, ``("X", u)``, ``("F", u)``, ``("G", u)``
    or ``("U", left, right)``.  Atoms whose arguments are the same Boolean
    function are therefore one atom, and ``("F", 1)``, ``F true``, holds
    exactly on the nonempty words.  Progressing an atom on a letter yields
    a Boolean combination of that atom, ``F true`` and the atoms of its
    arguments, so no atoms occur but the input's and ``F true``; and a
    Boolean function has exactly one reduced ordered BDD.  So the states
    of the translation are finitely many by construction, where syntactic
    progression of ``(G !q) U (G !q)`` on the empty letter grows that
    formula forever.

    Node 0 is false and node 1 is true; every other node is a unique
    ``(var, lo, hi)`` triple, ``var`` indexing ``atoms``.  Atoms are
    numbered in order of first use, which fixes the variable order for the
    life of one translation.
    """

    def __init__(self) -> None:
        self.atoms: list[tuple] = []
        self.atom_index: dict[tuple, int] = {}
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

    def atom(self, key: tuple) -> int:
        var = self.atom_index.get(key)
        if var is None:
            var = self.atom_index[key] = len(self.atoms)
            self.atoms.append(key)
        return self._node(var, 0, 1)

    def encode(self, f: Formula) -> int:
        """The node of ``f``, its atoms built bottom-up."""
        if isinstance(f, TrueF):
            return 1
        if isinstance(f, FalseF):
            return 0
        if isinstance(f, Prop):
            return self.atom(("p", f.name))
        if isinstance(f, Not):
            return self.ite(self.encode(f.arg), 0, 1)
        if isinstance(f, And):
            u = 1
            for g in f.args:
                u = self.ite(u, self.encode(g), 0)
            return u
        if isinstance(f, Or):
            u = 0
            for g in f.args:
                u = self.ite(u, 1, self.encode(g))
            return u
        if isinstance(f, Until):
            return self.atom(("U", self.encode(f.left), self.encode(f.right)))
        if isinstance(f, (Next, Eventually, Always)):
            return self.atom((_OPERATOR[type(f)], self.encode(f.arg)))
        raise TypeError(f"not a formula: {f!r}")

    def _progress_atom(self, var: int, letter: frozenset[str]) -> int:
        """For every continuation w (including the empty one),
        ``letter . w`` satisfies atom ``var`` iff ``w`` satisfies the
        result."""
        key = (var, letter)
        got = self.atom_steps.get(key)
        if got is not None:
            return got
        op, *args = self.atoms[var]
        itself = self._node(var, 0, 1)
        if op == "p":
            u = 1 if args[0] in letter else 0
        elif op == "X":
            u = args[0]
            # the strict next requires a nonempty continuation
            if self.accepts_empty(u):
                u = self.ite(u, self.atom(("F", 1)), 0)
        elif op == "U":
            left, right = (self.step(v, letter) for v in args)
            u = self.ite(right, 1, self.ite(left, itself, 0))
        elif op == "F":
            u = self.ite(self.step(args[0], letter), 1, itself)
        else:  # "G"
            u = self.ite(self.step(args[0], letter), itself, 0)
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
                self._progress_atom(var, letter),
                self.step(hi, letter),
                self.step(lo, letter),
            )
            self.steps[key] = got
        return got

    def accepts_empty(self, u: int) -> bool:
        """Whether ``u`` holds on the empty word, where of the atoms only
        ``G`` holds."""
        while u > 1:
            var, lo, hi = self.nodes[u]
            u = hi if self.atoms[var][0] == "G" else lo
        return u == 1

    def formula(self, u: int) -> Formula:
        """A formula with the Boolean function of ``u``, its atoms in
        BDD order."""
        if u <= 1:
            return TRUE if u else FALSE
        got = self.names.get(u)
        if got is None:
            var, lo, hi = self.nodes[u]
            op, *args = self.atoms[var]
            if op == "p":
                a = Prop(args[0])
            elif op == "U":
                a = Until(self.formula(args[0]), self.formula(args[1]))
            else:
                a = _UNARY[op](self.formula(args[0]))
            if lo == 0:
                got = _joined(And, a, self.formula(hi))
            elif hi == 0:
                got = _joined(And, Not(a), self.formula(lo))
            elif hi == 1:
                got = _joined(Or, a, self.formula(lo))
            elif lo == 1:
                got = _joined(Or, Not(a), self.formula(hi))
            else:
                got = Or((
                    _joined(And, a, self.formula(hi)),
                    _joined(And, Not(a), self.formula(lo)),
                ))
            self.names[u] = got
        return got


@_nesting_checked
def ltlf_to_dfa(
    formula: Formula | str,
    alphabet: Iterable[frozenset[str]],
    declared_props: Iterable[str] | None = None,
) -> Dfa:
    """Translate a formula into a complete DFA over the given letters.

    Each DFA state is a Boolean function of the input's temporal atoms
    (see :class:`_Progression`), named by a formula of that function; a
    state accepts iff it holds on the empty continuation.
    """
    if isinstance(formula, str):
        formula = parse_ltlf(formula)
    letters = sort_alphabet(frozenset(l) for l in alphabet)
    if declared_props is None:
        declared_props = frozenset().union(*letters) if letters else frozenset()
    undeclared = props(formula) - frozenset(declared_props)
    if undeclared:
        raise LtlfError(f"formula uses undeclared propositions {sorted(undeclared)}")

    bdd = _Progression()
    root = bdd.encode(formula)
    order: dict[int, int] = {root: 0}
    queue = deque([root])
    moves: list[int] = []  # the table, row after row: states leave the queue in order
    while queue:
        u = queue.popleft()
        for letter in letters:
            nxt = bdd.step(u, letter)
            if nxt not in order:
                if len(order) >= MAX_DFA_STATES:
                    raise LtlfError("formula translation exceeded the state budget")
                order[nxt] = len(order)
                queue.append(nxt)
            moves.append(order[nxt])
    states = sorted(order, key=order.get)
    return Dfa(
        alphabet=letters,
        table=np.array(moves, dtype=np.int64).reshape(len(order), len(letters)),
        initial=0,
        accepting=frozenset(order[u] for u in states if bdd.accepts_empty(u)),
        state_names=tuple(to_str(bdd.formula(u)) for u in states),
    )


def dfa_over_model_labels(formula: Formula | str, model: Model) -> Dfa:
    """Translate against the label sets the model actually realizes."""
    return ltlf_to_dfa(formula, model.label_letters, model.atomic_props)
