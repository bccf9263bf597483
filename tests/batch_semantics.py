"""The direct evaluators of temporal formulas on finite words: one word at
a time, and batched over every word of a given length, the translator
oracle at acceptance scale.

Both walk the satisfaction relation bottom-up over subformulas and
positions, the batched one column by column over a matrix of words, and
share no code with the progression-based DFA construction they check.
"""

from itertools import product
from typing import Sequence

import numpy as np

from opaque_planner.ltlf import (
    Always,
    And,
    Eventually,
    FalseF,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    TrueF,
    Until,
    _nesting_checked,
)


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


@_nesting_checked
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


def all_letters(props: tuple[str, ...]) -> list[frozenset]:
    return [
        frozenset(p for p, on in zip(props, bits) if on)
        for bits in product((False, True), repeat=len(props))
    ]


def words_matrix(n_letters: int, length: int) -> np.ndarray:
    """Every word of the given length as rows of letter indices."""
    if length == 0:
        return np.zeros((1, 0), dtype=np.int8)
    grids = np.meshgrid(*([np.arange(n_letters)] * length), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def batch_evaluate(f: Formula, letters: list[frozenset], words: np.ndarray) -> np.ndarray:
    """Truth of ``f`` at position 0 for every row of ``words``."""
    n_words, n = words.shape
    if n == 0:
        return np.full(n_words, eval_empty(f))
    memo: dict[Formula, np.ndarray] = {}

    def table(g: Formula) -> np.ndarray:
        got = memo.get(g)
        if got is not None:
            return got
        if isinstance(g, TrueF):
            t = np.ones((n_words, n), dtype=bool)
        elif isinstance(g, FalseF):
            t = np.zeros((n_words, n), dtype=bool)
        elif isinstance(g, Prop):
            holds = np.array([g.name in letter for letter in letters])
            t = holds[words]
        elif isinstance(g, Not):
            t = ~table(g.arg)
        elif isinstance(g, And):
            t = np.ones((n_words, n), dtype=bool)
            for part in g.args:
                t &= table(part)
        elif isinstance(g, Or):
            t = np.zeros((n_words, n), dtype=bool)
            for part in g.args:
                t |= table(part)
        elif isinstance(g, Next):
            sub = table(g.arg)
            t = np.zeros((n_words, n), dtype=bool)
            t[:, :-1] = sub[:, 1:]
        elif isinstance(g, Until):
            left, right = table(g.left), table(g.right)
            t = np.zeros((n_words, n), dtype=bool)
            t[:, n - 1] = right[:, n - 1]
            for i in range(n - 2, -1, -1):
                t[:, i] = right[:, i] | (left[:, i] & t[:, i + 1])
        elif isinstance(g, Eventually):
            sub = table(g.arg)
            t = np.zeros((n_words, n), dtype=bool)
            t[:, n - 1] = sub[:, n - 1]
            for i in range(n - 2, -1, -1):
                t[:, i] = sub[:, i] | t[:, i + 1]
        elif isinstance(g, Always):
            sub = table(g.arg)
            t = np.zeros((n_words, n), dtype=bool)
            t[:, n - 1] = sub[:, n - 1]
            for i in range(n - 2, -1, -1):
                t[:, i] = sub[:, i] & t[:, i + 1]
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = t
        return t

    return table(f)[:, 0].copy()


def batch_dfa_accepts(dfa, letters: list[frozenset], words: np.ndarray) -> np.ndarray:
    """DFA acceptance for every row, via a dense transition table."""
    n_words, n = words.shape
    table = np.empty((dfa.n_states, len(letters)), dtype=np.int32)
    for q in range(dfa.n_states):
        for j, letter in enumerate(letters):
            table[q, j] = dfa.transitions[(q, letter)]
    state = np.full(n_words, dfa.initial, dtype=np.int32)
    for i in range(n):
        state = table[state, words[:, i]]
    accepting = np.zeros(dfa.n_states, dtype=bool)
    for q in dfa.accepting:
        accepting[q] = True
    return accepting[state]
