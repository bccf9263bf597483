"""Stochastic transition system with start/end framing and a
transition-observation function.

States include a reserved initiating state and an absorbing terminating
state, which owns no rows, and every interior state can terminate.  Each positive-probability
interior transition carries the symbol an eavesdropper receives when the
transition fires; the framing transitions emit reserved start/end markers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

S_TOP = "s_top"
S_BOT = "s_bot"
A_TOP = "a_top"
A_BOT = "a_bot"

RESERVED_STATES = (S_TOP, S_BOT)
RESERVED_ACTIONS = (A_TOP, A_BOT)

#: tolerance for probability-mass checks
PROB_TOL = 1e-9


class ModelError(ValueError):
    """Raised on structurally impossible model definitions."""


class InvalidPlayError(ModelError):
    """Raised when a play does not exist in the model."""


#: the one ``ObsSymbol`` of each canonical ``(kind, members)`` key
_SYMBOLS: dict[tuple[str, tuple[str, ...]], "ObsSymbol"] = {}
_KIND_RANK = {"start": 0, "set": 1, "end": 2}


class ObsSymbol:
    """One letter of the observation alphabet.

    Either a set of mutually indistinguishable states, the start-of-word
    marker, or the end-of-word marker.  Symbols are hash-consed: the
    constructor canonicalizes its input to ``(kind, sorted members)`` and
    returns the one object of that key, so two symbols are equal iff they
    are the same object.  The class defines no ``__eq__`` or ``__hash__``
    and inherits ``object``'s identity slots, so every dict keyed by
    letters or words of letters hashes them in C.  A symbol is immutable,
    and pickling or copying one returns the canonical object.  Identity
    hashes follow memory addresses, so anything that iterates over a set
    of symbols orders it by ``sort_key`` first.
    """

    __slots__ = ("kind", "members", "sort_key")

    def __new__(cls, kind: str, members: Iterable[str] = ()) -> "ObsSymbol":
        if not isinstance(kind, str) or kind not in _KIND_RANK:
            raise ValueError(f"bad observation symbol kind: {kind!r}")
        members = tuple(sorted(set(members)))
        if kind == "set" and not members:
            raise ValueError("state-set observation symbol must be nonempty")
        if kind != "set" and members:
            raise ValueError("marker symbols carry no members")
        key = (kind, members)
        symbol = _SYMBOLS.get(key)
        if symbol is None:
            symbol = object.__new__(cls)
            object.__setattr__(symbol, "kind", kind)
            object.__setattr__(symbol, "members", members)
            object.__setattr__(symbol, "sort_key", (_KIND_RANK[kind], members))
            # concurrent constructors of one key agree on the first stored
            symbol = _SYMBOLS.setdefault(key, symbol)
        return symbol

    def __setattr__(self, name, value):
        raise AttributeError(f"ObsSymbol is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ObsSymbol is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # rebuild through the constructor, so that pickle and deepcopy
        # return the canonical object of the receiving process
        return (ObsSymbol, (self.kind, self.members))

    @classmethod
    def state_set(cls, members: Iterable[str]) -> "ObsSymbol":
        return cls("set", members)

    def __repr__(self) -> str:
        return f"ObsSymbol(kind={self.kind!r}, members={self.members!r})"

    def __str__(self) -> str:
        if self.kind == "start":
            return "⋊"  # ⋊
        if self.kind == "end":
            return "⋉"  # ⋉
        return "[" + ",".join(self.members) + "]"


START = ObsSymbol("start")
END = ObsSymbol("end")


@dataclass(frozen=True)
class Play:
    """A terminated run: s_top a_top s0 a0 ... sn a_bot s_bot."""

    states: tuple[str, ...]
    actions: tuple[str, ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise InvalidPlayError("play must interleave n+1 states with n actions")

    @classmethod
    def from_linear(cls, seq: Iterable[str]) -> "Play":
        items = list(seq)
        return cls(tuple(items[0::2]), tuple(items[1::2]))

    @property
    def interior_states(self) -> tuple[str, ...]:
        return self.states[1:-1]

    def __str__(self) -> str:
        out = [self.states[0]]
        for a, s in zip(self.actions, self.states[1:]):
            out.append(a)
            out.append(s)
        return " ".join(out)


# ---------------------------------------------------------------------------
# CSR row groups


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a cached array is shared by every reader."""
    array.setflags(write=False)
    return array


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``arange(start[i], start[i] + count[i])`` for every i, concatenated."""
    end = np.cumsum(count)
    return np.repeat(start - (end - count), count) + np.arange(end[-1] if len(end) else 0)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a non-negative integer array, sorted: sorting
    beats ``np.unique``, which hashes integers in numpy >= 2.3 and imports
    ``numpy.ma`` (~18 ms) on its first call."""
    values = np.sort(values)
    return values[np.diff(values, prepend=-1) != 0]


def _unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of a 1-d integer array, sorted, the index of
    each one's first occurrence, and the place of each value among them:
    ``np.unique(values, return_index=True, return_inverse=True)`` by one
    unstable sort.  ``np.unique`` sorts stably for the first occurrences,
    several times slower; an unstable sort may permute equal values, so
    the first occurrence is the least index in each run."""
    order = np.argsort(values)
    ranked = values[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    start = np.flatnonzero(new)
    inverse = np.empty(len(values), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ranked[start], np.minimum.reduceat(order, start), inverse


def _coalesce(key: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an integer array ``key``, sorted, and the
    sum of ``weights`` over each, added in the order they occur: a stable
    sort keeps each key's weights in order, and ``bincount`` adds them in
    that order."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return key[first], np.bincount(np.cumsum(first) - 1, weights=weights[order])


def _id_table(n_cells: int, error: type[Exception]) -> np.ndarray:
    """The id table of a search over the codes ``0 .. n_cells - 1``: one
    int32 per code, zero until the code is found and then its id + 1.
    ``np.zeros`` maps untouched pages to the zero page, so the table takes
    4 bytes per cell of address space but only the pages that the search
    touches of memory.  Raises ``error`` before it allocates anything if
    a code does not fit int64, or if that many states might not all get
    an int32 id."""
    if n_cells - 1 > np.iinfo(np.int64).max:
        raise error(f"a code space of {n_cells} codes overflows int64 codes")
    if n_cells > np.iinfo(np.int32).max:
        raise error(f"a code space of {n_cells} codes may hold more states than int32 ids")
    return np.zeros(n_cells, dtype=np.int32)


def _number_level(code: np.ndarray, table: np.ndarray, n_ids: int) -> tuple:
    """Number the codes a breadth-first level reaches as a FIFO search
    would: ``table`` (:func:`_id_table`, 4 bytes per cell of the code
    space, its pages made resident as the search touches them) holds the
    id + 1 of each code found so far, ``n_ids`` of them, and the new codes
    get the next ids by first occurrence in ``code``.  The table is
    updated in place by direct lookup, with no sort.  Returns the ids of
    ``code``, the new codes by id (the next level), and the number of ids
    given so far.  A level holds fewer than 2**31 codes."""
    ids = table[code].astype(np.int64) - 1  # -1 at a new code
    at = np.flatnonzero(ids < 0)
    fresh = code[at]
    # each new code's first place in the level: minimum.at, unlike a
    # fancy assignment, is defined when a code repeats; the marks
    # at - len(code) are negative, below the zero of an unfound code
    mark = (at - len(code)).astype(np.int32)
    np.minimum.at(table, fresh, mark)
    level = fresh[table[fresh] == mark]
    table[level] = np.arange(n_ids + 1, n_ids + 1 + len(level), dtype=np.int32)
    ids[at] = table[fresh] - 1
    return ids, level, n_ids + len(level)


@dataclass(frozen=True, eq=False)
class RowGroups:
    """A transition system stored once as CSR row groups, the layout of
    sparse probabilistic model checkers (PRISM: Kwiatkowska, Norman &
    Parker 2011; Storm: Dehnert et al. 2017); the model and its products
    extend it.

    State ``v`` owns the (state, action) rows ``row_ptr[v]:row_ptr[v + 1]``,
    one per enabled action in increasing order (``row_action``).  Row ``r``
    owns the entries ``entry_ptr[r]:entry_ptr[r + 1]``, with successors
    ``entry_succ`` in increasing order.  Every array field, a subclass's
    too, is read-only.  A subclass gives ``n_actions``, the number of
    action ids.
    """

    row_ptr: np.ndarray
    row_action: np.ndarray
    entry_ptr: np.ndarray
    entry_succ: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def n_states(self) -> int:
        return len(self.row_ptr) - 1

    @cached_property
    def row_state(self) -> np.ndarray:
        """The state of each row."""
        return _read_only(np.repeat(np.arange(self.n_states), np.diff(self.row_ptr)))

    @cached_property
    def entry_state(self) -> np.ndarray:
        """The source state of each entry."""
        return _read_only(np.repeat(self.row_state, np.diff(self.entry_ptr)))

    @cached_property
    def entry_action(self) -> np.ndarray:
        """The action of each entry."""
        return _read_only(np.repeat(self.row_action, np.diff(self.entry_ptr)))

    def rows_of(self, states, actions) -> np.ndarray:
        """The row of each (state, action) pair; -1 where the state does
        not enable the action."""
        width = self.n_actions
        keys = self.row_state * width + self.row_action  # increasing
        wanted = np.asarray(states, dtype=np.int64) * width + np.asarray(actions, dtype=np.int64)
        pos = np.searchsorted(keys, wanted)
        found = pos < len(keys)
        found[found] = keys[pos[found]] == wanted[found]
        return np.where(found, pos, -1)

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of ``rows``, row after row, and for each entry the
        position in ``rows`` of its row."""
        start = self.entry_ptr[rows]
        count = self.entry_ptr[rows + 1] - start
        return _ranges(start, count), np.repeat(np.arange(len(rows)), count)

    def enabled(self, v: int) -> tuple[int, ...]:
        return tuple(self.row_action[self.row_ptr[v] : self.row_ptr[v + 1]].tolist())


def distributions(
    groups: RowGroups, entry_prob: np.ndarray
) -> Mapping[tuple[int, int], tuple[tuple[int, float], ...]]:
    """(state, action) -> ((successor, probability), ...), row by row, as
    a read-only view."""
    pairs = list(zip(groups.entry_succ.tolist(), entry_prob.tolist()))
    ptr = groups.entry_ptr.tolist()
    keys = zip(groups.row_state.tolist(), groups.row_action.tolist())
    return MappingProxyType({key: tuple(pairs[ptr[r] : ptr[r + 1]]) for r, key in enumerate(keys)})


@dataclass(frozen=True, eq=False)
class Model(RowGroups):
    """Probabilistic transition system with an observation function,
    stored once as CSR row groups (:class:`RowGroups`) by :func:`assemble`;
    validated on demand by :func:`validate`.

    ``states[0]`` is the initiating state and ``states[-1]`` the
    terminating one, which is absorbing and owns no rows; likewise for
    ``actions``.  Entry ``e`` has probability ``entry_prob[e]`` and
    observation ``entry_obs[e]``, an index into ``symbols``, the
    observation alphabet: ``a_top`` rows emit START and ``a_bot`` rows END,
    and ``entry_obs`` is -1 where no observation is given.
    ``transitions``, ``observations`` and the name indices are read-only
    views, built on first access.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    atomic_props: frozenset[str]
    labels: tuple[frozenset[str] | None, ...]
    entry_prob: np.ndarray
    entry_obs: np.ndarray
    symbols: tuple[ObsSymbol, ...]

    # -- indices ------------------------------------------------------
    @property
    def top(self) -> int:
        return 0

    @property
    def bot(self) -> int:
        return len(self.states) - 1

    @property
    def a_top(self) -> int:
        return 0

    @property
    def a_bot(self) -> int:
        return len(self.actions) - 1

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def interior_state_indices(self) -> range:
        return range(1, len(self.states) - 1)

    def interior_action_indices(self) -> range:
        return range(1, len(self.actions) - 1)

    @cached_property
    def state_index(self) -> Mapping[str, int]:
        return MappingProxyType({s: i for i, s in enumerate(self.states)})

    @cached_property
    def action_index(self) -> Mapping[str, int]:
        return MappingProxyType({a: i for i, a in enumerate(self.actions)})

    # -- lookups ------------------------------------------------------
    @cached_property
    def transitions(self) -> Mapping[tuple[int, int], tuple[tuple[int, float], ...]]:
        """(state, action) -> ((successor, probability), ...) by successor."""
        return distributions(self, self.entry_prob)

    @cached_property
    def observations(self) -> Mapping[tuple[int, int, int], ObsSymbol]:
        """Interior (state, action, successor) -> observation symbol."""
        entries = (x.tolist() for x in (self.entry_state, self.entry_action, self.entry_succ))
        return MappingProxyType(
            {
                (s, a, t): self.symbols[o]
                for s, a, t, o in zip(*entries, self.entry_obs.tolist())
                if o >= 0 and a not in (self.a_top, self.a_bot)
            }
        )

    @cached_property
    def label_letters(self) -> tuple[frozenset[str], ...]:
        """The distinct interior labels, by size, then members."""
        labels = {self.labels[s] for s in self.interior_state_indices()}
        return tuple(sorted(labels, key=lambda l: (len(l), sorted(l))))

    @cached_property
    def state_label(self) -> np.ndarray:
        """Each state's index into ``label_letters``; -1 on the two frame
        states."""
        letter_id = {l: i for i, l in enumerate(self.label_letters)}
        return _read_only(np.array([letter_id.get(l, -1) for l in self.labels], dtype=np.int64))

    def successors(self, s: int, a: int) -> tuple[tuple[int, float], ...]:
        return self.transitions.get((s, a), ())

    def prob(self, s: int, a: int, s2: int) -> float:
        for t, p in self.successors(s, a):
            if t == s2:
                return p
        return 0.0

    def initial_dist(self) -> tuple[tuple[int, float], ...]:
        return self.successors(self.top, self.a_top)

    def label_of(self, s: int) -> frozenset[str]:
        lab = self.labels[s]
        if lab is None:
            raise ModelError(f"state {self.states[s]} carries a marker, not a label")
        return lab

    def observation_alphabet(self) -> tuple[ObsSymbol, ...]:
        """Realized observation symbols plus the two markers, sorted."""
        return self.symbols

    def obs(self, s: int, a: int, s2: int) -> ObsSymbol:
        if a == self.a_top:
            return START
        if a == self.a_bot:
            return END
        try:
            return self.observations[(s, a, s2)]
        except KeyError:
            raise ModelError(
                f"no observation for transition ({self.states[s]}, "
                f"{self.actions[a]}, {self.states[s2]})"
            ) from None

    # -- plays --------------------------------------------------------
    def check_play(self, play: Play) -> None:
        """Raise InvalidPlayError naming the first bad transition."""
        if len(play.states) < 3:
            raise InvalidPlayError("play too short: needs at least one interior state")
        if play.states[0] != self.states[self.top] or play.actions[0] != self.actions[self.a_top]:
            raise InvalidPlayError("play must begin with the initiating state and action")
        if play.states[-1] != self.states[self.bot] or play.actions[-1] != self.actions[self.a_bot]:
            raise InvalidPlayError("play must end with the terminating action and state")
        for name in play.states:
            if name not in self.state_index:
                raise InvalidPlayError(f"unknown state {name!r}")
        for name in play.actions:
            if name not in self.action_index:
                raise InvalidPlayError(f"unknown action {name!r}")
        for i, (u, a, v) in enumerate(
            zip(play.states, play.actions, play.states[1:])
        ):
            si, ai, ti = self.state_index[u], self.action_index[a], self.state_index[v]
            if self.prob(si, ai, ti) <= 0.0:
                raise InvalidPlayError(
                    f"transition #{i} ({u}, {a}, {v}) has zero probability"
                )


def obs_of_play(model: Model, play: Play) -> tuple[ObsSymbol, ...]:
    """The framed observation word of a play.

    One symbol per interior transition, between the start/end markers;
    prefixes of plays map to prefixes of observations.
    """
    model.check_play(play)
    idx_s = [model.state_index[s] for s in play.states]
    idx_a = [model.action_index[a] for a in play.actions]
    mids = tuple(
        model.obs(idx_s[i], idx_a[i], idx_s[i + 1])
        for i in range(1, len(idx_a) - 1)
    )
    return (START,) + mids + (END,)


# ---------------------------------------------------------------------------
# construction


def assemble(
    states: Iterable[str],
    actions: Iterable[str],
    transitions: Mapping[tuple[str, str], Mapping[str, float]],
    labels: Mapping[str, Iterable[str]],
    observations: Mapping[tuple[str, str, str], Iterable[str] | ObsSymbol],
    atomic_props: Iterable[str] | None = None,
) -> Model:
    """Low-level constructor from fully framed data.

    ``states`` must start with ``s_top`` and end with ``s_bot`` (likewise
    for actions); nothing is injected and nothing beyond name resolution
    and each probability (:func:`as_probability`; exact zeros are dropped)
    is checked, except that the terminating state owns no rows: its
    self-loops under interior actions are dropped, and any other move out
    of it raises ``ModelError``, as does an observation of a transition
    the model does not have, which has nowhere to be stored.  An
    observation is the names of its states, or an ``ObsSymbol``, taken as
    it is.  Use :func:`validate` afterwards.
    """
    states = tuple(states)
    actions = tuple(actions)
    if len(set(states)) != len(states):
        raise ModelError("duplicate state names")
    if len(set(actions)) != len(actions):
        raise ModelError("duplicate action names")
    if states[0] != S_TOP or states[-1] != S_BOT:
        raise ModelError(f"states must be framed by {S_TOP!r}/{S_BOT!r}")
    if actions[0] != A_TOP or actions[-1] != A_BOT:
        raise ModelError(f"actions must be framed by {A_TOP!r}/{A_BOT!r}")
    for name in states[1:-1]:
        if name in RESERVED_STATES:
            raise ModelError(f"reserved state name {name!r} used for an interior state")
    for name in actions[1:-1]:
        if name in RESERVED_ACTIONS:
            raise ModelError(f"reserved action name {name!r} used for an interior action")
    sidx = {s: i for i, s in enumerate(states)}
    aidx = {a: i for i, a in enumerate(actions)}

    entries: list[tuple[int, int, int, float]] = []  # (state, action, successor, prob)
    for (s, a), dist in transitions.items():
        if s not in sidx:
            raise ModelError(f"unknown state {s!r} in transitions")
        if a not in aidx:
            raise ModelError(f"unknown action {a!r} in transitions")
        for t, p in dist.items():
            if t not in sidx:
                raise ModelError(f"unknown successor {t!r} in transitions")
            p = as_probability(p)
            if s == S_BOT and p > 0.0 and (t != S_BOT or a in RESERVED_ACTIONS):
                raise ModelError(f"move ({s}, {a}, {t}) out of the absorbing terminating state")
            if p > 0.0 and s != S_BOT:
                entries.append((sidx[s], aidx[a], sidx[t], p))
    entries.sort()

    lab: list[frozenset[str] | None] = [None] * len(states)
    for s, props in labels.items():
        if s not in sidx:
            raise ModelError(f"unknown state {s!r} in labels")
        if s in RESERVED_STATES:
            raise ModelError("frame states carry markers, not labels")
        lab[sidx[s]] = frozenset(props)
    for i in range(1, len(states) - 1):
        if lab[i] is None:
            lab[i] = frozenset()

    if atomic_props is None:
        ap = frozenset().union(*(l for l in lab if l is not None)) if len(states) > 2 else frozenset()
    else:
        ap = frozenset(atomic_props)

    given: dict[tuple[int, int, int], ObsSymbol] = {}
    for (s, a, t), members in observations.items():
        if s not in sidx or a not in aidx or t not in sidx:
            raise ModelError(f"observation given for unknown transition ({s}, {a}, {t})")
        if not isinstance(members, ObsSymbol):
            members = tuple(members)
            if not members:
                raise ModelError(f"observation of ({s}, {a}, {t}) names no state")
            members = ObsSymbol.state_set(members)
        given[(sidx[s], aidx[a], sidx[t])] = members

    # the frame's moves emit the markers, and every other entry takes its
    # given observation
    markers = {0: START, len(actions) - 1: END}
    emitted = [markers[a] if a in markers else given.pop((s, a, t), None) for s, a, t, _p in entries]
    if given:
        s, a, t = min(given)
        raise ModelError(
            f"observation given for absent transition ({states[s]}, {actions[a]}, {states[t]})"
        )
    symbols = sorted({o for o in emitted if o is not None} | {START, END}, key=lambda o: o.sort_key)
    symbol_id = {o: i for i, o in enumerate(symbols)}
    state, action, succ = (np.array([e[i] for e in entries], dtype=np.int64) for i in range(3))
    first = np.flatnonzero(np.diff(state * len(actions) + action, prepend=-1))  # row starts

    return Model(
        row_ptr=np.concatenate(([0], np.cumsum(np.bincount(state[first], minlength=len(states))))),
        row_action=action[first],
        entry_ptr=np.append(first, len(entries)),
        entry_succ=succ,
        states=states,
        actions=actions,
        atomic_props=ap,
        labels=tuple(lab),
        entry_prob=np.array([e[3] for e in entries], dtype=np.float64),
        entry_obs=np.array([symbol_id.get(o, -1) for o in emitted], dtype=np.int64),
        symbols=tuple(symbols),
    )


def build_model(
    states: Iterable[str],
    actions: Iterable[str],
    transitions: Mapping[tuple[str, str], Mapping[str, float]],
    initial: Mapping[str, float],
    labels: Mapping[str, Iterable[str]],
    observations: Mapping[tuple[str, str, str], Iterable[str] | ObsSymbol],
    atomic_props: Iterable[str] | None = None,
) -> Model:
    """Construct a model from interior data, injecting the frame.

    Adds the initiating action row carrying the initial distribution and
    a sure terminating transition from every interior state.
    """
    states = tuple(states)
    actions = tuple(actions)
    full_states = (S_TOP,) + states + (S_BOT,)
    full_actions = (A_TOP,) + actions + (A_BOT,)
    trans = {(s, a): dict(d) for (s, a), d in transitions.items()}
    trans[(S_TOP, A_TOP)] = {s: as_probability(p) for s, p in initial.items()}
    for s in states:
        trans[(s, A_BOT)] = {S_BOT: 1.0}
    return assemble(full_states, full_actions, trans, labels, observations, atomic_props)


def as_probability(p) -> float:
    """Accept floats, Fractions and 'num/den' strings that are finite and
    non-negative; raises ``ModelError`` on anything else, booleans too."""
    if type(p) is float and 0.0 <= p < np.inf:  # the common case: returned as it is
        return p
    try:
        value = float(Fraction(p) if isinstance(p, str) else p)
    except (TypeError, ValueError, ZeroDivisionError):
        value = np.nan  # fails the range check
    if isinstance(p, (bool, np.bool_)) or not 0.0 <= value < np.inf:
        raise ModelError(f"probability {p!r} is not a finite non-negative number")
    return value


# ---------------------------------------------------------------------------
# validation


def validate(model: Model) -> list[str]:
    """Check the structural invariants; return one message per violation.

    Violations are data, not exceptions: an empty list means the model is
    well-formed.
    """
    out: list[str] = []
    sname, aname = model.states, model.actions
    top, bot, a_top, a_bot = model.top, model.bot, model.a_top, model.a_bot
    keys = list(zip(model.row_state.tolist(), model.row_action.tolist()))
    ptr, succ, prob = (x.tolist() for x in (model.entry_ptr, model.entry_succ, model.entry_prob))

    # probability mass, summed in successor order
    for r, (s, a) in enumerate(keys):
        mass = sum(prob[ptr[r] : ptr[r + 1]])
        if abs(mass - 1.0) > PROB_TOL:
            out.append(
                f"probability mass: P({sname[s]}, {aname[a]}, .) sums to {mass!r}"
            )

    # initiating action: only at s_top, and s_top has nothing else
    for s, a in keys:
        if a == a_top and s != top:
            out.append(f"initiating action enabled at {sname[s]}")
        if s == top and a != a_top:
            out.append(f"action {aname[a]} enabled at the initiating state")
    init = model.successors(top, a_top)
    if not init:
        out.append("initiating action missing: no initial distribution")
    for t, p in init:
        if t in (top, bot):
            out.append(f"initial distribution places mass {p!r} on {sname[t]}")

    # terminating action: sure transition to s_bot from every interior state
    for s in model.interior_state_indices():
        dist = model.successors(s, a_bot)
        if not dist:
            out.append(f"terminating action missing at {sname[s]}")
        elif dist != ((bot, 1.0),):
            out.append(f"terminating action at {sname[s]} is not a sure move to {S_BOT}")

    # no transitions back into the frame
    for r, (s, a) in enumerate(keys):
        for t in succ[ptr[r] : ptr[r + 1]]:
            if t == top:
                out.append(
                    f"transition into the initiating state: ({sname[s]}, {aname[a]})"
                )
            if t == bot and a not in (a_top, a_bot):
                out.append(
                    f"interior action {aname[a]} at {sname[s]} moves to {S_BOT}"
                )

    # labels within the declared propositions
    for s in model.interior_state_indices():
        extra = model.labels[s] - model.atomic_props
        if extra:
            out.append(f"label of {sname[s]} uses undeclared propositions {sorted(extra)}")

    # every positive-probability interior transition carries an observation
    # (assemble rejects one given for a transition the model does not have),
    # and its members are known states
    observed = ~np.isin(model.entry_action, (a_top, a_bot))
    for e in np.flatnonzero(observed & (model.entry_obs < 0)).tolist():
        s, a, t = int(model.entry_state[e]), int(model.entry_action[e]), succ[e]
        out.append(f"observation missing for ({sname[s]}, {aname[a]}, {sname[t]})")
    unknown = [[m for m in o.members if m not in model.state_index] for o in model.symbols]
    for o in model.entry_obs[observed & (model.entry_obs >= 0)].tolist():
        for m in unknown[o]:
            out.append(f"observation symbol {model.symbols[o]} names unknown state {m!r}")

    return out


# ---------------------------------------------------------------------------
# JSON model files


def model_to_dict(model: Model) -> dict:
    """Canonical JSON form: interior data plus ``auto_frame: true``."""
    interior_s = [model.states[i] for i in model.interior_state_indices()]
    interior_a = [model.actions[i] for i in model.interior_action_indices()]
    transitions, observations = [], []
    columns = (model.entry_state, model.entry_action, model.entry_succ, model.entry_prob)
    for s, a, t, p, o in zip(*(x.tolist() for x in columns), model.entry_obs.tolist()):
        if a in (model.a_top, model.a_bot):
            continue
        move = {"from": model.states[s], "action": model.actions[a], "to": model.states[t]}
        transitions.append({**move, "prob": p})
        if o >= 0:
            observations.append({**move, "obs": list(model.symbols[o].members)})
    return {
        "auto_frame": True,
        "states": interior_s,
        "actions": interior_a,
        "initial": {model.states[t]: p for t, p in model.initial_dist()},
        "atomic_props": sorted(model.atomic_props),
        "labels": {
            model.states[i]: sorted(model.labels[i])
            for i in model.interior_state_indices()
        },
        "transitions": transitions,
        "observations": observations,
    }


def dumps_model(model: Model) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"


def record_fields(record, names: tuple[str, ...], where: str) -> list:
    """The values of ``names`` in a JSON object; raises ``ModelError``
    naming ``where`` unless ``record`` is an object holding them all."""
    if not isinstance(record, Mapping) or any(n not in record for n in names):
        raise ModelError(f"{where} needs the fields " + ", ".join(names))
    return [record[n] for n in names]


def _names(value, where: str) -> list[str]:
    """``value`` if it is a list of strings; raises ``ModelError`` naming
    ``where`` otherwise."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ModelError(f"model file: {where} must be a list of names")
    return value


def _mapping(doc: Mapping, name: str) -> Mapping:
    """The object field ``name`` of ``doc``, empty when absent; raises
    ``ModelError`` when it is not an object."""
    value = doc.get(name, {})
    if not isinstance(value, Mapping):
        raise ModelError(f"model file: {name} must be an object")
    return value


def _move(row, last: str, where: str) -> list:
    """The ``from``, ``action``, ``to`` and ``last`` fields of a transition
    or observation row; raises ``ModelError`` unless the first three are
    names."""
    fields = record_fields(row, ("from", "action", "to", last), f"model file: {where}")
    if not all(isinstance(v, str) for v in fields[:3]):
        raise ModelError(f"model file: {where}: from, action and to must be names")
    return fields


def model_from_dict(doc: Mapping) -> Model:
    """The model of a :func:`model_to_dict` document; raises ``ModelError``
    on a malformed one, and on a second transition or observation row for
    one move."""
    if not isinstance(doc, Mapping):
        raise ModelError("model file must hold a JSON object")
    for name in ("states", "actions", "transitions"):
        if name not in doc:
            raise ModelError(f"model file missing field {name!r}")
    states, actions = _names(doc["states"], "states"), _names(doc["actions"], "actions")
    labels = {s: _names(props, f"the label of {s!r}") for s, props in _mapping(doc, "labels").items()}
    for name in ("transitions", "observations"):
        if not isinstance(doc.get(name, []), list):
            raise ModelError(f"model file: {name} must be a list")

    transitions: dict[tuple[str, str], dict[str, float]] = {}
    for i, row in enumerate(doc["transitions"]):
        s, a, t, p = _move(row, "prob", f"transition {i}")
        p, dist = as_probability(p), transitions.setdefault((s, a), {})
        if t in dist:
            raise ModelError(f"model file: transition {i} repeats the move ({s}, {a}, {t})")
        dist[t] = p
    observations = {}
    for i, row in enumerate(doc.get("observations", [])):
        s, a, t, o = _move(row, "obs", f"observation {i}")
        if (s, a, t) in observations:
            raise ModelError(f"model file: observation {i} repeats the move ({s}, {a}, {t})")
        observations[(s, a, t)] = _names(o, f"observation {i}'s obs")
    initial = {s: as_probability(p) for s, p in _mapping(doc, "initial").items()}
    props = doc.get("atomic_props")
    if props is not None:
        _names(props, "atomic_props")

    auto_frame = doc.get("auto_frame", False)
    if not isinstance(auto_frame, bool):
        raise ModelError(f"model file: auto_frame must be true or false, not {auto_frame!r}")
    if auto_frame:
        return build_model(states, actions, transitions, initial, labels, observations, props)
    return assemble(states, actions, transitions, labels, observations, props)


def load_model(path: str | Path) -> Model:
    doc = json.loads(Path(path).read_text())
    return model_from_dict(doc)
