"""Stochastic transition system with start/end framing and a
transition-observation function.

States include a reserved initiating state and an absorbing terminating
state, and every interior state can terminate.  Each positive-probability
interior transition carries the symbol an eavesdropper receives when the
transition fires; the framing transitions emit reserved start/end markers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
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


@dataclass(frozen=True)
class ObsSymbol:
    """One letter of the observation alphabet.

    Either a set of mutually indistinguishable states, the start-of-word
    marker, or the end-of-word marker.  Two symbols are equal iff their
    kinds and (sorted) member lists are equal.
    """

    kind: str  # "set" | "start" | "end"
    members: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("set", "start", "end"):
            raise ValueError(f"bad observation symbol kind: {self.kind!r}")
        if self.kind == "set":
            if not self.members:
                raise ValueError("state-set observation symbol must be nonempty")
            object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        elif self.members:
            raise ValueError("marker symbols carry no members")
        # every automaton dict is keyed by these letters: hash them once
        object.__setattr__(self, "_hash", hash((self.kind, self.members)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor, so that an unpickled symbol
        # rehashes under its new process's string hash seed
        return (ObsSymbol, (self.kind, self.members))

    @classmethod
    def state_set(cls, members: Iterable[str]) -> "ObsSymbol":
        return cls("set", tuple(members))

    @property
    def sort_key(self):
        rank = {"start": 0, "set": 1, "end": 2}[self.kind]
        return (rank, self.members)

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


@dataclass(frozen=True, eq=False)
class ModelCsr:
    """A model's transitions as CSR row groups, with interned letters.

    State ``s`` owns the rows ``row_ptr[s]:row_ptr[s + 1]``, one per enabled
    action in increasing order (``row_action``).  Row ``r`` owns the entries
    ``entry_ptr[r]:entry_ptr[r + 1]``, in the order of ``Model.transitions``
    (by successor): successor ``entry_succ``, probability ``entry_prob`` and
    observation ``entry_obs``, an index into ``observation_alphabet()``.
    ``a_top`` rows emit START and ``a_bot`` rows END; ``entry_obs`` is -1
    where no observation is defined (a missing one, or the terminating
    state's self-loops).  ``state_label`` indexes ``label_letters``, the
    distinct interior labels, and is -1 on the two frame states.
    """

    row_ptr: np.ndarray
    row_action: np.ndarray
    entry_ptr: np.ndarray
    entry_succ: np.ndarray
    entry_prob: np.ndarray
    entry_obs: np.ndarray
    state_label: np.ndarray
    label_letters: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class Model:
    """Validated-on-demand probabilistic transition system.

    ``states[0]`` is the initiating state and ``states[-1]`` the
    terminating one; likewise for ``actions``.  Treat instances as
    immutable; all operations on them are pure.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    atomic_props: frozenset[str]
    labels: tuple[frozenset[str] | None, ...]
    # (state, action) -> ((successor, probability), ...) sorted by successor
    transitions: Mapping[tuple[int, int], tuple[tuple[int, float], ...]]
    # interior (state, action, successor) -> observation symbol
    observations: Mapping[tuple[int, int, int], ObsSymbol]
    state_index: Mapping[str, int] = field(repr=False)
    action_index: Mapping[str, int] = field(repr=False)

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
    def n_states(self) -> int:
        return len(self.states)

    def interior_state_indices(self) -> range:
        return range(1, len(self.states) - 1)

    def interior_action_indices(self) -> range:
        return range(1, len(self.actions) - 1)

    # -- lookups ------------------------------------------------------
    @cached_property
    def _enabled(self) -> tuple[tuple[int, ...], ...]:
        """The enabled actions of every state, in increasing order."""
        out: list[list[int]] = [[] for _ in self.states]
        for s, a in sorted(self.transitions):
            out[s].append(a)
        return tuple(map(tuple, out))

    def enabled(self, s: int) -> tuple[int, ...]:
        return self._enabled[s]

    @cached_property
    def csr(self) -> ModelCsr:
        """The transitions as CSR row groups, built on first use."""
        keys = sorted(self.transitions)
        rows_per_state = np.bincount(
            np.array([s for s, _a in keys], dtype=np.int64), minlength=len(self.states)
        )
        symbol = {o: i for i, o in enumerate(self.observation_alphabet())}
        succ, prob, obs, widths = [], [], [], []
        for s, a in keys:
            dist = self.transitions[(s, a)]
            widths.append(len(dist))
            for t, p in dist:
                succ.append(t)
                prob.append(p)
                try:
                    obs.append(symbol[self.obs(s, a, t)])
                except ModelError:  # a missing one, or a terminating-state self-loop
                    obs.append(-1)
        letters = tuple(sorted(self.label_alphabet(), key=lambda l: (len(l), sorted(l))))
        letter_id = {l: i for i, l in enumerate(letters)}
        return ModelCsr(
            row_ptr=np.concatenate(([0], np.cumsum(rows_per_state))),
            row_action=np.array([a for _s, a in keys], dtype=np.int64),
            entry_ptr=np.concatenate(([0], np.cumsum(widths, dtype=np.int64))),
            entry_succ=np.array(succ, dtype=np.int64),
            entry_prob=np.array(prob, dtype=np.float64),
            entry_obs=np.array(obs, dtype=np.int64),
            state_label=np.array([letter_id.get(l, -1) for l in self.labels], dtype=np.int64),
            label_letters=letters,
        )

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

    def label_alphabet(self) -> frozenset[frozenset[str]]:
        return frozenset(self.labels[s] for s in self.interior_state_indices())

    def observation_alphabet(self) -> tuple[ObsSymbol, ...]:
        """Realized observation symbols plus the two markers, sorted."""
        return self._observation_alphabet

    @cached_property
    def _observation_alphabet(self) -> tuple[ObsSymbol, ...]:
        seen = set(self.observations.values())
        seen.update((START, END))
        return tuple(sorted(seen, key=lambda o: o.sort_key))

    def obs(self, s: int, a: int, s2: int) -> ObsSymbol:
        if a == self.a_top:
            return START
        if a == self.a_bot:
            return END
        if s == self.bot:
            raise ModelError("observation undefined on terminating-state self-loops")
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


def label_of_play(model: Model, play: Play) -> tuple:
    """The framed label word: start marker, interior labels, end marker."""
    model.check_play(play)
    mids = tuple(model.label_of(model.state_index[s]) for s in play.interior_states)
    return (START,) + mids + (END,)


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
    observations: Mapping[tuple[str, str, str], Iterable[str]],
    atomic_props: Iterable[str] | None = None,
) -> Model:
    """Low-level constructor from fully framed data.

    ``states`` must start with ``s_top`` and end with ``s_bot`` (likewise
    for actions); nothing is injected and nothing beyond name resolution
    and each probability (:func:`as_probability`; exact zeros are dropped)
    is checked.  Use :func:`validate` afterwards.
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

    trans: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
    for (s, a), dist in transitions.items():
        if s not in sidx:
            raise ModelError(f"unknown state {s!r} in transitions")
        if a not in aidx:
            raise ModelError(f"unknown action {a!r} in transitions")
        row = []
        for t, p in dist.items():
            if t not in sidx:
                raise ModelError(f"unknown successor {t!r} in transitions")
            p = as_probability(p)
            if p > 0.0:
                row.append((sidx[t], p))
        if row:
            trans[(sidx[s], aidx[a])] = tuple(sorted(row))

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

    obs: dict[tuple[int, int, int], ObsSymbol] = {}
    for (s, a, t), members in observations.items():
        if s not in sidx or a not in aidx or t not in sidx:
            raise ModelError(f"observation given for unknown transition ({s}, {a}, {t})")
        key = (sidx[s], aidx[a], sidx[t])
        obs[key] = members if isinstance(members, ObsSymbol) else ObsSymbol.state_set(members)

    return Model(
        states=states,
        actions=actions,
        atomic_props=ap,
        labels=tuple(lab),
        transitions=trans,
        observations=obs,
        state_index=sidx,
        action_index=aidx,
    )


def build_model(
    states: Iterable[str],
    actions: Iterable[str],
    transitions: Mapping[tuple[str, str], Mapping[str, float]],
    initial: Mapping[str, float],
    labels: Mapping[str, Iterable[str]],
    observations: Mapping[tuple[str, str, str], Iterable[str]],
    atomic_props: Iterable[str] | None = None,
) -> Model:
    """Construct a model from interior data, injecting the frame.

    Adds the initiating action row carrying the initial distribution, a
    sure terminating transition from every interior state, and the
    terminating state's self-loops for every interior action.
    """
    states = tuple(states)
    actions = tuple(actions)
    full_states = (S_TOP,) + states + (S_BOT,)
    full_actions = (A_TOP,) + actions + (A_BOT,)
    trans = {(s, a): dict(d) for (s, a), d in transitions.items()}
    trans[(S_TOP, A_TOP)] = {s: as_probability(p) for s, p in initial.items()}
    for s in states:
        trans[(s, A_BOT)] = {S_BOT: 1.0}
    for a in actions:
        trans[(S_BOT, a)] = {S_BOT: 1.0}
    return assemble(full_states, full_actions, trans, labels, observations, atomic_props)


def as_probability(p) -> float:
    """Accept floats, Fractions and 'num/den' strings that are finite and
    non-negative; raises ``ModelError`` on anything else, booleans too."""
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

    # probability mass
    for (s, a), dist in model.transitions.items():
        mass = sum(p for _, p in dist)
        if abs(mass - 1.0) > PROB_TOL:
            out.append(
                f"probability mass: P({sname[s]}, {aname[a]}, .) sums to {mass!r}"
            )

    # initiating action: only at s_top, and s_top has nothing else
    for (s, a) in model.transitions:
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

    # terminating state: self-loops for interior actions, nothing else
    for a in model.interior_action_indices():
        dist = model.successors(bot, a)
        if dist != ((bot, 1.0),):
            out.append(f"terminating state must self-loop under {aname[a]}")
    if (bot, a_bot) in model.transitions:
        out.append("terminating action enabled at the terminating state")

    # no transitions back into the frame
    for (s, a), dist in model.transitions.items():
        for t, _ in dist:
            if t == top:
                out.append(
                    f"transition into the initiating state: ({sname[s]}, {aname[a]})"
                )
            if t == bot and a not in (a_top, a_bot) and s != bot:
                out.append(
                    f"interior action {aname[a]} at {sname[s]} moves to {S_BOT}"
                )

    # labels within the declared propositions
    for s in model.interior_state_indices():
        extra = model.labels[s] - model.atomic_props
        if extra:
            out.append(f"label of {sname[s]} uses undeclared propositions {sorted(extra)}")

    # observations cover exactly the positive-probability interior transitions
    needed = set()
    for (s, a), dist in model.transitions.items():
        if s == bot or a in (a_top, a_bot):
            continue
        for t, _ in dist:
            needed.add((s, a, t))
    have = set(model.observations)
    for s, a, t in sorted(needed - have):
        out.append(f"observation missing for ({sname[s]}, {aname[a]}, {sname[t]})")
    for s, a, t in sorted(have - needed):
        out.append(f"observation given for absent transition ({sname[s]}, {aname[a]}, {sname[t]})")

    # observation members must be known states
    for key, sym in model.observations.items():
        for m in sym.members:
            if m not in model.state_index:
                out.append(f"observation symbol {sym} names unknown state {m!r}")

    return out


# ---------------------------------------------------------------------------
# JSON model files


def model_to_dict(model: Model) -> dict:
    """Canonical JSON form: interior data plus ``auto_frame: true``."""
    interior_s = [model.states[i] for i in model.interior_state_indices()]
    interior_a = [model.actions[i] for i in model.interior_action_indices()]
    transitions = []
    for (s, a), dist in sorted(model.transitions.items()):
        if s in (model.top, model.bot) or a in (model.a_top, model.a_bot):
            continue
        for t, p in dist:
            transitions.append(
                {
                    "from": model.states[s],
                    "action": model.actions[a],
                    "to": model.states[t],
                    "prob": p,
                }
            )
    observations = []
    for (s, a, t), sym in sorted(model.observations.items()):
        observations.append(
            {
                "from": model.states[s],
                "action": model.actions[a],
                "to": model.states[t],
                "obs": list(sym.members),
            }
        )
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
    on a malformed one."""
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
        transitions.setdefault((s, a), {})[t] = as_probability(p)
    observations = {}
    for i, row in enumerate(doc.get("observations", [])):
        s, a, t, o = _move(row, "obs", f"observation {i}")
        observations[(s, a, t)] = _names(o, f"observation {i}'s obs")
    initial = {s: as_probability(p) for s, p in _mapping(doc, "initial").items()}
    props = doc.get("atomic_props")
    if props is not None:
        _names(props, "atomic_props")

    if doc.get("auto_frame", False):
        return build_model(states, actions, transitions, initial, labels, observations, props)
    return assemble(states, actions, transitions, labels, observations, props)


def load_model(path: str | Path) -> Model:
    doc = json.loads(Path(path).read_text())
    return model_from_dict(doc)
