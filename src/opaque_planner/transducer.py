"""From the observation function to the opaque-observations DFA.

The observation function is encoded as a letter-to-letter transducer whose
inputs are the model's transitions and whose outputs are observation
symbols.  Pairing it with the secret DFA yields a product transducer with
two accepting sets: runs ending with the secret satisfied, and runs ending
with it violated.  An observation is opaque exactly when a satisfying and
a violating run both emit it.  Erasing inputs turns the transducer into an
NFA over observation words.  Its subset construction (the observer, or
current-state estimator) reaches on each word the set of transducer states
that runs emitting the word can be in; accepting the subsets that hold
both a satisfying and a violating terminal state, then minimizing, gives
the DFA of the opaque observations and nothing else.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .automata import (
    Dfa,
    Nfa,
    minimize,
    sort_alphabet,
    step_table,
    subset_construction,
)
from .model import END, Model, ObsSymbol, Play, START

InputLetter = tuple[int, int, int]  # (state, action, successor) indices


@dataclass(frozen=True)
class Fst:
    """Deterministic transducer reading transitions, emitting observations.

    There is exactly one transition per positive-probability model
    transition; the input (s, a, s') leaves state s and enters state s',
    emitting the start marker from the initiating state, the end marker on
    termination, and the transition's observation symbol otherwise.
    """

    model: Model
    transitions: Mapping[tuple[int, InputLetter], tuple[int, ObsSymbol]]

    def run_on_inputs(self, inputs) -> tuple[ObsSymbol, ...]:
        state = self.model.top
        out = []
        for letter in inputs:
            state, symbol = self.transitions[(state, letter)]
            out.append(symbol)
        return tuple(out)


def play_inputs(model: Model, play: Play) -> tuple[InputLetter, ...]:
    s = [model.state_index[x] for x in play.states]
    a = [model.action_index[x] for x in play.actions]
    return tuple((s[i], a[i], s[i + 1]) for i in range(len(a)))


def build_obs_fst(model: Model) -> Fst:
    """Encode the observation function as a transducer.

    Self-loops at the terminating state are omitted: no play continues
    past it, so they never produce output.
    """
    transitions: dict[tuple[int, InputLetter], tuple[int, ObsSymbol]] = {}
    for (s, a), dist in model.transitions.items():
        if s == model.bot:
            continue
        for t, _p in dist:
            transitions[(s, (s, a, t))] = (t, model.obs(s, a, t))
    return Fst(model=model, transitions=transitions)


@dataclass(frozen=True)
class ProductFst:
    """The observation transducer paired with the secret DFA.

    States are (model state, secret state); both accepting sets live on the
    terminating state: ``accept_sat`` holds the runs whose labeled play
    satisfies the secret, ``accept_vio`` the ones violating it.
    """

    model: Model
    secret: Dfa
    pairs: tuple[tuple[int, int], ...]
    index: Mapping[tuple[int, int], int]
    transitions: Mapping[tuple[int, InputLetter], tuple[int, ObsSymbol]]
    initial: int
    accept_sat: frozenset[int]
    accept_vio: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.pairs)

    def state_name(self, idx: int) -> str:
        s, q = self.pairs[idx]
        return f"({self.model.states[s]},{self.secret.state_names[q]})"

    def run_on_inputs(self, inputs) -> int:
        """Index of the state reached from the initial one."""
        state = self.initial
        for letter in inputs:
            state, _out = self.transitions[(state, letter)]
        return state


def product_fst(fst: Fst, secret: Dfa) -> ProductFst:
    """Synchronize the transducer with the secret DFA.

    The secret DFA reads the label of each interior state as it is
    entered, stepped by its table over the model's label ids; the start
    and end markers leave it untouched.  Only the pairs reachable from
    (initiating state, initial secret state) are kept.
    """
    model = fst.model
    secret_step = step_table(secret, model.csr.label_letters, "secret").tolist()
    state_label = model.csr.state_label.tolist()  # -1 on the frame states

    by_source: dict[int, list[tuple[InputLetter, int, ObsSymbol]]] = {}
    for (s, letter), (t, out) in fst.transitions.items():
        by_source.setdefault(s, []).append((letter, t, out))
    for rows in by_source.values():
        rows.sort()

    start = (model.top, secret.initial)
    index: dict[tuple[int, int], int] = {start: 0}
    pairs: list[tuple[int, int]] = [start]
    transitions: dict[tuple[int, InputLetter], tuple[int, ObsSymbol]] = {}
    frontier = deque([start])
    while frontier:
        pair = frontier.popleft()
        s, q = pair
        if s == model.bot:
            continue  # terminating pairs are sinks
        for letter, t, out in by_source.get(s, ()):
            _s, a, _t = letter
            if a == model.a_bot:
                q2 = q
            elif state_label[t] >= 0:
                q2 = secret_step[q][state_label[t]]
            else:
                model.label_of(t)  # a frame state has no label: raises ModelError
            nxt = (t, q2)
            if nxt not in index:
                index[nxt] = len(pairs)
                pairs.append(nxt)
                frontier.append(nxt)
            transitions[(index[pair], letter)] = (index[nxt], out)

    accept_sat = frozenset(
        i for i, (s, q) in enumerate(pairs) if s == model.bot and q in secret.accepting
    )
    accept_vio = frozenset(
        i
        for i, (s, q) in enumerate(pairs)
        if s == model.bot and q not in secret.accepting
    )
    return ProductFst(
        model=model,
        secret=secret,
        pairs=tuple(pairs),
        index=index,
        transitions=transitions,
        initial=0,
        accept_sat=accept_sat,
        accept_vio=accept_vio,
    )


def _erase_inputs(pf: ProductFst, accepting: frozenset[int]) -> tuple[Nfa, dict[int, int]]:
    """The transducer's outputs as an NFA accepting in ``accepting``, kept
    to the states that can reach it; also the map from transducer state to
    NFA state.  States that cannot reach ``accepting`` accept nothing and
    only blow up a later subset construction."""
    predecessors: dict[int, set[int]] = {}
    for (src, _letter), (dst, _out) in pf.transitions.items():
        predecessors.setdefault(dst, set()).add(src)
    alive = set(accepting)
    frontier = list(accepting)
    while frontier:
        state = frontier.pop()
        for prev in predecessors.get(state, ()):
            if prev not in alive:
                alive.add(prev)
                frontier.append(prev)

    keep = sorted(alive)
    renum = {old: new for new, old in enumerate(keep)}
    transitions: dict[tuple[int, ObsSymbol], set[int]] = {}
    for (src, _letter), (dst, out) in pf.transitions.items():
        if src in alive and dst in alive:
            transitions.setdefault((renum[src], out), set()).add(renum[dst])
    nfa = Nfa(
        alphabet=sort_alphabet(pf.model.observation_alphabet()),
        transitions={k: frozenset(v) for k, v in transitions.items()},
        initials=frozenset(
            (renum[pf.initial],) if pf.initial in alive else ()
        ),
        accepting=frozenset(renum[s] for s in accepting),
        state_names=tuple(pf.state_name(i) for i in keep),
    )
    return nfa, renum


def output_nfa(pf: ProductFst, which: str) -> Nfa:
    """Erase inputs and read the emitted observation symbols instead.

    ``which`` selects the accepting set: "satisfying" keeps runs whose
    play satisfies the secret, "violating" the complement.  The result has
    no epsilon moves because the transducer is letter-to-letter, and keeps
    only the states that can reach the chosen accepting set.
    """
    if which not in ("satisfying", "violating"):
        raise ValueError("which must be 'satisfying' or 'violating'")
    return _erase_inputs(pf, pf.accept_sat if which == "satisfying" else pf.accept_vio)[0]


@dataclass(frozen=True)
class OpaqueBuild:
    """The opaque-observations DFA plus size/timing diagnostics:
    ``nfa_states`` counts the transducer states that reach either
    accepting set, ``dfa_states`` the observer's subsets before
    minimization."""

    dfa: Dfa
    nfa_states: int
    dfa_states: int
    minimized_states: int
    seconds: float


def opaque_pipeline(model: Model, secret: Dfa) -> OpaqueBuild:
    """Construct the DFA of opaque observations: the observer of the
    product transducer's outputs, minimized.

    The output NFA keeps the transducer states that reach either
    accepting set; its subset construction accepts the subsets that hold
    both a satisfying and a violating terminal state.  The subset
    construction is complete by construction and minimization keeps it
    so.
    """
    t0 = time.monotonic()
    pf = product_fst(build_obs_fst(model), secret)
    nfa, renum = _erase_inputs(pf, pf.accept_sat | pf.accept_vio)
    sat = frozenset(renum[s] for s in pf.accept_sat)
    vio = nfa.accepting - sat
    subsets = subset_construction(
        nfa, lambda subset: not sat.isdisjoint(subset) and not vio.isdisjoint(subset)
    )
    opaque = minimize(subsets)
    return OpaqueBuild(
        dfa=opaque,
        nfa_states=nfa.n_states,
        dfa_states=subsets.n_states,
        minimized_states=opaque.n_states,
        seconds=time.monotonic() - t0,
    )


def opaque_obs_dfa(model: Model, secret: Dfa) -> Dfa:
    """Minimized complete DFA accepting exactly the opaque observations."""
    return opaque_pipeline(model, secret).dfa
