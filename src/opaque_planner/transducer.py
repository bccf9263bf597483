"""From the observation function to the opaque-observations DFA.

The observation function is encoded as a letter-to-letter transducer whose
inputs are the model's transitions and whose outputs are observation
symbols.  Pairing it with the secret DFA yields a product transducer with
two accepting sets: runs ending with the secret satisfied, and runs ending
with it violated.  Erasing inputs turns those into two NFAs over
observation words; an observation is opaque exactly when both accept it,
so the intersection, determinized and minimized, accepts the opaque
observations and nothing else.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .automata import (
    Dfa,
    Nfa,
    determinize,
    intersect,
    minimize,
    require_complete,
    sort_alphabet,
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

    def run_on_play(self, play: Play) -> tuple[ObsSymbol, ...]:
        self.model.check_play(play)
        return self.run_on_inputs(play_inputs(self.model, play))


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
    entered; the start and end markers leave it untouched.  Only the pairs
    reachable from (initiating state, initial secret state) are kept.
    """
    model = fst.model
    require_complete(secret, model.label_alphabet(), "secret")

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
            else:
                q2 = secret.step(q, model.label_of(t))
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


def output_nfa(pf: ProductFst, which: str) -> Nfa:
    """Erase inputs and read the emitted observation symbols instead.

    ``which`` selects the accepting set: "satisfying" keeps runs whose
    play satisfies the secret, "violating" the complement.  The result has
    no epsilon moves because the transducer is letter-to-letter.  States
    that cannot reach the chosen accepting set are dropped; they accept
    nothing and only blow up the later subset construction.
    """
    if which not in ("satisfying", "violating"):
        raise ValueError("which must be 'satisfying' or 'violating'")
    accepting = pf.accept_sat if which == "satisfying" else pf.accept_vio

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
    return Nfa(
        alphabet=sort_alphabet(pf.model.observation_alphabet()),
        transitions={k: frozenset(v) for k, v in transitions.items()},
        initials=frozenset(
            (renum[pf.initial],) if pf.initial in alive else ()
        ),
        accepting=frozenset(renum[s] for s in accepting),
        state_names=tuple(pf.state_name(i) for i in keep),
    )


@dataclass(frozen=True)
class OpaqueBuild:
    """The opaque-observations DFA plus size/timing diagnostics:
    ``nfa_states`` counts the intersected NFA, ``dfa_states`` its subset
    construction before minimization."""

    dfa: Dfa
    nfa_states: int
    dfa_states: int
    minimized_states: int
    seconds: float


def opaque_pipeline(model: Model, secret: Dfa) -> OpaqueBuild:
    """Construct the DFA of opaque observations: intersect the two output
    NFAs, then determinize once and minimize.  The subset construction
    is complete by construction and minimization keeps it so."""
    t0 = time.monotonic()
    pf = product_fst(build_obs_fst(model), secret)
    joint = intersect(output_nfa(pf, "satisfying"), output_nfa(pf, "violating"))
    both = determinize(joint)
    opaque = minimize(both)
    return OpaqueBuild(
        dfa=opaque,
        nfa_states=joint.n_states,
        dfa_states=both.n_states,
        minimized_states=opaque.n_states,
        seconds=time.monotonic() - t0,
    )


def opaque_obs_dfa(model: Model, secret: Dfa) -> Dfa:
    """Minimized complete DFA accepting exactly the opaque observations."""
    return opaque_pipeline(model, secret).dfa
