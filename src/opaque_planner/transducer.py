"""From the observation function to the opaque-observations DFA.

The observation function is a letter-to-letter transducer whose inputs are
the model's transitions and whose outputs are observation symbols.
Pairing it with the secret DFA, by the level search that also builds the
product MDP (``planner._product_search``), yields a product transducer, a
``planner.Product`` with two accepting sets: runs ending with the secret
satisfied, and runs ending with it violated.  An observation is opaque
exactly when a satisfying and a violating run both emit it.  Erasing
inputs turns the transducer into an NFA over observation words.  Its
subset construction (the observer, or current-state estimator) reaches on
each word the set of transducer states that runs emitting the word can be
in; accepting the subsets that hold both a satisfying and a violating
terminal state, then minimizing, gives the DFA of the opaque observations
and nothing else.

The observer works on arrays from start to finish: the erased NFA's moves
read their letters as ``Model.entry_obs`` ids, indices into
``observation_alphabet()``, and the subset table goes straight to
``automata.minimize_table``, which writes the minimized DFA's table over
the same letter ids, so the observer keys nothing by observation symbols.
:func:`output_nfa` wraps the same arrays, for one accepting set, as the
``Nfa`` of the paper's route (``automata.intersect`` of the satisfying and
violating NFAs, then ``automata.determinize``), which the tests check the
observer against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .automata import Dfa, Nfa, meets, minimize_table, subset_construction
from .model import Model, ObsSymbol
from .planner import Product, _label_table, _product_search, _reached

InputLetter = tuple[int, int, int]  # (state, action, successor) indices


@dataclass(frozen=True, eq=False)
class Fst:
    """Deterministic transducer reading transitions, emitting observations.

    There is exactly one transition per positive-probability model
    transition; the input (s, a, s') leaves state s and enters state s',
    emitting the start marker from the initiating state, the end marker on
    termination, and the transition's observation symbol otherwise.
    ``transitions`` is a read-only view of the model, built on first
    access; it raises ``ModelError`` on a transition with no observation.
    """

    model: Model

    @cached_property
    def transitions(self) -> Mapping[tuple[int, InputLetter], tuple[int, ObsSymbol]]:
        model = self.model
        return MappingProxyType(
            {
                (s, (s, a, t)): (t, model.obs(s, a, t))
                for (s, a), dist in model.transitions.items()
                if s != model.bot
                for t, _p in dist
            }
        )


def build_obs_fst(model: Model) -> Fst:
    """Encode the observation function as a transducer.

    Self-loops at the terminating state are omitted: no play continues
    past it, so they never produce output.
    """
    return Fst(model=model)


@dataclass(frozen=True, eq=False)
class ProductFst(Product):
    """The observation transducer paired with the secret DFA.

    State ``i`` is the pair ``components[i]`` = (model state, secret
    state), and entry ``e`` reads the model entry ``entry_model[e]``,
    which gives its input letter and its output.  Both
    accepting sets live on the terminating state: ``accept_sat`` holds the
    runs whose labeled play satisfies the secret, ``accept_vio`` the ones
    violating it.  ``transitions`` is a read-only view, built on first
    access.
    """

    secret: Dfa
    accept_sat: frozenset[int]
    accept_vio: frozenset[int]
    entry_model: np.ndarray

    @cached_property
    def transitions(self) -> Mapping[tuple[int, InputLetter], tuple[int, ObsSymbol]]:
        """(state, (s, a, s')) -> (successor, output)."""
        letters = self.model.observation_alphabet()
        s, t = self.components[self.entry_state, 0], self.components[self.entry_succ, 0]
        a = self.entry_action.tolist()
        inputs = zip(self.entry_state.tolist(), zip(s.tolist(), a, t.tolist()))
        out = [letters[o] for o in self.model.entry_obs[self.entry_model].tolist()]
        return MappingProxyType(dict(zip(inputs, zip(self.entry_succ.tolist(), out))))

    def state_name(self, idx: int) -> str:
        s, q = self.components[idx].tolist()
        return f"({self.model.states[s]},{self.secret.state_names[q]})"


def product_fst(fst: Fst, secret: Dfa) -> ProductFst:
    """Synchronize the transducer with the secret DFA, keeping the pairs
    reachable from (initiating state, initial secret state), by the product
    MDP's search, ``planner._product_search``: the secret reads the label
    of each interior state entered, and stopping leaves it untouched.  A
    reachable transition with no observation, or one into a frame state,
    raises ``ModelError``."""
    model = fst.model
    secret_step = _label_table(secret, model, "secret")
    s, q, entry_model, rows = _product_search(
        model, secret.n_states, secret.initial, lambda c, v, label, _obs: secret_step[c[v], label]
    )
    terminal, accepts = s == model.bot, np.isin(q, list(secret.accepting))
    return ProductFst(
        model=model,
        secret=secret,
        accept_sat=frozenset(np.flatnonzero(terminal & accepts).tolist()),
        accept_vio=frozenset(np.flatnonzero(terminal & ~accepts).tolist()),
        components=np.column_stack((s, q)),
        entry_model=entry_model,
        **rows,
    )


def _erase_inputs(pf: ProductFst, accepting: frozenset[int]) -> tuple[np.ndarray, ...]:
    """The transducer's outputs as an NFA accepting in ``accepting``, kept
    to the states that can reach it, as arrays: the transducer state of
    each NFA state (``kept``), the moves' sources, letter ids (the
    ``Model.entry_obs`` ids, indices into ``observation_alphabet()``)
    and targets, the initial states and the accepting ones.  States that
    cannot reach ``accepting`` accept nothing and only blow up a later
    subset construction."""
    src, dst = pf.entry_state, pf.entry_succ
    targets = np.array(sorted(accepting), dtype=np.int64)
    alive = _reached(dst, src, targets, pf.n_states)  # the states that reach ``targets``
    renum = np.cumsum(alive) - 1
    live = alive[src] & alive[dst]
    kept = np.flatnonzero(alive)
    return (
        kept,
        renum[src[live]],
        pf.model.entry_obs[pf.entry_model[live]],
        renum[dst[live]],
        np.flatnonzero(kept == pf.initial),
        renum[targets],
    )


def output_nfa(pf: ProductFst, which: str) -> Nfa:
    """Erase inputs and read the emitted observation symbols instead.

    ``which`` selects the accepting set: "satisfying" keeps runs whose
    play satisfies the secret, "violating" the complement.  The result has
    no epsilon moves because the transducer is letter-to-letter, and keeps
    only the states that can reach the chosen accepting set.
    """
    if which not in ("satisfying", "violating"):
        raise ValueError("which must be 'satisfying' or 'violating'")
    accepting = pf.accept_sat if which == "satisfying" else pf.accept_vio
    kept, src, letter, dst, initials, accepts = _erase_inputs(pf, accepting)
    return Nfa(
        alphabet=pf.model.observation_alphabet(),
        src=src,
        letter=letter,
        dst=dst,
        initials=frozenset(initials.tolist()),
        accepting=frozenset(accepts.tolist()),
        state_names=tuple(pf.state_name(i) for i in kept.tolist()),
    )


def _observer(pf: ProductFst) -> tuple[np.ndarray, ...]:
    """The observer of the product transducer's outputs, kept to the
    states that reach either accepting set: the transducer state of each
    NFA state, the :func:`subset_construction` table over the letter ids
    of ``observation_alphabet()``, the mask of the subsets that hold both
    a satisfying and a violating terminal state, and the subsets' members
    as CSR (``member_ptr``, ``members``)."""
    kept, src, letter, dst, initials, _ = _erase_inputs(pf, pf.accept_sat | pf.accept_vio)
    n_letters = len(pf.model.observation_alphabet())
    table, member_ptr, members = subset_construction(
        len(kept), n_letters, src, letter, dst, initials
    )
    sat, vio = (np.isin(kept, sorted(accepting)) for accepting in (pf.accept_sat, pf.accept_vio))
    accepts = meets(member_ptr, members, sat) & meets(member_ptr, members, vio)
    return kept, table, accepts, member_ptr, members


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
    both a satisfying and a violating terminal state (:func:`_observer`).
    The subset table is complete by construction, goes to the Moore core
    as it is, and minimization keeps it complete.
    """
    t0 = time.monotonic()
    kept, table, accepts, _, _ = _observer(product_fst(build_obs_fst(model), secret))
    opaque = minimize_table(table, accepts, model.observation_alphabet())
    return OpaqueBuild(
        dfa=opaque,
        nfa_states=len(kept),
        dfa_states=len(table),
        minimized_states=opaque.n_states,
        seconds=time.monotonic() - t0,
    )


def opaque_obs_dfa(model: Model, secret: Dfa) -> Dfa:
    """Minimized complete DFA accepting exactly the opaque observations."""
    return opaque_pipeline(model, secret).dfa
