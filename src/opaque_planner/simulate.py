"""Monte-Carlo rollouts, exact policy evaluation and the exhaustive
opacity oracle used to cross-check the automaton pipeline.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from itertools import count
from math import sqrt
from typing import Iterator

import numpy as np

from . import planner
from .automata import Dfa
from .model import PROB_TOL, Model, ObsSymbol, Play, _coalesce, obs_of_play
from .planner import ProductMdp, _flow_matrix, _reached

log = logging.getLogger(__name__)

ENUMERATION_BUDGET = 10_000_000
# The most steps a rollout run may take.  ``rollout`` samples only
# policies that stop with probability 1, so this bounds the wait on one
# that stops very slowly; no run is ever cut short.
STEP_BUDGET = 1_000_000


class SimulationError(ValueError):
    pass


class EnumerationBudgetError(SimulationError):
    pass


@dataclass
class RolloutStats:
    """Counters over a batch of seeded runs plus derived estimates.

    Every run is sampled until it is absorbed, so each one is either
    opaque or transparent.
    """

    runs: int
    opaque: int
    transparent: int
    task_satisfied: int
    steps: int  # sampled steps, summed over the runs

    @property
    def horizon_truncated(self) -> int:
        """Always 0, as no run is cut short.  Kept read-only because the
        benchmark worker's traced pass (``perfbench/worker.py``) reads it as
        ``simulate.truncated_runs``; it goes with the next benchmark change."""
        return 0

    @property
    def ph(self) -> float:
        return self.opaque / self.runs

    @property
    def pt(self) -> float:
        return self.transparent / self.runs

    @property
    def p_task(self) -> float:
        return self.task_satisfied / self.runs

    @property
    def mean_steps(self) -> float:
        return self.steps / self.runs

    def stderr(self, p: float) -> float:
        return sqrt(max(p * (1.0 - p), 0.0) / self.runs)

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "opaque": self.opaque,
            "transparent": self.transparent,
            "task_satisfied": self.task_satisfied,
            "steps": self.steps,
            "mean_steps": self.mean_steps,
            "ph": self.ph,
            "pt": self.pt,
            "p_task": self.p_task,
            "se_ph": self.stderr(self.ph),
            "se_pt": self.stderr(self.pt),
            "se_task": self.stderr(self.p_task),
        }


def _table(flat: np.ndarray, widths: np.ndarray, fill, dtype) -> np.ndarray:
    """Rows of ``widths[r]`` consecutive entries of ``flat``, padded with
    ``fill`` into a dense table."""
    table = np.full((len(widths), max(int(widths.max(initial=0)), 1)), fill, dtype)
    table[np.arange(table.shape[1]) < widths[:, None]] = flat
    return table


def _cumulative(flat: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums, with each row's last real entry and its
    padding set to +inf; transposed, one column per row."""
    cum = np.cumsum(_table(flat, widths, 0.0, np.float64), axis=1)
    cum[np.arange(cum.shape[1]) >= widths[:, None] - 1] = np.inf
    return np.ascontiguousarray(cum.T)


def _kernel(pm: ProductMdp, policy: np.ndarray):
    """Check a policy (``_reachable_transient``) and compile the Markov
    chain it induces on the product states into dense sampling tables.

    Per state, a column of cumulative successor probabilities, and a row
    of successor ids, in increasing order.  A successor's probability is
    the sum of ``policy[row] * entry_prob[e]`` over the state's rows the
    policy takes and their entries into it, added in row then entry
    order.  The last real cumulative entry of each column is +inf, so
    ``_index`` never picks past the state's last successor.  States the
    policy never reaches have no successors.
    """
    n = pm.n_states
    _, src, dst, prob = _reachable_transient(pm, policy)
    pair, p = _coalesce(src * n + dst, prob)
    src, dst = np.divmod(pair, n)
    width = np.bincount(src, minlength=n)
    return _cumulative(p, width), _table(dst, width, 0, np.intp)


def _index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column, the number of cumulative probabilities at most ``u``.
    On a ``_cumulative`` table this is ``searchsorted(side="right")`` on
    the real entries, clipped to them: a draw at or above the total,
    which rounding can leave just under 1, picks the last entry."""
    return (cum <= u).sum(axis=0)


def _integer(value, name: str) -> int:
    """``value`` as a plain ``int``; ``SimulationError`` unless it is an
    integer other than a bool."""
    if isinstance(value, (bool, np.bool_)):
        raise SimulationError(f"{name} must be an integer, not {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise SimulationError(f"{name} must be an integer, not {value!r}") from None


def rollout(pm: ProductMdp, policy: np.ndarray, runs: int, seed: int) -> RolloutStats:
    """Sample ``runs`` independent plays of the policy, one probability per
    product row, each until it is absorbed.

    ``runs`` and ``seed`` must be integers (not bools), ``runs`` positive
    and ``seed`` in [0, 2**128), or ``SimulationError`` is raised.  The
    policy is checked first, as for ``exact_policy_values``: a policy that
    is not a distribution over each state's actions, or that reaches a
    state it never stops from, raises ``SimulationError``.  So does a run
    still going after ``STEP_BUDGET`` steps; no run is cut short.

    Every draw comes from one stream, ``np.random.Generator(np.random
    .Philox(key=seed))``.  The runs' statistics depend only on the product
    states they pass through, so a run steps the Markov chain the policy
    induces on them (``_kernel``) and never draws an action.  The runs are
    stepped together: at each step, the runs not yet absorbed draw one
    double each, in increasing run id, and each moves to the first
    successor whose cumulative probability is above its draw.  Which run
    takes a draw is fixed by the draws before it, so the runs are
    independent and the statistics depend on (seed, runs) alone.  At INFO,
    one log line gives the runs, loop steps and draws.
    """
    runs, seed = _integer(runs, "runs"), _integer(seed, "seed")
    if runs < 1:
        raise SimulationError("runs must be positive")
    if not 0 <= seed < 2**128:
        raise SimulationError("seed must be in [0, 2**128)")
    cum, succ = _kernel(pm, policy)
    absorbing = pm.absorbing_mask
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = np.full(runs, pm.initial)  # the product states of the runs still going, by run id
    ended = []  # the states the runs were absorbed in
    steps = 0
    for t in count():
        done = absorbing[x]
        if done.any():
            ended.append(x[done])
            x = x[~done]
        if not x.size:
            break
        if t == STEP_BUDGET:
            raise SimulationError(
                f"{x.size} of {runs} runs have not stopped after {STEP_BUDGET} steps"
            )
        j = _index(cum.take(x, axis=1), rng.random(x.size))
        x = succ.take(x * succ.shape[1] + j)
        steps += x.size
    log.info("rollout: %d runs, %d loop steps, %d draws", runs, t, steps)
    counts = np.bincount(np.concatenate(ended), minlength=pm.n_states)
    opaque = int(counts[pm.opaque_accepts].sum())
    return RolloutStats(
        runs=runs,
        opaque=opaque,
        transparent=runs - opaque,
        task_satisfied=int(counts[pm.task_accepts].sum()),
        steps=steps,
    )


def _reachable_transient(pm: ProductMdp, policy) -> tuple[np.ndarray, ...]:
    """Check a policy; return the non-absorbing product states it reaches
    from the initial one, in increasing order, and the edges of the chain
    it induces out of them: per taken row and entry, in row then entry
    order, the source state, the successor and the probability
    ``policy[row] * entry_prob[e]``.

    Raises ``SimulationError`` unless the policy converts to float64 and
    has one probability per product row, and gives each non-absorbing
    state a distribution over its actions: finite, non-negative
    probabilities summing to 1 within ``PROB_TOL``.  Raises it too, naming
    a reached state from which the policy can never reach an absorbing
    state, if there is one: a finite Markov chain stops with probability 1
    exactly when there is none.
    """
    n = pm.n_states
    try:
        policy = np.asarray(policy, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise SimulationError(f"policy is not an array of probabilities: {err}") from None
    if policy.shape != pm.row_action.shape:
        raise SimulationError(
            f"policy has shape {policy.shape}, not one probability for each of "
            f"the {len(pm.row_action)} product rows"
        )
    # a probability that is negative, infinite or NaN makes its state's sum NaN
    fit = (policy >= 0.0) & (policy < np.inf)
    total = np.bincount(pm.row_state, weights=np.where(fit, policy, np.nan), minlength=n)
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= PROB_TOL) & ~pm.absorbing_mask)
    if bad.size:
        v = bad[0]
        raise SimulationError(
            f"policy at product state {pm.state_name(v)!r} is not a probability "
            f"distribution: {policy[pm.row_ptr[v] : pm.row_ptr[v + 1]].tolist()}"
        )
    taken = np.flatnonzero(policy != 0.0)
    e, move = pm.entries(taken)
    src, dst = pm.row_state[taken][move], pm.entry_succ[e]
    reached = _reached(src, dst, [pm.initial], n)
    transient = reached & ~pm.absorbing_mask
    # back from every absorbing state along the moves out of reached states
    kept = reached[src]
    src, dst, e, move = src[kept], dst[kept], e[kept], move[kept]
    stopping = _reached(dst, src, np.flatnonzero(pm.absorbing_mask), n)
    trapped = np.flatnonzero(transient & ~stopping)
    if trapped.size:
        raise SimulationError(
            f"policy never stops from product state {pm.state_name(trapped[0])!r}, "
            f"which it reaches"
        )
    return np.flatnonzero(transient), src, dst, policy[taken][move] * pm.entry_prob[e]


def exact_policy_values(pm: ProductMdp, policy: np.ndarray) -> dict[str, float]:
    """Exact opacity/transparency/task probabilities of a fixed policy, one
    probability per product row, from the linear occupancy equations (an
    independent check on both the LP and the sampler): each is the mass
    absorbed in product states with that outcome.

    The equations are posed on the non-absorbing states the policy
    reaches; they have a unique solution because the policy is first
    checked, as for ``rollout``, to stop with probability 1 (else
    ``SimulationError``).
    """
    states, src, t, p = _reachable_transient(pm, policy)
    m = len(states)
    row_of = np.zeros(pm.n_states, dtype=np.int64)
    row_of[states] = np.arange(m)
    i = row_of[src]
    stop = pm.absorbing_mask[t]
    flow = ~stop  # each state's entries into non-absorbing states
    ptr, row, value = _flow_matrix(np.arange(m), i[flow], row_of[t[flow]], p[flow])
    nu = np.zeros(m)
    nu[row_of[pm.initial]] = 1.0
    if planner.superlu is None:
        raise SimulationError("exact evaluation needs scipy's SuperLU extension, " + planner.SUPERLU)
    try:
        x = planner._splu(ptr, row, value).solve(nu)
    except RuntimeError:  # SuperLU's "Factor is exactly singular"
        raise SimulationError("the occupancy equations are singular") from None
    # the mass of each stopping step, summed in step order by outcome
    mass = x[i[stop]] * p[stop]
    t = t[stop]
    ph, pt = np.bincount(~pm.opaque_accepts[t], weights=mass, minlength=2)
    task = np.bincount(pm.task_accepts[t], weights=mass, minlength=2)[1]
    return {"ph": float(ph), "pt": float(pt), "task": float(task)}


# ---------------------------------------------------------------------------
# the exhaustive oracle


def enumerate_plays(model: Model, max_actions: int) -> Iterator[Play]:
    """Yield every play with at most ``max_actions`` interior actions,
    depth first, each play before its extensions; a negative bound raises
    :class:`SimulationError`, and more than :data:`ENUMERATION_BUDGET`
    plays, estimated or enumerated, :class:`EnumerationBudgetError`."""
    if max_actions < 0:
        raise SimulationError(f"max_actions must be nonnegative, got {max_actions}")
    branching = 1
    for s in model.interior_state_indices():
        width = sum(
            len(model.successors(s, a))
            for a in model.enabled(s)
            if a != model.a_bot
        )
        branching = max(branching, width)
    budget = ENUMERATION_BUDGET
    if branching ** max_actions > budget:
        raise EnumerationBudgetError(
            f"estimated {branching}^{max_actions} interior paths exceeds the "
            f"{budget} budget"
        )
    s_top, s_bot = model.states[model.top], model.states[model.bot]
    a_top, a_bot = model.actions[model.a_top], model.actions[model.a_bot]
    # (state, play so far, interior actions used), the next play on top
    stack = [(s0, [s_top, a_top, model.states[s0]], 0) for s0, _p in model.initial_dist()][::-1]
    produced = 0
    while stack:
        state, prefix, used = stack.pop()
        produced += 1
        if produced > budget:
            raise EnumerationBudgetError(f"more than {budget} plays enumerated")
        yield Play.from_linear(prefix + [a_bot, s_bot])
        if used < max_actions:
            interior = [a for a in model.enabled(state) if a != model.a_bot]
            steps = [(a, t) for a in interior for t, _p in model.successors(state, a)][::-1]
            stack += [(t, prefix + [model.actions[a], model.states[t]], used + 1) for a, t in steps]


def observation_buckets(
    model: Model, secret: Dfa, max_actions: int
) -> dict[tuple[ObsSymbol, ...], tuple[bool, bool]]:
    """Group every play (within the bound) by its observation word.

    For each word record whether some play satisfies the secret and
    whether some play violates it.  The secret DFA reads the interior
    label word, exactly as the product construction feeds it.
    """
    buckets: dict[tuple[ObsSymbol, ...], list[bool]] = {}
    for play in enumerate_plays(model, max_actions):
        word = obs_of_play(model, play)
        labels = [
            model.label_of(model.state_index[s]) for s in play.interior_states
        ]
        sat = secret.accepts(labels)
        entry = buckets.setdefault(word, [False, False])
        entry[0] = entry[0] or sat
        entry[1] = entry[1] or not sat
    return {w: (s, v) for w, (s, v) in buckets.items()}
