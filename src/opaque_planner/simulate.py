"""Monte-Carlo rollouts, play classification, exact policy evaluation and
the exhaustive opacity oracle used to cross-check the automaton pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import sqrt
from typing import Iterator

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from .automata import Dfa
from .model import PROB_TOL, Model, ObsSymbol, Play, obs_of_play
from .planner import ProductMdp, _flow_matrix, _graph, _reaching

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


# Steps of draws fetched by the first refill of a run's buffer.  Each
# later refill fetches as many steps as have passed, up to
# ``8 * _CHUNK_STEPS``: short runs waste few draws, and long ones re-seed
# rarely.  A Philox block holds four doubles, two steps' worth, so an even
# value starts every refill on a block boundary; any even value gives the
# same statistics.
_CHUNK_STEPS = 32


def _table(flat: np.ndarray, widths: np.ndarray, fill, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``widths[r]`` consecutive entries of ``flat``, padded with
    ``fill`` into a dense table; also the mask of real entries."""
    w = np.array(widths, dtype=np.intp)
    table = np.full((len(w), max(int(w.max(initial=0)), 1)), fill, dtype)
    real = np.arange(table.shape[1]) < w[:, None]
    table[real] = flat
    return table, real


def _cumulative(flat: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums, padded with +inf."""
    table, real = _table(flat, widths, 0.0, np.float64)
    cum = np.cumsum(table, axis=1)
    cum[~real] = np.inf
    return cum


def _kernel(pm: ProductMdp, policy: np.ndarray):
    """Compile a policy into dense sampling tables over the product rows.

    Per state: cumulative action probabilities (actions in increasing
    order), the number of actions, and its first row.  Per row: cumulative
    successor probabilities, successor ids and the number of successors.
    """
    act_width = np.diff(pm.row_ptr)
    succ_width = np.diff(pm.entry_ptr)
    return (
        _cumulative(policy, act_width),
        act_width,
        pm.row_ptr[:-1],
        _cumulative(pm.entry_prob, succ_width),
        _table(pm.entry_succ, succ_width, 0, np.intp)[0],
        succ_width,
    )


def _index(cum: np.ndarray, width: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the number of cumulative probabilities at most ``u``,
    clipped to the row: ``searchsorted(side="right").clip(0, width - 1)``."""
    return np.minimum((cum <= u[:, None]).sum(axis=1), width - 1)


def _draws(bitgen: np.random.Philox, runs: np.ndarray, block: int, n: int) -> np.ndarray:
    """``n`` doubles of each listed run's stream, from Philox block
    ``block`` on: run i's stream is the generator of ``seed`` jumped i
    times, whose counter is (block, 0, i, 0)."""
    state = bitgen.state
    counter = state["state"]["counter"]
    counter[0] = block
    state["buffer_pos"] = len(state["buffer"])  # the next draw starts a block
    out = np.empty((len(runs), n))
    for row, i in zip(out, runs.tolist()):
        counter[2] = i
        bitgen.state = state
        # the conversion of Generator.random: the top 53 bits, scaled
        row[:] = bitgen.random_raw(n) >> 11
    out *= 2.0**-53
    return out


def rollout(pm: ProductMdp, policy: np.ndarray, runs: int, seed: int) -> RolloutStats:
    """Sample ``runs`` independent plays of the policy, one probability per
    product row, each until it is absorbed.

    The policy is checked first, as for ``exact_policy_values``: a policy
    that is not a distribution over each state's actions, or that reaches
    a state it never stops from, raises ``SimulationError``.  So does a run
    still going after ``STEP_BUDGET`` steps; no run is cut short.

    Run ``i`` reads its own counter-based substream: the Philox stream of
    ``seed`` jumped ``i`` times, ``np.random.Generator(Philox(key=seed)
    .jumped(i)).random()``.  Each step takes two draws, the first picking
    the action and the second the successor, each as the first entry of
    the cumulative distribution above the draw.  The runs are stepped
    together, but each reads only its own stream, so the statistics depend
    on (seed, runs) alone and never on how the draws are batched.
    """
    if runs < 1:
        raise SimulationError("runs must be positive")
    if not 0 <= seed < 2**128:
        raise SimulationError("seed must be in [0, 2**128)")
    _reachable_transient(pm, policy)
    act_cum, act_width, first_row, succ_cum, succ_id, succ_width = _kernel(pm, policy)
    absorbing = pm.absorbing_mask
    bitgen = np.random.Philox(key=seed)
    live = np.arange(runs)  # ids of the runs still going
    x = np.full(runs, pm.initial)  # their product states
    slot = live  # their rows of the draw buffer
    final = np.empty(runs, dtype=np.intp)
    steps = 0
    refill = 0  # the step at which the buffer runs out
    for t in count():
        done = absorbing[x]
        if done.any():
            final[live[done]] = x[done]
            going = ~done
            live, x, slot = live[going], x[going], slot[going]
        if not live.size:
            break
        if t == STEP_BUDGET:
            raise SimulationError(
                f"{live.size} of {runs} runs have not stopped after {STEP_BUDGET} steps"
            )
        if t == refill:
            n = min(max(t, _CHUNK_STEPS), 8 * _CHUNK_STEPS)
            buf = _draws(bitgen, live, t // 2, 2 * n)
            slot = np.arange(live.size)
            filled, refill = t, t + n
        c = t - filled
        k = _index(act_cum[x], act_width[x], buf[slot, 2 * c])
        row = first_row[x] + k
        j = _index(succ_cum[row], succ_width[row], buf[slot, 2 * c + 1])
        x = succ_id[row, j]
        steps += live.size
    counts = np.bincount(final, minlength=pm.n_states)
    opaque = int(counts[pm.opaque_accepts].sum())
    return RolloutStats(
        runs=runs,
        opaque=opaque,
        transparent=runs - opaque,
        task_satisfied=int(counts[pm.task_accepts].sum()),
        steps=steps,
    )


def uniform_policy(pm: ProductMdp) -> np.ndarray:
    """Uniform over the enabled actions at every non-absorbing state: each
    row has probability one over its state's number of rows."""
    return 1.0 / np.diff(pm.row_ptr)[pm.row_state]


def _reachable_transient(pm: ProductMdp, policy: np.ndarray) -> np.ndarray:
    """Check a policy; return the non-absorbing product states it reaches
    from the initial one, in increasing order.

    Raises ``SimulationError`` unless the policy has one probability per
    product row and gives each non-absorbing state a distribution over its
    actions: finite, non-negative probabilities summing to 1 within
    ``PROB_TOL``.  Raises it too, naming a reached state from which the
    policy can never reach an absorbing state, if there is one: a finite
    Markov chain stops with probability 1 exactly when there is none.
    """
    n = pm.n_states
    if np.shape(policy) != pm.row_action.shape:
        raise SimulationError(
            f"policy has shape {np.shape(policy)}, not one probability for each of "
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
    reached = np.zeros(n, dtype=bool)
    reached[breadth_first_order(_graph(src, dst, n), pm.initial, return_predecessors=False)] = True
    transient = reached & ~pm.absorbing_mask
    # back from every absorbing state along the moves out of reached states
    kept = reached[src]
    stopping = _reaching(src[kept], dst[kept], np.flatnonzero(pm.absorbing_mask), n)
    trapped = np.flatnonzero(transient & ~stopping)
    if trapped.size:
        raise SimulationError(
            f"policy never stops from product state {pm.state_name(trapped[0])!r}, "
            f"which it reaches"
        )
    return np.flatnonzero(transient)


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
    states = _reachable_transient(pm, policy)
    rows = np.flatnonzero(np.isin(pm.row_state, states) & (policy != 0.0))
    state, prob = pm.row_state[rows], policy[rows]
    m = len(states)
    row_of = np.zeros(pm.n_states, dtype=np.int64)
    row_of[states] = np.arange(m)
    e, move = pm.entries(rows)
    t = pm.entry_succ[e]
    p = prob[move] * pm.entry_prob[e]
    i = row_of[state[move]]
    stop = pm.absorbing_mask[t]
    flow = ~stop  # each state's entries into non-absorbing states
    matrix = _flow_matrix(np.arange(m), i[flow], row_of[t[flow]], p[flow], m).tocsc()
    nu = np.zeros(m)
    nu[row_of[pm.initial]] = 1.0
    x = spla.spsolve(matrix, nu)
    # the mass of each stopping step, summed in step order by outcome
    mass = x[i[stop]] * p[stop]
    t = t[stop]
    ph, pt = np.bincount(~pm.opaque_accepts[t], weights=mass, minlength=2)
    task = np.bincount(pm.task_accepts[t], weights=mass, minlength=2)[1]
    return {"ph": float(ph), "pt": float(pt), "task": float(task)}


# ---------------------------------------------------------------------------
# classification and the exhaustive oracle


def classify_play(model: Model, play: Play, opaque: Dfa) -> str:
    """Return "opaque" or "transparent" for a terminated play."""
    word = obs_of_play(model, play)
    return "opaque" if opaque.accepts(word) else "transparent"


def enumerate_plays(
    model: Model, max_actions: int, budget: int = ENUMERATION_BUDGET
) -> Iterator[Play]:
    """Yield every play with at most ``max_actions`` interior actions."""
    branching = 1
    for s in model.interior_state_indices():
        width = sum(
            len(model.successors(s, a))
            for a in model.enabled(s)
            if a != model.a_bot
        )
        branching = max(branching, width)
    if branching ** max_actions > budget:
        raise EnumerationBudgetError(
            f"estimated {branching}^{max_actions} interior paths exceeds the "
            f"{budget} budget"
        )
    s_top, s_bot = model.states[model.top], model.states[model.bot]
    a_top, a_bot = model.actions[model.a_top], model.actions[model.a_bot]
    produced = 0

    def walk(state: int, prefix: list[str], used: int):
        nonlocal produced
        produced += 1
        if produced > budget:
            raise EnumerationBudgetError(f"more than {budget} plays enumerated")
        yield Play.from_linear(prefix + [a_bot, s_bot])
        if used == max_actions:
            return
        for a in model.enabled(state):
            if a == model.a_bot:
                continue
            for t, _p in model.successors(state, a):
                yield from walk(
                    t, prefix + [model.actions[a], model.states[t]], used + 1
                )

    for s0, _p in model.initial_dist():
        yield from walk(s0, [s_top, a_top, model.states[s0]], 0)


def observation_buckets(
    model: Model, secret: Dfa, max_actions: int, budget: int = ENUMERATION_BUDGET
) -> dict[tuple[ObsSymbol, ...], tuple[bool, bool]]:
    """Group every play (within the bound) by its observation word.

    For each word record whether some play satisfies the secret and
    whether some play violates it.  The secret DFA reads the interior
    label word, exactly as the product construction feeds it.
    """
    buckets: dict[tuple[ObsSymbol, ...], list[bool]] = {}
    for play in enumerate_plays(model, max_actions, budget):
        word = obs_of_play(model, play)
        labels = [
            model.label_of(model.state_index[s]) for s in play.interior_states
        ]
        sat = secret.accepts(labels)
        entry = buckets.setdefault(word, [False, False])
        entry[0] = entry[0] or sat
        entry[1] = entry[1] or not sat
    return {w: (s, v) for w, (s, v) in buckets.items()}


def brute_force_opaque_obs(
    model: Model, secret: Dfa, max_actions: int, budget: int = ENUMERATION_BUDGET
) -> frozenset[tuple[ObsSymbol, ...]]:
    """Observation words witnessed by both a satisfying and a violating
    play; the independent ground truth for the opaque-observations DFA."""
    buckets = observation_buckets(model, secret, max_actions, budget)
    return frozenset(w for w, (sat, vio) in buckets.items() if sat and vio)
