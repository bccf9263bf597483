"""Monte-Carlo rollouts, play classification, exact policy evaluation and
the exhaustive opacity oracle used to cross-check the automaton pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from typing import Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .automata import Dfa
from .model import PROB_TOL, Model, ObsSymbol, Play, build_model, obs_of_play
from .planner import ProductMdp

ENUMERATION_BUDGET = 10_000_000


class SimulationError(ValueError):
    pass


class EnumerationBudgetError(SimulationError):
    pass


@dataclass
class RolloutStats:
    """Counters over a batch of seeded runs plus derived estimates.

    Truncated runs terminate nothing: they count as neither opaque nor
    transparent, so the opacity and transparency estimates stay
    conservative.
    """

    runs: int
    terminated: int
    opaque: int
    transparent: int
    task_satisfied: int
    horizon_truncated: int
    steps: int  # sampled steps, summed over the runs

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

    @property
    def truncation_rate(self) -> float:
        return self.horizon_truncated / self.runs

    def stderr(self, p: float) -> float:
        return sqrt(max(p * (1.0 - p), 0.0) / self.runs)

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "terminated": self.terminated,
            "opaque": self.opaque,
            "transparent": self.transparent,
            "task_satisfied": self.task_satisfied,
            "horizon_truncated": self.horizon_truncated,
            "steps": self.steps,
            "mean_steps": self.mean_steps,
            "truncation_rate": self.truncation_rate,
            "ph": self.ph,
            "pt": self.pt,
            "p_task": self.p_task,
            "se_ph": self.stderr(self.ph),
            "se_pt": self.stderr(self.pt),
            "se_task": self.stderr(self.p_task),
        }


def default_horizon(pm: ProductMdp) -> int:
    return 10 * pm.model.n_states


# Steps of draws fetched per refill of a run's buffer.  A Philox block
# holds four doubles, two steps' worth, so an even value starts every
# refill on a block boundary; any even value gives the same statistics.
_CHUNK_STEPS = 32


def _table(flat: list, widths: list[int], fill, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``widths[r]`` consecutive entries of ``flat``, padded with
    ``fill`` into a dense table; also the mask of real entries."""
    w = np.array(widths, dtype=np.intp)
    table = np.full((len(w), max(int(w.max(initial=0)), 1)), fill, dtype)
    real = np.arange(table.shape[1]) < w[:, None]
    table[real] = flat
    return table, real


def _cumulative(flat: list[float], widths: list[int]) -> np.ndarray:
    """Row-wise cumulative sums, padded with +inf."""
    table, real = _table(flat, widths, 0.0, np.float64)
    cum = np.cumsum(table, axis=1)
    cum[~real] = np.inf
    return cum


def _kernel(pm: ProductMdp, policy: Mapping[int, Mapping[int, float]]):
    """Compile the policy and the transitions into dense sampling tables.

    Per state: cumulative action probabilities (actions in increasing
    order), the number of actions, and the row of the first action; the
    (state, action) rows of a state are consecutive.  Per row: cumulative
    successor probabilities, successor ids and the number of successors.
    Raises ``SimulationError`` unless the policy gives every non-absorbing
    state a distribution over its enabled actions: finite, non-negative
    probabilities summing to 1 within ``PROB_TOL``.
    """
    n = pm.n_states
    act_p: list[list[float]] = [[] for _ in range(n)]
    first_row = [0] * n
    succ_p: list[float] = []
    succ_id: list[int] = []
    succ_width: list[int] = []
    for v, dist in policy.items():
        if not 0 <= v < n:
            raise SimulationError(f"policy names {v!r}, which is not a product state")
        actions = sorted(dist)
        probs = [dist[a] for a in actions]
        if not all(0.0 <= p < inf for p in probs) or abs(sum(probs) - 1.0) > PROB_TOL:
            raise SimulationError(
                f"policy at product state {pm.state_name(v)!r} is not a "
                f"probability distribution: {probs}"
            )
        act_p[v] = probs
        first_row[v] = len(succ_width)
        for a in actions:
            targets = pm.transitions.get((v, a))
            if targets is None:
                name = dict(enumerate(pm.model.actions)).get(a, a)
                raise SimulationError(
                    f"policy uses action {name!r}, not enabled at product "
                    f"state {pm.state_name(v)!r}"
                )
            ids, ps = zip(*targets)
            succ_id.extend(ids)
            succ_p.extend(ps)
            succ_width.append(len(targets))
    missing = [v for v in range(n) if v not in pm.absorbing and v not in policy]
    if missing:
        raise SimulationError(
            f"policy has no distribution at product state {pm.state_name(missing[0])!r}"
        )
    act_width = [len(ps) for ps in act_p]
    return (
        _cumulative([p for ps in act_p for p in ps], act_width),
        np.array(act_width),
        np.array(first_row),
        _cumulative(succ_p, succ_width),
        _table(succ_id, succ_width, 0, np.intp)[0],
        np.array(succ_width),
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


def rollout(
    pm: ProductMdp,
    policy: Mapping[int, Mapping[int, float]],
    runs: int,
    seed: int,
    horizon: int | None = None,
) -> RolloutStats:
    """Sample ``runs`` independent plays of the policy.

    Run ``i`` reads its own counter-based substream: the Philox stream of
    ``seed`` jumped ``i`` times, ``np.random.Generator(Philox(key=seed)
    .jumped(i)).random()``.  Each step takes two draws, the first picking
    the action and the second the successor, each as the first entry of
    the cumulative distribution above the draw.  The runs are stepped
    together, but each reads only its own stream, so the statistics depend
    on (seed, runs, horizon) alone and never on how the draws are batched.
    """
    if runs < 1:
        raise SimulationError("runs must be positive")
    if not 0 <= seed < 2**128:
        raise SimulationError("seed must be in [0, 2**128)")
    horizon = default_horizon(pm) if horizon is None else int(horizon)
    if horizon < 1:
        raise SimulationError("horizon must be at least 1 step")
    act_cum, act_width, first_row, succ_cum, succ_id, succ_width = _kernel(pm, policy)
    absorbing = np.zeros(pm.n_states, dtype=bool)
    absorbing[list(pm.absorbing)] = True
    bitgen = np.random.Philox(key=seed)
    live = np.arange(runs)  # ids of the runs still going
    x = np.full(runs, pm.initial)  # their product states
    slot = live  # their rows of the draw buffer
    final = np.empty(runs, dtype=np.intp)
    steps = 0
    for t in range(horizon + 1):
        done = absorbing[x]
        if done.any():
            final[live[done]] = x[done]
            going = ~done
            live, x, slot = live[going], x[going], slot[going]
        if t == horizon or not live.size:
            break
        c = t % _CHUNK_STEPS
        if c == 0:
            buf = _draws(bitgen, live, t // 2, 2 * _CHUNK_STEPS)
            slot = np.arange(live.size)
        k = _index(act_cum[x], act_width[x], buf[slot, 2 * c])
        row = first_row[x] + k
        j = _index(succ_cum[row], succ_width[row], buf[slot, 2 * c + 1])
        x = succ_id[row, j]
        steps += live.size
    final[live] = x
    stats = RolloutStats(runs, 0, 0, 0, 0, 0, steps)
    for v, count in zip(*(a.tolist() for a in np.unique(final, return_counts=True))):
        if v in pm.absorbing:
            stats.terminated += count
            if pm.opaque_accepting(v):
                stats.opaque += count
            else:
                stats.transparent += count
        else:
            stats.horizon_truncated += count
        if pm.task_accepting(v):
            stats.task_satisfied += count
    return stats


def uniform_policy(pm: ProductMdp) -> dict[int, dict[int, float]]:
    """Uniform over the enabled actions at every non-absorbing state."""
    out = {}
    for v in range(pm.n_states):
        if v in pm.absorbing:
            continue
        actions = pm.enabled(v)
        out[v] = {a: 1.0 / len(actions) for a in actions}
    return out


def _reachable_transient(
    pm: ProductMdp, policy: Mapping[int, Mapping[int, float]]
) -> list[int]:
    """The non-absorbing product states the policy reaches from the
    initial one, in increasing order.

    Raises ``SimulationError`` naming one of them from which the policy
    can never reach an absorbing state.  A finite Markov chain stops with
    probability 1 exactly when no such state is reachable.
    """
    order = [pm.initial]
    seen = {pm.initial}
    predecessors: dict[int, list[int]] = {}
    for v in order:  # grows as new states are found
        for a, pa in policy[v].items():
            if pa == 0.0:
                continue
            for t, _p in pm.transitions[(v, a)]:
                predecessors.setdefault(t, []).append(v)
                if t not in seen:
                    seen.add(t)
                    if t not in pm.absorbing:
                        order.append(t)
    stops = set(pm.absorbing & seen)
    frontier = list(stops)
    while frontier:
        for v in predecessors.get(frontier.pop(), ()):
            if v not in stops:
                stops.add(v)
                frontier.append(v)
    trapped = next((v for v in order if v not in stops), None)
    if trapped is not None:
        raise SimulationError(
            f"policy never stops from product state {pm.state_name(trapped)!r}, "
            f"which it reaches"
        )
    return sorted(order)


def exact_policy_values(
    pm: ProductMdp, policy: Mapping[int, Mapping[int, float]]
) -> dict[str, float]:
    """Exact opacity/transparency/task probabilities of a fixed policy,
    from the linear occupancy equations (an independent check on both the
    LP and the sampler): each is the mass absorbed in product states with
    that outcome.

    The equations are posed on the non-absorbing states the policy
    reaches; they have a unique solution because the policy is first
    checked to stop with probability 1 (else ``SimulationError``).
    """
    rows = _reachable_transient(pm, policy)
    row_of = {v: i for i, v in enumerate(rows)}
    n = len(rows)
    data, ri, ci = [], [], []
    absorbed = []  # (row, probability, absorbing successor) of each stopping step
    for v in rows:
        i = row_of[v]
        data.append(1.0)
        ri.append(i)
        ci.append(i)
        for a, pa in policy[v].items():
            if pa == 0.0:
                continue
            for t, p in pm.transitions[(v, a)]:
                if t in pm.absorbing:
                    absorbed.append((i, pa * p, t))
                    continue
                data.append(-pa * p)
                ri.append(row_of[t])
                ci.append(i)
    matrix = sp.csc_matrix((data, (ri, ci)), shape=(n, n))
    nu = np.zeros(n)
    nu[row_of[pm.initial]] = 1.0
    x = spla.spsolve(matrix, nu)
    ph = pt = task = 0.0
    for i, p, t in absorbed:
        mass = x[i] * p
        if pm.opaque_accepting(t):
            ph += mass
        else:
            pt += mass
        if pm.task_accepting(t):
            task += mass
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


# ---------------------------------------------------------------------------
# seeded random models for property coverage


def random_model(
    seed: int, max_states: int = 6, max_actions: int = 2
) -> Model:
    """A small well-formed model with labels equal to state names and a
    random observation partition."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_states + 1))
    k = int(rng.integers(1, max_actions + 1))
    states = [f"t{i}" for i in range(1, n + 1)]
    actions = ["a", "b", "c", "d"][:k]
    transitions = {}
    for s in states:
        for a in actions:
            width = int(rng.integers(1, min(3, n) + 1))
            targets = rng.choice(n, size=width, replace=False)
            probs = rng.dirichlet(np.ones(width))
            transitions[(s, a)] = {
                states[int(t)]: float(p) for t, p in zip(targets, probs)
            }
    # random partition: cut a shuffled state list into consecutive groups
    perm = [states[int(i)] for i in rng.permutation(n)]
    groups: list[list[str]] = [[perm[0]]]
    for name in perm[1:]:
        if rng.random() < 0.5:
            groups.append([name])
        else:
            groups[-1].append(name)
    class_of = {s: tuple(sorted(g)) for g in groups for s in g}
    observations = {
        (s, a, t): class_of[t]
        for (s, a), dist in transitions.items()
        for t in dist
    }
    if rng.random() < 0.7 or n < 2:
        initial = {states[int(rng.integers(n))]: 1.0}
    else:
        pair = rng.choice(n, size=2, replace=False)
        split = float(rng.uniform(0.2, 0.8))
        initial = {states[int(pair[0])]: split, states[int(pair[1])]: 1.0 - split}
    return build_model(
        states=states,
        actions=actions,
        transitions=transitions,
        initial=initial,
        labels={s: {s} for s in states},
        observations=observations,
    )


def random_secret_text(seed: int, states: Iterable[str]) -> str:
    """A small formula over state-name propositions, template-drawn."""
    rng = np.random.default_rng(seed + 7919)
    names = list(states)
    p = names[int(rng.integers(len(names)))]
    q = names[int(rng.integers(len(names)))]
    templates = [
        f"F {p}",
        f"F {p} & F {q}",
        f"G !{p}",
        f"F ({p} & X {q})",
        f"{p} U {q}",
        f"F {p} | G {q}",
    ]
    return templates[int(rng.integers(len(templates)))]
