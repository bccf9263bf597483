"""Monte-Carlo rollouts, play classification, exact policy evaluation and
the exhaustive opacity oracle used to cross-check the automaton pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .automata import Dfa
from .model import Model, ObsSymbol, Play, build_model, obs_of_play
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

    @property
    def ph(self) -> float:
        return self.opaque / self.runs

    @property
    def pt(self) -> float:
        return self.transparent / self.runs

    @property
    def p_task(self) -> float:
        return self.task_satisfied / self.runs

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
            "ph": self.ph,
            "pt": self.pt,
            "p_task": self.p_task,
            "se_ph": self.stderr(self.ph),
            "se_pt": self.stderr(self.pt),
            "se_task": self.stderr(self.p_task),
        }


def default_horizon(pm: ProductMdp) -> int:
    return 10 * pm.model.n_states


def _compile(pm: ProductMdp, policy: Mapping[int, Mapping[int, float]]):
    """Flatten policy and transition tables into sampling-ready arrays."""
    act: dict[int, tuple[list[int], np.ndarray]] = {}
    succ: dict[tuple[int, int], tuple[list[int], np.ndarray]] = {}
    for v, dist in policy.items():
        actions = sorted(dist)
        probs = np.cumsum([dist[a] for a in actions])
        act[v] = (actions, probs)
        for a in actions:
            targets = pm.transitions[(v, a)]
            succ[(v, a)] = ([t for t, _ in targets], np.cumsum([p for _, p in targets]))
    return act, succ


def _pick(cum: np.ndarray, u: float) -> int:
    return int(np.searchsorted(cum, u, side="right").clip(0, len(cum) - 1))


def rollout(
    pm: ProductMdp,
    policy: Mapping[int, Mapping[int, float]],
    runs: int,
    seed: int,
    horizon: int | None = None,
) -> RolloutStats:
    """Sample ``runs`` independent plays of the policy.

    Run ``i`` draws from its own counter-based substream, the Philox
    stream of ``seed`` jumped ``i`` times, so the same (seed, runs,
    horizon) always gives identical statistics.
    """
    if runs < 1:
        raise SimulationError("runs must be positive")
    horizon = default_horizon(pm) if horizon is None else int(horizon)
    if horizon < 1:
        raise SimulationError("horizon must be at least 1 step")
    act, succ = _compile(pm, policy)
    base = np.random.Philox(key=seed)
    stats = RolloutStats(0, 0, 0, 0, 0, 0)
    for i in range(runs):
        rng = np.random.Generator(base.jumped(i))
        v = pm.initial
        steps = 0
        while steps < horizon and v not in pm.absorbing:
            actions, acum = act[v]
            a = actions[_pick(acum, rng.random())]
            targets, tcum = succ[(v, a)]
            v = targets[_pick(tcum, rng.random())]
            steps += 1
        stats.runs += 1
        if v in pm.absorbing:
            stats.terminated += 1
            if pm.opaque_accepting(v):
                stats.opaque += 1
            else:
                stats.transparent += 1
        else:
            stats.horizon_truncated += 1
        if pm.task_accepting(v):
            stats.task_satisfied += 1
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


def exact_policy_values(
    pm: ProductMdp, policy: Mapping[int, Mapping[int, float]]
) -> dict[str, float]:
    """Exact opacity/transparency/task probabilities of a fixed policy,
    from the linear occupancy equations (an independent check on both the
    LP and the sampler)."""
    rows = [v for v in range(pm.n_states) if v not in pm.absorbing]
    row_of = {v: i for i, v in enumerate(rows)}
    n = len(rows)
    data, ri, ci = [], [], []
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
                    continue
                data.append(-pa * p)
                ri.append(row_of[t])
                ci.append(i)
    matrix = sp.csc_matrix((data, (ri, ci)), shape=(n, n))
    nu = np.zeros(n)
    nu[row_of[pm.initial]] = 1.0
    x = spla.spsolve(matrix, nu)
    ph = pt = task = 0.0
    a_bot = pm.model.a_bot
    for v in rows:
        occ = x[row_of[v]]
        for a, pa in policy[v].items():
            w = occ * pa
            task += w * pm.task_coef.get((v, a), 0.0)
            if a == a_bot:
                if pm.states[v][2] in pm.opaque_on_end:
                    ph += w
                else:
                    pt += w
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
