import json
import logging
import math

import numpy as np
import pytest

from opaque_planner import simulate
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.model import Play, build_model, validate
from opaque_planner.planner import build_lp, extract_policy, product_mdp, solve_lp
from opaque_planner.scenarios import gridworld
from opaque_planner.simulate import (
    EnumerationBudgetError,
    RolloutStats,
    SimulationError,
    enumerate_plays,
    exact_policy_values,
    observation_buckets,
    rollout,
)
from opaque_planner.transducer import opaque_obs_dfa

from helpers import (
    brute_force_opaque_obs,
    classify_play,
    random_model,
    random_secret_text,
    uniform_policy,
)


def play(text):
    return Play.from_linear(text.split())


def induced_chain(pm, policy, v):
    """``(successor, probability)`` pairs of the Markov chain ``policy``
    induces at state ``v``, by increasing successor: each successor's
    probability is ``policy[row] * p`` summed over ``v``'s rows with a
    nonzero probability and their entries, in row then entry order."""
    dist = {}
    for r, a in zip(range(pm.row_ptr[v], pm.row_ptr[v + 1]), pm.enabled(v)):
        if policy[r] != 0.0:
            for t, p in pm.transitions[(v, a)]:
                dist[t] = dist.get(t, 0.0) + policy[r] * p
    return sorted(dist.items())


def reference_rollout(pm, policy, runs, seed):
    """The scalar sampler in lockstep over one stream,
    ``Generator(Philox(key=seed))``: at each step, every run not yet
    absorbed, in increasing id, draws one double and moves to the
    successor that ``searchsorted`` picks on the cumulative distribution
    of the induced chain at its state."""
    chains = {}

    def step(v, u):
        if v not in chains:
            pairs = induced_chain(pm, policy, v)
            chains[v] = [t for t, _ in pairs], np.cumsum([p for _, p in pairs])
        succ, cum = chains[v]
        return succ[int(np.searchsorted(cum, u, side="right").clip(0, len(cum) - 1))]

    rng = np.random.Generator(np.random.Philox(key=seed))
    state = [pm.initial] * runs
    stats = RolloutStats(runs, 0, 0, 0, 0)
    while live := [i for i in range(runs) if not pm.absorbing_mask[state[i]]]:
        for i in live:
            state[i] = step(state[i], rng.random())
        stats.steps += len(live)
    for v in state:
        if pm.opaque_accepts[v]:
            stats.opaque += 1
        else:
            stats.transparent += 1
        if pm.task_accepts[v]:
            stats.task_satisfied += 1
    return stats


def random_product(seed):
    """The product of ``random_model(seed)`` with a random secret and the
    task of reaching its last interior state."""
    m = random_model(seed)
    names = [m.states[i] for i in m.interior_state_indices()]
    secret = dfa_over_model_labels(random_secret_text(seed, names), m)
    task = dfa_over_model_labels(f"F {names[-1]}", m)
    return product_mdp(m, task, opaque_obs_dfa(m, secret))


def immediate_termination_policy(pm):
    """Terminate wherever termination is enabled, else take the first action."""
    stop = pm.row_action == pm.model.a_bot
    can_stop = np.zeros(pm.n_states, dtype=bool)
    can_stop[pm.row_state[stop]] = True
    first = np.arange(len(pm.row_action)) == pm.row_ptr[pm.row_state]
    return np.where(can_stop[pm.row_state], stop, first).astype(float)


def rows(pm, v):
    """The slice of state ``v``'s rows."""
    return slice(pm.row_ptr[v], pm.row_ptr[v + 1])


@pytest.fixture(scope="module")
def optimal_policy(pm):
    sol = solve_lp(build_lp(pm, 0.4, "opacity"))
    return extract_policy(sol, pm), sol.objective


@pytest.fixture(scope="module")
def lp_policies(pm):
    return {
        (mode, eps): extract_policy(solve_lp(build_lp(pm, eps, mode)), pm)
        for mode in ("opacity", "transparency")
        for eps in (0.4, 0.6, 0.8)
    }


class TestRollout:
    def test_reproducible(self, pm, optimal_policy):
        policy, _ = optimal_policy
        a = rollout(pm, policy, runs=400, seed=42)
        b = rollout(pm, policy, runs=400, seed=42)
        assert a == b

    def test_seed_changes_outcome(self, pm):
        # a fixed policy, not an LP optimum: which of several optimal
        # vertices the solver returns must not decide a sampler test
        policy = uniform_policy(pm)
        a = rollout(pm, policy, runs=400, seed=1)
        b = rollout(pm, policy, runs=400, seed=2)
        assert a != b

    def test_count_invariants(self, pm, optimal_policy):
        policy, _ = optimal_policy
        stats = rollout(pm, policy, runs=1000, seed=5)
        assert stats.opaque + stats.transparent == stats.runs
        assert stats.horizon_truncated == 0
        assert stats.ph == stats.opaque / stats.runs
        assert stats.pt == stats.transparent / stats.runs

    def test_matches_exact_values(self, pm, optimal_policy):
        policy, objective = optimal_policy
        exact = exact_policy_values(pm, policy)
        assert exact["ph"] == pytest.approx(objective, abs=1e-9)
        stats = rollout(pm, policy, runs=5000, seed=2025)
        assert abs(stats.ph - exact["ph"]) <= 0.021
        assert abs(stats.p_task - exact["task"]) <= 0.021

    def test_estimator_consistency_across_seeds(self, pm, optimal_policy):
        policy, objective = optimal_policy
        band = 3 * (0.25 / 5000) ** 0.5
        hits = sum(
            abs(rollout(pm, policy, runs=5000, seed=s).ph - objective) <= band
            for s in range(10)
        )
        assert hits >= 9

    def test_immediate_termination_policy(self, pm):
        policy = immediate_termination_policy(pm)
        stats = rollout(pm, policy, runs=300, seed=3)
        assert stats.transparent == stats.runs  # lone first observation reveals
        assert stats.mean_steps == 2.0  # to s1, then stop

    def test_policy_that_never_stops_raises(self, pm):
        with pytest.raises(SimulationError, match=r"never stops from product state 's6\|"):
            rollout(pm, loop_at_s6(pm, uniform_policy(pm)), runs=10, seed=1)

    def test_trap_the_policy_never_reaches_is_ignored(self, pm):
        policy = immediate_termination_policy(pm)
        assert rollout(pm, loop_at_s6(pm, policy), runs=300, seed=3) == rollout(
            pm, policy, runs=300, seed=3
        )

    def test_step_budget_raises(self, pm, monkeypatch):
        policy = uniform_policy(pm)
        assert rollout(pm, policy, runs=200, seed=1).mean_steps > 2
        monkeypatch.setattr(simulate, "STEP_BUDGET", 2)
        with pytest.raises(SimulationError, match="not stopped after 2 steps"):
            rollout(pm, policy, runs=200, seed=1)

    def test_bad_arguments(self, pm, optimal_policy):
        policy, _ = optimal_policy
        with pytest.raises(SimulationError):
            rollout(pm, policy, runs=0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_philox_key_range(self, pm, optimal_policy, seed):
        policy, _ = optimal_policy
        with pytest.raises(SimulationError, match="seed"):
            rollout(pm, policy, runs=10, seed=seed)

    def test_largest_seed_accepted(self, pm, optimal_policy):
        policy, _ = optimal_policy
        assert rollout(pm, policy, runs=10, seed=2**128 - 1).runs == 10

    def test_seed_not_an_integer(self, pm, optimal_policy):
        # a float seed used to run silently as its integer part
        policy, _ = optimal_policy
        with pytest.raises(SimulationError, match="seed must be an integer"):
            rollout(pm, policy, runs=10, seed=1.5)

    def test_seed_bool(self, pm, optimal_policy):
        policy, _ = optimal_policy
        with pytest.raises(SimulationError, match="seed must be an integer"):
            rollout(pm, policy, runs=10, seed=True)

    def test_numpy_integers_stored_as_int(self, pm, optimal_policy):
        policy, _ = optimal_policy
        stats = rollout(pm, policy, runs=np.int64(3), seed=np.uint64(7))
        assert type(stats.runs) is int
        assert stats == rollout(pm, policy, runs=3, seed=7)
        json.dumps(stats.to_dict())

    def test_runs_not_an_integer(self, pm, optimal_policy):
        policy, _ = optimal_policy
        with pytest.raises(SimulationError, match="runs must be an integer"):
            rollout(pm, policy, runs=2.5, seed=1)

    def test_runs_bool(self, pm, optimal_policy):
        policy, _ = optimal_policy
        with pytest.raises(SimulationError, match="runs must be an integer"):
            rollout(pm, policy, runs=True, seed=1)

    def test_draw_counts_logged(self, pm, lp_policies, caplog):
        # each step of a live run takes one draw
        with caplog.at_level(logging.INFO, logger="opaque_planner.simulate"):
            for policy in lp_policies.values():
                stats = rollout(pm, policy, runs=10_000, seed=2025)
                runs, _, draws = caplog.records[-1].args
                assert (runs, draws) == (10_000, stats.steps)


class TestInvalidPolicy:
    """The sampler rejects a policy that is not one probability per product
    row, or not a distribution over the actions of some non-absorbing
    state; ``TestInvalidPolicyExact`` runs the same cases through exact
    evaluation."""

    @staticmethod
    def evaluate(pm, policy):
        return rollout(pm, policy, runs=10, seed=1)

    @staticmethod
    def state(pm):
        """A non-absorbing state other than the initial one."""
        return next(v for v in range(1, pm.n_states) if not pm.absorbing_mask[v])

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_probability_not_finite_and_non_negative(self, pm, bad):
        policy = uniform_policy(pm)
        v = self.state(pm)
        r = rows(pm, v)
        assert r.stop - r.start >= 2
        policy[r] = 0.0
        policy[r.start : r.start + 2] = 1.0 - bad, bad
        with pytest.raises(SimulationError, match="not a probability distribution"):
            self.evaluate(pm, policy)

    def test_probabilities_must_sum_to_one(self, pm):
        policy = uniform_policy(pm)
        v = self.state(pm)
        policy[rows(pm, v)] *= 1 - 1e-6
        with pytest.raises(SimulationError, match="not a probability distribution"):
            self.evaluate(pm, policy)

    def test_rounding_within_tolerance_accepted(self, pm):
        policy = uniform_policy(pm)
        v = self.state(pm)
        policy[rows(pm, v)] *= 1 + 1e-12
        self.evaluate(pm, policy)

    def test_missing_state(self, pm):
        # a state left without a distribution: all of its rows are zero
        policy = uniform_policy(pm)
        policy[rows(pm, self.state(pm))] = 0.0
        with pytest.raises(SimulationError, match="not a probability distribution"):
            self.evaluate(pm, policy)

    def test_unknown_state(self, pm):
        # probabilities past the last row belong to no product state
        policy = np.append(uniform_policy(pm), 1.0)
        with pytest.raises(SimulationError, match="one probability for each"):
            self.evaluate(pm, policy)

    def test_list_policy(self, pm):
        policy = uniform_policy(pm)
        assert self.evaluate(pm, policy.tolist()) == self.evaluate(pm, policy)

    def test_object_array_holding_a_string(self, pm):
        policy = uniform_policy(pm).astype(object)
        policy[0] = "one"
        with pytest.raises(SimulationError, match="not an array of probabilities"):
            self.evaluate(pm, policy)


class TestInvalidPolicyExact(TestInvalidPolicy):
    evaluate = staticmethod(exact_policy_values)


class TestAgainstReference:
    """``rollout`` steps every run at once; the scalar reference must give
    the same statistics, field for field."""

    @pytest.mark.parametrize("mode", ["opacity", "transparency"])
    @pytest.mark.parametrize("eps", [0.4, 0.6, 0.8])
    def test_lp_policies(self, pm, lp_policies, mode, eps):
        policy = lp_policies[mode, eps]
        assert rollout(pm, policy, runs=2000, seed=2025) == reference_rollout(
            pm, policy, runs=2000, seed=2025
        )

    @pytest.mark.parametrize("make", [uniform_policy, immediate_termination_policy])
    @pytest.mark.parametrize("runs", [1, 257])
    def test_fixed_policies(self, pm, make, runs):
        policy = make(pm)
        assert rollout(pm, policy, runs, 7) == reference_rollout(pm, policy, runs, 7)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_models(self, seed):
        pm = random_product(seed)
        policy = uniform_policy(pm)
        assert rollout(pm, policy, 300, seed) == reference_rollout(pm, policy, 300, seed)

    def test_ties_and_shortfall_pick_as_searchsorted(self):
        # draws equal to a cumulative probability, zero-probability
        # entries and a distribution summing to just under 1, picked on
        # the table whose last real entry is +inf
        probs = np.array([0.0, 0.25, 0.0, 0.25, 0.5 - 1e-10])
        cum = np.cumsum(probs)
        u = np.array([0.0, 0.1, 0.25, 0.5, 0.75, cum[-1], 1.0 - 2**-53])
        table = simulate._cumulative(probs, np.array([len(probs)]))
        assert table[:, 0].tolist() == [*cum[:-1], np.inf]
        got = simulate._index(np.tile(table, len(u)), u)
        want = np.searchsorted(cum, u, side="right").clip(0, len(cum) - 1)
        assert got.tolist() == want.tolist()

    def test_largest_seed(self, pm):
        policy = uniform_policy(pm)
        seed = 2**128 - 1
        assert rollout(pm, policy, 300, seed) == reference_rollout(pm, policy, 300, seed)

    def test_gridworld(self, grid_policy):
        # runs of ~390 steps on average
        grid_pm, policy = grid_policy
        assert rollout(grid_pm, policy, 200, 11) == reference_rollout(grid_pm, policy, 200, 11)


@pytest.fixture(scope="module")
def grid_policy():
    """The default gridworld's product for the secret ``F B & F A`` and
    the task ``F C``, and its optimal opacity policy at 0.4."""
    model = gridworld()
    grid_pm = product_mdp(
        model,
        dfa_over_model_labels("F C", model),
        opaque_obs_dfa(model, dfa_over_model_labels("F B & F A", model)),
    )
    return grid_pm, extract_policy(solve_lp(build_lp(grid_pm, 0.4, "opacity")), grid_pm)


class TestKernel:
    @pytest.mark.parametrize("seed", range(40))
    def test_induced_chain(self, seed):
        # per state, the successors in increasing order and the cumulative
        # probabilities of the chain built from ``pm.transitions``; no
        # successors where the policy never goes
        pm = random_product(seed)
        policy = uniform_policy(pm)
        cum, succ = simulate._kernel(pm, policy)
        assert cum.shape == succ.T.shape == (succ.shape[1], pm.n_states)
        reached, stack = {pm.initial}, [pm.initial]
        while stack:
            v = stack.pop()
            for t, _ in induced_chain(pm, policy, v):
                if t not in reached:
                    reached.add(t)
                    stack.append(t)
        for v in range(pm.n_states):
            pairs = induced_chain(pm, policy, v) if v in reached else []
            k = len(pairs)
            ids = [t for t, _ in pairs]
            assert succ[v].tolist() == ids + [0] * (succ.shape[1] - k)
            want = np.cumsum([p for _, p in pairs])[:-1]
            assert cum[: max(k - 1, 0), v] == pytest.approx(want, rel=0, abs=1e-15)
            assert np.all(cum[max(k - 1, 0) :, v] == np.inf)


class TestUniformPolicy:
    def test_uniform_over_enabled(self, pm):
        policy = uniform_policy(pm)
        assert policy.shape == pm.row_action.shape
        for v in np.flatnonzero(~pm.absorbing_mask):
            dist = policy[rows(pm, v)]
            assert len(dist) == len(pm.enabled(v))
            assert all(p == pytest.approx(1 / len(dist)) for p in dist)

    def test_exact_values_match_long_rollout(self, pm):
        policy = uniform_policy(pm)
        exact = exact_policy_values(pm, policy)
        stats = rollout(pm, policy, runs=5000, seed=17)
        assert abs(stats.ph - exact["ph"]) <= 0.021
        assert abs(stats.p_task - exact["task"]) <= 0.021
        assert abs(stats.pt - exact["pt"]) <= 0.021

    @pytest.mark.parametrize("task", ["G !s3", "!F s4"])
    def test_task_accepting_initially_matches_rollout(self, model, opaque_dfa, task):
        # the task DFA starts in its accepting set: the exact task value
        # must count runs that terminate there, as the sampler does
        pm = product_mdp(model, dfa_over_model_labels(task, model), opaque_dfa)
        policy = uniform_policy(pm)
        exact = exact_policy_values(pm, policy)
        stats = rollout(pm, policy, runs=5000, seed=17)
        assert exact["task"] > 0.5
        assert abs(stats.p_task - exact["task"]) <= 0.025


def loop_at_s6(pm, policy):
    """``policy`` with the sure self-loop ``b`` at every state over s6."""
    s6, b = pm.model.state_index["s6"], pm.model.action_index["b"]
    out = policy.copy()
    at_s6 = pm.components[pm.row_state, 0] == s6
    out[at_s6] = pm.row_action[at_s6] == b
    return out


class TestExactValues:
    def test_policy_that_never_stops_raises(self, pm):
        # uniform elsewhere, the policy reaches s6 and then loops forever
        with pytest.raises(SimulationError, match=r"never stops from product state 's6\|"):
            exact_policy_values(pm, loop_at_s6(pm, uniform_policy(pm)))

    def test_trap_the_policy_never_reaches_is_ignored(self, pm):
        # stopping at once never reaches s6, so its loops there do not count
        policy = immediate_termination_policy(pm)
        assert exact_policy_values(pm, loop_at_s6(pm, policy)) == exact_policy_values(
            pm, policy
        )


class TestClassifyPlay:
    def test_ambiguous_play_is_opaque(self, model, opaque_dfa):
        p = play("s_top a_top s1 b s3 b s6 a_bot s_bot")
        assert classify_play(model, p, opaque_dfa) == "opaque"

    def test_revealed_play_is_transparent(self, model, opaque_dfa):
        p = play("s_top a_top s1 a s2 b s4 a_bot s_bot")
        assert classify_play(model, p, opaque_dfa) == "transparent"

    def test_trivial_secret_everything_transparent(self, model):
        trivial = opaque_obs_dfa(model, dfa_over_model_labels("true", model))
        for p in enumerate_plays(model, max_actions=3):
            assert classify_play(model, p, trivial) == "transparent"


class TestEnumeratePlays:
    def test_negative_bound_rejected(self, model):
        with pytest.raises(SimulationError, match="nonnegative"):
            next(enumerate_plays(model, max_actions=-1))

    def test_long_chain_within_budget(self):
        # one state with a sure self-loop: one play per length, no recursion
        loop = build_model(
            states=["x"],
            actions=["go"],
            transitions={("x", "go"): {"x": 1.0}},
            initial={"x": 1.0},
            labels={"x": {"x"}},
            observations={("x", "go", "x"): ("x",)},
        )
        plays = list(enumerate_plays(loop, max_actions=1500))
        assert [len(p.actions) for p in plays] == list(range(2, 1503))
        assert plays[-1].states[1:-1] == ("x",) * 1501

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_same_order_as_recursive_walk(self, model, seed):
        m = model if seed is None else random_model(seed)
        got = [str(p) for p in enumerate_plays(m, max_actions=4)]
        assert got == [" ".join(p) for p in recursive_plays(m, 4)]


def recursive_plays(model, max_actions):
    """The linear plays of ``enumerate_plays`` by the recursive walk it
    replaced: each play, then its extensions by action and successor."""
    end = [model.actions[model.a_bot], model.states[model.bot]]

    def walk(state, prefix, used):
        yield prefix + end
        if used < max_actions:
            for a in model.enabled(state):
                if a != model.a_bot:
                    for t, _p in model.successors(state, a):
                        step = [model.actions[a], model.states[t]]
                        yield from walk(t, prefix + step, used + 1)

    start = [model.states[model.top], model.actions[model.a_top]]
    for s0, _p in model.initial_dist():
        yield from walk(s0, start + [model.states[s0]], 0)


class TestBruteForce:
    def test_counts_on_running_example(self, model, secret_dfa, opaque_dfa):
        buckets = observation_buckets(model, secret_dfa, max_actions=4)
        opaque_words = brute_force_opaque_obs(model, secret_dfa, max_actions=4)
        assert len(buckets) == 36
        assert len(opaque_words) == 8
        for word in opaque_words:
            assert opaque_dfa.accepts(word)

    def test_trivial_secret_empty(self, model):
        trivial = dfa_over_model_labels("true", model)
        assert brute_force_opaque_obs(model, trivial, max_actions=4) == frozenset()

    def test_single_play_model_empty(self):
        m = build_model(
            states=["only"],
            actions=[],
            transitions={},
            initial={"only": 1.0},
            labels={"only": {"only"}},
            observations={},
        )
        assert validate(m) == []
        secret = dfa_over_model_labels("F only", m)
        assert brute_force_opaque_obs(m, secret, max_actions=4) == frozenset()

    def test_budget_guard(self, model, secret_dfa, monkeypatch):
        monkeypatch.setattr(simulate, "ENUMERATION_BUDGET", 10_000)
        with pytest.raises(EnumerationBudgetError):
            brute_force_opaque_obs(model, secret_dfa, max_actions=12)


class TestRandomModels:
    @pytest.mark.parametrize("seed", range(20))
    def test_generated_models_validate(self, seed):
        assert validate(random_model(seed)) == []

    def test_secret_texts_parse(self):
        from opaque_planner.ltlf import parse_ltlf

        m = random_model(3)
        names = [m.states[i] for i in m.interior_state_indices()]
        parse_ltlf(random_secret_text(3, names))

    def test_oracle_agreement_on_sample(self):
        # small slice of the full acceptance sweep
        for seed in (0, 7, 13):
            m = random_model(seed)
            names = [m.states[i] for i in m.interior_state_indices()]
            secret = dfa_over_model_labels(random_secret_text(seed, names), m)
            dfa = opaque_obs_dfa(m, secret)
            buckets = observation_buckets(m, secret, max_actions=4)
            for word, (sat, vio) in buckets.items():
                assert dfa.accepts(word) == (sat and vio)
