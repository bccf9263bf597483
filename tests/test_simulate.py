import math

import numpy as np
import pytest

from opaque_planner import simulate
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.model import Play, build_model, validate
from opaque_planner.planner import build_lp, extract_policy, product_mdp, solve_lp
from opaque_planner.simulate import (
    EnumerationBudgetError,
    RolloutStats,
    SimulationError,
    brute_force_opaque_obs,
    classify_play,
    enumerate_plays,
    exact_policy_values,
    observation_buckets,
    rollout,
    uniform_policy,
)
from opaque_planner.transducer import opaque_obs_dfa

from helpers import random_model, random_secret_text


def play(text):
    return Play.from_linear(text.split())


def reference_rollout(pm, policy, runs, seed):
    """The scalar sampler: one run at a time until it is absorbed, run i
    drawing from ``Generator(Philox(seed).jumped(i))``, an action and then
    a successor per step, each by ``searchsorted`` on its cumulative
    distribution."""

    def pick(pairs, u):
        cum = np.cumsum([p for _, p in pairs])
        return pairs[int(np.searchsorted(cum, u, side="right").clip(0, len(cum) - 1))][0]

    base = np.random.Philox(key=seed)
    stats = RolloutStats(0, 0, 0, 0, 0)
    for i in range(runs):
        rng = np.random.Generator(base.jumped(i))
        v = pm.initial
        steps = 0
        while not pm.absorbing_mask[v]:
            a = pick(sorted(policy[v].items()), rng.random())
            v = pick(pm.transitions[(v, a)], rng.random())
            steps += 1
        stats.runs += 1
        stats.steps += steps
        if pm.opaque_accepts[v]:
            stats.opaque += 1
        else:
            stats.transparent += 1
        if pm.task_accepts[v]:
            stats.task_satisfied += 1
    return stats


def immediate_termination_policy(pm):
    """Terminate wherever termination is enabled, else take the first action."""
    policy = {}
    a_bot = pm.model.a_bot
    for v in range(pm.n_states):
        if pm.absorbing_mask[v]:
            continue
        acts = pm.enabled(v)
        pick = a_bot if a_bot in acts else acts[0]
        policy[v] = {a: 1.0 if a == pick else 0.0 for a in acts}
    return policy


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


class TestInvalidPolicy:
    """The sampler rejects a policy that is not a distribution over enabled
    actions wherever it is given, or is not given at a state it reaches;
    ``TestInvalidPolicyExact`` runs the same cases through exact evaluation."""

    @staticmethod
    def evaluate(pm, policy):
        return rollout(pm, policy, runs=10, seed=1)

    @staticmethod
    def state(pm):
        """A non-absorbing state other than the initial one."""
        return next(v for v in range(1, pm.n_states) if not pm.absorbing_mask[v])

    def test_action_not_enabled(self, pm):
        policy = uniform_policy(pm)
        v = self.state(pm)
        assert pm.model.a_top not in pm.enabled(v)
        policy[v] = {pm.model.a_top: 1.0}
        with pytest.raises(SimulationError, match="a_top.*not enabled"):
            self.evaluate(pm, policy)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_probability_not_finite_and_non_negative(self, pm, bad):
        policy = uniform_policy(pm)
        v = self.state(pm)
        first, second = sorted(policy[v])[:2]
        policy[v] = {first: 1.0 - bad, second: bad}
        with pytest.raises(SimulationError, match="not a probability distribution"):
            self.evaluate(pm, policy)

    def test_probabilities_must_sum_to_one(self, pm):
        policy = uniform_policy(pm)
        v = self.state(pm)
        policy[v] = {a: p * (1 - 1e-6) for a, p in policy[v].items()}
        with pytest.raises(SimulationError, match="not a probability distribution"):
            self.evaluate(pm, policy)

    def test_rounding_within_tolerance_accepted(self, pm):
        policy = uniform_policy(pm)
        v = self.state(pm)
        policy[v] = {a: p * (1 + 1e-12) for a, p in policy[v].items()}
        self.evaluate(pm, policy)

    def test_missing_state(self, pm):
        policy = uniform_policy(pm)
        del policy[self.state(pm)]
        with pytest.raises(SimulationError, match="no distribution"):
            self.evaluate(pm, policy)

    def test_unknown_state(self, pm):
        policy = uniform_policy(pm)
        policy[pm.n_states] = {pm.model.a_bot: 1.0}
        with pytest.raises(SimulationError, match="not a product state"):
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
        m = random_model(seed)
        names = [m.states[i] for i in m.interior_state_indices()]
        secret = dfa_over_model_labels(random_secret_text(seed, names), m)
        task = dfa_over_model_labels(f"F {names[-1]}", m)
        pm = product_mdp(m, task, opaque_obs_dfa(m, secret))
        policy = uniform_policy(pm)
        assert rollout(pm, policy, 300, seed) == reference_rollout(pm, policy, 300, seed)

    def test_ties_and_shortfall_pick_as_searchsorted(self):
        # draws equal to a cumulative probability, zero-probability
        # entries and a distribution summing to just under 1
        cum = np.cumsum([0.0, 0.25, 0.0, 0.25, 0.5 - 1e-10])
        u = np.array([0.0, 0.1, 0.25, 0.5, 0.75, cum[-1], 1.0 - 2**-53])
        padded = np.tile(np.append(cum, np.inf), (len(u), 1))
        got = simulate._index(padded, np.full(len(u), len(cum)), u)
        want = np.searchsorted(cum, u, side="right").clip(0, len(cum) - 1)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("chunk", [2, 64])
    def test_batching_does_not_change_stats(self, pm, lp_policies, monkeypatch, chunk):
        # the transparency policy at 0.8 runs ~17 steps on average and its
        # longest runs many times that, so runs cross many refills of
        # either size
        policy = lp_policies["transparency", 0.8]
        expected = rollout(pm, policy, runs=2000, seed=2025)
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", chunk)
        assert rollout(pm, policy, runs=2000, seed=2025) == expected


class TestUniformPolicy:
    def test_uniform_over_enabled(self, pm):
        policy = uniform_policy(pm)
        for v, dist in policy.items():
            assert set(dist) == set(pm.enabled(v))
            assert all(p == pytest.approx(1 / len(dist)) for p in dist.values())

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
    out = dict(policy)
    for v, (s, _q, _qh) in enumerate(pm.states):
        if s == s6:
            out[v] = {b: 1.0}
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

    def test_budget_guard(self, model, secret_dfa):
        with pytest.raises(EnumerationBudgetError):
            brute_force_opaque_obs(model, secret_dfa, max_actions=12, budget=10_000)


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
