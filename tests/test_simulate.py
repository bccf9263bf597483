import numpy as np
import pytest

from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.model import Play, build_model, validate
from opaque_planner.planner import build_lp, extract_policy, product_mdp, solve_lp
from opaque_planner.simulate import (
    EnumerationBudgetError,
    SimulationError,
    brute_force_opaque_obs,
    classify_play,
    enumerate_plays,
    exact_policy_values,
    observation_buckets,
    random_model,
    random_secret_text,
    rollout,
    uniform_policy,
)
from opaque_planner.transducer import opaque_obs_dfa


def play(text):
    return Play.from_linear(text.split())


@pytest.fixture(scope="module")
def optimal_policy(pm):
    sol = solve_lp(build_lp(pm, 0.4, "opacity"))
    return extract_policy(sol, pm), sol.objective


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

    def test_threads_do_not_change_stats(self, pm, optimal_policy):
        policy, _ = optimal_policy
        a = rollout(pm, policy, runs=500, seed=9, threads=1)
        b = rollout(pm, policy, runs=500, seed=9, threads=4)
        assert a == b

    def test_count_invariants(self, pm, optimal_policy):
        policy, _ = optimal_policy
        stats = rollout(pm, policy, runs=1000, seed=5)
        assert stats.opaque + stats.transparent == stats.terminated
        assert stats.terminated + stats.horizon_truncated == stats.runs
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
        policy = {}
        a_bot = pm.model.a_bot
        for v in range(pm.n_states):
            if v in pm.absorbing:
                continue
            acts = pm.enabled(v)
            pick = a_bot if a_bot in acts else acts[0]
            policy[v] = {a: 1.0 if a == pick else 0.0 for a in acts}
        stats = rollout(pm, policy, runs=300, seed=3)
        assert stats.terminated == stats.runs
        assert stats.transparent == stats.runs  # lone first observation reveals

    def test_horizon_truncation(self, pm):
        policy = uniform_policy(pm)
        stats = rollout(pm, policy, runs=200, seed=1, horizon=1)
        assert stats.horizon_truncated == stats.runs
        assert stats.opaque == stats.transparent == 0

    def test_bad_arguments(self, pm, optimal_policy):
        policy, _ = optimal_policy
        with pytest.raises(SimulationError):
            rollout(pm, policy, runs=0, seed=1)
        with pytest.raises(SimulationError):
            rollout(pm, policy, runs=10, seed=1, horizon=0)


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
