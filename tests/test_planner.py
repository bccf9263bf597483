from collections import deque
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from opaque_planner.automata import IncompleteDfaError
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.model import END, START, obs_of_play
from opaque_planner.planner import (
    PlannerError,
    build_lp,
    export_lp,
    extract_policy,
    policy_from_dict,
    policy_to_dict,
    product_mdp,
    solve_lp,
)
from opaque_planner.scenarios import DroneConfig, GridworldConfig, Sensor, gridworld
from opaque_planner.simulate import enumerate_plays, exact_policy_values
from opaque_planner.transducer import opaque_obs_dfa

from helpers import play_inputs, random_model, random_secret_text
from lp_text import solve_lp_text

TABLE_OPACITY = {0.4: 0.7, 0.6: 0.6, 0.8: 0.4}
TABLE_TRANSPARENCY = {0.4: 0.9828, 0.6: 0.9742, 0.8: 0.9658}


@pytest.fixture(scope="module")
def solved(pm):
    return {eps: solve_lp(build_lp(pm, eps, "opacity")) for eps in TABLE_OPACITY}


class TestProductMdp:
    def test_trivial_automata_reproduce_model(self, model):
        trivial_task = dfa_over_model_labels("true", model)
        trivial_opaque = opaque_obs_dfa(model, dfa_over_model_labels("true", model))
        pm = product_mdp(model, trivial_task, trivial_opaque)
        assert pm.n_states == model.n_states
        for (v, a), dist in pm.transitions.items():
            s = pm.states[v][0]
            model_dist = {t: p for t, p in model.successors(s, a)}
            assert {pm.states[w][0]: p for w, p in dist} == model_dist

    def test_rows_are_stochastic(self, pm):
        for (v, a), dist in pm.transitions.items():
            assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-9)

    def test_single_automaton_successor_per_edge(self, pm):
        for (v, a), dist in pm.transitions.items():
            targets = [w for w, _ in dist]
            assert len(targets) == len(set(targets))

    def test_initial_components(self, pm, model, task_dfa, opaque_dfa):
        s, q, qh = pm.states[pm.initial]
        assert s == model.top
        assert q == task_dfa.initial
        assert qh == opaque_dfa.initial

    def test_task_reward_from_initial_entry(self, pm, model):
        # the task is rewarded on termination only, and only in its
        # accepting set, which the initial state of F s4 is not
        lp = build_lp(pm, 0)
        v0 = pm.index[(model.top, pm.task.initial, pm.opaque.initial)]
        rep = pm.quotient.representatives[pm.quotient.block[v0]]
        coef = lp.task_row[lp.var_index[(rep, model.a_top)]]
        assert coef == 0.0  # s1 is not accepting for F s4

    def test_opacity_reward_tracks_prefix_acceptance(self, pm, model, opaque_dfa):
        # walking any short play through the product, terminating stops in
        # an opaque-accepting state exactly when the observation so far,
        # closed with the end marker, is an opaque word
        for play in enumerate_plays(model, max_actions=4):
            v = pm.initial
            inputs = play_inputs(model, play)
            for (s, a, t) in inputs[:-1]:
                dist = dict(pm.transitions[(v, a)])
                matches = [
                    w for w in dist if pm.states[w][0] == t
                ]
                assert len(matches) == 1
                v = matches[0]
            word = obs_of_play(model, play)
            expected = opaque_dfa.accepts(word)
            ((t, _p),) = pm.transitions[(v, model.a_bot)]
            assert pm.opaque_accepts[t] == expected

    def test_incomplete_opaque_rejected(self, model, task_dfa, opaque_dfa):
        broken = type(opaque_dfa)(
            alphabet=opaque_dfa.alphabet,
            transitions={
                k: v for k, v in opaque_dfa.transitions.items() if k[1] != END
            },
            initial=opaque_dfa.initial,
            accepting=opaque_dfa.accepting,
            state_names=opaque_dfa.state_names,
        )
        with pytest.raises(IncompleteDfaError):
            product_mdp(model, task_dfa, broken)

    def test_incomplete_task_rejected(self, model, task_dfa, opaque_dfa):
        letter = next(iter(model.label_alphabet()))
        broken = replace(
            task_dfa,
            transitions={k: v for k, v in task_dfa.transitions.items() if k[1] != letter},
        )
        with pytest.raises(IncompleteDfaError):
            product_mdp(model, broken, opaque_dfa)

    def test_views_are_read_only(self, pm):
        with pytest.raises(TypeError):
            pm.transitions[(0, 0)] = ()
        with pytest.raises(TypeError):
            pm.index[(0, 0, 0)] = 0
        arrays = [f.name for f in fields(pm) if isinstance(getattr(pm, f.name), np.ndarray)]
        assert arrays == [
            "components", "row_ptr", "row_action", "entry_ptr", "entry_succ", "entry_prob"
        ]
        for name in arrays:
            with pytest.raises(ValueError):
                getattr(pm, name)[0] = 0


# ---------------------------------------------------------------------------
# the array build against the dict search it replaced


def reference_product(model, task, opaque):
    """The reachable product as a FIFO search over dicts: the states in
    order of discovery and, per (state, action), its successors in
    increasing order with their probabilities."""
    a_top, a_bot, bot = model.a_top, model.a_bot, model.bot
    v0 = (model.top, task.initial, opaque.initial)
    index = {v0: 0}
    states = [v0]
    transitions = {}
    frontier = deque([0])
    while frontier:
        v = frontier.popleft()
        s, q, qh = states[v]
        if s == bot:
            continue
        for a in model.enabled(s):
            row = {}
            for t, p in model.successors(s, a):
                if a == a_bot:
                    q2 = q
                    qh2 = opaque.step(qh, END)
                else:
                    q2 = task.step(q, model.label_of(t))
                    qh2 = opaque.step(qh, START if a == a_top else model.obs(s, a, t))
                nxt = (t, q2, qh2)
                w = index.get(nxt)
                if w is None:
                    w = len(states)
                    index[nxt] = w
                    states.append(nxt)
                    frontier.append(w)
                row[w] = row.get(w, 0.0) + p
            transitions[(v, a)] = tuple(sorted(row.items()))
    return tuple(states), transitions


def assert_matches_reference(model, task, opaque):
    pm = product_mdp(model, task, opaque)
    states, transitions = reference_product(model, task, opaque)
    assert pm.states == states
    assert dict(pm.index) == {v: i for i, v in enumerate(states)}
    # the same rows in the same order, each with the same successors in
    # the same order; probabilities compare as floats, so bit for bit
    assert list(pm.transitions.items()) == list(transitions.items())
    assert pm.absorbing_mask.tolist() == [s == model.bot for s, _q, _qh in states]


class TestAgainstReferenceProduct:
    def test_running_example(self, model, task_dfa, opaque_dfa):
        assert_matches_reference(model, task_dfa, opaque_dfa)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models(self, seed):
        m = random_model(seed)
        names = [m.states[i] for i in m.interior_state_indices()]
        secret = dfa_over_model_labels(random_secret_text(seed, names), m)
        task = dfa_over_model_labels(random_secret_text(seed + 100, names), m)
        assert_matches_reference(m, task, opaque_obs_dfa(m, secret))

    def test_empty_language_secret(self, model, task_dfa):
        opaque = opaque_obs_dfa(model, dfa_over_model_labels("true", model))
        assert_matches_reference(model, task_dfa, opaque)

    @pytest.mark.parametrize("secret", ["F B & F A", "F A & G !C"])
    def test_gridworld(self, grid, secret):
        task = dfa_over_model_labels("F C", grid)
        opaque = opaque_obs_dfa(grid, dfa_over_model_labels(secret, grid))
        assert_matches_reference(grid, task, opaque)


@pytest.fixture(scope="module")
def grid():
    return gridworld()


class TestLp:
    def test_table_optima(self, solved):
        for eps, expected in TABLE_OPACITY.items():
            sol = solved[eps]
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(expected, abs=1e-6)

    def test_transparency_optima(self, pm):
        for eps, expected in TABLE_TRANSPARENCY.items():
            sol = solve_lp(build_lp(pm, eps, "transparency"))
            assert sol.objective == pytest.approx(expected, abs=1e-4)

    def test_unconstrained_equals_relaxed(self, pm):
        sol = solve_lp(build_lp(pm, 0.0, "opacity"))
        assert sol.objective == pytest.approx(0.7, abs=1e-6)

    def test_literal_minimization_complements_transparency(self, pm):
        literal = solve_lp(build_lp(pm, 0.4, "min-opacity"))
        dual = solve_lp(build_lp(pm, 0.4, "transparency"))
        assert literal.objective + dual.objective == pytest.approx(1.0, abs=1e-8)

    def test_infeasible_threshold(self, pm):
        sol = solve_lp(build_lp(pm, 1.01, "opacity"))
        assert sol.status == "infeasible"
        assert sol.objective is None
        assert sol.max_feasible_epsilon == pytest.approx(1.0, abs=1e-6)

    def test_flow_residuals(self, solved):
        for sol in solved.values():
            assert sol.flow_residual <= 1e-8

    def test_monotone_in_threshold(self, pm):
        values = [
            solve_lp(build_lp(pm, eps, "opacity")).objective
            for eps in (0.0, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_unknown_mode(self, pm):
        with pytest.raises(PlannerError):
            build_lp(pm, 0.4, "stealth")


class TestPolicy:
    def test_distributions_sum_to_one(self, pm, solved):
        policy = extract_policy(solved[0.4], pm)
        for v, dist in policy.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in dist.values())

    def test_covers_all_non_absorbing_states(self, pm, solved):
        policy = extract_policy(solved[0.4], pm)
        expected = {v for v in range(pm.n_states) if not pm.absorbing_mask[v]}
        assert set(policy) == expected

    def test_zero_occupancy_falls_back_to_termination(self, pm, solved):
        sol = solved[0.4]
        policy = extract_policy(sol, pm)
        a_bot = pm.model.a_bot
        for v, dist in policy.items():
            total = sum(sol.occupancy_of(v, a) for a in pm.enabled(v))
            if total <= 1e-12 and a_bot in pm.enabled(v):
                assert dist[a_bot] == pytest.approx(1.0)

    def test_extraction_requires_optimal(self, pm):
        sol = solve_lp(build_lp(pm, 1.01, "opacity"))
        with pytest.raises(PlannerError):
            extract_policy(sol, pm)

    def test_round_trip_json(self, pm, solved):
        policy = extract_policy(solved[0.6], pm)
        doc = policy_to_dict(policy, pm, {"epsilon": 0.6})
        back = policy_from_dict(doc, pm)
        assert back == policy

    def test_partial_policy_rejected(self, pm, solved):
        policy = extract_policy(solved[0.6], pm)
        doc = policy_to_dict(policy, pm)
        first_key = next(iter(doc["policy"]))
        del doc["policy"][first_key]
        with pytest.raises(PlannerError, match="cover"):
            policy_from_dict(doc, pm)


class TestExport:
    def test_deterministic_bytes(self, pm):
        lp = build_lp(pm, 0.4, "opacity")
        assert export_lp(lp) == export_lp(build_lp(pm, 0.4, "opacity"))

    def test_cross_solve_matches(self, pm, solved):
        for eps, sol in solved.items():
            text = export_lp(build_lp(pm, eps, "opacity"))
            assert solve_lp_text(text) == pytest.approx(sol.objective, abs=1e-6)

    def test_cross_solve_transparency(self, pm):
        lp = build_lp(pm, 0.6, "transparency")
        assert solve_lp_text(export_lp(lp)) == pytest.approx(
            solve_lp(lp).objective, abs=1e-6
        )

    def test_zero_objective_still_parses(self, model):
        trivial = opaque_obs_dfa(model, dfa_over_model_labels("true", model))
        pm = product_mdp(model, dfa_over_model_labels("F s4", model), trivial)
        lp = build_lp(pm, 0.0, "opacity")
        text = export_lp(lp)
        assert solve_lp_text(text) == pytest.approx(0.0, abs=1e-9)

    def test_no_upper_bound_and_cross_solves(self, pm, solved):
        text = export_lp(build_lp(pm, 0.4, "opacity"))
        assert "Bounds" not in text and "<=" not in text
        assert solve_lp_text(text) == pytest.approx(solved[0.4].objective, abs=1e-6)


# ---------------------------------------------------------------------------
# the bisimulation quotient against the unreduced LP


def unreduced_optimum(pm, epsilon, mode):
    """Optimum of the occupancy LP over every product state, assembled
    straight from ``pm.transitions``, with each variable rewarded by the
    probability it sends into absorbing states of the wanted outcome; None
    when infeasible."""
    rows = [v for v in range(pm.n_states) if not pm.absorbing_mask[v]]
    row_of = {v: i for i, v in enumerate(rows)}
    variables = [(v, a) for v in rows for a in pm.enabled(v)]
    a_eq = sp.lil_matrix((len(rows), len(variables)))
    task = np.zeros(len(variables))
    reward = np.zeros(len(variables))
    for j, (v, a) in enumerate(variables):
        a_eq[row_of[v], j] += 1.0
        for t, p in pm.transitions[(v, a)]:
            if not pm.absorbing_mask[t]:
                a_eq[row_of[t], j] -= p
                continue
            task[j] += p * pm.task_accepts[t]
            opaque = pm.opaque_accepts[t]
            reward[j] += p * float(opaque if mode == "opacity" else not opaque)
    b_eq = np.zeros(len(rows))
    b_eq[row_of[pm.initial]] = 1.0
    res = linprog(
        -reward,
        A_ub=-task.reshape(1, -1),
        b_ub=[-epsilon],
        A_eq=a_eq.tocsr(),
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return -res.fun if res.status == 0 else None


def _random_product(seed):
    m = random_model(seed)
    names = [m.states[i] for i in m.interior_state_indices()]
    secret = dfa_over_model_labels(random_secret_text(seed, names), m)
    task = dfa_over_model_labels(random_secret_text(seed + 100, names), m)
    return product_mdp(m, task, opaque_obs_dfa(m, secret))


@pytest.fixture(scope="module")
def products(pm):
    return [pm] + [_random_product(seed) for seed in range(20)]


class TestQuotient:
    def test_optima_match_unreduced_lp(self, products):
        for pm in products:
            for mode in ("opacity", "transparency"):
                for eps in (0.0, 0.3):
                    expected = unreduced_optimum(pm, eps, mode)
                    sol = solve_lp(build_lp(pm, eps, mode))
                    if expected is None:
                        assert sol.status == "infeasible"
                        continue
                    assert sol.status == "optimal"
                    assert sol.objective == pytest.approx(expected, abs=1e-9)
                    values = exact_policy_values(pm, extract_policy(sol, pm))
                    value = values["ph" if mode == "opacity" else "pt"]
                    assert value == pytest.approx(sol.objective, abs=1e-7)
                    assert values["task"] >= eps - 1e-7

    def test_blocks_are_stable(self, products):
        for pm in products:
            quotient = pm.quotient
            block = quotient.block
            for v in range(pm.n_states):
                rep = quotient.representatives[block[v]]
                assert rep <= v
                assert pm.absorbing_mask[v] == pm.absorbing_mask[rep]
                if pm.absorbing_mask[v]:
                    assert pm.opaque_accepts[v] == pm.opaque_accepts[rep]
                    assert pm.task_accepts[v] == pm.task_accepts[rep]
                    continue
                assert pm.enabled(v) == pm.enabled(rep)
                for a in pm.enabled(v):
                    mine, theirs = {}, {}
                    for dist, out in ((pm.transitions[(v, a)], mine),
                                      (pm.transitions[(rep, a)], theirs)):
                        for t, p in dist:
                            out[block[t]] = out.get(block[t], 0.0) + p
                    assert mine.keys() == theirs.keys()
                    for b, p in mine.items():
                        assert p == pytest.approx(theirs[b], abs=1e-12)

    def test_policy_terminates_on_small_gridworld(self):
        # the optimal face here holds zero-reward circulations; the
        # solver's vertex holds none, so its policy stops with probability
        # 1 (exact evaluation raises otherwise) and attains the optimum
        model = gridworld(GridworldConfig(
            width=4, height=3, plant_cell=3, control_cells=(11,), data_cells=(4,),
            alarm_cells=(1,), wall_cells=(6,), init_cell=8,
            binary_sensors=(Sensor("1", (0, 4, 5)), Sensor("2", (2, 3, 7))),
            precision_sensors=(Sensor("5", (4, 8, 9)),),
            drone=DroneConfig((10, 11, 7), 0.65),
        ))
        pm = product_mdp(
            model,
            dfa_over_model_labels("F C", model),
            opaque_obs_dfa(model, dfa_over_model_labels("F B & F A", model)),
        )
        sol = solve_lp(build_lp(pm, 0.4, "opacity"))
        assert sol.objective == pytest.approx(0.6, abs=1e-6)
        values = exact_policy_values(pm, extract_policy(sol, pm))
        assert values["ph"] == pytest.approx(sol.objective, abs=1e-9)

    def test_running_example_shrinks(self, pm):
        assert pm.quotient is pm.quotient
        assert pm.quotient.n_blocks < pm.n_states
        lp = build_lp(pm, 0.4, "opacity")
        reps = pm.quotient.representatives
        assert len(lp.rows) == sum(not pm.absorbing_mask[v] for v in reps)

    def test_coefficients_are_absorbed_mass(self, products):
        # the objective and the task row score where a run stops: each
        # coefficient is the probability the variable's (state, action)
        # moves into an absorbing state with that outcome
        for pm in products:
            for mode in ("opacity", "transparency", "min-opacity"):
                lp = build_lp(pm, 0.0, mode)
                for j, (v, a) in enumerate(lp.variables):
                    stops = [(t, p) for t, p in pm.transitions[(v, a)] if pm.absorbing_mask[t]]
                    opaque = sum(p for t, p in stops if pm.opaque_accepts[t])
                    transparent = sum(p for t, p in stops if not pm.opaque_accepts[t])
                    task = sum(p for t, p in stops if pm.task_accepts[t])
                    wanted = transparent if mode == "transparency" else opaque
                    assert lp.objective[j] == wanted
                    assert lp.task_row[j] == task
