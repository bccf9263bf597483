import hashlib
import json
import os
import re
import subprocess
import sys
from collections import deque
from dataclasses import fields
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
import scipy
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

from opaque_planner.automata import IncompleteDfaError
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.model import (
    A_BOT, A_TOP, END, S_BOT, S_TOP, START, assemble, obs_of_play, validate,
)
from opaque_planner import planner
from opaque_planner.planner import (
    FEASIBILITY_TOL,
    MODES,
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
from opaque_planner.simulate import (
    SimulationError, enumerate_plays, exact_policy_values, uniform_policy,
)
from opaque_planner.transducer import opaque_obs_dfa

from helpers import (
    GRIDWORLD_BUILD_SECRETS,
    block_occupancy,
    dfa_from_moves,
    play_inputs,
    product_index,
    product_states,
    random_model,
    random_secret_text,
    reference_quotient,
)
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
        states = product_states(pm)
        for (v, a), dist in pm.transitions.items():
            s = states[v][0]
            model_dist = {t: p for t, p in model.successors(s, a)}
            assert {states[w][0]: p for w, p in dist} == model_dist

    def test_rows_are_stochastic(self, pm):
        for (v, a), dist in pm.transitions.items():
            assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-9)

    def test_single_automaton_successor_per_edge(self, pm):
        for (v, a), dist in pm.transitions.items():
            targets = [w for w, _ in dist]
            assert len(targets) == len(set(targets))

    def test_initial_components(self, pm, model, task_dfa, opaque_dfa):
        s, q, qh = product_states(pm)[pm.initial]
        assert s == model.top
        assert q == task_dfa.initial
        assert qh == opaque_dfa.initial

    def test_task_reward_from_initial_entry(self, pm, model):
        # the task is rewarded on termination only, and only in its
        # accepting set, which the initial state of F s4 is not
        lp = build_lp(pm, 0)
        v0 = product_index(pm)[(model.top, pm.task.initial, pm.opaque.initial)]
        quotient = pm.quotient
        b = quotient.block[v0]
        cols = np.arange(quotient.row_ptr[b], quotient.row_ptr[b + 1])  # the block's variables
        (j,) = cols[lp.variables[cols, 1] == model.a_top]
        assert lp.variables[j, 0] == quotient.representatives[b]
        assert lp.task_row[j] == 0.0  # s1 is not accepting for F s4

    def test_opacity_reward_tracks_prefix_acceptance(self, pm, model, opaque_dfa):
        # walking any short play through the product, terminating stops in
        # an opaque-accepting state exactly when the observation so far,
        # closed with the end marker, is an opaque word
        states = product_states(pm)
        for play in enumerate_plays(model, max_actions=4):
            v = pm.initial
            inputs = play_inputs(model, play)
            for (s, a, t) in inputs[:-1]:
                dist = dict(pm.transitions[(v, a)])
                matches = [
                    w for w in dist if states[w][0] == t
                ]
                assert len(matches) == 1
                v = matches[0]
            word = obs_of_play(model, play)
            expected = opaque_dfa.accepts(word)
            ((t, _p),) = pm.transitions[(v, model.a_bot)]
            assert pm.opaque_accepts[t] == expected

    def test_incomplete_opaque_rejected(self, model, task_dfa, opaque_dfa):
        broken = dfa_from_moves(
            opaque_dfa.alphabet,
            {k: v for k, v in opaque_dfa.transitions.items() if k[1] != END},
            opaque_dfa.initial,
            opaque_dfa.accepting,
            opaque_dfa.state_names,
        )
        with pytest.raises(IncompleteDfaError):
            product_mdp(model, task_dfa, broken)

    def test_incomplete_task_rejected(self, model, task_dfa, opaque_dfa):
        letter = model.label_letters[0]
        broken = dfa_from_moves(
            task_dfa.alphabet,
            {k: v for k, v in task_dfa.transitions.items() if k[1] != letter},
            task_dfa.initial,
            task_dfa.accepting,
            task_dfa.state_names,
        )
        with pytest.raises(IncompleteDfaError):
            product_mdp(model, broken, opaque_dfa)

    def test_views_are_read_only(self, pm):
        with pytest.raises(TypeError):
            pm.transitions[(0, 0)] = ()
        arrays = [f.name for f in fields(pm) if isinstance(getattr(pm, f.name), np.ndarray)]
        assert arrays == [
            "row_ptr", "row_action", "entry_ptr", "entry_succ", "components", "entry_prob"
        ]
        for name in arrays:
            with pytest.raises(ValueError):
                getattr(pm, name)[0] = 0

    @pytest.mark.parametrize(
        "owner, name",
        [("model", name) for name in ("row_state", "entry_state", "entry_action", "state_label")]
        + [("pm", name) for name in ("row_state", "entry_state", "entry_action", "absorbing_mask",
                                     "task_accepts", "opaque_accepts")]
        + [("quotient", "block")],
    )
    def test_cached_arrays_are_read_only(self, model, pm, owner, name):
        # each is built once and shared by every later reader: a write
        # would corrupt every later product, LP or policy
        array = getattr({"model": model, "pm": pm, "quotient": pm.quotient}[owner], name)
        with pytest.raises(ValueError):
            array[0] = array[0]


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
    assert product_states(pm) == states
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

    def test_max_feasible_epsilon_is_a_probability(self, pm, model, opaque_dfa):
        # HiGHS maximizes the task row to 1.0000000000000002 on this product,
        # and to -0.0 where no run satisfies the task
        assert pm.max_feasible_epsilon == 1.0
        never = product_mdp(model, dfa_over_model_labels("false", model), opaque_dfa)
        assert str(never.max_feasible_epsilon) == "0.0"

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

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold(self, pm, epsilon):
        with pytest.raises(PlannerError, match="must be finite"):
            build_lp(pm, epsilon)


class TestPolicy:
    def test_distributions_sum_to_one(self, pm, solved):
        policy = extract_policy(solved[0.4], pm)
        assert policy.dtype == np.float64 and policy.shape == pm.row_action.shape
        for v in np.flatnonzero(~pm.absorbing_mask):
            dist = policy[pm.row_ptr[v] : pm.row_ptr[v + 1]]
            assert sum(dist) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in dist)

    def test_covers_all_non_absorbing_states(self, pm, solved):
        policy = extract_policy(solved[0.4], pm)
        mass = np.bincount(pm.row_state, weights=policy, minlength=pm.n_states)
        assert np.array_equal(mass > 0, ~pm.absorbing_mask)

    def test_zero_occupancy_falls_back_to_termination(self, pm, solved):
        sol = solved[0.4]
        policy = extract_policy(sol, pm)
        a_bot = pm.model.a_bot
        for v in np.flatnonzero(~pm.absorbing_mask):
            if block_occupancy(sol, v) <= 1e-12 and a_bot in pm.enabled(v):
                assert policy[pm.rows_of([v], [a_bot])[0]] == pytest.approx(1.0)

    def test_extraction_requires_optimal(self, pm):
        sol = solve_lp(build_lp(pm, 1.01, "opacity"))
        with pytest.raises(PlannerError):
            extract_policy(sol, pm)

    @pytest.mark.parametrize("secret", ["G !s7", "F s6"])
    def test_solution_of_another_product_rejected(self, model, task_dfa, solved, secret):
        # another secret, or the same one in a product built anew: the
        # solution's columns are another quotient's
        other = product_mdp(model, task_dfa, opaque_obs_dfa(model, dfa_over_model_labels(secret, model)))
        with pytest.raises(PlannerError, match="another product"):
            extract_policy(solved[0.4], other)

    def test_round_trip_json(self, pm, solved):
        policy = extract_policy(solved[0.6], pm)
        text = json.dumps(policy_to_dict(policy, pm, {"epsilon": 0.6}), sort_keys=True)
        back = policy_from_dict(json.loads(text), pm)
        assert np.array_equal(back, policy)
        assert json.dumps(policy_to_dict(back, pm, {"epsilon": 0.6}), sort_keys=True) == text

    def test_partial_policy_rejected(self, pm, solved):
        policy = extract_policy(solved[0.6], pm)
        doc = policy_to_dict(policy, pm)
        first_key = next(iter(doc["policy"]))
        del doc["policy"][first_key]
        with pytest.raises(PlannerError, match="cover"):
            policy_from_dict(doc, pm)

    @pytest.mark.parametrize("absorbing", [False, True], ids=["not-enabled", "absorbing-state"])
    def test_action_not_enabled(self, pm, solved, absorbing):
        # a non-absorbing state given a_top, which only the initial state
        # enables, or an absorbing state, which enables no action, given a_bot
        v = next(v for v in range(1, pm.n_states) if pm.absorbing_mask[v] == absorbing)
        action = pm.model.a_bot if absorbing else pm.model.a_top
        assert action not in pm.enabled(v)
        name, state = pm.model.actions[action], pm.state_name(v)
        doc = policy_to_dict(extract_policy(solved[0.6], pm), pm)
        doc["policy"][state] = {name: 1.0}
        with pytest.raises(PlannerError, match=rf"{name}.*not enabled.*{re.escape(state)}"):
            policy_from_dict(doc, pm)

    @pytest.mark.parametrize("doc", [None, [], "policy"], ids=["null", "list", "string"])
    def test_document_not_an_object(self, pm, doc):
        with pytest.raises(PlannerError, match='needs a "policy" object'):
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


def _small_gridworld():
    return gridworld(GridworldConfig(
        width=4, height=3, plant_cell=3, control_cells=(11,), data_cells=(4,),
        alarm_cells=(1,), wall_cells=(6,), init_cell=8,
        binary_sensors=(Sensor("1", (0, 4, 5)), Sensor("2", (2, 3, 7))),
        precision_sensors=(Sensor("5", (4, 8, 9)),),
        drone=DroneConfig((10, 11, 7), 0.65),
    ))


def _gridworld_product(model, secret_text):
    """The product of a gridworld with the task ``F C`` and a secret's
    opaque-observations DFA."""
    return product_mdp(
        model,
        dfa_over_model_labels("F C", model),
        opaque_obs_dfa(model, dfa_over_model_labels(secret_text, model)),
    )


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
        pm = _gridworld_product(_small_gridworld(), "F B & F A")
        sol = solve_lp(build_lp(pm, 0.4, "opacity"))
        assert sol.objective == pytest.approx(0.6, abs=1e-6)
        values = exact_policy_values(pm, extract_policy(sol, pm))
        assert values["ph"] == pytest.approx(sol.objective, abs=1e-9)

    @pytest.mark.parametrize(
        "case", ["running-example", *range(40), "gridworld-4x3", *GRIDWORLD_BUILD_SECRETS]
    )
    def test_matches_full_refinement(self, pm, case):
        # stability alone (test_blocks_are_stable) holds for any finer
        # partition too; the full-refinement oracle pins coarsest-ness.
        # An int is a _random_product seed, a formula a secret on the
        # default gridworld
        if case == "running-example":
            product = pm
        elif case == "gridworld-4x3":
            product = _gridworld_product(_small_gridworld(), "F B & F A")
        elif isinstance(case, int):
            product = _random_product(case)
        else:
            product = _gridworld_product(gridworld(), case)
        got, want = product.quotient, reference_quotient(product)
        for name in ("block", "representatives", "row_ptr", "product_row"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.rounds == want.rounds

    def test_rows_are_the_representatives_actions(self, products):
        # block b owns one row per action its representative enables, in
        # increasing order, as the product's transitions name them; an
        # absorbing block owns none.  The LP's rows and variables read them
        for pm in products:
            quotient = pm.quotient
            assert quotient.row_ptr[0] == 0
            assert len(quotient.row_ptr) == quotient.n_blocks + 1
            for b, rep in enumerate(quotient.representatives.tolist()):
                actions = sorted(a for (u, a) in pm.transitions if u == rep)
                rows = quotient.product_row[quotient.row_ptr[b] : quotient.row_ptr[b + 1]]
                assert rows.tolist() == pm.rows_of([rep] * len(actions), actions).tolist()
            lp = build_lp(pm, 0.0).model
            absorbing = pm.absorbing_mask[quotient.representatives]
            assert lp.rows.tolist() == quotient.representatives[~absorbing].tolist()
            rows = quotient.product_row
            assert lp.variables.tolist() == [
                [int(pm.row_state[r]), int(pm.row_action[r])] for r in rows.tolist()
            ]

    def test_arrays_are_read_only(self, products):
        # every later solve of the product reuses its quotient and LPs
        for pm in products:
            quotient = pm.quotient
            for mode in MODES:
                lp = build_lp(pm, 0.0, mode).model
                held = [
                    quotient.block, quotient.representatives, quotient.row_ptr,
                    quotient.product_row, lp.variables, lp.rows, lp.objective, *lp.flow,
                    lp.b_eq, lp.task_row, lp.cost, lp.start_policy[0],
                ]
                # and whatever else either holds, the cached fields included
                for value in (*vars(quotient).values(), *vars(lp).values()):
                    held.extend(value if isinstance(value, tuple) else (value,))
                arrays = [a for a in held if isinstance(a, np.ndarray)]
                assert len(arrays) >= 16
                assert [a.flags.writeable for a in arrays] == [False] * len(arrays)

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


# ---------------------------------------------------------------------------
# one HiGHS instance per product and mode, warm-started across thresholds

#: the HiGHS options solve_lp sets, as scipy's linprog takes them
COLD_OPTIONS = {
    "primal_feasibility_tolerance": FEASIBILITY_TOL,
    "dual_feasibility_tolerance": FEASIBILITY_TOL,
}
#: Table I/II's thresholds with a slack one, one between and an infeasible one
SWEEP = {
    "ascending": (0.3, 0.4, 0.6, 0.7, 0.8, 1.01),
    "descending": (1.01, 0.8, 0.7, 0.6, 0.4, 0.3),
    "shuffled": (0.7, 0.3, 1.01, 0.6, 0.8, 0.4),
}
GRID_SWEEP = {
    "ascending": (0.4, 0.6, 0.8),
    "descending": (0.8, 0.6, 0.4),
    "shuffled": (0.6, 0.8, 0.4),
}


def cold_solve(lp):
    """The LP solved from scratch by ``linprog``, the oracle of the warm
    solves: its own HiGHS instance, the same options."""
    return linprog(
        c=(-1.0 if lp.maximize else 1.0) * lp.objective,
        A_ub=sp.csr_matrix(-lp.task_row.reshape(1, -1)),
        b_ub=np.array([-lp.epsilon]),
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=(0.0, None),
        method="highs-ds",
        options=COLD_OPTIONS,
    )


def start_policy_occupancy(lp):
    """The occupancy of ``lp``'s start policy: its columns solve the flow
    rows, the others are zero."""
    policy, _ = lp.start_policy
    x = np.zeros(len(lp.variables))
    x[policy] = splu(lp.a_eq.tocsc()[:, policy]).solve(lp.b_eq)
    return x


def assert_sweep_matches(pm, mode, order, cold):
    """Solve ``pm``'s LP at each threshold of ``order``, one product and
    mode, so one instance: the first solve starts at the start policy's
    vertex, and stays there exactly when that policy meets the threshold;
    every optimum is ``cold``'s within ``FEASIBILITY_TOL``; and each
    vertex's policy attains its objective and the threshold exactly."""
    for k, eps in enumerate(order):
        lp = build_lp(pm, eps, mode)
        sol, ref = solve_lp(lp), cold[eps]
        if ref.status == 2:
            assert sol.status == "infeasible", (order, eps)
            continue
        assert sol.status == "optimal", (order, eps)
        if k == 0:
            start = start_policy_occupancy(lp)
            if lp.task_row @ start >= eps - FEASIBILITY_TOL:
                assert sol.iterations == 0, (order, eps)
                assert np.abs(sol.occupancy - start).max() <= FEASIBILITY_TOL
                assert sol.task_dual == 0.0
            else:
                assert sol.iterations > 0, (order, eps)
        assert abs(sol.objective - lp.objective @ ref.x) <= FEASIBILITY_TOL, (order, eps)
        assert sol.task_dual >= -FEASIBILITY_TOL
        values = exact_policy_values(pm, extract_policy(sol, pm))
        assert values["pt" if mode == "transparency" else "ph"] == pytest.approx(
            sol.objective, abs=1e-7
        )
        assert values["task"] >= eps - 1e-7


@pytest.fixture(scope="module")
def grid_automata(grid):
    task = dfa_over_model_labels("F C", grid)
    return task, opaque_obs_dfa(grid, dfa_over_model_labels("F B & F A", grid))


@pytest.fixture(scope="module")
def grid_cold(grid, grid_automata):
    pm = product_mdp(grid, *grid_automata)
    return {eps: cold_solve(build_lp(pm, eps, "opacity")) for eps in GRID_SWEEP["ascending"]}


class TestWarmStart:
    @pytest.mark.parametrize("order", SWEEP)
    @pytest.mark.parametrize("mode", ["opacity", "transparency", "min-opacity"])
    def test_running_example_orders(self, model, task_dfa, opaque_dfa, pm, mode, order):
        cold = {eps: cold_solve(build_lp(pm, eps, mode)) for eps in SWEEP[order]}
        fresh = product_mdp(model, task_dfa, opaque_dfa)
        assert_sweep_matches(fresh, mode, SWEEP[order], cold)

    @pytest.mark.parametrize("order", GRID_SWEEP)
    def test_gridworld_orders(self, grid, grid_automata, grid_cold, order):
        assert_sweep_matches(product_mdp(grid, *grid_automata), "opacity", GRID_SWEEP[order], grid_cold)

    def test_one_instance_per_product_and_mode(self, model, task_dfa, opaque_dfa):
        pm = product_mdp(model, task_dfa, opaque_dfa)
        first, second = build_lp(pm, 0.4, "opacity"), build_lp(pm, 0.8, "opacity")
        assert first.model is second.model and first.highs is second.highs
        assert build_lp(pm, 0.4, "transparency").model is not first.model
        # the first build made every mode's model, in a read-only mapping
        assert list(pm.lp_models) == list(MODES)
        with pytest.raises(TypeError):
            pm.lp_models["opacity"] = first.model
        with pytest.raises(TypeError):
            del pm.lp_models["transparency"]
        models = [pm.lp_models[mode] for mode in MODES]
        assert [lp.mode for lp in models] == list(MODES)
        assert all(build_lp(pm, 0.6, mode).model is lp for mode, lp in zip(MODES, models))
        # the modes share every array but the objective, and min-opacity
        # shares opacity's
        for name in ("variables", "rows", "flow", "flow_col", "b_eq", "task_row"):
            assert all(getattr(lp, name) is getattr(first.model, name) for lp in models), name
        opacity, transparency, min_opacity = models
        assert min_opacity.objective is opacity.objective
        assert transparency.objective is not opacity.objective
        # each mode has its own HiGHS instance
        assert len({id(lp.highs) for lp in models}) == len(MODES)

    def test_an_infeasible_solve_builds_one_lp(self, model, task_dfa, opaque_dfa, monkeypatch):
        # the largest feasible threshold reads the rows every mode shares
        calls = []
        flow_matrix = planner._flow_matrix
        monkeypatch.setattr(planner, "_flow_matrix", lambda *args: calls.append(args) or flow_matrix(*args))
        pm = product_mdp(model, task_dfa, opaque_dfa)
        sol = solve_lp(build_lp(pm, 1.01, "transparency"))
        assert sol.status == "infeasible"
        assert sol.max_feasible_epsilon == pytest.approx(1.0, abs=1e-9)
        assert len(calls) == 1

    def test_task_dual(self, model, task_dfa, opaque_dfa):
        pm = product_mdp(model, task_dfa, opaque_dfa)
        # 0 where the task row is slack; Table I's slope between 0.6 and 0.8
        assert solve_lp(build_lp(pm, 0.3, "opacity")).task_dual == 0.0
        assert solve_lp(build_lp(pm, 0.7, "opacity")).task_dual == pytest.approx(1.0, abs=1e-9)
        # Table II is linear in the threshold: the dual is its finite difference
        low, high = (solve_lp(build_lp(pm, eps, "transparency")).objective for eps in (0.4, 0.6))
        dual = solve_lp(build_lp(pm, 0.5, "transparency")).task_dual
        assert dual == pytest.approx((low - high) / 0.2, abs=1e-9)
        assert dual == pytest.approx(0.042857, abs=1e-6)

    def test_task_dual_at_a_breakpoint(self, model, task_dfa, opaque_dfa):
        # Table I bends at 0.5: flat at 0.7 below it, slope -1 above.  There
        # the dual is one of the two one-sided slopes, chosen by the basis
        # the solve starts from, so a warm and a fresh solve may differ
        def solve(pm, eps):
            return solve_lp(build_lp(pm, eps, "opacity"))

        pm = product_mdp(model, task_dfa, opaque_dfa)
        at, below, above = (solve(pm, eps).objective for eps in (0.5, 0.49, 0.51))
        slopes = sorted(((below - at) / 0.01, (at - above) / 0.01))
        assert slopes == pytest.approx([0.0, 1.0], abs=1e-6)
        warm = product_mdp(model, task_dfa, opaque_dfa)
        for eps in (0.4, 0.6, 0.8, 0.3, 0.7):
            solve(warm, eps)
        for sol in (solve(warm, 0.5), solve(product_mdp(model, task_dfa, opaque_dfa), 0.5)):
            assert sol.objective == pytest.approx(0.7, abs=FEASIBILITY_TOL)
            assert slopes[0] - 1e-6 <= sol.task_dual <= slopes[1] + 1e-6

    def test_infeasible_then_feasible(self, model, task_dfa, opaque_dfa):
        pm = product_mdp(model, task_dfa, opaque_dfa)
        sol = solve_lp(build_lp(pm, 1.01, "opacity"))
        assert sol.status == "infeasible"
        assert sol.max_feasible_epsilon == pytest.approx(1.0, abs=1e-9)
        sol = solve_lp(build_lp(pm, 0.6, "opacity"))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.6, abs=FEASIBILITY_TOL)

    def test_max_feasible_epsilon_per_product(self, products):
        # the task row maximized over the flow rows, as a cold solve of its own
        for pm in products:
            lp = build_lp(pm, 0.0)
            best = linprog(
                -lp.task_row, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0.0, None),
                method="highs", options=COLD_OPTIONS,
            )
            assert pm.max_feasible_epsilon == min(1.0, max(0.0, -best.fun))
            for mode in ("opacity", "transparency", "min-opacity"):
                sol = solve_lp(build_lp(pm, 1.5, mode))
                assert sol.status == "infeasible"
                assert sol.max_feasible_epsilon == pm.max_feasible_epsilon

    def test_export_is_unchanged(self, pm):
        # the recorded text of the running example's LPs at 0.6, before and
        # after solving on the instance
        recorded = {
            "opacity": "a76541015fc69a44da06978a14827e15ce1151d549423e4900f78ef3e66f41ba",
            "transparency": "e5732c4d364ac709cf7dfa6ea6c3e4f28211eb055b1358202457c50c1f4537a7",
            "min-opacity": "b3650f7cb3d06b9f2da304dda3ce4510e6ee90d8f291d0b95534c774461a85dd",
        }
        for mode, digest in recorded.items():
            lp = build_lp(pm, 0.6, mode)
            text = export_lp(lp)
            assert hashlib.sha256(text.encode()).hexdigest() == digest
            solve_lp(build_lp(pm, 0.8, mode))
            solve_lp(lp)
            assert export_lp(lp) == text

    def test_without_the_binding_solving_fails_clearly(self, model, task_dfa, opaque_dfa, monkeypatch):
        monkeypatch.setattr(planner, "highspy", None)
        lp = build_lp(product_mdp(model, task_dfa, opaque_dfa), 0.4)
        with pytest.raises(PlannerError, match="HiGHS binding"):
            solve_lp(lp)


# ---------------------------------------------------------------------------
# the first solve starts from policy iteration's optimal policy


def start_policy_value(lp):
    """The objective of ``lp``'s start policy from the initial block: its
    value there, solved from the policy's own columns."""
    policy, _ = lp.start_policy
    values = splu(lp.a_eq.tocsc()[:, policy]).solve(lp.objective[policy], trans="T")
    return values[lp.pm.quotient.block[lp.pm.initial]]


def assert_start_policy_is_optimal(pm, mode):
    """At threshold 0 the task row is slack, so the LP optimum is the start
    policy's value, and the extracted policy attains it."""
    lp = build_lp(pm, 0.0, mode)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(start_policy_value(lp), abs=1e-9)
    values = exact_policy_values(pm, extract_policy(sol, pm))
    value = values["pt" if mode == "transparency" else "ph"]
    assert value == pytest.approx(sol.objective, abs=1e-9)


#: the moves of ``trap_model``'s trap, which no run leaves
TRAPS = {
    # the start policy's factor is exactly singular
    "self-loop": {("s2", "a"): {"s2": 1.0}},
    # rounding leaves the factor regular, with values near 1e16
    "cycle": {("s2", "a"): {"s2": 0.1, "s4": 0.9}, ("s4", "b"): {"s2": 0.3, "s4": 0.7}},
}


def trap_model(trap):
    """A model that ``validate`` rejects: ``s1``'s action ``a`` may enter
    ``s2``, and no policy stops from there."""
    moves = {
        (S_TOP, A_TOP): {"s1": 1.0},
        ("s1", "a"): {"s2": 0.5, "s3": 0.5},
        ("s1", "b"): {"s3": 1.0},
        ("s1", A_BOT): {S_BOT: 1.0},
        ("s3", "a"): {"s1": 1.0},
        ("s3", A_BOT): {S_BOT: 1.0},
        (S_BOT, "a"): {S_BOT: 1.0},
        (S_BOT, "b"): {S_BOT: 1.0},
        **trap,
    }
    observations = {
        (s, a, t): ["s2", "s3"] if t in ("s2", "s3") else [t]
        for (s, a), dist in moves.items()
        if s not in (S_TOP, S_BOT) and a != A_BOT
        for t in dist
    }
    return assemble(
        [S_TOP, "s1", "s2", "s3", "s4", S_BOT],
        [A_TOP, "a", "b", A_BOT],
        moves,
        {"s1": ["p"], "s2": ["q"], "s3": ["r"], "s4": ["q"]},
        observations,
    )


class TestStartPolicy:
    @pytest.mark.parametrize("mode", ["opacity", "transparency", "min-opacity"])
    def test_running_example(self, model, task_dfa, opaque_dfa, mode):
        pm = product_mdp(model, task_dfa, opaque_dfa)
        assert_start_policy_is_optimal(pm, mode)
        assert solve_lp(build_lp(pm, 0.0, mode)).iterations == 0

    def test_products(self, products):
        for pm in products[1:]:
            for mode in ("opacity", "transparency", "min-opacity"):
                assert_start_policy_is_optimal(pm, mode)

    def test_gridworld(self, grid, grid_automata):
        pm = product_mdp(grid, *grid_automata)
        assert_start_policy_is_optimal(pm, "opacity")
        assert build_lp(pm, 0.0).start_policy_rounds == 22

    def test_gridworld_sweep_iterations(self, grid, grid_automata):
        # the cold start took 2,603 + 95 + 41 iterations on this sweep
        pm = product_mdp(grid, *grid_automata)
        iterations = [solve_lp(build_lp(pm, eps)).iterations for eps in (0.4, 0.6, 0.8)]
        assert sum(iterations) <= 500, iterations

    @pytest.mark.parametrize("trap", TRAPS)
    @pytest.mark.parametrize("mode", ["opacity", "transparency", "min-opacity"])
    def test_improper_start_policy_passes_no_basis(self, mode, trap):
        model = trap_model(TRAPS[trap])
        assert validate(model)
        pm = product_mdp(
            model,
            dfa_over_model_labels("F r", model),
            opaque_obs_dfa(model, dfa_over_model_labels("F q | F r", model)),
        )
        for eps in (0.0, 0.5, 1.0):
            lp = build_lp(pm, eps, mode)
            policy, rounds = lp.start_policy
            assert policy is None and rounds == 0
            sol, ref = solve_lp(lp), cold_solve(lp)
            assert sol.status == "optimal" and ref.status == 0
            assert abs(sol.objective - lp.objective @ ref.x) <= FEASIBILITY_TOL


#: reduced costs with ties, zeros of both signs and values within the
#: tolerance of zero
COSTS = st.one_of(
    st.sampled_from([-1.5, -1e-12, -0.0, 0.0, 1e-12, 2.0]),
    st.floats(-1e3, 1e3, allow_subnormal=False),
)


@given(st.lists(st.lists(COSTS, min_size=1, max_size=5), min_size=1, max_size=8))
@example([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0, 0.0]])
@example([[1.0], [-2.0], [0.0]])  # single-column rows
@example([[2.0, 1.0, 1.0, 3.0, 1.0], [5.0]])
def test_pricing_takes_the_first_cheapest_column(rows):
    # policy iteration's pricing against the lexsort it replaced
    reduced = np.array([cost for row in rows for cost in row])
    width = np.array([len(row) for row in rows])
    var_ptr = np.cumsum(width) - width
    owner = np.repeat(np.arange(len(rows)), width)
    assert np.array_equal(planner._first_minima(reduced, var_ptr), np.lexsort((reduced, owner))[var_ptr])


def test_scipy_ships_the_highs_binding():
    # what solve_lp uses of scipy's HiGHS binding, present since scipy 1.15,
    # as the package's loader found it; pyproject.toml asks for the release
    # the package is tested on
    _core = planner.highspy
    assert _core is not None

    assert _core.MatrixFormat.kColwise is not None
    assert {"kOptimal", "kInfeasible"} <= set(_core.HighsModelStatus.__members__)
    for name in ("passModel", "setOptionValue", "changeRowBounds", "setBasis", "run",
                 "getModelStatus", "modelStatusToString", "getInfo", "getSolution"):
        assert callable(getattr(_core._Highs, name, None)), name
    assert {"kBasic", "kLower"} <= set(_core.HighsBasisStatus.__members__)
    basis = _core.HighsBasis()
    for field in ("col_status", "row_status", "valid"):
        assert hasattr(basis, field), field
    lp = _core.HighsLp()
    for field in ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_",
                  "row_lower_", "row_upper_", "a_matrix_"):
        assert hasattr(lp, field), field


def test_scipy_ships_superlu():
    # what policy iteration and exact evaluation call of scipy's SuperLU
    # wrapper, as the package's loader found it, with the arguments scipy's
    # splu passes
    assert planner.superlu is not None
    ptr, row, value = np.array([0, 2, 3]), np.array([0, 1, 1]), np.array([2.0, 1.0, 4.0])
    lu = planner._splu(ptr, row, value)  # [[2, 0], [1, 4]]
    assert np.allclose(lu.solve(np.array([2.0, 9.0])), [1.0, 2.0])
    assert np.allclose(lu.solve(np.array([4.0, 4.0]), trans="T"), [1.5, 1.0])


# ---------------------------------------------------------------------------
# scipy's HiGHS and SuperLU extensions are loaded without scipy.optimize and
# scipy.sparse, and only once

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(script):
    """Run ``script`` in a fresh interpreter that imports the package from
    the checkout's ``src``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


def test_importing_the_package_leaves_scipy_optimize_out():
    # nor does a pass through the pipeline load scipy.sparse, or numpy.ma,
    # which np.unique imports on its first call without return_index
    run_python(
        "import sys\n"
        "import opaque_planner\n"
        "from opaque_planner import (build_lp, dfa_over_model_labels, exact_policy_values,\n"
        "    extract_policy, gridworld, opaque_obs_dfa, product_mdp, rollout, running_example,\n"
        "    solve_lp)\n"
        "from opaque_planner import planner\n"
        "m = running_example()\n"
        "opaque = opaque_obs_dfa(m, dfa_over_model_labels('F s6', m))\n"
        "pm = product_mdp(m, dfa_over_model_labels('F s4', m), opaque)\n"
        "policy = extract_policy(solve_lp(build_lp(pm, 0.6)), pm)\n"
        "assert exact_policy_values(pm, policy)['ph'] > 0.0\n"
        "assert rollout(pm, policy, runs=20, seed=1).runs == 20\n"
        "g = gridworld()\n"
        "opaque = opaque_obs_dfa(g, dfa_over_model_labels('F B & F A', g))\n"
        "assert product_mdp(g, dfa_over_model_labels('F C', g), opaque).n_states > 0\n"
        "heavy = {'scipy.sparse', 'scipy.sparse.linalg', 'scipy.sparse.csgraph',\n"
        "         'scipy.optimize', 'scipy.special', 'scipy.fft', 'numpy.f2py', 'numpy.ma'}\n"
        "loaded = heavy & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        f"assert planner.highspy is sys.modules[{planner.HIGHSPY!r}]\n"
        f"assert planner.superlu is sys.modules[{planner.SUPERLU!r}]\n"
    )


def test_the_package_reuses_the_binding_scipy_optimize_loaded():
    run_python(
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "from opaque_planner import planner\n"
        "assert planner.highspy is _core\n"
    )


def test_linprog_solves_after_the_package_loaded_the_binding():
    run_python(
        "from opaque_planner import planner\n"
        "from scipy.optimize import linprog\n"
        "from scipy.optimize._highspy import _core\n"
        "res = linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method='highs-ds')\n"
        "assert res.status == 0 and res.fun == 1.0, res\n"
        "assert _core is planner.highspy\n"
    )


def test_the_package_reuses_the_superlu_scipy_sparse_loaded():
    run_python(
        "import scipy.sparse.linalg\n"
        "from scipy.sparse.linalg._dsolve import _superlu\n"
        "from opaque_planner import planner\n"
        "assert planner.superlu is _superlu\n"
    )


def test_splu_and_spsolve_solve_after_the_package_loaded_superlu():
    run_python(
        "import numpy as np\n"
        "from opaque_planner import planner\n"
        "from scipy.sparse import csc_array\n"
        "from scipy.sparse.linalg import splu, spsolve\n"
        "from scipy.sparse.linalg._dsolve import _superlu\n"
        "a = csc_array(np.array([[2.0, 0.0], [1.0, 4.0]]))\n"
        "assert np.allclose(spsolve(a, np.array([2.0, 9.0])), [1.0, 2.0])\n"
        "lu = splu(a)\n"
        "assert np.allclose(lu.solve(np.array([2.0, 9.0])), [1.0, 2.0])\n"
        "assert lu.L.shape == (2, 2)\n"
        "assert _superlu is planner.superlu\n"
    )


def unloadable(tmp_path, name, broken):
    """Point scipy's path at ``tmp_path``, which holds no loadable
    extension ``name``: no directory for it, or a file that is not a
    shared object."""
    if broken:
        *parents, leaf = name.split(".")[1:]
        where = tmp_path.joinpath(*parents)
        where.mkdir(parents=True)
        (where / f"{leaf}{EXTENSION_SUFFIXES[0]}").write_bytes(b"not a shared object")
    return [str(tmp_path)]


@pytest.mark.parametrize("broken", [False, True], ids=["no directory", "unloadable file"])
def test_without_a_loadable_binding_the_loader_finds_none(
    broken, model, task_dfa, opaque_dfa, monkeypatch, tmp_path
):
    monkeypatch.delitem(sys.modules, planner.HIGHSPY)
    monkeypatch.setattr(scipy, "__path__", unloadable(tmp_path, planner.HIGHSPY, broken))
    found = planner._load_extension(planner.HIGHSPY)
    assert found is None and planner.HIGHSPY not in sys.modules
    monkeypatch.setattr(planner, "highspy", found)
    lp = build_lp(product_mdp(model, task_dfa, opaque_dfa), 0.4)
    with pytest.raises(PlannerError, match="HiGHS binding"):
        solve_lp(lp)


@pytest.mark.parametrize("broken", [False, True], ids=["no directory", "unloadable file"])
def test_without_a_loadable_superlu_the_loader_finds_none(
    broken, model, task_dfa, opaque_dfa, monkeypatch, tmp_path
):
    monkeypatch.delitem(sys.modules, planner.SUPERLU)
    monkeypatch.setattr(scipy, "__path__", unloadable(tmp_path, planner.SUPERLU, broken))
    found = planner._load_extension(planner.SUPERLU)
    assert found is None and planner.SUPERLU not in sys.modules
    monkeypatch.setattr(planner, "superlu", found)
    pm = product_mdp(model, task_dfa, opaque_dfa)
    with pytest.raises(PlannerError, match="SuperLU extension"):
        solve_lp(build_lp(pm, 0.4))
    with pytest.raises(SimulationError, match="SuperLU extension"):
        exact_policy_values(pm, uniform_policy(pm))
