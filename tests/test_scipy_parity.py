"""The package's own CSR/CSC arrays against scipy.sparse, the oracle.

The LP's flow rows, the matrix HiGHS holds, policy iteration, exact
evaluation and the reachability searches run on numpy arrays and call
SuperLU's ``gstrf`` directly.  Here each is compared with
what the same inputs give through ``scipy.sparse``: the coo matrix of the
flow columns converted with ``tocsr``/``tocsc``, ``sp.vstack``, ``splu``,
``spsolve`` and ``csgraph.breadth_first_order``.  The two modes'
objectives are checked against the flow columns' sums: every run stops
opaque or transparent.  Each planning model HiGHS holds is also read back
and compared, row for row, with the CPLEX text ``export_lp`` writes.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import breadth_first_order

from opaque_planner import planner, simulate
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.planner import (
    FEASIBILITY_TOL,
    MODES,
    ZERO_OCCUPANCY_THRESHOLD,
    _flow_matrix,
    _reached,
    build_lp,
    export_lp,
    extract_policy,
    product_mdp,
    solve_lp,
)
from opaque_planner.scenarios import gridworld, running_example
from opaque_planner.simulate import exact_policy_values
from opaque_planner.transducer import opaque_obs_dfa

from helpers import random_model, random_secret_text, uniform_policy
from lp_text import parse_lp_text

CASES = ["running-example", *range(40), "gridworld"]


def fresh_product(case):
    """A product built in the test, so that its LPs are built in it too:
    the running example (task ``F s4``, secret ``F s6``), a random model
    and secret, or the default gridworld (task ``F C``, secret ``F B &
    F A``)."""
    if case == "running-example":
        m, task, secret = running_example(), "F s4", "F s6"
    elif case == "gridworld":
        m, task, secret = gridworld(), "F C", "F B & F A"
    else:
        m = random_model(case)
        names = [m.states[i] for i in m.interior_state_indices()]
        task, secret = random_secret_text(case + 100, names), random_secret_text(case, names)
    return product_mdp(
        m, dfa_over_model_labels(task, m), opaque_obs_dfa(m, dfa_over_model_labels(secret, m))
    )


def scipy_flow_matrix(unit_row, col, row, prob, n_rows):
    """The flow columns as a coo matrix: column ``c`` is 1 at
    ``unit_row[c]``, then ``-prob[k]`` at ``row[k]`` where ``col[k] == c``,
    in entry order; ``tocsr`` and ``tocsc`` sum the duplicates."""
    n = len(unit_row)
    cols = np.concatenate((np.arange(n), col))
    order = np.argsort(cols, kind="stable")
    data = np.concatenate((np.ones(n), -prob))[order]
    rows = np.concatenate((unit_row, row))[order]
    return sp.coo_matrix((data, (rows, cols[order])), shape=(n_rows, n))


def assert_same_compressed(arrays, matrix):
    """The compressed arrays (ptr, index, value) are ``matrix``'s: the same
    pointers and indices, and the same values byte for byte."""
    ptr, index, value = arrays
    assert np.array_equal(ptr, matrix.indptr)
    assert np.array_equal(index, matrix.indices)
    assert value.dtype == matrix.data.dtype == np.float64
    assert value.tobytes() == matrix.data.tobytes()


def highs_rows(highs, n_cols):
    """The constraint matrix ``highs`` holds, as a CSR matrix, and its row
    bounds."""
    lp = highs.getLp()
    a = lp.a_matrix_
    assert a.format_ == planner.highspy.MatrixFormat.kColwise
    matrix = sp.csc_matrix((a.value_, a.index_, a.start_), shape=(lp.num_row_, n_cols))
    return matrix.tocsr(), np.array(lp.row_lower_), np.array(lp.row_upper_)


def small_matrix_value(highs) -> float:
    """The magnitude at or below which HiGHS drops a coefficient of a model
    passed to it."""
    return highs.getOptionValue("small_matrix_value")[1]


def scipy_reaching(src, dst, targets, n):
    """Whether each node reaches one of ``targets``: breadth-first from a
    node ``n`` with an edge to each target, on the reversed graph."""
    heads = np.concatenate((dst, np.full(len(targets), n))).astype(np.int64)
    tails = np.concatenate((src, targets)).astype(np.int64)
    back = sp.csr_matrix((np.ones(len(heads)), (heads, tails)), shape=(n + 1, n + 1))
    return np.isin(np.arange(n), breadth_first_order(back, n, return_predecessors=False))


def scipy_policy_iteration(lp, a):
    """Policy iteration on the CSR flow rows ``a`` with ``splu`` and
    ``a.T @ v``, the oracle of ``planner._policy_iteration``."""
    pm, a = lp.pm, a.tocsc()
    reps = np.array(lp.rows, dtype=np.int64)
    width = pm.row_ptr[reps + 1] - pm.row_ptr[reps]
    var_ptr = np.cumsum(width) - width
    owner = np.repeat(np.arange(len(reps)), width)
    policy = var_ptr.copy()
    rows = np.concatenate([np.arange(pm.row_ptr[v], pm.row_ptr[v + 1]) for v in reps])
    stops = np.flatnonzero(pm.row_action[rows] == pm.model.a_bot)
    policy[owner[stops]] = stops
    chosen = a[:, policy].tocoo()
    leaks = np.flatnonzero(np.bincount(chosen.col, chosen.data, len(reps)) > ZERO_OCCUPANCY_THRESHOLD)
    if not scipy_reaching(chosen.col, chosen.row, leaks, len(reps)).all():
        return None, 0
    rounds = 0
    while True:
        rounds += 1
        values = spla.splu(a[:, policy]).solve(lp.cost[policy], trans="T")
        reduced = lp.cost - a.T @ values
        best = np.lexsort((reduced, owner))[var_ptr]
        moves = reduced[best] < -FEASIBILITY_TOL
        if not moves.any():
            return policy, rounds
        policy[moves] = best[moves]


def scipy_exact_values(pm, policy):
    """The exact outcome probabilities of ``policy`` with ``spsolve`` on
    the coo flow matrix converted by ``tocsc``."""
    states = simulate._reachable_transient(pm, policy)[0]
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
    flow = ~stop
    matrix = scipy_flow_matrix(np.arange(m), i[flow], row_of[t[flow]], p[flow], m).tocsc()
    nu = np.zeros(m)
    nu[row_of[pm.initial]] = 1.0
    x = spla.spsolve(matrix, nu)
    mass, t = x[i[stop]] * p[stop], t[stop]
    ph, pt = np.bincount(~pm.opaque_accepts[t], weights=mass, minlength=2)
    task = np.bincount(pm.task_accepts[t], weights=mass, minlength=2)[1]
    return {"ph": ph, "pt": pt, "task": task}


@pytest.fixture
def flow_calls(monkeypatch):
    """The arguments of every ``_flow_matrix`` call, the LP's and exact
    evaluation's, in order."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _flow_matrix(*args)

    monkeypatch.setattr(planner, "_flow_matrix", spy)
    monkeypatch.setattr(simulate, "_flow_matrix", spy)
    return calls


@pytest.fixture
def highs_matrices(monkeypatch):
    """The equality rows of every HiGHS instance made, in order."""
    matrices = []
    make = planner._highs

    def spy(cost, a, b_eq):
        matrices.append(a)
        return make(cost, a, b_eq)

    monkeypatch.setattr(planner, "_highs", spy)
    return matrices


@pytest.mark.parametrize("case", CASES)
def test_lp_arrays_and_start_policy(case, flow_calls, highs_matrices):
    pm = fresh_product(case)
    for mode in MODES:
        lp = build_lp(pm, 0.5, mode).model
        [args] = flow_calls  # the first build made the flow rows every mode shares
        a_eq = scipy_flow_matrix(*args, len(lp.rows)).tocsr()
        assert_same_compressed(lp.flow, a_eq.tocsc())
        view = lp.a_eq
        assert_same_compressed((view.indptr, view.indices, view.data), a_eq)
        assert not view.data.flags.writeable

        highs = lp.highs
        [a] = highs_matrices
        highs_matrices.clear()
        assert_same_compressed(a, a_eq.tocsc())
        # the flow rows as built, then the task row; passing the model
        # drops HiGHS's small coefficients, here the flow rows' zeros and
        # round-off
        held = highs_rows(highs, len(lp.variables))[0]
        expected = sp.vstack((a_eq, sp.csr_matrix(lp.task_row.reshape(1, -1)))).tocsr()
        expected.data[np.abs(expected.data) <= small_matrix_value(highs)] = 0.0
        expected.eliminate_zeros()
        assert_same_compressed((held.indptr, held.indices, held.data), expected)

        policy, rounds = lp.start_policy
        ref_policy, ref_rounds = scipy_policy_iteration(lp, a_eq)
        assert rounds == ref_rounds
        assert (policy is None) == (ref_policy is None)
        if policy is not None:
            assert np.array_equal(policy, ref_policy)

    pm.max_feasible_epsilon
    assert len(flow_calls) == 1
    [a] = highs_matrices
    assert_same_compressed(a, pm.lp_models["opacity"].a_eq.tocsc())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", ["running-example", "gridworld", *range(10)])
def test_highs_model_is_the_exported_text(case, mode):
    # HiGHS holds the constraints row for row as export_lp writes them: the
    # flow rows in order, then the task row at the last solve's threshold;
    # passing the model drops the coefficients at or below small_matrix_value
    lp = build_lp(fresh_product(case), 0.5, mode)
    solve_lp(lp)
    highs = lp.model.highs
    held, lower, upper = highs_rows(highs, len(lp.variables))
    small = small_matrix_value(highs)
    _, _, constraints, _ = parse_lp_text(export_lp(lp))
    assert constraints[-1][0] == "task"
    assert len(constraints) == held.shape[0]
    for i, (name, terms, op, rhs) in enumerate(constraints):
        row = slice(held.indptr[i], held.indptr[i + 1])
        assert [(lp.variable_name(j), v) for j, v in zip(held.indices[row], held.data[row])] == [
            (var, coef) for var, coef in terms if abs(coef) > small
        ], name
        bounds = {"=": (rhs, rhs), ">=": (rhs, np.inf), "<=": (-np.inf, rhs)}[op]
        assert (lower[i], upper[i]) == bounds, name


@pytest.mark.parametrize("case", CASES)
def test_objectives_complement(case):
    # every run stops opaque or transparent, so a column's two objective
    # coefficients add up to the mass it stops with: its sum in a_eq, the
    # unit out less what it sends into non-absorbing blocks
    pm = fresh_product(case)
    opacity, transparency = (pm.lp_models[mode] for mode in MODES)
    stopping = np.asarray(opacity.a_eq.sum(axis=0)).ravel()
    assert np.abs(opacity.objective + transparency.objective - stopping).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("case", CASES)
def test_exact_values(case, flow_calls):
    pm = fresh_product(case)
    policies = [uniform_policy(pm)]
    sol = solve_lp(build_lp(pm, 0.0, "opacity"))
    if sol.status == "optimal":
        policies.append(extract_policy(sol, pm))
    for policy in policies:
        flow_calls.clear()
        values = exact_policy_values(pm, policy)
        [args] = flow_calls
        # scipy sorts a column of over 16 entries with an unstable sort,
        # so its sums of one row's entries may round differently
        ptr, index, value = _flow_matrix(*args)
        ref = scipy_flow_matrix(*args, len(args[0])).tocsc()
        assert np.array_equal(ptr, ref.indptr) and np.array_equal(index, ref.indices)
        assert np.abs(value - ref.data).max(initial=0.0) <= 1e-15
        ref = scipy_exact_values(pm, policy)
        for key in ("ph", "pt", "task"):
            assert values[key] == pytest.approx(ref[key], abs=1e-12), key


def test_exact_values_of_a_singular_system_fail_clearly(monkeypatch):
    # a checked policy stops, so its system is regular; were it singular,
    # spsolve would warn and return NaNs
    pm = fresh_product("running-example")

    def singular(unit_row, col, row, prob):
        ptr, index, value = _flow_matrix(unit_row, col, row, prob)
        return ptr, index, np.zeros_like(value)

    monkeypatch.setattr(simulate, "_flow_matrix", singular)
    with pytest.raises(simulate.SimulationError, match="singular"):
        exact_policy_values(pm, uniform_policy(pm))


@st.composite
def graphs(draw):
    """A directed graph on 1 to 30 nodes, repeated edges and self-loops
    allowed, and a set of nodes (possibly empty, possibly repeated)."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=90))
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    marked = np.array(draw(st.lists(node, max_size=6)), dtype=np.int64)
    return src, dst, marked, n


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_reached_matches_breadth_first_order(graph):
    src, dst, targets, n = graph
    # reaching the marked nodes, and reached from them: reaching them on
    # the reversed graph
    assert np.array_equal(_reached(dst, src, targets, n), scipy_reaching(src, dst, targets, n))
    assert np.array_equal(_reached(src, dst, targets, n), scipy_reaching(dst, src, targets, n))
