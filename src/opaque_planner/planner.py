"""Constrained planning on the product of the model, the task DFA and the
opaque-observations DFA.

The product state tracks the model state, the task DFA state (fed the
label of each state as it is entered) and the opaque-observations DFA
state (fed the emitted observation symbols, markers included).  A run's
outcome is read from the absorbing product state it stops in: the task is
satisfied when that state's task component accepts (LTLf acceptance is
decided where the trace ends), and the observation is opaque when its
opaque component, which has read the end marker, accepts.  The
occupancy-measure LP maximizes the probability of stopping opaque (or
transparent) subject to flow conservation and a task-probability threshold.

The product is built by ``_product_search``, the one level search that
also builds the product transducer of :mod:`.transducer`, in numpy over
``Model.csr``.  Both products are a :class:`Product`: the reachable states,
numbered as by a FIFO search, stored once as CSR row groups, the layout of
sparse probabilistic model checkers (PRISM: Kwiatkowska, Norman & Parker
2011; Storm: Dehnert et al. 2017).  The quotient, the LP, exact evaluation
and the sampler all read these arrays.

The LP is posed on the coarsest probabilistic bisimulation of the product
(Larsen & Skou 1991), found by signature-based partition refinement
(Derisavi, Hermanns & Sanders 2003): bisimilar product states enable the
same actions and reach every block, the absorbing outcome blocks included,
with the same probabilities, so one occupancy variable per (block, action)
loses no optimum, and the block policy lifts to every member state
unchanged.  Each round ranks the states' signatures with
``automata.row_classes``, the helper ``automata.minimize`` refines the
opaque-observations DFA with: DFA minimization is the same refinement on a
deterministic system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import breadth_first_order

from .automata import Dfa, _ranges, row_classes, step_table
from .model import Model, ModelError

FEASIBILITY_TOL = 1e-9

#: occupancies at or below this count as zero when extracting a policy; the
#: bisimulation also compares probabilities as multiples of it, so float
#: sums that differ only by rounding still match
ZERO_OCCUPANCY_THRESHOLD = 1e-12


class PlannerError(ValueError):
    pass


@dataclass(frozen=True)
class Quotient:
    """Coarsest probabilistic bisimulation of a product MDP.

    Absorbing product states share a block when they agree on both
    outcomes, opaque or not and task satisfied or not, so there is one
    block per outcome that occurs.  Non-absorbing states share a block when
    they enable the same actions and under each action reach every block
    with the same probability.  Each block is represented by its smallest
    member.  The non-absorbing blocks come first, numbered by
    representative, then the absorbing ones.
    """

    block: np.ndarray  # product state -> block
    representatives: tuple[int, ...]  # block -> smallest member

    @property
    def n_blocks(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True, eq=False)
class Product:
    """Reachable product of the model with an automaton, stored once as
    CSR row groups.

    State ``v`` pairs the model state ``components[v, 0]`` with the
    automaton's state(s) in the other columns.  It owns the (state, action)
    rows ``row_ptr[v]:row_ptr[v + 1]``, one per enabled action in
    increasing order (``row_action``); absorbing states, whose model state
    is ``model.bot``, own none.  Row ``r`` owns the entries
    ``entry_ptr[r]:entry_ptr[r + 1]``, with successors ``entry_succ`` in
    increasing order.  States are numbered breadth-first from the initial
    state 0, each level in order of first occurrence as the rows of the
    level before are read in order: the numbering of a FIFO search.  Every
    array field is read-only; ``states`` and ``index`` are read-only views
    of them, built on first access.
    """

    model: Model
    components: np.ndarray  # (n_states, 1 + automaton components)
    row_ptr: np.ndarray
    row_action: np.ndarray
    entry_ptr: np.ndarray
    entry_succ: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def initial(self) -> int:
        return 0

    @property
    def n_states(self) -> int:
        return len(self.components)

    @cached_property
    def row_state(self) -> np.ndarray:
        """The state of each row."""
        return np.repeat(np.arange(self.n_states), np.diff(self.row_ptr))

    @cached_property
    def entry_state(self) -> np.ndarray:
        """The source state of each entry."""
        return np.repeat(self.row_state, np.diff(self.entry_ptr))

    @cached_property
    def absorbing_mask(self) -> np.ndarray:
        return self.components[:, 0] == self.model.bot

    def rows_of(self, states, actions) -> np.ndarray:
        """The row of each (state, action) pair; -1 where the state does
        not enable the action."""
        width = len(self.model.actions)
        keys = self.row_state * width + self.row_action  # increasing
        wanted = np.asarray(states, dtype=np.int64) * width + np.asarray(actions, dtype=np.int64)
        pos = np.searchsorted(keys, wanted)
        found = pos < len(keys)
        found[found] = keys[pos[found]] == wanted[found]
        return np.where(found, pos, -1)

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of ``rows``, row after row, and for each entry the
        position in ``rows`` of its row."""
        start = self.entry_ptr[rows]
        count = self.entry_ptr[rows + 1] - start
        return _ranges(start, count), np.repeat(np.arange(len(rows)), count)

    def enabled(self, v: int) -> tuple[int, ...]:
        return tuple(self.row_action[self.row_ptr[v] : self.row_ptr[v + 1]].tolist())

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.components.tolist()))

    @cached_property
    def index(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType({v: i for i, v in enumerate(self.states)})


@dataclass(frozen=True, eq=False)
class ProductMdp(Product):
    """Reachable product of model x task DFA x opaque-observations DFA:
    state ``v`` is the triple ``components[v]`` = (s, q, q_hat), and entry
    ``e`` has probability ``entry_prob[e]``.  ``transitions`` is a
    read-only view, built on first access.
    """

    task: Dfa
    opaque: Dfa
    entry_prob: np.ndarray

    @cached_property
    def quotient(self) -> Quotient:
        """The bisimulation quotient the LP is posed on, refined on first
        use and kept for every later LP of this product."""
        return bisimulation_quotient(self)

    @cached_property
    def task_accepts(self) -> np.ndarray:
        """Per state, whether its task component accepts: at an absorbing
        state, whether the run that stopped there satisfies the task."""
        return np.isin(self.components[:, 1], list(self.task.accepting))

    @cached_property
    def opaque_accepts(self) -> np.ndarray:
        """Per state, whether its q_hat component accepts: at an absorbing
        state, which has read the end marker, whether the run's observation
        is opaque."""
        return np.isin(self.components[:, 2], list(self.opaque.accepting))

    @cached_property
    def transitions(self) -> Mapping[tuple[int, int], tuple[tuple[int, float], ...]]:
        """(state, action) -> ((successor, probability), ...)."""
        pairs = list(zip(self.entry_succ.tolist(), self.entry_prob.tolist()))
        ptr = self.entry_ptr.tolist()
        keys = zip(self.row_state.tolist(), self.row_action.tolist())
        return MappingProxyType(
            {key: tuple(pairs[ptr[r] : ptr[r + 1]]) for r, key in enumerate(keys)}
        )

    def state_name(self, v: int) -> str:
        s, q, qh = self.components[v].tolist()
        return f"{self.model.states[s]}|{q}|{qh}"


def _graph(src: np.ndarray, dst: np.ndarray, n: int) -> sp.csr_matrix:
    """The directed graph with edges ``src -> dst`` on ``n`` nodes."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    order = np.argsort(src, kind="stable")
    return sp.csr_matrix((np.ones(len(src)), dst[order], indptr), shape=(n, n))


def _reaching(src: np.ndarray, dst: np.ndarray, targets: np.ndarray, n: int) -> np.ndarray:
    """Whether each node of the graph with edges ``src -> dst`` on ``n``
    nodes reaches one of ``targets``: a search back from node ``n``, which
    has an edge to each target."""
    heads = np.concatenate((dst, np.full(len(targets), n)))
    back = _graph(heads, np.concatenate((src, targets)), n + 1)
    return np.isin(np.arange(n), breadth_first_order(back, n, return_predecessors=False))


def product_mdp(model: Model, task: Dfa, opaque: Dfa) -> ProductMdp:
    """Build the reachable product with :func:`_product_search`; runs stop
    in its absorbing states, whose labels carry the outcomes.  The
    automaton code of (q, q_hat) is ``q * opaque.n_states + q_hat``."""
    nqh = opaque.n_states
    task_step = _label_table(task, model, "task")
    # the observation alphabet includes the START and END markers
    opaque_step = step_table(opaque, model.observation_alphabet(), "opaque-observations")
    s, code, entry_model, rows = _product_search(
        model,
        task.n_states * nqh,
        task.initial * nqh + opaque.initial,
        lambda c, label, obs: task_step[c // nqh, label] * nqh + opaque_step[c % nqh, obs],
    )
    return ProductMdp(
        model=model,
        task=task,
        opaque=opaque,
        components=np.column_stack((s, code // nqh, code % nqh)),
        entry_prob=model.csr.entry_prob[entry_model],
        **rows,
    )


def _label_table(dfa: Dfa, model: Model, what: str) -> np.ndarray:
    """The ``step_table`` of a DFA over the model's label ids, plus a last
    column that keeps every state: the label id of ``a_bot`` entries."""
    table = step_table(dfa, model.csr.label_letters, what)
    return np.column_stack((table, np.arange(dfa.n_states)))


def _product_search(model: Model, n_codes: int, start: int, step) -> tuple:
    """The product of the model with an automaton on the codes
    ``0 .. n_codes - 1``, reachable from (initiating state, ``start``).

    Model entries step the automaton by ``step(code, label, obs)``, on
    arrays of label ids (``Model.csr.label_letters``) and observation ids
    (``observation_alphabet()``).  ``a_bot`` entries enter no labelled
    state and read the label id ``len(label_letters)``, the keep column of
    :func:`_label_table`.  An entry with no label or observation raises
    ``ModelError``.  Returns the model state and code of each state, the
    model entry of each entry, and the CSR arrays of :class:`Product`.
    """
    csr = model.csr
    model_entry_row = np.repeat(np.arange(len(csr.row_action)), np.diff(csr.entry_ptr))
    stops = csr.row_action[model_entry_row] == model.a_bot
    entry_label = np.where(stops, len(csr.label_letters), csr.state_label[csr.entry_succ])
    model_rows = np.diff(csr.row_ptr)
    model_rows[model.bot] = 0  # the absorbing states are not expanded

    level = np.array([model.top * n_codes + start])
    seen, seen_id = level, np.array([0])  # codes found so far, sorted, and their ids
    levels, row_counts, actions, widths, succs, entries = [level], [], [], [], [], []
    n = 1
    while level.size:
        s, c = level // n_codes, level % n_codes
        count = model_rows[s]
        model_row = _ranges(csr.row_ptr[s], count)
        width = csr.entry_ptr[model_row + 1] - csr.entry_ptr[model_row]
        e = _ranges(csr.entry_ptr[model_row], width)
        row = np.repeat(np.arange(len(model_row)), width)  # the level row of each entry
        v = np.repeat(np.arange(len(level)), count)[row]  # its state's place in the level
        label, obs, t = entry_label[e], csr.entry_obs[e], csr.entry_succ[e]
        undefined = np.flatnonzero((label < 0) | (obs < 0))
        if undefined.size:
            k = undefined[0]
            _raise_undefined(model, int(s[v[k]]), int(csr.row_action[model_row[row[k]]]), int(t[k]))
        code = t * n_codes + step(c[v], label, obs)

        distinct, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        pos = np.searchsorted(seen, distinct).clip(max=len(seen) - 1)
        distinct_id = seen_id[pos]
        new = seen[pos] != distinct
        fresh = distinct[new]
        rank = np.empty(len(fresh), dtype=np.int64)
        rank[np.argsort(first[new])] = np.arange(len(fresh))  # by first occurrence
        distinct_id[new] = n + rank
        ids = distinct_id[inverse]
        at = np.searchsorted(seen, fresh)
        seen, seen_id = np.insert(seen, at, fresh), np.insert(seen_id, at, n + rank)
        level = np.empty_like(fresh)
        level[rank] = fresh
        n += len(level)

        by_succ = np.lexsort((ids, row))
        levels.append(level)
        row_counts.append(count)
        actions.append(csr.row_action[model_row])
        widths.append(width)
        succs.append(ids[by_succ])
        entries.append(e[by_succ])

    codes = np.concatenate(levels)
    rows = dict(
        row_ptr=np.concatenate(([0], np.cumsum(np.concatenate(row_counts)))),
        row_action=np.concatenate(actions),
        entry_ptr=np.concatenate(([0], np.cumsum(np.concatenate(widths)))),
        entry_succ=np.concatenate(succs),
    )
    return codes // n_codes, codes % n_codes, np.concatenate(entries), rows


def _raise_undefined(model: Model, s: int, a: int, t: int) -> None:
    """Raise the ``ModelError`` naming a transition that enters a frame
    state other than by stopping, or has no observation."""
    name = f"({model.states[s]}, {model.actions[a]}, {model.states[t]})"
    if model.labels[t] is None:
        raise ModelError(f"transition {name} enters the frame state {model.states[t]}")
    raise ModelError(f"no observation for transition {name}")


def bisimulation_quotient(pm: ProductMdp) -> Quotient:
    """Coarsest partition of the product stable under labelled transitions.

    The initial blocks are the absorbing states keyed by outcome (opaque,
    task satisfied) and the non-absorbing states keyed by enabled actions;
    every LP objective and the task row are probabilities of stopping in an
    outcome, so one quotient serves all modes and thresholds.  Each round
    then splits the blocks by the signature "action -> probability of
    reaching each current block" until no block splits.
    """
    row_state, row_action = pm.row_state, pm.row_action
    entry_row = np.repeat(np.arange(len(row_action)), np.diff(pm.entry_ptr))
    entry_target, entry_prob = pm.entry_succ, pm.entry_prob

    absorbing = pm.absorbing_mask
    # absorbing states by outcome (codes 0-3), the others all under code 4
    head = np.where(absorbing, 2 * pm.opaque_accepts + pm.task_accepts, 4)
    block = _split(head, row_state, row_action[:, None])

    while True:
        n_blocks = int(block.max()) + 1
        pairs, inverse = np.unique(
            entry_row * n_blocks + block[entry_target], return_inverse=True
        )
        mass = np.bincount(inverse.reshape(-1), weights=entry_prob)
        pair_row = pairs // n_blocks
        keys = np.column_stack([row_action[pair_row], pairs % n_blocks, _quantize(mass)])
        refined = _split(block, row_state[pair_row], keys)
        if int(refined.max()) + 1 == n_blocks:
            break
        block = refined

    # renumber: non-absorbing blocks by smallest member, then the absorbing ones
    _, first = np.unique(block, return_index=True)
    order = np.lexsort((first, absorbing[first]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return Quotient(
        block=rank[block],
        representatives=tuple(int(v) for v in first[order]),
    )


def _quantize(values) -> np.ndarray:
    return np.rint(np.asarray(values, dtype=float) / ZERO_OCCUPANCY_THRESHOLD).astype(np.int64)


def _split(head: np.ndarray, owner: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Class of each state by its ``head`` value and the sequence of its
    ``keys`` rows; ``owner`` (non-decreasing) names the state of each row."""
    counts = np.bincount(owner, minlength=len(head))
    start = np.cumsum(counts) - counts
    table = np.full((len(head), 1 + int(counts.max(initial=0))), -1, dtype=np.int64)
    table[:, 0] = head
    table[owner, 1 + np.arange(len(owner)) - start[owner]] = row_classes(keys)
    return row_classes(table)


@dataclass(frozen=True)
class LpProblem:
    """Occupancy-measure LP over the bisimulation quotient of the product.

    Each non-absorbing block contributes one conservation row and one
    variable per enabled action, named after the block's representative
    product state: occupancy out of the block equals occupancy into it
    plus the unit injection at the initial state's block.  A variable's
    objective and task coefficients are the probability it sends into
    absorbing states of the wanted outcome.  Every variable is non-negative
    and unbounded above: the flow rows put exactly one unit into the
    absorbing states, so both the objective and the task row are at most 1.
    """

    pm: ProductMdp
    epsilon: float
    mode: str  # "opacity" | "transparency" | "min-opacity"
    variables: tuple[tuple[int, int], ...]  # (representative state, action)
    var_index: Mapping[tuple[int, int], int]
    rows: tuple[int, ...]  # representatives of non-absorbing blocks, row order
    objective: np.ndarray
    maximize: bool
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    task_row: np.ndarray

    def variable_name(self, j: int) -> str:
        v, a = self.variables[j]
        return f"m_v{v}_a{a}"


def build_lp(pm: ProductMdp, epsilon: float, mode: str = "opacity") -> LpProblem:
    """Assemble the LP for one of three objectives.

    ``opacity`` maximizes the probability of terminating with an opaque
    observation; ``transparency`` maximizes terminating with a transparent
    one (every terminated run is one or the other); ``min-opacity`` is the
    literal minimization of the opacity objective, kept for comparison.
    """
    if mode not in ("opacity", "transparency", "min-opacity"):
        raise PlannerError(f"unknown mode {mode!r}")
    quotient = pm.quotient
    # non-absorbing blocks are numbered first, so a block is its row
    row_of = quotient.block
    reps = np.array(quotient.representatives, dtype=np.int64)
    rows = reps[~pm.absorbing_mask[reps]]
    var_row = _ranges(pm.row_ptr[rows], pm.row_ptr[rows + 1] - pm.row_ptr[rows])
    var_state = pm.row_state[var_row]
    variables = tuple(zip(var_state.tolist(), pm.row_action[var_row].tolist()))
    var_index = {va: j for j, va in enumerate(variables)}

    n_vars = len(variables)
    e, j = pm.entries(var_row)
    t, p = pm.entry_succ[e], pm.entry_prob[e]
    stop = pm.absorbing_mask[t]
    # a stopping entry pays its probability to the outcome it stops in;
    # bincount adds in entry order (and gives ints when nothing is added)
    wanted = stop & (pm.opaque_accepts[t] == (mode != "transparency"))
    objective = np.bincount(j[wanted], weights=p[wanted], minlength=n_vars).astype(float)
    task = stop & pm.task_accepts[t]
    task_row = np.bincount(j[task], weights=p[task], minlength=n_vars).astype(float)
    # per variable, its unit out of its row and then its entries into
    # non-absorbing blocks, in entry order: the order in which duplicate
    # (row, variable) coefficients are summed
    flow = ~stop
    col = np.concatenate((np.arange(n_vars), j[flow]))
    order = np.argsort(col, kind="stable")
    data = np.concatenate((np.ones(n_vars), -p[flow]))[order]
    row = np.concatenate((row_of[var_state], row_of[t[flow]]))[order]
    a_eq = sp.csr_matrix((data, (row, col[order])), shape=(len(rows), n_vars))
    b_eq = np.zeros(len(rows))
    b_eq[row_of[pm.initial]] = 1.0

    return LpProblem(
        pm=pm,
        epsilon=float(epsilon),
        mode=mode,
        variables=variables,
        var_index=var_index,
        rows=tuple(rows.tolist()),
        objective=objective,
        maximize=(mode != "min-opacity"),
        a_eq=a_eq,
        b_eq=b_eq,
        task_row=task_row,
    )


@dataclass
class PolicySolution:
    status: str  # "optimal" | "infeasible" | "numerical-failure"
    objective: float | None
    occupancy: np.ndarray | None
    lp: LpProblem
    iterations: int = 0
    message: str = ""
    max_feasible_epsilon: float | None = None
    flow_residual: float | None = None

    def occupancy_of(self, v: int, a: int) -> float:
        """Occupancy of action ``a`` in the bisimulation block of product
        state ``v``: the block's total, which every member reports."""
        quotient = self.lp.pm.quotient
        j = self.lp.var_index.get((quotient.representatives[quotient.block[v]], a))
        return 0.0 if j is None or self.occupancy is None else float(self.occupancy[j])


_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": FEASIBILITY_TOL,
    "dual_feasibility_tolerance": FEASIBILITY_TOL,
}


def solve_lp(lp: LpProblem) -> PolicySolution:
    """Solve with the HiGHS dual simplex, so the occupancy is a vertex of
    the feasible set; on infeasibility, report the largest attainable task
    threshold from a presolve that maximizes the task row.

    A vertex holds no zero-reward circulation: were ``x >= d c`` for a
    circulation ``c`` and some ``d > 0``, both ``x + d c`` and ``x - d c``
    would be feasible and equally good.  So the extracted policy stops with
    probability 1, which ``exact_policy_values`` and ``rollout`` check.
    """
    res = linprog(
        c=(-1.0 if lp.maximize else 1.0) * lp.objective,
        A_ub=sp.csr_matrix(-lp.task_row.reshape(1, -1)),
        b_ub=np.array([-lp.epsilon]),
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=(0.0, None),
        method="highs-ds",
        options=_HIGHS_OPTIONS,
    )
    iterations = int(getattr(res, "nit", 0) or 0)
    if res.status == 2:
        pre = linprog(
            c=-lp.task_row,
            A_eq=lp.a_eq,
            b_eq=lp.b_eq,
            bounds=(0.0, None),
            method="highs",
            options=_HIGHS_OPTIONS,
        )
        best = float(-pre.fun) if pre.status == 0 else None
        return PolicySolution(
            status="infeasible",
            objective=None,
            occupancy=None,
            lp=lp,
            iterations=iterations,
            message=res.message,
            max_feasible_epsilon=best,
        )
    if res.status != 0:
        return PolicySolution(
            status="numerical-failure",
            objective=None,
            occupancy=None,
            lp=lp,
            iterations=iterations,
            message=res.message,
        )
    occupancy = np.asarray(res.x)
    residual = float(np.max(np.abs(lp.a_eq @ occupancy - lp.b_eq))) if len(occupancy) else 0.0
    return PolicySolution(
        status="optimal",
        objective=float(lp.objective @ occupancy),
        occupancy=occupancy,
        lp=lp,
        iterations=iterations,
        message=res.message,
        flow_residual=residual,
    )


def extract_policy(sol: PolicySolution, pm: ProductMdp) -> dict[int, dict[int, float]]:
    """Normalize block occupancies into a stationary randomized policy and
    give every product state the distribution of its block.

    Blocks the solution never visits fall back to immediate termination
    when available (conservative: it leaks nothing further), else to a
    uniform choice.
    """
    if sol.status != "optimal":
        raise PlannerError(f"cannot extract a policy from a {sol.status} solution")
    quotient = pm.quotient
    a_bot = pm.model.a_bot
    by_block: dict[int, dict[int, float]] = {}
    for v in quotient.representatives:
        if pm.absorbing_mask[v]:
            continue
        actions = pm.enabled(v)
        weights = np.array([max(sol.occupancy_of(v, a), 0.0) for a in actions])
        total = float(weights.sum())
        if total > ZERO_OCCUPANCY_THRESHOLD:
            probs = weights / total
        elif a_bot in actions:
            probs = np.array([1.0 if a == a_bot else 0.0 for a in actions])
        else:
            probs = np.full(len(actions), 1.0 / len(actions))
        probs = probs / probs.sum()
        by_block[v] = {a: float(p) for a, p in zip(actions, probs)}
    return {
        v: dict(by_block[quotient.representatives[b]])
        for v, b in enumerate(quotient.block.tolist())
        if not pm.absorbing_mask[v]
    }


# ---------------------------------------------------------------------------
# CPLEX LP text export


def _num(x: float) -> str:
    return format(x, ".17g")


def export_lp(lp: LpProblem) -> str:
    """Render in CPLEX LP text form, deterministically ordered.

    Re-exporting the same problem yields byte-identical text, so the file
    can serve as a cross-solver fixture.
    """
    lines: list[str] = []
    lines.append("\\ occupancy-measure planning problem")
    lines.append(f"\\ mode={lp.mode} epsilon={_num(lp.epsilon)}")
    lines.append("Maximize" if lp.maximize else "Minimize")
    terms = [
        ("+ " if c >= 0 else "- ") + f"{_num(abs(c))} {lp.variable_name(j)}"
        for j, c in enumerate(lp.objective)
        if c != 0.0
    ]
    if not terms:
        terms = [f"+ 0 {lp.variable_name(0)}"] if lp.variables else ["+ 0 m_zero"]
    lines.extend(_wrap_terms("obj:", terms))
    lines.append("Subject To")
    a_coo = lp.a_eq.tocoo()
    by_row: dict[int, list[tuple[int, float]]] = {}
    for r, c, v in zip(a_coo.row, a_coo.col, a_coo.data):
        by_row.setdefault(int(r), []).append((int(c), float(v)))
    for i, v_state in enumerate(lp.rows):
        entries = sorted(by_row.get(i, []))
        terms = [
            ("+ " if v >= 0 else "- ") + f"{_num(abs(v))} {lp.variable_name(c)}"
            for c, v in entries
        ]
        rhs = _num(lp.b_eq[i])
        lines.extend(_wrap_terms(f"flow_v{v_state}:", terms, f"= {rhs}"))
    task_terms = [
        f"+ {_num(c)} {lp.variable_name(j)}"
        for j, c in enumerate(lp.task_row)
        if c != 0.0
    ]
    if task_terms:
        lines.extend(_wrap_terms("task:", task_terms, f">= {_num(lp.epsilon)}"))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _wrap_terms(head: str, terms: list[str], tail: str | None = None, width: int = 200):
    lines = [" " + head]
    for term in terms:
        if len(lines[-1]) + 1 + len(term) > width:
            lines.append("  " + term)
        else:
            lines[-1] += " " + term
    if tail is not None:
        lines[-1] += " " + tail
    return lines


# ---------------------------------------------------------------------------
# policy files


def policy_to_dict(
    policy: Mapping[int, Mapping[int, float]],
    pm: ProductMdp,
    metadata: Mapping | None = None,
) -> dict:
    body = {
        pm.state_name(v): {
            pm.model.actions[a]: p for a, p in sorted(dist.items())
        }
        for v, dist in sorted(policy.items())
    }
    return {"metadata": dict(metadata or {}), "policy": body}


def policy_from_dict(doc: Mapping, pm: ProductMdp) -> dict[int, dict[int, float]]:
    """The policy of a :func:`policy_to_dict` document; raises
    ``PlannerError`` naming the product state and field that are wrong."""
    body = doc.get("policy")
    if not isinstance(body, Mapping):
        raise PlannerError('policy file needs a "policy" object of product states')
    names = {pm.state_name(v): v for v in range(pm.n_states)}
    out: dict[int, dict[int, float]] = {}
    for key, dist in body.items():
        v = names.get(key)
        if v is None:
            raise PlannerError(f"policy references unknown product state {key!r}")
        if not isinstance(dist, Mapping):
            raise PlannerError(f"policy at {key!r} is not an object of action probabilities")
        out[v] = {}
        for a, p in dist.items():
            if a not in pm.model.action_index:
                raise PlannerError(f"policy at {key!r} names unknown action {a!r}")
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise PlannerError(f"policy at {key!r} gives action {a!r} the non-number {p!r}")
            out[v][pm.model.action_index[a]] = float(p)
    missing = [
        pm.state_name(v)
        for v in range(pm.n_states)
        if not pm.absorbing_mask[v] and v not in out
    ]
    if missing:
        raise PlannerError(
            f"policy does not cover {len(missing)} reachable states, e.g. {missing[0]!r}"
        )
    return out
