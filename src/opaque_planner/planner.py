"""Constrained planning on the product of the model, the task DFA and the
opaque-observations DFA.

The product state tracks the model state, the task DFA state (fed the
label of each state as it is entered) and the opaque-observations DFA
state (fed the emitted observation symbols, markers included).  Both
rewards are paid on termination: one when the task DFA is in its accepting
set, the other when the observation produced so far, closed with the end
marker, is opaque.  LTLf acceptance depends on where the trace ends, so a
task is satisfied by where a run stops, not by what it passed through.
The occupancy-measure LP maximizes the expected opacity (or transparency)
reward subject to flow conservation and a task-probability threshold.

The LP is posed on the coarsest probabilistic bisimulation of the product
(Larsen & Skou 1991), found by signature-based partition refinement
(Derisavi, Hermanns & Sanders 2003): bisimilar product states enable the
same actions, earn the same rewards and reach every block with the same
probabilities, so one occupancy variable per (block, action) loses no
optimum, and the block policy lifts to every member state unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .automata import Dfa, require_complete
from .model import END, Model, START

FEASIBILITY_TOL = 1e-9

#: occupancies at or below this count as zero when extracting a policy; the
#: bisimulation also compares probabilities and task rewards as multiples of
#: it, so float sums that differ only by rounding still match
ZERO_OCCUPANCY_THRESHOLD = 1e-12


class PlannerError(ValueError):
    pass


@dataclass(frozen=True)
class Quotient:
    """Coarsest probabilistic bisimulation of a product MDP.

    Product states share a block when they enable the same actions, agree
    on whether terminating is opaque, earn the same task reward under each
    action, and under each action reach every block with the same
    probability.  Each block is represented by its smallest member.  The
    non-absorbing blocks come first, numbered by representative; the
    absorbing states, if any, form the last block.
    """

    block: np.ndarray  # product state -> block
    representatives: tuple[int, ...]  # block -> smallest member

    @property
    def n_blocks(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True)
class ProductMdp:
    """Reachable product of model x task DFA x opaque-observations DFA."""

    model: Model
    task: Dfa
    opaque: Dfa
    states: tuple[tuple[int, int, int], ...]  # (s, q, q_hat)
    index: Mapping[tuple[int, int, int], int]
    # (state, action) -> ((successor, probability), ...)
    transitions: Mapping[tuple[int, int], tuple[tuple[int, float], ...]]
    initial: int
    absorbing: frozenset[int]
    # task reward of (state, action): 1 for terminating in the task's
    # accepting set
    task_coef: Mapping[tuple[int, int], float]
    # opaque DFA states from which reading the end marker accepts
    opaque_on_end: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def quotient(self) -> Quotient:
        """The bisimulation quotient the LP is posed on, refined on first
        use and kept for every later LP of this product."""
        return bisimulation_quotient(self)

    def enabled(self, v: int) -> tuple[int, ...]:
        if v in self.absorbing:
            return ()
        s = self.states[v][0]
        return self.model.enabled(s)

    def reward_opaque(self, v: int, a: int) -> float:
        if a != self.model.a_bot:
            return 0.0
        return 1.0 if self.states[v][2] in self.opaque_on_end else 0.0

    def state_name(self, v: int) -> str:
        s, q, qh = self.states[v]
        return f"{self.model.states[s]}|{q}|{qh}"

    def task_accepting(self, v: int) -> bool:
        return self.states[v][1] in self.task.accepting

    def opaque_accepting(self, v: int) -> bool:
        """Whether the q_hat component is accepting (meaningful after the
        end marker, i.e. at absorbing states)."""
        return self.states[v][2] in self.opaque.accepting


def product_mdp(model: Model, task: Dfa, opaque: Dfa) -> ProductMdp:
    """Build the reachable product with both reward structures wired in."""
    require_complete(task, model.label_alphabet(), "task")
    # the observation alphabet includes the START and END markers
    require_complete(opaque, model.observation_alphabet(), "opaque-observations")

    a_top, a_bot, bot = model.a_top, model.a_bot, model.bot
    v0 = (model.top, task.initial, opaque.initial)
    index: dict[tuple[int, int, int], int] = {v0: 0}
    states: list[tuple[int, int, int]] = [v0]
    transitions: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
    task_coef: dict[tuple[int, int], float] = {}
    frontier = deque([0])
    while frontier:
        v = frontier.popleft()
        s, q, qh = states[v]
        if s == bot:
            continue
        if q in task.accepting and a_bot in model.enabled(s):
            task_coef[(v, a_bot)] = 1.0
        for a in model.enabled(s):
            row: dict[int, float] = {}
            for t, p in model.successors(s, a):
                if a == a_bot:
                    q2 = q
                    qh2 = opaque.step(qh, END)
                else:
                    q2 = task.step(q, model.label_of(t))
                    qh2 = opaque.step(qh, START if a == a_top else model.obs(s, a, t))
                if q2 is None or qh2 is None:
                    raise PlannerError("automaton fell off a transition; DFA incomplete")
                nxt = (t, q2, qh2)
                w = index.get(nxt)
                if w is None:
                    w = len(states)
                    index[nxt] = w
                    states.append(nxt)
                    frontier.append(w)
                row[w] = row.get(w, 0.0) + p
            transitions[(v, a)] = tuple(sorted(row.items()))

    absorbing = frozenset(i for i, (s, _q, _qh) in enumerate(states) if s == bot)
    opaque_on_end = frozenset(
        qh
        for qh in range(opaque.n_states)
        if opaque.step(qh, END) in opaque.accepting
    )
    return ProductMdp(
        model=model,
        task=task,
        opaque=opaque,
        states=tuple(states),
        index=index,
        transitions=transitions,
        initial=0,
        absorbing=absorbing,
        task_coef=task_coef,
        opaque_on_end=opaque_on_end,
    )


def bisimulation_quotient(pm: ProductMdp) -> Quotient:
    """Coarsest partition of the product stable under labelled transitions.

    The initial blocks are the absorbing states and the non-absorbing
    states keyed by enabled actions, opacity on termination and per-action
    task reward; every LP objective depends on nothing else, so one
    quotient serves all modes and thresholds.  Each round then splits the
    blocks by the signature "action -> probability of reaching each current
    block" until no block splits.
    """
    n = pm.n_states
    row_state, row_action, row_coef = [], [], []
    entry_row, entry_target, entry_prob = [], [], []
    for v in range(n):
        for a in pm.enabled(v):
            for t, p in pm.transitions[(v, a)]:
                entry_row.append(len(row_state))
                entry_target.append(t)
                entry_prob.append(p)
            row_state.append(v)
            row_action.append(a)
            row_coef.append(pm.task_coef.get((v, a), 0.0))
    row_state = np.array(row_state, dtype=np.int64)
    row_action = np.array(row_action, dtype=np.int64)
    entry_row = np.array(entry_row, dtype=np.int64)
    entry_target = np.array(entry_target, dtype=np.int64)
    entry_prob = np.array(entry_prob, dtype=float)

    absorbing = np.zeros(n, dtype=bool)
    absorbing[list(pm.absorbing)] = True
    opaque_here = np.array([qh in pm.opaque_on_end for _s, _q, qh in pm.states])
    head = np.where(absorbing, 0, 1 + opaque_here)
    block = _split(head, row_state, np.column_stack([row_action, _quantize(row_coef)]))

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

    # renumber: non-absorbing blocks by smallest member, then the absorbing one
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
    table[owner, 1 + np.arange(len(owner)) - start[owner]] = _row_classes(keys)
    return _row_classes(table)


def _row_classes(table: np.ndarray) -> np.ndarray:
    """Dense ids of the distinct rows of an integer table, in sorted order
    (``np.unique(table, axis=0)`` sorts rows as opaque bytes, far slower)."""
    order = np.lexsort(table.T[::-1])
    ranked = table[order]
    starts = np.ones(len(table), dtype=np.int64)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(table), dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids


@dataclass(frozen=True)
class LpProblem:
    """Occupancy-measure LP over the bisimulation quotient of the product.

    Each non-absorbing block contributes one conservation row and one
    variable per enabled action, named after the block's representative
    product state: occupancy out of the block equals occupancy into it
    plus the unit injection at the initial state's block.  The task row
    lower-bounds the probability of terminating in the task's accepting
    set.  Every variable is non-negative and unbounded above: the flow
    rows put exactly one unit into the absorbing states, so both the
    objective and the task row are at most 1.
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
    row_of = quotient.block.tolist()
    rows = tuple(v for v in quotient.representatives if v not in pm.absorbing)
    variables = tuple(
        (v, a) for v in rows for a in pm.enabled(v)
    )
    var_index = {va: j for j, va in enumerate(variables)}

    data, ri, ci = [], [], []
    for j, (v, a) in enumerate(variables):
        data.append(1.0)
        ri.append(row_of[v])
        ci.append(j)
        for t, p in pm.transitions[(v, a)]:
            if t in pm.absorbing:
                continue
            data.append(-p)
            ri.append(row_of[t])
            ci.append(j)
    a_eq = sp.csr_matrix(
        (data, (ri, ci)), shape=(len(rows), len(variables))
    )
    b_eq = np.zeros(len(rows))
    b_eq[row_of[pm.initial]] = 1.0

    task_row = np.array([pm.task_coef.get(va, 0.0) for va in variables])

    objective = np.zeros(len(variables))
    a_bot = pm.model.a_bot
    for j, (v, a) in enumerate(variables):
        if a != a_bot:
            continue
        opaque_here = pm.states[v][2] in pm.opaque_on_end
        if mode == "transparency":
            objective[j] = 0.0 if opaque_here else 1.0
        else:
            objective[j] = 1.0 if opaque_here else 0.0

    return LpProblem(
        pm=pm,
        epsilon=float(epsilon),
        mode=mode,
        variables=variables,
        var_index=var_index,
        rows=rows,
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
    """Solve with the HiGHS backend; on infeasibility, report the largest
    attainable task threshold from a presolve that maximizes the task row.

    A second solve then picks, among occupancies whose objective is within
    ``FEASIBILITY_TOL`` of the optimum, one of least expected run length
    (total occupancy): the optimal face can hold zero-reward circulations,
    whose policy almost never terminates.  ``objective`` is the optimum of
    the first solve.
    """
    n = len(lp.variables)
    sign = -1.0 if lp.maximize else 1.0
    a_ub = sp.csr_matrix(-lp.task_row.reshape(1, n))
    b_ub = np.array([-lp.epsilon])
    res = linprog(
        c=sign * lp.objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=(0.0, None),
        method="highs",
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
    if res.status == 0:
        objective = float(lp.objective @ res.x)
        res = linprog(
            c=np.ones(n),
            A_ub=sp.vstack([a_ub, sp.csr_matrix(sign * lp.objective.reshape(1, n))]),
            b_ub=np.append(b_ub, sign * objective + FEASIBILITY_TOL),
            A_eq=lp.a_eq,
            b_eq=lp.b_eq,
            bounds=(0.0, None),
            method="highs",
            options=_HIGHS_OPTIONS,
        )
        iterations += int(getattr(res, "nit", 0) or 0)
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
    residual = float(np.max(np.abs(lp.a_eq @ occupancy - lp.b_eq))) if n else 0.0
    return PolicySolution(
        status="optimal",
        objective=objective,
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
        if v in pm.absorbing:
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
        if v not in pm.absorbing
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
    names = {pm.state_name(v): v for v in range(pm.n_states)}
    out: dict[int, dict[int, float]] = {}
    for key, dist in doc["policy"].items():
        v = names.get(key)
        if v is None:
            raise PlannerError(f"policy references unknown product state {key!r}")
        out[v] = {pm.model.action_index[a]: float(p) for a, p in dist.items()}
    missing = [
        pm.state_name(v)
        for v in range(pm.n_states)
        if v not in pm.absorbing and v not in out
    ]
    if missing:
        raise PlannerError(
            f"policy does not cover {len(missing)} reachable states, e.g. {missing[0]!r}"
        )
    return out
