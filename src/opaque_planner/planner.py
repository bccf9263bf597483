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
A product's modes share its LP but for the objective, and only the task
row's bound depends on the threshold: each mode keeps one HiGHS instance,
and each solve re-starts the dual simplex from the basis the last one left.
Without its task row the LP is an MDP, which policy iteration solves exactly
in a few sparse factorizations (Puterman 1994, §6.4 and §7.2); one
constraint moves a constrained optimum at most one randomization away from a
deterministic policy (Altman 1999).  So the first solve starts from that
policy's basis.

The product is built by ``_product_search``, the one level search that
also builds the product transducer of :mod:`.transducer`, in numpy over
the model's CSR row groups (``model.RowGroups``).  Both products are a
:class:`Product`: the reachable states, numbered as by a FIFO search,
stored once in the same layout as the model.  The quotient, the LP, exact
evaluation and the sampler all read these arrays.

The LP is posed on the coarsest probabilistic bisimulation of the product
(Larsen & Skou 1991), found by signature-based partition refinement
(Derisavi, Hermanns & Sanders 2003): bisimilar product states enable the
same actions and reach every block, the absorbing outcome blocks included,
with the same probabilities, so one occupancy variable per (block, action)
loses no optimum.  A policy is one probability per product row, in the
CSR layout the LP and the sampler read; every member of a block gets its
block's distribution.  Refinement is by splitters (Valmari & Franceschinis
2010): block ids are stable, and each round re-signs only the touched
states, those of the blocks that reach a block that split in the round
before.  It ranks their signatures, one int64 table per round, with
``automata.row_classes``, the helper ``automata.minimize`` refines the
opaque-observations DFA with: DFA minimization is the same refinement on a
deterministic system.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy

from .automata import Dfa, row_classes, step_table
from .model import (
    Model,
    ModelError,
    RowGroups,
    _number_level,
    _ranges,
    _read_only,
    _unique,
    distributions,
)

#: the full names of the two scipy extensions the package calls: the
#: pybind11 binding of HiGHS, and scipy's wrapper of SuperLU
HIGHSPY = "scipy.optimize._highspy._core"
SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _load_extension(name: str):
    """The scipy extension module ``name`` (:data:`HIGHSPY` or
    :data:`SUPERLU`), or None when scipy ships none that loads; without it
    only the calls that need it fail.

    The extension is found in its package's directory under scipy
    (``optimize/_highspy``, ``sparse/linalg/_dsolve``) and loaded on its
    own: importing it by name would first run its parent packages, which
    nothing here uses.  ``scipy.optimize`` (linprog, ``scipy.special``,
    ``scipy.fft``, ``scipy.spatial``) costs a process ~0.3 s and ~14 MB,
    and ``scipy.sparse`` with ``scipy.sparse.linalg`` (whose vendored
    ``array_api_compat`` loads ``numpy.f2py``) ~0.35 s and ~28 MB.  The
    module is registered in ``sys.modules`` under its full name, and taken
    from there when scipy has already loaded it, so each extension is
    loaded once whichever is imported first: pybind11 registers its types
    once per process, and a second load does not give a working second
    copy.  Both modules are private to scipy; the calls made here
    (``_Highs`` and ``gstrf``) are those of the release
    ``pyproject.toml`` pins, ``scipy>=1.17.1``, and ``tests/test_planner.py``
    checks them.
    """
    if name in sys.modules:
        return sys.modules[name]
    where = [os.path.join(path, *name.split(".")[1:-1]) for path in scipy.__path__]
    spec = PathFinder.find_spec(name, where)
    if spec is None:
        return None
    try:  # an extension that fails to load counts as none
        module = sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        sys.modules.pop(name, None)
        return None
    return module


highspy = _load_extension(HIGHSPY)
superlu = _load_extension(SUPERLU)

FEASIBILITY_TOL = 1e-9

#: the LP objectives :func:`build_lp` assembles
MODES = ("opacity", "transparency", "min-opacity")

#: occupancies at or below this count as zero when extracting a policy; the
#: bisimulation also compares probabilities as multiples of it, so float
#: sums that differ only by rounding still match
ZERO_OCCUPANCY_THRESHOLD = 1e-12


class PlannerError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Quotient:
    """Coarsest probabilistic bisimulation of a product MDP.

    Absorbing product states share a block when they agree on both
    outcomes, opaque or not and task satisfied or not, so there is one
    block per outcome that occurs.  Non-absorbing states share a block when
    they enable the same actions and under each action reach every block
    with the same probability.  Each block is represented by its smallest
    member.  The non-absorbing blocks come first, numbered by
    representative, then the absorbing ones.  The quotient's rows, the
    LP's columns, are its representatives' product rows ``product_row``:
    block ``b`` owns ``row_ptr[b]:row_ptr[b + 1]``, none when absorbing.
    Every array is int64 and read-only.
    """

    block: np.ndarray  # product state -> block
    representatives: np.ndarray  # block -> smallest member
    row_ptr: np.ndarray  # block -> its first row, then the number of rows
    product_row: np.ndarray  # row -> the representative's product row
    rounds: int  # refinement rounds run, the first re-signing every state

    def __post_init__(self) -> None:
        for array in (self.block, self.representatives, self.row_ptr, self.product_row):
            array.setflags(write=False)

    @property
    def n_blocks(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True, eq=False)
class Product(RowGroups):
    """Reachable product of the model with an automaton, stored once as
    CSR row groups (:class:`RowGroups`).

    State ``v`` pairs the model state ``components[v, 0]`` with the
    automaton's state(s) in the other columns.  Absorbing states, whose
    model state is ``model.bot``, own no rows, as ``model.bot`` owns none
    in the model.  States are numbered
    breadth-first from the initial state 0, each level in order of first
    occurrence as the rows of the level before are read in order: the
    numbering of a FIFO search.
    """

    model: Model
    components: np.ndarray  # (n_states, 1 + automaton components)

    @property
    def initial(self) -> int:
        return 0

    @property
    def n_actions(self) -> int:
        return self.model.n_actions

    @cached_property
    def absorbing_mask(self) -> np.ndarray:
        return _read_only(self.components[:, 0] == self.model.bot)


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
    def lp_models(self) -> Mapping[str, LpModel]:
        """Mode -> the threshold-free LP of that mode, one per entry of
        :data:`MODES` (:func:`_lp_models`): read-only, built on first use
        and kept, with each mode's HiGHS instance, for every threshold."""
        return _lp_models(self)

    @cached_property
    def max_feasible_epsilon(self) -> float | None:
        """The largest task threshold any policy meets: the task row
        maximized over the flow rows, which every mode shares, clipped into
        [0, 1] against HiGHS's round-off; None when HiGHS finds no
        optimum."""
        lp = self.lp_models["opacity"]  # any mode's: they share the rows
        highs = _highs(-lp.task_row, lp.flow, lp.b_eq, lp.b_eq)
        highs.run()
        if highs.getModelStatus() != highspy.HighsModelStatus.kOptimal:
            return None
        return min(1.0, max(0.0, -highs.getInfo().objective_function_value))

    @cached_property
    def task_accepts(self) -> np.ndarray:
        """Per state, whether its task component accepts: at an absorbing
        state, whether the run that stopped there satisfies the task."""
        return _read_only(np.isin(self.components[:, 1], list(self.task.accepting)))

    @cached_property
    def opaque_accepts(self) -> np.ndarray:
        """Per state, whether its q_hat component accepts: at an absorbing
        state, which has read the end marker, whether the run's observation
        is opaque."""
        return _read_only(np.isin(self.components[:, 2], list(self.opaque.accepting)))

    @cached_property
    def transitions(self) -> Mapping[tuple[int, int], tuple[tuple[int, float], ...]]:
        """(state, action) -> ((successor, probability), ...)."""
        return distributions(self, self.entry_prob)

    def state_name(self, v: int) -> str:
        s, q, qh = self.components[v].tolist()
        return f"{self.model.states[s]}|{q}|{qh}"


def _reached(src: np.ndarray, dst: np.ndarray, sources, n: int) -> np.ndarray:
    """Whether each node of the graph with edges ``src -> dst`` on ``n``
    nodes is reached from one of ``sources``: a level search over the
    edges grouped by source, each level the unreached successors of the
    one before, as a mask.  With the edges reversed, ``_reached(dst, src,
    targets, n)``, whether each node reaches one of ``targets``."""
    ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    succ = dst[np.argsort(src, kind="stable")]  # stable sorts a sorted src in linear time
    reached = np.zeros(n, dtype=bool)
    reached[sources] = True
    level = np.flatnonzero(reached)
    while level.size:
        new = np.zeros(n, dtype=bool)
        new[succ[_ranges(ptr[level], ptr[level + 1] - ptr[level])]] = True
        new &= ~reached
        reached |= new
        level = np.flatnonzero(new)
    return reached


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
        lambda c, v, label, obs: (
            task_step[(c // nqh)[v], label] * nqh + opaque_step[(c % nqh)[v], obs]
        ),
    )
    return ProductMdp(
        model=model,
        task=task,
        opaque=opaque,
        components=np.column_stack((s, code // nqh, code % nqh)),
        entry_prob=model.entry_prob[entry_model],
        **rows,
    )


def _label_table(dfa: Dfa, model: Model, what: str) -> np.ndarray:
    """The ``step_table`` of a DFA over the model's label ids, plus a last
    column that keeps every state: the label id of ``a_bot`` entries."""
    table = step_table(dfa, model.label_letters, what)
    return np.column_stack((table, np.arange(dfa.n_states)))


def _product_search(model: Model, n_codes: int, start: int, step) -> tuple:
    """The product of the model with an automaton on the codes
    ``0 .. n_codes - 1``, reachable from (initiating state, ``start``).

    Model entries step the automaton by ``step(codes, v, label, obs)``:
    the level's codes, and per entry its state's place in the level, its
    label id (``Model.label_letters``) and observation id
    (``observation_alphabet()``).  ``a_bot`` entries enter no labelled
    state and read the label id ``len(label_letters)``, the keep column of
    :func:`_label_table`.  An entry with no label or observation raises
    ``ModelError``.  Returns the model state and code of each state, the
    model entry of each entry, and the CSR arrays of :class:`Product`.
    """
    stops = model.entry_action == model.a_bot
    entry_label = np.where(stops, len(model.label_letters), model.state_label[model.entry_succ])
    model_rows = np.diff(model.row_ptr)

    level = np.array([model.top * n_codes + start])
    seen, seen_id = level, np.array([0])  # codes found so far, sorted, and their ids
    levels, row_counts, actions, widths, succs, entries = [level], [], [], [], [], []
    while level.size:
        s, c = level // n_codes, level % n_codes
        count = model_rows[s]
        model_row = _ranges(model.row_ptr[s], count)
        width = model.entry_ptr[model_row + 1] - model.entry_ptr[model_row]
        e = _ranges(model.entry_ptr[model_row], width)
        row = np.repeat(np.arange(len(model_row)), width)  # the level row of each entry
        v = np.repeat(np.arange(len(level)), count)[row]  # its state's place in the level
        label, obs, t = entry_label[e], model.entry_obs[e], model.entry_succ[e]
        undefined = np.flatnonzero((label < 0) | (obs < 0))
        if undefined.size:
            k = undefined[0]
            _raise_undefined(model, int(s[v[k]]), int(model.row_action[model_row[row[k]]]), int(t[k]))
        code = t * n_codes + step(c, v, label, obs)
        ids, level, seen, seen_id = _number_level(code, seen, seen_id)

        # the entries of each row by successor id, as lexsort((ids, row))
        # would sort them: the stable sort keeps entry order among ties, and
        # the key is below len(model_row) * len(seen), a product of two
        # array lengths, so it cannot overflow
        by_succ = np.argsort(row * len(seen) + ids, kind="stable")
        levels.append(level)
        row_counts.append(count)
        actions.append(model.row_action[model_row])
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
    then splits blocks by the signature "action -> probability of reaching
    each current block" until no block splits.

    Refinement is by splitters (Valmari & Franceschinis 2010): a state's
    signature changes only when a successor's block splits, so round 1
    signs every state and each later round re-signs only the states of the
    blocks that hold a predecessor of a state whose block split in the
    round before.  Block ids are stable: a splitting block keeps its id
    for one part and the other parts get fresh ids, so an untouched
    state's signature stays valid.  The coarsest bisimulation is unique,
    so this is the partition that re-signing every state each round finds.
    """
    absorbing = pm.absorbing_mask
    # absorbing states by outcome (codes 0-3), the others all under code 4
    head = np.where(absorbing, 2 * pm.opaque_accepts + pm.task_accepts, 4)
    block = _signature_classes(head, pm.row_state, pm.row_action)
    pred_ptr, pred = _predecessors(pm)

    touched = np.arange(pm.n_states)
    rounds = 0
    while touched.size:
        rounds += 1
        n_blocks = int(block.max()) + 1
        cls = _signature_classes(block[touched], *_signatures(pm, touched, block, n_blocks))
        # classes are sorted by block first: the first class of each block
        # keeps its id, the others get fresh ones
        cls_block = np.empty(int(cls.max()) + 1, dtype=np.int64)
        cls_block[cls] = block[touched]
        keeps = np.ones(len(cls_block), dtype=bool)
        keeps[1:] = cls_block[1:] != cls_block[:-1]
        fresh = ~keeps
        block[touched] = np.where(keeps, cls_block, n_blocks + np.cumsum(fresh) - 1)[cls]
        split = np.zeros(n_blocks + int(fresh.sum()), dtype=bool)
        split[cls_block[fresh]] = True
        split[n_blocks:] = True
        # next, the blocks of the predecessors of every state whose block split
        moved = touched[split[block[touched]]]
        hit = np.zeros(len(split), dtype=bool)
        hit[block[pred[_ranges(pred_ptr[moved], pred_ptr[moved + 1] - pred_ptr[moved])]]] = True
        touched = np.flatnonzero(hit[block])

    # renumber: non-absorbing blocks by smallest member, then the absorbing ones
    first = _unique(block)[1]
    order = np.argsort(absorbing[first] * len(block) + first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    reps = first[order]
    width = pm.row_ptr[reps + 1] - pm.row_ptr[reps]  # 0 at an absorbing block
    return Quotient(
        block=rank[block],
        representatives=reps,
        row_ptr=np.concatenate(([0], np.cumsum(width))),
        product_row=_ranges(pm.row_ptr[reps], width),
        rounds=rounds,
    )


def _predecessors(pm: ProductMdp) -> tuple[np.ndarray, np.ndarray]:
    """The predecessor index: the source states of the entries into state
    ``t`` are ``pred[pred_ptr[t]:pred_ptr[t + 1]]``."""
    counts = np.bincount(pm.entry_succ, minlength=pm.n_states)
    pred_ptr = np.concatenate(([0], np.cumsum(counts)))
    per_state = pm.entry_ptr[pm.row_ptr[1:]] - pm.entry_ptr[pm.row_ptr[:-1]]
    pred = np.repeat(np.arange(pm.n_states), per_state)[np.argsort(pm.entry_succ)]
    return pred_ptr, pred


def _signatures(pm: ProductMdp, touched: np.ndarray, block: np.ndarray, n_blocks: int):
    """The signature rows of the ``touched`` states (increasing): per
    (row, block) pair that a row's entries reach, in (row, block) order,
    ``row_action * n_blocks + block`` and the quantized probability mass.
    Returns the place in ``touched`` of each pair's state, then the two
    columns."""
    if len(touched) == pm.n_states:  # every state: read the arrays in place
        owner, row_action = pm.row_state, pm.row_action
        succ, prob, width = pm.entry_succ, pm.entry_prob, np.diff(pm.entry_ptr)
    else:
        count = pm.row_ptr[touched + 1] - pm.row_ptr[touched]
        rows = _ranges(pm.row_ptr[touched], count)
        owner = np.repeat(np.arange(len(touched)), count)
        row_action = pm.row_action[rows]
        width = pm.entry_ptr[rows + 1] - pm.entry_ptr[rows]
        e = _ranges(pm.entry_ptr[rows], width)
        succ, prob = pm.entry_succ[e], pm.entry_prob[e]
        del e
    key = np.repeat(np.arange(len(row_action), dtype=np.int64) * n_blocks, width)
    key += block[succ]
    # a stable sort keeps each pair's entries in entry order, the order
    # in which bincount adds their probabilities
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    mass = np.bincount(np.cumsum(first) - 1, weights=prob[order])
    del order
    pair_row, pair_block = np.divmod(key[first], n_blocks)
    return owner[pair_row], row_action[pair_row] * n_blocks + pair_block, _quantize(mass)


def _quantize(values) -> np.ndarray:
    return np.rint(np.asarray(values, dtype=float) / ZERO_OCCUPANCY_THRESHOLD).astype(np.int64)


def _signature_classes(head: np.ndarray, owner: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    """Class of each state by its ``head`` value and the sequence of its
    rows of ``columns``, ranked by ``row_classes`` over one int64 table;
    ``owner`` (non-decreasing) names the state of each row.  States with
    fewer rows are padded with -1, below every column value."""
    counts = np.bincount(owner, minlength=len(head))
    start = np.cumsum(counts) - counts
    k = len(columns)
    table = np.full((len(head), 1 + k * int(counts.max(initial=0))), -1, dtype=np.int64)
    table[:, 0] = head
    at = 1 + k * (np.arange(len(owner)) - start[owner])
    for j, column in enumerate(columns):
        table[owner, at + j] = column
    return row_classes(table)


@dataclass(frozen=True, eq=False)
class LpModel:
    """Occupancy-measure LP over the bisimulation quotient of the product,
    without its task threshold.

    Each non-absorbing block contributes one conservation row and one
    variable per enabled action, named after the block's representative
    product state: occupancy out of the block equals occupancy into it
    plus the unit injection at the initial state's block.  Row ``i`` is
    block ``i``'s, and column ``j`` is the quotient's row ``j``, named by
    ``variables[j]``.  The flow rows are the CSC arrays ``flow`` =
    (``ptr``, ``row``, ``value``): column ``j``'s entries are
    ``ptr[j]:ptr[j + 1]``, by row.  A variable's objective and task
    coefficients are the probability it sends into absorbing states of the
    wanted outcome.  Every variable is non-negative and unbounded above:
    the flow rows put exactly one unit into the absorbing states, so both
    the objective and the task row are at most 1.  The modes share every
    array but the objective (:func:`_lp_models`), and all are read-only.
    """

    pm: ProductMdp
    mode: str  # "opacity" | "transparency" | "min-opacity"
    variables: np.ndarray  # (n_columns, 2) int64: (representative state, action)
    rows: np.ndarray  # representatives of non-absorbing blocks, row order
    objective: np.ndarray
    maximize: bool
    flow: tuple[np.ndarray, np.ndarray, np.ndarray]  # CSC (ptr, row, value)
    flow_col: np.ndarray  # the column of each entry of ``flow``
    b_eq: np.ndarray
    task_row: np.ndarray

    def __post_init__(self) -> None:
        arrays = (self.variables, self.rows, self.objective, self.flow_col, self.b_eq, self.task_row)
        for array in (*arrays, *self.flow):
            array.setflags(write=False)

    @cached_property
    def a_eq(self):
        """The flow rows as a read-only scipy CSR matrix, built on first
        access; nothing in the package reads it, and it is the one place
        that imports ``scipy.sparse``."""
        import scipy.sparse as sp

        ptr, row, value = self.flow
        a = sp.csc_matrix((value, row, ptr), shape=(len(self.rows), len(self.variables))).tocsr()
        for array in (a.data, a.indices, a.indptr):
            array.setflags(write=False)
        return a

    def variable_name(self, j: int) -> str:
        v, a = self.variables[j].tolist()
        return f"m_v{v}_a{a}"

    @cached_property
    def cost(self) -> np.ndarray:
        """The objective as HiGHS minimizes it."""
        return _read_only((-1.0 if self.maximize else 1.0) * self.objective)

    @cached_property
    def start_policy(self) -> tuple[np.ndarray | None, int]:
        """The optimal policy of this LP without its task row, one column
        per flow row, and the rounds of policy iteration that found it
        (:func:`_policy_iteration`); None and 0 when the start policy does
        not stop."""
        return _policy_iteration(self)

    @property
    def start_policy_rounds(self) -> int:
        return self.start_policy[1]

    @cached_property
    def highs(self):
        """This LP in one HiGHS instance, passed on the first solve: the
        task row first, as ``-task_row @ x <= -epsilon`` (the layout of
        scipy's ``highs-ds`` method) with the bound each solve sets, then
        the flow rows.  The first solve's dual simplex starts from the
        basis of ``start_policy``: its columns and the task row are basic,
        the other columns sit at zero and the flow rows are nonbasic.  That
        basis is dual feasible, so a threshold the policy meets takes no
        iteration.  A solve leaves its basis here, and the next threshold's
        dual simplex starts from it."""
        a = _on_top(-self.task_row, *self.flow)
        highs = _highs(self.cost, a, np.append(-np.inf, self.b_eq), np.append(np.inf, self.b_eq))
        policy = self.start_policy[0]
        if policy is not None:
            status = highspy.HighsBasisStatus
            col_status = np.full(len(self.variables), status.kLower, dtype=object)
            col_status[policy] = status.kBasic
            basis = highspy.HighsBasis()
            basis.col_status = col_status.tolist()
            basis.row_status = [status.kBasic] + [status.kLower] * len(self.b_eq)
            basis.valid = True
            highs.setBasis(basis)
        return highs


def _on_top(top: np.ndarray, ptr: np.ndarray, row: np.ndarray, value: np.ndarray) -> tuple:
    """The CSC arrays of the matrix with the dense row ``top`` stacked on
    the CSC matrix (``ptr``, ``row``, ``value``): in each column the
    non-zero of ``top`` first, in row 0, then the column one row down."""
    has_top = top != 0.0
    shift = np.cumsum(has_top)  # the entries of ``top`` up to each column
    new_ptr = ptr + np.concatenate(([0], shift))
    new_row = np.zeros(new_ptr[-1], dtype=row.dtype)
    new_value = np.empty(new_ptr[-1])
    at = np.arange(len(row)) + np.repeat(shift, np.diff(ptr))
    new_row[at], new_value[at] = row + 1, value
    first = new_ptr[:-1][has_top]
    new_value[first] = top[has_top]
    return new_ptr, new_row, new_value


#: the options scipy's ``splu`` passes SuperLU's ``gstrf`` by default
_SPLU_OPTIONS = {"DiagPivotThresh": None, "ColPerm": None, "PanelSize": None, "Relax": None}


def _splu(ptr: np.ndarray, row: np.ndarray, value: np.ndarray):
    """SuperLU's LU factorization of the square matrix with the CSC arrays
    (ptr, row, value), as scipy's ``splu`` calls ``gstrf``; the factors'
    ``L`` and ``U`` attributes, which need a sparse matrix class, are not
    available."""
    if superlu is None:
        raise PlannerError("policy iteration needs scipy's SuperLU extension, " + SUPERLU)
    n = len(ptr) - 1
    return superlu.gstrf(
        n, len(value), value, row.astype(np.intc), ptr.astype(np.intc),
        csc_construct_func=None, ilu=False, options=_SPLU_OPTIONS,
    )


def _policy_iteration(lp: LpModel) -> tuple[np.ndarray | None, int]:
    """Policy iteration (Puterman 1994, §7.2) on the columns of ``lp``'s
    flow rows, which without the task row are an MDP: returns the column
    each row ends on and the number of rounds, each one sparse LU.

    The start policy takes ``a_bot`` where a row enables it and the row's
    first column elsewhere: in a validated model, ``s_top``'s only action.
    Each round solves ``a_eq[:, policy].T @ v = cost[policy]`` for the
    values with SuperLU (:func:`_splu`), prices every column at
    ``cost - a_eq.T @ v`` with one ``bincount`` and moves each
    row whose best column is below ``-FEASIBILITY_TOL`` to that column,
    until no row moves.

    A policy is proper, stops with probability 1, when every row reaches a
    column that sends mass into the absorbing states.  Strict improvement
    keeps a policy proper: a closed class of the new policy sends no mass
    out, so its columns cost nothing, and averaged over the class's
    recurrent rows its values would have to improve on themselves by the
    moves among those rows, so none of them moved; then the class was
    closed under the old policy too.  Each round strictly lowers the values
    and there are finitely many policies, so the loop ends.  ``validate``
    requires a sure ``a_bot`` at every interior state, so the start policy
    of a valid model is proper; an improper one gives None, and HiGHS
    starts from its own crash basis.
    """
    quotient, (ptr, row, value), n = lp.pm.quotient, lp.flow, len(lp.rows)
    var_ptr = quotient.row_ptr[:n]  # block i's columns start at var_ptr[i]
    policy = var_ptr.copy()
    stops = np.flatnonzero(lp.variables[:, 1] == lp.pm.model.a_bot)
    policy[quotient.block[lp.variables[stops, 0]]] = stops

    def columns(policy):  # the CSC arrays of a_eq[:, policy]
        count = ptr[policy + 1] - ptr[policy]
        e = _ranges(ptr[policy], count)
        return np.concatenate(([0], np.cumsum(count))), row[e], value[e]

    chosen_ptr, chosen_row, chosen_value = columns(policy)
    chosen_col = np.repeat(np.arange(n), np.diff(chosen_ptr))
    leaks = np.flatnonzero(np.bincount(chosen_col, chosen_value, n) > ZERO_OCCUPANCY_THRESHOLD)
    if not _reached(chosen_row, chosen_col, leaks, n).all():  # every row reaches a leak
        return None, 0
    rounds = 0
    while True:
        rounds += 1
        values = _splu(*columns(policy)).solve(lp.cost[policy], trans="T")
        reduced = lp.cost - np.bincount(lp.flow_col, value * values[row], len(lp.cost))
        best = _first_minima(reduced, var_ptr)  # each row's first cheapest column
        moves = reduced[best] < -FEASIBILITY_TOL
        if not moves.any():
            return _read_only(policy), rounds
        policy[moves] = best[moves]


def _first_minima(values: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The index of the first least value of each segment
    ``values[start[i]:start[i + 1]]``, the last one ending with
    ``values``; ``start`` increases strictly from 0.  Equal values tie, so
    ``-0.0`` and ``0.0`` do, as in ``np.lexsort((values, segment))``."""
    low = np.minimum.reduceat(values, start)
    at_low = values == np.repeat(low, np.diff(start, append=len(values)))
    return np.minimum.reduceat(np.where(at_low, np.arange(len(values)), len(values)), start)


@dataclass(frozen=True)
class LpProblem:
    """The LP of ``model`` with the task row ``task_row @ x >= epsilon``;
    every field of ``model`` reads through."""

    model: LpModel
    epsilon: float

    def __getattr__(self, name: str):
        if name.startswith("__"):  # copy and pickle probe before ``model`` is set
            raise AttributeError(name)
        return getattr(self.model, name)


def build_lp(pm: ProductMdp, epsilon: float, mode: str = "opacity") -> LpProblem:
    """Assemble the LP for one of three objectives.

    ``opacity`` maximizes the probability of terminating with an opaque
    observation; ``transparency`` maximizes terminating with a transparent
    one (every terminated run is one or the other); ``min-opacity`` is the
    literal minimization of the opacity objective, kept for comparison.
    A threshold ``epsilon`` that is not finite raises ``PlannerError``.
    The threshold-free part is built once per product; the modes share
    every array but the objective.
    """
    if mode not in MODES:
        raise PlannerError(f"unknown mode {mode!r}")
    if not np.isfinite(epsilon):
        raise PlannerError(f"the task threshold must be finite, not {epsilon!r}")
    return LpProblem(model=pm.lp_models[mode], epsilon=float(epsilon))


def _lp_models(pm: ProductMdp) -> Mapping[str, LpModel]:
    """Every mode's :class:`LpModel`, from one gather of the quotient
    rows' entries: they share every array but the objective, and
    min-opacity shares opacity's."""
    quotient = pm.quotient
    # non-absorbing blocks are numbered first, so a block is its row
    row_of, reps, var_row = quotient.block, quotient.representatives, quotient.product_row
    rows = reps[: np.count_nonzero(~pm.absorbing_mask[reps])]
    var_state = pm.row_state[var_row]

    e, j = pm.entries(var_row)
    t, p = pm.entry_succ[e], pm.entry_prob[e]
    stop = pm.absorbing_mask[t]
    # a stopping entry pays its probability to the outcome it stops in;
    # bincount adds in entry order (and gives ints when nothing is added)
    payer, paid, outcome = j[stop], p[stop], t[stop]
    opacity, transparency, task_row = (
        np.bincount(payer[won], weights=paid[won], minlength=len(var_row)).astype(float)
        for won in (pm.opaque_accepts[outcome], ~pm.opaque_accepts[outcome], pm.task_accepts[outcome])
    )
    inner = ~stop  # the entries into non-absorbing blocks
    flow = _flow_matrix(row_of[var_state], j[inner], row_of[t[inner]], p[inner])
    b_eq = np.zeros(len(rows))
    b_eq[row_of[pm.initial]] = 1.0
    shared = dict(
        pm=pm, rows=rows, flow=flow, b_eq=b_eq, task_row=task_row,
        variables=np.column_stack((var_state, pm.row_action[var_row])),
        flow_col=np.repeat(np.arange(len(var_row)), np.diff(flow[0])),
    )
    objective = {"opacity": opacity, "transparency": transparency, "min-opacity": opacity}
    return MappingProxyType({
        mode: LpModel(mode=mode, objective=objective[mode], maximize=mode != "min-opacity", **shared)
        for mode in MODES
    })


def _flow_matrix(unit_row, col, row, prob) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSC arrays (ptr, row, value) of the flow columns: column ``c``
    is 1 at ``unit_row[c]``, then ``-prob[k]`` at ``row[k]`` where
    ``col[k] == c``.  Each column is sorted by row, and the entries of one
    (row, column) are summed left to right: the unit first, then in entry
    order."""
    n = len(unit_row)
    cols = np.concatenate((np.arange(n), col))
    rows = np.concatenate((unit_row, row))
    # lexsort stays: a stable sort on one packed key takes 1.4 ms where it
    # takes 3.8 ms on the default gridworld's LP (5,594 columns, 23,792
    # entries), but that is 0.3% of a 0.75 s gridworld pass, inside the
    # pass's run-to-run spread
    order = np.lexsort((rows, cols))  # stable: by column, then row, then entry order
    cols, rows = cols[order], rows[order]
    data = np.concatenate((np.ones(n), -prob))[order]
    first = np.ones(len(order), dtype=bool)  # the first entry of each (column, row)
    first[1:] = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
    value = data[first]
    np.add.at(value, np.cumsum(first)[~first] - 1, data[~first])
    ptr = np.concatenate(([0], np.cumsum(np.bincount(cols[first], minlength=n))))
    return ptr, rows[first], value


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
    #: the task row's dual, >= 0: how much the objective worsens per unit
    #: of task threshold (0 where the task row is slack).  At a breakpoint
    #: of the trade-off curve it is one of the two one-sided slopes, and
    #: which one depends on the basis the solve started from: the running
    #: example's opacity at 0.5 gives 1.0 after a warm sequence and 0.0
    #: from a fresh instance, which starts at the start policy's basis
    task_dual: float | None = None


#: the options scipy's ``highs-ds`` method passes HiGHS, tolerances set;
#: presolve runs only on a solve with no starting basis
_HIGHS_OPTIONS = {
    "presolve": "on",
    "solver": "simplex",
    "simplex_strategy": 1,  # dual
    "primal_feasibility_tolerance": FEASIBILITY_TOL,
    "dual_feasibility_tolerance": FEASIBILITY_TOL,
    "output_flag": False,
}


def _highs(cost, a: tuple, row_lower, row_upper):
    """A HiGHS instance holding ``min cost @ x`` subject to ``row_lower <=
    a @ x <= row_upper`` and ``x >= 0``, with ``_HIGHS_OPTIONS``; ``a`` is
    given by its CSC arrays (ptr, row, value)."""
    if highspy is None:
        raise PlannerError("solving needs scipy's HiGHS binding, scipy.optimize._highspy")
    n_rows, n_cols = len(row_lower), len(cost)
    lp = highspy.HighsLp()
    lp.num_col_, lp.num_row_ = n_cols, n_rows
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, np.zeros(n_cols), np.full(n_cols, np.inf)
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    matrix = lp.a_matrix_
    matrix.format_, matrix.num_col_, matrix.num_row_ = highspy.MatrixFormat.kColwise, n_cols, n_rows
    matrix.start_, matrix.index_, matrix.value_ = a
    highs = highspy._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(name, value)
    highs.passModel(lp)
    return highs


def solve_lp(lp: LpProblem) -> PolicySolution:
    """Solve with the HiGHS dual simplex, so the occupancy is a vertex of
    the feasible set.  Only the task row's bound changes between the
    solves of one product and mode: the first starts from the basis of
    ``lp.model.start_policy``, the task-free optimum, and needs no
    iteration when that policy meets the threshold; each later one
    re-runs from the basis the last one left in ``lp.model.highs``.  Any
    solve may end on another vertex of the optimal face than a cold
    ``highs-ds`` solve.  On infeasibility, report the product's largest
    feasible threshold.

    A vertex holds no zero-reward circulation: were ``x >= d c`` for a
    circulation ``c`` and some ``d > 0``, both ``x + d c`` and ``x - d c``
    would be feasible and equally good.  So the extracted policy stops with
    probability 1, which ``exact_policy_values`` and ``rollout`` check.
    """
    highs = lp.model.highs
    highs.changeRowBounds(0, -np.inf, -lp.epsilon)
    highs.run()
    status = highs.getModelStatus()
    iterations = highs.getInfo().simplex_iteration_count
    message = highs.modelStatusToString(status)
    if status != highspy.HighsModelStatus.kOptimal:
        infeasible = status == highspy.HighsModelStatus.kInfeasible
        return PolicySolution(
            status="infeasible" if infeasible else "numerical-failure",
            objective=None,
            occupancy=None,
            lp=lp,
            iterations=iterations,
            message=message,
            max_feasible_epsilon=lp.pm.max_feasible_epsilon if infeasible else None,
        )
    solution = highs.getSolution()
    occupancy = np.array(solution.col_value)
    _, row, value = lp.flow
    flow = np.bincount(row, value * occupancy[lp.flow_col], len(lp.b_eq))  # a_eq @ occupancy
    residual = float(np.max(np.abs(flow - lp.b_eq))) if len(occupancy) else 0.0
    return PolicySolution(
        status="optimal",
        objective=float(lp.objective @ occupancy),
        occupancy=occupancy,
        lp=lp,
        iterations=iterations,
        message=message,
        flow_residual=residual,
        # the row is -task_row @ x <= -epsilon in a minimization, so its
        # dual is minus the price; 0.0 - d turns a zero dual into +0.0
        task_dual=0.0 - solution.row_dual[0],
    )


def extract_policy(sol: PolicySolution, pm: ProductMdp) -> np.ndarray:
    """Normalize block occupancies into a stationary randomized policy:
    the probability of each product row, which is its block's.

    Bisimilar states enable the same actions in the same order, so row
    ``r`` of state ``v`` in block ``b`` reads the LP column
    ``quotient.row_ptr[b] + r - row_ptr[v]``.  States the solution never
    visits fall back to immediate termination when available
    (conservative: it leaks nothing further), else to a uniform choice.
    """
    if sol.lp.pm is not pm:
        raise PlannerError("the solution is of another product's LP")
    if sol.status != "optimal":
        raise PlannerError(f"cannot extract a policy from a {sol.status} solution")
    quotient, s, width = pm.quotient, pm.row_state, np.diff(pm.row_ptr)
    x = sol.occupancy[quotient.row_ptr[quotient.block[s]] + np.arange(len(s)) - pm.row_ptr[s]]
    w = np.where(x >= 0.0, x, 0.0)  # as max(x, 0.0): keeps -0.0
    total = np.bincount(s, weights=w, minlength=pm.n_states)[s]
    stop = pm.row_action == pm.model.a_bot
    can_stop = np.zeros(pm.n_states, dtype=bool)
    can_stop[s[stop]] = True
    visited = total > ZERO_OCCUPANCY_THRESHOLD
    probs = np.where(
        visited, w / np.where(visited, total, 1.0), np.where(can_stop[s], stop, 1.0 / width[s])
    )
    return probs / np.bincount(s, weights=probs, minlength=pm.n_states)[s]


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
        terms = [f"+ 0 {lp.variable_name(0)}"] if len(lp.variables) else ["+ 0 m_zero"]
    lines.extend(_wrap_terms("obj:", terms))
    lines.append("Subject To")
    _, row, value = lp.flow
    by_row = np.argsort(row, kind="stable")  # the entries by row, each row's by column
    ptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=len(lp.rows))))).tolist()
    cols, values = lp.flow_col[by_row].tolist(), value[by_row].tolist()
    for i, v_state in enumerate(lp.rows.tolist()):
        terms = [
            ("+ " if v >= 0 else "- ") + f"{_num(abs(v))} {lp.variable_name(c)}"
            for c, v in zip(cols[ptr[i] : ptr[i + 1]], values[ptr[i] : ptr[i + 1]])
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


def policy_to_dict(policy: np.ndarray, pm: ProductMdp, metadata: Mapping | None = None) -> dict:
    """The policy file of a policy: each non-absorbing product state's
    probability of every action it enables."""
    actions = [pm.model.actions[a] for a in pm.row_action.tolist()]
    probs, ptr = policy.tolist(), pm.row_ptr.tolist()
    body = {
        pm.state_name(v): dict(zip(actions[ptr[v] : ptr[v + 1]], probs[ptr[v] : ptr[v + 1]]))
        for v in np.flatnonzero(~pm.absorbing_mask).tolist()
    }
    return {"metadata": dict(metadata or {}), "policy": body}


def policy_from_dict(doc: Mapping, pm: ProductMdp) -> np.ndarray:
    """The policy of a :func:`policy_to_dict` document, one probability
    per product row (0 for the actions a state's entry leaves out); raises
    ``PlannerError`` naming the product state and field that are wrong."""
    body = doc.get("policy") if isinstance(doc, Mapping) else None
    if not isinstance(body, Mapping):
        raise PlannerError('policy file needs a "policy" object of product states')
    names = {pm.state_name(v): v for v in range(pm.n_states)}
    covered = np.zeros(pm.n_states, dtype=bool)
    state: list[int] = []
    action: list[int] = []
    prob: list[float] = []
    for key, dist in body.items():
        v = names.get(key)
        if v is None:
            raise PlannerError(f"policy references unknown product state {key!r}")
        if not isinstance(dist, Mapping):
            raise PlannerError(f"policy at {key!r} is not an object of action probabilities")
        covered[v] = True
        for a, p in dist.items():
            if a not in pm.model.action_index:
                raise PlannerError(f"policy at {key!r} names unknown action {a!r}")
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise PlannerError(f"policy at {key!r} gives action {a!r} the non-number {p!r}")
            state.append(v)
            action.append(pm.model.action_index[a])
            prob.append(float(p))
    rows = pm.rows_of(state, action)
    bad = np.flatnonzero(rows < 0)
    if bad.size:
        k = bad[0]
        raise PlannerError(
            f"policy uses action {pm.model.actions[action[k]]!r}, not enabled at "
            f"product state {pm.state_name(state[k])!r}"
        )
    missing = np.flatnonzero(~pm.absorbing_mask & ~covered)
    if missing.size:
        raise PlannerError(
            f"policy does not cover {missing.size} reachable states, "
            f"e.g. {pm.state_name(missing[0])!r}"
        )
    policy = np.zeros(len(pm.row_action))
    policy[rows] = prob
    return policy
