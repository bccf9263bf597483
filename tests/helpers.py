"""Test helpers: seeded random models and secrets for property coverage,
random walks over a model, running the observation transducer (the
model) and its product with a secret on a play by stepping their entry
arrays, a play's label word and its classification by an opaque DFA, the
brute-force opaque observation words, the uniform policy, NFA acceptance
by stepping the move arrays, an NFA's moves as a dict, the dict subset
construction that the array one replaced, the dict intersection that the
level search replaced, the ``np.unique`` numbering of a search level
that one sort replaced, the occupancy of a product state's block, a
product's states as component tuples, DFAs and NFAs built from move
dicts and compared field by field, Moore's minimization by
``np.unique`` rows, and the full-refinement bisimulation quotient that
refinement by splitters replaced."""

from collections import deque
from typing import Callable, Iterable, Mapping

import numpy as np

from opaque_planner.automata import Dfa, Nfa, sort_alphabet
from opaque_planner.model import END, START, Model, ObsSymbol, Play, build_model, obs_of_play
from opaque_planner.planner import ZERO_OCCUPANCY_THRESHOLD, PolicySolution, ProductMdp, Quotient
from opaque_planner.simulate import observation_buckets
from opaque_planner.transducer import ProductFst


# the secrets of perfbench's gridworld-build workload
GRIDWORLD_BUILD_SECRETS = [
    "F B & F A",
    "F (B & F A)",
    "G (!B | F A)",
    "F B | G !A",
    "F A & G !C",
    "(!A) U B",
]


def dfa_from_moves(
    alphabet: tuple,
    transitions: Mapping[tuple[int, object], int],
    initial: int,
    accepting: Iterable[int],
    state_names: tuple[str, ...],
) -> Dfa:
    """The DFA with the moves ``(state, letter) -> successor``; a (state,
    letter) pair with no move is -1 in its table."""
    column = {letter: i for i, letter in enumerate(alphabet)}
    table = np.full((len(state_names), len(alphabet)), -1, dtype=np.int64)
    for (q, letter), t in transitions.items():
        table[q, column[letter]] = t
    return Dfa(
        alphabet=alphabet,
        table=table,
        initial=initial,
        accepting=frozenset(accepting),
        state_names=state_names,
    )


def same_dfa(a: Dfa, b: Dfa) -> bool:
    """Whether two DFAs have the same alphabet, moves, initial state,
    accepting states and state names."""
    return (
        a.alphabet == b.alphabet
        and np.array_equal(a.table, b.table)
        and (a.initial, a.accepting, a.state_names) == (b.initial, b.accepting, b.state_names)
    )


def nfa_from_moves(
    alphabet: tuple,
    transitions: Mapping[tuple[int, object], Iterable[int]],
    initials: Iterable[int],
    accepting: Iterable[int],
    state_names: tuple[str, ...],
) -> Nfa:
    """The NFA with a move ``state -> target`` on ``letter`` for each
    target listed under ``(state, letter)``, repeats included, in the
    order given."""
    column = {letter: i for i, letter in enumerate(alphabet)}
    moves = [(q, column[letter], t) for (q, letter), ts in transitions.items() for t in ts]
    src, letter, dst = np.array(moves, dtype=np.int64).reshape(-1, 3).T
    return Nfa(
        alphabet=alphabet,
        src=src,
        letter=letter,
        dst=dst,
        initials=frozenset(initials),
        accepting=frozenset(accepting),
        state_names=state_names,
    )


def same_nfa(a: Nfa, b: Nfa) -> bool:
    """Whether two NFAs have the same alphabet, set of moves, initial
    states, accepting states and state names."""

    def moves(nfa: Nfa) -> np.ndarray:
        return np.unique((nfa.src * len(nfa.alphabet) + nfa.letter) * nfa.n_states + nfa.dst)

    return (
        (a.alphabet, a.initials, a.accepting, a.state_names)
        == (b.alphabet, b.initials, b.accepting, b.state_names)
        and np.array_equal(moves(a), moves(b))
    )


def nfa_accepts(nfa: Nfa, word) -> bool:
    """Whether some run of the NFA on ``word`` ends in an accepting state."""
    current = np.isin(np.arange(nfa.n_states), list(nfa.initials))
    for letter in word:
        i = nfa.alphabet.index(letter) if letter in nfa.alphabet else -1
        moved = current[nfa.src] & (nfa.letter == i)
        current = np.isin(np.arange(nfa.n_states), nfa.dst[moved])
    return bool(current[list(nfa.accepting)].any())


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


def random_walk(model: Model, rng, max_interior: int) -> Play:
    """Sample a play of ``model`` with at most ``max_interior`` interior
    actions."""
    linear = [model.states[model.top], model.actions[model.a_top]]
    s = _sample(rng, model.initial_dist())
    linear.append(model.states[s])
    for _ in range(max_interior):
        interior = [a for a in model.enabled(s) if a != model.a_bot]
        if not interior or rng.random() < 0.3:
            break
        a = interior[rng.integers(len(interior))]
        s = _sample(rng, model.successors(s, a))
        linear.extend([model.actions[a], model.states[s]])
    linear.extend([model.actions[model.a_bot], model.states[model.bot]])
    return Play.from_linear(linear)


def _sample(rng, dist):
    u = rng.random()
    acc = 0.0
    for t, p in dist:
        acc += p
        if u <= acc:
            return t
    return dist[-1][0]


def play_inputs(model: Model, play: Play) -> tuple[tuple[int, int, int], ...]:
    """The transducer input letters (state, action, successor) of a play."""
    s = [model.state_index[x] for x in play.states]
    a = [model.action_index[x] for x in play.actions]
    return tuple((s[i], a[i], s[i + 1]) for i in range(len(a)))


def _entry(groups, v: int, a: int, reads: np.ndarray, t: int) -> int:
    """The entry of ``groups`` from state ``v`` on action ``a`` that reads
    the model successor ``reads[e] == t``; KeyError when there is none."""
    row = int(groups.rows_of([v], [a])[0])
    if row >= 0:
        e = np.arange(groups.entry_ptr[row], groups.entry_ptr[row + 1])
        hit = e[reads[e] == t]
        if len(hit):
            return int(hit[0])
    raise KeyError((v, (a, t)))


def fst_move(model: Model, state: int, letter: tuple[int, int, int]) -> tuple[int, ObsSymbol]:
    """The observation transducer's move from ``state`` on the input
    ``letter`` = (state, action, successor): the successor and the output,
    read from the model's entry arrays.  KeyError when the letter does not
    leave ``state``."""
    s, a, t = letter
    if s != state:
        raise KeyError((state, letter))
    e = _entry(model, s, a, model.entry_succ, t)
    assert model.entry_obs[e] >= 0, letter
    return int(model.entry_succ[e]), model.symbols[model.entry_obs[e]]


def product_fst_move(pf: ProductFst, state: int, letter: tuple[int, int, int]) -> tuple:
    """The product transducer's move from ``state`` on the input
    ``letter``: the successor and the output, read from its entry
    arrays.  KeyError when it has no such move."""
    s, a, t = letter
    if s != pf.components[state, 0]:
        raise KeyError((state, letter))
    e = _entry(pf, state, a, pf.model.entry_succ[pf.entry_model], t)
    return int(pf.entry_succ[e]), pf.model.symbols[pf.model.entry_obs[pf.entry_model[e]]]


def run_fst(model: Model, inputs) -> tuple[ObsSymbol, ...]:
    """The observation word the transducer emits on reading ``inputs``."""
    state = model.top
    out = []
    for letter in inputs:
        state, symbol = fst_move(model, state, letter)
        out.append(symbol)
    return tuple(out)


def run_product_fst(pf: ProductFst, inputs) -> int:
    """The state of ``pf`` reached from its initial one on ``inputs``."""
    state = pf.initial
    for letter in inputs:
        state, _out = product_fst_move(pf, state, letter)
    return state


def run_on_play(model: Model, play: Play) -> tuple[ObsSymbol, ...]:
    """The observation word the transducer emits along ``play``."""
    model.check_play(play)
    return run_fst(model, play_inputs(model, play))


def label_of_play(model: Model, play: Play) -> tuple:
    """The framed label word: start marker, interior labels, end marker."""
    model.check_play(play)
    mids = tuple(model.label_of(model.state_index[s]) for s in play.interior_states)
    return (START,) + mids + (END,)


def classify_play(model: Model, play: Play, opaque: Dfa) -> str:
    """Return "opaque" or "transparent" for a terminated play."""
    word = obs_of_play(model, play)
    return "opaque" if opaque.accepts(word) else "transparent"


def brute_force_opaque_obs(
    model: Model, secret: Dfa, max_actions: int
) -> frozenset[tuple[ObsSymbol, ...]]:
    """Observation words witnessed by both a satisfying and a violating
    play; the independent ground truth for the opaque-observations DFA."""
    buckets = observation_buckets(model, secret, max_actions)
    return frozenset(w for w, (sat, vio) in buckets.items() if sat and vio)


def uniform_policy(pm: ProductMdp) -> np.ndarray:
    """Uniform over the enabled actions at every non-absorbing state: each
    row has probability one over its state's number of rows."""
    return 1.0 / np.diff(pm.row_ptr)[pm.row_state]


def nfa_moves(nfa: Nfa) -> dict[tuple[int, object], frozenset[int]]:
    """(state, letter) -> the targets of the NFA's moves, the dict form
    that the reference constructions read."""
    targets: dict[tuple[int, object], set[int]] = {}
    for q, i, t in zip(nfa.src.tolist(), nfa.letter.tolist(), nfa.dst.tolist()):
        targets.setdefault((q, nfa.alphabet[i]), set()).add(t)
    return {k: frozenset(v) for k, v in targets.items()}


def product_states(product) -> tuple[tuple[int, ...], ...]:
    """Each state of a product (the product MDP or the product
    transducer) as the tuple of its components."""
    return tuple(map(tuple, product.components.tolist()))


def product_index(product) -> dict[tuple[int, ...], int]:
    """The state of a product that each component tuple names."""
    return {v: i for i, v in enumerate(product_states(product))}


def block_occupancy(sol: PolicySolution, v: int) -> float:
    """The total occupancy of product state ``v``'s bisimulation block: the
    sum, in action order, of the block's LP variables, the quotient's rows
    of the block."""
    quotient = sol.lp.pm.quotient
    b = quotient.block[v]
    return sum(float(x) for x in sol.occupancy[quotient.row_ptr[b] : quotient.row_ptr[b + 1]])


def reference_subset_construction(nfa: Nfa, accepts: Callable[[frozenset[int]], bool]) -> Dfa:
    """Subset construction, reachable subsets only; a subset is accepting
    when ``accepts(subset)`` holds.

    The empty subset appears as the rejecting sink whenever some letter
    has no successor, so the result is always complete.
    """
    per_state: dict[int, dict] = {}
    for (q, letter), targets in nfa_moves(nfa).items():
        per_state.setdefault(q, {})[letter] = targets
    empty = frozenset()
    start = frozenset(nfa.initials)
    order: dict[frozenset[int], int] = {start: 0}
    queue = deque([start])
    transitions: dict[tuple[int, object], int] = {}
    while queue:
        subset = queue.popleft()
        idx = order[subset]
        agg: dict[object, set[int]] = {}
        for q in subset:
            for letter, targets in per_state.get(q, {}).items():
                agg.setdefault(letter, set()).update(targets)
        for letter in nfa.alphabet:
            found = agg.get(letter)
            target = frozenset(found) if found else empty
            if target not in order:
                order[target] = len(order)
                queue.append(target)
            transitions[(idx, letter)] = order[target]
    subsets = sorted(order, key=order.get)
    names = tuple(
        "{" + ",".join(nfa.state_names[i] for i in sorted(s)) + "}" for s in subsets
    )
    return dfa_from_moves(
        nfa.alphabet,
        transitions,
        0,
        (order[s] for s in subsets if accepts(s)),
        names,
    )


def reference_intersect(a: Nfa, b: Nfa) -> Nfa:
    """The product of two NFAs over the sorted alphabet, reachable pairs
    only, by a FIFO search over a dict: the initial pairs first, ``a``'s
    initial states outer, then each pair's successors by letter and by
    target in ``a``, then in ``b``."""
    assert set(a.alphabet) == set(b.alphabet)
    alphabet = sort_alphabet(a.alphabet)
    rank = {letter: i for i, letter in enumerate(alphabet)}
    out_a: dict[int, dict] = {}  # state -> letter id -> sorted targets
    out_b: dict[int, dict] = {}
    for nfa, out in ((a, out_a), (b, out_b)):
        for (q, letter), targets in nfa_moves(nfa).items():
            out.setdefault(q, {})[rank[letter]] = sorted(targets)
    order: dict[tuple[int, int], int] = {}
    queue: deque[tuple[int, int]] = deque()
    for p in sorted(a.initials):
        for q in sorted(b.initials):
            order[(p, q)] = len(order)
            queue.append((p, q))
    moves = []  # (pair, letter id, target pair): the search finds each once
    while queue:
        p, q = pair = queue.popleft()
        moves_p, moves_q = out_a.get(p, {}), out_b.get(q, {})
        for i in sorted(moves_p.keys() & moves_q.keys()):
            for t in ((p2, q2) for p2 in moves_p[i] for q2 in moves_q[i]):
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
                moves.append((order[pair], i, order[t]))
    src, letter, dst = np.array(moves, dtype=np.int64).reshape(-1, 3).T
    return Nfa(
        alphabet=alphabet,
        src=src,
        letter=letter,
        dst=dst,
        initials=frozenset(range(len(a.initials) * len(b.initials))),
        accepting=frozenset(
            i for i, (p, q) in enumerate(order) if p in a.accepting and q in b.accepting
        ),
        state_names=tuple(f"({a.state_names[p]},{b.state_names[q]})" for p, q in order),
    )


def reference_number_level(code: np.ndarray, seen: np.ndarray, seen_id: np.ndarray) -> tuple:
    """``model._number_level`` by sorted arrays and ``np.unique``: the
    ids of ``code`` when the sorted codes ``seen`` have the ids
    ``seen_id``, the new codes by id, and ``seen`` and ``seen_id`` with
    them added."""
    distinct, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    pos = np.searchsorted(seen, distinct).clip(max=len(seen) - 1)
    distinct_id = seen_id[pos]
    new = seen[pos] != distinct
    fresh = distinct[new]
    rank = np.empty(len(fresh), dtype=np.int64)
    rank[np.argsort(first[new])] = np.arange(len(fresh))  # by first occurrence
    distinct_id[new] = fresh_id = len(seen) + rank
    level = np.empty_like(fresh)
    level[rank] = fresh
    at = np.searchsorted(seen, fresh)
    return distinct_id[inverse], level, np.insert(seen, at, fresh), np.insert(seen_id, at, fresh_id)


def reference_quotient(pm: ProductMdp) -> Quotient:
    """The coarsest bisimulation by full refinement: the same initial
    blocks as ``bisimulation_quotient``, then every round re-signs every
    state by "action -> quantized probability of reaching each current
    block", ranking the (action, block, mass) keys first, until no block
    splits.  ``rounds`` counts the rounds, the last one included.  The
    quotient's rows are built block by block from the representatives."""
    row_state, row_action = pm.row_state, pm.row_action
    entry_row = np.repeat(np.arange(len(row_action)), np.diff(pm.entry_ptr))
    absorbing = pm.absorbing_mask
    head = np.where(absorbing, 2 * pm.opaque_accepts + pm.task_accepts, 4)
    block = _split(head, row_state, row_action[:, None])
    rounds = 0
    while True:
        rounds += 1
        n_blocks = int(block.max()) + 1
        pairs, inverse = np.unique(entry_row * n_blocks + block[pm.entry_succ], return_inverse=True)
        mass = np.bincount(inverse.reshape(-1), weights=pm.entry_prob)
        pair_row = pairs // n_blocks
        quantized = np.rint(mass / ZERO_OCCUPANCY_THRESHOLD).astype(np.int64)
        keys = np.column_stack([row_action[pair_row], pairs % n_blocks, quantized])
        refined = _split(block, row_state[pair_row], keys)
        if int(refined.max()) + 1 == n_blocks:
            break
        block = refined
    _, first = np.unique(block, return_index=True)
    order = np.lexsort((first, absorbing[first]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    reps = first[order]
    # the quotient's rows by definition: block by block, its representative's rows
    rows = [np.arange(pm.row_ptr[v], pm.row_ptr[v + 1]) for v in reps.tolist()]
    return Quotient(
        block=rank[block],
        representatives=reps,
        row_ptr=np.cumsum([0] + [len(r) for r in rows], dtype=np.int64),
        product_row=np.concatenate(rows),
        rounds=rounds,
    )


def _split(head: np.ndarray, owner: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Class of each state by its ``head`` value and the sequence of its
    ranked ``keys`` rows; ``owner`` (non-decreasing) names the state of
    each row."""
    counts = np.bincount(owner, minlength=len(head))
    start = np.cumsum(counts) - counts
    table = np.full((len(head), 1 + int(counts.max(initial=0))), -1, dtype=np.int64)
    table[:, 0] = head
    table[owner, 1 + np.arange(len(owner)) - start[owner]] = _rank_rows(keys)
    return _rank_rows(table)


def _rank_rows(table: np.ndarray) -> np.ndarray:
    """Dense ids of the distinct rows of a 2-d integer table, in sorted
    order, by one ``np.lexsort``."""
    order = np.lexsort(table.T[::-1])
    ranked = table[order]
    new = np.ones(len(table), dtype=np.int64)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(len(table), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids


def reference_minimize_table(
    table: np.ndarray, accepts: np.ndarray, alphabet: tuple, initial: int = 0
) -> Dfa:
    """Moore's minimization of a complete (state, letter id) table: split
    by acceptance, then by (class, successors' classes) rows, numbered by
    ``np.unique(..., axis=0)``, until the class count stops changing.  The
    reachable classes are numbered ``q0, q1, ...`` as a FIFO search from
    the initial state's class finds them, over the letters in order."""
    block = np.unique(accepts, return_inverse=True)[1].reshape(-1)
    while True:
        rows = np.column_stack((block, block[table]))
        refined = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
        if refined.max() == block.max():
            break
        block = refined
    member = {}
    for state, cls in enumerate(block.tolist()):
        member.setdefault(cls, state)
    number = {int(block[initial]): 0}
    queue = deque([int(block[initial])])
    moves = []
    while queue:
        cls = queue.popleft()
        row = []
        for target in block[table[member[cls]]].tolist():
            if target not in number:
                number[target] = len(number)
                queue.append(target)
            row.append(number[target])
        moves.append(row)
    by_number = sorted(number, key=number.get)
    return Dfa(
        alphabet=alphabet,
        table=np.array(moves, dtype=np.int64).reshape(len(moves), len(alphabet)),
        initial=0,
        accepting=frozenset(i for i, cls in enumerate(by_number) if accepts[member[cls]]),
        state_names=tuple(f"q{i}" for i in range(len(by_number))),
    )
