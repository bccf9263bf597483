"""Finite automata over hashable letters and the algebra used by the
pipeline: completion, subset-construction determinization, intersection
and minimization.

Letters are label sets (frozensets of proposition names), observation
symbols, or plain strings in tests; all of them sort deterministically so
state numbering is reproducible from run to run.

The two constructions that carry the pipeline's weight run on integer
letter ids, and only their results are keyed by letters.
:func:`subset_construction` is breadth-first over numpy arrays, one level
at a time: it sorts the (subset, letter, target) codes of a whole level
and looks each (subset, letter) target set up by its bytes, numbering new
subsets as a FIFO search would.  :func:`determinize` and the opacity
observer both call it.  A construction that steps a DFA reads its moves
from one dense (state, letter id) table, :func:`step_table`, which is also
the one check that the DFA is complete.  :func:`minimize_table` is Moore's
(1956) partition refinement on such a table: states start split by
acceptance, and each round splits them by their class and the classes of
their successors, ranked by :func:`row_classes`, the helper the product
MDP's bisimulation quotient refines with.  It takes one round per letter
of the longest shortest word that separates two states, plus one that
splits nothing, so a chain of n states takes n rounds.  :func:`minimize`
is :func:`step_table` plus :func:`minimize_table`; the observer feeds its
subset table to :func:`minimize_table` directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .model import ObsSymbol, START, END

Letter = Hashable


class AutomatonError(ValueError):
    pass


class AlphabetMismatchError(AutomatonError):
    pass


class IncompleteDfaError(AutomatonError):
    pass


def letter_key(letter: Letter):
    if isinstance(letter, frozenset):
        return (0, len(letter), tuple(sorted(letter)))
    if isinstance(letter, ObsSymbol):
        return (1,) + letter.sort_key
    return (2, str(letter))


def letter_str(letter: Letter) -> str:
    if isinstance(letter, frozenset):
        return "{" + ",".join(sorted(letter)) + "}"
    return str(letter)


def sort_alphabet(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    return tuple(sorted(set(letters), key=letter_key))


@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton; ``transitions`` may be partial.

    A missing (state, letter) pair behaves as a move into an implicit
    rejecting sink, so words over unknown letters are simply rejected.
    Use :func:`complete` to materialize the sink.
    """

    alphabet: tuple[Letter, ...]
    transitions: Mapping[tuple[int, Letter], int]
    initial: int
    accepting: frozenset[int]
    state_names: tuple[str, ...]

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def step(self, q: int, letter: Letter) -> int | None:
        return self.transitions.get((q, letter))

    def run(self, word: Sequence[Letter]) -> int | None:
        q: int | None = self.initial
        for letter in word:
            q = self.transitions.get((q, letter))
            if q is None:
                return None
        return q

    def accepts(self, word: Sequence[Letter]) -> bool:
        q = self.run(word)
        return q is not None and q in self.accepting

    def is_complete(self) -> bool:
        return len(self.transitions) == self.n_states * len(self.alphabet)


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton without epsilon moves."""

    alphabet: tuple[Letter, ...]
    transitions: Mapping[tuple[int, Letter], frozenset[int]]
    initials: frozenset[int]
    accepting: frozenset[int]
    state_names: tuple[str, ...]

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def targets(self, q: int, letter: Letter) -> frozenset[int]:
        return self.transitions.get((q, letter), frozenset())

    def accepts(self, word: Sequence[Letter]) -> bool:
        current = set(self.initials)
        for letter in word:
            current = {t for q in current for t in self.targets(q, letter)}
            if not current:
                return False
        return bool(current & self.accepting)


def step_table(dfa: Dfa, letters: Sequence[Letter], what: str) -> np.ndarray:
    """The moves of ``dfa`` as a dense (state, letter id) table, where
    letter id ``i`` is ``letters[i]``.

    This is the one completeness check: it raises
    :class:`IncompleteDfaError` unless every state has a move on every one
    of ``letters``; ``what`` names the automaton in the message.
    """
    table = np.array(
        [[dfa.transitions.get((q, letter), -1) for letter in letters] for q in range(dfa.n_states)],
        dtype=np.int64,
    ).reshape(dfa.n_states, len(letters))
    missing = np.argwhere(table < 0)
    if len(missing):
        q, i = missing[0]
        raise IncompleteDfaError(
            f"{what} DFA is not complete: state {dfa.state_names[q]} "
            f"has no move on {letters[i]!r} ({len(missing)} missing total)"
        )
    return table


def row_classes(table: np.ndarray) -> np.ndarray:
    """Dense ids of the distinct rows of an integer table, in sorted order
    (``np.unique(table, axis=0)`` sorts rows as opaque bytes, far slower)."""
    order = np.lexsort(table.T[::-1])
    ranked = table[order]
    starts = np.ones(len(table), dtype=np.int64)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(table), dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``arange(start[i], start[i] + count[i])`` for every i, concatenated."""
    end = np.cumsum(count)
    return np.repeat(start - (end - count), count) + np.arange(end[-1] if len(end) else 0)


def complete(dfa: Dfa, sink_label: str = "sink") -> Dfa:
    """Make the transition function total by adding a non-accepting sink.

    Already-complete automata are returned unchanged.
    """
    missing = [
        (q, letter)
        for q in range(dfa.n_states)
        for letter in dfa.alphabet
        if (q, letter) not in dfa.transitions
    ]
    if not missing:
        return dfa
    sink = dfa.n_states
    transitions = dict(dfa.transitions)
    for q, letter in missing:
        transitions[(q, letter)] = sink
    for letter in dfa.alphabet:
        transitions[(sink, letter)] = sink
    return Dfa(
        alphabet=dfa.alphabet,
        transitions=transitions,
        initial=dfa.initial,
        accepting=dfa.accepting,
        state_names=dfa.state_names + (sink_label,),
    )


def subset_construction(
    n_states: int,
    n_letters: int,
    src: np.ndarray,
    letter: np.ndarray,
    dst: np.ndarray,
    initials: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subset construction of the NFA on the states ``0 .. n_states - 1``
    whose moves go ``src -> dst`` on the letter ids ``letter``, reachable
    subsets only.

    Returns the dense (subset, letter id) table and the subsets as CSR:
    subset ``i`` holds the sorted states
    ``members[member_ptr[i]:member_ptr[i + 1]]``.  Subset 0 holds
    ``initials``, and the others are numbered as a FIFO search finds them:
    by the number of the subset they are found from, then by letter id.
    The empty subset is the rejecting sink, found at the first (subset,
    letter) that has no move, so the table is complete.

    The search runs one breadth-first level at a time: it gathers the
    moves of every member of the level, sorts the distinct (subset,
    letter, target) codes, and looks each (subset, letter) cell's targets
    up by their int32 bytes, so the only Python loop is over cells that
    have a move.
    """
    src, letter, dst = (np.asarray(a, dtype=np.int64) for a in (src, letter, dst))
    by_src = np.argsort(src, kind="stable")
    out_letter, out_dst = letter[by_src], dst[by_src]
    out_ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n_states))))
    keys = [np.unique(np.asarray(initials, dtype=np.int32)).tobytes()]  # members, as bytes
    index = {keys[0]: 0}
    rows = []
    done = 0
    while done < len(keys):
        level, done = keys[done:], len(keys)
        size = np.array([len(key) // 4 for key in level], dtype=np.int64)
        member = np.frombuffer(b"".join(level), dtype=np.int32)
        width = out_ptr[member + 1] - out_ptr[member]
        e = _ranges(out_ptr[member], width)
        owner = np.repeat(np.repeat(np.arange(len(level)), size), width)
        code = np.sort((owner * n_letters + out_letter[e]) * n_states + out_dst[e])
        # the distinct codes: sorting beats np.unique, which hashes integers in numpy >= 2.3
        code = code[np.diff(code, prepend=-1) != 0]
        cell, target = np.divmod(code, n_states)
        first = np.flatnonzero(np.diff(cell, prepend=-1))  # each cell's first code
        cells = cell[first]
        lo, hi = 4 * first, 4 * np.append(first[1:], len(code))  # byte slices of targets
        n_cells = len(level) * n_letters
        if b"" not in index and len(cells) < n_cells:
            # the sink: a zero-length slice at the first cell with no move
            gap = np.ones(n_cells, dtype=bool)
            gap[cells] = False
            miss = int(np.argmax(gap))
            at = int(np.searchsorted(cells, miss))
            cells, lo, hi = np.insert(cells, at, miss), np.insert(lo, at, 0), np.insert(hi, at, 0)
        targets = target.astype(np.int32).tobytes()
        found = []
        for a, b in zip(lo.tolist(), hi.tolist()):
            key = targets[a:b]
            i = index.get(key)
            if i is None:
                i = index[key] = len(keys)
                keys.append(key)
            found.append(i)
        row = np.full(n_cells, index.get(b"", -1), dtype=np.int64)
        row[cells] = found
        rows.append(row.reshape(len(level), n_letters))
    member_ptr = np.concatenate(([0], np.cumsum([len(key) // 4 for key in keys], dtype=np.int64)))
    members = np.frombuffer(b"".join(keys), dtype=np.int32).astype(np.int64)
    return np.concatenate(rows), member_ptr, members


def meets(member_ptr: np.ndarray, members: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Whether each subset of a :func:`subset_construction` holds a state
    where ``mask`` is true."""
    hits = np.concatenate(([0], np.cumsum(mask[members])))
    return hits[member_ptr[1:]] > hits[member_ptr[:-1]]


def determinize(nfa: Nfa) -> Dfa:
    """The subset construction accepting the subsets that hold an
    accepting state: the DFA of the NFA's language.  Each subset is named
    by its members; moves on letters outside ``nfa.alphabet`` are
    ignored."""
    letter_id = {letter: i for i, letter in enumerate(nfa.alphabet)}
    moves = [
        (q, letter_id[letter], t)
        for (q, letter), targets in nfa.transitions.items()
        if letter in letter_id
        for t in targets
    ]
    src, letter, dst = np.array(moves, dtype=np.int64).reshape(-1, 3).T
    table, member_ptr, members = subset_construction(
        nfa.n_states, len(nfa.alphabet), src, letter, dst, np.array(sorted(nfa.initials))
    )
    accepting = np.zeros(nfa.n_states, dtype=bool)
    accepting[list(nfa.accepting)] = True
    flat, ptr = members.tolist(), member_ptr.tolist()
    return Dfa(
        alphabet=nfa.alphabet,
        transitions={
            (q, letter): t
            for q, row in enumerate(table.tolist())
            for letter, t in zip(nfa.alphabet, row)
        },
        initial=0,
        accepting=frozenset(np.flatnonzero(meets(member_ptr, members, accepting)).tolist()),
        state_names=tuple(
            "{" + ",".join(nfa.state_names[i] for i in flat[a:b]) + "}"
            for a, b in zip(ptr, ptr[1:])
        ),
    )


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton accepting the intersection of the two languages."""
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatchError("intersection requires identical alphabets")
    alphabet = sort_alphabet(a.alphabet)
    order: dict[tuple[int, int], int] = {}
    queue: deque[tuple[int, int]] = deque()
    for p in sorted(a.initials):
        for q in sorted(b.initials):
            order[(p, q)] = len(order)
            queue.append((p, q))
    transitions: dict[tuple[int, Letter], set[int]] = {}
    while queue:
        p, q = pair = queue.popleft()
        idx = order[pair]
        for letter in alphabet:
            targets = [
                (p2, q2)
                for p2 in sorted(a.targets(p, letter))
                for q2 in sorted(b.targets(q, letter))
            ]
            if not targets:
                continue
            cell = transitions.setdefault((idx, letter), set())
            for t in targets:
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
                cell.add(order[t])
    pairs = sorted(order, key=order.get)
    names = tuple(f"({a.state_names[p]},{b.state_names[q]})" for p, q in pairs)
    return Nfa(
        alphabet=alphabet,
        transitions={k: frozenset(v) for k, v in transitions.items()},
        initials=frozenset(order[(p, q)] for p in a.initials for q in b.initials),
        accepting=frozenset(
            order[pq] for pq in pairs if pq[0] in a.accepting and pq[1] in b.accepting
        ),
        state_names=names,
    )


def minimize(dfa: Dfa) -> Dfa:
    """The minimal DFA of a complete DFA's language: :func:`minimize_table`
    on its :func:`step_table`."""
    table = step_table(dfa, dfa.alphabet, "input")
    accepts = np.zeros(dfa.n_states, dtype=bool)
    accepts[list(dfa.accepting)] = True
    return minimize_table(table, accepts, dfa.alphabet, dfa.initial)


def minimize_table(
    table: np.ndarray, accepts: np.ndarray, alphabet: tuple[Letter, ...], initial: int = 0
) -> Dfa:
    """The minimal DFA of the complete DFA with the dense (state, letter
    id) ``table``, the accepting mask ``accepts`` and the start state
    ``initial``, over ``alphabet``: Moore's (1956) partition refinement.

    States start split by acceptance; each round ranks every state by its
    class and its successors' classes (:func:`row_classes`) until the
    class count stops changing.  Two states then share a class exactly
    when they accept the same words.  The round count is one more than the
    length of the longest shortest word that separates two states, so the
    worst case is one round per state, on a chain: a 2,000-state chain
    takes about 0.3 s on a 2-core Xeon, ten times Hopcroft's algorithm,
    while the observers of the gridworld secrets take 15 to 25 rounds.
    The classes are numbered ``q0, q1, ...`` breadth-first from the
    initial state's, over the alphabet in order; unreachable states never
    enter that search, so they are dropped, and equal languages yield
    equal automata.
    """
    block = row_classes(accepts.astype(np.int64)[:, None])
    while True:
        refined = row_classes(np.column_stack((block, block[table])))
        if refined.max() == block.max():
            break
        block = refined

    _, member = np.unique(block, return_index=True)  # one state per class
    succ = block[table[member]].tolist()
    start = int(block[initial])
    order = {start: 0}
    queue = [start]
    for b in queue:
        for t in succ[b]:
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    return Dfa(
        alphabet=alphabet,
        transitions={
            (order[b], letter): order[t]
            for b in queue
            for letter, t in zip(alphabet, succ[b])
        },
        initial=0,
        accepting=frozenset(order[b] for b in queue if accepts[member[b]]),
        state_names=tuple(f"q{i}" for i in range(len(order))),
    )


# ---------------------------------------------------------------------------
# JSON serialization

_START_TOKEN = "^"
_END_TOKEN = "$"


def _letter_to_json(letter: Letter):
    if isinstance(letter, frozenset):
        return sorted(letter)
    if isinstance(letter, ObsSymbol):
        if letter.kind == "start":
            return _START_TOKEN
        if letter.kind == "end":
            return _END_TOKEN
        return list(letter.members)
    return str(letter)


def _letter_from_json(value, kind: str) -> Letter:
    if kind == "labels":
        return frozenset(value)
    if kind == "observations":
        if value == _START_TOKEN:
            return START
        if value == _END_TOKEN:
            return END
        return ObsSymbol.state_set(value)
    return value


def dfa_to_dict(dfa: Dfa, letter_kind: str) -> dict:
    return {
        "type": "dfa",
        "letter_kind": letter_kind,
        "states": list(dfa.state_names),
        "alphabet": [_letter_to_json(l) for l in dfa.alphabet],
        "initial": dfa.state_names[dfa.initial],
        "accepting": sorted(dfa.state_names[q] for q in dfa.accepting),
        "transitions": [
            {
                "from": dfa.state_names[q],
                "letter": _letter_to_json(letter),
                "to": dfa.state_names[t],
            }
            for (q, letter), t in sorted(
                dfa.transitions.items(), key=lambda kv: (kv[0][0], letter_key(kv[0][1]))
            )
        ],
    }


def dfa_from_dict(doc: Mapping) -> Dfa:
    """The DFA of a :func:`dfa_to_dict` document; raises
    :class:`AutomatonError` on a missing field, a list field that is not a
    list, a state named twice, an unknown state or letter, or two moves
    from one state on one letter."""
    fields = ("states", "alphabet", "initial", "accepting", "transitions")
    if not isinstance(doc, Mapping) or any(f not in doc for f in fields):
        raise AutomatonError("DFA file needs the fields " + ", ".join(fields))
    if not all(isinstance(doc[f], list) for f in fields if f != "initial"):
        raise AutomatonError("DFA file: states, alphabet, accepting and transitions must be lists")
    kind = doc.get("letter_kind", "plain")
    names = tuple(doc["states"])
    index: dict[Hashable, int] = {}
    for i, name in enumerate(names):
        if not isinstance(name, Hashable) or name in index:
            raise AutomatonError(f"DFA file: states lists {name!r} twice or as a non-name")
        index[name] = i

    def state(name, where: str) -> int:
        if not isinstance(name, Hashable) or name not in index:
            raise AutomatonError(f"DFA file: {where} names unknown state {name!r}")
        return index[name]

    def letter(value, where: str) -> Letter:
        try:
            parsed = _letter_from_json(value, kind)
            hash(parsed)
        except (TypeError, ValueError):
            raise AutomatonError(f"DFA file: {where} has the malformed letter {value!r}") from None
        return parsed

    alphabet = sort_alphabet(letter(l, "alphabet") for l in doc["alphabet"])
    letters = set(alphabet)
    transitions = {}
    for i, row in enumerate(doc["transitions"]):
        where = f"transition {i}"
        if not isinstance(row, Mapping) or any(f not in row for f in ("from", "letter", "to")):
            raise AutomatonError(f"DFA file: {where} needs from, letter and to")
        read = letter(row["letter"], where)
        if read not in letters:
            raise AutomatonError(f"DFA file: {where} reads a letter not in the alphabet")
        key = (state(row["from"], where), read)
        if key in transitions:
            raise AutomatonError(f"DFA file: {where} repeats a move of {row['from']!r}")
        transitions[key] = state(row["to"], where)
    return Dfa(
        alphabet=alphabet,
        transitions=transitions,
        initial=state(doc["initial"], "initial"),
        accepting=frozenset(state(n, "accepting") for n in doc["accepting"]),
        state_names=names,
    )
