"""Finite automata over hashable letters and the algebra used by the
pipeline: completion, subset-construction determinization, intersection
and minimization.

Letters are label sets (frozensets of proposition names), observation
symbols, or plain strings in tests; all of them sort deterministically so
state numbering is reproducible from run to run.  Observation symbols are
hash-consed (``model.ObsSymbol``): one object per symbol, hashed and
compared by identity in C, so a set of them iterates in an order that
changes from process to process, and every alphabet is sorted by
:func:`letter_key` before it is numbered.

A DFA is its dense (state, letter id) move table, and an NFA its move
arrays (source, letter id, target); the writers (``dot`` and
:func:`dfa_to_dict`) read those too.  Only perfbench's word counts and the
tests read ``Dfa.transitions``, a letter-keyed view of the table built in
one pass over its raveled entries.
:func:`intersect` searches pairs of NFA states level by level, numbering
them with the product searches' ``model._number_level`` through a
direct-address id table.  :func:`subset_construction` is
breadth-first over numpy arrays, one level at a time: it sorts the
(subset, letter, target) codes of a whole level and looks each (subset,
letter) target set up by its bytes, numbering new subsets as a FIFO search
would.  :func:`determinize` and the opacity observer both call it.  A
construction that steps a DFA reads its moves from :func:`step_table`, a
column gather of the table that is also the one check that the DFA is
complete.  :func:`minimize_table` is Moore's (1956) partition refinement on
such a table: states start split by acceptance, and each round splits them
by their class and the classes of their successors, ranked by
:func:`row_classes`, the helper the product MDP's bisimulation quotient
refines with.  It takes one round per letter of the longest shortest word
that separates two states, plus one that splits nothing, so a chain of n
states takes n rounds.  :func:`minimize` is :func:`step_table` plus
:func:`minimize_table`; the observer feeds its subset table to
:func:`minimize_table` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .model import ObsSymbol, START, END, _distinct, _id_table, _number_level, _ranges, _unique

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
    # the type name orders letters that print alike, such as 1 and "1"
    return (2, str(letter), type(letter).__name__)


def letter_rank(alphabet: Sequence[Letter], key=letter_key) -> np.ndarray:
    """Each letter id's place when ``alphabet`` is sorted stably by
    ``key``."""
    rank = np.empty(len(alphabet), dtype=np.int64)
    rank[sorted(range(len(alphabet)), key=lambda i: key(alphabet[i]))] = np.arange(len(alphabet))
    return rank


def letter_str(letter: Letter) -> str:
    if isinstance(letter, frozenset):
        return "{" + ",".join(sorted(letter)) + "}"
    return str(letter)


def sort_alphabet(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    return tuple(sorted(set(letters), key=letter_key))


@dataclass(frozen=True, eq=False)
class Dfa:
    """Deterministic automaton: state ``q`` moves on ``alphabet[i]`` to
    ``table[q, i]``, a read-only int64 table that may be partial (-1).

    A missing move behaves as a move into an implicit rejecting sink, so
    words over unknown letters are simply rejected.  Use :func:`complete`
    to materialize the sink.  ``letter_id`` and ``transitions`` are
    read-only views, built on first access; only perfbench's word counts
    and the tests read ``transitions``.  It pairs the (state, letter) keys,
    in row-major order, with the raveled table, and drops the -1 entries
    only when the table is partial.  Letter lookups hash observation
    symbols by identity, in C.
    """

    alphabet: tuple[Letter, ...]
    table: np.ndarray
    initial: int
    accepting: frozenset[int]
    state_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.table.setflags(write=False)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @cached_property
    def letter_id(self) -> Mapping[Letter, int]:
        return MappingProxyType({letter: i for i, letter in enumerate(self.alphabet)})

    @cached_property
    def transitions(self) -> Mapping[tuple[int, Letter], int]:
        moves = zip(product(range(len(self.table)), self.alphabet), self.table.ravel().tolist())
        if (self.table < 0).any():
            moves = ((move, t) for move, t in moves if t >= 0)
        return MappingProxyType(dict(moves))

    def step(self, q: int, letter: Letter) -> int | None:
        i = self.letter_id.get(letter)
        t = -1 if i is None else self.table.item(q, i)
        return None if t < 0 else t

    def run(self, word: Sequence[Letter]) -> int | None:
        q: int | None = self.initial
        for letter in word:
            q = self.step(q, letter)
            if q is None:
                break
        return q

    def accepts(self, word: Sequence[Letter]) -> bool:
        return self.run(word) in self.accepting


@dataclass(frozen=True, eq=False)
class Nfa:
    """Nondeterministic automaton without epsilon moves: move ``k`` goes
    from ``src[k]`` to ``dst[k]`` on ``alphabet[letter[k]]``, in read-only
    int64 arrays.  Moves may repeat."""

    alphabet: tuple[Letter, ...]
    src: np.ndarray
    letter: np.ndarray
    dst: np.ndarray
    initials: frozenset[int]
    accepting: frozenset[int]
    state_names: tuple[str, ...]

    def __post_init__(self) -> None:
        for moves in (self.src, self.letter, self.dst):
            moves.setflags(write=False)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def accepts(self, word: Sequence[Letter]) -> bool:
        current = np.isin(np.arange(self.n_states), list(self.initials))
        for letter in word:
            i = self.alphabet.index(letter) if letter in self.alphabet else -1
            moved = current[self.src] & (self.letter == i)
            current = np.isin(np.arange(self.n_states), self.dst[moved])
        return bool(current[list(self.accepting)].any())


def step_table(dfa: Dfa, letters: Sequence[Letter], what: str) -> np.ndarray:
    """The columns of ``dfa.table`` for ``letters``: a dense (state,
    letter id) table, where letter id ``i`` is ``letters[i]``.

    This is the one completeness check: it raises
    :class:`IncompleteDfaError` unless every state has a move on every one
    of ``letters``; ``what`` names the automaton in the message.
    """
    column = np.array([dfa.letter_id.get(letter, -1) for letter in letters], dtype=np.int64)
    # column -1, a letter outside the alphabet, reads the appended column of -1
    table = np.pad(dfa.table, ((0, 0), (0, 1)), constant_values=-1)[:, column]
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
    # lexsort stays: on the 227 tables that the six gridworld-build secrets
    # and their quotients rank (409,251 rows, up to 51 columns), folding
    # one column at a time into dense one-key ranks took 2.7-3.1x as long,
    # and packing column pairs into one key where it fits 1.1-1.4x
    order = np.lexsort(table.T[::-1])
    ranked = table[order]
    starts = np.ones(len(table), dtype=np.int64)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(table), dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids


#: the name of the state that :func:`complete` adds
SINK = "sink"


def complete(dfa: Dfa) -> Dfa:
    """Make the transition function total by adding a non-accepting sink,
    named :data:`SINK`.

    Already-complete automata are returned unchanged.
    """
    missing = dfa.table < 0
    if not missing.any():
        return dfa
    sink = dfa.n_states
    table = np.vstack((np.where(missing, sink, dfa.table), np.full((1, len(dfa.alphabet)), sink)))
    return replace(dfa, table=table, state_names=dfa.state_names + (SINK,))


def _cells(n_states: int, n_letters: int, src, letter, dst) -> tuple[np.ndarray, ...]:
    """The distinct moves ``src -> dst`` on the letter ids ``letter``,
    sorted by cell ``src * width + letter``, where ``width`` is
    ``max(n_letters, 1)``, then by target: the CSR pointers of the
    ``n_states * width`` cells, and each move's letter id and target."""
    width, n = max(n_letters, 1), max(n_states, 1)
    cell, dst = np.divmod(_distinct((src * width + letter) * n + dst), n)
    return np.searchsorted(cell, np.arange(n_states * width + 1)), cell % width, dst


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
    cell_ptr, out_letter, out_dst = _cells(n_states, n_letters, src, letter, dst)
    out_ptr = cell_ptr[:: max(n_letters, 1)]  # the moves from each state
    keys = [_distinct(np.asarray(initials, dtype=np.int32)).tobytes()]  # members, as bytes
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
        code = _distinct((owner * n_letters + out_letter[e]) * n_states + out_dst[e])
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
    by its members."""
    table, member_ptr, members = subset_construction(
        nfa.n_states, len(nfa.alphabet), nfa.src, nfa.letter, nfa.dst, sorted(nfa.initials)
    )
    accepting = np.isin(np.arange(nfa.n_states), list(nfa.accepting))
    flat, ptr = members.tolist(), member_ptr.tolist()
    return Dfa(
        alphabet=nfa.alphabet,
        table=table,
        initial=0,
        accepting=frozenset(np.flatnonzero(meets(member_ptr, members, accepting)).tolist()),
        state_names=tuple(
            "{" + ",".join(nfa.state_names[i] for i in flat[a:b]) + "}"
            for a, b in zip(ptr, ptr[1:])
        ),
    )


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton accepting the intersection of the two languages,
    over the sorted alphabet, reachable pairs only.

    A level search over the pair codes ``p * b.n_states + q``: the initial
    pairs come first, ``a``'s initial states outer; each level joins its
    pairs' moves in ``a`` with those of ``q`` in ``b`` on the letter, and
    new pairs are numbered as a FIFO search finds them, by (pair, letter,
    target in ``a``, target in ``b``).  A pair is found by its code in one
    ``model._id_table`` of ``a.n_states * b.n_states`` cells, 4 bytes
    each, of which only the pages that the search touches become
    resident; the table is dropped on return.  A pair space too large for
    that table raises :class:`AutomatonError` before the search allocates
    anything.
    """
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatchError("intersection requires identical alphabets")
    table = _id_table(a.n_states * b.n_states, AutomatonError)
    alphabet = sort_alphabet(a.alphabet)
    stride, nb = max(len(alphabet), 1), b.n_states  # cells are state * stride + letter
    column = [np.array([alphabet.index(l) for l in x.alphabet], dtype=np.int64) for x in (a, b)]
    (a_ptr, a_letter, a_dst), (b_ptr, _, b_dst) = (
        _cells(x.n_states, stride, x.src, c[x.letter], x.dst) for x, c in zip((a, b), column)
    )
    p0, q0 = (np.array(sorted(x.initials), dtype=np.int64) for x in (a, b))
    _, level, n_ids = _number_level((p0[:, None] * nb + q0).ravel(), table, 0)
    levels, moves = [level], [np.zeros((3, 0), dtype=np.int64)]
    while level.size:
        p, q = np.divmod(level, nb)
        width = a_ptr[(p + 1) * stride] - a_ptr[p * stride]
        ea = _ranges(a_ptr[p * stride], width)  # the moves from each p, by letter
        cell = np.repeat(q * stride, width) + a_letter[ea]
        count = b_ptr[cell + 1] - b_ptr[cell]  # the moves from q on that letter
        eb = _ranges(b_ptr[cell], count)
        source = np.repeat(n_ids - len(level) + np.arange(len(level)), width)
        code = np.repeat(a_dst[ea], count) * nb + b_dst[eb]
        ids, level, n_ids = _number_level(code, table, n_ids)
        moves.append(np.stack((np.repeat(source, count), np.repeat(a_letter[ea], count), ids)))
        levels.append(level)
    src, letter, dst = np.concatenate(moves, axis=1)
    p, q = np.divmod(np.concatenate(levels), max(nb, 1))
    accepts = np.isin(p, list(a.accepting)) & np.isin(q, list(b.accepting))
    return Nfa(
        alphabet=alphabet,
        src=src,
        letter=letter,
        dst=dst,
        initials=frozenset(range(len(p0) * len(q0))),
        accepting=frozenset(np.flatnonzero(accepts).tolist()),
        state_names=tuple(
            f"({a.state_names[i]},{b.state_names[j]})" for i, j in zip(p.tolist(), q.tolist())
        ),
    )


def minimize(dfa: Dfa) -> Dfa:
    """The minimal DFA of a complete DFA's language: :func:`minimize_table`
    on its :func:`step_table`."""
    table = step_table(dfa, dfa.alphabet, "input")
    accepts = np.isin(np.arange(dfa.n_states), list(dfa.accepting))
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

    member = _unique(block)[1]  # one state per class
    succ = block[table[member]]
    rows = succ.tolist()
    queue = [int(block[initial])]
    rank = [-1] * len(rows)  # each class's number, -1 until the search finds it
    rank[queue[0]] = 0
    for b in queue:
        for t in rows[b]:
            if rank[t] < 0:
                rank[t] = len(queue)
                queue.append(t)
    return Dfa(
        alphabet=alphabet,
        table=np.array(rank, dtype=np.int64)[succ[queue]],
        initial=0,
        accepting=frozenset(np.flatnonzero(accepts[member[queue]]).tolist()),
        state_names=tuple(f"q{i}" for i in range(len(queue))),
    )


# ---------------------------------------------------------------------------
# JSON serialization

_START_TOKEN = "^"
_END_TOKEN = "$"
_LETTER_KINDS = ("labels", "observations", "plain")


def _letter_to_json(letter: Letter, kind: str):
    """The JSON form of ``letter`` as a ``kind`` letter: a ``labels``
    letter is a frozenset of names, written as a sorted list; an
    ``observations`` letter an ``ObsSymbol``, written as a marker token or
    its member list; a ``plain`` letter a JSON scalar, written as itself.
    Raises :class:`AutomatonError` on a letter not of its kind."""
    if kind == "labels" and isinstance(letter, frozenset):
        if all(isinstance(name, str) for name in letter):
            return sorted(letter)
    elif kind == "observations" and isinstance(letter, ObsSymbol):
        if letter.kind == "start":
            return _START_TOKEN
        if letter.kind == "end":
            return _END_TOKEN
        if all(isinstance(name, str) for name in letter.members):
            return list(letter.members)
    elif kind == "plain" and (
        letter is None
        or isinstance(letter, (str, int))
        or (isinstance(letter, float) and np.isfinite(letter))
    ):
        return letter
    raise AutomatonError(f"the letter {letter!r} has no JSON form of letter_kind {kind!r}")


def _letter_from_json(value, kind: str) -> Letter:
    """The letter ``value`` writes: a ``labels`` letter is a list of
    names, an ``observations`` letter a marker token or a non-empty list
    of names, and a ``plain`` letter is ``value`` itself; raises
    ``ValueError`` on a malformed ``labels`` or ``observations`` letter."""
    if kind == "plain":
        return value
    if kind == "observations" and value in (_START_TOKEN, _END_TOKEN):
        return START if value == _START_TOKEN else END
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ValueError(value)
    return frozenset(value) if kind == "labels" else ObsSymbol.state_set(value)


def dfa_to_dict(dfa: Dfa, letter_kind: str) -> dict:
    """The DFA as a JSON document: its moves by state, then letter in
    :func:`letter_key` order; a missing move is left out.  Raises
    :class:`AutomatonError` unless ``letter_kind`` is one of
    ``_LETTER_KINDS`` and every letter is of that kind, so the document
    reloads as the same DFA."""
    if letter_kind not in _LETTER_KINDS:
        kinds = ", ".join(_LETTER_KINDS)
        raise AutomatonError(f"letter_kind must be one of {kinds}, not {letter_kind!r}")
    alphabet = [_letter_to_json(l, letter_kind) for l in dfa.alphabet]
    q, i = np.nonzero(dfa.table >= 0)
    order = np.lexsort((letter_rank(dfa.alphabet)[i], q))
    moves = (x.tolist() for x in (q[order], i[order], dfa.table[q, i][order]))
    return {
        "type": "dfa",
        "letter_kind": letter_kind,
        "states": list(dfa.state_names),
        "alphabet": alphabet,
        "initial": dfa.state_names[dfa.initial],
        "accepting": sorted(dfa.state_names[q] for q in dfa.accepting),
        "transitions": [
            {
                "from": dfa.state_names[q],
                "letter": alphabet[i],
                "to": dfa.state_names[t],
            }
            for q, i, t in zip(*moves)
        ],
    }


def dfa_from_dict(doc: Mapping) -> Dfa:
    """The DFA of a :func:`dfa_to_dict` document; raises
    :class:`AutomatonError` on a missing field, a list field that is not a
    list, an unknown ``letter_kind``, a state name that is not a string or
    is listed twice, a malformed letter or one listed twice, an unknown
    state or letter, or two moves from one state on one letter."""
    fields = ("states", "alphabet", "initial", "accepting", "transitions")
    if not isinstance(doc, Mapping) or any(f not in doc for f in fields):
        raise AutomatonError("DFA file needs the fields " + ", ".join(fields))
    if not all(isinstance(doc[f], list) for f in fields if f != "initial"):
        raise AutomatonError("DFA file: states, alphabet, accepting and transitions must be lists")
    kind = doc.get("letter_kind", "plain")
    if kind not in _LETTER_KINDS:
        kinds = ", ".join(_LETTER_KINDS)
        raise AutomatonError(f"DFA file: letter_kind must be one of {kinds}, not {kind!r}")
    names = tuple(doc["states"])
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        if not isinstance(name, str) or name in index:
            raise AutomatonError(f"DFA file: states lists {name!r} twice or as a non-name")
        index[name] = i

    def state(name, where: str) -> int:
        if not isinstance(name, str) or name not in index:
            raise AutomatonError(f"DFA file: {where} names unknown state {name!r}")
        return index[name]

    def letter(value, where: str) -> Letter:
        try:
            parsed = _letter_from_json(value, kind)
            hash(parsed)
        except (TypeError, ValueError):
            raise AutomatonError(f"DFA file: {where} has the malformed letter {value!r}") from None
        return parsed

    letters: set[Letter] = set()
    for value in doc["alphabet"]:
        parsed = letter(value, "alphabet")
        if parsed in letters:
            raise AutomatonError(f"DFA file: alphabet lists the letter {value!r} twice")
        letters.add(parsed)
    alphabet = sort_alphabet(letters)
    column = {l: i for i, l in enumerate(alphabet)}
    table = np.full((len(names), len(alphabet)), -1, dtype=np.int64)
    for i, row in enumerate(doc["transitions"]):
        where = f"transition {i}"
        if not isinstance(row, Mapping) or any(f not in row for f in ("from", "letter", "to")):
            raise AutomatonError(f"DFA file: {where} needs from, letter and to")
        read = letter(row["letter"], where)
        if read not in column:
            raise AutomatonError(f"DFA file: {where} reads a letter not in the alphabet")
        q, j = state(row["from"], where), column[read]
        if table[q, j] >= 0:
            raise AutomatonError(f"DFA file: {where} repeats a move of {row['from']!r}")
        table[q, j] = state(row["to"], where)
    return Dfa(
        alphabet=alphabet,
        table=table,
        initial=state(doc["initial"], "initial"),
        accepting=frozenset(state(n, "accepting") for n in doc["accepting"]),
        state_names=names,
    )
