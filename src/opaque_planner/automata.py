"""Finite automata over hashable letters and the algebra used by the
pipeline: completion, subset-construction determinization, intersection
and Hopcroft minimization.

Letters are label sets (frozensets of proposition names), observation
symbols, or plain strings in tests; all of them sort deterministically so
state numbering is reproducible from run to run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

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

    def has_reachable_accepting(self) -> bool:
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            q = frontier.pop()
            if q in self.accepting:
                return True
            for letter in self.alphabet:
                t = self.transitions.get((q, letter))
                if t is not None and t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return False


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


def _missing_moves(dfa: Dfa, letters: Sequence[Letter]) -> list[tuple[int, Letter]]:
    return [
        (q, letter)
        for q in range(dfa.n_states)
        for letter in letters
        if (q, letter) not in dfa.transitions
    ]


def require_complete(dfa: Dfa, letters: Iterable[Letter], what: str) -> None:
    """Raise :class:`IncompleteDfaError` unless every state of ``dfa`` has
    a move on every one of ``letters``; ``what`` names the automaton in the
    message."""
    missing = _missing_moves(dfa, tuple(letters))
    if missing:
        q, letter = missing[0]
        raise IncompleteDfaError(
            f"{what} DFA is not complete: state {dfa.state_names[q]} "
            f"has no move on {letter!r} ({len(missing)} missing total)"
        )


def complete(dfa: Dfa, sink_label: str = "sink") -> Dfa:
    """Make the transition function total by adding a non-accepting sink.

    Already-complete automata are returned unchanged.
    """
    missing = _missing_moves(dfa, dfa.alphabet)
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


def subset_construction(nfa: Nfa, accepts: Callable[[frozenset[int]], bool]) -> Dfa:
    """Subset construction, reachable subsets only; a subset is accepting
    when ``accepts(subset)`` holds.

    The empty subset appears as the rejecting sink whenever some letter
    has no successor, so the result is always complete.
    """
    per_state: dict[int, dict[Letter, frozenset[int]]] = {}
    for (q, letter), targets in nfa.transitions.items():
        per_state.setdefault(q, {})[letter] = targets
    empty = frozenset()
    start = frozenset(nfa.initials)
    order: dict[frozenset[int], int] = {start: 0}
    queue = deque([start])
    transitions: dict[tuple[int, Letter], int] = {}
    while queue:
        subset = queue.popleft()
        idx = order[subset]
        agg: dict[Letter, set[int]] = {}
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
    return Dfa(
        alphabet=nfa.alphabet,
        transitions=transitions,
        initial=0,
        accepting=frozenset(order[s] for s in subsets if accepts(s)),
        state_names=names,
    )


def determinize(nfa: Nfa) -> Dfa:
    """The subset construction accepting the subsets that hold an
    accepting state: the DFA of the NFA's language."""
    return subset_construction(nfa, lambda subset: not nfa.accepting.isdisjoint(subset))


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


def _reachable(dfa: Dfa) -> list[int]:
    seen = {dfa.initial}
    out = [dfa.initial]
    frontier = deque([dfa.initial])
    while frontier:
        q = frontier.popleft()
        for letter in dfa.alphabet:
            t = dfa.transitions.get((q, letter))
            if t is not None and t not in seen:
                seen.add(t)
                out.append(t)
                frontier.append(t)
    return out


def minimize(dfa: Dfa) -> Dfa:
    """Hopcroft minimization of a complete DFA.

    Unreachable states are dropped first; the result is renumbered by
    breadth-first search over the sorted alphabet so equal inputs yield
    identical outputs.
    """
    if not dfa.is_complete():
        raise IncompleteDfaError("minimize requires a complete DFA")
    reach = _reachable(dfa)
    reach_set = set(reach)

    # partition refinement with the smaller-half worklist rule
    blocks: dict[int, set[int]] = {}
    fin = {q for q in reach if q in dfa.accepting}
    nonfin = reach_set - fin
    block_of: dict[int, int] = {}
    for part in (fin, nonfin):
        if part:
            bid = len(blocks)
            blocks[bid] = set(part)
            for q in part:
                block_of[q] = bid
    worklist: set[tuple[int, Letter]] = set()
    if len(blocks) == 2:
        smaller = min(blocks, key=lambda b: len(blocks[b]))
        worklist.update((smaller, letter) for letter in dfa.alphabet)
    else:
        worklist.update((bid, letter) for bid in blocks for letter in dfa.alphabet)

    inv: dict[Letter, dict[int, list[int]]] = {letter: {} for letter in dfa.alphabet}
    for (q, letter), t in dfa.transitions.items():
        if q in reach_set:
            inv[letter].setdefault(t, []).append(q)

    while worklist:
        a_id, letter = worklist.pop()
        pre: set[int] = set()
        for q in blocks[a_id]:
            pre.update(inv[letter].get(q, ()))
        touched = {block_of[q] for q in pre}
        for y_id in touched:
            y = blocks[y_id]
            inside = y & pre
            if not inside or len(inside) == len(y):
                continue
            outside = y - inside
            # keep the larger part under the old id so pending splitters
            # referring to it stay valid; queue the smaller one
            if len(inside) > len(outside):
                keep, new = inside, outside
            else:
                keep, new = outside, inside
            blocks[y_id] = keep
            new_id = len(blocks)
            blocks[new_id] = new
            for q in new:
                block_of[q] = new_id
            # pending (y_id, d) splitters keep referring to the larger half;
            # queueing the smaller half covers both cases of Hopcroft's rule
            for d in dfa.alphabet:
                worklist.add((new_id, d))

    # quotient automaton, renumbered by BFS from the initial block
    start = block_of[dfa.initial]
    order = {start: 0}
    queue = deque([start])
    transitions: dict[tuple[int, Letter], int] = {}
    while queue:
        bid = queue.popleft()
        idx = order[bid]
        q = next(iter(blocks[bid]))
        for letter in dfa.alphabet:
            tb = block_of[dfa.transitions[(q, letter)]]
            if tb not in order:
                order[tb] = len(order)
                queue.append(tb)
            transitions[(idx, letter)] = order[tb]
    names = tuple(f"q{i}" for i in range(len(order)))
    accepting = frozenset(
        idx for bid, idx in order.items() if next(iter(blocks[bid])) in dfa.accepting
    )
    return Dfa(
        alphabet=dfa.alphabet,
        transitions=transitions,
        initial=0,
        accepting=accepting,
        state_names=names,
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
    kind = doc.get("letter_kind", "plain")
    names = tuple(doc["states"])
    index = {n: i for i, n in enumerate(names)}
    alphabet = sort_alphabet(_letter_from_json(l, kind) for l in doc["alphabet"])
    transitions = {
        (index[row["from"]], _letter_from_json(row["letter"], kind)): index[row["to"]]
        for row in doc["transitions"]
    }
    return Dfa(
        alphabet=alphabet,
        transitions=transitions,
        initial=index[doc["initial"]],
        accepting=frozenset(index[n] for n in doc["accepting"]),
        state_names=names,
    )
