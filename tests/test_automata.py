import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opaque_planner.automata import (
    AlphabetMismatchError,
    AutomatonError,
    Dfa,
    IncompleteDfaError,
    SINK,
    complete,
    determinize,
    dfa_from_dict,
    dfa_to_dict,
    intersect,
    meets,
    minimize,
    minimize_table,
    sort_alphabet,
    step_table,
    subset_construction,
)
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.scenarios import gridworld
from opaque_planner.transducer import _observer, product_fst

from helpers import (
    GRIDWORLD_BUILD_SECRETS,
    dfa_from_moves,
    nfa_accepts,
    nfa_from_moves,
    nfa_moves,
    random_model,
    random_secret_text,
    reference_intersect,
    reference_minimize_table,
    reference_subset_construction,
    same_dfa,
    same_nfa,
)

AB = ("a", "b")
ABC = ("a", "b", "c")


def words_up_to(letters, max_len):
    for n in range(max_len + 1):
        yield from product(letters, repeat=n)


def simple_dfa():
    # accepts "a" followed by anything; incomplete on purpose
    return dfa_from_moves(AB, {(0, "a"): 1, (1, "a"): 1, (1, "b"): 1}, 0, {1}, ("start", "seen"))


def dfa_to_nfa(dfa):
    return nfa_from_moves(
        dfa.alphabet,
        {k: (v,) for k, v in dfa.transitions.items()},
        (dfa.initial,),
        dfa.accepting,
        dfa.state_names,
    )


class TestComplete:
    def test_adds_rejecting_sink(self):
        dfa = simple_dfa()
        done = complete(dfa)
        assert done.n_states == 3
        step_table(done, done.alphabet, "completed")  # raises unless complete
        for word in words_up_to(AB, 5):
            assert done.accepts(word) == dfa.accepts(word)

    def test_complete_is_identity_when_total(self):
        done = complete(simple_dfa())
        assert complete(done) is done

    def test_sink_is_rejecting(self):
        done = complete(simple_dfa())
        sink = done.state_names.index(SINK)
        assert sink not in done.accepting
        assert all(done.step(sink, l) == sink for l in done.alphabet)


def nfas(n_states=4, letters=AB, alphabets=None, initials=None):
    """NFAs over ``letters``, in the order ``alphabets`` draws (as given
    by default), whose moves may repeat; ``initials`` draws the initial
    states (by default one or two)."""
    idx = st.integers(0, n_states - 1)
    return st.builds(
        lambda alphabet, trans, inits, acc: nfa_from_moves(
            alphabet, trans, inits, acc, tuple(f"n{i}" for i in range(n_states))
        ),
        st.just(letters) if alphabets is None else alphabets,
        st.dictionaries(
            st.tuples(idx, st.sampled_from(letters)), st.lists(idx, max_size=3),
            max_size=10,
        ),
        st.sets(idx, min_size=1, max_size=2) if initials is None else initials,
        st.sets(idx, max_size=3),
    )


class TestDeterminize:
    def test_deterministic_input_keeps_language(self):
        dfa = complete(simple_dfa())
        det = determinize(dfa_to_nfa(dfa))
        for word in words_up_to(AB, 6):
            assert det.accepts(word) == dfa.accepts(word)

    def test_result_complete(self):
        nfa = nfa_from_moves(AB, {(0, "a"): {0, 1}}, {0}, {1}, ("x", "y"))
        det = determinize(nfa)
        step_table(det, det.alphabet, "determinized")  # raises unless complete

    def test_unreachable_accepting_dropped(self):
        nfa = nfa_from_moves(AB, {(0, "a"): {0}}, {0}, {2}, ("x", "y", "z"))
        det = determinize(nfa)
        assert not det.accepting

    @settings(max_examples=80, deadline=None)
    @given(nfas())
    def test_language_preserved(self, nfa):
        det = determinize(nfa)
        for word in words_up_to(AB, 5):
            assert det.accepts(word) == nfa_accepts(nfa, word)


def reached(nfa, word):
    moves = nfa_moves(nfa)
    current = set(nfa.initials)
    for letter in word:
        current = {t for q in current for t in moves.get((q, letter), ())}
    return current


class TestSubsetConstruction:
    @settings(max_examples=60, deadline=None)
    @given(nfas())
    def test_accepting_subsets_are_the_predicate(self, nfa):
        # accept the words after which states 0 and 1 are both reachable
        table, member_ptr, members = subset_construction(
            nfa.n_states, len(AB), nfa.src, nfa.letter, nfa.dst, sorted(nfa.initials)
        )
        det = determinize(nfa)
        assert det.transitions == {
            (q, AB[i]): t for q, row in enumerate(table.tolist()) for i, t in enumerate(row)
        }
        both = np.ones(len(table), dtype=bool)
        for q in (0, 1):
            both &= meets(member_ptr, members, np.arange(nfa.n_states) == q)
        dfa = replace(det, accepting=frozenset(np.flatnonzero(both).tolist()))
        for word in words_up_to(AB, 5):
            assert dfa.accepts(word) == ({0, 1} <= reached(nfa, word))


def make_nfa(transitions, initials, accepting, n_states, alphabet=AB):
    names = tuple(f"n{i}" for i in range(n_states))
    return nfa_from_moves(alphabet, transitions, initials, accepting, names)


# no initial state: the whole DFA is the empty-subset sink
NO_INITIAL = make_nfa({(0, "a"): {1}}, (), {1}, 2)
# no move on "a" from the start, so the sink is the first subset found
SINK_FIRST = make_nfa({(0, "b"): {0, 1}, (1, "a"): {1}}, (0,), {1}, 2)
# no move reads "c": every subset goes to the sink on it
UNREAD_LETTER = make_nfa({(0, "b"): {1}, (0, "a"): {0}}, (0,), {1}, 2, alphabet=ABC)
ONE_STATE = make_nfa({}, (0,), (0,), 1)
SELF_LOOPS = make_nfa({(0, "a"): {0}, (0, "b"): {0, 1}, (1, "b"): {1}}, (0, 1), {1}, 2)
NO_LETTERS = make_nfa({}, (0,), (0,), 1, alphabet=())
REPEATED_MOVES = make_nfa({(0, "a"): [1, 0, 1], (1, "b"): [1, 1]}, (0,), {1}, 2)


class TestAgainstReferenceSubsetConstruction:
    """``determinize`` against the dict FIFO loop it replaced: the same
    table, numbering, accepting set and state names."""

    @settings(max_examples=200, deadline=None)
    @given(nfas())
    @example(NO_INITIAL)
    @example(SINK_FIRST)
    @example(UNREAD_LETTER)
    @example(ONE_STATE)
    @example(SELF_LOOPS)
    @example(NO_LETTERS)
    @example(REPEATED_MOVES)
    def test_same_dfa(self, nfa):
        want = reference_subset_construction(
            nfa, lambda subset: not nfa.accepting.isdisjoint(subset)
        )
        assert same_dfa(determinize(nfa), want)

    def test_no_initial_state_is_the_sink(self):
        det = determinize(NO_INITIAL)
        assert det.state_names == ("{}",)
        assert det.transitions == {(0, "a"): 0, (0, "b"): 0}
        assert not det.accepting

    def test_sink_numbered_where_first_found(self):
        det = determinize(SINK_FIRST)
        assert det.state_names[:3] == ("{n0}", "{}", "{n0,n1}")
        assert det.step(0, "a") == 1 and det.step(0, "b") == 2

    def test_unread_letter_goes_to_the_sink(self):
        det = determinize(UNREAD_LETTER)
        assert det.state_names == ("{n0}", "{n1}", "{}")
        assert det.transitions == {
            (0, "a"): 0, (0, "b"): 1, (0, "c"): 2,
            (1, "a"): 2, (1, "b"): 2, (1, "c"): 2,
            (2, "a"): 2, (2, "b"): 2, (2, "c"): 2,
        }
        assert det.accepting == {1}


class TestMinimize:
    def test_requires_complete(self):
        with pytest.raises(IncompleteDfaError):
            minimize(simple_dfa())

    def test_merges_bisimilar_accepting_pair(self):
        dfa = dfa_from_moves(
            AB,
            {
                (0, "a"): 1, (0, "b"): 2,
                (1, "a"): 1, (1, "b"): 1,
                (2, "a"): 2, (2, "b"): 2,
            },
            0,
            {1, 2},
            ("q0", "acc1", "acc2"),
        )
        small = minimize(dfa)
        assert small.n_states == 2

    def test_minimal_fixed_point(self):
        dfa = complete(simple_dfa())
        once = minimize(dfa)
        twice = minimize(once)
        # start, accepting loop, dead sink
        assert once.n_states == twice.n_states == 3

    @settings(max_examples=80, deadline=None)
    @given(nfas())
    def test_language_preserved(self, nfa):
        det = determinize(nfa)
        small = minimize(det)
        assert small.n_states <= det.n_states
        for word in words_up_to(AB, 5):
            assert small.accepts(word) == det.accepts(word)


@st.composite
def complete_dfas(draw, max_states=7, letters=AB):
    """Complete DFAs with any initial state, so some states may be
    unreachable."""
    n = draw(st.integers(1, max_states))
    idx = st.integers(0, n - 1)
    return dfa_from_moves(
        letters,
        {(q, l): draw(idx) for q in range(n) for l in letters},
        draw(idx),
        draw(st.sets(idx)),
        tuple(f"d{i}" for i in range(n)),
    )


def reachable_states(dfa):
    seen, frontier = {dfa.initial}, [dfa.initial]
    while frontier:
        q = frontier.pop()
        for letter in dfa.alphabet:
            t = dfa.step(q, letter)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def distinguishable_pairs(dfa):
    """Table filling: mark the pairs that disagree on acceptance, then any
    pair with a letter into a marked pair, until nothing changes."""
    pairs = [(p, q) for p in range(dfa.n_states) for q in range(p)]
    marked = {(p, q) for p, q in pairs if (p in dfa.accepting) != (q in dfa.accepting)}
    changed = True
    while changed:
        changed = False
        for p, q in pairs:
            if (p, q) in marked:
                continue
            for letter in dfa.alphabet:
                a, b = dfa.step(p, letter), dfa.step(q, letter)
                if (max(a, b), min(a, b)) in marked:
                    marked.add((p, q))
                    changed = True
                    break
    return marked


def assert_minimal_and_equivalent(dfa):
    small = minimize(dfa)
    for word in words_up_to(AB, 5):
        assert small.accepts(word) == dfa.accepts(word)
    assert reachable_states(small) == set(range(small.n_states))
    n = small.n_states
    assert len(distinguishable_pairs(small)) == n * (n - 1) // 2
    assert same_dfa(minimize(small), small)


class TestMinimality:
    """``minimize`` against the textbook definition of a minimal DFA:
    every state reachable and no two states equivalent."""

    @settings(max_examples=150, deadline=None)
    @given(complete_dfas())
    def test_minimal_and_equivalent(self, dfa):
        assert_minimal_and_equivalent(dfa)

    def test_chain_keeps_every_state(self):
        # state q needs n - 1 - q letters "a" to accept, so a separating
        # word can be as long as the chain: one refinement round per state
        n = 300
        chain = dfa_from_moves(
            AB,
            {
                **{(q, "a"): min(q + 1, n - 1) for q in range(n)},
                **{(q, "b"): q for q in range(n)},
            },
            0,
            {n - 1},
            tuple(f"c{i}" for i in range(n)),
        )
        small = minimize(chain)
        assert small.n_states == n
        assert same_dfa(small, minimize(small))
        assert small.accepts(("a",) * (n - 1)) and not small.accepts(("a",) * (n - 2))


@pytest.mark.usefixtures("colliding_hash")
class TestMinimalityOnCollisions(TestMinimality):
    """The same checks when every row hashes alike, so that ``minimize``
    ranks by the lexsort fallback wherever a class holds two different
    states."""

    # a test of its own: hypothesis runs one test function from one class
    @settings(max_examples=150, deadline=None)
    @given(complete_dfas())
    def test_minimal_and_equivalent(self, dfa):
        assert_minimal_and_equivalent(dfa)

    def test_fallback_ranks(self, colliding_hash):
        before = len(colliding_hash)
        minimize(complete(simple_dfa()))
        assert len(colliding_hash) > before


class TestMooreParity:
    """``minimize_table`` against Moore's refinement by ``np.unique``
    rows, byte for byte, on the observers' wide alphabets: the
    gridworld's 23 letters and the random models' observation alphabets."""

    @staticmethod
    def assert_parity(model, secret_text):
        secret = dfa_over_model_labels(secret_text, model)
        _, table, accepts, _, _ = _observer(product_fst(model, secret))
        alphabet = model.observation_alphabet()
        got = minimize_table(table, accepts, alphabet)
        want = reference_minimize_table(table, accepts, alphabet)
        assert got.table.dtype == want.table.dtype
        assert got.table.shape == want.table.shape
        assert got.table.tobytes() == want.table.tobytes()
        assert same_dfa(got, want)

    @pytest.mark.parametrize("secret_text", GRIDWORLD_BUILD_SECRETS)
    def test_gridworld_build_secrets(self, secret_text):
        self.assert_parity(gridworld(), secret_text)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models(self, seed):
        m = random_model(seed)
        names = [m.states[i] for i in m.interior_state_indices()]
        self.assert_parity(m, random_secret_text(seed, names))


class TestIntersect:
    def universal(self):
        return nfa_from_moves(AB, {(0, l): {0} for l in AB}, {0}, {0}, ("u",))

    def empty_language(self):
        return nfa_from_moves(AB, {}, {0}, (), ("e",))

    def test_with_universal(self):
        nfa = dfa_to_nfa(complete(simple_dfa()))
        both = intersect(nfa, self.universal())
        for word in words_up_to(AB, 5):
            assert nfa_accepts(both, word) == nfa_accepts(nfa, word)

    def test_with_empty(self):
        nfa = dfa_to_nfa(complete(simple_dfa()))
        both = intersect(nfa, self.empty_language())
        assert not any(nfa_accepts(both, w) for w in words_up_to(AB, 5))

    def test_alphabet_mismatch(self):
        other = nfa_from_moves(("a", "c"), {}, {0}, (), ("x",))
        with pytest.raises(AlphabetMismatchError):
            intersect(self.universal(), other)

    @pytest.mark.parametrize("n_states, bound", [(2**32, "int64"), (2**16, "int32")])
    def test_pair_space_too_large(self, n_states, bound):
        # range names give a huge NFA that holds no per-state array, and
        # the bound is checked before the search allocates anything
        big = replace(self.universal(), state_names=range(n_states))
        with pytest.raises(AutomatonError, match=bound):
            intersect(big, big)

    @settings(max_examples=60, deadline=None)
    @given(nfas(), nfas())
    def test_language_is_intersection(self, a, b):
        both = intersect(a, b)
        for word in words_up_to(AB, 4):
            assert nfa_accepts(both, word) == (nfa_accepts(a, word) and nfa_accepts(b, word))


# NFAs over ABC in any letter order, with zero to three initial states and
# possibly no moves at all
SHUFFLED = nfas(
    n_states=4,
    letters=ABC,
    alphabets=st.permutations(ABC).map(tuple),
    initials=st.sets(st.integers(0, 3), max_size=3),
)


class TestAgainstReferenceIntersect:
    """``intersect`` against the dict FIFO search it replaced: the same
    moves, numbering, initial and accepting states and state names."""

    @settings(max_examples=200, deadline=None)
    @given(SHUFFLED, SHUFFLED)
    @example(make_nfa({}, (0, 1), (1,), 2, ABC), make_nfa({}, (0,), (0,), 1, ("c", "b", "a")))
    @example(SELF_LOOPS, REPEATED_MOVES)
    @example(NO_LETTERS, NO_LETTERS)
    @example(make_nfa({}, (), (), 1), SELF_LOOPS)
    def test_same_nfa(self, a, b):
        got = intersect(a, b)
        assert same_nfa(got, reference_intersect(a, b))
        assert got.src.dtype == got.letter.dtype == got.dst.dtype == np.int64

    def test_numbering(self):
        a = make_nfa({(0, "b"): {1, 0}, (0, "a"): {1}, (1, "a"): {0}}, (0,), (1,), 2, ("b", "a"))
        b = make_nfa({(0, "a"): {0}, (0, "b"): {0, 1}, (1, "a"): {1}}, (0,), (0, 1), 2)
        both = intersect(a, b)
        assert both.alphabet == AB
        assert both.state_names == ("(n0,n0)", "(n1,n0)", "(n0,n1)", "(n1,n1)")
        assert nfa_moves(both) == {
            (0, "a"): {1}, (0, "b"): {0, 2, 1, 3},
            (1, "a"): {0},
            (2, "a"): {3}, (3, "a"): {2},
        }
        assert both.initials == {0} and both.accepting == {1, 3}

    def test_moves_are_read_only(self):
        both = intersect(SELF_LOOPS, SELF_LOOPS)
        for moves in (both.src, both.letter, both.dst):
            with pytest.raises(ValueError):
                moves[0] = 1


class TestJson:
    def test_dfa_round_trip(self):
        dfa = complete(simple_dfa())
        doc = dfa_to_dict(dfa, "plain")
        back = dfa_from_dict(doc)
        for word in words_up_to(AB, 5):
            assert back.accepts(word) == dfa.accepts(word)

    def test_observation_letters_survive(self, opaque_dfa):
        back = dfa_from_dict(dfa_to_dict(opaque_dfa, "observations"))
        assert back.alphabet == opaque_dfa.alphabet
        assert back.accepting == opaque_dfa.accepting
        assert back.transitions == opaque_dfa.transitions

    def test_scalar_letters_round_trip(self):
        # 1 and "1" once both wrote "1", and the reload failed on a repeated move
        dfa = dfa_from_moves(
            sort_alphabet(["1", 1, None, 2.5, False]),
            {(0, 1): 1, (0, "1"): 0, (1, None): 1, (1, 2.5): 0, (0, False): 1},
            0, {1}, ("p", "q"),
        )
        back = dfa_from_dict(json.loads(json.dumps(dfa_to_dict(dfa, "plain"))))
        assert [(type(l), l) for l in back.alphabet] == [(type(l), l) for l in dfa.alphabet]
        assert np.array_equal(back.table, dfa.table)

    @pytest.mark.parametrize(
        "dfa, kind",
        [
            ("secret_dfa", "observations"),
            ("secret_dfa", "plain"),
            ("opaque_dfa", "labels"),
            ("opaque_dfa", "plain"),
            ("plain_dfa", "labels"),
            ("plain_dfa", "observations"),
        ],
    )
    def test_letters_of_another_kind_rejected(self, request, dfa, kind):
        # a label DFA written as observations once reloaded with observation
        # letters and rejected [{s6}]; written as plain it did not reload
        dfa = complete(simple_dfa()) if dfa == "plain_dfa" else request.getfixturevalue(dfa)
        with pytest.raises(AutomatonError, match=f"no JSON form of letter_kind '{kind}'"):
            dfa_to_dict(dfa, kind)

    def test_unknown_letter_kind_rejected(self):
        with pytest.raises(AutomatonError, match="letter_kind must be one of"):
            dfa_to_dict(complete(simple_dfa()), "bogus")

    @pytest.mark.parametrize("letter", [("a", "b"), np.int64(1), float("nan")])
    def test_letter_without_json_form_rejected(self, letter):
        dfa = dfa_from_moves((letter,), {}, 0, (), ("p",))
        with pytest.raises(AutomatonError, match="no JSON form"):
            dfa_to_dict(dfa, "plain")

    @pytest.mark.parametrize(
        "kind, alphabet, repeated",
        [("plain", ["a", "b", "a"], "'a'"), ("labels", [["x", "y"], ["y", "x"]], r"\['y', 'x'\]")],
    )
    def test_repeated_alphabet_letter_rejected(self, kind, alphabet, repeated):
        doc = {"letter_kind": kind, "states": ["p"], "alphabet": alphabet, "initial": "p",
               "accepting": [], "transitions": []}
        with pytest.raises(AutomatonError, match=f"alphabet lists the letter {repeated} twice"):
            dfa_from_dict(doc)



@st.composite
def partial_dfas(draw, max_states=6, letters=ABC):
    """DFAs given as tables with -1 where a move is missing."""
    n = draw(st.integers(1, max_states))
    rows = st.lists(st.integers(-1, n - 1), min_size=len(letters), max_size=len(letters))
    table = np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.int64)
    idx = st.integers(0, n - 1)
    return Dfa(
        alphabet=letters,
        table=table,
        initial=draw(idx),
        accepting=frozenset(draw(st.sets(idx))),
        state_names=tuple(f"p{i}" for i in range(n)),
    )


class TestTable:
    """The table is the DFA; ``transitions`` and ``letter_id`` are views
    of it."""

    @settings(max_examples=100, deadline=None)
    @given(partial_dfas())
    def test_transitions_are_the_defined_moves(self, dfa):
        want = {
            (q, dfa.alphabet[i]): t
            for q, row in enumerate(dfa.table.tolist())
            for i, t in enumerate(row)
            if t >= 0
        }
        assert dict(dfa.transitions) == want
        for q in range(dfa.n_states):
            for letter in dfa.alphabet:
                assert dfa.step(q, letter) == want.get((q, letter))
        if len(want) == dfa.table.size:
            step_table(dfa, dfa.alphabet, "test")
        else:
            with pytest.raises(IncompleteDfaError):
                step_table(dfa, dfa.alphabet, "test")

    @settings(max_examples=100, deadline=None)
    @given(partial_dfas())
    def test_complete_adds_a_sink_exactly_when_a_move_is_missing(self, dfa):
        done = complete(dfa)
        if (dfa.table >= 0).all():
            assert done is dfa
            return
        sink = dfa.n_states
        assert done.n_states == sink + 1
        step_table(done, done.alphabet, "completed")  # raises unless complete
        assert np.array_equal(done.table[:sink], np.where(dfa.table < 0, sink, dfa.table))
        assert (done.table[sink] == sink).all() and sink not in done.accepting
        assert complete(done) is done
        for word in words_up_to(ABC, 3):
            assert done.accepts(word) == dfa.accepts(word)

    @settings(max_examples=100, deadline=None)
    @given(partial_dfas(), st.permutations(ABC))
    def test_step_table_gathers_columns(self, dfa, letters):
        total = complete(dfa)
        got = step_table(total, letters, "test")
        assert np.array_equal(got, total.table[:, [ABC.index(l) for l in letters]])
        with pytest.raises(IncompleteDfaError, match="no move on 'z'"):
            step_table(total, tuple(letters) + ("z",), "test")
        if total is not dfa:
            with pytest.raises(IncompleteDfaError, match="test DFA is not complete"):
                step_table(dfa, letters, "test")

    def test_table_is_read_only(self):
        dfa = complete(simple_dfa())
        with pytest.raises(ValueError):
            dfa.table[0, 0] = 1
        with pytest.raises(TypeError):
            dfa.transitions[(0, "a")] = 0
        with pytest.raises(TypeError):
            dfa.letter_id["c"] = 2
        assert dict(dfa.letter_id) == {"a": 0, "b": 1}
