from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaque_planner.ltlf import (
    And,
    Eventually,
    LtlfError,
    LtlfSyntaxError,
    Not,
    Prop,
    Until,
    dfa_over_model_labels,
    evaluate,
    ltlf_to_dfa,
    parse_ltlf,
    to_str,
)

LETTERS2 = [frozenset(s) for s in [(), ("p",), ("q",), ("p", "q")]]


def words_up_to(letters, max_len):
    for n in range(max_len + 1):
        yield from product(letters, repeat=n)


class TestParser:
    def test_simple_eventually(self):
        assert parse_ltlf("F s4") == Eventually(Prop("s4"))

    def test_conjunction_of_eventualities(self):
        f = parse_ltlf("F B & F A")
        assert f == And((Eventually(Prop("B")), Eventually(Prop("A"))))

    def test_dangling_until_position(self):
        with pytest.raises(LtlfSyntaxError) as err:
            parse_ltlf("p U")
        assert err.value.token_index == 3

    def test_bad_character(self):
        with pytest.raises(LtlfSyntaxError):
            parse_ltlf("p ? q")

    def test_until_right_associative(self):
        assert parse_ltlf("a U b U c") == Until(
            Prop("a"), Until(Prop("b"), Prop("c"))
        )

    def test_precedence_unary_until_and_or(self):
        f = parse_ltlf("F a & b | !c")
        # ((F a) & b) | (!c)
        assert f.__class__.__name__ == "Or"
        assert f.args[0] == And((Eventually(Prop("a")), Prop("b")))
        assert f.args[1] == Not(Prop("c"))

    @pytest.mark.parametrize(
        "text",
        ["F s4", "F B & F A", "!(a | b) & X c", "a U (b U c)", "G (a | !b)", "true | false"],
    )
    def test_round_trip(self, text):
        f = parse_ltlf(text)
        assert parse_ltlf(to_str(f)) == f


def formulas(props=("p", "q"), depth=3):
    # explicitly depth-bounded: unary chains cannot pile up unboundedly
    from opaque_planner.ltlf import Always, Next, Or

    atoms = st.sampled_from([Prop(p) for p in props])

    def extend(kids):
        return st.one_of(
            kids.map(Not),
            kids.map(Next),
            kids.map(Eventually),
            kids.map(Always),
            st.tuples(kids, kids).map(lambda lr: Until(*lr)),
            st.tuples(kids, kids).map(lambda lr: And(tuple(lr))),
            st.tuples(kids, kids).map(lambda lr: Or(tuple(lr))),
        )

    s = atoms
    for _ in range(depth):
        s = st.one_of(atoms, extend(s))
    return s


class TestSemantics:
    def test_eventually(self):
        f = parse_ltlf("F p")
        assert evaluate(f, [set(), {"p"}])
        assert not evaluate(f, [set(), {"q"}])
        assert not evaluate(f, [])

    def test_always_vacuous_on_empty(self):
        assert evaluate(parse_ltlf("G p"), [])

    def test_strict_next_needs_successor(self):
        f = parse_ltlf("X p")
        assert not evaluate(f, [{"p"}])
        assert evaluate(f, [{"q"}, {"p"}])

    def test_until(self):
        f = parse_ltlf("p U q")
        assert evaluate(f, [{"p"}, {"p"}, {"q"}])
        assert evaluate(f, [{"q"}])
        assert not evaluate(f, [{"p"}, {"p"}])
        assert not evaluate(f, [{"p"}, set(), {"q"}])


class TestTranslation:
    def test_eventually_two_states(self, model):
        dfa = dfa_over_model_labels("F s6", model)
        assert dfa.n_states == 2
        assert dfa.is_complete()
        assert dfa.accepts([frozenset({"s1"}), frozenset({"s6"})])
        assert not dfa.accepts([frozenset({"s1"}), frozenset({"s5"})])

    def test_true_single_state(self):
        dfa = ltlf_to_dfa("true", LETTERS2)
        assert dfa.n_states == 1
        assert dfa.accepting == frozenset({0})

    def test_two_eventualities_four_states(self):
        letters = [frozenset(s) for s in [(), ("A",), ("B",), ("A", "B")]]
        dfa = ltlf_to_dfa("F B & F A", letters)
        assert dfa.n_states == 4
        for word in words_up_to(letters, 6):
            assert dfa.accepts(word) == evaluate(parse_ltlf("F B & F A"), word)

    def test_undeclared_proposition(self):
        with pytest.raises(LtlfError, match="undeclared"):
            ltlf_to_dfa("F r", LETTERS2)

    def test_empty_word_acceptance_matches(self):
        for text in ("G p", "F p", "!F p", "true", "p"):
            dfa = ltlf_to_dfa(text, LETTERS2)
            assert dfa.accepts([]) == evaluate(parse_ltlf(text), [])

    @settings(max_examples=120, deadline=None)
    @given(formulas(), st.lists(st.sampled_from(LETTERS2), max_size=5))
    def test_agrees_with_direct_semantics(self, f, word):
        dfa = ltlf_to_dfa(f, LETTERS2)
        assert dfa.accepts(word) == evaluate(f, word)

    @pytest.mark.parametrize(
        "text", ["(F p) U (F p)", "(p | F p) U (F p)", "(G !q) U (G !q)"]
    )
    def test_progression_closes(self, text):
        # syntactic progression of these grew without bound (RecursionError)
        f = parse_ltlf(text)
        dfa = ltlf_to_dfa(f, LETTERS2)
        assert dfa.n_states <= 3
        for word in words_up_to(LETTERS2, 5):
            assert dfa.accepts(word) == evaluate(f, word)

    @settings(max_examples=40, deadline=None)
    @given(formulas())
    def test_negation_complements(self, f):
        pos = ltlf_to_dfa(f, LETTERS2)
        neg = ltlf_to_dfa(Not(f), LETTERS2)
        for word in words_up_to(LETTERS2, 3):
            assert pos.accepts(word) != neg.accepts(word)
