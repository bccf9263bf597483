import hashlib
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaque_planner.automata import step_table
from opaque_planner.ltlf import (
    And,
    Eventually,
    LtlfError,
    LtlfSyntaxError,
    MAX_NESTING,
    Next,
    Not,
    Prop,
    Until,
    dfa_over_model_labels,
    ltlf_to_dfa,
    parse_ltlf,
    to_str,
)
from opaque_planner.scenarios import gridworld, running_example

from batch_semantics import evaluate

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
        step_table(dfa, dfa.alphabet, "task")  # raises unless complete
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

    def test_atoms_with_equal_arguments_are_one(self):
        # F ((p & q) | (p & !q)) and F p have one Boolean function as
        # argument, so they are one atom and the formula is false
        text = "F ((p & q) | (p & !q)) & !F p"
        dfa = ltlf_to_dfa(text, LETTERS2)
        assert dfa.n_states == 1
        assert dfa.accepting == frozenset()
        for word in words_up_to(LETTERS2, 4):
            assert not evaluate(parse_ltlf(text), word)

    def test_right_nested_until_chain_is_fast(self):
        start = time.perf_counter()
        dfa = ltlf_to_dfa("p U " * MAX_NESTING + "q", LETTERS2)
        elapsed = time.perf_counter() - start
        assert dfa.n_states == 4
        assert elapsed < 0.3

    @settings(max_examples=40, deadline=None)
    @given(formulas())
    def test_negation_complements(self, f):
        pos = ltlf_to_dfa(f, LETTERS2)
        neg = ltlf_to_dfa(Not(f), LETTERS2)
        for word in words_up_to(LETTERS2, 3):
            assert pos.accepts(word) != neg.accepts(word)


class TestScenarioTables:
    """The translation tables of the scenarios' formulas, pinned by size and
    by the sha256 of ``table``'s bytes; every later stage reads them."""

    MODELS = {"example": running_example, "gridworld": gridworld}
    TABLES = {
        ("example", "F s4"): (2, "6533e1775c628e9ba263e36c2eb9687bdfb35fd2dbf1665cdeb78754e6515031"),
        ("example", "F s6"): (2, "78b19d4cbd2cf5a78c755d8cfee5b9b923a2e083ace8a7502b187dbdded1c661"),
        ("example", "true"): (1, "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb"),
        ("example", "G !s7"): (2, "48b2ab7ae94d435a92f41615bde0a6e1b7de4ab31fa3f751f8ee4f811831fafa"),
        ("example", "F s6 & F s4"): (4, "ae11a222d8ab4eeb210308e5997cb7548ceaedbdb85273de445e7e2e4dd1f2db"),
        ("gridworld", "F C"): (2, "668a95a42590c21fda22bb4abbd53c4c5b29c8ccb3a576264daf6473a3181edf"),
        ("gridworld", "F B & F A"): (4, "e50dd7d1859da1746b3bc4bcf694c573a2def6246d535bf7e6f05de77099e180"),
        ("gridworld", "F (B & F A)"): (3, "2b05bbf54df7f31751794ac32e77e445244e46daf6d9fa6070b4b1ac5b3d3fc7"),
        ("gridworld", "G (!B | F A)"): (2, "93a82c9fb7429ff4eadb09e335bd9bf52ab82d054347b1849ff1bbbcff4d70a7"),
        ("gridworld", "F B | G !A"): (3, "fa5307e2215d79bca4757ad09e9f475bc77fc2a6fdd6ddc5126cb02063152b7c"),
        ("gridworld", "F A & G !C"): (3, "e194a50d6c6f2285af001bb39b96d53a9affac4a782552b9b45d68eebca4d08d"),
        ("gridworld", "(!A) U B"): (3, "c7dec674f31337b7a8be0cb4736dc037350bdc179c85223dadeda4898f281832"),
    }

    @pytest.mark.parametrize("scenario, text", list(TABLES))
    def test_table_pinned(self, scenario, text):
        n_states, digest = self.TABLES[scenario, text]
        dfa = dfa_over_model_labels(text, self.MODELS[scenario]())
        assert dfa.n_states == n_states
        assert hashlib.sha256(dfa.table.tobytes()).hexdigest() == digest


class TestDeepNesting:
    """Parsing, translation and evaluation recurse once per nesting level.
    The parser takes at most ``MAX_NESTING`` levels; translation and
    evaluation of a deeper formula built by hand raise ``LtlfError`` past
    Python's recursion limit."""

    @pytest.mark.parametrize(
        "text",
        ["(" * 200 + "p" + ")" * 200, "!" * 1000 + "p", "X " * 1000 + "p"],
        ids=["parentheses", "negations", "nexts"],
    )
    def test_parse(self, text):
        with pytest.raises(LtlfError, match="formula nested too deeply"):
            parse_ltlf(text)
        with pytest.raises(LtlfError, match="formula nested too deeply"):
            ltlf_to_dfa(text, LETTERS2)

    @pytest.mark.parametrize("wrap", [Not, Next])
    def test_translate_and_evaluate(self, wrap):
        f = Prop("p")
        for _ in range(5000):
            f = wrap(f)
        with pytest.raises(LtlfError, match="formula nested too deeply"):
            ltlf_to_dfa(f, LETTERS2)
        with pytest.raises(LtlfError, match="formula nested too deeply"):
            evaluate(f, [frozenset({"p"})])

    @pytest.mark.parametrize(
        "nest",
        [
            lambda n: "(" * n + "p" + ")" * n,
            lambda n: "!" * n + "p",
            lambda n: "X " * n + "p",
            lambda n: "p U " * n + "p",
        ],
        ids=["parentheses", "negations", "nexts", "untils"],
    )
    @pytest.mark.parametrize("caller_frames", [0, 300])
    def test_cut_off_is_a_fixed_depth(self, nest, caller_frames):
        # the parser counts its own levels, so the cut-off is the same
        # however deep the caller's stack already is
        def from_depth(k, f, *args):
            return f(*args) if k == 0 else from_depth(k - 1, f, *args)

        f = from_depth(caller_frames, parse_ltlf, nest(MAX_NESTING))
        assert from_depth(caller_frames, evaluate, f, [frozenset({"p"})]) in (True, False)
        assert from_depth(caller_frames, ltlf_to_dfa, nest(MAX_NESTING), LETTERS2).n_states > 1
        too_deep = f"formula nested too deeply: more than {MAX_NESTING} levels"
        with pytest.raises(LtlfError, match=too_deep):
            from_depth(caller_frames, parse_ltlf, nest(MAX_NESTING + 1))
        with pytest.raises(LtlfError, match=too_deep):
            from_depth(caller_frames, ltlf_to_dfa, nest(MAX_NESTING + 1), LETTERS2)

    def test_moderate_nesting_still_translates(self):
        text = "(" * 40 + "F p" + ")" * 40
        dfa = ltlf_to_dfa(text, LETTERS2)
        assert dfa.n_states == 2
        assert evaluate(parse_ltlf(text), [frozenset({"p"})])
