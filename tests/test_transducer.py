from collections import deque
from itertools import product

import pytest

from opaque_planner.automata import (
    Dfa,
    IncompleteDfaError,
    determinize,
    intersect,
    minimize,
    sort_alphabet,
)
from opaque_planner.ltlf import dfa_over_model_labels, evaluate, parse_ltlf
from opaque_planner.model import ObsSymbol, Play, START, END, build_model, obs_of_play
from opaque_planner.simulate import enumerate_plays, observation_buckets
from opaque_planner.transducer import (
    build_obs_fst,
    opaque_obs_dfa,
    opaque_pipeline,
    output_nfa,
    play_inputs,
    product_fst,
)

from helpers import random_model, random_secret_text, run_on_play

SS = ObsSymbol.state_set


def play(text):
    return Play.from_linear(text.split())


def product_dfa(a, b):
    """Intersection of two complete DFAs over one alphabet, reachable
    pairs only: the reference for determinizing before intersecting."""
    assert set(a.alphabet) == set(b.alphabet)
    assert a.is_complete() and b.is_complete()
    alphabet = sort_alphabet(a.alphabet)
    order = {(a.initial, b.initial): 0}
    queue = deque(order)
    transitions = {}
    while queue:
        p, q = pair = queue.popleft()
        for letter in alphabet:
            t = (a.transitions[(p, letter)], b.transitions[(q, letter)])
            if t not in order:
                order[t] = len(order)
                queue.append(t)
            transitions[(order[pair], letter)] = order[t]
    return Dfa(
        alphabet=alphabet,
        transitions=transitions,
        initial=0,
        accepting=frozenset(
            i for (p, q), i in order.items() if p in a.accepting and q in b.accepting
        ),
        state_names=tuple(str(pair) for pair in order),
    )


def paper_route(model, secret):
    """The paper's construction: intersect the satisfying and violating
    output NFAs, determinize, minimize.  The reference for the observer."""
    pf = product_fst(build_obs_fst(model), secret)
    joint = intersect(output_nfa(pf, "satisfying"), output_nfa(pf, "violating"))
    return minimize(determinize(joint))


def assert_same_dfa(got, want):
    assert got.alphabet == want.alphabet
    assert got.initial == want.initial
    assert got.transitions == want.transitions
    assert got.accepting == want.accepting


@pytest.fixture(scope="module")
def fst(model):
    return build_obs_fst(model)


@pytest.fixture(scope="module")
def pf(model, secret_dfa, fst):
    return product_fst(fst, secret_dfa)


class TestObsFst:
    def test_interior_transition(self, model, fst):
        s1, a, s2 = model.state_index["s1"], model.action_index["a"], model.state_index["s2"]
        assert fst.transitions[(s1, (s1, a, s2))] == (s2, SS(["s2", "s3"]))

    def test_terminating_transition(self, model, fst):
        s4, bot = model.state_index["s4"], model.bot
        assert fst.transitions[(s4, (s4, model.a_bot, bot))] == (bot, END)

    def test_initiating_transition(self, model, fst):
        s1 = model.state_index["s1"]
        assert fst.transitions[(model.top, (model.top, model.a_top, s1))] == (s1, START)

    def test_no_transitions_out_of_terminating_state(self, model, fst):
        assert all(src != model.bot for src, _ in fst.transitions)

    def test_one_transition_per_positive_probability_edge(self, model, fst):
        expected = sum(
            len(dist)
            for (s, _a), dist in model.transitions.items()
            if s != model.bot
        )
        assert len(fst.transitions) == expected

    def test_agrees_with_observation_map_on_all_short_plays(self, model, fst):
        for p in enumerate_plays(model, max_actions=5):
            assert run_on_play(fst, p) == obs_of_play(model, p)

    def test_single_state_model(self):
        m = build_model(
            states=["only"],
            actions=["loop"],
            transitions={("only", "loop"): {"only": 1.0}},
            initial={"only": 1.0},
            labels={"only": {"only"}},
            observations={("only", "loop", "only"): ["only"]},
        )
        f = build_obs_fst(m)
        word = run_on_play(f, play("s_top a_top only a_bot s_bot"))
        assert word == (START, END)


class TestProductFst:
    def test_initial_transition(self, model, pf, secret_dfa):
        s1 = model.state_index["s1"]
        letter = (model.top, model.a_top, s1)
        target, out = pf.transitions[(pf.initial, letter)]
        assert pf.pairs[target] == (s1, secret_dfa.initial)
        assert out == START

    def test_secret_advance_on_entering_s6(self, model, pf, secret_dfa):
        s3, b, s6 = model.state_index["s3"], model.action_index["b"], model.state_index["s6"]
        src = pf.index[(s3, secret_dfa.initial)]
        target, out = pf.transitions[(src, (s3, b, s6))]
        entered = pf.pairs[target]
        assert entered[0] == s6
        assert entered[1] in secret_dfa.accepting
        assert out == SS(["s5", "s6"])

    def test_termination_freezes_secret_state(self, model, pf, secret_dfa):
        s6 = model.state_index["s6"]
        accepting_q = next(iter(secret_dfa.accepting))
        src = pf.index[(s6, accepting_q)]
        target, out = pf.transitions[(src, (s6, model.a_bot, model.bot))]
        assert pf.pairs[target] == (model.bot, accepting_q)
        assert out == END
        assert target in pf.accept_sat

    def test_accepting_sets_partition_terminal_pairs(self, model, pf):
        terminal = {
            i for i, (s, _q) in enumerate(pf.pairs) if s == model.bot
        }
        assert pf.accept_sat | pf.accept_vio == terminal
        assert not (pf.accept_sat & pf.accept_vio)

    def test_trivial_secret_has_no_violating_terminals(self, model, fst):
        trivial = dfa_over_model_labels("true", model)
        product = product_fst(fst, trivial)
        assert product.accept_vio == frozenset()

    def test_incomplete_secret_rejected(self, model, fst, secret_dfa):
        pruned = type(secret_dfa)(
            alphabet=secret_dfa.alphabet,
            transitions={
                k: v
                for k, v in secret_dfa.transitions.items()
                if k[1] != frozenset({"s1"})
            },
            initial=secret_dfa.initial,
            accepting=secret_dfa.accepting,
            state_names=secret_dfa.state_names,
        )
        with pytest.raises(IncompleteDfaError):
            product_fst(fst, pruned)

    def test_run_tracks_secret_dfa(self, model, pf, secret_dfa):
        # the product run ends accepting exactly when the labeled play
        # satisfies the secret
        secret = parse_ltlf("F s6")
        for p in enumerate_plays(model, max_actions=4):
            final = pf.run_on_inputs(play_inputs(model, p))
            sat = evaluate(secret, [frozenset({s}) for s in p.interior_states])
            assert (final in pf.accept_sat) == sat
            assert (final in pf.accept_vio) == (not sat)


class TestOutputNfa:
    def test_both_nfas_accept_the_ambiguous_word(self, pf):
        word = (START, SS(["s2", "s3"]), SS(["s5", "s6"]), END)
        assert output_nfa(pf, "satisfying").accepts(word)
        assert output_nfa(pf, "violating").accepts(word)

    def test_satisfying_rejects_immediate_termination(self, pf):
        # terminating in s1 cannot satisfy the secret
        assert not output_nfa(pf, "satisfying").accepts((START, END))
        assert output_nfa(pf, "violating").accepts((START, END))

    def test_trivial_secret_violating_language_empty(self, model, fst):
        trivial = dfa_over_model_labels("true", model)
        nfa = output_nfa(product_fst(fst, trivial), "violating")
        assert not nfa.initials or not nfa.accepting

    def test_which_argument_checked(self, pf):
        with pytest.raises(ValueError):
            output_nfa(pf, "both")


class TestOpaqueDfa:
    def test_accepts_ambiguous_and_rejects_revealed(self, opaque_dfa):
        assert opaque_dfa.accepts((START, SS(["s2", "s3"]), SS(["s5", "s6"]), END))
        assert not opaque_dfa.accepts((START, SS(["s2", "s3"]), SS(["s4"]), END))

    def test_trivial_secret_empty_language(self, model, secret_dfa):
        trivial = opaque_obs_dfa(model, dfa_over_model_labels("true", model))
        assert not trivial.accepting

    def test_complete_and_minimal(self, opaque_dfa):
        assert opaque_dfa.is_complete()

    def test_matches_brute_force_to_depth_five(self, model, secret_dfa, opaque_dfa):
        buckets = observation_buckets(model, secret_dfa, max_actions=5)
        for word, (sat, vio) in buckets.items():
            assert opaque_dfa.accepts(word) == (sat and vio)

    def test_partition_of_realizable_words(self, model, secret_dfa, pf):
        # every realizable observation is produced by a satisfying or a
        # violating play, and the two output languages cover all of them
        sat_nfa = output_nfa(pf, "satisfying")
        vio_nfa = output_nfa(pf, "violating")
        buckets = observation_buckets(model, secret_dfa, max_actions=5)
        for word in buckets:
            assert sat_nfa.accepts(word) or vio_nfa.accepts(word)

    def test_both_construction_routes_agree(self, model, opaque_dfa, pf):
        # determinizing each output NFA before intersecting must give the
        # language of the default intersect-then-determinize route
        other = product_dfa(
            determinize(output_nfa(pf, "satisfying")),
            determinize(output_nfa(pf, "violating")),
        )
        letters = model.observation_alphabet()
        for n in range(5):
            for word in product(letters, repeat=n):
                assert opaque_dfa.accepts(word) == other.accepts(word)

    # "true" is never violated, so its opaque language is empty
    @pytest.mark.parametrize("secret_text", ["F s6", "true"])
    def test_observer_matches_paper_route(self, model, secret_text):
        secret = dfa_over_model_labels(secret_text, model)
        assert_same_dfa(opaque_obs_dfa(model, secret), paper_route(model, secret))

    @pytest.mark.parametrize("seed", range(20))
    def test_observer_matches_paper_route_on_random_models(self, seed):
        # the criterion-5 systems and secrets
        m = random_model(seed, max_states=6, max_actions=2)
        names = [m.states[i] for i in m.interior_state_indices()]
        secret = dfa_over_model_labels(random_secret_text(seed, names), m)
        assert_same_dfa(opaque_obs_dfa(m, secret), paper_route(m, secret))

    def test_classified_plays_partition(self, model, secret_dfa, opaque_dfa):
        plays = list(enumerate_plays(model, max_actions=4))
        opaque_count = sum(
            1 for p in plays if opaque_dfa.accepts(obs_of_play(model, p))
        )
        transparent_count = sum(
            1 for p in plays if not opaque_dfa.accepts(obs_of_play(model, p))
        )
        assert opaque_count + transparent_count == len(plays)
        assert opaque_count > 0 and transparent_count > 0


class TestDotExport:
    def test_fst_dot_mentions_output_symbols(self, fst):
        from opaque_planner.dot import fst_to_dot

        text = fst_to_dot(fst)
        assert text.startswith("digraph")
        assert "[s2,s3]" in text

    def test_dfa_dot_has_accepting_shape(self, opaque_dfa):
        from opaque_planner.dot import dfa_to_dot

        assert "doublecircle" in dfa_to_dot(opaque_dfa)

    def test_product_fst_dot(self, pf):
        from opaque_planner.dot import product_fst_to_dot

        text = product_fst_to_dot(pf)
        assert "digraph" in text and "s_bot" in text
