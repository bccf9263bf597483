from collections import deque
from dataclasses import fields
from itertools import product

import pytest

import numpy as np

from opaque_planner.automata import (
    IncompleteDfaError,
    Nfa,
    determinize,
    intersect,
    minimize,
    sort_alphabet,
    step_table,
)
from opaque_planner.dot import fst_to_dot
from opaque_planner.ltlf import dfa_over_model_labels, evaluate, parse_ltlf
from opaque_planner.model import (
    END,
    START,
    ModelError,
    ObsSymbol,
    Play,
    assemble,
    build_model,
    obs_of_play,
    validate,
)
from opaque_planner.planner import product_mdp
from opaque_planner.scenarios import gridworld
from opaque_planner.simulate import enumerate_plays, observation_buckets
from opaque_planner.transducer import (
    _erase_inputs,
    _observer,
    build_obs_fst,
    opaque_obs_dfa,
    opaque_pipeline,
    output_nfa,
    product_fst,
)

from helpers import (
    GRIDWORLD_BUILD_SECRETS,
    dfa_from_moves,
    fst_move,
    play_inputs,
    product_fst_move,
    product_index,
    product_states,
    random_model,
    random_secret_text,
    reference_intersect,
    reference_subset_construction,
    run_on_play,
    run_product_fst,
    same_dfa,
    same_nfa,
)

SS = ObsSymbol.state_set


def play(text):
    return Play.from_linear(text.split())


def product_dfa(a, b):
    """Intersection of two complete DFAs over one alphabet, reachable
    pairs only: the reference for determinizing before intersecting."""
    assert set(a.alphabet) == set(b.alphabet)
    step_table(a, a.alphabet, "first")  # raises unless complete
    step_table(b, b.alphabet, "second")
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
    return dfa_from_moves(
        alphabet,
        transitions,
        0,
        (i for (p, q), i in order.items() if p in a.accepting and q in b.accepting),
        tuple(str(pair) for pair in order),
    )


def paper_route(model, secret):
    """The paper's construction: intersect the satisfying and violating
    output NFAs, determinize, minimize.  The reference for the observer."""
    pf = product_fst(model, secret)
    joint = intersect(output_nfa(pf, "satisfying"), output_nfa(pf, "violating"))
    return minimize(determinize(joint))


def assert_same_dfa(got, want):
    assert got.alphabet == want.alphabet
    assert got.initial == want.initial
    assert got.transitions == want.transitions
    assert got.accepting == want.accepting


@pytest.fixture(scope="module")
def pf(model, secret_dfa):
    return product_fst(model, secret_dfa)


class TestObsFst:
    def test_the_transducer_is_the_model(self, model):
        assert build_obs_fst(model) is model

    def test_interior_transition(self, model):
        s1, a, s2 = model.state_index["s1"], model.action_index["a"], model.state_index["s2"]
        assert fst_move(model, s1, (s1, a, s2)) == (s2, SS(["s2", "s3"]))

    def test_terminating_transition(self, model):
        s4, bot = model.state_index["s4"], model.bot
        assert fst_move(model, s4, (s4, model.a_bot, bot)) == (bot, END)

    def test_initiating_transition(self, model):
        s1 = model.state_index["s1"]
        assert fst_move(model, model.top, (model.top, model.a_top, s1)) == (s1, START)

    def test_no_transitions_out_of_terminating_state(self, model):
        # the terminating state owns no rows, and the rendering draws no
        # edge out of it
        bot = model.bot
        assert model.enabled(bot) == ()
        bot_name = f'  "{model.states[bot]}" -> '
        assert not [line for line in fst_to_dot(model).splitlines() if line.startswith(bot_name)]

    def test_one_transition_per_positive_probability_edge(self, model):
        moves = [
            (s, a, t)
            for (s, a), dist in model.transitions.items()
            for t, _p in dist
        ]
        for s, a, t in moves:
            assert fst_move(model, s, (s, a, t))[0] == t
        assert fst_to_dot(model).count(" -> ") == 1 + len(moves)  # and __init's edge

    def test_agrees_with_observation_map_on_all_short_plays(self, model):
        for p in enumerate_plays(model, max_actions=5):
            assert run_on_play(model, p) == obs_of_play(model, p)

    def test_single_state_model(self):
        m = build_model(
            states=["only"],
            actions=["loop"],
            transitions={("only", "loop"): {"only": 1.0}},
            initial={"only": 1.0},
            labels={"only": {"only"}},
            observations={("only", "loop", "only"): ["only"]},
        )
        word = run_on_play(m, play("s_top a_top only a_bot s_bot"))
        assert word == (START, END)


class TestProductFst:
    def test_initial_transition(self, model, pf, secret_dfa):
        s1 = model.state_index["s1"]
        letter = (model.top, model.a_top, s1)
        target, out = product_fst_move(pf, pf.initial, letter)
        assert product_states(pf)[target] == (s1, secret_dfa.initial)
        assert out == START

    def test_secret_advance_on_entering_s6(self, model, pf, secret_dfa):
        s3, b, s6 = model.state_index["s3"], model.action_index["b"], model.state_index["s6"]
        src = product_index(pf)[(s3, secret_dfa.initial)]
        target, out = product_fst_move(pf, src, (s3, b, s6))
        entered = product_states(pf)[target]
        assert entered[0] == s6
        assert entered[1] in secret_dfa.accepting
        assert out == SS(["s5", "s6"])

    def test_termination_freezes_secret_state(self, model, pf, secret_dfa):
        s6 = model.state_index["s6"]
        accepting_q = next(iter(secret_dfa.accepting))
        src = product_index(pf)[(s6, accepting_q)]
        target, out = product_fst_move(pf, src, (s6, model.a_bot, model.bot))
        assert product_states(pf)[target] == (model.bot, accepting_q)
        assert out == END
        assert target in pf.accept_sat

    def test_accepting_sets_partition_terminal_pairs(self, model, pf):
        terminal = {
            i for i, (s, _q) in enumerate(product_states(pf)) if s == model.bot
        }
        assert pf.accept_sat | pf.accept_vio == terminal
        assert not (pf.accept_sat & pf.accept_vio)

    def test_trivial_secret_has_no_violating_terminals(self, model):
        trivial = dfa_over_model_labels("true", model)
        product = product_fst(model, trivial)
        assert product.accept_vio == frozenset()

    def test_incomplete_secret_rejected(self, model, secret_dfa):
        pruned = dfa_from_moves(
            secret_dfa.alphabet,
            {k: v for k, v in secret_dfa.transitions.items() if k[1] != frozenset({"s1"})},
            secret_dfa.initial,
            secret_dfa.accepting,
            secret_dfa.state_names,
        )
        with pytest.raises(IncompleteDfaError):
            product_fst(model, pruned)

    def test_run_tracks_secret_dfa(self, model, pf, secret_dfa):
        # the product run ends accepting exactly when the labeled play
        # satisfies the secret
        secret = parse_ltlf("F s6")
        for p in enumerate_plays(model, max_actions=4):
            final = run_product_fst(pf, play_inputs(model, p))
            sat = evaluate(secret, [frozenset({s}) for s in p.interior_states])
            assert (final in pf.accept_sat) == sat
            assert (final in pf.accept_vio) == (not sat)


# ---------------------------------------------------------------------------
# the shared level search against the dict search it replaced


def reference_product_fst(model, secret):
    """The reachable product transducer as a FIFO search over dicts: the
    pairs in order of discovery, the index of each pair, the transitions
    and the two accepting sets.  The observation transducer's moves come
    from ``Model.transitions`` and ``Model.obs``."""
    by_source = {}
    for (s, a), dist in model.transitions.items():
        if s != model.bot:
            for t, _p in dist:
                by_source.setdefault(s, []).append(((s, a, t), t, model.obs(s, a, t)))
    for rows in by_source.values():
        rows.sort()

    start = (model.top, secret.initial)
    index = {start: 0}
    pairs = [start]
    transitions = {}
    frontier = deque([start])
    while frontier:
        pair = frontier.popleft()
        s, q = pair
        if s == model.bot:
            continue  # terminating pairs are sinks
        for letter, t, out in by_source.get(s, ()):
            _s, a, _t = letter
            nxt = (t, q if a == model.a_bot else secret.step(q, model.label_of(t)))
            if nxt not in index:
                index[nxt] = len(pairs)
                pairs.append(nxt)
                frontier.append(nxt)
            transitions[(index[pair], letter)] = (index[nxt], out)

    terminal = [(i, q) for i, (s, q) in enumerate(pairs) if s == model.bot]
    accept_sat = frozenset(i for i, q in terminal if q in secret.accepting)
    accept_vio = frozenset(i for i, q in terminal if q not in secret.accepting)
    return tuple(pairs), index, transitions, accept_sat, accept_vio


def product_fst_moves(pf):
    """(state, (s, a, t)) -> (successor, output), one per entry of the
    product transducer, read from its entry arrays."""
    model, e = pf.model, pf.entry_model
    s, a, t, o = (
        x[e].tolist()
        for x in (model.entry_state, model.entry_action, model.entry_succ, model.entry_obs)
    )
    inputs = list(zip(pf.entry_state.tolist(), zip(s, a, t)))
    moves = dict(zip(inputs, zip(pf.entry_succ.tolist(), (model.symbols[i] for i in o))))
    assert len(moves) == len(inputs)  # no two entries read one letter from one state
    return moves


def assert_matches_reference_fst(model, secret):
    pf = product_fst(model, secret)
    pairs, index, transitions, accept_sat, accept_vio = reference_product_fst(model, secret)
    assert product_states(pf) == pairs
    assert product_index(pf) == index
    assert product_fst_moves(pf) == transitions
    assert pf.accept_sat == accept_sat
    assert pf.accept_vio == accept_vio


@pytest.fixture(scope="module")
def grid():
    return gridworld()


class TestAgainstReferenceProductFst:
    @pytest.mark.parametrize("secret_text", ["F s6", "true"])
    def test_running_example(self, model, secret_text):
        assert_matches_reference_fst(model, dfa_over_model_labels(secret_text, model))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models(self, seed):
        m = random_model(seed)
        names = [m.states[i] for i in m.interior_state_indices()]
        assert_matches_reference_fst(m, dfa_over_model_labels(random_secret_text(seed, names), m))

    @pytest.mark.parametrize("secret_text", GRIDWORLD_BUILD_SECRETS)
    def test_gridworld_build_secrets(self, grid, secret_text):
        assert_matches_reference_fst(grid, dfa_over_model_labels(secret_text, grid))

    def test_views_are_read_only(self, pf):
        arrays = [f.name for f in fields(pf) if isinstance(getattr(pf, f.name), np.ndarray)]
        assert arrays == [
            "row_ptr", "row_action", "entry_ptr", "entry_succ", "components", "entry_model"
        ]
        for name in arrays:
            with pytest.raises(ValueError):
                getattr(pf, name)[0] = 0


def _unobserved_loop():
    """x -go-> y, then y -go-> y with no observation."""
    return build_model(
        states=["x", "y"],
        actions=["go"],
        transitions={("x", "go"): {"y": 1.0}, ("y", "go"): {"y": 1.0}},
        initial={"x": 1.0},
        labels={"x": {"x"}, "y": {"y"}},
        observations={("x", "go", "y"): ["y"]},
    )


def _into_frame():
    """x -go-> s_bot: an interior action into a frame state."""
    return assemble(
        ["s_top", "x", "s_bot"],
        ["a_top", "go", "a_bot"],
        {
            ("s_top", "a_top"): {"x": 1.0},
            ("x", "go"): {"s_bot": 1.0},
            ("x", "a_bot"): {"s_bot": 1.0},
            ("s_bot", "go"): {"s_bot": 1.0},
        },
        {"x": ["x"]},
        {("x", "go", "s_bot"): ["x"]},
    )


class TestUndefinedTransitions:
    @pytest.mark.parametrize(
        "build, message",
        [
            (_unobserved_loop, r"no observation for transition \(y, go, y\)"),
            (_into_frame, r"transition \(x, go, s_bot\) enters the frame state s_bot"),
        ],
        ids=["missing-observation", "into-frame-state"],
    )
    def test_both_products_name_the_transition(self, build, message):
        m = build()
        letters = m.observation_alphabet()
        sink = dfa_from_moves(letters, {(0, letter): 0 for letter in letters}, 0, (), ("q0",))
        truth = dfa_over_model_labels("true", m)
        with pytest.raises(ModelError, match=message):
            product_fst(m, truth)
        with pytest.raises(ModelError, match=message):
            product_mdp(m, truth, sink)

    def test_unreachable_missing_observation_is_never_emitted(self):
        # z is never entered, so its unobserved move emits nothing: the
        # pipeline builds, while validate and the transducer's rendering
        # report it
        m = build_model(
            states=["x", "z"],
            actions=["go"],
            transitions={("x", "go"): {"x": 1.0}, ("z", "go"): {"x": 1.0}},
            initial={"x": 1.0},
            labels={"x": {"x"}, "z": {"z"}},
            observations={("x", "go", "x"): ["x"]},
        )
        assert opaque_obs_dfa(m, dfa_over_model_labels("F x", m)).n_states > 0
        assert any("observation missing for (z, go, x)" in p for p in validate(m))
        with pytest.raises(ModelError, match=r"no observation for transition \(z, go, x\)"):
            fst_to_dot(build_obs_fst(m))


class TestOutputNfa:
    def test_both_nfas_accept_the_ambiguous_word(self, pf):
        word = (START, SS(["s2", "s3"]), SS(["s5", "s6"]), END)
        assert output_nfa(pf, "satisfying").accepts(word)
        assert output_nfa(pf, "violating").accepts(word)

    def test_satisfying_rejects_immediate_termination(self, pf):
        # terminating in s1 cannot satisfy the secret
        assert not output_nfa(pf, "satisfying").accepts((START, END))
        assert output_nfa(pf, "violating").accepts((START, END))

    def test_trivial_secret_violating_language_empty(self, model):
        trivial = dfa_over_model_labels("true", model)
        nfa = output_nfa(product_fst(model, trivial), "violating")
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
        step_table(opaque_dfa, opaque_dfa.alphabet, "opaque")  # raises unless complete

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

    @pytest.mark.parametrize("seed", range(40))
    def test_observer_matches_paper_route_on_random_models(self, seed):
        # the criterion-5 systems and secrets, and 20 more
        m = random_model(seed, max_states=6, max_actions=2)
        names = [m.states[i] for i in m.interior_state_indices()]
        secret = dfa_over_model_labels(random_secret_text(seed, names), m)
        assert_same_dfa(opaque_obs_dfa(m, secret), paper_route(m, secret))

    @pytest.mark.parametrize("secret_text", GRIDWORLD_BUILD_SECRETS)
    def test_observer_matches_paper_route_on_gridworld(self, grid, secret_text):
        secret = dfa_over_model_labels(secret_text, grid)
        assert_same_dfa(opaque_obs_dfa(grid, secret), paper_route(grid, secret))

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


# ---------------------------------------------------------------------------
# the observer's array subset construction against the dict loop it replaced


def observer_nfa(pf):
    """The observer's NFA, accepting in both accepting sets, and the
    transducer state of each of its states."""
    kept, src, letter, dst, initials, accepting = _erase_inputs(pf, pf.accept_sat | pf.accept_vio)
    nfa = Nfa(
        alphabet=pf.model.observation_alphabet(),
        src=src,
        letter=letter,
        dst=dst,
        initials=frozenset(initials.tolist()),
        accepting=frozenset(accepting.tolist()),
        state_names=tuple(pf.state_name(i) for i in kept.tolist()),
    )
    return nfa, kept.tolist()


def assert_observer_matches_reference(model, secret):
    """The observer's table, numbering, accepting set and subsets equal
    the dict FIFO loop's; returns the subset count."""
    pf = product_fst(model, secret)
    nfa, kept = observer_nfa(pf)
    sat = frozenset(i for i, p in enumerate(kept) if p in pf.accept_sat)
    vio = frozenset(i for i, p in enumerate(kept) if p in pf.accept_vio)
    want = reference_subset_construction(
        nfa, lambda subset: not sat.isdisjoint(subset) and not vio.isdisjoint(subset)
    )
    _kept, table, accepts, member_ptr, members = _observer(pf)
    letters = nfa.alphabet
    assert table.shape == (want.n_states, len(letters))
    assert {
        (q, letters[i]): t for q, row in enumerate(table.tolist()) for i, t in enumerate(row)
    } == want.transitions
    assert frozenset(np.flatnonzero(accepts).tolist()) == want.accepting
    flat, ptr = members.tolist(), member_ptr.tolist()
    names = tuple(
        "{" + ",".join(nfa.state_names[i] for i in flat[a:b]) + "}" for a, b in zip(ptr, ptr[1:])
    )
    assert names == want.state_names
    return len(table)


def checked_intersection(model, secret_text):
    """The paper route's intersection, checked against the dict FIFO
    search's."""
    pf = product_fst(model, dfa_over_model_labels(secret_text, model))
    sat, vio = output_nfa(pf, "satisfying"), output_nfa(pf, "violating")
    joint = intersect(sat, vio)
    assert same_nfa(joint, reference_intersect(sat, vio))
    return joint


def assert_determinized_as_reference(nfa):
    want = reference_subset_construction(nfa, lambda s: not nfa.accepting.isdisjoint(s))
    assert same_dfa(determinize(nfa), want)


class TestAgainstReferenceIntersect:
    """The paper route against the dict searches: the intersection on
    every input, its determinization where the dict subset construction
    is quick (the observer's is checked on the gridworld)."""

    @pytest.mark.parametrize("secret_text", ["F s6", "true"])
    def test_running_example(self, model, secret_text):
        assert_determinized_as_reference(checked_intersection(model, secret_text))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models(self, seed):
        m = random_model(seed)
        names = [m.states[i] for i in m.interior_state_indices()]
        assert_determinized_as_reference(checked_intersection(m, random_secret_text(seed, names)))

    @pytest.mark.parametrize("secret_text", GRIDWORLD_BUILD_SECRETS)
    def test_gridworld_build_secrets(self, grid, secret_text):
        checked_intersection(grid, secret_text)


class TestAgainstReferenceObserver:
    @pytest.mark.parametrize("secret_text", ["F s6", "true"])
    def test_running_example(self, model, secret_text):
        assert_observer_matches_reference(model, dfa_over_model_labels(secret_text, model))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models(self, seed):
        m = random_model(seed)
        names = [m.states[i] for i in m.interior_state_indices()]
        assert_observer_matches_reference(
            m, dfa_over_model_labels(random_secret_text(seed, names), m)
        )

    @pytest.mark.parametrize("secret_text", GRIDWORLD_BUILD_SECRETS)
    def test_gridworld_build_secrets(self, grid, secret_text):
        secret = dfa_over_model_labels(secret_text, grid)
        n = assert_observer_matches_reference(grid, secret)
        assert opaque_pipeline(grid, secret).dfa_states == n
        if secret_text == "F B & F A":
            assert n == 1666


class TestDotExport:
    def test_fst_dot_mentions_output_symbols(self, model):
        text = fst_to_dot(model)
        assert text.startswith("digraph")
        assert "[s2,s3]" in text

    def test_dfa_dot_has_accepting_shape(self, opaque_dfa):
        from opaque_planner.dot import dfa_to_dot

        assert "doublecircle" in dfa_to_dot(opaque_dfa)

    def test_product_fst_dot(self, pf):
        from opaque_planner.dot import product_fst_to_dot

        text = product_fst_to_dot(pf)
        assert "digraph" in text and "s_bot" in text
