import copy
import inspect
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opaque_planner import model as model_module
from opaque_planner.automata import dfa_from_dict, dfa_to_dict
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.model import (
    END,
    InvalidPlayError,
    ModelError,
    ObsSymbol,
    Play,
    START,
    _id_table,
    _number_level,
    _unique,
    as_probability,
    assemble,
    build_model,
    dumps_model,
    load_model,
    model_from_dict,
    model_to_dict,
    obs_of_play,
    validate,
)
from opaque_planner.scenarios import gridworld, running_example
from opaque_planner.transducer import opaque_obs_dfa

from helpers import label_of_play, random_model, random_walk, reference_number_level


def play(text):
    return Play.from_linear(text.split())


class TestObsSymbol:
    def test_members_canonically_sorted(self):
        a = ObsSymbol.state_set(["s3", "s2", "s2"])
        b = ObsSymbol.state_set(("s2", "s3"))
        assert a == b
        assert a.members == ("s2", "s3")
        assert hash(a) == hash(b)

    def test_markers_distinct(self):
        assert START != END
        assert START.kind == "start" and not START.members

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            ObsSymbol.state_set([])

    def test_str(self):
        assert str(ObsSymbol.state_set(["s5", "s6"])) == "[s5,s6]"

    def test_pickle_rehashes_under_another_hash_seed(self, tmp_path):
        # a symbol pickled in one process unpickles, in a process whose
        # string hashes differ, as that process's own canonical object
        blob = tmp_path / "symbols.pickle"
        symbols = "[ObsSymbol.state_set(['s2', 's3']), START, END]"
        head = "import pickle, sys\nfrom opaque_planner.model import ObsSymbol, START, END\n"
        dump = head + f"open(sys.argv[1], 'wb').write(pickle.dumps({symbols}))\n"
        load = head + (
            "got = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            f"fresh = {symbols}\n"
            "assert all(g is f for g, f in zip(got, fresh, strict=True))\n"
            "assert {g: i for i, g in enumerate(got)}[fresh[0]] == 0\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed, script in (("1", dump), ("2", load)):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            subprocess.run(
                [sys.executable, "-c", script, str(blob)], env=env, check=True, timeout=60
            )


class TestInterning:
    """One object per distinct symbol: equal means identical."""

    def test_one_object_per_symbol(self):
        assert ObsSymbol.state_set(["b", "a"]) is ObsSymbol("set", ("a", "b"))
        assert ObsSymbol(kind="end") is END

    def test_deepcopy_returns_the_symbol(self):
        sym = ObsSymbol.state_set(["s5", "s6"])
        assert copy.deepcopy(sym) is sym
        assert copy.deepcopy([sym, START])[1] is START

    def test_reloads_are_canonical(self):
        model = running_example()
        back = model_from_dict(json.loads(dumps_model(model)))
        assert all(a is b for a, b in zip(back.symbols, model.symbols, strict=True))
        opaque = opaque_obs_dfa(model, dfa_over_model_labels("F s6", model))
        reloaded = dfa_from_dict(dfa_to_dict(opaque, "observations"))
        assert all(a is b for a, b in zip(reloaded.alphabet, opaque.alphabet, strict=True))

    def test_concurrent_constructors_agree(self):
        names = [f"race{i}" for i in range(3000)]
        got = [[] for _ in range(8)]

        def build(out):
            out.extend(ObsSymbol.state_set([name, "shared"]) for name in names)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(all(a is b for a, b in zip(out, got[0], strict=True)) for out in got[1:])

    @pytest.mark.parametrize(
        "args", [("set", ()), ("bogus",), ("start", ("s1",)), (["set"], ("s1",))]
    )
    def test_rejected_construction_leaves_no_entry(self, args):
        before = dict(model_module._SYMBOLS)
        with pytest.raises(ValueError):
            ObsSymbol(*args)
        assert model_module._SYMBOLS == before

    @pytest.mark.parametrize("name", ["kind", "members", "sort_key", "extra"])
    def test_immutable(self, name):
        sym = ObsSymbol.state_set(["s1"])
        with pytest.raises(AttributeError):
            setattr(sym, name, ("s2",))
        with pytest.raises(AttributeError):
            delattr(sym, name)
        assert sym.members == ("s1",) and sym.sort_key == (1, ("s1",))


def handed_to_assemble(build, monkeypatch) -> dict:
    """The name-keyed rows that ``build()`` hands to ``assemble``, by
    parameter name."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(dict(inspect.signature(assemble).bind(*args, **kwargs).arguments))
        return assemble(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(model_module, "assemble", spy)
        build()
    (rows,) = calls
    return rows


@pytest.fixture
def rows(monkeypatch):
    """The running example's rows as ``build_model`` hands them to
    ``assemble``, fresh for each test to break."""
    return handed_to_assemble(running_example, monkeypatch)


def assert_rows_match(model, states, actions, transitions, labels, observations, atomic_props):
    """Each of the model's rows, in order, has the action, successors,
    probabilities and observation symbols of the name-keyed row it was
    given: rows by (state, action), exact zeros dropped, successors in
    increasing order, START on ``a_top`` rows and END on ``a_bot`` rows."""
    sidx = {s: i for i, s in enumerate(states)}
    aidx = {a: i for i, a in enumerate(actions)}
    a_bot = len(actions) - 1
    want = []
    for (s, a), dist in sorted(transitions.items(), key=lambda kv: (sidx[kv[0][0]], aidx[kv[0][1]])):
        entries = []
        for t, p in sorted(dist.items(), key=lambda kv: sidx[kv[0]]):
            if as_probability(p) == 0.0:
                continue
            if aidx[a] in (0, a_bot):
                symbol = START if aidx[a] == 0 else END
            else:
                symbol = ObsSymbol.state_set(observations[(s, a, t)])
            entries.append((sidx[t], as_probability(p), symbol))
        if entries:
            want.append((sidx[s], aidx[a], entries))
    got = []
    for s in range(model.n_states):
        for r in range(model.row_ptr[s], model.row_ptr[s + 1]):
            entries = [
                (
                    int(model.entry_succ[e]),
                    float(model.entry_prob[e]),
                    model.symbols[model.entry_obs[e]] if model.entry_obs[e] >= 0 else None,
                )
                for e in range(model.entry_ptr[r], model.entry_ptr[r + 1])
            ]
            got.append((s, int(model.row_action[r]), entries))
    assert got == want
    assert model.n_states == len(states) and model.states == tuple(states)


class TestValidate:
    def test_running_example_clean(self, model):
        assert validate(model) == []

    def test_bad_probability_mass(self, rows):
        rows["transitions"][("s1", "a")] = {"s2": 0.4, "s3": 0.5}
        report = validate(assemble(**rows))
        assert any("probability mass" in v and "s1" in v for v in report)

    def test_missing_terminating_action(self, rows):
        del rows["transitions"][("s5", "a_bot")]
        report = validate(assemble(**rows))
        assert any("terminating action missing" in v and "s5" in v for v in report)

    def test_observation_coverage(self, rows):
        partial = dict(rows["observations"])
        partial.pop(next(iter(partial)))
        rows["observations"] = partial
        assert any("observation missing" in v for v in validate(assemble(**rows)))

    def test_initiating_action_elsewhere(self, rows):
        rows["transitions"][("s2", "a_top")] = {"s3": 1.0}
        assert any("initiating action enabled at s2" in v for v in validate(assemble(**rows)))

    @pytest.mark.parametrize(
        "move",
        [
            ("s1", "a", "s4"),
            ("s_top", "a_top", "s1"),
            ("s1", "a_bot", "s_bot"),
            ("s_bot", "a", "s_bot"),
        ],
        ids=["absent", "initiating", "terminating", "self-loop"],
    )
    def test_observation_of_absent_transition_rejected(self, rows, move):
        # only the interior transitions carry an observation
        rows["observations"][move] = ["s4"]
        with pytest.raises(ModelError, match=re.escape(
            "observation given for absent transition (" + ", ".join(move) + ")"
        )):
            assemble(**rows)


def hand_framed(model) -> dict:
    """``model`` as an ``auto_frame: false`` document that lists every row
    of ``transitions`` and, as hand-framed files may, the terminating
    state's self-loops under the interior actions."""
    doc = {k: v for k, v in model_to_dict(model).items() if k != "initial"}
    rows = [
        {"from": model.states[s], "action": model.actions[a], "to": model.states[t], "prob": p}
        for (s, a), dist in model.transitions.items()
        for t, p in dist
    ]
    loops = [{"from": "s_bot", "action": a, "to": "s_bot", "prob": 1.0} for a in doc["actions"]]
    return {
        **doc,
        "auto_frame": False,
        "states": list(model.states),
        "actions": list(model.actions),
        "transitions": rows + loops,
    }


def retarget(doc: dict, move: tuple[str, str, str], to: str) -> None:
    """Send the transition ``move`` of ``doc``, and its observation, to
    ``to`` instead."""
    for row in doc["transitions"] + doc["observations"]:
        if (row["from"], row["action"], row["to"]) == move:
            row["to"] = to


class TestTerminatingState:
    """The terminating state is absorbing and owns no rows."""

    @pytest.mark.parametrize("build", [running_example, gridworld], ids=["running-example", "gridworld"])
    def test_hand_framed_self_loops_dropped(self, build):
        model = build()
        assert model.enabled(model.bot) == ()
        doc = hand_framed(model)
        last = {"from": "s_bot", "action": doc["actions"][-2], "to": "s_bot", "prob": 1.0}
        assert doc["transitions"][-1] == last
        copy = model_from_dict(doc)
        for name in ("row_ptr", "row_action", "entry_ptr", "entry_succ", "entry_prob", "entry_obs"):
            assert np.array_equal(getattr(copy, name), getattr(model, name)), name
        assert copy.symbols == model.symbols
        assert validate(copy) == []

    @pytest.mark.parametrize(
        "move",
        [("s_bot", "a", "s4"), ("s_bot", "a_bot", "s_bot"), ("s_bot", "a_top", "s1")],
        ids=["interior", "terminating", "initiating"],
    )
    def test_move_out_rejected(self, model, move):
        doc = hand_framed(model)
        doc["transitions"].append({"from": move[0], "action": move[1], "to": move[2], "prob": 1.0})
        with pytest.raises(ModelError, match=re.escape(f"move ({', '.join(move)}) out of")):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda doc: doc["transitions"].append(
                    {"from": "s_top", "action": "a", "to": "s1", "prob": 1.0}
                ),
                "action a enabled at the initiating state",
            ),
            (
                lambda doc: doc.update(
                    transitions=[r for r in doc["transitions"] if r["action"] != "a_top"]
                ),
                "initiating action missing: no initial distribution",
            ),
            (
                lambda doc: doc["transitions"].append(
                    {"from": "s_top", "action": "a_top", "to": "s_bot", "prob": 0.5}
                ),
                "initial distribution places mass 0.5 on s_bot",
            ),
            (
                lambda doc: retarget(doc, ("s3", "a_bot", "s_bot"), "s4"),
                "terminating action at s3 is not a sure move to s_bot",
            ),
            (
                lambda doc: retarget(doc, ("s4", "a", "s4"), "s_top"),
                "transition into the initiating state: (s4, a)",
            ),
            (
                lambda doc: retarget(doc, ("s4", "a", "s4"), "s_bot"),
                "interior action a at s4 moves to s_bot",
            ),
            (
                lambda doc: doc["atomic_props"].remove("s7"),
                "label of s7 uses undeclared propositions ['s7']",
            ),
            (
                lambda doc: doc["observations"][0].update(obs=["s9"]),
                "observation symbol [s9] names unknown state 's9'",
            ),
        ],
        ids=[
            "initiating-state-action",
            "initiating-action-missing",
            "initial-mass-on-frame",
            "terminating-action-unsure",
            "into-initiating-state",
            "interior-action-to-terminating-state",
            "undeclared-proposition",
            "unknown-member",
        ],
    )
    def test_validate_message(self, model, corrupt, message):
        doc = hand_framed(model)
        corrupt(doc)
        assert message in validate(model_from_dict(doc))


class TestCsr:
    def test_reproduces_transitions(self, model, rows):
        assert_rows_match(model, **rows)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models(self, seed, monkeypatch):
        built = []
        rows = handed_to_assemble(lambda: built.append(random_model(seed)), monkeypatch)
        assert_rows_match(built[0], **rows)
        assert built[0].enabled(built[0].bot) == ()

    def test_rows_out_of_order(self):
        # rows, successors and observations given in decreasing order, an
        # exact zero, a fraction string and a terminating-state self-loop,
        # which is dropped: the terminating state owns no rows
        rows = dict(
            states=["s_top", "x", "y", "s_bot"],
            actions=["a_top", "go", "a_bot"],
            transitions={
                ("s_bot", "go"): {"s_bot": 1.0},
                ("y", "a_bot"): {"s_bot": 1.0},
                ("y", "go"): {"y": 1.0},
                ("x", "a_bot"): {"s_bot": 1.0},
                ("x", "go"): {"y": "2/3", "s_bot": 0.0, "x": "1/3"},
                ("s_top", "a_top"): {"y": 0.0, "x": 1.0},
            },
            labels={"y": ["y"], "x": ["x"]},
            observations={
                ("y", "go", "y"): ["y"],
                ("x", "go", "y"): ["y", "x"],
                ("x", "go", "x"): ["x"],
            },
            atomic_props=None,
        )
        model = assemble(**rows)
        del rows["transitions"][("s_bot", "go")]
        assert_rows_match(model, **rows)
        assert model.prob(1, 1, 1) == 1 / 3
        assert validate(model) == []

    def test_labels(self, model):
        assert model.state_label[model.top] == model.state_label[model.bot] == -1
        for s in model.interior_state_indices():
            assert model.label_letters[model.state_label[s]] == model.label_of(s)


#: the codes a search level numbers, from a small range so that they
#: repeat and meet the codes already seen
CODES = st.lists(st.integers(0, 30), max_size=60)


def id_table(seen: np.ndarray, seen_id: np.ndarray, n_cells: int = 31) -> np.ndarray:
    """The id table of a search that has given the codes ``seen`` the ids
    ``seen_id``."""
    table = _id_table(n_cells, ValueError)
    table[seen] = seen_id + 1
    return table


def assert_numbers_as_reference(code, table, seen, seen_id) -> tuple:
    """Number ``code`` on ``table`` and check the ids, the next level, the
    id count and the table against ``reference_number_level`` on the
    sorted ``seen`` codes and their ids ``seen_id``; returns the ids,
    the next level, and the reference's ``seen`` and ``seen_id`` after
    the level."""
    ids, level, n_ids = _number_level(code, table, len(seen))
    want_ids, want_level, seen, seen_id = reference_number_level(code, seen, seen_id)
    for got, want in ((ids, want_ids), (level, want_level)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert n_ids == len(seen)
    assert np.array_equal(table, id_table(seen, seen_id, len(table)))
    return ids, level, seen, seen_id


class TestNumberLevel:
    @given(CODES)
    @example([])
    @example([7] * 8)
    def test_unique_is_np_unique(self, code):
        code = np.array(code, dtype=np.int64)
        for got, want in zip(_unique(code), np.unique(code, return_index=True, return_inverse=True)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    @given(st.sets(st.integers(0, 30), min_size=1), st.randoms(use_true_random=False), CODES)
    @example({3, 9}, random.Random(0), [])  # empty level
    @example({3}, random.Random(0), [7] * 8)  # one new code, repeated
    @example({2, 4, 9, 11}, random.Random(0), [4, 2, 4, 9, 2])  # all seen
    @example({3, 5}, random.Random(0), [8, 1, 8, 6])  # all new
    def test_matches_np_unique_numbering(self, seen, rng, code):
        seen = np.array(sorted(seen), dtype=np.int64)
        seen_id = np.arange(len(seen))
        rng.shuffle(seen_id)
        code = np.array(code, dtype=np.int64)
        ids, level = assert_numbers_as_reference(code, id_table(seen, seen_id), seen, seen_id)[:2]
        # the new codes get the next ids, by first occurrence
        new = [c for c in dict.fromkeys(code.tolist()) if c not in seen]
        assert level.tolist() == new
        assert {c: i for c, i in zip(code.tolist(), ids.tolist()) if c in new} == {
            c: len(seen) + k for k, c in enumerate(new)
        }

    @given(st.integers(0, 30), st.lists(CODES, max_size=4))
    def test_ids_kept_across_levels(self, start, levels):
        # a search numbers its start code, then level after level on one table
        table = _id_table(31, ValueError)
        _, level, n_ids = _number_level(np.array([start]), table, 0)
        assert level.tolist() == [start] and n_ids == 1
        seen, seen_id = level, np.array([0])
        for code in levels:
            code = np.array(code, dtype=np.int64)
            _, _, seen, seen_id = assert_numbers_as_reference(code, table, seen, seen_id)

    def test_codes_at_top_of_code_space(self):
        n = 2**24  # 64 MB of address space, two pages of it touched
        table = id_table(np.array([0, n - 1]), np.array([1, 0]), n)
        code = np.array([n - 2, n - 1, n - 3, n - 2, 0, n - 3])
        assert_numbers_as_reference(code, table, np.array([0, n - 1]), np.array([1, 0]))
        assert table[n - 3 :].tolist() == [4, 3, 1]

    def test_empty_level(self):
        table = id_table(np.array([4, 7]), np.array([0, 1]))
        ids, level, n_ids = _number_level(np.array([], dtype=np.int64), table, 2)
        assert ids.dtype == level.dtype == np.int64
        assert ids.size == level.size == 0 and n_ids == 2
        assert np.array_equal(table, id_table(np.array([4, 7]), np.array([0, 1])))

    def test_numbering_calls_no_sort(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the numbering sorted")

        for name in ("argsort", "sort", "lexsort", "searchsorted", "unique"):
            monkeypatch.setattr(np, name, refuse)
        table = id_table(np.array([3, 5]), np.array([0, 1]))
        ids, level, n_ids = _number_level(np.array([8, 1, 5, 8, 6, 3, 1]), table, 2)
        assert ids.tolist() == [2, 3, 1, 2, 4, 0, 3]
        assert level.tolist() == [8, 1, 6] and n_ids == 5

    @pytest.mark.parametrize("n_cells, bound", [(2**63 + 1, "int64"), (2**31, "int32")])
    def test_id_table_bounds(self, n_cells, bound):
        with pytest.raises(ModelError, match=bound):
            _id_table(n_cells, ModelError)


class TestPlays:
    def test_label_word(self, model):
        word = label_of_play(model, play("s_top a_top s1 a s3 b s6 a_bot s_bot"))
        assert word == (START, frozenset({"s1"}), frozenset({"s3"}), frozenset({"s6"}), END)

    def test_shortest_play_label(self, model):
        word = label_of_play(model, play("s_top a_top s1 a_bot s_bot"))
        assert word == (START, frozenset({"s1"}), END)

    def test_obs_word_single_step(self, model):
        word = obs_of_play(model, play("s_top a_top s1 a s2 a_bot s_bot"))
        assert word == (START, ObsSymbol.state_set(["s2", "s3"]), END)

    def test_obs_word_two_steps(self, model):
        word = obs_of_play(model, play("s_top a_top s1 b s3 b s6 a_bot s_bot"))
        assert word == (
            START,
            ObsSymbol.state_set(["s2", "s3"]),
            ObsSymbol.state_set(["s5", "s6"]),
            END,
        )

    def test_observation_equivalent_branches(self, model):
        via_s5 = obs_of_play(model, play("s_top a_top s1 b s3 a s5 a_bot s_bot"))
        via_s6 = obs_of_play(model, play("s_top a_top s1 b s3 b s6 a_bot s_bot"))
        assert via_s5 == via_s6

    def test_invalid_transition_named(self, model):
        with pytest.raises(InvalidPlayError, match=r"transition #1 \(s1, a, s4\)"):
            obs_of_play(model, play("s_top a_top s1 a s4 a_bot s_bot"))

    def test_must_be_framed(self, model):
        with pytest.raises(InvalidPlayError):
            obs_of_play(model, play("s1 a s2 a_bot s_bot"))

    def test_obs_length_matches_action_count(self, model):
        p = play("s_top a_top s1 a s3 a s7 a s6 a_bot s_bot")
        word = obs_of_play(model, p)
        assert len(word) == len(p.actions)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 6))
    def test_prefix_property(self, seed, cut):
        import numpy as np

        model = running_example()
        rng = np.random.default_rng(seed)
        p = random_walk(model, rng, max_interior=8)
        word = obs_of_play(model, p)
        keep = min(cut, len(p.actions) - 2)
        shorter = Play(
            p.states[: keep + 2] + (p.states[-1],),
            p.actions[: keep + 1] + (p.actions[-1],),
        )
        assert obs_of_play(model, shorter)[:-1] == word[: keep + 1]


class TestConstruction:
    def test_reserved_names_rejected(self):
        with pytest.raises(ModelError, match="reserved|duplicate"):
            build_model(
                states=["s_top"],
                actions=["a"],
                transitions={("s_top", "a"): {"s_top": 1.0}},
                initial={"s_top": 1.0},
                labels={},
                observations={},
            )

    def test_duplicate_states_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            build_model(
                states=["x", "x"],
                actions=["a"],
                transitions={},
                initial={"x": 1.0},
                labels={},
                observations={},
            )

    def test_empty_observation_rejected(self):
        with pytest.raises(ModelError, match=re.escape("observation of (x, go, x) names no state")):
            build_model(
                states=["x"],
                actions=["go"],
                transitions={("x", "go"): {"x": 1.0}},
                initial={"x": 1.0},
                labels={},
                observations={("x", "go", "x"): []},
            )

    def test_assemble_requires_frame(self):
        with pytest.raises(ModelError, match="framed"):
            assemble(["x", "s_bot"], ["a_top", "a_bot"], {}, {}, {})


class TestJson:
    def test_round_trip_canonical(self, model, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(dumps_model(model))
        once = path.read_text()
        again = dumps_model(load_model(path))
        assert once == again

    def test_reload_equivalent(self, model):
        copy = model_from_dict(model_to_dict(model))
        assert copy.states == model.states
        assert copy.actions == model.actions
        assert copy.transitions == model.transitions
        assert copy.observations == model.observations
        assert validate(copy) == []

    def test_fraction_probabilities(self, tmp_path):
        doc = {
            "auto_frame": True,
            "states": ["x", "y"],
            "actions": ["go"],
            "initial": {"x": "1/1"},
            "labels": {"x": ["x"], "y": ["y"]},
            "transitions": [
                {"from": "x", "action": "go", "to": "x", "prob": "1/3"},
                {"from": "x", "action": "go", "to": "y", "prob": "2/3"},
                {"from": "y", "action": "go", "to": "y", "prob": 1.0},
            ],
            "observations": [
                {"from": "x", "action": "go", "to": "x", "obs": ["x"]},
                {"from": "x", "action": "go", "to": "y", "obs": ["y"]},
                {"from": "y", "action": "go", "to": "y", "obs": ["y"]},
            ],
        }
        path = tmp_path / "frac.json"
        path.write_text(json.dumps(doc))
        m = load_model(path)
        assert validate(m) == []
        x, go = m.state_index["x"], m.action_index["go"]
        assert m.prob(x, go, x) == pytest.approx(1 / 3)

    @pytest.mark.parametrize(
        "prob",
        [-0.3, float("nan"), float("inf"), "-1/3", True],
        ids=["negative", "nan", "infinite", "negative-fraction", "boolean"],
    )
    def test_bad_probability_rejected(self, model, prob):
        doc = model_to_dict(model)
        row = doc["transitions"][0]
        doc["transitions"].append({**row, "to": doc["states"][-1], "prob": prob})
        with pytest.raises(ModelError, match="not a finite non-negative number"):
            model_from_dict(doc)

    def test_bad_initial_probability_rejected(self, model):
        doc = model_to_dict(model)
        doc["initial"] = {**doc["initial"], doc["states"][-1]: float("nan")}
        with pytest.raises(ModelError, match="not a finite non-negative number"):
            model_from_dict(doc)

    def test_zero_probability_dropped(self, model):
        doc = model_to_dict(model)
        row = next(r for r in doc["transitions"] if r["to"] != doc["states"][-1])
        doc["transitions"].append({**row, "to": doc["states"][-1], "prob": 0.0})
        copy = model_from_dict(doc)
        assert copy.transitions == model.transitions
        assert validate(copy) == []

    @pytest.mark.parametrize(
        "field, repeat",
        [("transitions", {"prob": 0.5}), ("observations", {"obs": ["s7"]})],
        ids=["transition", "observation"],
    )
    def test_repeated_row_rejected(self, model, field, repeat):
        # a second row for the move (s1, a, s2) would silently replace the first
        doc = model_to_dict(model)
        row = next(r for r in doc[field] if (r["from"], r["action"], r["to"]) == ("s1", "a", "s2"))
        doc[field].append({**row, **repeat})
        where = f"{field[:-1]} {len(doc[field]) - 1}"
        with pytest.raises(ModelError, match=re.escape(f"{where} repeats the move (s1, a, s2)")):
            model_from_dict(doc)

    @pytest.mark.parametrize("flag", ["false", "yes", 0, None])
    def test_auto_frame_must_be_a_boolean(self, model, flag):
        # read by truthiness, "false" loaded as auto-framed
        doc = {**model_to_dict(model), "auto_frame": flag}
        with pytest.raises(ModelError, match="auto_frame must be true or false"):
            model_from_dict(doc)

    def test_missing_field_reported(self):
        with pytest.raises(ModelError, match="missing field"):
            model_from_dict({"states": [], "actions": []})

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda doc: doc["observations"][0].update(obs=5), "observation 0's obs"),
            (lambda doc: doc.update(initial=[]), "initial must be an object"),
            (lambda doc: doc.update(states=3), "states must be a list"),
            (lambda doc: doc["transitions"][0].update({"from": ["s1"]}), "transition 0: from"),
        ],
        ids=["obs-number", "initial-list", "states-number", "from-list"],
    )
    def test_wrong_typed_field_reported(self, model, corrupt, message):
        doc = model_to_dict(model)
        corrupt(doc)
        with pytest.raises(ModelError, match=message):
            model_from_dict(doc)
