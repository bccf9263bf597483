import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaque_planner.model import (
    END,
    InvalidPlayError,
    ModelError,
    ObsSymbol,
    Play,
    START,
    assemble,
    build_model,
    dumps_model,
    label_of_play,
    load_model,
    model_from_dict,
    model_to_dict,
    obs_of_play,
    validate,
)
from opaque_planner.scenarios import running_example

from helpers import random_walk


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
        # the hash is computed once, so a pickled symbol must not carry it
        # into a process whose string hashes differ
        blob = tmp_path / "symbols.pickle"
        symbols = "[ObsSymbol.state_set(['s2', 's3']), START, END]"
        head = "import pickle, sys\nfrom opaque_planner.model import ObsSymbol, START, END\n"
        dump = head + f"open(sys.argv[1], 'wb').write(pickle.dumps({symbols}))\n"
        load = head + (
            "got = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            f"fresh = {symbols}\n"
            "assert got == fresh\n"
            "assert [hash(g) for g in got] == [hash(f) for f in fresh]\n"
            "assert {g: i for i, g in enumerate(got)}[fresh[0]] == 0\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed, script in (("1", dump), ("2", load)):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            subprocess.run(
                [sys.executable, "-c", script, str(blob)], env=env, check=True, timeout=60
            )


class TestValidate:
    def test_running_example_clean(self, model):
        assert validate(model) == []

    def test_bad_probability_mass(self, model):
        broken = dict(model.transitions)
        s1, a = model.state_index["s1"], model.action_index["a"]
        broken[(s1, a)] = ((model.state_index["s2"], 0.4), (model.state_index["s3"], 0.5))
        bad = replace(model, transitions=broken)
        report = validate(bad)
        assert any("probability mass" in v and "s1" in v for v in report)

    def test_missing_terminating_action(self, model):
        broken = dict(model.transitions)
        del broken[(model.state_index["s5"], model.a_bot)]
        bad = replace(model, transitions=broken)
        report = validate(bad)
        assert any("terminating action missing" in v and "s5" in v for v in report)

    def test_observation_coverage(self, model):
        partial = dict(model.observations)
        partial.pop(next(iter(partial)))
        bad = replace(model, observations=partial)
        assert any("observation missing" in v for v in validate(bad))

    def test_initiating_action_elsewhere(self):
        m = running_example()
        broken = dict(m.transitions)
        broken[(m.state_index["s2"], m.a_top)] = ((m.state_index["s3"], 1.0),)
        bad = replace(m, transitions=broken)
        assert any("initiating action enabled at s2" in v for v in validate(bad))


class TestCsr:
    def test_reproduces_transitions(self, model):
        csr = model.csr
        symbols = model.observation_alphabet()
        rows = []
        for s in range(model.n_states):
            for r in range(csr.row_ptr[s], csr.row_ptr[s + 1]):
                a = int(csr.row_action[r])
                entries = range(csr.entry_ptr[r], csr.entry_ptr[r + 1])
                dist = tuple((int(csr.entry_succ[e]), float(csr.entry_prob[e])) for e in entries)
                rows.append(((s, a), dist))
                for e, (t, _p) in zip(entries, dist):
                    if s == model.bot:
                        assert csr.entry_obs[e] == -1
                    else:
                        assert symbols[csr.entry_obs[e]] == model.obs(s, a, t)
        assert rows == sorted(model.transitions.items())

    def test_labels(self, model):
        csr = model.csr
        assert csr.state_label[model.top] == csr.state_label[model.bot] == -1
        for s in model.interior_state_indices():
            assert csr.label_letters[csr.state_label[s]] == model.label_of(s)


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
