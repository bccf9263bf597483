import hashlib
import json
from pathlib import Path

import pytest

from opaque_planner import cli
from opaque_planner.automata import dfa_from_dict
from opaque_planner.cli import main
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.model import ObsSymbol, START, END, dumps_model, load_model

SS = ObsSymbol.state_set


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    assert main(["scenario", "running-example", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def opaque_file(model_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "opaque.json"
    assert main(["build", "--model", model_file, "--secret", "F s6",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def policy_file(model_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "policy.json"
    code = main([
        "plan", "--model", model_file, "--task", "F s4", "--secret", "F s6",
        "--epsilon", "0.4", "--out", str(path),
    ])
    assert code == 0
    return str(path)


class TestScenario:
    def test_model_round_trips_canonically(self, model_file):
        model = load_model(model_file)
        assert dumps_model(model) == Path(model_file).read_text()

    def test_gridworld_emits_valid_model(self, tmp_path):
        out = tmp_path / "grid.json"
        assert main(["scenario", "gridworld", "--out", str(out)]) == 0
        from opaque_planner.model import validate

        assert validate(load_model(out)) == []

    def test_default_config_export(self, tmp_path):
        out = tmp_path / "cfg.json"
        assert main(["scenario", "gridworld", "--emit-default-config",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["width"] == 6 and doc["plant_cell"] == 8

    def test_gridworld_with_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        assert main(["scenario", "gridworld", "--emit-default-config",
                     "--out", str(cfg)]) == 0
        doc = json.loads(cfg.read_text())
        doc["move_success_p"] = 0.5
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "grid.json"
        assert main(["scenario", "gridworld", "--config", str(cfg),
                     "--out", str(out)]) == 0


class TestBuild:
    def test_output_accepts_ambiguous_word(self, opaque_file):
        doc = json.loads(Path(opaque_file).read_text())
        assert doc["stats"]["minimized_states"] > 0
        assert doc["manifest"]["command"] == "build"
        dfa = dfa_from_dict(doc)
        assert dfa.accepts((START, SS(["s2", "s3"]), SS(["s5", "s6"]), END))

    def test_stats_count_the_observer(self, opaque_file):
        # 13 transducer states reach an accepting set, 17 observer subsets,
        # 9 states once minimized
        stats = json.loads(Path(opaque_file).read_text())["stats"]
        assert (stats["nfa_states"], stats["dfa_states"], stats["minimized_states"]) == (
            13, 17, 9
        )

    def test_trivial_secret_warns(self, model_file, tmp_path, capsys):
        out = tmp_path / "trivial.json"
        assert main(["build", "--model", model_file, "--secret", "true",
                     "--out", str(out)]) == 0
        assert "empty" in capsys.readouterr().err

    def test_missing_model_is_input_error(self, tmp_path):
        assert main(["build", "--model", str(tmp_path / "nope.json"),
                     "--secret", "F s6"]) == 1


class TestPlan:
    def test_prints_threshold_and_objective(self, model_file, capsys, tmp_path):
        code = main(["plan", "--model", model_file, "--task", "F s4",
                     "--secret", "F s6", "--epsilon", "0.6"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.6000 0.6000"

    def test_transparency_mode(self, model_file, capsys):
        code = main(["plan", "--model", model_file, "--task", "F s4",
                     "--secret", "F s6", "--epsilon", "0.8",
                     "--mode", "transparency"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.8000 0.9657"

    def test_task_accepting_initially_is_feasible(self, model_file, capsys):
        # G !s3 holds on every trace that stops before s3
        code = main(["plan", "--model", model_file, "--task", "G !s3",
                     "--secret", "F s6", "--epsilon", "0.5"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.5000 0.6500"

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["plan", "export-lp"])
    def test_non_finite_epsilon(self, model_file, capsys, command, epsilon):
        code = main([command, "--model", model_file, "--task", "F s4",
                     "--secret", "F s6", "--epsilon", epsilon])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the task threshold must be finite")
        assert "Traceback" not in err

    def test_infeasible_exit_code(self, model_file, capsys):
        code = main(["plan", "--model", model_file, "--task", "F s4",
                     "--secret", "F s6", "--epsilon", "1.01"])
        assert code == 2
        assert "feasible threshold" in capsys.readouterr().err

    def test_policy_file_contents(self, policy_file):
        doc = json.loads(Path(policy_file).read_text())
        assert doc["metadata"]["objective"] == pytest.approx(0.7, abs=1e-6)
        assert doc["metadata"]["manifest"]["task"] == "F s4"
        assert 0 < doc["metadata"]["quotient_states"] < doc["metadata"]["product_states"]
        # three rounds split the running example's blocks (6 -> 17), and a
        # fourth re-signs the states the last split reached and splits none
        assert doc["metadata"]["quotient_rounds"] == 4
        # policy iteration moves off the stop-everywhere policy twice, and
        # a third round finds no better column
        assert doc["metadata"]["start_policy_rounds"] == 3
        # a_top, at least one move, then a_bot
        assert doc["metadata"]["solver"]["expected_steps"] >= 3
        some_state = next(iter(doc["policy"]))
        assert "|" in some_state

    def test_min_opacity_complements_transparency(self, model_file, tmp_path):
        objectives = {}
        for mode in ("min-opacity", "transparency"):
            out = tmp_path / f"{mode}.json"
            assert main(["plan", "--model", model_file, "--task", "F s4",
                         "--secret", "F s6", "--epsilon", "0.4", "--mode", mode,
                         "--out", str(out)]) == 0
            objectives[mode] = json.loads(out.read_text())["metadata"]["objective"]
        assert sum(objectives.values()) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("epsilon, dual", [("0.4", 0.0), ("0.7", 1.0)])
    def test_task_dual_recorded(self, model_file, tmp_path, epsilon, dual):
        # slack at 0.4; Table I's slope between 0.6 and 0.8 at 0.7
        out = tmp_path / "policy.json"
        assert main(["plan", "--model", model_file, "--task", "F s4", "--secret", "F s6",
                     "--epsilon", epsilon, "--out", str(out)]) == 0
        solver = json.loads(out.read_text())["metadata"]["solver"]
        assert solver["task_dual"] == pytest.approx(dual, abs=1e-9)

    def test_prebuilt_opaque_accepted(self, model_file, opaque_file, capsys):
        code = main(["plan", "--model", model_file, "--task", "F s4",
                     "--opaque", opaque_file, "--epsilon", "0.4"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.4000 0.7000"


class TestSimulate:
    def test_table_row_and_stats(self, model_file, policy_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        code = main(["simulate", "--model", model_file, "--policy", policy_file,
                     "--runs", "2000", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["threshold", "max_value", "exp_value", "exp_task"]
        doc = json.loads(out.read_text())
        assert doc["stats"]["runs"] == 2000
        assert doc["stats"]["opaque"] + doc["stats"]["transparent"] == 2000
        assert doc["stats"]["mean_steps"] == doc["stats"]["steps"] / 2000

    def test_deterministic_given_seed(self, model_file, policy_file, capsys):
        main(["simulate", "--model", model_file, "--policy", policy_file,
              "--runs", "500", "--seed", "3"])
        first = capsys.readouterr().out
        main(["simulate", "--model", model_file, "--policy", policy_file,
              "--runs", "500", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_zero_runs_rejected(self, model_file, policy_file):
        assert main(["simulate", "--model", model_file, "--policy", policy_file,
                     "--runs", "0"]) == 1

    def test_model_mismatch_detected(self, policy_file, tmp_path):
        other = tmp_path / "other.json"
        assert main(["scenario", "gridworld", "--out", str(other)]) == 0
        assert main(["simulate", "--model", str(other),
                     "--policy", policy_file, "--runs", "10"]) == 1

    @pytest.mark.parametrize("dist", [{"a_top": 1.0}, {"a": 1.5, "a_bot": -0.5, "b": 0.0}])
    def test_invalid_policy_rejected(self, model_file, policy_file, tmp_path, capsys, dist):
        # an action not enabled at s1, then a negative probability
        doc = json.loads(Path(policy_file).read_text())
        assert "s1|0|1" in doc["policy"]
        doc["policy"]["s1|0|1"] = dist
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--model", model_file, "--policy", str(bad),
                     "--runs", "10"]) == 1
        assert capsys.readouterr().err.startswith("error: policy")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: {**doc, "policy": {**doc["policy"], "s1|0|1": {"nope": 1.0}}},
            lambda doc: {**doc, "policy": {**doc["policy"], "s1|0|1": {"a": "abc"}}},
            lambda doc: {**doc, "policy": []},
            lambda doc: {"metadata": doc["metadata"]},
            lambda doc: [doc],
            lambda doc: {**doc, "metadata": []},
            lambda doc: {**doc, "metadata": {**doc["metadata"], "manifest": []}},
            lambda doc: {**doc, "metadata": {**doc["metadata"], "objective": "high"}},
            lambda doc: {**doc, "metadata": {**doc["metadata"], "epsilon": "low"}},
            lambda doc: {**doc, "metadata": {
                **doc["metadata"], "manifest": {**doc["metadata"]["manifest"], "task": 3}}},
        ],
        ids=["unknown-action", "probability-not-a-number", "policy-not-an-object",
             "policy-missing", "file-not-an-object", "metadata-not-an-object",
             "manifest-not-an-object", "objective-not-a-number", "epsilon-not-a-number",
             "task-not-a-string"],
    )
    def test_malformed_policy_file(self, model_file, policy_file, tmp_path, capsys, corrupt):
        doc = json.loads(Path(policy_file).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(corrupt(doc)))
        assert main(["simulate", "--model", model_file, "--policy", str(bad),
                     "--runs", "10"]) == 1
        assert capsys.readouterr().err.startswith("error: policy")

    @pytest.mark.parametrize("mode", ["transparancy", 7, None])
    def test_unknown_mode_rejected(self, model_file, policy_file, tmp_path, capsys, mode):
        # an unknown mode printed the opaque estimate beside the objective
        doc = json.loads(Path(policy_file).read_text())
        doc["metadata"]["mode"] = mode
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--model", model_file, "--policy", str(bad),
                     "--runs", "10"]) == 1
        assert capsys.readouterr().err.startswith("error: policy metadata: mode must be one of")

    def test_negative_seed_rejected(self, model_file, policy_file, capsys):
        assert main(["simulate", "--model", model_file, "--policy", policy_file,
                     "--runs", "10", "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed")


class TestVerify:
    def test_clean_run(self, model_file, capsys):
        assert main(["verify", "--model", model_file, "--secret", "F s6",
                     "--max-actions", "4"]) == 0
        assert "discrepancies: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("prebuilt", [False, True], ids=["built", "prebuilt"])
    def test_secret_translated_once(self, model_file, opaque_file, monkeypatch, prebuilt):
        calls = []

        def counted(spec, model):
            calls.append(spec)
            return dfa_over_model_labels(spec, model)

        monkeypatch.setattr(cli, "dfa_over_model_labels", counted)
        argv = ["verify", "--model", model_file, "--secret", "F s6", "--max-actions", "2"]
        assert main(argv + (["--opaque", opaque_file] if prebuilt else [])) == 0
        assert calls == ["F s6"]

    def test_trivial_secret(self, model_file, capsys):
        assert main(["verify", "--model", model_file, "--secret", "true",
                     "--max-actions", "4"]) == 0
        out = capsys.readouterr().out
        assert "opaque (oracle): 0" in out

    def test_mutated_dfa_flagged(self, model_file, opaque_file, tmp_path, capsys):
        doc = json.loads(Path(opaque_file).read_text())
        dfa = dfa_from_dict(doc)
        # flip the verdict on a word the model really produces
        transparent_word = (START, SS(["s2", "s3"]), SS(["s4"]), END)
        end_state = dfa.run(transparent_word)
        assert end_state is not None and end_state not in dfa.accepting
        acc = set(doc["accepting"])
        doc["accepting"] = sorted(acc | {doc["states"][end_state]})
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        code = main(["verify", "--model", model_file, "--secret", "F s6",
                     "--opaque", str(mutated), "--max-actions", "4"])
        assert code == 4
        assert "counterexample" in capsys.readouterr().err


class TestMissingInputs:
    def _fails_cleanly(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_plan_without_secret_or_opaque(self, model_file, capsys):
        self._fails_cleanly(
            ["plan", "--model", model_file, "--task", "F s4"], capsys
        )

    def test_export_lp_without_secret_or_opaque(self, model_file, capsys):
        self._fails_cleanly(
            ["export-lp", "--model", model_file, "--task", "F s4"], capsys
        )

    def test_export_dot_without_model_or_dfa(self, capsys):
        self._fails_cleanly(["export-dot", "--secret", "F s6"], capsys)

    def test_deeply_nested_secret(self, model_file, capsys, tmp_path):
        secret = "(" * 300 + "s6" + ")" * 300
        argv = ["build", "--model", model_file, "--secret", secret, "--out", str(tmp_path / "o")]
        self._fails_cleanly(argv, capsys)

    def test_negative_play_bound(self, model_file, capsys):
        argv = ["verify", "--model", model_file, "--secret", "F s6", "--max-actions", "-1"]
        self._fails_cleanly(argv, capsys)


class TestMalformedDfaFile:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["transitions"][0].update(to="zz"),
            lambda doc: doc.update(initial="zz"),
            lambda doc: doc["transitions"][0].update(letter=["zz"]),
            lambda doc: doc["transitions"][0].update(letter=[]),
            lambda doc: doc.pop("accepting"),
            lambda doc: doc.update(states=1),
            lambda doc: doc.update(alphabet=1),
            lambda doc: doc.update(transitions=1),
            lambda doc: doc.update(accepting=1),
            lambda doc: doc["transitions"].append({**doc["transitions"][0], "to": doc["initial"]}),
            lambda doc: doc["states"].append(doc["states"][0]),
        ],
        ids=["unknown-target", "unknown-initial", "unknown-letter", "malformed-letter",
             "missing-field", "states-not-list", "alphabet-not-list",
             "transitions-not-list", "accepting-not-list", "two-moves-on-one-letter",
             "duplicate-state"],
    )
    @pytest.mark.parametrize("flag", ["build --secret", "plan --opaque"])
    def test_input_error(self, model_file, opaque_file, tmp_path, capsys, corrupt, flag):
        doc = json.loads(Path(opaque_file).read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        command, option = flag.split()
        argv = [command, "--model", model_file, option, str(bad)]
        if command == "plan":
            argv += ["--task", "F s4"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: DFA file")


class TestMalformedModelFile:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["transitions"][0].pop("prob"),
            lambda doc: doc["observations"][0].pop("obs"),
            lambda doc: doc["transitions"][0].update(prob="lots"),
            lambda doc: doc["observations"][0].update(to="zz"),
            lambda doc: doc["labels"].update(s1=5),
            lambda doc: doc["observations"][0].update(obs=5),
            lambda doc: doc.update(initial=[]),
            lambda doc: doc.update(states=3),
            lambda doc: doc["transitions"][0].update({"from": ["s1"]}),
            lambda doc: doc["transitions"][0].update(prob=-0.3),
            lambda doc: doc["transitions"][0].update(prob=float("nan")),
            lambda doc: doc["transitions"][0].update(prob=True),
        ],
        ids=["transition-without-prob", "observation-without-obs", "prob-not-a-number",
             "observation-unknown-state", "label-not-a-list", "obs-a-number",
             "initial-a-list", "states-a-number", "from-a-list", "prob-negative",
             "prob-nan", "prob-true"],
    )
    def test_input_error(self, model_file, tmp_path, capsys, corrupt):
        doc = json.loads(Path(model_file).read_text())
        corrupt(doc)
        self.assert_input_error(doc, tmp_path, capsys)

    def test_not_an_object(self, model_file, tmp_path, capsys):
        self.assert_input_error([json.loads(Path(model_file).read_text())], tmp_path, capsys)

    @staticmethod
    def assert_input_error(doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["build", "--model", str(bad), "--secret", "F s6"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestMalformedGridworldConfig:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda doc: doc.update(colour="red"), ""),
            (lambda doc: doc["drone"].pop("move_p"), ""),
            (lambda doc: doc["binary_sensors"][0].pop("cells"), ""),
            (lambda doc: doc.update(plant_cell=99), ""),
            (lambda doc: doc["binary_sensors"][0].update(cells=5), ""),
            (lambda doc: doc["drone"].update(path=5), ""),
            (lambda doc: doc.update(control_cells=5), ""),
            (lambda doc: doc.update(binary_sensors=3), ""),
            (lambda doc: doc.update(width="6"), ""),
            (lambda doc: doc.update(move_success_p="0.6"), ""),
            (lambda doc: doc["drone"].update(move_p="x"), ""),
            (lambda doc: doc.update(init_cell=30.5), ""),
            # a negative width and height whose product is positive
            (
                lambda doc: doc.update(
                    width=-2, height=-3, plant_cell=0, control_cells=[1], data_cells=[2],
                    alarm_cells=[], wall_cells=[], init_cell=3, binary_sensors=[],
                    precision_sensors=[], drone={"path": [5], "move_p": 0.5},
                ),
                "grid size -2x-3 must be at least 1x1",
            ),
            (lambda doc: doc.update(width=-6, height=-6), "grid size -6x-6 must be at least 1x1"),
            (lambda doc: doc.update(width=0), "grid size 0x6 must be at least 1x1"),
        ],
        ids=["unknown-key", "drone-without-field", "sensor-without-field", "out-of-grid-cell",
             "sensor-cells-not-list", "drone-path-not-list", "cells-not-list",
             "sensors-not-list", "width-not-int", "move-p-not-number",
             "drone-move-p-not-number", "fractional-cell", "negative-size",
             "negative-square", "zero-width"],
    )
    def test_input_error(self, tmp_path, capsys, corrupt, message):
        doc = self.default_config(tmp_path)
        corrupt(doc)
        self.assert_input_error(doc, tmp_path, capsys, message)

    def test_not_an_object(self, tmp_path, capsys):
        self.assert_input_error([self.default_config(tmp_path)], tmp_path, capsys)

    @staticmethod
    def default_config(tmp_path):
        cfg = tmp_path / "default.json"
        assert main(["scenario", "gridworld", "--emit-default-config", "--out", str(cfg)]) == 0
        return json.loads(cfg.read_text())

    @staticmethod
    def assert_input_error(doc, tmp_path, capsys, message=""):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["scenario", "gridworld", "--config", str(cfg), "--out", str(tmp_path / "m.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestExports:
    def test_lp_deterministic(self, model_file, tmp_path):
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        for path in (a, b):
            assert main(["export-lp", "--model", model_file, "--task", "F s4",
                         "--secret", "F s6", "--epsilon", "0.4",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dot_outputs(self, model_file, tmp_path):
        for what in ("fst", "product-fst", "nfa-satisfying", "opaque-dfa"):
            out = tmp_path / f"{what}.dot"
            assert main(["export-dot", "--model", model_file, "--secret", "F s6",
                         "--what", what, "--out", str(out)]) == 0
            assert out.read_text().startswith("digraph")

    @pytest.mark.parametrize(
        "what, digest",
        [
            ("nfa-satisfying", "eed54ecbd8047a5a773811cedd4d3b467616626b7232297a681d90253030b249"),
            ("nfa-violating", "f74b18c7583a46d4465841ed844c1ccb929dd8ce99727afbd7e902e0605ab022"),
        ],
    )
    def test_output_nfa_dots_are_pinned(self, model_file, tmp_path, what, digest):
        # the renderings of the running example's output NFAs (secret F s6)
        # must not move when the NFA's representation does
        out = tmp_path / f"{what}.dot"
        assert main(["export-dot", "--model", model_file, "--secret", "F s6",
                     "--what", what, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_dot_from_dfa_file(self, opaque_file, tmp_path):
        out = tmp_path / "dfa.dot"
        assert main(["export-dot", "--dfa", opaque_file, "--out", str(out)]) == 0
        assert "doublecircle" in out.read_text()
