import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opaque_planner import __version__, cli
from opaque_planner.automata import dfa_from_dict, dfa_to_dict
from opaque_planner.cli import main
from opaque_planner.ltlf import dfa_over_model_labels
from opaque_planner.model import ObsSymbol, START, END, dumps_model, load_model
from opaque_planner.transducer import opaque_obs_dfa

from lp_text import solve_lp_text

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

    def test_all_zero_task_row_is_exported(self, model_file, tmp_path, capsys):
        # no run satisfies "false", so the task row has no nonzero
        # coefficient; the text must still carry it to be plan's LP
        args = ["--model", model_file, "--task", "false", "--secret", "F s6", "--epsilon", "0.5"]
        assert main(["plan", *args]) == 2
        assert "largest feasible threshold is about 0.000000" in capsys.readouterr().err
        out = tmp_path / "zero.lp"
        assert main(["export-lp", *args, "--out", str(out)]) == 0
        text = out.read_text()
        assert " task: + 0 m_v0_a0 >= 0.5\n" in text
        with pytest.raises(AssertionError, match="infeasible"):
            solve_lp_text(text)

    def test_infeasible_when_highs_ends_unproven(self, tmp_path, capsys):
        # HiGHS stops this transparency solve with status Unknown; past the
        # largest feasible threshold, 0.9999999999998332, it is infeasible
        grid = str(tmp_path / "grid.json")
        assert main(["scenario", "gridworld", "--out", grid]) == 0
        code = main(["plan", "--model", grid, "--task", "F C", "--secret", "F B & F A",
                     "--mode", "transparency", "--epsilon", "1.01"])
        assert code == 2
        assert capsys.readouterr().err == (
            "infeasible at epsilon=1.0100; largest feasible threshold is about 1.000000\n"
        )

    def test_policy_file_contents(self, policy_file):
        doc = json.loads(Path(policy_file).read_text())
        assert doc["metadata"]["objective"] == pytest.approx(0.7, abs=1e-6)
        assert doc["metadata"]["manifest"]["task"] == "F s4"
        # every artifact names the tool and its version
        manifest = doc["metadata"]["manifest"]
        assert (manifest["tool"], manifest["version"]) == ("opaque-planner", __version__)
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

    @pytest.mark.parametrize("mode", ["transparancy", "min-opacity", 7, None])
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


class TestUsageErrors:
    """argparse's usage errors exit 1, an input error, and not 2, which
    means an infeasible threshold."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["plan", "--model", "{model}", "--secret", "F s6"],
            ["plan", "--model", "{model}", "--task", "F s4", "--epsilon", "abc"],
            ["plan", "--model", "{model}", "--task", "F s4", "--mode", "min-opacity"],
            ["export-lp", "--model", "{model}", "--task", "F s4", "--mode", "min-opacity"],
            ["simulate", "--model", "{model}", "--policy", "{policy}", "--runs", "zz"],
            ["solve"],
        ],
        ids=["no-subcommand", "no-task", "epsilon-not-a-number", "plan-min-opacity",
             "export-lp-min-opacity", "runs-not-a-number", "unknown-subcommand"],
    )
    def test_exit_1(self, model_file, policy_file, capsys, argv):
        paths = {"model": model_file, "policy": policy_file}
        assert main([arg.format(**paths) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        usage, *_, error = err.splitlines()
        assert usage.startswith("usage: opaque-planner")
        assert error.startswith("error: ")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["plan", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        assert capsys.readouterr().out

    def test_exit_1_from_the_module(self, model_file):
        done = subprocess.run(
            [sys.executable, "-m", "opaque_planner", "plan", "--model", model_file,
             "--task", "F s4", "--epsilon", "abc"],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("usage: opaque-planner plan")
        assert done.stderr.endswith("error: argument --epsilon: invalid float value: 'abc'\n")


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--model", "{model}", "--task", "{dir}", "--secret", "F s6"],
            ["plan", "--model", "{binary}", "--task", "F s4", "--secret", "F s6"],
            ["simulate", "--model", "{model}", "--policy", "{dir}"],
            ["scenario", "gridworld", "--config", "{dir}"],
            ["scenario", "running-example", "--out", "{dir}"],
            ["export-dot", "--dfa", "{dir}"],
        ],
        ids=["task-directory", "model-not-utf8", "policy-directory", "config-directory",
             "out-directory", "dfa-directory"],
    )
    def test_unreadable_path(self, model_file, tmp_path, capsys, argv):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00not text")
        paths = {"model": model_file, "dir": str(tmp_path), "binary": str(binary)}
        self._fails_cleanly([arg.format(**paths) for arg in argv], capsys)

    @staticmethod
    def _run_with_log_level(level, tmp_path) -> subprocess.CompletedProcess:
        # a separate interpreter: under pytest the root logger already has
        # handlers, and logging.basicConfig then ignores its level
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPAQUE_PLANNER_LOG": level, "PYTHONPATH": src}
        argv = ["scenario", "running-example", "--out", str(tmp_path / "m.json")]
        return subprocess.run([sys.executable, "-m", "opaque_planner", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("level", ["bogus", "10"])
    def test_unknown_log_level(self, tmp_path, level):
        done = self._run_with_log_level(level, tmp_path)
        assert done.returncode == 1
        assert done.stderr == (
            "error: OPAQUE_PLANNER_LOG must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL\n"
        )

    def test_log_level_names_ignore_case(self, tmp_path):
        done = self._run_with_log_level("info", tmp_path)
        assert done.returncode == 0
        assert "INFO opaque_planner: scenario finished" in done.stderr


def number_states(doc: dict) -> dict:
    """``doc`` with each state named by its index, a number."""
    number = {name: i for i, name in enumerate(doc["states"])}
    moves = [
        {**row, "from": number[row["from"]], "to": number[row["to"]]} for row in doc["transitions"]
    ]
    return {
        **doc,
        "states": list(number.values()),
        "initial": number[doc["initial"]],
        "accepting": [number[q] for q in doc["accepting"]],
        "transitions": moves,
    }


def retype(doc: dict, old: str, new: str) -> dict:
    """``doc`` with the JSON text ``old`` written ``new`` throughout."""
    return json.loads(json.dumps(doc).replace(old, new))


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

    @pytest.mark.parametrize(
        "kind, corrupt, message",
        [
            ("observations", number_states, "states lists 0 twice or as a non-name"),
            (
                "labels",
                lambda doc: retype(doc, '["s4"]', '"s4"'),
                "alphabet has the malformed letter 's4'",
            ),
            (
                "observations",
                lambda doc: retype(doc, '["s4"]', '"s4"'),
                "alphabet has the malformed letter 's4'",
            ),
            (
                "labels",
                lambda doc: retype(doc, '["s4"]', "[1]"),
                "alphabet has the malformed letter [1]",
            ),
            (
                "observations",
                lambda doc: retype(doc, '["s4"]', "[null]"),
                "alphabet has the malformed letter [None]",
            ),
            (
                "labels",
                lambda doc: {**doc, "letter_kind": "bogus"},
                "letter_kind must be one of labels, observations, plain, not 'bogus'",
            ),
        ],
        ids=["numeric-states", "labels-letter-string", "observations-letter-string",
             "letter-holds-number", "letter-holds-null", "unknown-letter-kind"],
    )
    def test_export_dot_input_error(
        self, model_file, opaque_file, tmp_path, capsys, kind, corrupt, message
    ):
        if kind == "labels":
            doc = dfa_to_dict(dfa_over_model_labels("F s6", load_model(model_file)), "labels")
        else:
            doc = json.loads(Path(opaque_file).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(corrupt(doc)))
        assert main(["export-dot", "--dfa", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: DFA file: {message}\n"


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

    def test_empty_observation_when_planning(self, model_file, tmp_path, capsys):
        doc = json.loads(Path(model_file).read_text())
        doc["observations"][0]["obs"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["plan", "--model", str(bad), "--task", "F s4", "--secret", "F s6"]) == 1
        assert capsys.readouterr().err.startswith("error: observation of (s1, a, s2) names no state")

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
            (
                lambda doc: doc["binary_sensors"][0].update(name=["x"]),
                "gridworld config: a sensor in binary_sensors needs a name that is a string",
            ),
        ],
        ids=["unknown-key", "drone-without-field", "sensor-without-field", "out-of-grid-cell",
             "sensor-cells-not-list", "drone-path-not-list", "cells-not-list",
             "sensors-not-list", "width-not-int", "move-p-not-number",
             "drone-move-p-not-number", "fractional-cell", "negative-size",
             "negative-square", "zero-width", "sensor-name-not-string"],
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


# the renderings and DFA documents of the running example (secret F s6)
# and the default gridworld (secret F B & F A); the running example's
# output NFAs are pinned in TestExports
PINNED_DOTS = [
    ("running-example", "fst",
     "2e38e5c633d0ed734aabde5787e83f979345d1ac357bcea20765562b7ae78887"),
    ("running-example", "product-fst",
     "bfa357f8c63c384691ba9caf842aa20dbb0d3d603f64b5f6387b52e81b3a374e"),
    ("running-example", "opaque-dfa",
     "01ef4e078a597c708b9e66e64724214692ff27cc0fa7c90dcf70e1ff1ad41816"),
    ("gridworld", "fst",
     "ddf97002ddbf55da9d04ba8a8f856c786cf28b4ca798af2a108cfbac4d2fea00"),
    ("gridworld", "product-fst",
     "c86769adc634baf3705ec5b29d55205617fb87540ba1fd1f2fc842666899080a"),
    ("gridworld", "nfa-satisfying",
     "6a493fb5d39d96231d1aa8e55bd7a675240d9c45386d510c9246b44278d71030"),
    ("gridworld", "nfa-violating",
     "ad292487b2ba79f538cf721549f1be503e4373637607a9ab46815678b0365087"),
    ("gridworld", "opaque-dfa",
     "16c57e5a59807f1b26ae2940dc495c5ac529492827606d8a6096b257737f63aa"),
]
PINNED_DOCS = [
    ("running-example", "secret",
     "0d7107e869da17dbbb2376ca0b2e0b0d308ee66ee869a89afd68c0c9bbd0ec43"),
    ("running-example", "opaque",
     "cd9f1554c511db127f6e2e45f69d53de319f9dd8cf6f76956c3a8533792b5cf5"),
    ("gridworld", "secret",
     "462d86cc6f7edac620d3d753294d99bb214565e7c2d059bca05df99ad8cf0f73"),
    ("gridworld", "opaque",
     "5613fe88b727669a7e962ad8850850bf94649f04f0d0acc4641c176357e89c2a"),
]
SECRETS = {"running-example": "F s6", "gridworld": "F B & F A"}


@pytest.fixture(scope="module")
def scenario_files(tmp_path_factory):
    paths = {}
    for name in SECRETS:
        paths[name] = str(tmp_path_factory.mktemp("cli") / f"{name}.json")
        assert main(["scenario", name, "--out", paths[name]]) == 0
    return paths


class TestPinnedRenderings:
    """The writers' output must not move when the automata's
    representations do."""

    @staticmethod
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize(
        "scenario, what, digest", PINNED_DOTS, ids=[f"{s}-{w}" for s, w, _ in PINNED_DOTS]
    )
    def test_export_dot(self, scenario_files, tmp_path, scenario, what, digest):
        out = tmp_path / f"{what}.dot"
        assert main(["export-dot", "--model", scenario_files[scenario], "--secret",
                     SECRETS[scenario], "--what", what, "--out", str(out)]) == 0
        assert self.digest(out.read_text()) == digest

    def test_export_dot_of_partial_dfa_file(self, tmp_path):
        # y has no move on "a": a missing move draws no edge
        doc = {
            "type": "dfa", "letter_kind": "plain", "states": ["x", "y"],
            "alphabet": ["a", "b"], "initial": "x", "accepting": ["y"],
            "transitions": [
                {"from": "x", "letter": "b", "to": "y"},
                {"from": "x", "letter": "a", "to": "x"},
                {"from": "y", "letter": "b", "to": "x"},
            ],
        }
        dfa, out = tmp_path / "partial.json", tmp_path / "partial.dot"
        dfa.write_text(json.dumps(doc))
        assert main(["export-dot", "--dfa", str(dfa), "--out", str(out)]) == 0
        digest = "55b37b98b70d29f4a646bd5ddfc20b88224ad7d880a5a3d1195609a595245ca2"
        assert self.digest(out.read_text()) == digest

    @pytest.mark.parametrize(
        "scenario, which, digest", PINNED_DOCS, ids=[f"{s}-{w}" for s, w, _ in PINNED_DOCS]
    )
    def test_dfa_to_dict(self, scenario_files, scenario, which, digest):
        model = load_model(scenario_files[scenario])
        secret = dfa_over_model_labels(SECRETS[scenario], model)
        if which == "secret":
            doc = dfa_to_dict(secret, "labels")
        else:
            doc = dfa_to_dict(opaque_obs_dfa(model, secret), "observations")
        assert self.digest(json.dumps(doc)) == digest


#: the CLI commands of one run on the running example, each writing its
#: artifact into the working directory
ARTIFACT_COMMANDS = [
    ["scenario", "running-example", "--out", "model.json"],
    ["build", "--model", "model.json", "--secret", "F s6", "--out", "opaque.json"],
    ["plan", "--model", "model.json", "--task", "F s4", "--secret", "F s6",
     "--epsilon", "0.4", "--out", "policy.json"],
    ["plan", "--model", "model.json", "--task", "F s4", "--opaque", "opaque.json",
     "--epsilon", "0.4", "--out", "policy-of-opaque.json"],
    ["export-dot", "--dfa", "opaque.json", "--out", "opaque-file.dot"],
] + [
    ["export-dot", "--model", "model.json", "--secret", "F s6", "--what", what,
     "--out", f"{what}.dot"]
    for what in ("fst", "product-fst", "nfa-satisfying", "nfa-violating", "opaque-dfa")
]


class TestArtifactsIndependentOfHashing:
    """Symbols hash by identity, so sets of them iterate in an order that
    changes from process to process; every artifact must be ordered by the
    symbols' sort keys instead, and so be the same under any hash seed."""

    @staticmethod
    def artifacts(workdir: Path, hash_seed: str) -> dict[str, bytes]:
        workdir.mkdir()
        script = (
            "import json, sys\n"
            "from opaque_planner.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script, json.dumps(ARTIFACT_COMMANDS)],
                       cwd=workdir, env=env, check=True, timeout=120)
        return {path.name: path.read_bytes() for path in workdir.iterdir()}

    def test_same_bytes_under_two_hash_seeds(self, tmp_path):
        first = self.artifacts(tmp_path / "first", "1")
        second = self.artifacts(tmp_path / "second", "2")
        assert sorted(first) == sorted(
            ["model.json", "opaque.json", "policy.json", "policy-of-opaque.json",
             "opaque-file.dot", "fst.dot", "product-fst.dot", "nfa-satisfying.dot",
             "nfa-violating.dot", "opaque-dfa.dot"]
        )
        assert first == second
