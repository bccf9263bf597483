"""The benchmark worker imports names from the package on every pass,
traced or not; a name that disappears fails every benchmark op, so the
names are checked here, by reading the worker's source; one tiny traced
pass, one untraced gridworld-build pass and one untraced running-example
pass run end to end."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def package_imports(path):
    """(module, name) of every ``from opaque_planner... import name``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module.split(".")[0] == "opaque_planner":
            for alias in node.names:
                yield node.module, alias.name


def test_worker_imports_are_exported():
    wanted = sorted(set(package_imports(WORKER)))
    assert wanted, "found no imports from the package"
    missing = [
        f"{module}.{name}"
        for module, name in wanted
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_traced_gridworld_pass():
    # the traced pass reads more of the package than the worker imports:
    # ProductMdp.transitions and RolloutStats.horizon_truncated among them.
    # Runs go to absorption now, so horizon_truncated is a read-only 0 kept
    # only for this pass's simulate.truncated_runs, until the benchmark's
    # next change drops both
    done = subprocess.run(
        [sys.executable, str(WORKER), "gridworld", "--seed", "11", "--tiny", "--trace"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["layers"]["planner.product_states"]["value"] > 0
    assert result["layers"]["planner.product_transitions"]["value"] > 0
    assert result["layers"]["simulate.rollout_runs"]["value"] > 0
    assert result["layers"]["simulate.truncated_runs"]["value"] == 0
    # the paper's route, which only this pass runs: its automaton sizes
    assert result["layers"]["automata.intersect_states"]["value"] == 591
    assert result["layers"]["automata.determinize_states"]["value"] == 152


def test_gridworld_build_references():
    # the six gridworld secrets' opaque-DFA sizes and accepted-word counts,
    # checked untraced as the benchmark runs them
    done = subprocess.run(
        [sys.executable, str(WORKER), "gridworld-build", "--seed", "11"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["attempted"] == 6


def test_running_example_pass():
    # the only pass that checks the opaque DFA against the brute-force
    # observation buckets, so it reads the model through successors, prob,
    # obs and check_play
    done = subprocess.run(
        [sys.executable, str(WORKER), "running-example", "--seed", "11", "--tiny"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["attempted"] == 13
