"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size in both modes and checks that the run
passes and prints exactly the metrics BENCHMARK.json names, with the same
units.  Runs each workload's worker with one reference value made wrong and
checks that exactly one op fails.  Copies the benchmark alone into
``perfbench/out/stripped`` and checks that it refuses to run there.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cmd: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *cmd], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str, problems: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        problems.append(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(WORKLOADS), f"BENCHMARK.json workloads {names}", problems)
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = run(
                ["perfbench/run.py", "--workload", workload, "--seconds", "1",
                 "--trace", str(trace), "--tiny"]
            )
            if proc.returncode != 0:
                check(False, f"{label}: exit code {proc.returncode}\n{proc.stderr}", problems)
                continue
            result = last_json(proc)
            check(
                sorted(result) == ["attempted", "correct", "failed", "metrics"]
                and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{label}: correct={result.get('correct')} attempted={result.get('attempted')} "
                f"failed={result.get('failed')}",
                problems,
            )
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == declared[trace], f"{label}: {len(units)} metrics, names and units as declared", problems)

        seed = str(DEFAULT_SEED[workload])
        proc = run(["perfbench/worker.py", workload, "--seed", seed, "--tiny", "--wrong-reference"])
        failures = last_json(proc)["failures"]
        check(len(failures) == 1, f"{workload} with one wrong reference fails: {failures}", problems)

    stripped = HERE / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    proc = run(
        ["perfbench/run.py", "--workload", WORKLOADS[0], "--seconds", "1", "--trace", "0"],
        cwd=stripped,
    )
    check(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        f"without the package: exit code {proc.returncode}, no result",
        problems,
    )
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
