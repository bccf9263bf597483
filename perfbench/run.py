"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(``perfbench/worker.py``) with the BLAS thread pools pinned to one thread:
closed loop, one caller, one process, one thread.

``--trace 0`` runs passes until the next one would end after ``--seconds``
(at least one), with set-up-only passes before and after them until seven
set-up times are in hand, and reports the medians of the end-to-end
metrics.  ``--trace 1`` runs one plain pass and one traced pass, reports the
per-layer metrics of the traced pass, the stage and total times of the
plain one and the tracing overhead (traced total minus plain total), and
writes the spans to ``perfbench/out/``.

Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
whose worker crashes or times out exits non-zero without that line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "opaque_planner" / "__init__.py"

# the acceptance tests' seeds
DEFAULT_SEED = {"running-example": 2025, "gridworld": 11, "gridworld-build": 11}
SETUP_SAMPLES = 7
# every worker must have ended this long after the run started
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, flags: list[str], timeout: float) -> dict:
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # string hashing, and so set and dict order, follows the seed too
        PYTHONHASHSEED=str(seed % 2**32),
    )
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed), "--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd + flags, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker {' '.join(flags)} timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(flags)} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timing_run(run, seconds: float) -> tuple[list[dict], dict]:
    # set-up samples come from before and after the passes, so one slow
    # stretch of the machine does not cover all of them
    setups = [run(["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    start = time.monotonic()
    passes = [run([])]
    while time.monotonic() - start + statistics.median(p["wall_s"] for p in passes) <= seconds:
        passes.append(run([]))
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run(["--setup-only"])["setup_s"])
    return passes, {
        "setup_s": metric(statistics.median(setups), "s"),
        "work_ref": metric(statistics.median(p["work_ref"] for p in passes), "ref"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def traced_run(run, workload: str, seed: int) -> tuple[list[dict], dict]:
    plain = run([])
    traced = run(["--trace"])
    metrics = dict(traced["layers"])
    for stage in ("build", "plan", "rollout", "check"):
        metrics[f"{stage}_s"] = metric(plain["stage_s"][stage], "s")
    metrics["setup_wall_s"] = metric(plain["setup_wall_s"], "s")
    metrics["total_s"] = metric(plain["total_s"], "s")
    metrics["ref_loop_s"] = metric(plain["ref_loop_s"], "s")
    metrics["trace.overhead_s"] = metric(traced["total_s"] - plain["total_s"], "s")
    metrics["trace.spans"] = metric(len(traced["spans"]), "count")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "spans": traced["spans"]}
    path.write_text(json.dumps(doc) + "\n")
    print(f"spans: {path.relative_to(ROOT)}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, help="default: the acceptance tests' seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a checkout", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED[args.workload] if args.seed is None else args.seed
    deadline = time.monotonic() + DEADLINE_S
    tiny = ["--tiny"] if args.tiny else []

    def run(flags: list[str]) -> dict:
        return start_worker(args.workload, seed, flags + tiny, max(deadline - time.monotonic(), 1.0))

    print(f"workload: {args.workload}  seed: {seed}  trace: {args.trace}")
    try:
        if args.trace:
            passes, metrics = traced_run(run, args.workload, seed)
        else:
            passes, metrics = timing_run(run, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for k, p in enumerate(passes):
        print(f"pass {k}: total_s={p['total_s']:.4f} work_ref={p['work_ref']:.3f} ref_loop_s={p['ref_loop_s']:.4f}")
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    print(f"passes: {len(passes)}  ops: {attempted}  ops_failed: {len(failures)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
