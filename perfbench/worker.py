"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD --seed N [--t0 T] [--trace]
                                [--tiny] [--setup-only] [--wrong-reference]

A pass sets up (imports the package from ``src/``, builds and validates the
scenario model), then runs the workload's build, plan and rollout ops and
checks each op's output against its reference.  An op fails if it raises,
if its LP is not solved to optimality, or if it misses a reference.

With ``--trace`` every call into the package runs inside a span (name,
start, end, parent, counts) and the pass also reports the per-layer metrics
derived from the spans.  Without it the layers are called plainly and only
the op stages are timed.  ``--t0`` is the caller's ``time.monotonic()``
when it started this process, so setup time includes interpreter start.

Between ops the pass runs a fixed reference loop (``HostClock``), so that
the work can also be reported in multiples of the loop's time, which a
slow stretch of the shared host lengthens as it lengthens the work.

The last line on stdout is one JSON object describing the pass.
``perfbench/run.py`` starts one worker per pass.
"""

import time

T_START = time.monotonic()

import argparse
import json
import random
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

import references as ref

SRC = Path(__file__).resolve().parents[1] / "src"

WORKLOADS = ("running-example", "gridworld", "gridworld-build")
TASK = {"running-example": "F s4", "gridworld": "F C", "gridworld-build": "F C"}
TABLE_EPS = (0.4, 0.6, 0.8)
# the running example's fine threshold grid: 0.05, 0.10, ..., 0.80
FINE_EPS = tuple(round(0.05 * k, 2) for k in range(1, 17))
SEEDED_EPS = 3
# the gridworld stream is fixed: see perfbench/README.md
GRIDWORLD_ROLLOUT_SEED = 11
# the reference loop runs between ops once this much work has passed
CALIBRATE_EVERY_S = 1.0
# the reference loop's median time on the 2-core Xeon host the benchmark was
# tuned on; set-up seconds are reported at that speed
REF_LOOP_S = 0.065


def reference_loop() -> None:
    """A fixed mix of the program's kinds of work, about 0.1 s: dict and
    tuple churn (automata), small numpy calls (rollout) and a large sort."""
    import numpy as np

    table: dict = {}
    for i in range(150_000):
        key = (i & 511, i % 7)
        table[key] = table.get(key, 0) + i
    cum = np.cumsum(np.full(8, 0.125))
    for i in range(15_000):
        np.searchsorted(cum, (i % 97) / 97.0)
    np.sort(np.random.default_rng(0).random(500_000))


class HostClock:
    """The pass's work timed on the host's clock and in reference loops.

    The shared host's speed drifts by up to 2x over seconds to minutes, and
    it moves the reference loop and Python-level work alike (long HiGHS
    solves less so: see perfbench/README.md).  The loop runs at the
    start, at an op boundary once ``CALIBRATE_EVERY_S`` of work has passed,
    and at the end; each stretch of work between two loops counts as its
    seconds divided by the mean of the two loops' times.  Loop time itself
    is not work.
    """

    def __init__(self):
        self.work_s = 0.0
        self.work_ref = 0.0
        self.loops: list[float] = []
        reference_loop()  # warm-up
        self._last = self._loop()
        self._since = time.perf_counter()

    def _loop(self) -> float:
        start = time.perf_counter()
        reference_loop()
        self.loops.append(time.perf_counter() - start)
        return self.loops[-1]

    def tick(self, force: bool = False) -> None:
        stretch = time.perf_counter() - self._since
        if stretch < CALIBRATE_EVERY_S and not force:
            return
        loop = self._loop()
        self.work_s += stretch
        self.work_ref += stretch / ((self._last + loop) / 2)
        self._last = loop
        self._since = time.perf_counter()


class Trace:
    """Spans recorded around calls into the package's layers.

    Disabled, ``call`` is a plain call and ``span`` records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, sizes=None):
        """``fn(*args)`` inside a span; ``sizes(result)`` gives its counts."""
        if not self.enabled:
            return fn(*args)
        with self.span(name) as counts:
            out = fn(*args)
        if sizes is not None:
            counts.update(sizes(out))
        return out


# per-layer metric -> (span name, count key or None for busy seconds,
# aggregation over the pass's spans of that name, unit)
LAYER_METRICS = {
    "model.build_s": ("scenarios.model", None, sum, "s"),
    "model.states": ("scenarios.model", "states", max, "count"),
    "model.obs_symbols": ("scenarios.model", "obs_symbols", max, "count"),
    "ltlf.to_dfa_s": ("ltlf.to_dfa", None, sum, "s"),
    "ltlf.dfa_states": ("ltlf.to_dfa", "states", max, "count"),
    "transducer.obs_fst_s": ("transducer.build_obs_fst", None, sum, "s"),
    "transducer.product_fst_s": ("transducer.product_fst", None, sum, "s"),
    "transducer.product_fst_states": ("transducer.product_fst", "states", max, "count"),
    "transducer.output_nfa_s": ("transducer.output_nfa", None, sum, "s"),
    "transducer.nfa_states": ("transducer.output_nfa", "states", max, "count"),
    "automata.intersect_s": ("automata.intersect", None, sum, "s"),
    "automata.intersect_states": ("automata.intersect", "states", max, "count"),
    "automata.determinize_s": ("automata.determinize", None, sum, "s"),
    "automata.determinize_states": ("automata.determinize", "states", max, "count"),
    "automata.minimize_s": ("automata.minimize", None, sum, "s"),
    "automata.opaque_dfa_states": ("automata.minimize", "states", max, "count"),
    "planner.product_mdp_s": ("planner.product_mdp", None, sum, "s"),
    "planner.product_states": ("planner.product_mdp", "states", max, "count"),
    "planner.product_transitions": ("planner.product_mdp", "transitions", max, "count"),
    "planner.build_lp_s": ("planner.build_lp", None, sum, "s"),
    "planner.lp_rows": ("planner.build_lp", "rows", max, "count"),
    "planner.lp_vars": ("planner.build_lp", "vars", max, "count"),
    "planner.lp_nnz": ("planner.build_lp", "nnz", max, "count"),
    "planner.solve_lp_s": ("planner.solve_lp", None, sum, "s"),
    "planner.solve_iterations": ("planner.solve_lp", "iterations", sum, "count"),
    "planner.flow_residual_max": ("planner.solve_lp", "flow_residual", max, "1"),
    "planner.extract_policy_s": ("planner.extract_policy", None, sum, "s"),
    "planner.expected_steps": ("simulate.rollout", "expected_steps", statistics.fmean, "steps"),
    "simulate.rollout_s": ("simulate.rollout", None, sum, "s"),
    "simulate.rollout_runs": ("simulate.rollout", "runs", sum, "count"),
    "simulate.truncated_runs": ("simulate.rollout", "truncated", sum, "count"),
    "simulate.exact_s": ("simulate.exact_policy_values", None, sum, "s"),
    "simulate.ph_gap_max": ("check", "ph_gap", max, "prob"),
}


def layer_metrics(spans: list[dict]) -> dict:
    out = {}
    for metric, (name, key, aggregate, unit) in LAYER_METRICS.items():
        values = [
            s["end"] - s["start"] if key is None else s["counts"][key]
            for s in spans
            if s["name"] == name and (key is None or key in s["counts"])
        ]
        out[metric] = {"value": aggregate(values) if values else 0, "unit": unit}
    return out


class Pass:
    """Op accounting for one pass: busy seconds per stage and failures."""

    def __init__(self, trace: Trace, clock: HostClock):
        self.trace = trace
        self.clock = clock
        self.stage_s = dict.fromkeys(("build", "plan", "rollout", "check"), 0.0)
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, kind: str, label: str, work, check):
        """Time ``work()`` as one op of stage ``kind``, then time
        ``check(result, counts)``, which returns the problems it found.

        An op that raises is failed and yields None; an op that depends on
        it then raises in turn and is failed too.
        """
        self.clock.tick()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.trace.span(kind):
                result = work()
        except Exception as exc:  # a failed op is counted, the pass goes on
            result, problems = None, [f"raised {exc!r}"]
        else:
            problems = None
        done = time.perf_counter()
        self.stage_s[kind] += done - start
        if problems is None:
            try:
                with self.trace.span("check") as counts:
                    problems = check(result, counts)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
            self.stage_s["check"] += time.perf_counter() - done
        if problems:
            self.failures.append(f"{kind} {label}: " + "; ".join(problems))
        return result


# ---------------------------------------------------------------------------
# calls into the package


def setup(trace: Trace, workload: str, tiny: bool):
    """Import the package from ``src/``, build and validate the model."""
    with trace.span("import"):
        sys.path.insert(0, str(SRC))
        import opaque_planner
    where = Path(opaque_planner.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"imported opaque_planner from {where}, not from {SRC}")
    from opaque_planner import gridworld, running_example, validate
    from opaque_planner.scenarios import DroneConfig, GridworldConfig, Sensor

    def scenario():
        if workload == "running-example":
            model = running_example()
        elif tiny and workload == "gridworld":
            cfg = dict(ref.TINY_GRIDWORLD)
            for key in ("binary_sensors", "precision_sensors"):
                cfg[key] = tuple(Sensor(name, cells) for name, cells in cfg[key])
            cfg["drone"] = DroneConfig(*cfg["drone"])
            model = gridworld(GridworldConfig(**cfg))
        else:
            model = gridworld()
        problems = validate(model)
        if problems:
            raise SystemExit(f"{workload} model is invalid: {problems[0]}")
        return model

    return trace.call(
        "scenarios.model",
        scenario,
        sizes=lambda m: {"states": m.n_states, "obs_symbols": len(m.observation_alphabet())},
    )


def _states(automaton):
    return {"states": automaton.n_states}


def opaque_dfa(trace: Trace, model, secret):
    """The opaque-observations DFA; traced, each construction step on its own."""
    from opaque_planner import (
        build_obs_fst,
        complete,
        determinize,
        intersect,
        minimize,
        opaque_obs_dfa,
        output_nfa,
        product_fst,
    )

    if not trace.enabled:
        return opaque_obs_dfa(model, secret)
    fst = trace.call("transducer.build_obs_fst", build_obs_fst, model)
    pf = trace.call("transducer.product_fst", product_fst, fst, secret, sizes=_states)
    sat = trace.call("transducer.output_nfa", output_nfa, pf, "satisfying", sizes=_states)
    vio = trace.call("transducer.output_nfa", output_nfa, pf, "violating", sizes=_states)
    joint = trace.call("automata.intersect", intersect, sat, vio, sizes=_states)
    dfa = trace.call("automata.determinize", determinize, joint, sizes=_states)
    return trace.call(
        "automata.minimize", lambda d: complete(minimize(d)), dfa, sizes=_states
    )


def build(trace: Trace, model, task_text: str, secret_text: str):
    """From the formulas to the product MDP: (secret DFA, opaque DFA, product)."""
    from opaque_planner import dfa_over_model_labels, product_mdp

    task = trace.call("ltlf.to_dfa", dfa_over_model_labels, task_text, model, sizes=_states)
    secret = trace.call("ltlf.to_dfa", dfa_over_model_labels, secret_text, model, sizes=_states)
    opaque = opaque_dfa(trace, model, secret)
    pm = trace.call(
        "planner.product_mdp",
        product_mdp,
        model,
        task,
        opaque,
        sizes=lambda pm: {
            "states": pm.n_states,
            "transitions": sum(len(row) for row in pm.transitions.values()),
        },
    )
    return secret, opaque, pm


def plan(trace: Trace, pm, eps: float, mode: str):
    """One LP of the sweep: (solution, extracted policy)."""
    from opaque_planner import build_lp, extract_policy, solve_lp

    lp = trace.call(
        "planner.build_lp",
        build_lp,
        pm,
        eps,
        mode,
        sizes=lambda lp: {"rows": len(lp.rows), "vars": len(lp.variables), "nnz": lp.a_eq.nnz},
    )
    sol = trace.call(
        "planner.solve_lp",
        solve_lp,
        lp,
        sizes=lambda s: {"iterations": s.iterations, "flow_residual": s.flow_residual or 0.0},
    )
    return sol, trace.call("planner.extract_policy", extract_policy, sol, pm)


def sample(trace: Trace, pm, planned, runs: int, seed: int):
    from opaque_planner import rollout

    sol, policy = planned
    return trace.call(
        "simulate.rollout",
        rollout,
        pm,
        policy,
        runs,
        seed,
        sizes=lambda st: {
            "runs": st.runs,
            "truncated": st.horizon_truncated,
            "expected_steps": float(sol.occupancy.sum()),
        },
    )


# ---------------------------------------------------------------------------
# reference checks


def word_counts(dfa, lengths: int) -> tuple[int, ...]:
    """Accepted words of each length below ``lengths``, by dynamic
    programming over the DFA's transition table."""
    counts = {dfa.initial: 1}
    out = []
    for _ in range(lengths):
        out.append(sum(c for q, c in counts.items() if q in dfa.accepting))
        nxt: dict[int, int] = {}
        for q, c in counts.items():
            for letter in dfa.alphabet:
                t = dfa.transitions.get((q, letter))
                if t is not None:
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return tuple(out)


def check_language(opaque, expected) -> list[str]:
    size, counts = expected
    problems = []
    if opaque.n_states != size:
        problems.append(f"opaque DFA has {opaque.n_states} states, expected {size}")
    got = word_counts(opaque, len(counts))
    if got != counts:
        n = next(i for i, (a, b) in enumerate(zip(got, counts)) if a != b)
        problems.append(f"{got[n]} accepted words of length {n}, expected {counts[n]}")
    return problems


def check_buckets(trace: Trace, model, secret, opaque) -> list[str]:
    """The DFA against brute-force observation buckets of every short play."""
    from opaque_planner.simulate import observation_buckets

    buckets = trace.call(
        "simulate.observation_buckets", observation_buckets, model, secret, ref.BUCKET_DEPTH
    )
    wrong = sum(opaque.accepts(w) != (sat and vio) for w, (sat, vio) in buckets.items())
    return [f"{wrong} of {len(buckets)} bucket words disagree"] if wrong else []


def exact(trace: Trace, pm, policy):
    from opaque_planner import exact_policy_values

    return trace.call("simulate.exact_policy_values", exact_policy_values, pm, policy)


def check_plan(trace, pm, eps, mode, expected, tol, previous):
    """Residual, exact evaluation of the policy, recorded optimum if any,
    and a sweep that never gains by raising the task threshold."""

    def check(planned, counts):
        sol, policy = planned
        problems = []
        if sol.status != "optimal":
            problems.append(f"status {sol.status}")
        if sol.flow_residual > ref.FLOW_RESIDUAL_MAX:
            problems.append(f"flow residual {sol.flow_residual:.3g}")
        values = exact(trace, pm, policy)
        value = values["pt" if mode == "transparency" else "ph"]
        if abs(value - sol.objective) > ref.EXACT_TOL:
            problems.append(f"objective {sol.objective!r} but exact value {value!r}")
        if values["task"] < eps - ref.EXACT_TOL:
            problems.append(f"exact task probability {values['task']!r} below {eps}")
        if expected is not None and abs(sol.objective - expected) > tol:
            problems.append(f"objective {sol.objective!r}, reference {expected!r}")
        if previous is not None and sol.objective > previous + ref.EXACT_TOL:
            problems.append(f"objective {sol.objective!r} rose above {previous!r}")
        return problems

    return check


def check_rollout(trace, pm, planned):
    def check(stats, counts):
        values = exact(trace, pm, planned[1])
        gaps = {
            "PH": abs(stats.ph - values["ph"]),
            "PT": abs(stats.pt - values["pt"]),
            "task": abs(stats.p_task - values["task"]),
        }
        counts["ph_gap"] = max(gaps.values())
        return [
            f"sampled {k} off the exact value by {gap:.4f}"
            for k, gap in gaps.items()
            if gap > ref.SAMPLE_TOL
        ]

    return check


# ---------------------------------------------------------------------------
# workloads


def sweep(p: Pass, pm, mode: str, grid, references: dict, tol: float) -> dict:
    """Plan at every threshold of ``grid`` in increasing order."""
    planned, previous = {}, None
    for eps in sorted(grid):
        check = check_plan(p.trace, pm, eps, mode, references.get(eps), tol, previous)
        planned[eps] = p.op("plan", f"{mode} eps={eps}", lambda: plan(p.trace, pm, eps, mode), check)
        previous = planned[eps][0].objective if planned[eps] else None
    return planned


def running_example_pass(p: Pass, model, seed: int, tiny: bool) -> None:
    rng = random.Random(seed)
    grid = set(TABLE_EPS)
    if not tiny:
        grid |= set(FINE_EPS) | {round(rng.uniform(0.02, 0.98), 4) for _ in range(SEEDED_EPS)}
    runs = 2_000 if tiny else 10_000
    secret_text = "F s6"
    built = p.op(
        "build",
        secret_text,
        lambda: build(p.trace, model, TASK["running-example"], secret_text),
        lambda b, _: check_language(b[1], ref.RUNNING_EXAMPLE_DFA[secret_text])
        + check_buckets(p.trace, model, b[0], b[1]),
    )
    pm = built[2] if built else None
    for mode, table, tol in (
        ("opacity", ref.TABLE_I, ref.TABLE_I_TOL),
        ("transparency", ref.TABLE_II, ref.TABLE_II_TOL),
    ):
        planned = sweep(p, pm, mode, grid, table, tol)
        for eps in TABLE_EPS:
            p.op(
                "rollout",
                f"{mode} eps={eps}",
                lambda: sample(p.trace, pm, planned[eps], runs, seed),
                check_rollout(p.trace, pm, planned[eps]),
            )


def gridworld_pass(p: Pass, model, seed: int, tiny: bool) -> None:
    secret_text = "F B & F A"
    languages = ref.TINY_GRIDWORLD_DFA if tiny else ref.GRIDWORLD_DFA
    optima = ref.TINY_GRIDWORLD_OPTIMA if tiny else ref.GRIDWORLD_OPTIMA
    built = p.op(
        "build",
        secret_text,
        lambda: build(p.trace, model, TASK["gridworld"], secret_text),
        lambda b, _: check_language(b[1], languages[secret_text]),
    )
    pm = built[2] if built else None
    planned = sweep(p, pm, "opacity", TABLE_EPS, optima, ref.GRIDWORLD_TOL)
    eps = TABLE_EPS[0]
    p.op(
        "rollout",
        f"opacity eps={eps}",
        lambda: sample(p.trace, pm, planned[eps], 1_000, GRIDWORLD_ROLLOUT_SEED),
        check_rollout(p.trace, pm, planned[eps]),
    )


def gridworld_build_pass(p: Pass, model, seed: int, tiny: bool) -> None:
    secrets = list(ref.GRIDWORLD_DFA)[: 1 if tiny else None]
    for secret_text in secrets:
        p.op(
            "build",
            secret_text,
            lambda: build(p.trace, model, TASK["gridworld-build"], secret_text),
            lambda b, _: check_language(b[1], ref.GRIDWORLD_DFA[secret_text]),
        )


PASSES = {
    "running-example": running_example_pass,
    "gridworld": gridworld_pass,
    "gridworld-build": gridworld_build_pass,
}


def break_one_reference(workload: str) -> None:
    """Make exactly one reference value of the workload wrong."""
    if workload == "running-example":
        ref.TABLE_I[0.4] += 0.01
    elif workload == "gridworld":
        ref.TINY_GRIDWORLD_OPTIMA[0.4] += 0.01
        ref.GRIDWORLD_OPTIMA[0.4] += 0.01
    else:
        size, counts = ref.GRIDWORLD_DFA["F B & F A"]
        ref.GRIDWORLD_DFA["F B & F A"] = (size + 1, counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=T_START)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.wrong_reference:
        break_one_reference(args.workload)

    trace = Trace(args.trace)
    result = {}
    with trace.span("pass"):
        with trace.span("setup"):
            model = setup(trace, args.workload, args.tiny)
        setup_s = time.monotonic() - args.t0
        clock = HostClock()
        result["setup_wall_s"] = setup_s
        result["setup_s"] = setup_s * REF_LOOP_S / clock.loops[0]
        if not args.setup_only:
            p = Pass(trace, clock)
            PASSES[args.workload](p, model, args.seed, args.tiny)
            clock.tick(force=True)
            result.update(
                total_s=setup_s + clock.work_s,
                work_ref=clock.work_ref,
                ref_loop_s=statistics.median(clock.loops),
                stage_s=p.stage_s,
                attempted=p.attempted,
                failures=p.failures,
            )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace.enabled:
        result["layers"] = layer_metrics(trace.spans)
        result["spans"] = trace.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
