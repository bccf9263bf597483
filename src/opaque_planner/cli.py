"""Command-line front end.

Subcommands: build, plan, simulate, verify, scenario, export-lp,
export-dot.  Every output artifact embeds the run manifest that produced
it.  Exit codes: 0 success, 1 input error or usage error, 2 infeasible
threshold, 3 numerical failure, 4 oracle discrepancy.  ``OPAQUE_PLANNER_LOG``
sets the log level, one of ``LOG_LEVELS`` in any case (default WARNING).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .automata import AutomatonError, Dfa, dfa_from_dict, dfa_to_dict
from .dot import dfa_to_dot, fst_to_dot, nfa_to_dot, product_fst_to_dot
from .ltlf import LtlfError, dfa_over_model_labels
from .model import Model, ModelError, dumps_model, load_model, validate
from .planner import (
    MODES,
    PlannerError,
    build_lp,
    export_lp,
    extract_policy,
    policy_from_dict,
    policy_to_dict,
    product_mdp,
    solve_lp,
)
from .scenarios import (
    GridworldConfig,
    config_to_dict,
    gridworld,
    load_config,
    running_example,
    save_config,
)
from .simulate import (
    SimulationError,
    observation_buckets,
    rollout,
)
from .transducer import opaque_obs_dfa, opaque_pipeline, output_nfa, product_fst

log = logging.getLogger("opaque_planner")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3
EXIT_DISCREPANCY = 4

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


class CliError(Exception):
    pass


@dataclass
class RunManifest:
    """Everything needed to reproduce one invocation, embedded verbatim in
    each output artifact."""

    tool: str = field(default="opaque-planner", init=False)
    version: str = field(default=__version__, init=False)
    command: str
    model_file: str | None = None
    model_sha256: str | None = None
    task: str | None = None
    secret: str | None = None
    opaque_file: str | None = None
    epsilon: float | None = None
    mode: str | None = None
    seed: int | None = None
    runs: int | None = None
    max_actions: int | None = None
    out: str | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_validated_model(path: str | None) -> Model:
    if path is None:
        raise CliError("--model is required")
    model = load_model(path)
    problems = validate(model)
    if problems:
        raise CliError(
            "model fails validation:\n  " + "\n  ".join(problems[:20])
        )
    return model


def _secret_dfa(model: Model, spec: str) -> Dfa:
    """A secret/task argument is either an LTLf formula or a DFA file."""
    if os.path.exists(spec):
        doc = json.loads(Path(spec).read_text())
        return dfa_from_dict(doc)
    return dfa_over_model_labels(spec, model)


def _inputs(model_path, task_spec, secret_spec, opaque_file) -> tuple[Model, Dfa | None, Dfa]:
    """The validated model, the task DFA (None without a task) and the
    :func:`_opaque_dfa` of the secret or ``opaque_file``."""
    model = _load_validated_model(model_path)
    task = None if task_spec is None else _secret_dfa(model, task_spec)
    secret = _secret_dfa(model, secret_spec) if secret_spec and not opaque_file else None
    return model, task, _opaque_dfa(model, secret, opaque_file)


def _opaque_dfa(model: Model, secret: Dfa | None, opaque_file) -> Dfa:
    """The opaque-observations DFA in ``opaque_file``, else built from
    ``secret``; raises ``CliError`` when both are missing."""
    if opaque_file:
        return dfa_from_dict(json.loads(Path(opaque_file).read_text()))
    if secret is None:
        raise CliError("--secret or --opaque is required")
    return opaque_obs_dfa(model, secret)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    model = _load_validated_model(args.model)
    secret = _secret_dfa(model, args.secret)
    build = opaque_pipeline(model, secret)
    # every state of the minimized DFA is reachable
    if not build.dfa.accepting:
        print("warning: the opaque-observations language is empty", file=sys.stderr)
    manifest = RunManifest(
        command="build",
        model_file=args.model,
        model_sha256=_sha256(args.model),
        secret=args.secret,
        out=args.out,
    )
    doc = dfa_to_dict(build.dfa, "observations")
    doc["stats"] = {
        "nfa_states": build.nfa_states,
        "dfa_states": build.dfa_states,
        "minimized_states": build.dfa.n_states,
    }
    doc["manifest"] = manifest.to_dict()
    _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(
        f"opaque-observations DFA: nfa_states={build.nfa_states} "
        f"dfa_states={build.dfa_states} minimized_states={build.dfa.n_states} "
        f"seconds={build.seconds:.4f}"
    )
    return EXIT_OK


def cmd_plan(args) -> int:
    model, task, opaque = _inputs(args.model, args.task, args.secret, args.opaque)
    pm = product_mdp(model, task, opaque)
    lp = build_lp(pm, args.epsilon, args.mode)
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        hint = (
            f"; largest feasible threshold is about {sol.max_feasible_epsilon:.6f}"
            if sol.max_feasible_epsilon is not None
            else ""
        )
        print(f"infeasible at epsilon={args.epsilon:.4f}{hint}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if sol.status != "optimal":
        print(f"solver failure: {sol.message}", file=sys.stderr)
        return EXIT_NUMERICAL
    policy = extract_policy(sol, pm)
    manifest = RunManifest(
        command="plan",
        model_file=args.model,
        model_sha256=_sha256(args.model),
        task=args.task,
        secret=args.secret,
        opaque_file=args.opaque,
        epsilon=args.epsilon,
        mode=args.mode,
        out=args.out,
    )
    metadata = {
        "manifest": manifest.to_dict(),
        "epsilon": args.epsilon,
        "mode": args.mode,
        "objective": sol.objective,
        "solver": {
            "status": sol.status,
            "iterations": sol.iterations,
            "flow_residual": sol.flow_residual,
            "expected_steps": float(sol.occupancy.sum()),
            "task_dual": sol.task_dual,
        },
        "product_states": pm.n_states,
        "quotient_states": pm.quotient.n_blocks,
        "quotient_rounds": pm.quotient.rounds,
        "start_policy_rounds": lp.start_policy_rounds,
        "variables": len(lp.variables),
    }
    if args.out:
        Path(args.out).write_text(
            json.dumps(policy_to_dict(policy, pm, metadata), indent=2, sort_keys=True)
            + "\n"
        )
    print(f"{args.epsilon:.4f} {sol.objective:.4f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.runs < 1:
        raise CliError("--runs must be a positive integer")
    doc = json.loads(Path(args.policy).read_text())
    if not isinstance(doc, dict):
        raise CliError("policy file must hold a JSON object")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise CliError("policy metadata must be an object")
    manifest = meta.get("manifest", {})
    if not isinstance(manifest, dict):
        raise CliError("policy manifest must be an object")
    for key in ("task", "secret", "opaque_file"):
        if not isinstance(manifest.get(key, ""), str):
            raise CliError(f"policy manifest: {key} must be a string")
    for key in ("objective", "epsilon"):
        value = meta.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise CliError(f"policy metadata: {key} must be a number")
    mode = meta.get("mode", "opacity")
    if mode not in MODES:
        raise CliError(f"policy metadata: mode must be one of {', '.join(MODES)}, not {mode!r}")
    if manifest.get("model_sha256") and manifest["model_sha256"] != _sha256(args.model):
        raise CliError("policy was planned against a different model file")
    task_spec = args.task or manifest.get("task")
    if task_spec is None:
        raise CliError("policy metadata lacks the task; pass --task")
    secret_spec = args.secret or manifest.get("secret")
    opaque_file = args.opaque or manifest.get("opaque_file")
    model, task, opaque = _inputs(args.model, task_spec, secret_spec, opaque_file)
    pm = product_mdp(model, task, opaque)
    policy = policy_from_dict(doc, pm)
    stats = rollout(pm, policy, runs=args.runs, seed=args.seed)
    shown = stats.pt if mode == "transparency" else stats.ph
    objective = meta.get("objective")
    obj_text = f"{objective:.4f}" if objective is not None else "   -  "
    eps = meta.get("epsilon")
    eps_text = f"{eps:.4f}" if eps is not None else "   -  "
    print("threshold  max_value  exp_value  exp_task")
    print(f"{eps_text}     {obj_text}     {shown:.4f}     {stats.p_task:.4f}")
    out_doc = {
        "manifest": RunManifest(
            command="simulate",
            model_file=args.model,
            model_sha256=_sha256(args.model),
            seed=args.seed,
            runs=args.runs,
            out=args.out,
        ).to_dict(),
        "policy_metadata": meta,
        "stats": stats.to_dict(),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(out_doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_validated_model(args.model)
    secret = _secret_dfa(model, args.secret)
    opaque = _opaque_dfa(model, secret, args.opaque)
    buckets = observation_buckets(model, secret, args.max_actions)
    oracle = frozenset(w for w, (sat, vio) in buckets.items() if sat and vio)
    ordered = sorted(buckets, key=lambda w: tuple(sym.sort_key for sym in w))
    mismatches = [w for w in ordered if opaque.accepts(w) != (w in oracle)]
    print(
        f"realizable observations: {len(buckets)}; opaque (oracle): {len(oracle)}; "
        f"discrepancies: {len(mismatches)}"
    )
    if mismatches:
        sample = " ".join(str(sym) for sym in mismatches[0])
        print(f"counterexample: {sample}", file=sys.stderr)
        return EXIT_DISCREPANCY
    return EXIT_OK


def cmd_scenario(args) -> int:
    if args.name == "running-example":
        model = running_example()
    elif args.name == "gridworld":
        if args.emit_default_config:
            cfg = GridworldConfig()
            if args.out:
                save_config(cfg, args.out)
            else:
                print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
            return EXIT_OK
        cfg = load_config(args.config) if args.config else GridworldConfig()
        model = gridworld(cfg)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown scenario {args.name!r}")
    _write(args.out, dumps_model(model))
    return EXIT_OK


def cmd_export_lp(args) -> int:
    model, task, opaque = _inputs(args.model, args.task, args.secret, args.opaque)
    lp = build_lp(product_mdp(model, task, opaque), args.epsilon, args.mode)
    _write(args.out, export_lp(lp))
    return EXIT_OK


def cmd_export_dot(args) -> int:
    if args.dfa:
        doc = json.loads(Path(args.dfa).read_text())
        _write(args.out, dfa_to_dot(dfa_from_dict(doc)))
        return EXIT_OK
    model = _load_validated_model(args.model)
    what = args.what
    if what == "fst":
        text = fst_to_dot(model)
    elif not args.secret:
        raise CliError(f"--secret is required for --what {what}")
    elif what == "opaque-dfa":
        text = dfa_to_dot(opaque_obs_dfa(model, _secret_dfa(model, args.secret)))
    else:
        pf = product_fst(model, _secret_dfa(model, args.secret))
        if what == "product-fst":
            text = product_fst_to_dot(pf)
        else:
            which = "satisfying" if what == "nfa-satisfying" else "violating"
            text = nfa_to_dot(output_nfa(pf, which))
    _write(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A usage error prints the usage line and raises ``CliError``, an
    input error (argparse exits 2, the infeasible code); subparsers
    share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _add_common_planning(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--task", required=True, help="task formula or DFA file")
    p.add_argument("--secret", help="secret formula or DFA file")
    p.add_argument("--opaque", help="prebuilt opaque-observations DFA file")
    p.add_argument("--epsilon", type=float, default=0.0, help="task threshold")
    p.add_argument("--mode", choices=MODES, default="opacity", help="maximize opacity or transparency")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opaque-planner",
        description=(
            "Synthesize randomized policies that maximize probabilistic "
            "opacity or transparency subject to a task threshold."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="construct the opaque-observations DFA")
    p.add_argument("--model", required=True)
    p.add_argument("--secret", required=True, help="secret formula or DFA file")
    p.add_argument("--out", help="output DFA JSON path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("plan", help="solve the constrained planning LP")
    _add_common_planning(p)
    p.add_argument("--out", help="policy JSON path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="Monte-Carlo rollout of a policy")
    p.add_argument("--model", required=True)
    p.add_argument("--policy", required=True, help="policy JSON from plan")
    p.add_argument("--task", help="override task recorded in the policy")
    p.add_argument("--secret", help="override secret recorded in the policy")
    p.add_argument("--opaque", help="prebuilt opaque DFA file")
    p.add_argument("--runs", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="stats JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="cross-check the DFA against brute force")
    p.add_argument("--model", required=True)
    p.add_argument("--secret", required=True)
    p.add_argument("--opaque", help="check a prebuilt opaque DFA instead")
    p.add_argument("--max-actions", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scenario", help="emit a built-in model as JSON")
    p.add_argument("name", choices=("running-example", "gridworld"))
    p.add_argument("--config", help="gridworld config JSON")
    p.add_argument("--emit-default-config", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("export-lp", help="write the LP in CPLEX text form")
    _add_common_planning(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("export-dot", help="Graphviz rendering of automata")
    p.add_argument("--model")
    p.add_argument("--secret")
    p.add_argument("--dfa", help="render a DFA JSON file directly")
    p.add_argument(
        "--what",
        choices=("fst", "product-fst", "nfa-satisfying", "nfa-violating", "opaque-dfa"),
        default="opaque-dfa",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)
    return parser


def _bind_epsilon(argv) -> list[str]:
    """``--epsilon -inf`` as ``--epsilon=-inf``: argparse takes a value
    that starts with "-" and is not a plain decimal, such as ``-inf``, for
    an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--epsilon" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    level = os.environ.get("OPAQUE_PLANNER_LOG", "WARNING").upper()
    if level not in LOG_LEVELS:
        print(f"error: OPAQUE_PLANNER_LOG must be one of {', '.join(LOG_LEVELS)}", file=sys.stderr)
        return EXIT_INPUT
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(_bind_epsilon(sys.argv[1:] if argv is None else argv))
        code = args.func(args)
    except (CliError, ModelError, AutomatonError, LtlfError, PlannerError,
            SimulationError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    log.info("%s finished in %.3fs", args.subcommand, time.monotonic() - started)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
