"""Command-line interface: run experiments, generate streams, inspect.

Commands:

* ``run CONFIG``: execute a full continual run from a JSON config,
  writing metrics, weight trace, and checkpoints to the output
  directory.  Flags override individual config values.
* ``generate``: write a synthetic task stream (manifest, task files,
  ground-truth sidecar) for a parameter set and seed.
* ``inspect-weights``: print the weight assignment for given teacher
  accuracies and imbalance ratio, or sweep the ratio over a grid.
* ``eval``: score a saved checkpoint against one task split.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 teacher
communication error, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .config import load_run_config
from .engine import evaluate, load_checkpoint, run_continual
from .errors import ConfigError, MtclError, exit_code_for
from .taskstream import GeneratorConfig, generate_synthetic_stream, load_manifest, load_task
from .teachers import teacher_from_config
from .weights import WeightConfig, assemble_weights


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtcl",
        description="Continual answer classification with two-teacher distillation.",
    )
    parser.add_argument("--version", action="version", version=f"mtcl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a run from a JSON config")
    run.add_argument("config", help="path to the run config file")
    run.add_argument("--manifest", help="override the stream manifest path")
    run.add_argument("--output-dir", help="override the output directory")
    run.add_argument("--seed", type=int, help="override the run seed")
    run.add_argument("--mode", choices=("ours", "ft", "lwf"), help="override the mode")
    run.add_argument("--epochs", type=int)
    run.add_argument("--batch-size", type=int)
    run.add_argument("--learning-rate", type=float)
    run.add_argument("--temperature", type=float)
    run.add_argument("--alpha", type=float)
    run.add_argument("--theta-ds", type=float)
    run.add_argument("--theta-di", type=float)
    run.add_argument("--log-base", type=float)
    run.add_argument(
        "--oracle-accuracy", type=float,
        help="use a noisy-oracle general teacher with this accuracy",
    )
    run.add_argument(
        "--fixture", help="use a recorded score-fixture file as the general teacher"
    )
    run.add_argument(
        "--service-url", help="use a remote scoring service as the general teacher"
    )

    gen = sub.add_parser("generate", help="write a synthetic task stream")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--tasks", type=int, default=3)
    gen.add_argument("--classes-per-task", type=int, default=6)
    gen.add_argument("--features", type=int, default=16)
    gen.add_argument("--samples-per-task", type=int, default=1200)
    gen.add_argument("--imbalance", type=float, default=1.0)
    gen.add_argument("--overlap", type=float, default=0.5)
    gen.add_argument("--shift", type=float, default=4.0)
    gen.add_argument("--cluster-std", type=float, default=1.0)

    insp = sub.add_parser(
        "inspect-weights", help="print the weight assignment for given measurements"
    )
    insp.add_argument("--acc-prev", type=float, required=True)
    insp.add_argument("--acc-llm", type=float, required=True)
    insp.add_argument("--ir", type=float, default=1.0)
    insp.add_argument("--alpha", type=float, default=0.2)
    insp.add_argument("--theta-ds", type=float, default=0.4)
    insp.add_argument("--theta-di", type=float, default=0.4)
    insp.add_argument("--log-base", type=float)
    insp.add_argument(
        "--class-count", type=int,
        help="derive the log base from this class count when --log-base is unset",
    )
    insp.add_argument(
        "--sweep-ir", metavar="START:STOP:COUNT",
        help="tabulate weights over an imbalance-ratio grid instead of one value",
    )

    ev = sub.add_parser("eval", help="score a checkpoint against one task split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--task", type=int, required=True)
    ev.add_argument("--split", choices=("train", "test"), default="test")
    return parser


def _run_overrides(args) -> dict:
    pairs = {
        "manifest": args.manifest,
        "output_dir": args.output_dir,
        "seed": args.seed,
        "mode": args.mode,
        "temperature": args.temperature,
        "optimizer.epochs": args.epochs,
        "optimizer.batch_size": args.batch_size,
        "optimizer.learning_rate": args.learning_rate,
        "weights.alpha": args.alpha,
        "weights.theta_ds": args.theta_ds,
        "weights.theta_di": args.theta_di,
        "weights.log_base": args.log_base,
    }
    overrides = {k: v for k, v in pairs.items() if v is not None}
    teacher_flags = [
        flag for flag in (args.oracle_accuracy, args.fixture, args.service_url)
        if flag is not None
    ]
    if len(teacher_flags) > 1:
        raise ConfigError(
            "choose at most one of --oracle-accuracy, --fixture, --service-url"
        )
    if args.oracle_accuracy is not None:
        overrides["llm_teacher"] = {
            "kind": "noisy-oracle", "accuracy": args.oracle_accuracy,
        }
    elif args.fixture is not None:
        overrides["llm_teacher"] = {"kind": "fixture", "path": args.fixture}
    elif args.service_url is not None:
        overrides["llm_teacher"] = {"kind": "service", "base_url": args.service_url}
    return overrides


def cmd_run(args) -> int:
    cfg = load_run_config(args.config, _run_overrides(args))
    manifest = load_manifest(cfg.manifest)
    llm = None
    if cfg.llm_teacher is not None:
        llm = teacher_from_config(
            cfg.llm_teacher, vocab=manifest.vocab, default_seed=cfg.seed
        )
    out = cfg.resolved_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "resolved_config.json")
    (out / "run_info.json").write_text(
        json.dumps(
            {
                "tool_version": __version__,
                "seed": cfg.seed,
                "config_digest": cfg.digest(),
                "mode": cfg.mode,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    rows, _, _ = run_continual(
        manifest,
        cfg.train_settings(),
        cfg.weight_config(),
        llm_teacher=llm,
        run_dir=str(out),
        config_digest=cfg.digest(),
    )
    final_t = max(row.t for row in rows)
    print(f"results after task {final_t} (run dir: {out})")
    for row in rows:
        if row.t == final_t:
            print(
                f"  {row.dataset:>8}  accuracy={row.accuracy:.4f}  "
                f"macro_f1={row.macro_f1:.4f}"
            )
    return 0


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        tasks=args.tasks,
        classes_per_task=args.classes_per_task,
        feature_length=args.features,
        samples_per_task=args.samples_per_task,
        imbalance=args.imbalance,
        overlap=args.overlap,
        shift=args.shift,
        cluster_std=args.cluster_std,
    )
    manifest_path = generate_synthetic_stream(cfg, args.seed, args.out)
    print(manifest_path)
    return 0


def cmd_inspect_weights(args) -> int:
    cfg = WeightConfig(
        alpha=args.alpha,
        theta_ds=args.theta_ds,
        theta_di=args.theta_di,
        log_base=args.log_base,
    )
    if args.sweep_ir:
        try:
            start, stop, count = args.sweep_ir.split(":")
            grid = np.linspace(float(start), float(stop), int(count))
        except ValueError as exc:
            raise ConfigError(f"--sweep-ir expects START:STOP:COUNT: {exc}") from exc
        print("ir beta chi")
        for ir in grid:
            triple, _ = assemble_weights(
                cfg, args.acc_prev, args.acc_llm, float(ir),
                class_count=args.class_count,
            )
            print(f"{ir:.6f} {triple.beta:.6f} {triple.chi:.6f}")
        return 0
    triple, breakdown = assemble_weights(
        cfg, args.acc_prev, args.acc_llm, args.ir, class_count=args.class_count
    )
    for name in ("acc_prev", "acc_llm", "ir", "beta_ds", "chi_ds", "beta_di", "chi_di"):
        print(f"{name} = {getattr(breakdown, name):.6f}")
    for name in ("alpha", "beta", "chi"):
        print(f"{name} = {getattr(triple, name):.6f}")
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    dataset = load_task(manifest, args.task, args.split)
    row = evaluate(model, dataset, manifest.vocab)
    print(
        f"task{args.task} ({args.split})  accuracy={row.accuracy:.4f}  "
        f"macro_f1={row.macro_f1:.4f}"
    )
    return 0


_COMMANDS = {
    "run": cmd_run,
    "generate": cmd_generate,
    "inspect-weights": cmd_inspect_weights,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except MtclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
