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
communication error, 5 numeric failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .config import WEIGHT_KEYS, load_run_config
from .engine import MODES, encode_inputs, evaluate, load_checkpoint, run_continual
from .errors import ConfigError, DataError, MtclError, exit_code_for, write_output
from .taskstream import SPLITS, GeneratorConfig, generate_synthetic_stream, load_manifest
from .taskstream import load_task
from .teachers import teacher_from_config
from .weights import TRACE_COLUMNS, WeightConfig, assemble_weights, trace_row
from .weights import is_finite_number

# Most grid points ``inspect-weights --sweep-ir`` tabulates.
MAX_SWEEP_POINTS = 10**6


def _add_keyed_flags(parser, prefix: str, names, kind) -> None:
    """``--name NAME`` for each of ``names``, setting the config key ``prefix + name``."""
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=kind, dest=prefix + name, metavar=name.upper())


def _teacher_entry(kind: str, field: str, convert):
    """An argparse type turning a flag's value into an ``llm_teacher`` entry."""
    def entry(text):
        return {"kind": kind, field: convert(text)}

    entry.__name__ = convert.__name__  # argparse's "invalid float value" names it
    return entry


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
    run.add_argument("--mode", choices=MODES, help="override the mode")
    _add_keyed_flags(run, "optimizer.", ("epochs", "batch_size"), int)
    _add_keyed_flags(run, "optimizer.", ("learning_rate",), float)
    run.add_argument("--temperature", type=float)
    _add_keyed_flags(run, "weights.", WEIGHT_KEYS, float)
    teacher = run.add_mutually_exclusive_group()
    for flag, kind, field, convert, text in (
        ("--oracle-accuracy", "noisy-oracle", "accuracy", float,
         "use a noisy-oracle general teacher with this accuracy"),
        ("--fixture", "fixture", "path", str,
         "use a recorded score-fixture file as the general teacher"),
        ("--service-url", "service", "base_url", str,
         "use a remote scoring service as the general teacher"),
    ):
        teacher.add_argument(
            flag, type=_teacher_entry(kind, field, convert), dest="llm_teacher",
            metavar=flag[2:].replace("-", "_").upper(), help=text,
        )

    gen = sub.add_parser("generate", help="write a synthetic task stream")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--tasks", type=int)
    gen.add_argument("--classes-per-task", type=int)
    gen.add_argument("--features", type=int, dest="feature_length")
    gen.add_argument("--samples-per-task", type=int)
    gen.add_argument("--imbalance", type=float)
    gen.add_argument("--overlap", type=float)
    gen.add_argument("--shift", type=float)
    gen.add_argument("--cluster-std", type=float)

    insp = sub.add_parser(
        "inspect-weights", help="print the weight assignment for given measurements"
    )
    insp.add_argument("--acc-prev", type=float, required=True)
    insp.add_argument("--acc-llm", type=float, required=True)
    insp.add_argument("--ir", type=float, default=1.0)
    _add_keyed_flags(insp, "", WEIGHT_KEYS, float)
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
    ev.add_argument("--split", choices=SPLITS, default="test")
    return parser


def _given_fields(args, config_class) -> dict:
    """The flags named after ``config_class``'s fields that were set; an
    omitted flag leaves that field's default in place."""
    names = (f.name for f in fields(config_class))
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def cmd_run(args) -> int:
    # Every other attribute is a flag named by the config key it sets.
    overrides = {key: value for key, value in vars(args).items() if value is not None}
    del overrides["command"], overrides["config"]
    cfg = load_run_config(args.config, overrides)
    manifest = load_manifest(cfg.manifest)
    settings = cfg.settings
    # Built in every mode, which checks every field; only ``ours`` queries it.
    llm = teacher_from_config(
        cfg.llm_teacher, vocab=manifest.vocab, default_seed=settings.seed
    ) if cfg.llm_teacher is not None else None
    out = cfg.resolved_output_dir()
    cfg.save(out / "resolved_config.json")
    digest = cfg.digest()
    run_info = {
        "tool_version": __version__,
        "seed": settings.seed,
        "config_digest": digest,
        "mode": settings.mode,
    }
    write_output(out / "run_info.json", json.dumps(run_info, indent=2) + "\n", "run info")
    try:
        rows, _, _ = run_continual(
            manifest,
            settings,
            cfg.weights,
            llm_teacher=llm,
            run_dir=str(out),
            config_digest=digest,
        )
    finally:
        # The teacher opens its connection on the first query, inside the run.
        if llm is not None:
            llm.close()
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
    cfg = GeneratorConfig(**_given_fields(args, GeneratorConfig))
    manifest_path = generate_synthetic_stream(cfg, args.seed, args.out)
    print(manifest_path)
    return 0


def cmd_inspect_weights(args) -> int:
    cfg = WeightConfig(**_given_fields(args, WeightConfig))
    if args.class_count is not None and not (
        is_finite_number(args.class_count) and args.class_count >= 1
    ):
        raise ConfigError(
            f"--class-count must be an integer >= 1 that a float holds, got {args.class_count}"
        )

    def assemble(ir):
        try:
            return assemble_weights(
                cfg, args.acc_prev, args.acc_llm, ir, class_count=args.class_count
            )
        except ValueError as exc:  # a measurement out of its range
            raise ConfigError(str(exc)) from exc

    if args.sweep_ir:
        try:
            start, stop, count = args.sweep_ir.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise ConfigError(f"--sweep-ir expects START:STOP:COUNT: {exc}") from exc
        if not is_finite_number(stop - start):  # also catches a non-finite end
            raise ConfigError(
                f"--sweep-ir START and STOP must be finite, as must STOP - START, "
                f"got {start}:{stop}"
            )
        if not 0 <= count <= MAX_SWEEP_POINTS:
            raise ConfigError(
                f"--sweep-ir COUNT must be in [0, {MAX_SWEEP_POINTS}], got {count}"
            )
        grid = np.linspace(start, stop, count)
        rows = [(ir, assemble(float(ir))[0]) for ir in grid]
        print("ir beta chi")
        for ir, triple in rows:
            print(f"{ir:.6f} {triple.beta:.6f} {triple.chi:.6f}")
        return 0
    row = trace_row(0, *assemble(args.ir))
    for name in TRACE_COLUMNS[2:]:  # the measurements and weights, not t and epoch
        print(f"{name} = {row[name]:.6f}")
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    widths = (model.feature_length, model.question_length)
    expected = (manifest.feature_length, len(manifest.vocab) + 1)
    if widths != expected:
        raise DataError(
            f"checkpoint {args.checkpoint} takes {widths[0]} features and questions "
            f"of width {widths[1]}; manifest {args.manifest} gives {expected[0]} and "
            f"{expected[1]}"
        )
    dataset = load_task(manifest, args.task, args.split)
    accuracy, macro_f1 = evaluate(
        model, dataset, encode_inputs(dataset.samples, manifest.vocab, model.feature_length)
    )
    print(f"task{args.task} ({args.split})  accuracy={accuracy:.4f}  macro_f1={macro_f1:.4f}")
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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
