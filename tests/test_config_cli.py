"""Run configuration, overrides, presets, CLI commands, the exit-code mapping.

Each documented failure is a row of ``test_failures.py``.
"""

import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import SMALL, interrupt_write, read_metrics_csv

import mtcl
from mtcl.bridge import tokenize_labels, write_fixture
from mtcl.cli import main
from mtcl.config import LAYOUT, SETTING_NAMES, build_run_config, load_run_config
from mtcl.engine import MODES, RunDir, TrainSettings
from mtcl.errors import (
    ConfigError,
    DataError,
    MtclError,
    NumericError,
    TeacherQueryError,
    exit_code_for,
)
from mtcl.taskstream import GeneratorConfig, generate_synthetic_stream, load_manifest, load_task
from mtcl.weights import WeightConfig


EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"
README = EXPERIMENTS.parent / "README.md"


def base_payload(**extra):
    payload = {
        "manifest": "stream/manifest.json",
        "mode": "ours",
        "llm_teacher": {"kind": "noisy-oracle", "accuracy": 0.8},
    }
    payload.update(extra)
    return payload


def nest(flat):
    """The settings ``flat`` in a config file's layout."""
    payload = {}
    for key, section in LAYOUT.items():
        if section is None and key in flat:
            payload[key] = flat[key]
        elif section is not None and any(name in flat for name in section):
            payload[key] = {name: flat[name] for name in section if name in flat}
    return payload


@st.composite
def valid_settings(draw):
    """Every setting of a run, each valid, flat."""
    alpha, share = draw(st.floats(0, 1)), draw(st.floats(0, 1))
    flat = draw(st.fixed_dictionaries({
        "manifest": st.just("stream/manifest.json"),
        "mode": st.sampled_from(MODES),
        "seed": st.integers(0, 2**64),
        "output_dir": st.sampled_from(["runs/a", "out"]),
        "temperature": st.floats(1e-3, 1e3) | st.integers(1, 9),
        "log_base": st.none() | st.floats(1.5, 1e6),
        "learning_rate": st.floats(1e-6, 10),
        "epochs": st.integers(1, 100),
        "batch_size": st.integers(1, 10**9),
        "hidden1": st.integers(1, 64),
        "hidden2": st.integers(1, 64),
        "llm_teacher": st.just({"kind": "noisy-oracle", "accuracy": 0.8}),
    }))
    return {**flat, "alpha": alpha, "theta_ds": (1 - alpha) * share,
            "theta_di": (1 - alpha) * (1 - share)}


class TestBuildRunConfig:
    def test_defaults_fill_in(self):
        cfg = build_run_config(base_payload())
        settings = cfg.settings
        assert cfg.weights.alpha == 0.2
        assert (settings.learning_rate, settings.epochs, settings.batch_size) == (0.05, 30, 32)
        assert (settings.hidden1, settings.hidden2) == (32, 32)
        assert settings.temperature == 2.0
        assert settings.mode == "ours"

    def test_every_violation_reported_at_once(self):
        payload = base_payload(
            weights={"alpha": 2.0, "theta_ds": 0.4, "theta_di": 0.4},
            optimizer={"learning_rate": -1.0},
            zzz=1,
        )
        with pytest.raises(ConfigError) as info:
            build_run_config(payload)
        message = str(info.value)
        for fragment in ("alpha", "learning_rate", "unknown key zzz"):
            assert fragment in message

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="optimizer.momentum"):
            build_run_config(base_payload(optimizer={"momentum": 0.9}))
        for value in ("per-task", "per-epoch"):
            with pytest.raises(ConfigError, match="weights.recompute") as info:
                build_run_config(base_payload(weights={"recompute": value}))
            assert exit_code_for(info.value) == 2

    def test_output_dir_checked_with_the_other_violations(self):
        with pytest.raises(ConfigError) as info:
            build_run_config(base_payload(output_dir=None, seed="s"))
        assert info.value.violations == [
            "output_dir must be a non-empty path, got None",
            "seed must be an integer >= 0, got 's'",
        ]

    def test_manifest_required(self):
        payload = base_payload()
        del payload["manifest"]
        with pytest.raises(ConfigError, match="manifest"):
            build_run_config(payload)

    def test_fine_tuning_preset_rewrites_weights(self):
        payload = base_payload(
            mode="ft",
            weights={"alpha": 0.2, "theta_ds": 0.4, "theta_di": 0.4},
        )
        del payload["llm_teacher"]
        cfg = build_run_config(payload)
        assert cfg.weights.alpha == 1.0
        assert cfg.weights.theta_ds == 0.0
        assert cfg.weights.theta_di == 0.0

    def test_single_teacher_preset_needs_no_general_teacher(self):
        payload = base_payload(mode="lwf")
        del payload["llm_teacher"]
        cfg = build_run_config(payload)
        assert cfg.llm_teacher is None

    def test_adaptive_mode_requires_general_teacher(self):
        payload = base_payload()
        del payload["llm_teacher"]
        with pytest.raises(ConfigError, match="llm_teacher"):
            build_run_config(payload)

    def test_theta_constraint_checked(self):
        payload = base_payload(
            weights={"alpha": 0.2, "theta_ds": 0.7, "theta_di": 0.4}
        )
        with pytest.raises(ConfigError, match="1 - alpha"):
            build_run_config(payload)

    def test_overrides_win_over_file(self):
        """An override names its setting, not the section the file keeps it in."""
        cfg = build_run_config(
            base_payload(seed=1, optimizer={"epochs": 3}, weights=None),
            {"seed": 9, "alpha": 0.5, "theta_ds": 0.25, "theta_di": 0.25, "epochs": 7},
        )
        assert cfg.settings.seed == 9
        assert cfg.weights.alpha == 0.5
        assert cfg.settings.epochs == 7

    def test_layout_names_each_setting_once(self):
        """The file's sections hold every field of the two settings classes,
        and the plain keys the rest of a run's settings, each once."""
        expected = [f.name for cls in (TrainSettings, WeightConfig) for f in fields(cls)]
        expected += ["manifest", "output_dir", "llm_teacher"]
        assert sorted(SETTING_NAMES) == sorted(expected)
        assert len(set(SETTING_NAMES)) == len(SETTING_NAMES)

    @settings(max_examples=100, deadline=None)
    @given(flat=valid_settings(), moved=st.sets(st.sampled_from(SETTING_NAMES)))
    def test_a_setting_resolves_alike_in_the_file_or_as_an_override(self, flat, moved):
        in_file = build_run_config(nest(flat))
        mixed = build_run_config(nest({k: v for k, v in flat.items() if k not in moved}),
                                 {name: flat[name] for name in moved})
        assert mixed.resolved_dict() == in_file.resolved_dict()
        assert mixed.digest() == in_file.digest()
        if flat["mode"] == "ft":
            flat.update(alpha=1.0, theta_ds=0.0, theta_di=0.0)
        assert in_file.resolved_dict() == nest(flat)

    @pytest.mark.parametrize("name", ["foo", "optimizer.epochs", "weights", "optimizer"])
    def test_override_of_no_setting_rejected(self, name):
        with pytest.raises(ConfigError) as info:
            build_run_config(base_payload(), {name: 1})
        assert info.value.violations == [f"unknown key {name}"]

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("ours.json", "ed53a6aa467461ac"),
            ("lwf.json", "bd78defdfb4fe7b5"),
            ("ft.json", "4fe4ad413c9a5521"),
            (None, "2f9317af24e25391"),
        ],
        ids=["ours", "lwf", "ft", "lwf-all-defaults"],
    )
    def test_shipped_configs_keep_digest_and_key_order(self, name, digest):
        if name is None:
            payload = {"manifest": "stream/manifest.json", "mode": "lwf"}
        else:
            with open(EXPERIMENTS / name, encoding="utf-8") as fh:
                payload = json.load(fh)
        cfg = build_run_config(payload)
        assert cfg.digest() == digest
        # The digest sorts its keys; this pins the layout of resolved_config.json.
        resolved = cfg.resolved_dict()
        assert list(resolved) == [
            "manifest", "mode", "seed", "output_dir", "temperature",
            "weights", "optimizer", "model", "llm_teacher",
        ]
        assert list(resolved["weights"]) == ["alpha", "theta_ds", "theta_di", "log_base"]
        assert list(resolved["optimizer"]) == ["learning_rate", "epochs", "batch_size"]
        assert list(resolved["model"]) == ["hidden1", "hidden2"]


class TestDigest:
    def test_ignores_output_location_only(self):
        a = build_run_config(base_payload(output_dir="runs/a"))
        b = build_run_config(base_payload(output_dir="runs/b"))
        c = build_run_config(base_payload(seed=99))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 16
        int(a.digest(), 16)

    def test_save_roundtrips_through_load(self, tmp_path):
        cfg = build_run_config(base_payload(manifest=str(tmp_path / "m.json")))
        RunDir(tmp_path, cfg.digest()).start(cfg.resolved_dict())
        # resolved files carry no unknown keys and reload to the same digest
        reloaded = load_run_config(tmp_path / "resolved_config.json")
        assert reloaded.digest() == cfg.digest()


class TestLoadRunConfig:
    def test_relative_manifest_resolves_against_config_file(self, tmp_path):
        nest = tmp_path / "configs"
        nest.mkdir()
        (nest / "run.json").write_text(json.dumps(base_payload()))
        cfg = load_run_config(nest / "run.json")
        assert cfg.manifest == str(nest / "stream/manifest.json")

    def test_absolute_manifest_untouched(self, tmp_path):
        payload = base_payload(manifest=str(tmp_path / "elsewhere/manifest.json"))
        (tmp_path / "run.json").write_text(json.dumps(payload))
        cfg = load_run_config(tmp_path / "run.json")
        assert cfg.manifest == str(tmp_path / "elsewhere/manifest.json")

    def test_overridden_manifest_taken_as_is(self, tmp_path):
        (tmp_path / "run.json").write_text(json.dumps(base_payload()))
        cfg = load_run_config(
            tmp_path / "run.json", {"manifest": "other/manifest.json"}
        )
        assert cfg.manifest == "other/manifest.json"

    def test_unreadable_or_invalid_config(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        # Also nesting past the recursion limit and an integer over
        # Python's 4,300-digit limit.
        for text in ("{ nope", "[" * 100_000, '{"seed": ' + "1" * 5000 + "}"):
            bad.write_text(text)
            with pytest.raises(ConfigError, match="JSON"):
                load_run_config(bad)


class TestExitCodes:
    def test_mapping(self):
        assert exit_code_for(ConfigError(["x"])) == 2
        assert exit_code_for(DataError("x")) == 3
        assert exit_code_for(TeacherQueryError("x")) == 4
        assert exit_code_for(NumericError("x")) == 5
        assert exit_code_for(MtclError("x")) == 1

    def test_one_class_per_documented_code(self):
        """``MtclError``'s direct subclasses are the classes README's table
        names, with its codes, and nothing in the package subclasses them."""
        table = README.read_text(encoding="utf-8").split("\n## Exit codes\n")[1]
        documented = {name: int(code) for code, name in
                      re.findall(r"^\| (\d+) +\|.*\| `(\w+Error)` +\|$", table, re.MULTILINE)}
        classes = MtclError.__subclasses__()
        assert {cls.__name__: cls.exit_code for cls in classes} == documented
        assert sorted(documented.values()) == [2, 3, 4, 5]
        bases = {node.id for path in Path(mtcl.__file__).parent.glob("*.py")
                 for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(cls, ast.ClassDef) for node in cls.bases
                 if isinstance(node, ast.Name)}
        assert bases.isdisjoint(documented), bases

    def test_package_raises_only_its_exit_code_classes(self):
        """Every ``raise`` in the package raises one of the four exit-code
        classes, ``error(...)`` (a class its caller picked) or re-raises,
        but for three exceptions that never leave their module: the base
        ``Teacher.score_table``'s NotImplementedError, the ValueError that
        ``_endpoint`` catches itself, and ``_read_reply``'s
        ConnectionResetError, which the client retries as an OSError."""
        allowed = {"ConfigError", "DataError", "TeacherQueryError", "NumericError", "error"}
        named = {("Teacher.score_table", "NotImplementedError"), ("_endpoint", "ValueError"),
                 ("_read_reply", "ConnectionResetError")}
        strays = []
        for path in sorted(Path(mtcl.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scope = {}  # each node by the qualified name of its innermost class or def
            for node in ast.walk(tree):  # outer definitions come before inner ones
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    name = f"{scope[node]}.{node.name}" if node in scope else node.name
                    for inner in ast.walk(node):
                        scope[inner] = name
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
                    where = scope.get(node, "")
                    if raised not in allowed and (where, raised) not in named:
                        strays.append(f"{path.name}:{node.lineno} {where} raises {raised}")
        assert strays == []

    def test_errors_alone_owns_the_value_rules(self):
        """No module but ``errors`` defines a value check (a leading ``_``
        does not hide a copy), and the stream, teacher and bridge modules
        import nothing from ``weights``, which holds the weight rule alone."""
        rules = {"checked", "must_be", "is_integer", "is_number", "is_finite_number"}
        strays = []
        for path in sorted(Path(mtcl.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.Assign)) and path.name != "errors.py":
                    names = [node.name] if isinstance(node, ast.FunctionDef) else [
                        target.id for target in node.targets if isinstance(target, ast.Name)]
                    strays += [f"{path.name}:{node.lineno} defines {name}"
                               for name in names if name.lstrip("_") in rules]
                if (isinstance(node, (ast.Import, ast.ImportFrom))
                        and path.name in ("taskstream.py", "teachers.py", "bridge.py")):
                    modules = [getattr(node, "module", None) or "",
                               *(alias.name for alias in node.names)]
                    strays += [f"{path.name}:{node.lineno} imports {module}"
                               for module in modules if "weights" in module.split(".")]
        assert strays == []


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    generate_synthetic_stream(SMALL, seed=5, out_dir=root / "stream")
    config = {
        "manifest": "stream/manifest.json",
        "mode": "ours",
        "seed": 5,
        "output_dir": "unused",
        "temperature": 2.0,
        "weights": {"alpha": 0.2, "theta_ds": 0.4, "theta_di": 0.4},
        "optimizer": {"learning_rate": 0.05, "epochs": 2, "batch_size": 16},
        "model": {"hidden1": 16, "hidden2": 16},
        "llm_teacher": {"kind": "noisy-oracle", "accuracy": 0.8},
    }
    (root / "run.json").write_text(json.dumps(config, indent=2))
    return root


class TestCliRun:
    def test_full_run_writes_artifacts(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "ours"
        code = main(
            ["run", str(cli_workspace / "run.json"), "--output-dir", str(out)]
        )
        assert code == 0
        for name in (
            "metrics.csv", "weight_trace.csv", "resolved_config.json",
            "run_info.json", "checkpoint_t1.bin", "checkpoint_t2.bin",
        ):
            assert (out / name).exists(), name
        rows = read_metrics_csv(out / "metrics.csv")
        assert [r.dataset for r in rows if r.t == 2] == ["task1", "task2", "Avg."]
        info = json.loads((out / "run_info.json").read_text())
        assert info["mode"] == "ours"
        assert info["seed"] == 5
        printed = capsys.readouterr().out
        assert "results after task 2" in printed
        assert "Avg." in printed

    def test_run_loads_no_masked_arrays(self, cli_workspace, tmp_path):
        """numpy.ma (which ``np.unique`` imports) costs a run about 1.6 MB of
        peak memory; a whole run stays clear of it."""
        src = str(Path(mtcl.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "from mtcl.cli import main\n"
            "code = main(['run', sys.argv[1], '--output-dir', sys.argv[2]])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(cli_workspace / "run.json"),
             str(tmp_path / "ours")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_repeat_runs_are_byte_identical(self, cli_workspace, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["run", str(cli_workspace / "run.json"), "--output-dir", str(out)]
            ) == 0
        for name in ("metrics.csv", "weight_trace.csv", "events.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_a_new_run_replaces_an_earlier_runs_files(self, cli_workspace, tmp_path):
        """A 3-task run, then a 2-task run into the same directory, leave
        exactly the 2-task run's files, byte for byte as a run into a new
        directory writes them.  The ``.tmp`` a kill leaves of a run file
        goes too; a file no run writes stays, ``.tmp`` or not."""
        three = generate_synthetic_stream(replace(SMALL, tasks=3), 5, tmp_path / "three")
        out = tmp_path / "out"
        run = ["run", str(cli_workspace / "run.json"), "--mode", "ft", "--epochs", "1",
               "--output-dir", str(out)]
        assert main([*run, "--seed", "7"]) == 0
        fresh = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(fresh) == 7
        shutil.rmtree(out)
        assert main([*run, "--manifest", str(three)]) == 0
        assert (out / "checkpoint_t3.bin").is_file()
        mine = {"notes.txt": b"mine", "notes.txt.tmp": b"half"}
        left = {**mine, "checkpoint_t4.bin.tmp": b"half", "metrics.csv.tmp": b"t,",
                "events.jsonl.tmp": b"{"}
        for name, data in left.items():
            (out / name).write_bytes(data)
        assert main([*run, "--seed", "7"]) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == {**fresh, **mine}

    def test_mode_override_reaches_the_run(self, cli_workspace, tmp_path):
        out = tmp_path / "ft"
        code = main(
            [
                "run", str(cli_workspace / "run.json"),
                "--mode", "ft", "--output-dir", str(out), "--epochs", "1",
            ]
        )
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["mode"] == "ft"
        assert resolved["weights"]["alpha"] == 1.0

    @pytest.mark.parametrize(
        "flag, value, entry",
        [
            ("--oracle-accuracy", "0.65", {"kind": "noisy-oracle", "accuracy": 0.65}),
            ("--fixture", "scores.bin", {"kind": "fixture", "path": "scores.bin"}),
            ("--service-url", "http://127.0.0.1:1",
             {"kind": "service", "base_url": "http://127.0.0.1:1"}),
        ],
        ids=["oracle-accuracy", "fixture", "service-url"],
    )
    def test_every_override_flag_sets_its_config_key(self, cli_workspace, tmp_path,
                                                     flag, value, entry):
        """Each ``run`` flag lands on the config key it names and nowhere
        else; the teacher flags replace the whole ``llm_teacher`` entry."""
        manifest = cli_workspace / "stream" / "manifest.json"
        out = tmp_path / "run"
        code = main(
            [
                "run", str(cli_workspace / "run.json"),
                "--manifest", str(manifest), "--output-dir", str(out), "--seed", "9",
                "--mode", "lwf", "--epochs", "1", "--batch-size", "8",
                "--learning-rate", "0.125", "--temperature", "3.5", "--alpha", "0.3",
                "--theta-ds", "0.5", "--theta-di", "0.2", "--log-base", "4.0",
                flag, value,
            ]
        )
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved.pop("output_dir") == str(out)
        assert resolved == {
            "manifest": str(manifest),
            "mode": "lwf",
            "seed": 9,
            "temperature": 3.5,
            "weights": {"alpha": 0.3, "theta_ds": 0.5, "theta_di": 0.2, "log_base": 4.0},
            "optimizer": {"learning_rate": 0.125, "epochs": 1, "batch_size": 8},
            "model": {"hidden1": 16, "hidden2": 16},
            "llm_teacher": entry,
        }

    def write_config(self, cli_workspace, tmp_path, **changes):
        config = json.loads((cli_workspace / "run.json").read_text())
        config["manifest"] = str(cli_workspace / "stream" / "manifest.json")
        config.update(changes)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        return path

    def test_weights_at_the_edge_of_the_sum_tolerance_run(self, tmp_path, capsys):
        """theta_ds + theta_di misses 1 - alpha by just under the tolerance
        the config allows; the blended triple must be accepted too."""
        params = json.loads((EXPERIMENTS / "stream_params.json").read_text())
        seed = params.pop("seed")
        manifest = generate_synthetic_stream(GeneratorConfig(**params), seed, tmp_path / "s")
        code = main([
            "run", str(EXPERIMENTS / "ours.json"), "--manifest", str(manifest),
            "--output-dir", str(tmp_path / "out"), "--epochs", "2", "--alpha", "0.2",
            "--theta-ds", "0.7589195577097951", "--theta-di", "0.04108044329020491",
        ])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "out" / "checkpoint_t3.bin").exists()

    @pytest.mark.parametrize("mode", ["ft", "lwf"])
    def test_general_teacher_unused_outside_ours(self, cli_workspace, tmp_path, mode):
        out = tmp_path / mode
        missing = tmp_path / "no-such-scores.bin"
        code = main(
            [
                "run", str(cli_workspace / "run.json"), "--mode", mode,
                "--fixture", str(missing), "--epochs", "1", "--output-dir", str(out),
            ]
        )
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["llm_teacher"] == {"kind": "fixture", "path": str(missing)}

    def test_missing_fixture_found_at_the_first_table(self, cli_workspace, tmp_path, capsys):
        """``ours`` reads the fixture when task 2 first scores it: the run
        exits 3 and keeps task 1's files."""
        out = tmp_path / "ours"
        missing = tmp_path / "no-such-scores.bin"
        code = main(
            [
                "run", str(cli_workspace / "run.json"), "--fixture", str(missing),
                "--epochs", "1", "--output-dir", str(out),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"cannot read fixture file {missing}" in err
        assert "Traceback" not in err
        assert sorted(path.name for path in out.iterdir()) == [
            "checkpoint_t1.bin", "events.jsonl", "metrics.csv", "resolved_config.json",
            "run_info.json", "weight_trace.csv",
        ]
        assert {row.t for row in read_metrics_csv(out / "metrics.csv")} == {1}

class TestRunInterrupted:
    """A run that stops after a finished task keeps that task's results."""

    def test_teacher_failure_keeps_the_finished_tasks(self, tmp_path, capsys):
        """A fixture teacher without task 3's samples stops the run at task
        3 (exit 3); its metrics and weight trace are the first rows of
        the full run's."""
        stream = GeneratorConfig(tasks=3, classes_per_task=2, feature_length=4,
                                 samples_per_task=40, imbalance=2.0, shift=2.0)
        manifest_path = generate_synthetic_stream(stream, seed=5, out_dir=tmp_path / "stream")
        manifest = load_manifest(manifest_path)
        rng = np.random.default_rng(7)
        records, head = {}, []
        for entry in manifest.tasks:
            head += [name for name in entry.class_names if name not in head]
            labels = tokenize_labels(manifest.vocab, head)
            for sample in load_task(manifest, entry.index, "train").samples:
                records[sample.id] = rng.normal(
                    size=(labels.count, labels.width, labels.vocab_size)
                ).astype(np.float32)
        write_fixture(tmp_path / "full.bin", records)
        write_fixture(tmp_path / "short.bin",
                      {key: value for key, value in records.items() if key[:3] != "t3-"})
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(manifest_path), "mode": "ours", "seed": 5,
            "optimizer": {"epochs": 2, "batch_size": 16},
            "model": {"hidden1": 8, "hidden2": 8},
            "llm_teacher": {"kind": "noisy-oracle", "accuracy": 0.8},
        }))
        codes = [
            main(["run", str(config), "--fixture", str(tmp_path / f"{name}.bin"),
                  "--output-dir", str(tmp_path / name)])
            for name in ("full", "short")
        ]
        assert codes == [0, 3]
        missing = f"fixture file {tmp_path / 'short.bin'}: no score tensor for sample 't3-"
        assert missing in capsys.readouterr().err
        short, full = tmp_path / "short", tmp_path / "full"
        assert not (short / "checkpoint_t3.bin").exists()
        assert {r.t for r in read_metrics_csv(short / "metrics.csv")} == {1, 2}
        assert len((short / "weight_trace.csv").read_text().splitlines()) == 1 + 2
        for name in ("metrics.csv", "weight_trace.csv"):
            assert (full / name).read_bytes().startswith((short / name).read_bytes()), name

    def test_every_stop_inside_a_write_leaves_a_directory_the_rule_reads(
            self, tmp_path, monkeypatch, capsys):
        """A Ctrl-C inside the Nth file write of a 3-task run, for every N,
        exits 130 and leaves no ``.tmp``.  The tasks whose
        ``checkpoint_tK.bin`` is there are finished: they are 1..K, and
        their checkpoints, metrics rows and trace rows are the whole
        run's, and so are their event-log lines.  Only task K + 1, which
        did not finish, has rows or lines past them, and the files written
        as the run starts are whole."""
        stream = GeneratorConfig(tasks=3, classes_per_task=2, feature_length=4,
                                 samples_per_task=40, imbalance=2.0, shift=2.0)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(generate_synthetic_stream(stream, seed=5, out_dir=tmp_path / "s")),
            "mode": "ours", "seed": 5, "optimizer": {"epochs": 1, "batch_size": 16},
            "model": {"hidden1": 8, "hidden2": 8},
            "llm_teacher": {"kind": "noisy-oracle", "accuracy": 0.8},
        }))
        # Every run writes into one directory, so all have one config digest.
        run = ["run", str(config), "--output-dir", str(tmp_path / "out")]
        assert main(run) == 0
        full = shutil.copytree(tmp_path / "out", tmp_path / "full")

        def step(line):
            return json.loads(line)["t"] if line.startswith("{") else int(line.split(",")[0])

        def rows(path, k):
            """The records of the file at ``path`` (its lines, past a CSV's
            header), and those of tasks <= k."""
            lines = path.read_text().splitlines()[path.suffix == ".csv":] if path.exists() else []
            return lines, [line for line in lines if step(line) <= k]

        writes = 2 + 3 * 4  # the run's two files, then four per task
        for n in range(1, writes + 1):
            with monkeypatch.context() as patch:
                interrupt_write(patch, n)
                assert main(run) == 130, n
            assert capsys.readouterr().err == "interrupted\n"
            left = sorted(path.name for path in (tmp_path / "out").iterdir())
            assert not [name for name in left if name.endswith(".tmp")], n
            finished = [name for name in left if name.startswith("checkpoint_t")]
            k = len(finished)
            assert finished == [f"checkpoint_t{t}.bin" for t in range(1, k + 1)], n
            for name in left:
                if name.endswith((".bin", ".json")):
                    assert (tmp_path / "out" / name).read_bytes() == (full / name).read_bytes()
            for name in ("metrics.csv", "weight_trace.csv", "events.jsonl"):
                lines, done = rows(tmp_path / "out" / name, k)
                assert done == rows(full / name, k)[1], (n, name)
                assert all(step(line) <= k + 1 for line in lines), (n, name)
                assert bool(lines) or not k, (n, name)

    def test_ctrl_c_exits_130_without_a_traceback(self, tmp_path):
        stream = GeneratorConfig(tasks=3, classes_per_task=3, feature_length=8,
                                 samples_per_task=300)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(generate_synthetic_stream(stream, seed=5, out_dir=tmp_path / "s")),
            "mode": "ft", "seed": 5,
            # About a second per task, so the run is still going when the signal lands.
            "optimizer": {"epochs": 400, "batch_size": 16},
            "model": {"hidden1": 16, "hidden2": 16},
        }))
        out = tmp_path / "out"
        src = Path(mtcl.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "mtcl", "run", str(config), "--output-dir", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            # The checkpoint is the last file task 1 writes, after its tables.
            while not (out / "checkpoint_t1.bin").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, err
        assert "Traceback" not in err
        assert err == "interrupted\n"
        assert list(out.glob("*.tmp")) == []
        assert (out / "checkpoint_t1.bin").exists()
        assert not (out / "checkpoint_t3.bin").exists()
        rows = read_metrics_csv(out / "metrics.csv")
        assert [row.dataset for row in rows if row.t == 1] == ["task1", "Avg."]


class TestCliGenerate:
    def test_writes_stream_and_prints_manifest_path(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(
            [
                "generate", "--out", str(out), "--seed", "3", "--tasks", "2",
                "--classes-per-task", "3", "--features", "4",
                "--samples-per-task", "60", "--imbalance", "2.0",
                "--overlap", "0.5", "--shift", "2.0",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == str(out / "manifest.json")
        assert (out / "manifest.json").exists()
        assert (out / "ground_truth.json").exists()

class TestCliInspectWeights:
    def test_single_point_breakdown(self, capsys):
        code = main(
            [
                "inspect-weights", "--acc-prev", "0.75", "--acc-llm", "0.25",
                "--ir", "10.0", "--log-base", "10.0",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "beta_ds = 0.750000" in printed
        assert "beta_di = 0.500000" in printed
        assert "beta = 0.500000" in printed
        assert "chi = 0.300000" in printed

    def test_single_point_prints_the_trace_columns_in_order(self, capsys):
        code = main(["inspect-weights", "--acc-prev", "0.3", "--acc-llm", "0.6",
                     "--ir", "4", "--class-count", "6"])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[0] for line in printed] == [
            "acc_prev", "acc_llm", "ir", "beta_ds", "chi_ds", "beta_di", "chi_di",
            "alpha", "beta", "chi",
        ]

    def test_weights_at_the_edge_of_the_sum_tolerance(self, capsys):
        code = main([
            "inspect-weights", "--acc-prev", "0", "--acc-llm", "1", "--ir", "8",
            "--class-count", "6", "--alpha", "0.3", "--theta-ds", "0.5107588125009608",
            "--theta-di", "0.18924118849903918",
        ])
        assert code == 0
        assert "chi = 0.612411" in capsys.readouterr().out

    def test_sweep_table(self, capsys):
        code = main(
            [
                "inspect-weights", "--acc-prev", "0.5", "--acc-llm", "0.5",
                "--log-base", "12.0", "--sweep-ir", "1:144:7",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ir beta chi"
        assert len(lines) == 8
        chis = [float(line.split()[2]) for line in lines[1:]]
        assert chis == sorted(chis)

class TestCliEval:
    def test_scores_saved_checkpoint(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(
            ["run", str(cli_workspace / "run.json"), "--output-dir", str(out)]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "eval", "--checkpoint", str(out / "checkpoint_t2.bin"),
                "--manifest", str(cli_workspace / "stream/manifest.json"),
                "--task", "1", "--split", "test",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "task1 (test)" in printed
        assert "accuracy=" in printed

    def test_prints_the_runs_own_metrics_row(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(
            ["run", str(cli_workspace / "run.json"), "--output-dir", str(out)]
        ) == 0
        capsys.readouterr()
        rows = [row for row in read_metrics_csv(out / "metrics.csv") if row.t == 2]
        assert [row.dataset for row in rows] == ["task1", "task2", "Avg."]
        for row in rows[:-1]:
            task = row.dataset.removeprefix("task")
            assert main(
                ["eval", "--checkpoint", str(out / "checkpoint_t2.bin"),
                 "--manifest", str(cli_workspace / "stream/manifest.json"), "--task", task]
            ) == 0
            assert capsys.readouterr().out == (
                f"task{task} (test)  accuracy={row.accuracy:.4f}  macro_f1={row.macro_f1:.4f}\n"
            )

class TestCliTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "mtcl" in capsys.readouterr().out

    def test_python_dash_m_entry_point(self):
        src = Path(mtcl.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ))
        done = subprocess.run(
            [sys.executable, "-m", "mtcl", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0
        assert "mtcl" in done.stdout

    def test_sources_parse_as_python_3_10(self):
        """3.10 is the declared floor; this catches newer syntax on a newer
        interpreter."""
        src = Path(mtcl.__file__).resolve().parent
        for path in sorted(src.glob("*.py")):
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))

