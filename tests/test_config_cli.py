"""Run configuration, overrides, presets, CLI commands, exit codes."""

import json
import os
import socket
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import mtcl
from mtcl.cli import main
from mtcl.config import (
    OUTPUT_ROOT_ENV,
    RunConfig,
    build_run_config,
    load_run_config,
)
from mtcl.engine import StudentModel, read_metrics_csv, save_checkpoint
from mtcl.errors import (
    ConfigError,
    DataError,
    DimensionMismatchError,
    NumericError,
    TeacherDimensionError,
    TeacherProtocolError,
    TeacherTimeoutError,
    exit_code_for,
)
from mtcl.taskstream import GeneratorConfig, LabelClass, generate_synthetic_stream
from mtcl.weights import WeightTrace


def base_payload(**extra):
    payload = {
        "manifest": "stream/manifest.json",
        "mode": "ours",
        "llm_teacher": {"kind": "noisy-oracle", "accuracy": 0.8},
    }
    payload.update(extra)
    return payload


class TestBuildRunConfig:
    def test_defaults_fill_in(self):
        cfg = build_run_config(base_payload())
        assert cfg.weights["alpha"] == 0.2
        assert cfg.optimizer == {"learning_rate": 0.05, "epochs": 30, "batch_size": 32}
        assert cfg.model == {"hidden1": 32, "hidden2": 32}
        assert cfg.temperature == 2.0
        settings = cfg.train_settings()
        assert settings.mode == "ours"
        assert cfg.weight_config().alpha == 0.2

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
        assert cfg.weights["alpha"] == 1.0
        assert cfg.weights["theta_ds"] == 0.0
        assert cfg.weights["theta_di"] == 0.0
        cfg.weight_config()

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
        cfg = build_run_config(
            base_payload(seed=1),
            {"seed": 9, "weights.alpha": 0.5, "weights.theta_ds": 0.25,
             "weights.theta_di": 0.25, "optimizer.epochs": 7},
        )
        assert cfg.seed == 9
        assert cfg.weights["alpha"] == 0.5
        assert cfg.optimizer["epochs"] == 7

    def test_too_deep_override_rejected(self):
        with pytest.raises(ConfigError, match="too deep"):
            build_run_config(base_payload(), {"weights.alpha.extra": 1})


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
        path = tmp_path / "resolved.json"
        cfg.save(path)
        # resolved files carry no unknown keys and reload to the same digest
        reloaded = load_run_config(path)
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
        bad.write_text("{ nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(bad)


class TestOutputRoot:
    def test_env_root_prepended(self, monkeypatch, tmp_path):
        cfg = build_run_config(base_payload(output_dir="runs/x"))
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        assert cfg.resolved_output_dir() == tmp_path / "runs/x"
        monkeypatch.delenv(OUTPUT_ROOT_ENV)
        assert cfg.resolved_output_dir() == __import__("pathlib").Path("runs/x")


class TestExitCodes:
    def test_mapping(self):
        assert exit_code_for(ConfigError(["x"])) == 2
        assert exit_code_for(DataError("x")) == 3
        assert exit_code_for(DimensionMismatchError("x")) == 3
        assert exit_code_for(TeacherTimeoutError("x")) == 4
        assert exit_code_for(TeacherProtocolError("x")) == 4
        assert exit_code_for(TeacherDimensionError("x")) == 4
        assert exit_code_for(NumericError("x")) == 5


SMALL = GeneratorConfig(
    tasks=2,
    classes_per_task=3,
    feature_length=4,
    samples_per_task=60,
    imbalance=2.0,
    overlap=0.5,
    shift=2.0,
)


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

    def test_repeat_runs_are_byte_identical(self, cli_workspace, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["run", str(cli_workspace / "run.json"), "--output-dir", str(out)]
            ) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (
            out_a / "weight_trace.csv"
        ).read_bytes() == (out_b / "weight_trace.csv").read_bytes()

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

    def test_env_output_root_applies(self, cli_workspace, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        code = main(
            [
                "run", str(cli_workspace / "run.json"),
                "--output-dir", "nested/run", "--mode", "lwf", "--epochs", "1",
            ]
        )
        assert code == 0
        assert (tmp_path / "nested/run/metrics.csv").exists()

    def test_config_error_exits_2(self, cli_workspace, tmp_path, capsys):
        code = main(
            [
                "run", str(cli_workspace / "run.json"),
                "--alpha", "2.0", "--output-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_conflicting_teacher_flags_exit_2(self, cli_workspace, tmp_path):
        code = main(
            [
                "run", str(cli_workspace / "run.json"),
                "--oracle-accuracy", "0.8", "--fixture", "f.bin",
                "--output-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_missing_manifest_exits_3(self, cli_workspace, tmp_path, capsys):
        code = main(
            [
                "run", str(cli_workspace / "run.json"),
                "--manifest", str(tmp_path / "nowhere/manifest.json"),
                "--output-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_unreachable_teacher_exits_4(self, cli_workspace, tmp_path, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        code = main(
            [
                "run", str(cli_workspace / "run.json"),
                "--service-url", f"http://127.0.0.1:{dead_port}",
                "--epochs", "1", "--output-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err


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

    def test_infeasible_parameters_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "generate", "--out", str(tmp_path / "gen"),
                "--classes-per-task", "6", "--samples-per-task", "60",
                "--imbalance", "64.0",
            ]
        )
        assert code == 2
        assert "infeasible" in capsys.readouterr().err


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

    def test_bad_sweep_spec_exits_2(self, capsys):
        code = main(
            [
                "inspect-weights", "--acc-prev", "0.5", "--acc-llm", "0.5",
                "--sweep-ir", "1:2", "--log-base", "4.0",
            ]
        )
        assert code == 2

    def test_invalid_weight_hyperparameters_exit_2(self, capsys):
        code = main(
            [
                "inspect-weights", "--acc-prev", "0.5", "--acc-llm", "0.5",
                "--alpha", "0.2", "--theta-ds", "0.9", "--theta-di", "0.4",
            ]
        )
        assert code == 2


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

    def test_corrupt_checkpoint_exits_3(self, cli_workspace, tmp_path, capsys):
        good = tmp_path / "good.bin"
        model = StudentModel(0, 4, 6, 8, 8).grow_head(
            [LabelClass(id=0, name="cut", tokens=())]
        )
        save_checkpoint(good, model, 1, WeightTrace())
        data = good.read_bytes()
        (header_len,) = struct.unpack_from("<I", data, 6)
        count_at = 10 + header_len
        huge_count = (
            data[:count_at] + struct.pack("<Q", 2**40) + data[count_at + 8:]
        )
        for contents in (b"garbage", data[:9], huge_count):
            bad = tmp_path / "bad.bin"
            bad.write_bytes(contents)
            code = main(
                [
                    "eval", "--checkpoint", str(bad),
                    "--manifest", str(cli_workspace / "stream/manifest.json"),
                    "--task", "1",
                ]
            )
            assert code == 3


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

    def test_unknown_command_exits_nonzero(self, capsys):
        assert main(["conjure"]) == 2
