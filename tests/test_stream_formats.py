"""Feature blocks against plain JSONL: the same runs byte for byte, and
each split loaded once and encoded once."""

import json
import shutil
from pathlib import Path

import pytest

from mtcl import engine
from mtcl.cli import main
from mtcl.engine import TrainSettings, encode_inputs, run_continual
from mtcl.taskstream import (
    GeneratorConfig,
    generate_synthetic_stream,
    load_manifest,
    load_task,
    write_task,
)
from mtcl.teachers import NoisyOracleTeacher
from mtcl.weights import WeightConfig

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"

SMALL = GeneratorConfig(
    tasks=3,
    classes_per_task=4,
    feature_length=6,
    samples_per_task=120,
    imbalance=3.0,
    overlap=0.5,
    shift=4.0,
)


def jsonl_twin(manifest_path: Path, out: Path) -> None:
    """Copy a stream with blocks to ``out`` with every split's features
    written back into its JSONL records, and no block."""
    manifest = load_manifest(manifest_path)
    payload = json.loads(manifest_path.read_text())
    out.mkdir(parents=True)
    for entry, spec in zip(manifest.tasks, payload["tasks"]):
        for split in ("train", "test"):
            del spec[f"{split}_features"]
            write_task(
                out / spec[f"{split}_file"], load_task(manifest, entry.index, split).samples
            )
    shutil.copy(manifest_path.parent / "vocab.txt", out / "vocab.txt")
    (out / "manifest.json").write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    generate_synthetic_stream(SMALL, seed=23, out_dir=root / "blocks" / "stream")
    jsonl_twin(root / "blocks" / "stream" / "manifest.json", root / "jsonl" / "stream")
    return root


def test_twin_is_plain_jsonl(twins):
    payload = json.loads((twins / "jsonl" / "stream" / "manifest.json").read_text())
    assert not any("train_features" in task for task in payload["tasks"])
    assert not list((twins / "jsonl" / "stream").glob("*.f64"))
    first = (twins / "jsonl" / "stream" / "task1.train.jsonl").read_text().splitlines()[0]
    assert len(json.loads(first)["features"]) == SMALL.feature_length


@pytest.mark.parametrize("config", ["ours.json", "lwf.json", "ft.json"])
def test_runs_are_byte_identical_with_and_without_blocks(twins, monkeypatch, config):
    outputs = {}
    for form in ("blocks", "jsonl"):
        # The same relative manifest path gives both runs one config digest,
        # which every checkpoint header records.
        monkeypatch.chdir(twins / form)
        out = twins / form / config
        code = main(
            [
                "run", str(EXPERIMENTS / config), "--manifest", "stream/manifest.json",
                "--epochs", "4", "--output-dir", str(out),
            ]
        )
        assert code == 0
        outputs[form] = {
            path.name: path.read_bytes()
            for path in out.iterdir()
            if path.suffix == ".bin" or path.name in ("metrics.csv", "weight_trace.csv")
        }
    assert sorted(outputs["blocks"]) == [
        "checkpoint_t1.bin", "checkpoint_t2.bin", "checkpoint_t3.bin",
        "metrics.csv", "weight_trace.csv",
    ]
    assert outputs["blocks"] == outputs["jsonl"]


def test_packaged_stream_encodes_each_split_once(tmp_path, monkeypatch):
    params = json.loads((EXPERIMENTS / "stream_params.json").read_text())
    seed = params.pop("seed")
    manifest = load_manifest(
        generate_synthetic_stream(GeneratorConfig(**params), seed, tmp_path)
    )
    loaded, encoded = [], []

    def counted_load(*args, **kwargs):
        task = load_task(*args, **kwargs)
        loaded.append(len(task.samples))
        return task

    def counted_encode(samples, *args):
        encoded.append(tuple(s.id for s in samples))
        return encode_inputs(samples, *args)

    monkeypatch.setattr(engine, "load_task", counted_load)
    monkeypatch.setattr(engine, "encode_inputs", counted_encode)
    run_continual(
        manifest,
        TrainSettings(epochs=1, seed=seed, mode="ours"),
        WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4),
        llm_teacher=NoisyOracleTeacher(seed=seed, accuracy=0.7),
    )
    assert sum(loaded) == sum(len(ids) for ids in encoded) == 2700
    assert len(encoded) == len(set(encoded)) == 2 * len(manifest.tasks)
