"""A packaged stream's run loads each split once and encodes it once,
also while it writes its run directory."""

import json
from pathlib import Path

from mtcl import engine
from mtcl.engine import RunDir, TrainSettings, encode_inputs, encode_question, run_continual
from mtcl.taskstream import GeneratorConfig, generate_synthetic_stream, load_manifest, load_task
from mtcl.teachers import NoisyOracleTeacher
from mtcl.weights import WeightConfig

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def test_packaged_stream_encodes_each_split_once(tmp_path, monkeypatch):
    params = json.loads((EXPERIMENTS / "stream_params.json").read_text())
    seed = params.pop("seed")
    manifest = load_manifest(
        generate_synthetic_stream(GeneratorConfig(**params), seed, tmp_path)
    )
    loaded, encoded, texts = [], [], []

    def counted_load(manifest, t, split="train"):
        task = load_task(manifest, t, split)
        loaded.append((split, len(task.samples), len(set(task.questions))))
        return task

    def counted_encode(dataset, *args):
        encoded.append(tuple(dataset.ids))
        return encode_inputs(dataset, *args)

    def counted_question(question, vocab):
        texts.append(question)
        return encode_question(question, vocab)

    monkeypatch.setattr(engine, "load_task", counted_load)
    monkeypatch.setattr(engine, "encode_inputs", counted_encode)
    monkeypatch.setattr(engine, "encode_question", counted_question)
    run_continual(
        manifest,
        TrainSettings(epochs=1, seed=seed, mode="ours"),
        WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4),
        llm_teacher=NoisyOracleTeacher(seed=seed, accuracy=0.7),
        run_dir=RunDir(tmp_path / "run"),
    )
    # A train split is encoded into its design matrix; a held-out split's
    # question texts are encoded once, into the codes its rows are
    # assembled from at each evaluation.
    assert sum(rows for _, rows, _ in loaded) == 2700
    assert [split for split, _, _ in loaded] == ["train", "test"] * len(manifest.tasks)
    assert sum(len(ids) for ids in encoded) == sum(
        rows for split, rows, _ in loaded if split == "train") == 2160
    assert len(encoded) == len(set(encoded)) == len(manifest.tasks)
    assert len(texts) == sum(distinct for _, _, distinct in loaded)
