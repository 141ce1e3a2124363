"""A packaged stream's run loads each split once and encodes it once."""

import json
from pathlib import Path

from mtcl import engine
from mtcl.engine import TrainSettings, encode_inputs, run_continual
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
