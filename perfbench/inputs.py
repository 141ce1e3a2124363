"""Pinned, cached inputs for the benchmark workloads.

Every input is made by the program's public generators
(``mtcl.taskstream.generate_synthetic_stream`` and
``mtcl.bridge.write_fixture``) from pinned seeds, so each workload's
outputs can be checked byte for byte against digests recorded in
``reference.json``.  Inputs are built once per checkout under
``perfbench/work/inputs`` and reused; building them is never timed.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

# The packaged regression stream comes from experiments/stream_params.json.
# The wide stream is the scale point of the roadmap: more tasks, classes,
# samples and features than the regression, same imbalance and shift.
WIDE_STREAM = {
    "seed": 17,
    "tasks": 6,
    "classes_per_task": 10,
    "feature_length": 64,
    "samples_per_task": 3000,
    "imbalance": 8.0,
    "overlap": 0.3,
    "shift": 8.0,
    "cluster_std": 1.0,
}

# Score fixture for the general teacher: the teacher favours the true
# label on this share of samples and a seeded wrong one otherwise.
FIXTURE_SEED = 2402
FIXTURE_ACCURACY = 0.7
FIXTURE_MARGIN = 3.0


def stream_params(root: Path, name: str) -> dict:
    if name == "packaged":
        return json.loads((root / "experiments" / "stream_params.json").read_text())
    return dict(WIDE_STREAM)


def build_stream(root: Path, name: str, out: Path) -> Path:
    from mtcl.taskstream import GeneratorConfig, generate_synthetic_stream

    params = stream_params(root, name)
    seed = params.pop("seed")
    return generate_synthetic_stream(GeneratorConfig(**params), seed, out)


def head_order(manifest, t: int) -> list:
    """Class names in the student head's order after growing for task t:
    order of first appearance over tasks 1..t."""
    names = []
    for entry in manifest.tasks:
        if entry.index > t:
            break
        names.extend(n for n in entry.class_names if n not in names)
    return names


def build_fixture(manifest_path: Path, out: Path) -> Path:
    """Score tensors for every train sample of tasks >= 2, over the
    candidate list the trainer will ask about (the student head)."""
    from mtcl.bridge import tokenize_labels, write_fixture
    from mtcl.taskstream import load_manifest, load_task

    manifest = load_manifest(manifest_path)
    rng = np.random.default_rng(FIXTURE_SEED)
    records = {}
    for entry in manifest.tasks[1:]:
        candidates = head_order(manifest, entry.index)
        table = tokenize_labels(manifest.vocab, candidates)
        k, width = table.token_ids.shape
        rows = np.arange(k)[:, None]
        cols = np.arange(width)[None, :]
        for sample in load_task(manifest, entry.index, "train").samples:
            truth = candidates.index(sample.answer_name)
            pick = truth
            if rng.random() >= FIXTURE_ACCURACY:
                pick = (truth + 1 + int(rng.integers(k - 1))) % k
            tensor = rng.normal(0.0, 1.0, size=(k, width, len(manifest.vocab)))
            tensor[rows, cols, table.token_ids] += 1.0
            tensor[pick, np.arange(width), table.token_ids[pick]] += FIXTURE_MARGIN
            records[sample.id] = tensor.astype(np.float32)
    write_fixture(out, records)
    return out


def ensure_inputs(root: Path, work: Path) -> dict:
    """Build the streams and the fixture unless a finished build exists.

    Returns paths: ``packaged`` and ``wide`` manifests, ``fixture``.
    """
    base = work / "inputs"
    done = base / "done.json"
    key = {
        "packaged": stream_params(root, "packaged"),
        "wide": WIDE_STREAM,
        "fixture": [FIXTURE_SEED, FIXTURE_ACCURACY, FIXTURE_MARGIN],
    }
    paths = {
        "packaged": base / "packaged" / "manifest.json",
        "wide": base / "wide" / "manifest.json",
        "fixture": base / "teacher_scores.bin",
    }
    if done.is_file() and json.loads(done.read_text()) == key:
        return paths
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    build_stream(root, "packaged", base / "packaged")
    build_stream(root, "wide", base / "wide")
    build_fixture(paths["packaged"], paths["fixture"])
    done.write_text(json.dumps(key))
    return paths
