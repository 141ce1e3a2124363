"""Stream model, manifest validation, imbalance ledger, generator."""

import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import classes_up_to

from mtcl.bridge import build_vocabulary
from mtcl.errors import ConfigError, DataError
from mtcl.taskstream import (
    GeneratorConfig,
    ImbalanceLedger,
    LabelClass,
    Sample,
    TaskDataset,
    generate_synthetic_stream,
    load_manifest,
    load_task,
    write_task,
)

STREAM_NAMES = ("cut", "idle", "grasp")


def toy_classes(names):
    vocab = build_vocabulary(names)
    return [LabelClass(id=i, name=n, tokens=tuple(vocab.encode(n))) for i, n in enumerate(names)]


def toy_task(counts_by_id, classes, index=1):
    samples = []
    serial = 0
    for class_id, count in counts_by_id.items():
        for _ in range(count):
            samples.append(
                Sample(
                    id=f"s-{serial}",
                    features=np.zeros(2),
                    question="q",
                    answer=class_id,
                    answer_name=classes[class_id].name,
                )
            )
            serial += 1
    return TaskDataset(task_index=index, samples=samples, classes=classes)


class TestTaskDataset:
    def test_recount_fills_class_counts(self):
        classes = toy_classes(STREAM_NAMES)
        task = toy_task({0: 4, 1: 2, 2: 8}, classes)
        assert task.class_counts == {0: 4, 1: 2, 2: 8}
        assert task.class_names == list(STREAM_NAMES)

    def test_declared_counts_must_match_recount(self):
        classes = toy_classes(STREAM_NAMES)
        samples = toy_task({0: 3}, classes).samples
        with pytest.raises(DataError):
            TaskDataset(
                task_index=1, samples=samples, classes=classes, class_counts={0: 99}
            )

    def test_sample_outside_class_set_rejected(self):
        classes = toy_classes(("cut", "idle"))
        stray = Sample(id="x", features=np.zeros(2), question="q", answer=5, answer_name="?")
        with pytest.raises(DataError):
            TaskDataset(task_index=1, samples=[stray], classes=classes)

    def test_duplicate_class_names_rejected(self):
        dupes = [
            LabelClass(id=0, name="cut", tokens=(2, 0)),
            LabelClass(id=1, name="cut", tokens=(2, 0)),
        ]
        with pytest.raises(DataError):
            TaskDataset(task_index=1, samples=[], classes=dupes)

    def test_task_index_must_be_positive(self):
        with pytest.raises(DataError):
            TaskDataset(task_index=0, samples=[], classes=[])


class TestImbalanceLedger:
    def test_single_task_ratio(self):
        classes = toy_classes(STREAM_NAMES)
        ledger = ImbalanceLedger()
        ledger.update(toy_task({0: 4, 1: 2, 2: 8}, classes))
        assert ledger.imbalance_ratio == 4.0
        assert ledger.class_count == 3

    def test_counts_accumulate_across_tasks(self):
        classes = toy_classes(("cut", "idle", "grasp", "pour"))
        ledger = ImbalanceLedger()
        ledger.update(toy_task({0: 4, 1: 2, 2: 8}, classes, index=1))
        ledger.update(toy_task({1: 4, 3: 6}, classes, index=2))
        assert ledger.cumulative_counts == {0: 4, 1: 6, 2: 8, 3: 6}
        assert ledger.imbalance_ratio == 2.0
        assert ledger.class_count == 4

    def test_update_order_does_not_matter(self):
        classes = toy_classes(("cut", "idle", "grasp", "pour"))
        a = toy_task({0: 4, 1: 2, 2: 8}, classes, index=1)
        b = toy_task({1: 4, 3: 6}, classes, index=2)
        forward = ImbalanceLedger().update(a).update(b)
        backward = ImbalanceLedger().update(b).update(a)
        assert forward.cumulative_counts == backward.cumulative_counts

    def test_balanced_stream_has_unit_ratio(self):
        classes = toy_classes(STREAM_NAMES)
        ledger = ImbalanceLedger().update(toy_task({0: 5, 1: 5, 2: 5}, classes))
        assert ledger.imbalance_ratio == 1.0

    def test_undefined_before_first_task(self):
        with pytest.raises(DataError):
            ImbalanceLedger().imbalance_ratio

    def test_zero_counts_never_recorded(self):
        ledger = ImbalanceLedger()
        ledger.update(SimpleNamespace(class_counts={0: 0, 1: 5}))
        assert ledger.cumulative_counts == {1: 5}


def write_stream(root, mutate=None):
    """Tiny hand-built 2-task stream; mutate twiddles the manifest payload."""
    vocab = build_vocabulary(STREAM_NAMES)
    vocab.save(root / "vocab.txt")
    classes = toy_classes(STREAM_NAMES)

    def rows(task, names):
        out = []
        for i, name in enumerate(names):
            label = next(c for c in classes if c.name == name)
            out.append(
                Sample(
                    id=f"t{task}-{i}",
                    features=np.array([float(i), -1.0]),
                    question=f"q{i}",
                    answer=label.id,
                    answer_name=name,
                )
            )
        return out

    write_task(root / "task1.train.jsonl", rows(1, ["cut", "idle", "cut"]))
    write_task(root / "task1.test.jsonl", rows(1, ["idle"]))
    write_task(root / "task2.train.jsonl", rows(2, ["grasp", "idle"]))
    write_task(root / "task2.test.jsonl", rows(2, ["grasp"]))
    payload = {
        "format_version": 1,
        "feature_length": 2,
        "vocab_file": "vocab.txt",
        "labels": [
            {"id": c.id, "name": c.name, "tokens": list(c.tokens)} for c in classes
        ],
        "tasks": [
            {
                "index": 1,
                "train_file": "task1.train.jsonl",
                "test_file": "task1.test.jsonl",
                "classes": ["cut", "idle"],
            },
            {
                "index": 2,
                "train_file": "task2.train.jsonl",
                "test_file": "task2.test.jsonl",
                "classes": ["idle", "grasp"],
            },
        ],
    }
    if mutate is not None:
        mutate(payload)
    path = root / "manifest.json"
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


class TestManifestRoundtrip:
    def test_load_matches_what_was_written(self, tmp_path):
        manifest = load_manifest(write_stream(tmp_path))
        assert manifest.feature_length == 2
        assert [c.name for c in manifest.labels] == list(STREAM_NAMES)
        assert manifest.task_entry(2).class_names == ("idle", "grasp")
        task = load_task(manifest, 1, split="train")
        assert task.split == "train"
        assert [s.id for s in task.samples] == ["t1-0", "t1-1", "t1-2"]
        assert [s.answer_name for s in task.samples] == ["cut", "idle", "cut"]
        assert task.class_counts == {0: 2, 1: 1}
        np.testing.assert_array_equal(task.samples[1].features, [1.0, -1.0])
        test = load_task(manifest, 2, split="test")
        assert [s.answer_name for s in test.samples] == ["grasp"]

    def test_classes_up_to_is_cumulative_in_id_order(self, tmp_path):
        manifest = load_manifest(write_stream(tmp_path))
        assert [c.name for c in classes_up_to(manifest, 1)] == ["cut", "idle"]
        assert [c.name for c in classes_up_to(manifest, 2)] == list(STREAM_NAMES)

    def test_unknown_task_index(self, tmp_path):
        manifest = load_manifest(write_stream(tmp_path))
        with pytest.raises(DataError):
            manifest.task_entry(9)


class TestManifestValidation:
    def test_missing_key(self, tmp_path):
        def strip(payload):
            del payload["labels"]

        with pytest.raises(DataError, match="labels"):
            load_manifest(write_stream(tmp_path, strip))

    def test_unsupported_version(self, tmp_path):
        def bump(payload):
            payload["format_version"] = 99

        with pytest.raises(DataError, match="version"):
            load_manifest(write_stream(tmp_path, bump))

    def test_label_ids_must_be_dense_in_order(self, tmp_path):
        def gap(payload):
            payload["labels"][1]["id"] = 7

        with pytest.raises(DataError, match="0..n-1"):
            load_manifest(write_stream(tmp_path, gap))

    def test_token_drift_rejected(self, tmp_path):
        def drift(payload):
            payload["labels"][0]["tokens"] = [0, 0, 0]

        with pytest.raises(DataError, match="drift"):
            load_manifest(write_stream(tmp_path, drift))

    def test_duplicate_label_names_rejected(self, tmp_path):
        def dupe(payload):
            payload["labels"][1]["name"] = payload["labels"][0]["name"]
            payload["labels"][1]["tokens"] = payload["labels"][0]["tokens"]

        with pytest.raises(DataError, match="unique"):
            load_manifest(write_stream(tmp_path, dupe))

    def test_unknown_class_in_task_rejected(self, tmp_path):
        def stray(payload):
            payload["tasks"][0]["classes"].append("phantom")

        with pytest.raises(DataError, match="phantom"):
            load_manifest(write_stream(tmp_path, stray))

    def test_task_indices_strictly_increasing(self, tmp_path):
        def reorder(payload):
            payload["tasks"][1]["index"] = 1

        with pytest.raises(DataError, match="increasing"):
            load_manifest(write_stream(tmp_path, reorder))

    def test_no_tasks_rejected(self, tmp_path):
        def clear(payload):
            payload["tasks"] = []

        with pytest.raises(DataError, match="no tasks"):
            load_manifest(write_stream(tmp_path, clear))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{ nope", encoding="utf-8")
        with pytest.raises(DataError, match="JSON"):
            load_manifest(path)


class TestLoadTaskErrors:
    def test_bad_split_name(self, tmp_path):
        manifest = load_manifest(write_stream(tmp_path))
        with pytest.raises(DataError, match="split"):
            load_task(manifest, 1, split="validation")

    def test_malformed_line_reports_position(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        task_file = tmp_path / "task1.train.jsonl"
        task_file.write_text(task_file.read_text() + "not json\n")
        with pytest.raises(DataError, match="malformed"):
            load_task(load_manifest(manifest_path), 1)

    def test_feature_length_mismatch(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        task_file = tmp_path / "task1.train.jsonl"
        record = {"id": "bad", "features": [1.0], "question": "q", "answer": "cut"}
        task_file.write_text(task_file.read_text() + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="features"):
            load_task(load_manifest(manifest_path), 1)

    def test_unknown_class_name(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        task_file = tmp_path / "task1.train.jsonl"
        record = {"id": "bad", "features": [0.0, 0.0], "question": "q", "answer": "phantom"}
        task_file.write_text(task_file.read_text() + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="phantom"):
            load_task(load_manifest(manifest_path), 1)

    def test_class_not_declared_for_task(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        task_file = tmp_path / "task1.train.jsonl"
        record = {"id": "bad", "features": [0.0, 0.0], "question": "q", "answer": "grasp"}
        task_file.write_text(task_file.read_text() + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="not declared"):
            load_task(load_manifest(manifest_path), 1)

    def test_missing_file(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        (tmp_path / "task1.train.jsonl").unlink()
        with pytest.raises(DataError, match="cannot read"):
            load_task(load_manifest(manifest_path), 1)


class TestGeneratorConfig:
    def test_defaults_are_valid(self):
        GeneratorConfig()

    def test_all_violations_collected(self):
        with pytest.raises(ConfigError) as info:
            GeneratorConfig(tasks=0, overlap=2.0, cluster_std=0.0)
        message = str(info.value)
        assert "tasks" in message
        assert "overlap" in message
        assert "cluster_std" in message

    def test_infeasible_imbalance_rejected(self, tmp_path):
        cfg = GeneratorConfig(classes_per_task=6, samples_per_task=60, imbalance=64.0)
        with pytest.raises(ConfigError, match="infeasible"):
            generate_synthetic_stream(cfg, seed=1, out_dir=tmp_path)


GEN_CFG = GeneratorConfig(
    tasks=3,
    classes_per_task=6,
    feature_length=8,
    samples_per_task=300,
    imbalance=8.0,
    overlap=0.5,
    shift=4.0,
)


def tree_digest(root):
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("stream")
    manifest_path = generate_synthetic_stream(GEN_CFG, seed=17, out_dir=out)
    manifest = load_manifest(manifest_path)
    sidecar = json.loads((out / "ground_truth.json").read_text(encoding="utf-8"))
    return out, manifest, sidecar


class TestGeneratedStream:
    def test_equal_seeds_are_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic_stream(GEN_CFG, seed=17, out_dir=a)
        generate_synthetic_stream(GEN_CFG, seed=17, out_dir=b)
        assert tree_digest(a) == tree_digest(b)

    def test_different_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic_stream(GEN_CFG, seed=17, out_dir=a)
        generate_synthetic_stream(GEN_CFG, seed=18, out_dir=b)
        assert tree_digest(a) != tree_digest(b)

    def test_class_inventory_respects_overlap(self, generated):
        _, manifest, sidecar = generated
        carry = math.ceil(GEN_CFG.overlap * GEN_CFG.classes_per_task)
        fresh_later = GEN_CFG.classes_per_task - carry
        expected_total = GEN_CFG.classes_per_task + (GEN_CFG.tasks - 1) * fresh_later
        assert len(manifest.labels) == expected_total
        for record in sidecar["tasks"][1:]:
            assert len(record["overlap_with_previous"]) == carry

    def test_overlap_comes_from_previous_task(self, generated):
        _, manifest, sidecar = generated
        for prev, cur in zip(sidecar["tasks"], sidecar["tasks"][1:]):
            prev_names = {c["name"] for c in prev["classes"]}
            for name in cur["overlap_with_previous"]:
                assert name in prev_names
        for entry, record in zip(manifest.tasks, sidecar["tasks"]):
            assert set(entry.class_names) == {c["name"] for c in record["classes"]}

    def test_counts_realize_imbalance_target(self, generated):
        _, _, sidecar = generated
        for record in sidecar["tasks"]:
            counts = [c["count"] for c in record["classes"]]
            assert sum(counts) == pytest.approx(GEN_CFG.samples_per_task, abs=3)
            realized = max(counts) / min(counts)
            assert abs(realized - GEN_CFG.imbalance) <= 0.1 * GEN_CFG.imbalance
            assert min(counts) >= 5

    def test_new_classes_get_the_large_counts(self, generated):
        _, _, sidecar = generated
        for record in sidecar["tasks"][1:]:
            flags = [c["carried"] for c in record["classes"]]
            counts = [c["count"] for c in record["classes"]]
            assert counts == sorted(counts, reverse=True)
            first_carried = flags.index(True)
            assert all(flags[first_carried:])
            assert not any(flags[:first_carried])

    def test_split_is_eighty_twenty(self, generated):
        _, _, sidecar = generated
        for record in sidecar["tasks"]:
            for c in record["classes"]:
                assert c["count_test"] == max(1, round(0.2 * c["count"]))
                assert c["count_train"] + c["count_test"] == c["count"]

    def test_carried_classes_keep_their_centers(self, generated):
        _, _, sidecar = generated
        seen = {}
        for record in sidecar["tasks"]:
            for c in record["classes"]:
                if c["name"] in seen:
                    assert c["center"] == seen[c["name"]]
                    assert c["carried"]
                seen[c["name"]] = c["center"]

    def test_loaded_tasks_match_sidecar_counts(self, generated):
        _, manifest, sidecar = generated
        for record in sidecar["tasks"]:
            t = record["index"]
            train = load_task(manifest, t, split="train")
            test = load_task(manifest, t, split="test")
            by_name = manifest.label_by_name
            for c in record["classes"]:
                class_id = by_name[c["name"]].id
                assert train.class_counts.get(class_id, 0) == c["count_train"]
                assert test.class_counts.get(class_id, 0) == c["count_test"]

    def test_label_ids_follow_first_appearance(self, generated):
        _, manifest, _ = generated
        first_task = manifest.task_entry(1).class_names
        for name in first_task:
            assert manifest.label_by_name[name].id < len(first_task)

    def test_balanced_config_gives_equal_counts(self, tmp_path):
        cfg = GeneratorConfig(
            tasks=1, classes_per_task=4, feature_length=4, samples_per_task=200,
            imbalance=1.0, overlap=0.0, shift=0.0,
        )
        generate_synthetic_stream(cfg, seed=3, out_dir=tmp_path)
        sidecar = json.loads((tmp_path / "ground_truth.json").read_text())
        counts = [c["count"] for c in sidecar["tasks"][0]["classes"]]
        assert counts == [50, 50, 50, 50]

    def test_shifted_centers_are_farther_out(self, generated):
        _, _, sidecar = generated
        task1_norms = [
            np.linalg.norm(c["center"]) for c in sidecar["tasks"][0]["classes"]
        ]
        fresh_norms = [
            np.linalg.norm(c["center"])
            for record in sidecar["tasks"][1:]
            for c in record["classes"]
            if not c["carried"]
        ]
        assert np.mean(fresh_norms) > np.mean(task1_norms) + 1.0
