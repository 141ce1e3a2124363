"""Stream model, manifest validation, imbalance ledger, generator."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from conftest import classes_up_to, dataset_of
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtcl
from mtcl.bridge import build_vocabulary
from mtcl.engine import encode_inputs
from mtcl.errors import ConfigError, DataError, exit_code_for
from mtcl.taskstream import (
    PIECE_BYTES,
    FeatureBlock,
    GeneratorConfig,
    ImbalanceLedger,
    LabelClass,
    Sample,
    TaskDataset,
    generate_synthetic_stream,
    load_manifest,
    load_task,
    write_task,
    _parse_record,
)

STREAM_NAMES = ("cut", "idle", "grasp")


def toy_classes(names):
    return [LabelClass(id=i, name=n) for i, n in enumerate(names)]


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
    return dataset_of(index, samples, classes)


class TestTaskDataset:
    def test_recount_fills_class_counts(self):
        classes = toy_classes(STREAM_NAMES)
        task = toy_task({0: 4, 1: 2, 2: 8}, classes)
        assert ImbalanceLedger().update(task).cumulative_counts == {0: 4, 1: 2, 2: 8}
        assert task.class_names == list(STREAM_NAMES)

    def test_sample_outside_class_set_rejected(self):
        classes = toy_classes(("cut", "idle"))
        stray = Sample(id="x", features=np.zeros(2), question="q", answer=5, answer_name="?")
        with pytest.raises(DataError, match="sample 'x' answers class position 2, not in "
                           "task 1's 2 classes"):
            dataset_of(1, [stray], classes)

    def test_duplicate_class_names_rejected(self):
        dupes = [LabelClass(id=0, name="cut"), LabelClass(id=1, name="cut")]
        with pytest.raises(DataError):
            dataset_of(1, [], dupes)

    def test_task_index_must_be_positive(self):
        with pytest.raises(DataError):
            dataset_of(0, [], [])

    @pytest.mark.parametrize("column", ["ids", "questions", "answers", "features"])
    def test_columns_of_unequal_length_rejected(self, column):
        task = toy_task({0: 2, 1: 1}, toy_classes(STREAM_NAMES))
        columns = {name: getattr(task, name)
                   for name in ("ids", "questions", "answers", "features")}
        columns[column] = columns[column][:-1]
        with pytest.raises(DataError, match=r"have unequal lengths \["):
            TaskDataset(task_index=1, classes=task.classes, **columns)

    def test_samples_is_a_lazy_read_only_view(self, monkeypatch):
        task = toy_task({0: 2, 1: 1}, toy_classes(STREAM_NAMES))
        built = []

        def counted(*fields):
            built.append(fields[0])
            return Sample(*fields)

        monkeypatch.setattr("mtcl.taskstream.Sample", counted)
        samples = task.samples
        assert len(samples) == 3 and built == []
        assert samples[-1].answer_name == "idle" and built == ["s-2"]
        assert [s.id for s in samples] == ["s-0", "s-1", "s-2"]
        with pytest.raises(TypeError):
            samples[0] = None


SAMPLE_FIELDS = ("id", "features", "question", "answer", "answer_name")


class TestSample:
    @pytest.mark.parametrize("name", SAMPLE_FIELDS)
    def test_fields_are_read_only(self, name):
        sample = Sample(id="s", features=np.zeros(2), question="q", answer=0,
                        answer_name="cut")
        with pytest.raises(AttributeError):
            setattr(sample, name, None)
        assert sample.id == "s" and sample.answer == 0 and sample.answer_name == "cut"


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
        ledger.update(toy_task({1: 5}, toy_classes(("cut", "idle"))))
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

    splits = {
        (1, "train"): rows(1, ["cut", "idle", "cut"]),
        (1, "test"): rows(1, ["idle"]),
        (2, "train"): rows(2, ["grasp", "idle"]),
        (2, "test"): rows(2, ["grasp"]),
    }
    payload = {
        "format_version": 1,
        "feature_length": 2,
        "vocab_file": "vocab.txt",
        "labels": [
            {"id": c.id, "name": c.name, "tokens": vocab.encode(c.name)} for c in classes
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
    for (task, split), samples in splits.items():
        name = f"task{task}.{split}"
        data = dataset_of(task, samples, classes)
        block = write_task(root / f"{name}.jsonl", data, root / f"{name}.f64")
        payload["tasks"][task - 1][f"{split}_features"] = asdict(block)
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
        assert [s.id for s in task.samples] == ["t1-0", "t1-1", "t1-2"]
        assert [s.answer_name for s in task.samples] == ["cut", "idle", "cut"]
        assert task.answers.tolist() == [0, 1, 0]
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

    @pytest.mark.parametrize("indices, found", [((1, 1), 1), ((2, 3), 2), ((0, 1), 0)],
                             ids=["repeated", "starts-at-2", "starts-at-0"])
    def test_task_indices_strictly_increasing(self, tmp_path, indices, found):
        def renumber(payload):
            for entry, index in zip(payload["tasks"], indices, strict=True):
                entry["index"] = index

        rule = "start at 1 and be strictly increasing"
        with pytest.raises(DataError, match=f"{rule}, found {found}$"):
            load_manifest(write_stream(tmp_path, renumber))

    def test_gaps_after_the_first_task_are_allowed(self, tmp_path):
        def skip(payload):
            payload["tasks"][1]["index"] = 3

        assert [e.index for e in load_manifest(write_stream(tmp_path, skip)).tasks] == [1, 3]

    def test_no_tasks_rejected(self, tmp_path):
        def clear(payload):
            payload["tasks"] = []

        with pytest.raises(DataError, match="no tasks"):
            load_manifest(write_stream(tmp_path, clear))

    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (lambda m: m.update(format_version=2), "format_version must be the integer 1, got 2"),
            (lambda m: m.update(feature_length=0),
             "feature_length must be an integer >= 1, got 0"),
            (lambda m: m["labels"].reverse(),
             "label id at position 0 must be the integer 0 (ids run 0..n-1), got 2"),
            (lambda m: m["tasks"][0].update(index=2), "task indices must start at 1"),
            (lambda m: m["tasks"][1]["classes"].append("phantom"),
             "task 2 declares unknown class 'phantom'"),
            (lambda m: m.update(tasks=[]), "manifest declares no tasks"),
            (lambda m: m["tasks"][1]["classes"].append("idle"),
             "task 2 lists class 'idle' more than once"),
        ],
        ids=["version-2", "feature-length-0", "label-ids-out-of-order", "first-index-2",
             "unknown-class", "no-tasks", "repeated-class"],
    )
    def test_field_errors_name_the_manifest(self, tmp_path, mutate, reason):
        path = write_stream(tmp_path, mutate)
        with pytest.raises(DataError) as info:
            load_manifest(path)
        assert str(info.value).startswith(f"manifest {path}: {reason}")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("feature_length", 2.0),
            ("feature_length", 2.9),
            ("feature_length", "2"),
            ("feature_length", True),
            ("task index", 1.5),
            ("task index", "1"),
            ("task index", True),
            ("task index", None),
        ],
    )
    def test_integer_fields_must_be_json_integers(self, tmp_path, field, value):
        def retype(payload):
            if field == "feature_length":
                payload["feature_length"] = value
            else:
                payload["tasks"][0]["index"] = value

        with pytest.raises(DataError, match=f"{field} must be an integer"):
            load_manifest(write_stream(tmp_path, retype))

    @pytest.mark.parametrize("field", ["train_file", "test_features"])
    def test_file_names_with_a_null_byte_rejected(self, tmp_path, field):
        def rename(payload):
            entry = payload["tasks"][0]
            if field == "train_file":
                entry["train_file"] = "task1\0.jsonl"
            else:
                entry["test_features"]["file"] = "task1\0.f64"

        with pytest.raises(DataError, match="must be a file name"):
            load_manifest(write_stream(tmp_path, rename))

    @pytest.mark.parametrize("task", [1, 2])
    @pytest.mark.parametrize("key", ["train_features", "test_features"])
    def test_task_without_a_feature_block_rejected(self, tmp_path, key, task):
        def strip(payload):
            del payload["tasks"][task - 1][key]

        with pytest.raises(DataError, match=f"task {task} {key} is missing"):
            load_manifest(write_stream(tmp_path, strip))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{ nope", encoding="utf-8")
        with pytest.raises(DataError, match="JSON"):
            load_manifest(path)

    def test_json_nested_too_deeply_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        # Also an integer over Python's 4,300-digit limit.
        for text in ("[" * 100_000, '{"feature_length": ' + "1" * 5000 + "}"):
            path.write_text(text, encoding="utf-8")
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

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        task_file = tmp_path / "task1.train.jsonl"
        records = task_file.read_text().splitlines()
        before = load_task(load_manifest(manifest_path), 1)
        task_file.write_text("\n" + "\n \t\n".join(records) + "\n\n")
        after = load_task(load_manifest(manifest_path), 1)
        assert [(s.id, s.question, s.answer, s.features.tolist()) for s in after.samples] == [
            (s.id, s.question, s.answer, s.features.tolist()) for s in before.samples]
        task_file.write_text("\n \nnot json\n")
        with pytest.raises(DataError, match=r"task1\.train\.jsonl:3: malformed record"):
            load_task(load_manifest(manifest_path), 1)

    @pytest.mark.parametrize(
        "key, value",
        [("id", None), ("id", 7), ("id", ["t1-9"]), ("question", 7), ("question", None),
         ("question", {"q": 1})],
    )
    def test_id_and_question_must_be_strings(self, tmp_path, key, value):
        manifest_path = write_stream(tmp_path)
        task_file = tmp_path / "task1.test.jsonl"
        record = json.loads(task_file.read_text())
        record[key] = value
        task_file.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataError,
                           match=rf"task1\.test\.jsonl:1: {key} .* is not a string"):
            load_task(load_manifest(manifest_path), 1, "test")

    def test_record_nested_too_deeply_is_malformed(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        task_file = tmp_path / "task1.train.jsonl"
        records = task_file.read_text()
        # Also an integer over Python's 4,300-digit limit.
        for line in ("[" * 100_000, '{"id": ' + "1" * 5000 + "}"):
            task_file.write_text(records + line + "\n")
            with pytest.raises(DataError, match=r"task1\.train\.jsonl:4: malformed record"):
                load_task(load_manifest(manifest_path), 1)

    def test_unknown_class_name(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        task_file = tmp_path / "task1.train.jsonl"
        record = {"id": "bad", "question": "q", "answer": "phantom"}
        task_file.write_text(task_file.read_text() + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="phantom"):
            load_task(load_manifest(manifest_path), 1)

    def test_class_not_declared_for_task(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        task_file = tmp_path / "task1.train.jsonl"
        record = {"id": "bad", "question": "q", "answer": "grasp"}
        task_file.write_text(task_file.read_text() + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="not declared"):
            load_task(load_manifest(manifest_path), 1)

    def test_missing_file(self, tmp_path):
        manifest_path = write_stream(tmp_path)
        (tmp_path / "task1.train.jsonl").unlink()
        with pytest.raises(DataError, match="cannot read"):
            load_task(load_manifest(manifest_path), 1)


def load_all(manifest) -> list:
    """Every split of every task the manifest lists, train before test."""
    return [
        load_task(manifest, entry.index, split)
        for entry in manifest.tasks
        for split in ("train", "test")
    ]


def contents(tasks) -> list:
    """What a split holds, with feature vectors compared bit for bit."""
    return [
        [(s.id, s.question, s.answer, s.features.tobytes()) for s in task.samples]
        for task in tasks
    ]


def pin_block(root, task, split, data):
    """Write ``data`` as a split's block and pin the manifest entry to it."""
    (root / f"task{task}.{split}.f64").write_bytes(data)
    path = root / "manifest.json"
    payload = json.loads(path.read_text())
    payload["tasks"][task - 1][f"{split}_features"].update(
        bytes=len(data), sha256=hashlib.sha256(data).hexdigest()
    )
    path.write_text(json.dumps(payload))


def load_or_data_error(load, named=None):
    """``load()``, or None when it raises DataError, whose message must
    then hold one of the paths ``named``, if given.  It must allocate less
    than 64 KiB: no length that a file declares may set an allocation."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            return load()
        except DataError as exc:
            assert named is None or any(str(p) in str(exc) for p in named), exc
            return None
        finally:
            assert tracemalloc.get_traced_memory()[1] - before < 64 * 1024
    finally:
        tracemalloc.stop()


class TestFeatureBlocks:
    def test_records_keep_id_question_and_answer_only(self, tmp_path):
        write_stream(tmp_path)
        for line in (tmp_path / "task1.train.jsonl").read_text().splitlines():
            assert list(json.loads(line)) == ["id", "question", "answer"]
        expected = np.array([[0.0, -1.0], [1.0, -1.0], [2.0, -1.0]], dtype="<f8")
        assert (tmp_path / "task1.train.f64").read_bytes() == expected.tobytes()

    def test_samples_are_read_only_rows_of_one_matrix(self, tmp_path):
        task = load_task(load_manifest(write_stream(tmp_path)), 1)
        first = task.samples[0].features
        for s in task.samples:
            assert not s.features.flags.owndata
            assert not s.features.flags.writeable
            assert s.features.base is first.base
            with pytest.raises(ValueError, match="read-only"):
                s.features[0] = 0.0
            for name in SAMPLE_FIELDS:
                with pytest.raises(AttributeError):
                    setattr(s, name, None)
        assert np.shares_memory(first, task.samples[-1].features.base)

    def test_features_are_the_block_read_into_the_design_buffer(self, tmp_path, monkeypatch):
        read = []
        real = mtcl.taskstream._read_block

        def kept(*args):
            read.append(real(*args))
            return read[-1]

        monkeypatch.setattr(mtcl.taskstream, "_read_block", kept)
        manifest = load_manifest(write_stream(tmp_path))
        task = load_task(manifest, 1)
        features, design = read[0]
        assert task.features is features
        assert not task.features.flags.writeable
        assert task.design is design
        assert design.shape == (3, manifest.feature_length + len(manifest.vocab) + 1)
        assert np.shares_memory(task.features, design)
        assert task.features.tobytes() == (tmp_path / "task1.train.f64").read_bytes()

    def test_generator_writes_a_block_per_split(self, generated):
        out, manifest, _ = generated
        for entry in manifest.tasks:
            for _, block in entry.splits.values():
                data = (out / block.file).read_bytes()
                assert len(data) == block.bytes
                assert hashlib.sha256(data).hexdigest() == block.sha256

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda root: (root / "task1.train.f64").unlink(), "cannot read feature block"),
            (lambda root: (root / "task1.train.f64").write_bytes(
                (root / "task1.train.f64").read_bytes()[:-8]), "holds 40 bytes"),
            (lambda root: (root / "task1.train.f64").write_bytes(
                (root / "task1.train.f64").read_bytes() + bytes(8)), "holds 56 bytes"),
            (lambda root: (root / "task1.train.f64").write_bytes(
                np.array([9.0]).tobytes() + (root / "task1.train.f64").read_bytes()[8:]),
             "SHA-256"),
            (lambda root: pin_block(root, 1, "train", bytes(56)), "3 records"),
            (lambda root: pin_block(root, 1, "train", bytes(40)), "3 records"),
            (lambda root: pin_block(
                root, 1, "train", np.array([0, 1, 2, 3, np.inf, 5.0]).tobytes()),
             "row 3 holds a non-finite"),
            (lambda root: pin_block(
                root, 1, "train", np.array([0, 1, np.nan, 3, 4, 5.0]).tobytes()),
             "row 2 holds a non-finite"),
            (lambda root: (root / "task1.train.jsonl").write_text(
                (root / "task1.train.jsonl").read_text()
                + '{"id": "x", "question": "q", "answer": "cut"}\n'), "4 records"),
            (lambda root: (root / "task1.train.jsonl").write_text(
                '{"id": "x", "features": [0.0, 0.0], "question": "q", "answer": "cut"}\n'),
             r"task1\.train\.jsonl:1: record carries features"),
        ],
        ids=[
            "missing", "truncated", "extended", "digest", "extra-row", "missing-row",
            "infinity", "nan", "extra-record", "record-with-features",
        ],
    )
    def test_mismatches_rejected(self, tmp_path, damage, message):
        write_stream(tmp_path)
        damage(tmp_path)
        with pytest.raises(DataError, match=message):
            load_task(load_manifest(tmp_path / "manifest.json"), 1)

    @pytest.mark.parametrize(
        "key, value",
        [
            (None, "task1.train.f64"),
            (None, None),
            (None, [48]),
            ("file", 5),
            ("file", ""),
            ("bytes", -8),
            ("bytes", 48.0),
            ("bytes", "48"),
            ("bytes", True),
            ("bytes", None),
            ("sha256", "0" * 63),
            ("sha256", 5),
            ("sha256", "upper"),
        ],
    )
    def test_ill_typed_block_entry_rejected(self, tmp_path, key, value):
        def retype(payload):
            entry = payload["tasks"][0]
            if key is None:
                entry["train_features"] = value
            elif value == "upper":
                entry["train_features"][key] = entry["train_features"][key].upper()
            else:
                entry["train_features"][key] = value

        path = write_stream(tmp_path, retype)
        with pytest.raises(DataError, match="task 1 train_features"):
            load_manifest(path)

    @pytest.mark.parametrize("field", ["file", "bytes", "sha256"])
    def test_block_entry_without_a_field_rejected(self, tmp_path, field):
        def strip(payload):
            del payload["tasks"][0]["train_features"][field]

        with pytest.raises(DataError, match=f"malformed: KeyError\\('{field}'\\)"):
            load_manifest(write_stream(tmp_path, strip))

    def test_write_task_returns_the_entry_of_the_block_it_wrote(self, tmp_path):
        split = load_task(load_manifest(write_stream(tmp_path)), 1)
        entry = write_task(tmp_path / "copy.jsonl", split, tmp_path / "copy.f64")
        data = (tmp_path / "copy.f64").read_bytes()
        assert entry == FeatureBlock("copy.f64", len(data), hashlib.sha256(data).hexdigest())
        assert data == (tmp_path / "task1.train.f64").read_bytes()
        assert (tmp_path / "copy.jsonl").read_bytes() == (
            tmp_path / "task1.train.jsonl"
        ).read_bytes()

    def test_huge_declared_size_allocates_nothing_for_it(self, tmp_path):
        def inflate(payload):
            payload["tasks"][0]["train_features"]["bytes"] = 2**62

        path = write_stream(tmp_path, inflate)
        assert load_or_data_error(lambda: load_all(load_manifest(path))) is None

    @pytest.mark.parametrize("change, message", [
        (lambda data: data[:-8], "shrank"),
        (lambda data: b"", "shrank"),
        (lambda data: data + bytes(8), "grew"),
    ], ids=["shrinks", "empties", "grows"])
    def test_block_that_changes_while_read_rejected(self, tmp_path, monkeypatch, change,
                                                    message):
        """A block that changes length after its length was checked is a
        DataError naming it, never a traceback or a short matrix."""
        write_stream(tmp_path)
        path = tmp_path / "task1.train.f64"
        real = mtcl.taskstream.parse_stream

        class Changing:
            """The open block, rewritten on disk just before its first read."""

            def __init__(self, file):
                self.file, self.changed = file, False

            def fileno(self):
                return self.file.fileno()

            def read(self, n):
                return self.file.read(n)

            def readinto(self, view):
                if not self.changed:
                    path.write_bytes(change(path.read_bytes()))
                    self.changed = True
                return self.file.readinto(view)

        monkeypatch.setattr(mtcl.taskstream, "parse_stream",
                            lambda p, what, parse: real(p, what, lambda f: parse(Changing(f))))
        with pytest.raises(DataError, match=f"{message} while it was read") as info:
            load_task(load_manifest(tmp_path / "manifest.json"), 1)
        assert exit_code_for(info.value) == 3
        assert f"feature block {path}: " in str(info.value)


# float64 values in one piece of a feature block.
PIECE_VALUES = PIECE_BYTES // 8


@st.composite
def piece_shapes(draw):
    """(rows, features) of a block around one piece: one row fewer than a
    piece holds, as many or one more; or up to 3 rows each wider than a piece."""
    if draw(st.booleans()):
        return draw(st.integers(1, 3)), draw(st.integers(PIECE_VALUES + 1, PIECE_VALUES + 512))
    features = draw(st.integers(1, PIECE_VALUES // 2))
    return PIECE_VALUES // features + draw(st.sampled_from([-1, 0, 1])), features


def write_block_split(root, rows: int, features: int, seed: int) -> bytes:
    """A stream whose task 1 train split has ``rows`` records of ``features``
    seeded float64 values; returns the split's block."""

    def widen(payload):
        payload["feature_length"] = features

    write_stream(root, widen)
    matrix = np.random.default_rng(seed).standard_normal((rows, features))
    split = TaskDataset(1, toy_classes(("cut", "idle")), [f"t1-{i}" for i in range(rows)],
                        ["q"] * rows, np.zeros(rows, dtype=np.int64), matrix)
    write_task(root / "task1.train.jsonl", split, root / "task1.train.f64")
    data = (root / "task1.train.f64").read_bytes()
    pin_block(root, 1, "train", data)
    return data


class TestBlockPieces:
    """A block is read in pieces of at most ``PIECE_BYTES`` into its split's
    design buffer, and loads as one ``frombuffer`` of the file would."""

    @settings(max_examples=25, deadline=None)
    @given(shape=piece_shapes(), seed=st.integers(0, 2**32 - 1))
    @example(shape=(1, PIECE_VALUES), seed=0)
    @example(shape=(2, PIECE_VALUES + 1), seed=0)
    def test_loads_bit_identical_around_a_piece(self, tmp_path_factory, shape, seed):
        rows, features = shape
        root = tmp_path_factory.mktemp("pieces")
        data = write_block_split(root, rows, features, seed)
        pieces = []
        real = mtcl.taskstream._pieces

        def spied(matrix):
            for piece in real(matrix):
                pieces.append(piece.nbytes)
                yield piece

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mtcl.taskstream, "_pieces", spied)
            manifest = load_manifest(root / "manifest.json")
            task = load_task(manifest, 1)
        assert sum(pieces) == len(data)
        assert max(pieces) <= min(PIECE_BYTES, len(data))
        assert task.features.tobytes() == np.frombuffer(data, "<f8").reshape(shape).tobytes()
        assert not task.features.flags.writeable
        design = encode_inputs(task, manifest.vocab, features)
        assert design is task.design
        assert design[:, :features].tobytes() == data

    @pytest.mark.parametrize("extra_rows, pin_damage, message", [
        (0, False, "SHA-256"), (1, True, "3 records of 16384"), (1, False, "SHA-256"),
    ], ids=["digest", "extra-row", "extra-row-and-digest"])
    def test_block_of_many_pieces_checked_whole(self, tmp_path, extra_rows, pin_damage,
                                                message):
        """The digest covers every piece, and is checked before the shape."""
        data = write_block_split(tmp_path, 3, 2 * PIECE_VALUES, seed=1)
        damaged = data[:-8] + np.array([9.0]).tobytes() + bytes(extra_rows * len(data) // 3)
        pin_block(tmp_path, 1, "train", damaged)
        if not pin_damage:  # the manifest keeps the original block's digest
            path = tmp_path / "manifest.json"
            payload = json.loads(path.read_text())
            payload["tasks"][0]["train_features"]["sha256"] = hashlib.sha256(data).hexdigest()
            path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            load_task(load_manifest(tmp_path / "manifest.json"), 1)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(),
    st.text(max_size=70), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


# Whitespace that JSON allows around a value, and some it does not.
JSON_SPACE = st.text(alphabet=" \t\r", max_size=2)
OTHER_SPACE = st.sampled_from(["", "\x0c", "\x0b", "\xa0", "\u2028"])
# Pieces of JSON text, most of which join into a broken line.
FRAGMENTS = ['{', '}', '[', ']', '"', ',', ':', '0', '-', '1', '.', 'e', '+', ' ',
             '\t', '\\', 'null', 'true', 'NaN', 'Infinity', '\x0c', '\ufeff', 'a']


def parsed(parse, line):
    """What ``parse(line)`` gives, NaN-aware, or the ValueError it raises."""
    try:
        return "value", repr(parse(line))
    except ValueError as exc:
        return "error", type(exc), str(exc)


class TestRecordParse:
    """A task file's line parses as ``json.loads`` parses it: the same
    value, or the same ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(
        value=JSON_VALUES, second=st.none() | JSON_VALUES, bom=st.booleans(),
        spaces=st.lists(st.one_of(JSON_SPACE, OTHER_SPACE), min_size=3, max_size=3),
    )
    def test_agrees_with_json_loads(self, value, second, bom, spaces):
        before, between, after = spaces
        line = before + json.dumps(value)
        if second is not None:
            line += between + json.dumps(second)
        line = ("\ufeff" if bom else "") + line + after
        assert parsed(_parse_record, line) == parsed(json.loads, line)

    @settings(max_examples=200, deadline=None)
    @given(line=st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join))
    def test_agrees_on_fragments(self, line):
        assert parsed(_parse_record, line) == parsed(json.loads, line)

    @pytest.mark.parametrize(
        "line", ["NaN", "-Infinity", "[Infinity, NaN]", '{"id": NaN}', "{} {}", "{}{}",
                 " {}", "{}\t", "\ufeff{}", "{}\x0c", "\xa0{}", "1 2", '"a" "b"'],
    )
    def test_edge_lines(self, line):
        assert parsed(_parse_record, line) == parsed(json.loads, line)


# Finite float64 values, -0.0 and the subnormals among them.
FEATURE_VALUES = FINITE | st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308])


class TestWriteTaskRoundtrip:
    """``load_task`` reads back what ``write_task`` wrote, column for
    column, and writing the loaded split again gives the same bytes."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.text(), st.text(), st.integers(0, len(STREAM_NAMES) - 1),
                  st.lists(FEATURE_VALUES, min_size=2, max_size=2)),
        min_size=1, max_size=6,
    ))
    @example(rows=[("t1-\u2028", "a\x85b\u2029c\rd", 2, [-0.0, 5e-324])])
    def test_load_reads_what_write_wrote(self, tmp_path_factory, rows):
        root = tmp_path_factory.mktemp("roundtrip")

        def every_class(payload):
            payload["tasks"][0]["classes"] = list(STREAM_NAMES)

        manifest_path = write_stream(root, every_class)
        ids, questions, answers, features = map(list, zip(*rows))
        split = TaskDataset(1, toy_classes(STREAM_NAMES), ids, questions,
                            np.array(answers, dtype=np.int64), np.array(features))
        records, block = root / "task1.train.jsonl", root / "task1.train.f64"
        write_task(records, split, block)
        pin_block(root, 1, "train", block.read_bytes())
        loaded = load_task(load_manifest(manifest_path), 1)
        assert (loaded.ids, loaded.questions) == (ids, questions)
        assert loaded.answers.tolist() == answers
        assert loaded.features.tobytes() == split.features.tobytes()
        written = records.read_bytes(), block.read_bytes()
        write_task(records, loaded, block)
        assert (records.read_bytes(), block.read_bytes()) == written

    def test_a_raw_line_separator_inside_a_record_is_text(self, tmp_path):
        manifest = load_manifest(write_stream(tmp_path))
        question = "cut\u2028here\x85or\u2029there"
        record = {"id": "t1-0", "question": question, "answer": "idle"}
        (tmp_path / "task1.test.jsonl").write_text(
            json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_task(manifest, 1, "test").questions == [question]


class TestStreamReaderFuzz:
    """Every damaged stream file loads or raises DataError, and no length
    the files declare makes the reader allocate beyond the files' size."""

    @settings(max_examples=2, deadline=None)
    @given(values=st.lists(FINITE, min_size=6, max_size=6))
    def test_block_truncation_extension_and_bit_flips(self, tmp_path_factory, values):
        root = tmp_path_factory.mktemp("block")
        write_stream(root)
        whole = np.array(values, dtype="<f8").tobytes()
        pin_block(root, 1, "train", whole)
        manifest_path = root / "manifest.json"
        original = contents([load_task(load_manifest(manifest_path), 1)])
        variants = [whole[:cut] for cut in range(len(whole))]
        variants += [whole + whole[:n] for n in (1, 8, 16)]
        for bit in range(8 * len(whole)):
            flipped = bytearray(whole)
            flipped[bit // 8] ^= 1 << (bit % 8)
            variants.append(bytes(flipped))
        manifest = load_manifest(manifest_path)
        for i, data in enumerate(variants):
            # The manifest pins the original block.
            (root / "task1.train.f64").write_bytes(data)
            loaded = load_or_data_error(lambda: [load_task(manifest, 1)])
            assert loaded is None or contents(loaded) == original
            # The manifest pins the damaged block: only the shape and
            # finiteness checks stand between it and the trainer.  Of the
            # bit flips, those in the sign and exponent bytes can make a
            # value non-finite.
            flipped_byte = (i - len(whole) - 3) // 8
            if flipped_byte >= 0 and flipped_byte % 8 < 6:
                continue
            pin_block(root, 1, "train", data)
            loaded = load_or_data_error(lambda: load_task(load_manifest(manifest_path), 1))
            if loaded is not None:
                assert b"".join(s.features.tobytes() for s in loaded.samples) == data
                assert all(np.isfinite(s.features).all() for s in loaded.samples)

    @settings(max_examples=40, deadline=None)
    @given(key=st.sampled_from([None, "file", "bytes", "sha256"]), value=JSON_VALUES)
    def test_mutated_block_entry(self, tmp_path_factory, key, value):
        root = tmp_path_factory.mktemp("entry")
        manifest_path = write_stream(root)
        original = contents(load_all(load_manifest(manifest_path)))

        def mutate(payload):
            entry = payload["tasks"][0]
            if key is None:
                entry["train_features"] = value
            else:
                entry["train_features"][key] = value

        write_stream(root, mutate)
        loaded = load_or_data_error(lambda: load_all(load_manifest(manifest_path)))
        assert loaded is None or contents(loaded) == original

    @settings(max_examples=60, deadline=None)
    @given(
        target=st.sampled_from(
            ["manifest.json", "vocab.txt", "task1.train.jsonl", "task2.test.jsonl"]
        ),
        data=st.data(),
    )
    def test_truncated_or_bit_flipped_stream_file(self, tmp_path_factory, target, data):
        root = tmp_path_factory.mktemp("stream")
        write_stream(root)
        whole = (root / target).read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            damaged = whole[: data.draw(st.integers(0, len(whole) - 1), label="cut")]
        else:
            bit = data.draw(st.integers(0, 8 * len(whole) - 1), label="bit")
            flipped = bytearray(whole)
            flipped[bit // 8] ^= 1 << (bit % 8)
            damaged = bytes(flipped)
        (root / target).write_bytes(damaged)
        # The error names the damaged file or the file it disagrees with:
        # the manifest for a vocabulary, the block for a task file's record
        # count, and for the manifest any file of the stream it names.
        named = {
            "manifest.json": [root],
            "vocab.txt": [root / "vocab.txt", root / "manifest.json"],
        }.get(target, [root / target, root / target.replace(".jsonl", ".f64")])
        load_or_data_error(lambda: load_all(load_manifest(root / "manifest.json")), named)


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

    @pytest.mark.parametrize("field, value", [
        ("tasks", 2.5), ("classes_per_task", 3.0), ("feature_length", True),
        ("samples_per_task", 100.5), ("overlap", "0.5"), ("overlap", None),
    ])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GeneratorConfig(**{field: value})

    def test_wrong_types_collected_in_one_error(self):
        with pytest.raises(ConfigError) as info:
            GeneratorConfig(tasks=2.5, classes_per_task=3.0, feature_length=True,
                            samples_per_task=100.5)
        message = str(info.value)
        for field in ("tasks", "classes_per_task", "feature_length", "samples_per_task"):
            assert f"{field} must be an integer" in message

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, seed):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            generate_synthetic_stream(GeneratorConfig(), seed=seed, out_dir=tmp_path / "s")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("classes, samples", [(6, 29), (10**12, 3 * 10**12)])
    def test_too_few_samples_for_the_classes_rejected(self, classes, samples):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"cannot give {classes} classes 5 samples"):
                GeneratorConfig(classes_per_task=classes, samples_per_task=samples)
            assert tracemalloc.get_traced_memory()[1] < 64 * 1024
        finally:
            tracemalloc.stop()
        GeneratorConfig(classes_per_task=6, samples_per_task=30)

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


EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"

# SHA-256 of every file the packaged stream (experiments/stream_params.json)
# is made of, as numpy 2.4 on x86-64 writes it.
PACKAGED_STREAM_DIGESTS = {
    "ground_truth.json": "f33ecb9d0b0b334a4040a124f5772fbf5599da9c4ccf34b0b6f86ba94f4ac251",
    "manifest.json": "58160e265d167c9cb5b73dedb9629e2c7f7a7b52b31979519c520319b5e09e01",
    "task1.test.f64": "585161a16332bf47446710d21543050fcedcda21d7919b1045b011cb9ef4719a",
    "task1.test.jsonl": "daf7b78d870e75ac8ded0f2546827b419884f6ce7109cf485d99e9277c2d8a72",
    "task1.train.f64": "a24687434e5ad7b54c27f4e64a217f72b008d5e44dfc6abd570427dc914391c5",
    "task1.train.jsonl": "62fcad5127176f08baf905ea988f918e254715c0e674ac83ee02898280ab5ad9",
    "task2.test.f64": "ea9b780d67561a6c6b5f0c6e5eec6bfea724b6c41f1376edaceaf64376d6a305",
    "task2.test.jsonl": "8529bc1bebe3c016d4cb14381931091843a05b059d10d6f8dc55553f0f23c1e2",
    "task2.train.f64": "5498312bc74522c2d233d1526a40716f3debcf7e5f00ac40f597a84f8c327e3b",
    "task2.train.jsonl": "a94760e14e8acfcc1fd531a2e72c5363cec871e8cc630ef35816ecdc4cdb5212",
    "task3.test.f64": "5d599417f47c2afbf329ddd8927112e307286090620553cddee8c9d4d5b29170",
    "task3.test.jsonl": "1ef35e93d34b04ad9b691e827cedfa480b04538b3432bdb2bdef0e1351901b8b",
    "task3.train.f64": "77f45bd92f96b749372e1c5e6dcbb744820ee686b06e9f8abedc571c3fac8a00",
    "task3.train.jsonl": "eaf3af1f888696c91c1ffb2387a5886e9892a63b344e4f24cd16cd8de1087433",
    "vocab.txt": "1f538521e7011667114d7f11ce463e73e1f02ba5dae731bebc4536b702030002",
}


# SHA-256 of the JSON (sorted keys) of tree_digest's listing, for more
# generator settings: the defaults, full overlap without shift, no overlap,
# and the wide stream of perfbench/inputs.py.
GENERATOR_GOLDEN = {
    "defaults": (
        GeneratorConfig(), 0,
        "4a1142afdafbc28f09e5d43bf333be80f64f859d2a64edb096bafa37787e93c3",
    ),
    "full-overlap-no-shift": (
        GeneratorConfig(overlap=1.0, shift=0.0), 0,
        "58bd107d339c7672390c1e9d4b330753c320aee0d30b8191e555f4d6ab832ee9",
    ),
    "no-overlap": (
        GeneratorConfig(overlap=0.0), 0,
        "d82d17107f747cfc718b6c797ed2e2cd95b3c368d506a107eabd155a2eab1424",
    ),
    "wide": (
        GeneratorConfig(tasks=6, classes_per_task=10, feature_length=64,
                        samples_per_task=3000, imbalance=8.0, overlap=0.3, shift=8.0,
                        cluster_std=1.0),
        17,
        "f2881d7ed1c65123266318cf9c1d3be414b458b46154279d0c54020a939c2fe2",
    ),
}

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

    def test_packaged_stream_is_byte_identical_to_its_golden_digests(self, tmp_path):
        params = json.loads((EXPERIMENTS / "stream_params.json").read_text())
        seed = params.pop("seed")
        generate_synthetic_stream(GeneratorConfig(**params), seed, tmp_path)
        assert tree_digest(tmp_path) == PACKAGED_STREAM_DIGESTS

    @pytest.mark.parametrize("name", sorted(GENERATOR_GOLDEN))
    def test_generator_output_matches_its_golden_digest(self, tmp_path, name):
        cfg, seed, digest = GENERATOR_GOLDEN[name]
        generate_synthetic_stream(cfg, seed, tmp_path)
        listing = json.dumps(tree_digest(tmp_path), sort_keys=True).encode()
        assert hashlib.sha256(listing).hexdigest() == digest

    def test_output_does_not_depend_on_the_blas_kernel(self, tmp_path):
        """Every golden stream, drawn in child processes that force two
        OpenBLAS kernels, has the bytes drawn in this process."""
        params = json.loads((EXPERIMENTS / "stream_params.json").read_text())
        seed = params.pop("seed")
        jobs = {"packaged": (params, seed)}
        for name, (cfg, seed, _) in GENERATOR_GOLDEN.items():
            jobs[name] = (asdict(cfg), seed)
        script = (
            "import json, sys\n"
            "from mtcl.taskstream import GeneratorConfig, generate_synthetic_stream\n"
            "root, jobs = sys.argv[1], json.loads(sys.argv[2])\n"
            "for name, (params, seed) in jobs.items():\n"
            "    generate_synthetic_stream(GeneratorConfig(**params), seed, f'{root}/{name}')\n"
        )
        src = str(Path(mtcl.__file__).resolve().parents[1])
        for kernel in ("Haswell", "Prescott"):
            done = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / kernel), json.dumps(jobs)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel},
            )
            assert done.returncode == 0, done.stderr
        for name, (params, seed) in jobs.items():
            generate_synthetic_stream(GeneratorConfig(**params), seed, tmp_path / "here" / name)
            here = tree_digest(tmp_path / "here" / name)
            for kernel in ("Haswell", "Prescott"):
                assert tree_digest(tmp_path / kernel / name) == here, (name, kernel)

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
            train_counts = ImbalanceLedger().update(train).cumulative_counts
            test_counts = ImbalanceLedger().update(test).cumulative_counts
            by_name = manifest.label_by_name
            for c in record["classes"]:
                class_id = by_name[c["name"]].id
                assert train_counts.get(class_id, 0) == c["count_train"]
                assert test_counts.get(class_id, 0) == c["count_test"]

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
