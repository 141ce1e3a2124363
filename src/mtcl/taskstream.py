"""Task-stream data model, ingestion, imbalance accounting, generation.

A stream is an ordered sequence of classification tasks.  Each task
ships one split per name in ``SPLITS`` (an 80/20 train/test pair), plus
a manifest that pins the feature length, the label inventory with token
sequences, and the task order.  Labels are identified by name; ids are
assigned at first appearance and never change.

A split is a line-delimited JSON file of records (id, question, answer),
named by the task's ``{split}_file`` key, and a feature block named by
its ``{split}_features`` key: raw little-endian float64, row-major, one
row per record, pinned by its byte length and SHA-256.  A split loads
its features with one read and one ``frombuffer``, and its samples'
feature vectors are row views of that one matrix.

The synthetic generator produces streams with two controllable
stressors: domain shift (classes new to a task get cluster centers
pushed away from the origin region by a configurable magnitude) and
data imbalance (per-class counts interpolate geometrically between the
largest and smallest class so their ratio hits a target).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bridge import Vocabulary, build_vocabulary
from .errors import ConfigError, DataError, parse_json, read_input, sized_by, write_output
from .weights import is_finite_number, is_integer

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
VOCAB_NAME = "vocab.txt"
SIDECAR_NAME = "ground_truth.json"

# A feature block holds float64 in this byte order, row-major.
BLOCK_DTYPE = np.dtype("<f8")
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")

SPLITS = ("train", "test")
TEST_FRACTION = 0.2

# Feasibility floor: the smallest class must survive an 80/20 split and
# keep count rounding from distorting the realized imbalance ratio.
MIN_CLASS_COUNT = 5
IR_TOLERANCE = 0.1


@dataclass(frozen=True)
class LabelClass:
    """One answer label: stable id and display name."""

    id: int
    name: str


class Sample(NamedTuple):
    """One record: feature vector, question text, answer label.

    A tuple, so its fields are read-only and it is cheap to build.  A
    loaded sample holds a read-only row view of its split's feature
    block as ``features``.
    """

    id: str
    features: np.ndarray
    question: str
    answer: int
    answer_name: str


@dataclass
class TaskDataset:
    """All samples of one task split, with per-class counts."""

    task_index: int
    samples: list
    classes: list
    class_counts: dict = field(init=False)

    def __post_init__(self):
        if self.task_index < 1:
            raise DataError(f"task index must be >= 1, got {self.task_index}")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate class names in task {self.task_index}")
        known = {c.id for c in self.classes}
        counts = Counter(s.answer for s in self.samples)
        if not counts.keys() <= known:
            stray = next(s for s in self.samples if s.answer not in known)
            raise DataError(
                f"sample {stray.id!r} answers class id {stray.answer}, "
                f"not in task {self.task_index}'s class set"
            )
        self.class_counts = dict(counts)

    @property
    def class_names(self) -> list:
        return [c.name for c in self.classes]


@dataclass
class ImbalanceLedger:
    """Cumulative per-class sample counts over every task seen so far.

    Only classes that have appeared are stored, so counts are always
    positive and the imbalance ratio is always defined once the first
    task lands.
    """

    cumulative_counts: dict = field(default_factory=dict)

    def update(self, task: TaskDataset) -> "ImbalanceLedger":
        for class_id, count in task.class_counts.items():
            if count > 0:
                self.cumulative_counts[class_id] = (
                    self.cumulative_counts.get(class_id, 0) + count
                )
        return self

    @property
    def imbalance_ratio(self) -> float:
        if not self.cumulative_counts:
            raise DataError("imbalance ratio undefined before any task is recorded")
        values = self.cumulative_counts.values()
        return max(values) / min(values)

    @property
    def class_count(self) -> int:
        return len(self.cumulative_counts)


@dataclass(frozen=True)
class FeatureBlock:
    """Manifest entry of one split's feature block."""

    file: str
    bytes: int
    sha256: str


@dataclass(frozen=True)
class TaskEntry:
    """Manifest row: a task's class set and, per split, (record file, block)."""

    index: int
    class_names: tuple
    splits: dict


@dataclass(frozen=True)
class StreamManifest:
    """Parsed manifest: feature length, label inventory, task order."""

    root: Path
    feature_length: int
    vocab: Vocabulary
    labels: tuple
    tasks: tuple

    @property
    def label_by_name(self) -> dict:
        return {c.name: c for c in self.labels}

    def task_entry(self, t: int) -> TaskEntry:
        for entry in self.tasks:
            if entry.index == t:
                return entry
        raise DataError(f"manifest has no task with index {t}")


def load_manifest(path) -> StreamManifest:
    path = Path(path)
    text = read_input(path, "manifest", text=True)
    payload = parse_json(text, DataError, f"manifest {path} is not valid JSON")
    try:
        return _parse_manifest(path, payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"manifest {path} is malformed: {exc!r}") from exc


def _parse_manifest(path: Path, payload) -> StreamManifest:
    for key in ("format_version", "feature_length", "vocab_file", "labels", "tasks"):
        if key not in payload:
            raise DataError(f"manifest {path} is missing {key!r}")
    if payload["format_version"] != MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {payload['format_version']}")
    feature_length = _integer(path, "feature_length", payload["feature_length"])
    if feature_length < 1:
        raise DataError(f"feature length must be >= 1, got {feature_length}")
    root = path.parent
    vocab = Vocabulary.load(root / payload["vocab_file"])
    labels = []
    for i, entry in enumerate(payload["labels"]):
        if entry["id"] != i:
            raise DataError(
                f"label ids must be 0..n-1 in order, found {entry['id']} at position {i}"
            )
        if tuple(entry["tokens"]) != tuple(vocab.encode(entry["name"])):
            raise DataError(
                f"label {entry['name']!r} has token sequence inconsistent "
                "with the vocabulary (manifest drift)"
            )
        labels.append(LabelClass(id=i, name=entry["name"]))
    names = [c.name for c in labels]
    if len(set(names)) != len(names):
        raise DataError("label names must be unique across the stream")
    known = set(names)
    tasks = []
    last_index = 0
    for entry in payload["tasks"]:
        index = _integer(path, "task index", entry["index"])
        if index <= last_index or (last_index == 0 and index != 1):
            raise DataError(
                f"task indices must start at 1 and be strictly increasing, found {index}"
            )
        last_index = index
        for name in entry["classes"]:
            if name not in known:
                raise DataError(
                    f"task {index} declares unknown class {name!r} (manifest drift)"
                )
        for split in SPLITS:
            name = entry[f"{split}_file"]
            if not isinstance(name, str) or "\0" in name:
                raise DataError(
                    f"manifest {path}: task {index} {split}_file must be a file name, "
                    f"got {name!r}"
                )
        splits = {
            split: (entry[f"{split}_file"], _parse_block(path, index, split, entry))
            for split in SPLITS
        }
        tasks.append(TaskEntry(index=index, class_names=tuple(entry["classes"]), splits=splits))
    if not tasks:
        raise DataError("manifest declares no tasks")
    return StreamManifest(
        root=root,
        feature_length=feature_length,
        vocab=vocab,
        labels=tuple(labels),
        tasks=tuple(tasks),
    )


def _integer(path: Path, name: str, value) -> int:
    """``value`` if it is a JSON integer (not a bool), else DataError."""
    if not is_integer(value):
        raise DataError(f"manifest {path}: {name} must be an integer, got {value!r}")
    return value


def _parse_block(path: Path, index: int, split: str, entry: dict) -> FeatureBlock:
    """The task entry's feature block for ``split``."""
    key = f"{split}_features"
    where = f"task {index} {key}"
    if key not in entry:
        raise DataError(f"manifest {path}: {where} is missing; each split needs a feature block")
    spec = entry[key]
    if not isinstance(spec, dict):
        raise DataError(f"manifest {path}: {where} must be an object, got {spec!r}")
    file, size, digest = spec["file"], spec["bytes"], spec["sha256"]
    if not isinstance(file, str) or not file or "\0" in file:
        raise DataError(f"manifest {path}: {where} file must be a file name, got {file!r}")
    if _integer(path, f"{where} bytes", size) < 0:
        raise DataError(f"manifest {path}: {where} bytes must be >= 0, got {size}")
    if not isinstance(digest, str) or not _SHA256_HEX.fullmatch(digest):
        raise DataError(
            f"manifest {path}: {where} sha256 must be 64 lowercase hex digits, got {digest!r}"
        )
    return FeatureBlock(file=file, bytes=size, sha256=digest)


def _read_block(root: Path, block: FeatureBlock, rows: int, feature_length: int) -> np.ndarray:
    """The block's (rows, feature_length) matrix, read-only, after checking
    its length, digest and shape against the manifest and the records, and
    that every value is finite.

    The file is read whole, so a declared size never sets an allocation.
    """
    path = root / block.file
    data = read_input(path, "feature block")
    if len(data) != block.bytes:
        raise DataError(
            f"feature block {path} holds {len(data)} bytes, the manifest says {block.bytes}"
        )
    if hashlib.sha256(data).hexdigest() != block.sha256:
        raise DataError(f"feature block {path} does not match its SHA-256 digest")
    expected = rows * feature_length * BLOCK_DTYPE.itemsize
    if block.bytes != expected:
        raise DataError(
            f"feature block {path} holds {block.bytes} bytes; {rows} records of "
            f"{feature_length} float64 features need {expected}"
        )
    matrix = np.frombuffer(data, dtype=BLOCK_DTYPE).reshape(rows, feature_length)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(
            f"feature block {path}: row {int(np.argmin(finite)) + 1} holds a "
            "non-finite value"
        )
    return matrix


# The C scanner behind ``json.loads``, without the wrapper's whitespace,
# BOM and trailing-data handling.
_scan_once = json.JSONDecoder().scan_once


def _parse_record(line: str):
    """The JSON value on ``line``, as ``json.loads(line)`` gives it.

    The scanner takes a line that is one value and nothing else.  Any
    other line (whitespace around the value, a BOM, trailing data, an
    error) goes to ``json.loads``, which stays the reference for what
    is accepted and for what the error says.
    """
    try:
        value, end = _scan_once(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError):
        pass
    return json.loads(line)


def load_task(manifest: StreamManifest, t: int, split: str = "train") -> TaskDataset:
    """Read one task split into memory, recounting classes as it goes.

    The features come from the split's block, one row per record, and
    the records must not carry any.
    """
    if split not in SPLITS:
        raise DataError(f"split must be one of {SPLITS}, got {split!r}")
    entry = manifest.task_entry(t)
    rel, block = entry.splits[split]
    file_path = manifest.root / rel
    by_name = manifest.label_by_name
    declared = {name: by_name[name].id for name in entry.class_names}
    records = []
    lines = read_input(file_path, "task file", text=True).splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = _parse_record(line)
            sample_id = record["id"]
            question = record["question"]
            answer_name = record["answer"]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DataError(f"{file_path}:{lineno}: malformed record: {exc}") from exc
        if not isinstance(sample_id, str):
            raise DataError(f"{file_path}:{lineno}: id {sample_id!r} is not a string")
        if not isinstance(question, str):
            raise DataError(f"{file_path}:{lineno}: question {question!r} is not a string")
        if "features" in record:
            raise DataError(
                f"{file_path}:{lineno}: record carries features, but the "
                f"split's features are in the block {block.file!r}"
            )
        if not isinstance(answer_name, str):
            raise DataError(f"{file_path}:{lineno}: answer {answer_name!r} is not a class name")
        answer = declared.get(answer_name)
        if answer is None:
            if answer_name not in by_name:
                raise DataError(
                    f"{file_path}:{lineno}: unknown class {answer_name!r} (manifest drift)"
                )
            raise DataError(
                f"{file_path}:{lineno}: class {answer_name!r} is not declared "
                f"for task {t}"
            )
        records.append((sample_id, question, answer, answer_name))
    vectors = _read_block(manifest.root, block, len(records), manifest.feature_length)
    samples = [
        Sample(sample_id, features, question, answer, answer_name)
        for (sample_id, question, answer, answer_name), features in zip(records, vectors)
    ]
    classes = [by_name[name] for name in entry.class_names]
    return TaskDataset(task_index=t, samples=samples, classes=classes)


def write_task(path, samples, block_path) -> FeatureBlock:
    """Emit a split: its records (``id``, ``question``, ``answer``) as
    line-delimited JSON at ``path``, and its feature vectors as a feature
    block at ``block_path``.  Returns the block's manifest entry, which
    names the block by its file name.
    """
    lines = (
        json.dumps({"id": s.id, "question": s.question, "answer": s.answer_name}) + "\n"
        for s in samples
    )
    write_output(path, "".join(lines), "task file")
    data = np.array([s.features for s in samples], dtype=BLOCK_DTYPE).tobytes()
    write_output(block_path, data, "feature block")
    return FeatureBlock(Path(block_path).name, len(data), hashlib.sha256(data).hexdigest())


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic stream generator."""

    tasks: int = 3
    classes_per_task: int = 6
    feature_length: int = 16
    samples_per_task: int = 1200
    imbalance: float = 1.0
    overlap: float = 0.5
    shift: float = 4.0
    cluster_std: float = 1.0

    def __post_init__(self):
        problems = []
        for name, low in (("tasks", 1), ("classes_per_task", 2), ("feature_length", 1)):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                problems.append(f"{name} must be an integer >= {low}, got {value!r}")
        samples, classes = self.samples_per_task, self.classes_per_task
        if not is_integer(samples):
            problems.append(f"samples_per_task must be an integer, got {samples!r}")
        elif is_integer(classes) and samples < classes * MIN_CLASS_COUNT:
            problems.append(
                f"samples_per_task {samples} cannot give {classes} classes "
                f"{MIN_CLASS_COUNT} samples each"
            )
        if not is_finite_number(self.imbalance) or self.imbalance < 1.0:
            problems.append(f"imbalance must be a finite number >= 1, got {self.imbalance}")
        if not is_finite_number(self.overlap) or not 0.0 <= self.overlap <= 1.0:
            problems.append(f"overlap must be a finite number in [0, 1], got {self.overlap}")
        if not is_finite_number(self.shift) or self.shift < 0.0:
            problems.append(f"shift must be a finite number >= 0, got {self.shift}")
        if not is_finite_number(self.cluster_std) or self.cluster_std <= 0.0:
            problems.append(f"cluster_std must be a finite number > 0, got {self.cluster_std}")
        if problems:
            raise ConfigError(problems)


def _allocate_counts(cfg: GeneratorConfig) -> list:
    """Per-class totals whose max/min ratio realizes the imbalance target.

    Counts interpolate geometrically from largest to smallest; the
    target ratio is hit at the extremes up to integer rounding, which
    the feasibility check keeps within tolerance.
    """
    k = cfg.classes_per_task
    weights = [cfg.imbalance ** ((k - 1 - j) / (k - 1)) for j in range(k)]
    base = cfg.samples_per_task / sum(weights)
    counts = [int(round(base * w)) for w in weights]
    realized = counts[0] / counts[-1] if counts[-1] > 0 else math.inf
    if counts[-1] < MIN_CLASS_COUNT or abs(realized - cfg.imbalance) > IR_TOLERANCE * cfg.imbalance:
        raise ConfigError(
            f"imbalance target {cfg.imbalance} is infeasible for "
            f"{cfg.samples_per_task} samples over {k} classes: the smallest "
            f"class would get {counts[-1]} samples (need >= {MIN_CLASS_COUNT} "
            f"and a realized ratio within {IR_TOLERANCE:.0%})"
        )
    return counts

_NAME_CONSONANTS = "bdfgklmnprstvz"
_NAME_VOWELS = "aeiou"

_QUESTIONS = (
    "what action is being performed",
    "what is happening in the image",
    "which operation is shown",
)


def _fresh_name(rng, taken) -> str:
    while True:
        words = []
        for _ in range(2 if rng.random() < 0.25 else 1):
            syllables = int(rng.integers(2, 4))
            word = "".join(
                _NAME_CONSONANTS[int(rng.integers(len(_NAME_CONSONANTS)))]
                + _NAME_VOWELS[int(rng.integers(len(_NAME_VOWELS)))]
                for _ in range(syllables)
            )
            words.append(word)
        name = " ".join(words)
        if name not in taken:
            return name


# A draw that overflows is caught by the finiteness check below, so the
# overflow itself is no warning.
@np.errstate(over="ignore")
def generate_synthetic_stream(cfg: GeneratorConfig, seed: int, out_dir) -> Path:
    """Write a complete stream (manifest, task files, sidecar) to out_dir.

    Class-conditional features are Gaussian clusters.  Task 1 draws its
    centers near the origin; later tasks displace the centers of their
    newly introduced classes by the shift magnitude along a random
    direction, while carried-over classes keep their old centers.  The
    whole procedure is a fixed sequence of draws from one seeded
    generator, so equal seeds give byte-identical files.  Each task's
    files are written as soon as it is drawn, and the manifest after
    every task file, so a generation that stops part-way writes no
    manifest.

    Returns the manifest path.  The sidecar file records centers,
    counts, and overlap sets for test use only.
    """
    if not is_integer(seed) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    with sized_by("classes_per_task", "samples_per_task"):
        counts = _allocate_counts(cfg)
    rng = np.random.default_rng([seed, 9001])
    out = Path(out_dir)

    label_ids = {}  # name -> id, in order of first appearance
    centers = {}
    class_list = []
    tasks_json = []
    sidecar_tasks = []
    for t in range(1, cfg.tasks + 1):
        carried = []
        if t > 1:
            n_carry = math.ceil(cfg.overlap * cfg.classes_per_task)
            picked = rng.choice(len(class_list), size=n_carry, replace=False)
            carried = [class_list[int(i)] for i in picked]
        new_names = []
        for _ in range(cfg.classes_per_task - len(carried)):
            name = _fresh_name(rng, label_ids)
            label_ids[name] = len(label_ids)
            new_names.append(name)
            with sized_by("samples_per_task", "feature_length"):
                center = rng.standard_normal(cfg.feature_length)
            if t > 1 and cfg.shift > 0.0:
                direction = rng.standard_normal(cfg.feature_length)
                # Exactly rounded, so no BLAS kernel can move a bit of it.
                norm = math.sqrt(math.fsum(direction * direction))
                if norm > 0.0:
                    center = center + cfg.shift * direction / norm
            centers[name] = center
        # New classes take the large end of the count ramp so each task
        # floods in new-domain data while carried classes starve.
        class_list = new_names + carried

        pools = {split: [] for split in SPLITS}
        class_stats = []
        for name, total in zip(class_list, counts):
            n_test = max(1, int(round(TEST_FRACTION * total)))
            n_train = total - n_test
            with sized_by("samples_per_task", "feature_length"):
                points = rng.normal(
                    loc=centers[name],
                    scale=cfg.cluster_std,
                    size=(total, cfg.feature_length),
                )
            if not np.isfinite(points).all():
                raise ConfigError(
                    f"task {t} drew a feature value that is not finite; lower "
                    f"cluster_std ({cfg.cluster_std}) or shift ({cfg.shift})"
                )
            for split, part in zip(SPLITS, (points[:n_train], points[n_train:])):
                pools[split] += [(name, row) for row in part]
            class_stats.append(
                {
                    "name": name,
                    "center": [float(x) for x in centers[name]],
                    "count": int(total),
                    "count_train": int(n_train),
                    "count_test": int(n_test),
                    "carried": name in carried,
                }
            )

        entry = {"index": t}
        serial = 0
        for split, pool in pools.items():
            samples = []
            for i in rng.permutation(len(pool)):
                name, row = pool[int(i)]
                question = _QUESTIONS[serial % len(_QUESTIONS)]
                samples.append(Sample(f"t{t}-{serial:05d}", row, question, label_ids[name], name))
                serial += 1
            entry[f"{split}_file"] = f"task{t}.{split}.jsonl"
            block = write_task(out / entry[f"{split}_file"], samples, out / f"task{t}.{split}.f64")
            entry[f"{split}_features"] = asdict(block)
        entry["classes"] = class_list
        tasks_json.append(entry)
        sidecar_tasks.append(
            {"index": t, "classes": class_stats, "overlap_with_previous": sorted(carried)}
        )

    vocab = build_vocabulary(list(label_ids))
    vocab.save(out / VOCAB_NAME)
    manifest_payload = {
        "format_version": MANIFEST_VERSION,
        "feature_length": cfg.feature_length,
        "vocab_file": VOCAB_NAME,
        "labels": [
            {"id": i, "name": name, "tokens": vocab.encode(name)}
            for name, i in label_ids.items()
        ],
        "tasks": tasks_json,
    }
    manifest_path = out / MANIFEST_NAME
    write_output(manifest_path, json.dumps(manifest_payload, indent=2) + "\n", "manifest")
    sidecar = {"seed": seed, "params": asdict(cfg), "tasks": sidecar_tasks}
    write_output(out / SIDECAR_NAME, json.dumps(sidecar, indent=2) + "\n", "sidecar")
    return manifest_path
