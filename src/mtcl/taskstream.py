"""Task-stream data model, ingestion, imbalance accounting, generation.

A stream is an ordered sequence of classification tasks.  Each task
ships as line-delimited JSON sample files (an 80/20 train/test pair)
plus a manifest that pins the feature length, the label inventory with
token sequences, and the task order.  Labels are identified by name;
ids are assigned at first appearance and never change.

The synthetic generator produces streams with two controllable
stressors: domain shift (classes new to a task get cluster centers
pushed away from the origin region by a configurable magnitude) and
data imbalance (per-class counts interpolate geometrically between the
largest and smallest class so their ratio hits a target).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .bridge import Vocabulary, build_vocabulary
from .errors import ConfigError, DataError

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
VOCAB_NAME = "vocab.txt"
SIDECAR_NAME = "ground_truth.json"

TEST_FRACTION = 0.2

# Feasibility floor: the smallest class must survive an 80/20 split and
# keep count rounding from distorting the realized imbalance ratio.
MIN_CLASS_COUNT = 5
IR_TOLERANCE = 0.1


@dataclass(frozen=True)
class LabelClass:
    """One answer label: stable id, display name, token sequence."""

    id: int
    name: str
    tokens: tuple


@dataclass(frozen=True)
class Sample:
    """One record: feature vector, question text, answer label."""

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
    class_counts: dict = field(default_factory=dict)
    split: str = "train"

    def __post_init__(self):
        if self.task_index < 1:
            raise DataError(f"task index must be >= 1, got {self.task_index}")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate class names in task {self.task_index}")
        known = {c.id for c in self.classes}
        recount = {}
        for s in self.samples:
            if s.answer not in known:
                raise DataError(
                    f"sample {s.id!r} answers class id {s.answer}, "
                    f"not in task {self.task_index}'s class set"
                )
            recount[s.answer] = recount.get(s.answer, 0) + 1
        if not self.class_counts:
            self.class_counts = recount
        elif self.class_counts != recount:
            raise DataError(
                f"declared class counts disagree with a recount in task {self.task_index}"
            )

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
class TaskEntry:
    """Manifest row describing one task's files and class set."""

    index: int
    train_file: str
    test_file: str
    class_names: tuple


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
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
    for key in ("format_version", "feature_length", "vocab_file", "labels", "tasks"):
        if key not in payload:
            raise DataError(f"manifest {path} is missing {key!r}")
    if payload["format_version"] != MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {payload['format_version']}")
    feature_length = int(payload["feature_length"])
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
        tokens = tuple(entry["tokens"])
        if tokens != tuple(vocab.encode(entry["name"])):
            raise DataError(
                f"label {entry['name']!r} has token sequence inconsistent "
                "with the vocabulary (manifest drift)"
            )
        labels.append(LabelClass(id=i, name=entry["name"], tokens=tokens))
    names = [c.name for c in labels]
    if len(set(names)) != len(names):
        raise DataError("label names must be unique across the stream")
    known = set(names)
    tasks = []
    last_index = 0
    for entry in payload["tasks"]:
        index = int(entry["index"])
        if index <= last_index:
            raise DataError(f"task indices must be strictly increasing, found {index}")
        last_index = index
        for name in entry["classes"]:
            if name not in known:
                raise DataError(
                    f"task {index} declares unknown class {name!r} (manifest drift)"
                )
        tasks.append(
            TaskEntry(
                index=index,
                train_file=entry["train_file"],
                test_file=entry["test_file"],
                class_names=tuple(entry["classes"]),
            )
        )
    if not tasks:
        raise DataError("manifest declares no tasks")
    return StreamManifest(
        root=root,
        feature_length=feature_length,
        vocab=vocab,
        labels=tuple(labels),
        tasks=tuple(tasks),
    )


def load_task(manifest: StreamManifest, t: int, split: str = "train") -> TaskDataset:
    """Read one task split into memory, recounting classes as it goes."""
    if split not in ("train", "test"):
        raise DataError(f"split must be 'train' or 'test', got {split!r}")
    entry = manifest.task_entry(t)
    rel = entry.train_file if split == "train" else entry.test_file
    file_path = manifest.root / rel
    by_name = manifest.label_by_name
    allowed = set(entry.class_names)
    samples = []
    try:
        lines = file_path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read task file {file_path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            sample_id = record["id"]
            features = record["features"]
            question = record["question"]
            answer_name = record["answer"]
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise DataError(f"{file_path}:{lineno}: malformed record: {exc}") from exc
        if len(features) != manifest.feature_length:
            raise DataError(
                f"{file_path}:{lineno}: {len(features)} features, "
                f"stream declares {manifest.feature_length}"
            )
        label = by_name.get(answer_name)
        if label is None:
            raise DataError(
                f"{file_path}:{lineno}: unknown class {answer_name!r} (manifest drift)"
            )
        if answer_name not in allowed:
            raise DataError(
                f"{file_path}:{lineno}: class {answer_name!r} is not declared "
                f"for task {t}"
            )
        samples.append(
            Sample(
                id=str(sample_id),
                features=np.asarray(features, dtype=np.float64),
                question=str(question),
                answer=label.id,
                answer_name=answer_name,
            )
        )
    classes = [by_name[name] for name in entry.class_names]
    return TaskDataset(task_index=t, samples=samples, classes=classes, split=split)


def write_task(path, samples) -> None:
    """Emit samples as line-delimited JSON, one record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            record = {
                "id": s.id,
                "features": [float(x) for x in s.features],
                "question": s.question,
                "answer": s.answer_name,
            }
            fh.write(json.dumps(record) + "\n")


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
        if self.tasks < 1:
            problems.append(f"tasks must be >= 1, got {self.tasks}")
        if self.classes_per_task < 2:
            problems.append(f"classes_per_task must be >= 2, got {self.classes_per_task}")
        if self.feature_length < 1:
            problems.append(f"feature_length must be >= 1, got {self.feature_length}")
        if self.samples_per_task < 2 * self.classes_per_task:
            problems.append(
                f"samples_per_task {self.samples_per_task} cannot cover "
                f"{self.classes_per_task} classes"
            )
        if self.imbalance < 1.0:
            problems.append(f"imbalance target must be >= 1, got {self.imbalance}")
        if not 0.0 <= self.overlap <= 1.0:
            problems.append(f"overlap must be in [0, 1], got {self.overlap}")
        if self.shift < 0.0:
            problems.append(f"shift must be >= 0, got {self.shift}")
        if self.cluster_std <= 0.0:
            problems.append(f"cluster_std must be > 0, got {self.cluster_std}")
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


def generate_synthetic_stream(cfg: GeneratorConfig, seed: int, out_dir) -> Path:
    """Write a complete stream (manifest, task files, sidecar) to out_dir.

    Class-conditional features are Gaussian clusters.  Task 1 draws its
    centers near the origin; later tasks displace the centers of their
    newly introduced classes by the shift magnitude along a random
    direction, while carried-over classes keep their old centers.  The
    whole procedure is a fixed sequence of draws from one seeded
    generator, so equal seeds give byte-identical files.

    Returns the manifest path.  The sidecar file records centers,
    counts, and overlap sets for test use only.
    """
    counts = _allocate_counts(cfg)
    rng = np.random.default_rng([int(seed), 9001])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    appearance_order = []
    centers = {}
    prev_class_list = []
    task_payloads = []
    sidecar_tasks = []

    for t in range(1, cfg.tasks + 1):
        if t == 1:
            carried = []
        else:
            n_carry = min(math.ceil(cfg.overlap * cfg.classes_per_task),
                          len(prev_class_list), cfg.classes_per_task)
            picked = rng.choice(len(prev_class_list), size=n_carry, replace=False)
            carried = [prev_class_list[int(i)] for i in picked]
        n_new = cfg.classes_per_task - len(carried)
        new_names = []
        taken = set(appearance_order) | set(carried)
        for _ in range(n_new):
            name = _fresh_name(rng, taken)
            taken.add(name)
            new_names.append(name)
            center = rng.standard_normal(cfg.feature_length)
            if t > 1 and cfg.shift > 0.0:
                direction = rng.standard_normal(cfg.feature_length)
                norm = float(np.linalg.norm(direction))
                if norm > 0.0:
                    center = center + cfg.shift * direction / norm
            centers[name] = center
        # New classes take the large end of the count ramp so each task
        # floods in new-domain data while carried classes starve.
        class_list = new_names + carried
        for name in class_list:
            if name not in appearance_order:
                appearance_order.append(name)

        train_pool = []
        test_pool = []
        class_stats = []
        for name, total in zip(class_list, counts):
            n_test = max(1, int(round(TEST_FRACTION * total)))
            n_train = total - n_test
            points = rng.normal(
                loc=centers[name],
                scale=cfg.cluster_std,
                size=(total, cfg.feature_length),
            )
            for row in points[:n_train]:
                train_pool.append((name, row))
            for row in points[n_train:]:
                test_pool.append((name, row))
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

        def materialize(pool, start):
            order = rng.permutation(len(pool))
            records = []
            for serial, idx in enumerate(order, start=start):
                name, row = pool[int(idx)]
                records.append(
                    Sample(
                        id=f"t{t}-{serial:05d}",
                        features=row,
                        question=_QUESTIONS[serial % len(_QUESTIONS)],
                        answer=appearance_order.index(name),
                        answer_name=name,
                    )
                )
            return records

        train_records = materialize(train_pool, 0)
        test_records = materialize(test_pool, len(train_pool))
        task_payloads.append((t, class_list, train_records, test_records))
        sidecar_tasks.append(
            {
                "index": t,
                "classes": class_stats,
                "overlap_with_previous": sorted(carried),
            }
        )
        prev_class_list = class_list

    vocab = build_vocabulary(appearance_order)
    vocab.save(out / VOCAB_NAME)

    labels = [
        {"id": i, "name": name, "tokens": vocab.encode(name)}
        for i, name in enumerate(appearance_order)
    ]
    tasks_json = []
    for t, class_list, train_records, test_records in task_payloads:
        train_file = f"task{t}.train.jsonl"
        test_file = f"task{t}.test.jsonl"
        write_task(out / train_file, train_records)
        write_task(out / test_file, test_records)
        tasks_json.append(
            {
                "index": t,
                "train_file": train_file,
                "test_file": test_file,
                "classes": list(class_list),
            }
        )
    manifest_payload = {
        "format_version": MANIFEST_VERSION,
        "feature_length": cfg.feature_length,
        "vocab_file": VOCAB_NAME,
        "labels": labels,
        "tasks": tasks_json,
    }
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(
        json.dumps(manifest_payload, indent=2) + "\n", encoding="utf-8"
    )
    sidecar = {
        "seed": int(seed),
        "params": asdict(cfg),
        "tasks": sidecar_tasks,
    }
    (out / SIDECAR_NAME).write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
    )
    return manifest_path
