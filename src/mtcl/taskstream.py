"""Task-stream data model, ingestion, imbalance accounting, generation.

A stream is an ordered sequence of classification tasks.  Each task
ships one split per name in ``SPLITS`` (an 80/20 train/test pair), plus
a manifest that pins the feature length, the label inventory with token
sequences, and the task order.  Labels are identified by name; ids are
assigned at first appearance and never change.

A split is a line-delimited JSON file of records (id, question, answer),
named by the task's ``{split}_file`` key, and a feature block named by
its ``{split}_features`` key: raw little-endian float64, row-major, one
row per record, pinned by its byte length and SHA-256.  A loaded split
is columns: the records' ids, questions (one string object per distinct
text) and answers (each an index into the task's classes), and the
block's read-only matrix.  The block is read in pieces straight into the
leading columns of a train split's design-matrix buffer (a test split's
holds its features alone), so its values are held once; ``write_task``
writes the same columns.  A ``Sample`` is built only for a read through
``TaskDataset.samples``.

The synthetic generator produces streams with two controllable
stressors: domain shift (classes new to a task get cluster centers
pushed away from the origin region by a configurable magnitude) and
data imbalance (per-class counts interpolate geometrically between the
largest and smallest class so their ratio hits a target).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bridge import Vocabulary, build_vocabulary
from .errors import UNIT_RULE, ConfigError, DataError, check_settings, checked, integer_rule
from .errors import integer_setting, is_integer, number_setting, parse_input, parse_json
from .errors import parse_stream, read_input, setting, sized_by, write_output

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
VOCAB_NAME = "vocab.txt"
SIDECAR_NAME = "ground_truth.json"

# A feature block holds float64 in this byte order, row-major.
BLOCK_DTYPE = np.dtype("<f8")
# A feature block is read in pieces of at most this many bytes.
PIECE_BYTES = 64 * 1024
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")
# The (wanted, valid) pairs of the manifest's file names, arrays and objects.
_FILE_NAME = ("a file name", lambda v: isinstance(v, str) and v and "\0" not in v)
_ARRAY = ("an array", lambda v: isinstance(v, list))
_OBJECT = ("an object", lambda v: isinstance(v, dict))

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
    """One row of a split, as ``TaskDataset.samples`` reads it.

    A tuple, so its fields are read-only and it is cheap to build.  Its
    ``features`` is a row view of the split's ``features``, read-only
    when the split was loaded.
    """

    id: str
    features: np.ndarray
    question: str
    answer: int
    answer_name: str


@dataclass
class TaskDataset:
    """One task split as columns, as ``load_task`` reads and ``write_task`` writes it.

    ``answers[i]`` is the position in ``classes`` of sample i's class,
    and row i of ``features`` is its feature vector.  ``samples`` reads
    the same split one ``Sample`` at a time.

    ``design`` is set only by ``load_task``, on a train split: its
    design-matrix buffer, whose leading columns ``features`` views
    read-only and whose question columns ``engine.encode_inputs`` fills
    in place.  A test split, or one built from a plain matrix, has none.
    """

    task_index: int
    classes: list
    ids: list
    questions: list
    answers: np.ndarray
    features: np.ndarray
    design: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.task_index < 1:
            raise DataError(f"task index must be >= 1, got {self.task_index}")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate class names in task {self.task_index}")
        lengths = [len(self.ids), len(self.questions), len(self.answers), len(self.features)]
        if len(set(lengths)) != 1:
            raise DataError(
                f"task {self.task_index}'s columns (ids, questions, answers, features) "
                f"have unequal lengths {lengths}"
            )
        stray = (self.answers < 0) | (self.answers >= len(self.classes))
        if stray.any():
            i = int(stray.argmax())
            raise DataError(
                f"sample {self.ids[i]!r} answers class position {self.answers[i]}, "
                f"not in task {self.task_index}'s {len(self.classes)} classes"
            )

    @property
    def class_names(self) -> list:
        return [c.name for c in self.classes]

    @property
    def samples(self) -> "_Samples":
        return _Samples(self)


class _Samples(Sequence):
    """Read-only view of a split's rows; each access builds one ``Sample``."""

    def __init__(self, dataset: TaskDataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset.ids)

    def __getitem__(self, i: int) -> Sample:
        d = self._dataset
        label = d.classes[d.answers[i]]
        return Sample(d.ids[i], d.features[i], d.questions[i], label.id, label.name)


@dataclass
class ImbalanceLedger:
    """Per-class counts, by class id, of the ``answers`` of every split so far.

    Only classes that have appeared are stored, so counts are always
    positive and the imbalance ratio is always defined once the first
    task lands.
    """

    cumulative_counts: dict = field(default_factory=dict)

    def update(self, task: TaskDataset) -> "ImbalanceLedger":
        counts = np.bincount(task.answers, minlength=len(task.classes)).tolist()
        for label, count in zip(task.classes, counts):
            if count:
                self.cumulative_counts[label.id] = self.cumulative_counts.get(label.id, 0) + count
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
    """Parsed manifest: its path, feature length, label inventory, task order."""

    path: Path
    feature_length: int
    vocab: Vocabulary
    labels: tuple
    tasks: tuple

    @property
    def root(self) -> Path:
        """The directory the manifest names its files in."""
        return self.path.parent

    @property
    def label_by_name(self) -> dict:
        return {c.name: c for c in self.labels}

    def task_entry(self, t: int) -> TaskEntry:
        for entry in self.tasks:
            if entry.index == t:
                return entry
        raise DataError(f"manifest {self.path}: no task with index {t}")


def load_manifest(path) -> StreamManifest:
    path = Path(path)
    parse = functools.partial(_parse_manifest, path)
    return parse_input(path, "manifest", parse, text=True)


def _parse_manifest(path: Path, text: str) -> StreamManifest:
    payload = parse_json(text, DataError, "not valid JSON")
    checked("format_version", payload["format_version"], f"the integer {MANIFEST_VERSION}",
            lambda v: is_integer(v) and v == MANIFEST_VERSION, DataError)
    feature_length = checked("feature_length", payload["feature_length"], *integer_rule(1),
                             DataError)
    vocab = Vocabulary.load(
        path.parent / checked("vocab_file", payload["vocab_file"], *_FILE_NAME, DataError))
    labels = []
    for i, entry in enumerate(checked("labels", payload["labels"], *_ARRAY, DataError)):
        checked(f"label at position {i}", entry, *_OBJECT, DataError)
        checked(f"label id at position {i}", entry["id"], f"the integer {i} (ids run 0..n-1)",
                lambda v: is_integer(v) and v == i, DataError)
        name = checked(f"label name at position {i}", entry["name"], "a non-empty string",
                       lambda v: isinstance(v, str) and v, DataError)
        tokens = checked(f"label {name!r} tokens", entry["tokens"], "a list of integers",
                         lambda v: isinstance(v, list) and all(map(is_integer, v)), DataError)
        if tokens != vocab.encode(name):
            raise DataError(
                f"label {name!r} has token sequence inconsistent "
                "with the vocabulary (manifest drift)"
            )
        labels.append(LabelClass(id=i, name=name))
    names = [c.name for c in labels]
    if len(set(names)) != len(names):
        raise DataError("label names must be unique across the stream")
    known = set(names)
    tasks = []
    last_index = 0
    for i, entry in enumerate(checked("tasks", payload["tasks"], *_ARRAY, DataError)):
        checked(f"task at position {i}", entry, *_OBJECT, DataError)
        index = checked("task index", entry["index"], "an integer", is_integer, DataError)
        if index <= last_index or (last_index == 0 and index != 1):
            raise DataError(
                f"task indices must start at 1 and be strictly increasing, found {index}"
            )
        last_index = index
        classes = checked(f"task {index} classes", entry["classes"], "a list of strings",
                          lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
                          DataError)
        for name, count in Counter(classes).items():
            if name not in known:
                raise DataError(
                    f"task {index} declares unknown class {name!r} (manifest drift)"
                )
            if count > 1:
                raise DataError(f"task {index} lists class {name!r} more than once")
        splits = {}
        for split in SPLITS:
            name = checked(f"task {index} {split}_file", entry[f"{split}_file"], *_FILE_NAME,
                           DataError)
            splits[split] = (name, _parse_block(index, split, entry))
        tasks.append(TaskEntry(index=index, class_names=tuple(classes), splits=splits))
    if not tasks:
        raise DataError("manifest declares no tasks")
    return StreamManifest(path, feature_length, vocab, tuple(labels), tuple(tasks))


def _parse_block(index: int, split: str, entry: dict) -> FeatureBlock:
    """The task entry's feature block for ``split``."""
    key = f"{split}_features"
    where = f"task {index} {key}"
    if key not in entry:
        raise DataError(f"{where} is missing; each split needs a feature block")
    spec = checked(where, entry[key], *_OBJECT, DataError)
    return FeatureBlock(
        file=checked(f"{where} file", spec["file"], *_FILE_NAME, DataError),
        bytes=checked(f"{where} bytes", spec["bytes"], *integer_rule(0), DataError),
        sha256=checked(f"{where} sha256", spec["sha256"], "64 lowercase hex digits",
                       lambda v: isinstance(v, str) and _SHA256_HEX.fullmatch(v), DataError),
    )


def _read_block(root: Path, block: FeatureBlock, rows: int, feature_length: int,
                width: int) -> tuple:
    """(features, design): the block read into the leading ``feature_length``
    columns of ``design``, a new (rows, width) buffer, and ``features``, the
    read-only view of those columns, after checking the block's length,
    digest and shape against the manifest and the records, and that every
    value is finite.

    The file's length is checked before anything is allocated, so a
    declared size never sets an allocation, and the buffer is sized by the
    records.  The block is read in pieces of at most ``PIECE_BYTES``, each
    hashed, checked for finite values and copied into its place; a file
    that grows or shrinks while it is read is a DataError.
    """

    def parse(file) -> tuple:
        size = os.fstat(file.fileno()).st_size
        if size != block.bytes:
            raise DataError(f"holds {size} bytes, the manifest says {block.bytes}")
        digest = hashlib.sha256()
        scratch = memoryview(bytearray(min(PIECE_BYTES, size)))
        expected = rows * feature_length * BLOCK_DTYPE.itemsize
        if size != expected:
            while got := file.readinto(scratch):
                digest.update(scratch[:got])
            if digest.hexdigest() != block.sha256:
                raise DataError("does not match its SHA-256 digest")
            raise DataError(
                f"holds {block.bytes} bytes; {rows} records of "
                f"{feature_length} float64 features need {expected}"
            )
        design = np.zeros((rows, width), dtype=np.float64)
        features = design[:, :feature_length]
        finite = True
        for piece in _pieces(features):
            view = scratch[:piece.nbytes]
            if file.readinto(view) != len(view):
                raise DataError(f"shrank while it was read (it held {size} bytes when opened)")
            digest.update(view)
            values = np.frombuffer(view, dtype=BLOCK_DTYPE)
            finite = finite and bool(np.isfinite(values).all())
            piece[...] = values.reshape(piece.shape)
        if file.read(1):
            raise DataError(f"grew while it was read (it held {size} bytes when opened)")
        if digest.hexdigest() != block.sha256:
            raise DataError("does not match its SHA-256 digest")
        if not finite:
            rows_finite = np.isfinite(features).all(axis=1)
            raise DataError(f"row {int(np.argmin(rows_finite)) + 1} holds a non-finite value")
        features.flags.writeable = False
        return features, design

    return parse_stream(root / block.file, "feature block", parse)


def _pieces(matrix: np.ndarray):
    """Views that cover ``matrix`` in row-major order, each of at most
    ``PIECE_BYTES``: as many whole rows as fit, or a row in pieces when one
    row does not."""
    rows, cols = matrix.shape
    width = min(cols, PIECE_BYTES // matrix.itemsize)
    height = PIECE_BYTES // (width * matrix.itemsize)
    for r in range(0, rows, height):
        for c in range(0, cols, width):
            yield matrix[r:r + height, c:c + width]


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
    """Read one task split into its columns, checking each record once.

    The features are the split's block, one row per record, and the
    records must not carry any.  A train split's are read into its
    ``design`` buffer, one column per feature, then one per question
    token slot of the manifest's vocabulary; a test split's into a buffer
    of its features alone, and its ``design`` is None.  Equal question
    texts share one string.  A split must hold a record.
    """
    if split not in SPLITS:
        raise DataError(f"split must be one of {SPLITS}, got {split!r}")
    entry = manifest.task_entry(t)
    rel, block = entry.splits[split]
    file_path = manifest.root / rel
    by_name = manifest.label_by_name
    declared = {name: i for i, name in enumerate(entry.class_names)}
    ids, questions, answers = [], [], []
    texts = {}
    lines = read_input(file_path, "task file", text=True).split("\n")
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
        ids.append(sample_id)
        questions.append(texts.setdefault(question, question))
        answers.append(answer)
    if not ids:
        raise DataError(f"task file {file_path}: the {split} split has no records")
    # A test split is held for evaluation: its buffer holds its features alone.
    questions_width = len(manifest.vocab) + 1 if split == "train" else 0
    features, design = _read_block(manifest.root, block, len(ids), manifest.feature_length,
                                   manifest.feature_length + questions_width)
    return TaskDataset(
        task_index=t,
        classes=[by_name[name] for name in entry.class_names],
        ids=ids,
        questions=questions,
        answers=np.array(answers, dtype=np.int64),
        features=features,
        design=design if questions_width else None,
    )


def write_task(path, split: TaskDataset, block_path) -> FeatureBlock:
    """Emit a split as ``load_task`` reads it back: its records (``id``,
    ``question``, ``answer``) as line-delimited JSON at ``path``, and its
    ``features`` as a feature block at ``block_path``.  Returns the
    block's manifest entry, which names the block by its file name.
    """
    names = split.class_names
    lines = (
        json.dumps({"id": i, "question": q, "answer": names[a]}) + "\n"
        for i, q, a in zip(split.ids, split.questions, split.answers.tolist())
    )
    write_output(path, "".join(lines), "task file")
    data = np.asarray(split.features, dtype=BLOCK_DTYPE).tobytes()
    write_output(block_path, data, "feature block")
    return FeatureBlock(Path(block_path).name, len(data), hashlib.sha256(data).hexdigest())


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic stream generator."""

    tasks: int = integer_setting(3, 1)
    classes_per_task: int = integer_setting(6, 2)
    feature_length: int = integer_setting(16, 1)
    samples_per_task: int = setting(1200, "an integer", is_integer)
    imbalance: float = number_setting(1.0, ">=", 1)
    overlap: float = setting(0.5, *UNIT_RULE)
    shift: float = number_setting(4.0, ">=", 0)
    cluster_std: float = number_setting(1.0, ">", 0)

    def __post_init__(self):
        samples, classes = self.samples_per_task, self.classes_per_task
        short = is_integer(samples) and is_integer(classes) and samples < classes * MIN_CLASS_COUNT
        check_settings(self, [f"samples_per_task {samples} cannot give {classes} classes "
                              f"{MIN_CLASS_COUNT} samples each"] if short else ())


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
    checked("seed", seed, *integer_rule(0), ConfigError)
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

        draws = {split: [] for split in SPLITS}
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
                draws[split].append(part)
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
        classes = [LabelClass(label_ids[name], name) for name in class_list]
        serials = range(0)  # each split's record serials follow the last split's
        for split, parts in draws.items():
            positions = np.repeat(np.arange(len(classes)), [len(part) for part in parts])
            order = rng.permutation(len(positions))
            serials = range(serials.stop, serials.stop + len(order))
            data = TaskDataset(t, classes, [f"t{t}-{s:05d}" for s in serials],
                               [_QUESTIONS[s % len(_QUESTIONS)] for s in serials],
                               positions[order], np.concatenate(parts)[order])
            entry[f"{split}_file"] = f"task{t}.{split}.jsonl"
            block = write_task(out / entry[f"{split}_file"], data, out / f"task{t}.{split}.f64")
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
