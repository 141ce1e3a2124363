"""Sequential training engine: student model, task loop, evaluation.

The student is a small two-hidden-layer tanh network over pre-extracted
image features concatenated with a bag-of-tokens question encoding.
Everything is float64 numpy with hand-written backprop, which keeps
runs bit-reproducible across repeats and makes the whole loss
differentiable-by-inspection (the gradient check exercises exactly the
code the trainer runs).

Per task the loop grows the output head for unseen classes, measures
both teachers' accuracies on the incoming training data, updates the
cumulative imbalance ledger, trains under the weighted three-term loss,
then evaluates on the held-out split of every task seen so far.  The
student trained at step t is frozen and becomes the previous-model
teacher at step t+1.

Baselines are weight presets over this same loop: plain fine-tuning
pins the weights to (1, 0, 0); single-teacher distillation pins them to
(alpha, 1 - alpha, 0).  A term with zero weight is never computed and
its teacher is never queried.
"""

from __future__ import annotations

import copy
import json
import math
import os
import struct
from dataclasses import astuple, dataclass, fields

import numpy as np

from .bridge import SPACE_TOKEN, Vocabulary
from .errors import ConfigError, DataError, NumericError, TeacherDimensionError
from .errors import parse_json, read_input, sized_by, write_csv, write_output
from .losses import batch_loss, softened_softmax
from .taskstream import (
    ImbalanceLedger,
    LabelClass,
    StreamManifest,
    TaskDataset,
    load_task,
)
from .teachers import Teacher
from .weights import (
    WeightConfig,
    WeightTriple,
    WeightTrace,
    assemble_weights,
    is_finite_number,
    is_integer,
    measure_teacher_accuracy,
)

MODES = ("ours", "ft", "lwf")

HEAD_INIT_STD = 0.01

CHECKPOINT_MAGIC = b"CLCK"
CHECKPOINT_VERSION = 1
# The StudentModel arguments a checkpoint header records, in argument order.
ARCHITECTURE = ("seed", "feature_length", "question_length", "hidden1", "hidden2")

AVG_DATASET = "Avg."


def encode_question(question: str, vocab: Vocabulary) -> np.ndarray:
    """Bag-of-tokens frequency vector, L2-normalized.

    Length is the vocabulary size plus one shared slot for unknown
    tokens, so any question encodes without error.  Empty text gives
    the zero vector.
    """
    counts = np.zeros(len(vocab) + 1, dtype=np.float64)
    idx = vocab.index
    for ch in question:
        tok = SPACE_TOKEN if ch == " " else ch
        counts[idx.get(tok, len(vocab))] += 1.0
    norm = np.linalg.norm(counts)
    if norm > 0.0:
        counts /= norm
    return counts


def encode_inputs(samples, vocab: Vocabulary, feature_length: int) -> np.ndarray:
    """Design matrix: each sample's features, then its question encoding.

    The features are copied in as one stacked matrix, and each distinct
    question text is encoded once and gathered into its rows.
    """
    slots = {}
    rows = []
    for s in samples:
        if s.features.shape != (feature_length,):
            raise DataError(
                f"sample {s.id!r} has {s.features.shape} features, expected {feature_length}"
            )
        rows.append(slots.setdefault(s.question, len(slots)))
    inputs = np.empty((len(rows), feature_length + len(vocab) + 1), dtype=np.float64)
    if rows:
        np.stack([s.features for s in samples], out=inputs[:, :feature_length])
        codes = np.stack([encode_question(q, vocab) for q in slots])
        np.take(codes, rows, axis=0, out=inputs[:, feature_length:])
    return inputs


@dataclass(frozen=True)
class TrainSettings:
    """Optimizer and architecture knobs for the training loop."""

    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 32
    temperature: float = 2.0
    seed: int = 0
    hidden1: int = 32
    hidden2: int = 32
    mode: str = "ours"

    def __post_init__(self):
        problems = []
        for name in ("learning_rate", "temperature"):
            value = getattr(self, name)
            if not is_finite_number(value) or value <= 0.0:
                problems.append(f"{name} must be a finite number > 0, got {value!r}")
        for name, low in (("epochs", 1), ("batch_size", 1), ("hidden1", 1),
                          ("hidden2", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                problems.append(f"{name} must be an integer >= {low}, got {value!r}")
        if self.mode not in MODES:
            problems.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if problems:
            raise ConfigError(problems)
        # A whole-number temperature is kept as a float, so it is written
        # to resolved_config.json (and digested) the same either way.
        object.__setattr__(self, "temperature", float(self.temperature))


class StudentModel:
    """Two-hidden-layer tanh classifier with a growable output head.

    The trunk is seeded from the run seed alone; every output-head
    column is seeded from (run seed, class id), so growing the head in
    two steps or one produces identical parameters, and existing class
    logits never move when new classes arrive.

    All parameters live in one contiguous float64 vector in checkpoint
    order (``w1, b1, w2, b2, w3, b3``); the layer attributes are views
    into it, so an optimizer step is one vector update.
    """

    def __init__(self, seed: int, feature_length: int, question_length: int,
                 hidden1: int, hidden2: int):
        self.seed = int(seed)
        self.feature_length = int(feature_length)
        self.question_length = int(question_length)
        self.hidden1 = int(hidden1)
        self.hidden2 = int(hidden2)
        d = self.feature_length + self.question_length
        rng = np.random.default_rng([self.seed, 0])
        w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hidden1))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden1), size=(hidden1, hidden2))
        self._adopt(np.concatenate([
            w1.ravel(), np.zeros(hidden1), w2.ravel(), np.zeros(hidden2),
        ]), 0)
        self.class_ids = []
        self.class_names = []

    def _adopt(self, flat: np.ndarray, n_classes: int) -> None:
        """Make ``flat`` the parameter vector of a head of ``n_classes``."""
        d = self.feature_length + self.question_length
        h1, h2 = self.hidden1, self.hidden2
        views, offset = [], 0
        for shape in ((d, h1), (h1,), (h1, h2), (h2,), (h2, n_classes), (n_classes,)):
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        self._flat = flat
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = views

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    @property
    def n_params(self) -> int:
        return self._flat.size

    @staticmethod
    def count_params(input_width: int, hidden1: int, hidden2: int, n_classes: int) -> int:
        """Weights plus biases of a student with these layer widths."""
        return ((input_width + 1) * hidden1 + (hidden1 + 1) * hidden2
                + (hidden2 + 1) * n_classes)

    def grow_head(self, new_classes) -> "StudentModel":
        """Append one seeded small-variance output column per new class."""
        new_classes = list(new_classes)
        ids = list(self.class_ids)
        for c in new_classes:
            if c.id in ids:
                raise DataError(f"class {c.name!r} (id {c.id}) already in the head")
            ids.append(c.id)
        if not new_classes:
            return self
        columns = [
            np.random.default_rng([self.seed, 1, int(c.id)]).normal(
                0.0, HEAD_INIT_STD, size=self.hidden2
            )
            for c in new_classes
        ]
        w3 = np.concatenate([self.w3, np.stack(columns, axis=1)], axis=1)
        b3 = np.concatenate([self.b3, np.zeros(len(new_classes))])
        head = self._flat.size - self.w3.size - self.b3.size
        self._adopt(np.concatenate([self._flat[:head], w3.ravel(), b3]), len(ids))
        self.class_ids.extend(int(c.id) for c in new_classes)
        self.class_names.extend(c.name for c in new_classes)
        return self

    def forward(self, x: np.ndarray, want_cache: bool = False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.w1.shape[0]:
            raise DataError(
                f"input shape {x.shape} does not match model input width {self.w1.shape[0]}"
            )
        h1 = x @ self.w1
        h1 += self.b1
        np.tanh(h1, out=h1)
        h2 = h1 @ self.w2
        h2 += self.b2
        np.tanh(h2, out=h2)
        logits = h2 @ self.w3
        logits += self.b3
        if not np.isfinite(logits).all():
            raise NumericError("student produced non-finite logits")
        if want_cache:
            return logits, (x, h1, h2)
        return logits

    def backward(self, cache, dlogits: np.ndarray) -> np.ndarray:
        """Parameter gradients given the loss gradient at the logits, as
        one fresh vector in the layout of ``get_flat``."""
        x, h1, h2 = cache
        dh2 = dlogits @ self.w3.T
        dh2 *= 1.0 - h2 * h2
        dh1 = dh2 @ self.w2.T
        dh1 *= 1.0 - h1 * h1
        return np.concatenate([
            (x.T @ dh1).ravel(), np.add.reduce(dh1, axis=0),
            (h1.T @ dh2).ravel(), np.add.reduce(dh2, axis=0),
            (h2.T @ dlogits).ravel(), np.add.reduce(dlogits, axis=0),
        ])

    def apply_gradients(self, grads: np.ndarray, learning_rate: float) -> None:
        self._flat -= learning_rate * grads

    def get_flat(self) -> np.ndarray:
        return self._flat.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise DataError(f"expected {self.n_params} parameters, got {flat.size}")
        self._flat[...] = flat.ravel()

    def clone(self) -> "StudentModel":
        twin = copy.copy(self)
        twin._adopt(self._flat.copy(), self.n_classes)
        twin.class_ids = list(self.class_ids)
        twin.class_names = list(self.class_names)
        return twin


class PrevModelTeacher(Teacher):
    """Frozen snapshot of the student, serving logits for its whole head.

    It scores the design matrix the trainer already encoded, with
    ``score_inputs``, one batched forward pass; it has no ``score_table``
    and never encodes samples itself.
    """

    def __init__(self, model: StudentModel):
        super().__init__()
        self.model = model

    @property
    def class_names(self) -> tuple:
        return tuple(self.model.class_names)

    def score_inputs(self, inputs: np.ndarray) -> np.ndarray:
        """Logits over the whole head for each row of a design matrix."""
        table = self.model.forward(inputs)
        self.query_count += len(table)
        return table


def train_task(
    student: StudentModel,
    prev_teacher,
    llm_teacher,
    task: TaskDataset,
    ledger: ImbalanceLedger,
    settings: TrainSettings,
    weight_cfg: WeightConfig,
    vocab: Vocabulary,
    trace: WeightTrace,
    observer=None,
) -> StudentModel:
    """Mini-batch gradient descent on the weighted three-term loss.

    The step is the task's ``task_index``.  The (alpha, beta, chi)
    weights are set once per task: (1, 0, 0) at step 1 and under
    ``ft``; (alpha, 1 - alpha, 0) under ``lwf``, which needs a previous
    model; and under ``ours``, which needs both teachers, from each
    teacher's measured accuracy on the task and the ledger's class
    imbalance.  Each teacher that can get a non-zero weight scores the
    training samples once, into a table that both measures its accuracy
    and supplies the distillation targets; a table whose weight is zero
    is dropped, and a teacher that cannot get a weight is never queried.
    The task is encoded once, and the previous model (a
    ``PrevModelTeacher``) scores that design matrix.  Its head must be a
    prefix of the student's: its table of width ``m`` covers the first
    ``m`` columns.  The general teacher's table must have one row per
    sample and one column per head class (else TeacherDimensionError).
    Each kept table is softened at the temperature once, into the
    probability rows the distillation terms take; a non-finite table is
    a NumericError before the first batch.  A teacher failure or a
    non-finite loss aborts the run; terms are never dropped silently.
    ``observer``, if given, is called once per batch with a dict of that
    batch's loss ingredients (for side-by-side recomputation in tests):
    ``t``, ``epoch``, ``batch``, ``sample_ids``, ``labels``,
    ``student_logits``, ``prev_logits``, ``llm_logits`` (teacher rows or
    None), ``weights``, ``temperature`` and ``breakdown``.
    """
    t = task.task_index
    if not task.samples:
        raise DataError(f"task {t} has no training samples")
    vocab_positions = {name: i for i, name in enumerate(student.class_names)}
    for name in task.class_names:
        if name not in vocab_positions:
            raise DataError(f"student head is missing class {name!r}; grow it first")
    head_names = tuple(student.class_names)
    prev_names = prev_teacher.class_names if prev_teacher else ()
    if head_names[: len(prev_names)] != prev_names:
        raise DataError(
            f"student head {list(head_names)} does not extend the previous model's "
            f"head {list(prev_names)}"
        )

    inputs = encode_inputs(task.samples, vocab, student.feature_length)
    labels = np.array(
        [vocab_positions[s.answer_name] for s in task.samples], dtype=np.int64
    )

    weights, breakdown, prev_table, llm_table = WeightTriple(1.0, 0.0, 0.0), None, None, None
    if t > 1 and settings.mode == "lwf":
        if prev_teacher is None:
            raise ConfigError("single-teacher distillation needs a previous model")
        weights = WeightTriple(weight_cfg.alpha, 1.0 - weight_cfg.alpha, 0.0)
        if weights.beta > 0.0:
            prev_table = prev_teacher.score_inputs(inputs)
    elif t > 1 and settings.mode == "ours":
        if prev_teacher is None or llm_teacher is None:
            raise ConfigError(
                "adaptive weighting needs both a previous model and a general teacher"
            )
        prev_table = prev_teacher.score_inputs(inputs)
        llm_table = llm_teacher.score_table(task.samples, head_names)
        if np.shape(llm_table) != (len(task.samples), len(head_names)):
            raise TeacherDimensionError(
                f"general teacher scored a table of shape {np.shape(llm_table)}, "
                f"expected {(len(task.samples), len(head_names))} (samples, head classes)"
            )
        prev_truth = np.where(labels < prev_table.shape[1], labels, -1)
        weights, breakdown = assemble_weights(
            weight_cfg,
            measure_teacher_accuracy(prev_table, prev_truth),
            measure_teacher_accuracy(llm_table, labels),
            ledger.imbalance_ratio,
            class_count=ledger.class_count,
        )
        prev_table = prev_table if weights.beta > 0.0 else None
        llm_table = llm_table if weights.chi > 0.0 else None
    trace.record(t, weights, breakdown)
    # The teachers are frozen, so each table is softened once per task.
    prev_probs, llm_probs = (
        None if table is None else softened_softmax(table, settings.temperature)
        for table in (prev_table, llm_table)
    )

    shuffle_rng = np.random.default_rng([settings.seed, 2, int(t)])
    n = len(task.samples)
    for epoch in range(settings.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, settings.batch_size):
            batch_idx = order[start : start + settings.batch_size]
            y = labels[batch_idx]
            logits, cache = student.forward(inputs[batch_idx], want_cache=True)
            batch_breakdown, dz = batch_loss(
                logits, y, weights, settings.temperature,
                _rows(prev_probs, batch_idx), _rows(llm_probs, batch_idx),
            )
            student.apply_gradients(student.backward(cache, dz), settings.learning_rate)
            if observer is not None:
                observer(
                    {
                        "t": t,
                        "epoch": epoch,
                        "batch": start // settings.batch_size,
                        "sample_ids": [task.samples[int(i)].id for i in batch_idx],
                        "labels": y.copy(),
                        "student_logits": logits.copy(),
                        "prev_logits": _rows(prev_table, batch_idx),
                        "llm_logits": _rows(llm_table, batch_idx),
                        "weights": weights,
                        "temperature": settings.temperature,
                        "breakdown": batch_breakdown,
                    }
                )
    return student


def _rows(table, batch_idx):
    return None if table is None else table[batch_idx]


@dataclass(frozen=True)
class MetricsRow:
    """One evaluated dataset at one time step."""

    t: int
    dataset: str
    accuracy: float
    macro_f1: float


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def evaluate(model: StudentModel, dataset: TaskDataset, inputs: np.ndarray) -> tuple:
    """(top-1 accuracy, macro F1) on one dataset, given its design matrix.

    F1 is averaged over the classes actually present in the dataset, in
    class-id order; each per-class precision, recall, and F1 treats 0/0
    as 0.
    """
    if not dataset.samples:
        raise DataError(f"dataset for task {dataset.task_index} is empty")
    head_names = dict(zip(model.class_ids, model.class_names))
    missing = [c.name for c in dataset.classes if c.id not in head_names]
    if missing:
        raise DataError(f"model head does not cover classes {missing}")
    renamed = [f"{c.id} ({head_names[c.id]!r} in the head, {c.name!r} in the data)"
               for c in dataset.classes if head_names[c.id] != c.name]
    if renamed:
        raise DataError(f"model head names class ids differently: {', '.join(renamed)}")
    logits = model.forward(inputs)
    # Each class is counted in the slot of its rank among the head's ids,
    # so the counts take one slot per head class whatever the ids are.
    rank = {cid: r for r, cid in enumerate(sorted(model.class_ids))}
    predicted = np.array([rank[cid] for cid in model.class_ids])[logits.argmax(axis=1)]
    truth = np.array([rank[s.answer] for s in dataset.samples])
    accuracy = float((predicted == truth).mean())

    f1_values = []
    for tp, called, actual in zip(
        np.bincount(truth[predicted == truth], minlength=len(rank)).tolist(),
        np.bincount(predicted, minlength=len(rank)).tolist(),
        np.bincount(truth, minlength=len(rank)).tolist(),
    ):
        if actual:
            precision = tp / called if called else 0.0
            recall = tp / actual
            f1_values.append(2.0 * precision * recall / (precision + recall) if tp else 0.0)
    return accuracy, float(np.mean(f1_values))


# An overflow, or the NaN of infinite weights, is caught by a finiteness
# check after it (forward pass, softmax), so it is no warning.
@np.errstate(over="ignore", invalid="ignore")
def run_continual(
    manifest: StreamManifest,
    settings: TrainSettings,
    weight_cfg: WeightConfig,
    llm_teacher=None,
    run_dir=None,
    config_digest: str = "",
):
    """Train through the whole stream and evaluate after every task.

    Returns (metrics rows, weight trace, final student).  After task t
    the student is evaluated on the held-out split of every task seen
    so far plus an average row (each held-out split is encoded once, when
    it is loaded); the frozen copy of the student becomes
    the previous-model teacher for task t + 1.  With ``run_dir`` set,
    each task's checkpoint is written there, then the metrics table and
    the weight trace are rewritten whole with every row so far, so a run
    that stops keeps the results of the tasks it finished.
    """
    with sized_by("hidden1", "hidden2"):
        student = StudentModel(
            settings.seed, manifest.feature_length, len(manifest.vocab) + 1,
            settings.hidden1, settings.hidden2,
        )
    prev_teacher = None
    ledger = ImbalanceLedger()
    trace = WeightTrace()
    rows = []
    tests = []
    for entry in manifest.tasks:
        t = entry.index
        train_split = load_task(manifest, t, "train")
        student.grow_head([c for c in train_split.classes if c.id not in student.class_ids])
        ledger.update(train_split)
        train_task(
            student, prev_teacher, llm_teacher, train_split, ledger,
            settings, weight_cfg, manifest.vocab, trace,
        )
        held_out = load_task(manifest, t, "test")
        tests.append(
            (held_out, encode_inputs(held_out.samples, manifest.vocab, manifest.feature_length))
        )
        scores = [
            (f"task{test.task_index}", *evaluate(student, test, inputs))
            for test, inputs in tests
        ]
        _, accuracies, macro_f1s = zip(*scores)
        scores.append((AVG_DATASET, float(np.mean(accuracies)), float(np.mean(macro_f1s))))
        rows.extend(MetricsRow(t, *score) for score in scores)
        prev_teacher = PrevModelTeacher(student.clone())
        if run_dir is not None:
            save_checkpoint(
                os.path.join(run_dir, f"checkpoint_t{t}.bin"),
                student, t, trace, config_digest,
            )
            write_metrics_csv(os.path.join(run_dir, "metrics.csv"), rows)
            trace.write_csv(os.path.join(run_dir, "weight_trace.csv"))
    return rows, trace, student


def write_metrics_csv(path, rows) -> None:
    """Metrics table: one row per (time step, dataset) plus average rows."""
    write_csv(path, METRICS_COLUMNS, map(astuple, rows), "metrics table")


def save_checkpoint(path, model: StudentModel, task_index: int,
                    trace: WeightTrace, config_digest: str = "") -> None:
    """Versioned binary checkpoint, written whole and renamed into place.

    Layout: magic, version, JSON header (architecture, label inventory,
    task index, seed, weight trace, config digest), then the parameter
    blob as little-endian float64 in a fixed order.  Reloading restores
    bit-identical forward outputs.
    """
    header = {
        "task_index": int(task_index),
        **{key: getattr(model, key) for key in ARCHITECTURE},
        "class_ids": list(model.class_ids),
        "class_names": list(model.class_names),
        "config_digest": config_digest,
        "trace_rows": trace.rows,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    blob = model.get_flat().astype("<f8").tobytes()
    write_output(path, b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<HI", CHECKPOINT_VERSION, len(header_bytes)),
        header_bytes,
        struct.pack("<Q", model.n_params),
        blob,
    ]), "checkpoint")


def load_checkpoint(path):
    """Restore (model, header) from a checkpoint file.

    The file is read whole, so no length field in it can make the reader
    allocate more than the file holds, the parameter count must match
    the header's architecture before a model is built, and every
    parameter must be finite.
    """
    data = read_input(path, "checkpoint")
    if not data.startswith(CHECKPOINT_MAGIC):
        raise DataError(f"{path} is not a checkpoint file (bad magic)")
    try:
        version, header_len = struct.unpack_from("<HI", data, len(CHECKPOINT_MAGIC))
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        offset = len(CHECKPOINT_MAGIC) + struct.calcsize("<HI")
        raw_header = data[offset : offset + header_len]
        header = parse_json(raw_header, DataError, "checkpoint header is corrupt", "utf-8")
        offset += header_len
        (count,) = struct.unpack_from("<Q", data, offset)
        seed, *widths = (int(header[key]) for key in ARCHITECTURE)
        classes = [
            LabelClass(int(cid), str(name))
            for cid, name in zip(header["class_ids"], header["class_names"], strict=True)
        ]
        feature_length, question_length, hidden1, hidden2 = widths
        expected = StudentModel.count_params(
            feature_length + question_length, hidden1, hidden2, len(classes)
        )
        if min(widths) < 1 or count != expected:
            raise DataError(
                f"checkpoint header (layer widths {widths}, {len(classes)} classes) "
                f"does not describe its {count} parameters"
            )
        blob = data[offset + 8 : offset + 8 + 8 * count]
        if len(blob) != 8 * count:
            raise DataError("checkpoint truncated inside the parameter blob")
        model = StudentModel(seed, *widths).grow_head(classes)
    except struct.error as exc:
        raise DataError(f"checkpoint truncated before the parameter blob: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint header is malformed: {exc!r}") from exc
    params = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(params).all():
        raise DataError("checkpoint parameters are not finite")
    model.set_flat(params)
    return model, header
