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

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .bridge import SPACE_TOKEN, Vocabulary
from .errors import ConfigError, DataError, NumericError
from .losses import combine_losses, hard_label_loss, kd_loss
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
    measure_teacher_accuracy,
)

MODES = ("ours", "ft", "lwf")

HEAD_INIT_STD = 0.01

CHECKPOINT_MAGIC = b"CLCK"
CHECKPOINT_VERSION = 1

METRICS_COLUMNS = ("t", "dataset", "accuracy", "macro_f1")
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
    """Stack feature vectors and question encodings into a design matrix."""
    rows = []
    for s in samples:
        if s.features.shape != (feature_length,):
            raise DataError(
                f"sample {s.id!r} has {s.features.shape} features, expected {feature_length}"
            )
        rows.append(np.concatenate([s.features, encode_question(s.question, vocab)]))
    return np.asarray(rows, dtype=np.float64)


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
        if self.learning_rate <= 0.0:
            problems.append(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.temperature <= 0.0:
            problems.append(f"temperature must be > 0, got {self.temperature}")
        if self.hidden1 < 1 or self.hidden2 < 1:
            problems.append("hidden layer widths must be >= 1")
        if self.mode not in MODES:
            problems.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if problems:
            raise ConfigError(problems)


class StudentModel:
    """Two-hidden-layer tanh classifier with a growable output head.

    The trunk is seeded from the run seed alone; every output-head
    column is seeded from (run seed, class id), so growing the head in
    two steps or one produces identical parameters, and existing class
    logits never move when new classes arrive.
    """

    def __init__(self, seed: int, feature_length: int, question_length: int,
                 hidden1: int = 32, hidden2: int = 32):
        self.seed = int(seed)
        self.feature_length = int(feature_length)
        self.question_length = int(question_length)
        self.hidden1 = int(hidden1)
        self.hidden2 = int(hidden2)
        d = self.feature_length + self.question_length
        rng = np.random.default_rng([self.seed, 0])
        self.w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hidden1))
        self.b1 = np.zeros(hidden1)
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden1), size=(hidden1, hidden2))
        self.b2 = np.zeros(hidden2)
        self.w3 = np.zeros((hidden2, 0))
        self.b3 = np.zeros(0)
        self.class_ids = []
        self.class_names = []

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    @property
    def n_params(self) -> int:
        return self.count_params(self.feature_length + self.question_length,
                                 self.hidden1, self.hidden2, self.n_classes)

    @staticmethod
    def count_params(input_width: int, hidden1: int, hidden2: int, n_classes: int) -> int:
        """Weights plus biases of a student with these layer widths."""
        return ((input_width + 1) * hidden1 + (hidden1 + 1) * hidden2
                + (hidden2 + 1) * n_classes)

    def param_items(self):
        return [
            ("w1", self.w1), ("b1", self.b1),
            ("w2", self.w2), ("b2", self.b2),
            ("w3", self.w3), ("b3", self.b3),
        ]

    def grow_head(self, new_classes) -> "StudentModel":
        """Append one seeded small-variance output column per new class."""
        for c in new_classes:
            if c.id in self.class_ids:
                raise DataError(f"class {c.name!r} (id {c.id}) already in the head")
            rng = np.random.default_rng([self.seed, 1, int(c.id)])
            column = rng.normal(0.0, HEAD_INIT_STD, size=self.hidden2)
            self.w3 = np.concatenate([self.w3, column[:, None]], axis=1)
            self.b3 = np.append(self.b3, 0.0)
            self.class_ids.append(int(c.id))
            self.class_names.append(c.name)
        return self

    def forward(self, x: np.ndarray, want_cache: bool = False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.w1.shape[0]:
            raise DataError(
                f"input shape {x.shape} does not match model input width {self.w1.shape[0]}"
            )
        h1 = np.tanh(x @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        logits = h2 @ self.w3 + self.b3
        if not np.all(np.isfinite(logits)):
            raise NumericError("student produced non-finite logits")
        if want_cache:
            return logits, (x, h1, h2)
        return logits

    def backward(self, cache, dlogits: np.ndarray) -> dict:
        """Parameter gradients given the loss gradient at the logits."""
        x, h1, h2 = cache
        dw3 = h2.T @ dlogits
        db3 = dlogits.sum(axis=0)
        dh2 = (dlogits @ self.w3.T) * (1.0 - h2 * h2)
        dw2 = h1.T @ dh2
        db2 = dh2.sum(axis=0)
        dh1 = (dh2 @ self.w2.T) * (1.0 - h1 * h1)
        dw1 = x.T @ dh1
        db1 = dh1.sum(axis=0)
        return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}

    def apply_gradients(self, grads: dict, learning_rate: float) -> None:
        for name, arr in self.param_items():
            arr -= learning_rate * grads[name]

    def get_flat(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _, arr in self.param_items()])

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise DataError(f"expected {self.n_params} parameters, got {flat.size}")
        offset = 0
        for _, arr in self.param_items():
            arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size

    def clone(self) -> "StudentModel":
        twin = StudentModel(
            self.seed, self.feature_length, self.question_length,
            self.hidden1, self.hidden2,
        )
        twin.w1 = self.w1.copy()
        twin.b1 = self.b1.copy()
        twin.w2 = self.w2.copy()
        twin.b2 = self.b2.copy()
        twin.w3 = self.w3.copy()
        twin.b3 = self.b3.copy()
        twin.class_ids = list(self.class_ids)
        twin.class_names = list(self.class_names)
        return twin


class PrevModelTeacher(Teacher):
    """Frozen snapshot of the student, serving logits for its own classes.

    A score table is one batched forward pass over the samples.
    """

    def __init__(self, model: StudentModel, vocab: Vocabulary):
        super().__init__()
        self.model = model
        self.vocab = vocab

    @property
    def class_names(self) -> tuple:
        return tuple(self.model.class_names)

    def score_table(self, samples, mask_names) -> np.ndarray:
        table = self._logits(samples, tuple(mask_names))
        self.query_count += len(samples)
        return table

    def _score(self, sample, mask_names):
        return self._logits([sample], mask_names)[0]

    def _logits(self, samples, mask_names) -> np.ndarray:
        position = {name: i for i, name in enumerate(self.model.class_names)}
        unknown = [n for n in mask_names if n not in position]
        if unknown:
            raise DataError(f"previous model does not know classes {unknown}")
        inputs = encode_inputs(samples, self.vocab, self.model.feature_length)
        logits = self.model.forward(inputs)
        return logits[:, [position[n] for n in mask_names]]


def _resolve_weights(
    settings: TrainSettings,
    weight_cfg: WeightConfig,
    t: int,
    prev_teacher,
    llm_teacher,
    task: TaskDataset,
    ledger: ImbalanceLedger,
    prev_mask_names,
    llm_mask_names,
    labels: np.ndarray,
):
    """Pick the task's (alpha, beta, chi) triple and score its samples.

    Returns (triple, breakdown, prev table, llm table).  Each teacher
    that can get a non-zero weight scores the training samples once,
    into a table that both measures its accuracy and supplies the
    distillation targets; a table is None when its term's weight is
    zero.
    """
    if t == 1 or settings.mode == "ft":
        return WeightTriple(1.0, 0.0, 0.0), None, None, None
    if settings.mode == "lwf":
        if prev_teacher is None:
            raise ConfigError("single-teacher distillation needs a previous model")
        triple = WeightTriple(weight_cfg.alpha, 1.0 - weight_cfg.alpha, 0.0)
        prev_table = None
        if triple.beta > 0.0:
            prev_table = prev_teacher.score_table(task.samples, prev_mask_names)
        return triple, None, prev_table, None
    if prev_teacher is None or llm_teacher is None:
        raise ConfigError(
            "adaptive weighting needs both a previous model and a general teacher"
        )
    prev_table = prev_teacher.score_table(task.samples, prev_mask_names)
    llm_table = llm_teacher.score_table(task.samples, llm_mask_names)
    prev_column = {name: i for i, name in enumerate(prev_mask_names)}
    prev_truth = [prev_column.get(s.answer_name, -1) for s in task.samples]
    triple, breakdown = assemble_weights(
        weight_cfg,
        measure_teacher_accuracy(prev_table, prev_truth),
        measure_teacher_accuracy(llm_table, labels),
        ledger.imbalance_ratio,
        class_count=ledger.class_count,
    )
    return (
        triple,
        breakdown,
        prev_table if triple.beta > 0.0 else None,
        llm_table if triple.chi > 0.0 else None,
    )


def train_task(
    student: StudentModel,
    prev_teacher,
    llm_teacher,
    task: TaskDataset,
    ledger: ImbalanceLedger,
    settings: TrainSettings,
    weight_cfg: WeightConfig,
    vocab: Vocabulary,
    t: int,
    trace: WeightTrace,
    observer=None,
) -> StudentModel:
    """Mini-batch gradient descent on the weighted three-term loss.

    The weights are set once per task, from one score table per teacher.
    Teachers whose weight is zero are never queried.  A teacher failure
    or a non-finite loss aborts the run; terms are never dropped
    silently.  ``observer``, if given, is called once per batch with the
    raw ingredients of that batch's loss (for side-by-side recomputation
    in tests).
    """
    if not task.samples:
        raise DataError(f"task {t} has no training samples")
    vocab_positions = {name: i for i, name in enumerate(student.class_names)}
    for name in task.class_names:
        if name not in vocab_positions:
            raise DataError(f"student head is missing class {name!r}; grow it first")

    prev_mask_names = prev_teacher.class_names if prev_teacher else ()
    llm_mask_names = tuple(student.class_names)
    prev_mask = np.array(
        [vocab_positions[n] for n in prev_mask_names], dtype=np.int64
    ) if prev_mask_names else None
    llm_mask = np.arange(student.n_classes, dtype=np.int64)

    inputs = encode_inputs(task.samples, vocab, student.feature_length)
    labels = np.array(
        [vocab_positions[s.answer_name] for s in task.samples], dtype=np.int64
    )

    weights, breakdown, prev_table, llm_table = _resolve_weights(
        settings, weight_cfg, t, prev_teacher, llm_teacher, task, ledger,
        prev_mask_names, llm_mask_names, labels,
    )
    trace.record(t, 0, weights, breakdown)

    shuffle_rng = np.random.default_rng([settings.seed, 2, int(t)])
    n = len(task.samples)
    for epoch in range(settings.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, settings.batch_size):
            batch_idx = order[start : start + settings.batch_size]
            _train_batch(
                student, task, inputs, labels, batch_idx, weights,
                prev_table, llm_table, prev_mask, llm_mask, settings,
                observer, t, epoch, start // settings.batch_size,
            )
    return student


def _train_batch(
    student, task, inputs, labels, batch_idx, weights,
    prev_table, llm_table, prev_mask, llm_mask, settings,
    observer, t, epoch, batch_number,
):
    x = inputs[batch_idx]
    y = labels[batch_idx]
    logits, cache = student.forward(x, want_cache=True)
    b = len(batch_idx)
    delta = settings.temperature

    dz = np.zeros_like(logits)
    hard_total = 0.0
    prev_total = 0.0
    llm_total = 0.0
    prev_rows = None if prev_table is None else prev_table[batch_idx]
    llm_rows = None if llm_table is None else llm_table[batch_idx]
    for i in range(b):
        loss_i, grad_i = hard_label_loss(logits[i], int(y[i]))
        hard_total += loss_i
        if weights.alpha > 0.0:
            dz[i] += weights.alpha * grad_i / b
        if prev_rows is not None:
            loss_p, grad_p = kd_loss(prev_rows[i], logits[i], delta, prev_mask)
            prev_total += loss_p
            dz[i] += weights.beta * grad_p / b
        if llm_rows is not None:
            loss_l, grad_l = kd_loss(llm_rows[i], logits[i], delta, llm_mask)
            llm_total += loss_l
            dz[i] += weights.chi * grad_l / b
    breakdown = combine_losses(
        weights,
        hard_total / b,
        prev_total / b if prev_rows is not None else float("nan"),
        llm_total / b if llm_rows is not None else float("nan"),
    )
    grads = student.backward(cache, dz)
    student.apply_gradients(grads, settings.learning_rate)
    if observer is not None:
        observer(
            {
                "t": t,
                "epoch": epoch,
                "batch": batch_number,
                "sample_ids": [task.samples[int(i)].id for i in batch_idx],
                "labels": y.copy(),
                "student_logits": logits.copy(),
                "prev_logits": prev_rows,
                "llm_logits": llm_rows,
                "prev_mask": None if prev_mask is None else prev_mask.copy(),
                "llm_mask": llm_mask.copy(),
                "weights": weights,
                "temperature": delta,
                "breakdown": breakdown,
            }
        )


@dataclass(frozen=True)
class MetricsRow:
    """One evaluated dataset at one time step."""

    t: int
    dataset: str
    accuracy: float
    macro_f1: float


def evaluate(model: StudentModel, dataset: TaskDataset, vocab: Vocabulary) -> MetricsRow:
    """Top-1 accuracy and macro F1 on one dataset.

    F1 is averaged over the classes actually present in the dataset;
    each per-class precision, recall, and F1 treats 0/0 as 0.
    """
    if not dataset.samples:
        raise DataError(f"dataset for task {dataset.task_index} is empty")
    head_ids = set(model.class_ids)
    missing = [c.name for c in dataset.classes if c.id not in head_ids]
    if missing:
        raise DataError(f"model head does not cover classes {missing}")
    inputs = encode_inputs(dataset.samples, vocab, model.feature_length)
    logits = model.forward(inputs)
    predicted = np.array(
        [model.class_ids[int(k)] for k in logits.argmax(axis=1)], dtype=np.int64
    )
    truth = np.array([s.answer for s in dataset.samples], dtype=np.int64)
    accuracy = float((predicted == truth).mean())

    present = sorted({int(a) for a in truth})
    f1_values = []
    for c in present:
        tp = int(((predicted == c) & (truth == c)).sum())
        fp = int(((predicted == c) & (truth != c)).sum())
        fn = int(((predicted != c) & (truth == c)).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0.0
            else 0.0
        )
        f1_values.append(f1)
    return MetricsRow(
        t=dataset.task_index,
        dataset=f"task{dataset.task_index}",
        accuracy=accuracy,
        macro_f1=float(np.mean(f1_values)),
    )


def run_continual(
    manifest: StreamManifest,
    settings: TrainSettings,
    weight_cfg: WeightConfig,
    llm_teacher=None,
    run_dir=None,
    observer=None,
    config_digest: str = "",
):
    """Train through the whole stream and evaluate after every task.

    Returns (metrics rows, weight trace, final student).  After task t
    the student is evaluated on the held-out split of every task seen
    so far plus an average row; the frozen copy of the student becomes
    the previous-model teacher for task t + 1.  With ``run_dir`` set,
    checkpoints, the metrics table, and the weight trace are written
    there.
    """
    student = None
    prev_teacher = None
    ledger = ImbalanceLedger()
    trace = WeightTrace()
    rows = []
    test_sets = {}
    for entry in manifest.tasks:
        t = entry.index
        train_split = load_task(manifest, t, "train")
        if student is None:
            question_length = len(manifest.vocab) + 1
            student = StudentModel(
                settings.seed,
                manifest.feature_length,
                question_length,
                settings.hidden1,
                settings.hidden2,
            )
        new_classes = [
            c for c in train_split.classes if c.id not in set(student.class_ids)
        ]
        student.grow_head(new_classes)
        ledger.update(train_split)
        train_task(
            student, prev_teacher, llm_teacher, train_split, ledger,
            settings, weight_cfg, manifest.vocab, t, trace, observer,
        )
        test_sets[t] = load_task(manifest, t, "test")
        step_rows = []
        for seen_t in sorted(test_sets):
            row = evaluate(student, test_sets[seen_t], manifest.vocab)
            step_rows.append(
                MetricsRow(t=t, dataset=row.dataset,
                           accuracy=row.accuracy, macro_f1=row.macro_f1)
            )
        step_rows.append(
            MetricsRow(
                t=t,
                dataset=AVG_DATASET,
                accuracy=float(np.mean([r.accuracy for r in step_rows])),
                macro_f1=float(np.mean([r.macro_f1 for r in step_rows])),
            )
        )
        rows.extend(step_rows)
        frozen = student.clone()
        prev_teacher = PrevModelTeacher(frozen, manifest.vocab)
        if run_dir is not None:
            save_checkpoint(
                os.path.join(run_dir, f"checkpoint_t{t}.bin"),
                student, t, trace, config_digest,
            )
    if run_dir is not None:
        write_metrics_csv(os.path.join(run_dir, "metrics.csv"), rows)
        trace.write_csv(os.path.join(run_dir, "weight_trace.csv"))
    return rows, trace, student


def write_metrics_csv(path, rows) -> None:
    """Metrics table: one row per (time step, dataset) plus average rows.

    Floats are written with full round-trip precision so equal runs
    produce byte-identical files.
    """
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow([row.t, row.dataset, repr(row.accuracy), repr(row.macro_f1)])


def read_metrics_csv(path) -> list:
    import csv

    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for record in reader:
            rows.append(
                MetricsRow(
                    t=int(record["t"]),
                    dataset=record["dataset"],
                    accuracy=float(record["accuracy"]),
                    macro_f1=float(record["macro_f1"]),
                )
            )
    return rows


def save_checkpoint(path, model: StudentModel, task_index: int,
                    trace: WeightTrace, config_digest: str = "") -> None:
    """Versioned binary checkpoint, written atomically.

    Layout: magic, version, JSON header (architecture, label inventory,
    task index, seed, weight trace, config digest), then the parameter
    blob as little-endian float64 in a fixed order.  Reloading restores
    bit-identical forward outputs.
    """
    header = {
        "task_index": int(task_index),
        "seed": model.seed,
        "feature_length": model.feature_length,
        "question_length": model.question_length,
        "hidden1": model.hidden1,
        "hidden2": model.hidden2,
        "class_ids": list(model.class_ids),
        "class_names": list(model.class_names),
        "config_digest": config_digest,
        "trace_rows": trace.rows,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    blob = model.get_flat().astype("<f8").tobytes()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<Q", model.n_params))
        fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Restore (model, header) from a checkpoint file.

    The file is read whole, so no length field in it can make the reader
    allocate more than the file holds, and the parameter count must match
    the header's architecture before a model is built.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise DataError(f"{path} is not a checkpoint file (bad magic)")
    try:
        version, header_len = struct.unpack_from("<HI", data, len(CHECKPOINT_MAGIC))
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        offset = len(CHECKPOINT_MAGIC) + struct.calcsize("<HI")
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
        offset += header_len
        (count,) = struct.unpack_from("<Q", data, offset)
        seed, *widths = (
            int(header[key]) for key in
            ("seed", "feature_length", "question_length", "hidden1", "hidden2")
        )
        classes = [
            LabelClass(int(cid), str(name), ())
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"checkpoint header is corrupt: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint header is malformed: {exc!r}") from exc
    model.set_flat(np.frombuffer(blob, dtype="<f8").astype(np.float64))
    return model, header
