"""Sequential training engine: student model, task loop, evaluation.

The student is a small two-hidden-layer tanh network over pre-extracted
image features concatenated with a bag-of-tokens question encoding.
Everything is float64 numpy with hand-written backprop, which keeps
runs bit-reproducible across repeats and makes the whole loss
differentiable-by-inspection (the gradient check exercises exactly the
code the trainer runs).

Per task the loop grows the output head for unseen classes, updates
the cumulative imbalance ledger, trains, then evaluates on the held-out
split of every task seen so far.  Training is two steps: ``plan_task``
is the paper's method (both teachers' accuracies on the incoming
training data set the weights and targets), and ``fit`` is plain
mini-batch descent on the weighted three-term loss, which returns each
epoch's mean loss terms for the run's ``events.jsonl``.  The student
trained at step t is frozen and becomes the previous-model teacher at
step t+1.

Baselines are weight presets over this same loop: plain fine-tuning
pins the weights to (1, 0, 0); single-teacher distillation pins them to
(alpha, 1 - alpha, 0).  A term with zero weight is never computed and
its teacher is never queried.
"""

from __future__ import annotations

import copy
import json
import math
import re
import struct
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bridge import Vocabulary
from .errors import ConfigError, DataError, NumericError, TeacherQueryError, check_settings
from .errors import checked, integer_rule, integer_setting, is_integer, is_number, number_setting
from .errors import parse_input, parse_json, remove_outputs, setting, sized_by, write_csv
from .errors import write_output
from .losses import LossBreakdown, batch_loss, softened_softmax
from .taskstream import PIECE_BYTES, ImbalanceLedger, LabelClass, StreamManifest, TaskDataset
from .taskstream import load_task
from .teachers import Teacher
from .weights import TRACE_COLUMNS, WeightConfig, WeightTriple, WeightTrace, assemble_weights
from .weights import measure_teacher_accuracy

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
    counts = np.bincount(vocab.token_ids(question), minlength=len(vocab) + 1).astype(np.float64)
    norm = np.linalg.norm(counts)
    return counts / norm if norm > 0.0 else counts


def encode_inputs(dataset: TaskDataset, vocab: Vocabulary, feature_length: int) -> np.ndarray:
    """Design matrix: each sample's features, then its question encoding
    (``question_slots``, ``design_matrix``).  A loaded train split's
    ``design`` buffer already holds its features; its question columns
    are filled in place and it is returned, so a second call refills it.
    Any other split is assembled into a new matrix.
    """
    features = dataset.features
    if features.shape != (len(features), feature_length):
        raise DataError(
            f"task {dataset.task_index} has features of shape {features.shape}, "
            f"expected {feature_length} per sample"
        )
    inputs = dataset.design
    if inputs is not None and inputs.shape[1] != feature_length + len(vocab) + 1:
        inputs = None
    return design_matrix(features, *question_slots(dataset.questions, vocab), inputs)


def question_slots(questions, vocab: Vocabulary) -> tuple:
    """(slots, codes): each distinct question text encoded once, a row of
    ``codes`` in order of first appearance, and each question's row."""
    slots = {}
    rows = np.fromiter((slots.setdefault(q, len(slots)) for q in questions), np.intp)
    codes = np.array([encode_question(q, vocab) for q in slots]).reshape(-1, len(vocab) + 1)
    return rows, codes


def design_matrix(features: np.ndarray, slots: np.ndarray, codes: np.ndarray,
                  inputs: np.ndarray | None = None) -> np.ndarray:
    """Each row's features, then its question's encoding ``codes[slots[i]]``,
    in ``inputs`` (whose leading columns hold ``features``) or a new matrix.
    The question columns are filled in row pieces of at most ``PIECE_BYTES``:
    a gather into a column slice goes through a temporary as large as it."""
    feature_length = features.shape[1]
    if inputs is None:
        inputs = np.empty((len(slots), feature_length + codes.shape[1]), dtype=np.float64)
        inputs[:, :feature_length] = features
    questions = inputs[:, feature_length:]
    step = max(1, PIECE_BYTES // (questions.shape[1] * questions.itemsize))
    for start in range(0, len(slots), step):
        questions[start : start + step] = codes[slots[start : start + step]]
    return inputs


@dataclass(frozen=True)
class TrainSettings:
    """Optimizer and architecture knobs for the training loop."""

    learning_rate: float = number_setting(0.05, ">", 0)
    epochs: int = integer_setting(30, 1)
    batch_size: int = integer_setting(32, 1)
    temperature: float = number_setting(2.0, ">", 0)
    seed: int = integer_setting(0, 0)
    hidden1: int = integer_setting(32, 1)
    hidden2: int = integer_setting(32, 1)
    mode: str = setting("ours", f"one of {MODES}", lambda v: v in MODES)

    def __post_init__(self):
        check_settings(self)
        # A whole-number temperature is kept as a float, so it is written
        # to resolved_config.json (and digested) the same either way.
        object.__setattr__(self, "temperature", float(self.temperature))


class StudentModel:
    """Two-hidden-layer tanh classifier with a growable output head.

    The head is ``classes``, one ``LabelClass`` per output column in
    column order; it only grows by appending.  A split's class is found
    in it by id and must carry the head's name (``head_positions``).
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
        self.classes = []

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
        return len(self.classes)

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
        ids = {c.id for c in self.classes}
        for c in new_classes:
            if c.id in ids:
                raise DataError(f"class {c.name!r} (id {c.id}) already in the head")
            ids.add(c.id)
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
        self.classes.extend(LabelClass(int(c.id), c.name) for c in new_classes)
        self._adopt(np.concatenate([self._flat[:head], w3.ravel(), b3]), self.n_classes)
        return self

    def head_positions(self, classes) -> np.ndarray:
        """The head column of each of ``classes``, found by id, as int64.

        A class whose id the head lacks, or whose name differs from the
        head's for that id, is a DataError naming every such class.
        """
        column = {c.id: i for i, c in enumerate(self.classes)}
        missing = [c.name for c in classes if c.id not in column]
        if missing:
            raise DataError(f"model head does not cover classes {missing}")
        renamed = [f"{c.id} ({head.name!r} in the head, {c.name!r} in the data)"
                   for c in classes if (head := self.classes[column[c.id]]).name != c.name]
        if renamed:
            raise DataError(f"model head names class ids differently: {', '.join(renamed)}")
        return np.array([column[c.id] for c in classes], dtype=np.int64)

    def head_columns(self, split: TaskDataset) -> np.ndarray:
        """The head column of each sample's class in ``split``, through
        ``head_positions``: a training label or an evaluation truth."""
        return self.head_positions(split.classes).take(split.answers)

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
        twin.classes = list(self.classes)
        return twin


class PrevModelTeacher(Teacher):
    """Frozen snapshot of the student, serving logits for its whole head.

    Its head is ``model.classes``, which the student's head must extend.
    It scores the design matrix the trainer already encoded, with
    ``score_inputs``, one batched forward pass; it has no ``score_table``
    and never encodes samples itself.
    """

    def __init__(self, model: StudentModel):
        super().__init__()
        self.model = model

    def score_inputs(self, inputs: np.ndarray) -> np.ndarray:
        """Logits over the whole head for each row of a design matrix."""
        table = self.model.forward(inputs)
        self.query_count += len(table)
        return table


@dataclass(frozen=True)
class TaskPlan:
    """What ``fit`` trains on for one task.  ``tables`` holds the raw
    (previous model, general teacher) score tables, which the observer
    sees, and ``targets`` them softened at the temperature, which the
    distillation terms take; a table that is not kept is None in both."""

    t: int
    ids: list
    inputs: np.ndarray
    labels: np.ndarray
    weights: WeightTriple
    tables: tuple
    targets: tuple


def plan_task(student: StudentModel, prev_teacher, llm_teacher, task: TaskDataset,
              ledger: ImbalanceLedger, settings: TrainSettings, weight_cfg: WeightConfig,
              vocab: Vocabulary, trace: WeightTrace) -> TaskPlan:
    """The paper's weight plan for one task, recorded in ``trace``.

    The step is the task's ``task_index``.  The (alpha, beta, chi)
    weights are set once per task: (1, 0, 0) at step 1 and under
    ``ft``; (alpha, 1 - alpha, 0) under ``lwf``, which needs a previous
    model; and under ``ours``, which needs both teachers, from each
    teacher's measured accuracy on the task and the ledger's class
    imbalance.  Each teacher that can get a non-zero weight scores the
    training samples once, into a table that both measures its accuracy
    and supplies the distillation targets; a table whose weight is zero
    is dropped, and a teacher that cannot get a weight is never queried.
    Each sample's label is its class's head column, found by id
    (``StudentModel.head_columns``: a class the head lacks, or names
    differently, is a DataError).  The task is encoded once, and the
    previous model (a ``PrevModelTeacher``) scores that design matrix.
    Its head must be a prefix of the student's: its table of width ``m``
    covers the first ``m`` columns.  The general teacher scores over the
    head's names; its table must have one row per sample and one column
    per head class (else TeacherQueryError).  Each kept table is softened
    once; a non-finite table is a NumericError, before ``fit`` starts.
    """
    t = task.task_index
    n = len(task.ids)
    if not n:
        raise DataError(f"task {t} has no training samples")
    labels = student.head_columns(task)
    head_names = tuple(c.name for c in student.classes)
    prev_head = prev_teacher.model.classes if prev_teacher else []
    if student.classes[: len(prev_head)] != prev_head:
        raise DataError(
            f"student head {list(head_names)} does not extend the previous model's "
            f"head {[c.name for c in prev_head]}"
        )
    inputs = encode_inputs(task, vocab, student.feature_length)

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
        if np.shape(llm_table) != (n, len(head_names)):
            raise TeacherQueryError(
                f"general teacher scored a table of shape {np.shape(llm_table)}, "
                f"expected {(n, len(head_names))} (samples, head classes)"
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
    tables = (prev_table, llm_table)
    # The teachers are frozen, so each table is softened once per task.
    targets = tuple(None if table is None else softened_softmax(table, settings.temperature)
                    for table in tables)
    return TaskPlan(t, task.ids, inputs, labels, weights, tables, targets)


def fit(student: StudentModel, plan: TaskPlan, settings: TrainSettings, observer=None) -> list:
    """Mini-batch gradient descent on the plan's weighted three-term loss.

    Returns each epoch's mean ``LossBreakdown``: each batch's terms times
    its row count, summed in batch order, over the split's rows (nan for
    a term that is off).  A non-finite loss aborts the run; terms are
    never dropped silently.  ``observer``, if given, is called once per
    batch with a dict of that batch's loss ingredients (for side-by-side
    recomputation in tests): ``t``, ``epoch``, ``batch``, ``sample_ids``,
    ``labels``, ``student_logits``, ``prev_logits``, ``llm_logits``
    (teacher rows or None), ``weights``, ``temperature`` and ``breakdown``.
    """
    n = len(plan.labels)
    shuffle_rng = np.random.default_rng([settings.seed, 2, int(plan.t)])
    means = []
    for epoch in range(settings.epochs):
        order = shuffle_rng.permutation(n)
        batches = []
        for start in range(0, n, settings.batch_size):
            batch_idx = order[start : start + settings.batch_size]
            y = plan.labels[batch_idx]
            logits, cache = student.forward(plan.inputs[batch_idx], want_cache=True)
            batch_breakdown, dz = batch_loss(
                logits, y, plan.weights, settings.temperature,
                *(None if rows is None else rows[batch_idx] for rows in plan.targets),
            )
            student.apply_gradients(student.backward(cache, dz), settings.learning_rate)
            batches.append((batch_breakdown, len(y)))
            if observer is not None:
                prev_logits, llm_logits = (None if table is None else table[batch_idx]
                                           for table in plan.tables)
                observer({"t": plan.t, "epoch": epoch, "batch": start // settings.batch_size,
                          "sample_ids": [plan.ids[int(i)] for i in batch_idx],
                          "labels": y.copy(), "student_logits": logits.copy(),
                          "prev_logits": prev_logits, "llm_logits": llm_logits,
                          "weights": plan.weights, "temperature": settings.temperature,
                          "breakdown": batch_breakdown})
        sums = [0.0] * len(fields(LossBreakdown))
        for breakdown, rows in batches:
            sums = [total + value * rows for total, value in zip(sums, vars(breakdown).values())]
        means.append(LossBreakdown(*(total / n for total in sums)))
    return means


def train_task(student: StudentModel, prev_teacher, llm_teacher, task: TaskDataset,
               ledger: ImbalanceLedger, settings: TrainSettings, weight_cfg: WeightConfig,
               vocab: Vocabulary, trace: WeightTrace, observer=None) -> list:
    """One task's training, as the run calls it: ``fit`` on its ``plan_task``."""
    return fit(student, plan_task(student, prev_teacher, llm_teacher, task, ledger, settings,
                                  weight_cfg, vocab, trace), settings, observer)


@dataclass(frozen=True)
class MetricsRow:
    """One evaluated dataset at one time step."""

    t: int
    dataset: str
    accuracy: float
    macro_f1: float


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def evaluate(model: StudentModel, truth: np.ndarray, inputs: np.ndarray) -> tuple:
    """(top-1 accuracy, macro F1) on one dataset, given its truth and design matrix.

    ``truth[i]`` is the head column of row i's class
    (``StudentModel.head_columns`` of the split).  It can be taken once,
    when the split is loaded: the head only appends, and a class never
    changes its id or name, so a class's column never moves.  F1 is
    averaged over the classes actually present in the dataset, in
    class-id order; each per-class precision, recall, and F1 treats 0/0
    as 0.
    """
    if not len(truth) or len(truth) != len(inputs):
        raise DataError(
            f"evaluation needs one truth per design-matrix row and at least one row, "
            f"got {len(truth)} truths for {len(inputs)} rows"
        )
    predicted = model.forward(inputs).argmax(axis=1)
    accuracy = float((predicted == truth).mean())

    # Each head column's counts, taken in the order of the columns' class ids.
    by_id = sorted(range(model.n_classes), key=lambda i: model.classes[i].id)
    counts = [np.bincount(columns, minlength=model.n_classes)[by_id].tolist()
              for columns in (truth[predicted == truth], predicted, truth)]
    f1_values = []
    for tp, called, actual in zip(*counts):
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
    run_dir: RunDir | None = None,
):
    """Train through the whole stream and evaluate after every task.

    Returns (metrics rows, weight trace, final student).  After task t
    the student is evaluated on the held-out split of every task seen
    so far plus an average row; the frozen copy of the student becomes
    the previous-model teacher for task t + 1.  With ``run_dir`` set,
    each task's files are written there (``RunDir.write_task``), so a
    run that stops keeps the results of the tasks it finished.

    A split is held only within its own task.  The train split is
    dropped once that task is trained and its held-out split taken (the
    ledger keeps its class counts).  Of each held-out split, the run
    keeps for its remaining tasks its truth, features, question slots and
    codes, taken once, when it is loaded (``_held_out``); ``design_matrix``
    assembles its rows from them for each ``evaluate`` call alone.
    """
    student = prev_teacher = None
    ledger = ImbalanceLedger()
    trace = WeightTrace()
    rows, events, tests = [], [], []
    for entry in manifest.tasks:
        t = entry.index
        train_split = load_task(manifest, t, "train")
        # Built once task 1's features have loaded, so that a feature length
        # its block does not hold is the block's fault, not the model's size.
        if student is None:
            with sized_by("hidden1", "hidden2"):
                student = StudentModel(
                    settings.seed, manifest.feature_length, len(manifest.vocab) + 1,
                    settings.hidden1, settings.hidden2,
                )
        student.grow_head([c for c in train_split.classes if c not in student.classes])
        ledger.update(train_split)
        losses = train_task(
            student, prev_teacher, llm_teacher, train_split, ledger,
            settings, weight_cfg, manifest.vocab, trace,
        )
        weights = {name: trace.rows[-1][name] for name in ("alpha", "beta", "chi")}
        events += ({"t": t, "epoch": epoch, "samples": len(train_split.ids), **weights,
                    **{name: None if math.isnan(v) else v for name, v in vars(terms).items()}}
                   for epoch, terms in enumerate(losses))
        tests.append((t, *_held_out(manifest, t, student)))
        # Dropped after the held-out split is taken: dropped before, its pages
        # went back to the system and the next task's load faulted them in again.
        del train_split
        scores = [(f"task{i}", *evaluate(student, truth, design_matrix(*held)))
                  for i, truth, *held in tests]
        _, accuracies, macro_f1s = zip(*scores)
        scores.append((AVG_DATASET, float(np.mean(accuracies)), float(np.mean(macro_f1s))))
        rows.extend(MetricsRow(t, *score) for score in scores)
        prev_teacher = PrevModelTeacher(student.clone())
        if run_dir is not None:
            run_dir.write_task(t, student, rows, trace, events)
    return rows, trace, student


def _held_out(manifest: StreamManifest, t: int, student: StudentModel) -> tuple:
    """(truth, features, slots, codes) of task ``t``'s held-out split, which
    is not kept: what ``evaluate`` reads of it at every later task."""
    split = load_task(manifest, t, "test")
    return (student.head_columns(split), split.features,
            *question_slots(split.questions, manifest.vocab))


@dataclass(frozen=True)
class RunDir:
    """A run's output directory, and the one place that names and writes its files."""

    path: Path
    config_digest: str = ""

    def start(self, resolved_config: dict) -> None:
        """Remove the run files an earlier run left, and the ``.tmp`` of one
        that a kill left half written (no other file), then write
        ``resolved_config`` (``RunConfig.resolved_dict()``) and the run info."""
        names = ("resolved_config.json", "run_info.json", "metrics.csv", "weight_trace.csv",
                 "events.jsonl")
        remove_outputs(self.path, lambda name: name.removesuffix(".tmp") in names
                       or re.fullmatch(r"checkpoint_t[0-9]+\.bin(\.tmp)?", name), "run files")
        run_info = {"tool_version": __version__, "seed": resolved_config["seed"],
                    "config_digest": self.config_digest, "mode": resolved_config["mode"]}
        for name, what, payload in (("resolved_config.json", "resolved config", resolved_config),
                                    ("run_info.json", "run info", run_info)):
            write_output(self.path / name, json.dumps(payload, indent=2) + "\n", what)

    def write_task(self, t: int, student: StudentModel, rows, trace: WeightTrace,
                   events) -> None:
        """The whole metrics table, weight trace and event log (one strict
        JSON line per record of ``events``), then task ``t``'s checkpoint
        last, so that task ``t`` is finished iff it exists."""
        write_metrics_csv(self.path / "metrics.csv", rows)
        trace.write_csv(self.path / "weight_trace.csv")
        write_output(self.path / "events.jsonl", "".join(
            json.dumps(event, allow_nan=False) + "\n" for event in events), "event log")
        save_checkpoint(self.path / f"checkpoint_t{t}.bin", student, t, trace, self.config_digest)


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
        "class_ids": [c.id for c in model.classes],
        "class_names": [c.name for c in model.classes],
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
    return parse_input(path, "checkpoint", _parse_checkpoint)


# Each header field with its rule; a trace row's measurements are NaN at step 1.
_HEADER_RULES = (
    ("seed", *integer_rule(0)),
    *((key, *integer_rule(1)) for key in ARCHITECTURE[1:]),
    ("class_ids", "a list of integers", lambda v: isinstance(v, list) and all(map(is_integer, v))),
    ("class_names", "a list of strings",
     lambda v: isinstance(v, list) and all(isinstance(name, str) for name in v)),
    ("task_index", *integer_rule(1)),
    ("config_digest", "a string", lambda v: isinstance(v, str)),
    ("trace_rows", f"a list of objects keyed by {', '.join(TRACE_COLUMNS)}",
     lambda v: isinstance(v, list) and all(
         isinstance(row, dict) and row.keys() == set(TRACE_COLUMNS)
         and all(map(is_number, row.values())) for row in v)),
)


def _parse_checkpoint(data: bytes):
    if not data.startswith(CHECKPOINT_MAGIC):
        raise DataError("not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<HI", data, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    offset = len(CHECKPOINT_MAGIC) + struct.calcsize("<HI")
    raw_header = data[offset : offset + header_len]
    header = parse_json(raw_header, DataError, "header is corrupt", "utf-8")
    offset += header_len
    (count,) = struct.unpack_from("<Q", data, offset)
    for name, wanted, valid in _HEADER_RULES:
        checked(f"header field {name}", header[name], wanted, valid, DataError)
    seed, *widths = [header[key] for key in ARCHITECTURE]
    ids, names = header["class_ids"], header["class_names"]
    classes = [LabelClass(*c) for c in zip(ids, names, strict=True)]
    feature_length, question_length, hidden1, hidden2 = widths
    expected = StudentModel.count_params(
        feature_length + question_length, hidden1, hidden2, len(classes)
    )
    if count != expected:
        raise DataError(
            f"header (layer widths {widths}, {len(classes)} classes) "
            f"does not describe its {count} parameters"
        )
    blob = data[offset + 8 : offset + 8 + 8 * count]
    if len(blob) != 8 * count:
        raise DataError("truncated inside the parameter blob")
    params = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(params).all():
        raise DataError("parameters are not finite")
    model = StudentModel(seed, *widths).grow_head(classes)
    model.set_flat(params)
    return model, header
