"""Loss terms for the three-signal training objective, over whole batches.

The student side of every loss is raw logits, one row per sample: a
batch of ``b`` samples over ``k`` student classes is a ``(b, k)`` logit
matrix with a ``(b,)`` vector of label indices.  Each term returns its
``(b,)`` per-row losses and the ``(b, k)`` gradient of those losses at
the student logits.

Distillation compares temperature-softened distributions of teacher and
student; the teacher distribution is the target of the cross entropy
and receives no gradient.  No temperature-squared rescaling is applied
to the distillation gradient.  Teachers are frozen within a task, so
the trainer softens each teacher's score table once per task with
``softened_softmax`` and the distillation terms take rows of that
probability table: a teacher's ``(b, m)`` rows cover the first ``m``
student classes in head order (the head only grows by appending).
Softmax works row by row, so a row of the softened table is bit for bit
the softened row.

``batch_loss`` combines the three terms into the batch-mean objective.
Its logit gradient accumulates ``(w * g) / b`` for each active term,
hard labels first, then the previous model, then the general teacher;
a distillation gradient covers only its teacher's ``m`` columns and is
added into those.  Each addition is done elementwise in exactly that
order, so the result is bit-identical to summing the terms row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .weights import WeightTriple

# Floor applied to probabilities inside log() so empty-support targets
# cannot produce inf.
PROB_EPS = 1e-12


def softened_softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax of logits / temperature along the last axis.

    Numerically stabilized by max subtraction; temperature 1 is the
    plain softmax.  Dividing by the temperature writes a fresh C-ordered
    array, which the rest works on in place, so each row of a matrix is
    summed in the same order as the same row on its own (a prefix view
    ``x[:, :m]`` is strided; a teacher table may be column-major).
    """
    if temperature <= 0.0:
        raise NumericError(f"temperature must be > 0, got {temperature}")
    z = np.divide(logits, temperature, dtype=np.float64, order="C")
    if not np.isfinite(z).all():
        raise NumericError("softmax input contains non-finite values")
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def cross_entropy(target: np.ndarray, prediction: np.ndarray) -> np.ndarray:
    """-sum(target * log(prediction)) along the last axis, with the
    probability floor applied; one value per row."""
    target = np.asarray(target, dtype=np.float64)
    prediction = np.asarray(prediction, dtype=np.float64)
    if target.shape != prediction.shape:
        raise DataError(
            f"target shape {target.shape} != prediction shape {prediction.shape}"
        )
    terms = np.log(np.maximum(prediction, PROB_EPS))
    terms *= target
    return -np.add.reduce(terms, axis=-1)


def _logit_matrix(logits) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise DataError(
            f"expected a non-empty (batch, classes) logit matrix, got shape {logits.shape}"
        )
    return logits


def hard_label_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross entropy of each row against its one-hot label.

    ``logits`` is ``(b, k)`` and ``labels`` holds ``b`` class indices.
    Returns ``(losses, dlosses/dlogits)`` with shapes ``(b,)`` and
    ``(b, k)``.
    """
    logits = _logit_matrix(logits)
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.shape != (b,):
        raise DataError(f"{labels.shape} labels for a batch of {b} rows")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(
            f"label indices {labels.min()}..{labels.max()} out of range for {k} classes"
        )
    rows = np.arange(b)
    grad = softened_softmax(logits, 1.0)
    picked = grad[rows, labels]
    losses = -np.log(np.maximum(picked, PROB_EPS))
    grad[rows, labels] = picked - 1.0
    return losses, grad


def kd_loss(
    teacher_probs: np.ndarray,
    student_logits: np.ndarray,
    temperature: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Distillation cross entropy of each row over the teacher's classes.

    ``teacher_probs`` is ``(b, m)``: rows of a teacher table already
    softened at ``temperature``, covering the first ``m`` of the ``k``
    classes of the ``(b, k)`` ``student_logits``, so ``0 < m <= k``.
    The returned gradient is ``(b, m)``, over the teacher's columns
    only; padding it to the student's width is ``batch_loss``'s job.
    It omits any temperature-squared rescaling, so it is the exact
    derivative of the returned losses: d/ds CE = (softmax(s/T) - p) / T,
    where ``p`` is the teacher row.
    """
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    student_logits = _logit_matrix(student_logits)
    b, k = student_logits.shape
    m = teacher_probs.shape[-1] if teacher_probs.ndim == 2 else 0
    if teacher_probs.shape != (b, m) or not 0 < m <= k:
        raise DataError(
            f"teacher gave {teacher_probs.shape} probabilities for {b} rows "
            f"over {k} student classes"
        )
    s_probs = softened_softmax(student_logits[:, :m], temperature)
    losses = cross_entropy(teacher_probs, s_probs)
    s_probs -= teacher_probs
    s_probs /= temperature
    return losses, s_probs


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values of one combined loss evaluation."""

    hard: float
    kd_prev: float
    kd_llm: float
    total: float


def combine_losses(
    weights: WeightTriple, hard: float, kd_prev: float, kd_llm: float
) -> LossBreakdown:
    """Weighted sum of the three terms.

    A term with zero weight contributes nothing even if its value is
    nan, so disabled teachers never have to be evaluated.
    """
    def term(w: float, v: float) -> float:
        if w == 0.0:
            return 0.0
        if not math.isfinite(v):
            raise NumericError(f"non-finite loss term {v} under nonzero weight {w}")
        return w * v

    total = term(weights.alpha, hard) + term(weights.beta, kd_prev) + term(
        weights.chi, kd_llm
    )
    return LossBreakdown(hard=hard, kd_prev=kd_prev, kd_llm=kd_llm, total=total)


def _scaled(grad: np.ndarray, w: float, b: int) -> np.ndarray:
    """``w * grad / b``, computed in place in that order."""
    grad *= w
    grad /= b
    return grad


def batch_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    weights: WeightTriple,
    temperature: float,
    prev_rows,
    llm_rows,
) -> tuple[LossBreakdown, np.ndarray]:
    """The weighted three-term objective of one batch and its logit gradient.

    Every term is the mean over the batch's rows.  The hard-label term
    is always evaluated (it is reported even under zero weight) but adds
    to the gradient only when alpha > 0; a teacher term is evaluated only
    when its rows are given and its weight is non-zero, and is nan in
    the breakdown otherwise.  Returns ``(breakdown, dloss/dlogits)``.
    """
    hard, grad = hard_label_loss(logits, labels)
    b = grad.shape[0]
    dz = _scaled(grad, weights.alpha, b) if weights.alpha > 0.0 else np.zeros_like(grad)
    kd = []
    for w, rows in ((weights.beta, prev_rows), (weights.chi, llm_rows)):
        if rows is None or w == 0.0:
            kd.append(float("nan"))
            continue
        losses, grad = kd_loss(rows, logits, temperature)
        dz[:, :grad.shape[1]] += _scaled(grad, w, b)
        kd.append(float(losses.sum()) / b)
    return combine_losses(weights, float(hard.sum()) / b, *kd), dz

