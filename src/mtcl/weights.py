"""Adaptive loss-weight assignment for the three supervision signals.

The trainer mixes three loss terms: hard labels, distillation from the
previous-step model, and distillation from a general-knowledge teacher.
The mixing weights (alpha, beta, chi) sum to one.  alpha is a fixed
hyperparameter; beta and chi are computed once per task from two
measurements on that task's training set:

* the two teachers' classification accuracies (how familiar each teacher
  is with the incoming data), and
* the imbalance ratio of the cumulative class counts (how starved the
  rare classes are).

Each measurement produces a pair of shares that splits 1.0 between the
two teachers; the pairs are blended with the hyperparameters theta_ds
(domain-shift emphasis) and theta_di (data-imbalance emphasis), which
must satisfy theta_ds + theta_di = 1 - alpha.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, write_csv

WEIGHT_SUM_TOL = 1e-9


def is_number(value) -> bool:
    """True for a real number that is not a bool (JSON ``true`` is no number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """True for an ``int`` that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a number (see ``is_number``) that a float holds as a finite value;
    an integer too large for a float is not one."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class WeightConfig:
    """Hyperparameters for the weight assignment scheme.

    ``log_base`` is the base of the logarithm that damps the imbalance
    ratio; ``None`` means "use the cumulative class count at the current
    step" (never below 2).
    """

    alpha: float = 0.2
    theta_ds: float = 0.4
    theta_di: float = 0.4
    log_base: Optional[float] = None

    def __post_init__(self):
        problems = []
        if not is_finite_number(self.alpha) or not 0.0 <= self.alpha <= 1.0:
            problems.append(f"alpha must be a number in [0, 1], got {self.alpha!r}")
        for name in ("theta_ds", "theta_di"):
            value = getattr(self, name)
            if not is_finite_number(value) or value < 0.0:
                problems.append(f"{name} must be a finite number >= 0, got {value!r}")
        shares = (self.alpha, self.theta_ds, self.theta_di)
        if all(map(is_finite_number, shares)) and (
            # float() first: two finite integers may sum past the float range.
            abs(float(self.theta_ds) + self.theta_di - (1.0 - self.alpha)) > WEIGHT_SUM_TOL
        ):
            problems.append(
                "theta_ds + theta_di must equal 1 - alpha "
                f"(got {self.theta_ds} + {self.theta_di} != 1 - {self.alpha})"
            )
        if self.log_base is not None and (
            not is_number(self.log_base) or not 1.0 < self.log_base < math.inf
        ):
            problems.append(f"log_base must be a finite number > 1, got {self.log_base!r}")
        if problems:
            raise ConfigError(problems)

    def resolve_log_base(self, class_count: Optional[int] = None) -> float:
        if self.log_base is not None:
            return self.log_base
        if class_count is None:
            raise ConfigError(
                "log_base is unset and no class count was supplied to derive it"
            )
        return float(max(2, class_count))


@dataclass(frozen=True)
class WeightTriple:
    """Normalized (alpha, beta, chi) with unit sum."""

    alpha: float
    beta: float
    chi: float

    def __post_init__(self):
        # WeightConfig lets theta_ds + theta_di miss 1 - alpha by
        # WEIGHT_SUM_TOL, and blending the shares rounds on top of that,
        # so a triple from any accepted config needs the wider bound.
        tol = 2 * WEIGHT_SUM_TOL
        for name, v in (("alpha", self.alpha), ("beta", self.beta), ("chi", self.chi)):
            if not -tol <= v <= 1.0 + tol:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        total = self.alpha + self.beta + self.chi
        if abs(total - 1.0) > tol:
            raise ValueError(f"weights must sum to 1, got {total}")


@dataclass(frozen=True)
class WeightBreakdown:
    """All intermediates behind one (beta, chi) assignment, in the order
    of their ``weight_trace.csv`` columns."""

    acc_prev: float
    acc_llm: float
    ir: float
    beta_ds: float
    chi_ds: float
    beta_di: float
    chi_di: float


def ds_shares(acc_prev: float, acc_llm: float) -> tuple[float, float]:
    """Split 1.0 between the two teachers by relative accuracy.

    Both accuracies zero is the degenerate no-information case and falls
    back to an even (0.5, 0.5) split.
    """
    for name, v in (("acc_prev", acc_prev), ("acc_llm", acc_llm)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    denom = acc_prev + acc_llm
    if denom == 0.0:
        return 0.5, 0.5
    beta_ds = acc_prev / denom
    return beta_ds, 1.0 - beta_ds


def di_shares(ir: float, log_base: float) -> tuple[float, float]:
    """Split 1.0 between the two teachers by log-damped imbalance.

    A balanced history (ir == 1) gives the previous-step teacher the
    whole share; the general teacher's share grows with log_base(ir).
    """
    if not ir >= 1.0:
        raise ValueError(f"imbalance ratio ir must be >= 1, got {ir}")
    if log_base <= 1.0:
        raise ValueError(f"log_base must be > 1, got {log_base}")
    damped = math.log(ir) / math.log(log_base)
    beta_di = 1.0 / (1.0 + damped)
    return beta_di, 1.0 - beta_di


def assemble_weights(
    cfg: WeightConfig,
    acc_prev: float,
    acc_llm: float,
    ir: float,
    class_count: Optional[int] = None,
) -> tuple[WeightTriple, WeightBreakdown]:
    """Blend the accuracy-based and imbalance-based shares into (alpha, beta, chi)."""
    base = cfg.resolve_log_base(class_count)
    beta_ds, chi_ds = ds_shares(acc_prev, acc_llm)
    beta_di, chi_di = di_shares(ir, base)
    beta = cfg.theta_ds * beta_ds + cfg.theta_di * beta_di
    chi = cfg.theta_ds * chi_ds + cfg.theta_di * chi_di
    triple = WeightTriple(alpha=cfg.alpha, beta=beta, chi=chi)
    breakdown = WeightBreakdown(acc_prev, acc_llm, ir, beta_ds, chi_ds, beta_di, chi_di)
    return triple, breakdown


def measure_teacher_accuracy(scores, truth) -> float:
    """Top-1 accuracy of a teacher from its score table on one task.

    ``scores`` holds one row of candidate logits per training sample;
    ``truth`` holds each sample's true column, or -1 when the true label
    is not a candidate (the teacher cannot possibly get it right, so the
    sample counts as wrong).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or 0 in scores.shape:
        raise ValueError(
            f"teacher accuracy needs a non-empty score table, got shape {scores.shape}"
        )
    truth = np.asarray(truth, dtype=np.int64)
    correct = (truth >= 0) & (scores.argmax(axis=1) == truth)
    return int(correct.sum()) / len(truth)


_MEASURED = tuple(f.name for f in fields(WeightBreakdown))
_WEIGHTS = tuple(f.name for f in fields(WeightTriple))
# One row per task; the epoch column is always 0.
TRACE_COLUMNS = ("t", "epoch", *_MEASURED, *_WEIGHTS)


def trace_row(t: int, triple: WeightTriple,
              breakdown: Optional[WeightBreakdown] = None) -> dict:
    """One ``weight_trace.csv`` row, keyed and ordered by ``TRACE_COLUMNS``;
    a row without a breakdown has NaN measurements."""
    nan = float("nan")
    return {
        "t": t,
        "epoch": 0,
        **{name: getattr(breakdown, name) if breakdown else nan for name in _MEASURED},
        **{name: getattr(triple, name) for name in _WEIGHTS},
    }


@dataclass
class WeightTrace:
    """Accumulates one row per weight assignment."""

    rows: list = field(default_factory=list)

    def record(self, t: int, triple: WeightTriple,
               breakdown: Optional[WeightBreakdown] = None) -> None:
        self.rows.append(trace_row(t, triple, breakdown))

    def write_csv(self, path) -> None:
        write_csv(path, TRACE_COLUMNS, (row.values() for row in self.rows), "weight trace")
