"""Helpers shared by several test modules."""

import csv
import warnings

import numpy as np

from mtcl.engine import MetricsRow
from mtcl.errors import DimensionMismatchError, NumericError
from mtcl.weights import WeightTriple

# When a property test fails, hypothesis imports its patch suggester, which
# (where libcst is installed) raises a DeprecationWarning from libcst's own
# imports; under ``filterwarnings = error`` that aborts the whole session.
# Importing it once here, with that warning ignored, leaves it cached.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis suggests no patch
        pass


def latest_triple(trace) -> WeightTriple:
    """The (alpha, beta, chi) of a weight trace's last row."""
    row = trace.rows[-1]
    return WeightTriple(row["alpha"], row["beta"], row["chi"])


def classes_up_to(manifest, t: int) -> list:
    """Labels of every task with index <= t, in id order."""
    names = set()
    for entry in manifest.tasks:
        if entry.index <= t:
            names.update(entry.class_names)
    return [c for c in manifest.labels if c.name in names]


def read_metrics_csv(path) -> list:
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


def grad_check(loss_and_grad, params: np.ndarray, step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_and_grad(params)`` must return ``(loss, grad)``.  The
    relative error of coordinate i is |analytic - numeric| /
    max(1, |analytic|).
    """
    if step <= 0.0:
        raise NumericError(f"finite-difference step must be > 0, got {step}")
    params = np.asarray(params, dtype=np.float64)
    _, analytic = loss_and_grad(params)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != params.shape:
        raise DimensionMismatchError(
            f"gradient shape {analytic.shape} != parameter shape {params.shape}"
        )
    worst = 0.0
    flat = params.copy().ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        plus, _ = loss_and_grad(flat.reshape(params.shape))
        flat[i] = keep - step
        minus, _ = loss_and_grad(flat.reshape(params.shape))
        flat[i] = keep
        if not (np.isfinite(plus) and np.isfinite(minus)):
            raise NumericError("non-finite loss during finite-difference probe")
        numeric = (plus - minus) / (2.0 * step)
        a = analytic.ravel()[i]
        err = abs(a - numeric) / max(1.0, abs(a))
        worst = max(worst, err)
    return worst
