"""Helpers shared by several test modules."""

from mtcl.weights import WeightTriple


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
