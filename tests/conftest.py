"""Helpers shared by several test modules."""

import contextlib
import csv
import http.client
import itertools
import json
import socket
import threading
import warnings
from pathlib import Path

import numpy as np

from mtcl import engine
from mtcl.engine import MetricsRow, encode_inputs
from mtcl.errors import DataError, NumericError
from mtcl.taskstream import GeneratorConfig, TaskDataset, load_task
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

# A two-task stream small enough to run a whole CLI command per test.
SMALL = GeneratorConfig(tasks=2, classes_per_task=3, feature_length=4, samples_per_task=60,
                        imbalance=2.0, overlap=0.5, shift=2.0)


def dataset_of(task_index, samples, classes, feature_length=None) -> TaskDataset:
    """The split whose rows are ``samples`` (``Sample`` tuples), as columns.

    Each answer is the position of the sample's class id in ``classes``;
    an id not there becomes ``len(classes)``, which the dataset refuses.
    ``feature_length`` sizes the feature matrix of a split with no rows.
    """
    position = {c.id: i for i, c in enumerate(classes)}
    if feature_length is None:
        feature_length = len(samples[0].features) if samples else 0
    return TaskDataset(
        task_index=task_index,
        classes=classes,
        ids=[s.id for s in samples],
        questions=[s.question for s in samples],
        answers=np.array([position.get(s.answer, len(classes)) for s in samples],
                         dtype=np.int64),
        features=np.array([s.features for s in samples],
                          dtype=np.float64).reshape(len(samples), feature_length),
    )


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


def read_events(path) -> list:
    """The records of an ``events.jsonl``, each line parsed as strict JSON:
    a NaN or an infinity in it fails the test."""
    def refuse(constant):
        raise AssertionError(f"{path} holds {constant}")

    return [json.loads(line, parse_constant=refuse) for line in path.read_text().splitlines()]


def held_out_against_reload(monkeypatch, manifest) -> list:
    """Wrap ``engine.evaluate`` so that each held-out evaluation of a run
    over ``manifest`` is recorded beside the same test split reloaded and
    encoded by ``encode_inputs``.  Returns the list the run fills: per
    call, (step, task, the rows ``run_continual`` assembled, the reloaded
    split's rows, the ``(accuracy, macro_f1)`` of each, as ``float.hex``)."""
    tasks = [entry.index for entry in manifest.tasks]
    steps = iter([(t, i) for k, t in enumerate(tasks) for i in tasks[: k + 1]])
    real, seen = engine.evaluate, []

    def evaluate(model, truth, inputs):
        t, i = next(steps)
        split = load_task(manifest, i, "test")
        reloaded = encode_inputs(split, manifest.vocab, manifest.feature_length)
        got = real(model, truth, inputs)
        again = real(model, model.head_columns(split), reloaded)
        seen.append((t, i, inputs.copy(), reloaded, *([value.hex() for value in scores]
                                                      for scores in (got, again))))
        return got

    monkeypatch.setattr(engine, "evaluate", evaluate)
    return seen


def assert_held_out_matches_reload(seen, manifest) -> None:
    """Each step's held-out rows (``held_out_against_reload``) are, byte
    for byte, its test split reloaded, and score the same, for every task
    finished by then."""
    tasks = [entry.index for entry in manifest.tasks]
    assert [(t, i) for t, i, *_ in seen] == [
        (t, i) for k, t in enumerate(tasks) for i in tasks[: k + 1]]
    for t, i, assembled, reloaded, scores, reloaded_scores in seen:
        assert assembled.shape == reloaded.shape, (t, i)
        assert assembled.tobytes() == reloaded.tobytes(), (t, i)
        assert scores == reloaded_scores, (t, i)


def interrupt_write(monkeypatch, n: int) -> None:
    """Raise KeyboardInterrupt inside the ``n``th file write from now on,
    after half its bytes are written.  ``errors.write_output`` writes every
    output file, each with one ``Path.write_bytes`` of its ``.tmp``."""
    write_bytes, calls = Path.write_bytes, itertools.count(1)

    def interrupted(path, data):
        if next(calls) == n:
            write_bytes(path, data[: len(data) // 2])
            raise KeyboardInterrupt
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", interrupted)


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
        raise DataError(
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


def _read_request(stream) -> dict:
    """The JSON body of one HTTP request read from a socket file."""
    stream.readline()
    headers = http.client.parse_headers(stream)
    return json.loads(stream.read(int(headers["Content-Length"])))


@contextlib.contextmanager
def raw_reply(reply: bytes):
    """A TCP server that answers each connection's first request with the
    raw bytes ``reply`` and closes it; yields its URL and the requests."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    received, stop = [], threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(5.0)
            with conn, conn.makefile("rb") as stream:
                received.append(_read_request(stream))
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", received
    finally:
        stop.set()
        thread.join(timeout=5.0)
        listener.close()
