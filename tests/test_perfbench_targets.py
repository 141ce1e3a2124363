"""The benchmark's span recorder (``perfbench/tracer.py``) still finds
every layer it times, and its run wrapper (``perfbench/child.py``) still
finds the hooks it counts queries with, so a traced run reports every
per-layer metric.  The scoring stub of its service workload
(``perfbench/stub.py``) still serves the table the fixture teacher
replays, and counts the queries the teacher counts."""

import http.client
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mtcl import engine, teachers
from mtcl.bridge import build_vocabulary, tokenize_labels, write_fixture
from mtcl.taskstream import GeneratorConfig, generate_synthetic_stream

REPO = Path(__file__).resolve().parent.parent
TRACER_PATH = REPO / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "name, module, attr", tracer.TARGETS, ids=[name for name, _, _ in tracer.TARGETS]
)
def test_every_target_resolves(name, module, attr):
    importlib.import_module(module)
    assert tracer._resolve(module, attr) is not None, f"{name}: {module}.{attr} is gone"


def test_extra_counters_belong_to_targets():
    assert set(tracer.EXTRAS) <= {name for name, _, _ in tracer.TARGETS}


def test_train_task_keeps_the_arguments_the_timer_binds_by_name():
    assert {"task", "settings"} <= set(inspect.signature(engine.train_task).parameters)


def test_previous_model_is_a_teacher():
    # child.py tells the two teachers apart by this class.
    assert issubclass(engine.PrevModelTeacher, teachers.Teacher)


def test_every_teacher_runs_the_base_initializer(tmp_path, monkeypatch):
    """child.py counts queries on every teacher that ``Teacher.__init__`` saw."""
    made = []
    teacher_init = teachers.Teacher.__init__

    def register(self, *args, **kwargs):
        teacher_init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(teachers.Teacher, "__init__", register)
    labels = ("cut", "idle")
    vocab = build_vocabulary(labels)
    width = tokenize_labels(vocab, labels).width
    write_fixture(tmp_path / "scores.bin", {"s": np.zeros((2, width, len(vocab)))})
    specs = [
        {"kind": "fixture", "path": str(tmp_path / "scores.bin")},
        {"kind": "service", "base_url": "http://127.0.0.1:9"},
        {"kind": "noisy-oracle", "accuracy": 0.5, "seed": 1},
    ]
    built = [teachers.teacher_from_config(spec, vocab=vocab) for spec in specs]
    student = engine.StudentModel(1, 2, len(vocab) + 1, 4, 4)
    built.append(engine.PrevModelTeacher(student))
    assert [id(t) for t in made] == [id(t) for t in built]


def test_traced_child_run_reports_every_span(tmp_path):
    stream = GeneratorConfig(tasks=2, classes_per_task=2, feature_length=3,
                             samples_per_task=24, imbalance=2.0)
    manifest = generate_synthetic_stream(stream, seed=3, out_dir=tmp_path / "stream")
    config = tmp_path / "ours.json"
    config.write_text(json.dumps({
        "manifest": str(manifest), "mode": "ours",
        "optimizer": {"epochs": 1, "batch_size": 8},
        "model": {"hidden1": 4, "hidden2": 4},
        "llm_teacher": {"kind": "noisy-oracle", "accuracy": 0.8},
    }))
    result = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "traced", str(result),
         str(REPO / "src"), "--", "run", str(config), "--output-dir", str(tmp_path / "run")],
        check=True, capture_output=True, timeout=120,
    )
    measured = json.loads(result.read_text())
    assert measured["exit_code"] == 0
    assert measured["llm_queries"] > 0 and measured["prev_queries"] > 0
    summary = tracer.summarize(str(result) + ".npz")
    assert summary["absent"] == []
    assert summary["spans"]["engine.train_task"]["calls"] == 2


def test_stub_serves_the_fixture_teachers_table(tmp_path):
    """The service workload's ``served == llm_queries`` check on a tiny fixture."""
    labels = ("cut", "idle", "grasp")
    vocab = build_vocabulary(labels)
    width = tokenize_labels(vocab, labels).width
    rng = np.random.default_rng(11)
    samples = [
        SimpleNamespace(id=f"s-{i}", question="what action is shown",
                        features=np.full(3, i / 7.0))
        for i in range(11)
    ]
    fixture = tmp_path / "scores.bin"
    write_fixture(fixture, {
        s.id: rng.normal(0.0, 1.5, size=(3, width, len(vocab))).astype(np.float32)
        for s in samples
    })
    stub = subprocess.Popen(
        [sys.executable, str(REPO / "perfbench" / "stub.py"), str(REPO / "src"), str(fixture)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(stub.stdout.readline())
        teacher = teachers.ServiceTeacher(f"http://127.0.0.1:{port}", vocab=vocab, timeout=10.0)
        try:
            table = teacher.score_table(samples, labels)
        finally:
            teacher.close()  # the stub serves one connection at a time
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
        try:
            conn.request("GET", "/count")
            served = json.loads(conn.getresponse().read())["served"]
        finally:
            conn.close()
    finally:
        stub.terminate()
        stub.wait(timeout=10.0)
        stub.stdout.close()
    offline = teachers.FixtureTeacher(fixture, vocab).score_table(samples, labels)
    assert table.tobytes() == offline.tobytes()
    assert served == teacher.query_count == len(samples)
    assert stub.returncode is not None
