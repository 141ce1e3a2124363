"""The benchmark's span recorder (``perfbench/tracer.py``) still finds
every layer it times, so a traced run reports every per-layer metric."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from mtcl import engine

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
