"""Outside-in span recorder for the traced benchmark run.

``install`` wraps the public functions of the mtcl layers from outside
the program.  A function is replaced in its defining module *and* in
every mtcl module that imported it by name, because that is where the
caller looks it up (``engine`` calls its own ``kd_loss`` binding, not
``losses.kd_loss``).  Methods are replaced on their class.

Spans (name, start, end, parent) stay in memory and are written once,
as arrays, by ``Tracer.save``; ``summarize`` turns them into the
per-layer metrics, with self time derived from the span tree.  A target
that no longer exists is reported absent, never as zero.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, defining module, attribute); "Class.method" for methods.
TARGETS = (
    ("taskstream.load_manifest", "mtcl.taskstream", "load_manifest"),
    ("taskstream.load_task", "mtcl.taskstream", "load_task"),
    ("engine.train_task", "mtcl.engine", "train_task"),
    ("engine.encode_inputs", "mtcl.engine", "encode_inputs"),
    ("engine.encode_question", "mtcl.engine", "encode_question"),
    ("engine.forward", "mtcl.engine", "StudentModel.forward"),
    ("engine.backward", "mtcl.engine", "StudentModel.backward"),
    ("engine.apply_gradients", "mtcl.engine", "StudentModel.apply_gradients"),
    ("engine.evaluate", "mtcl.engine", "evaluate"),
    ("engine.save_checkpoint", "mtcl.engine", "save_checkpoint"),
    ("engine.write_metrics_csv", "mtcl.engine", "write_metrics_csv"),
    ("losses.hard_label_loss", "mtcl.losses", "hard_label_loss"),
    ("losses.kd_loss", "mtcl.losses", "kd_loss"),
    ("losses.softened_softmax", "mtcl.losses", "softened_softmax"),
    ("losses.combine_losses", "mtcl.losses", "combine_losses"),
    ("weights.measure_teacher_accuracy", "mtcl.weights", "measure_teacher_accuracy"),
    ("weights.assemble_weights", "mtcl.weights", "assemble_weights"),
    ("weights.WeightTrace.write_csv", "mtcl.weights", "WeightTrace.write_csv"),
    ("teachers.query", "mtcl.teachers", "Teacher.query"),
    ("bridge.scores_to_logits", "mtcl.bridge", "scores_to_logits"),
)


# Extra counters: span name -> (counter suffix, f(args, kwargs, result)).
EXTRAS = {
    "taskstream.load_task": ("rows", lambda args, kwargs, result: len(result.samples)),
    "engine.encode_inputs": ("rows", lambda args, kwargs, result: len(result)),
    "engine.forward": ("rows", lambda args, kwargs, result: len(args[1])),
    "engine.save_checkpoint": (
        "bytes", lambda args, kwargs, result: os.path.getsize(args[0])
    ),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = [-1]
        self.counters = defaultdict(float)
        self.query_keys = defaultdict(set)
        self.absent = []

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name_of, extra=None):
        """``name_of(args)`` gives the span's name id for one call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(name_of(args))
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return traced

    def save(self, path) -> None:
        for kind, keys in self.query_keys.items():
            self.counters[f"teachers.{kind}.unique"] = len(keys)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            counter_names=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array(
                [self.counters[k] for k in sorted(self.counters)], dtype=np.float64
            ),
            absent=np.array(self.absent, dtype=str),
        )


def _resolve(module_name: str, attr: str):
    """(owner, leaf name, original) or None when the target is gone."""
    owner = sys.modules.get(module_name)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: Tracer) -> None:
    """Wrap every target; call after ``mtcl`` has been imported."""
    from mtcl.engine import PrevModelTeacher

    mtcl_modules = [m for n, m in sys.modules.items() if n == "mtcl" or n.startswith("mtcl.")]
    for name, module_name, attr in TARGETS:
        found = _resolve(module_name, attr)
        if found is None:
            if name == "teachers.query":
                tracer.absent += ["teachers.llm.query", "teachers.prev.query"]
            else:
                tracer.absent.append(name)
            continue
        owner, leaf, original = found
        if name == "teachers.query":
            ids = {"prev": tracer.intern("teachers.prev.query"),
                   "llm": tracer.intern("teachers.llm.query")}

            def kind(args):
                return "prev" if isinstance(args[0], PrevModelTeacher) else "llm"

            def name_of(args, ids=ids):
                return ids[kind(args)]

            def extra(args, kwargs, result):
                sample = args[1]
                mask = kwargs.get("mask_names", args[2] if len(args) > 2 else ())
                tracer.query_keys[kind(args)].add((sample.id, tuple(mask)))
        else:
            nid = tracer.intern(name)

            def name_of(args, nid=nid):
                return nid

            extra = None
            if name in EXTRAS:
                suffix, measure = EXTRAS[name]
                key = f"{name}.{suffix}"

                def extra(args, kwargs, result, key=key, measure=measure):
                    tracer.counters[key] += measure(args, kwargs, result)

        wrapped = tracer.wrap(original, name_of, extra)
        setattr(owner, leaf, wrapped)
        if "." not in attr:
            for module in mtcl_modules:
                if vars(module).get(leaf) is original:
                    setattr(module, leaf, wrapped)


def summarize(path) -> dict:
    """Per-name totals from a saved trace: ``s``, ``self_s``, ``calls``,
    ``durations`` (array), plus the extra counters and absent names."""
    data = np.load(path)
    names = list(data["names"])
    name_id = data["name_id"]
    dur = data["end"] - data["start"]
    parent = data["parent"]
    child = parent >= 0
    child_time = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    self_time = dur - child_time
    n = len(names)
    totals = np.bincount(name_id, weights=dur, minlength=n)
    selfs = np.bincount(name_id, weights=self_time, minlength=n)
    calls = np.bincount(name_id, minlength=n)
    spans = {
        name: {
            "s": float(totals[i]),
            "self_s": float(selfs[i]),
            "calls": int(calls[i]),
            "durations": dur[name_id == i],
        }
        for i, name in enumerate(names)
    }
    counters = dict(zip(data["counter_names"], data["counter_values"].tolist()))
    return {"spans": spans, "counters": counters, "absent": list(data["absent"])}
