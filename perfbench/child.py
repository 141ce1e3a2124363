"""Run one ``mtcl run`` through ``mtcl.cli.main`` in a fresh process.

Usage: ``python3 child.py MODE RESULT SRC_DIR -- ARGS...`` where ARGS
are the ``mtcl`` command-line arguments and MODE is one of

* ``timed``: the run itself, with three hooks that cost a few calls per
  run: the first ``engine.train_task`` call ends set-up, each call adds
  its time and its samples x epochs, and every teacher is registered so
  its own ``query_count`` can be read after the run;
* ``probe``: the same, but stops at the first ``train_task`` call, to
  sample set-up time cheaply;
* ``traced``: ``timed`` plus the span recorder of ``tracer.py`` on every
  layer; the spans go to ``RESULT`` with ``.npz`` appended.

RESULT receives one JSON object with the exit code and the measurements.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path


class SetupDone(Exception):
    """Raised by the probe at the first train_task call."""


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``VmHWM`` belongs to the memory map made at exec.  ``ru_maxrss``
    would also count the parent's resident set at the fork, which
    survives the exec on Linux.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    mode, result_path, src = sys.argv[1:4]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import mtcl.cli
    from mtcl import engine, teachers

    if not Path(mtcl.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported mtcl from {mtcl.cli.__file__}, not from {src}")

    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    made = []
    teacher_init = teachers.Teacher.__init__

    def register(self, *args, **kwargs):
        teacher_init(self, *args, **kwargs)
        made.append(self)

    teachers.Teacher.__init__ = register

    result = {"setup_s": None, "train_s": 0.0, "sample_epochs": 0}
    train_task = engine.train_task
    signature = inspect.signature(train_task)

    def timed_train_task(*args, **kwargs):
        now = time.perf_counter()
        if result["setup_s"] is None:
            result["setup_s"] = now - started
            if mode == "probe":
                raise SetupDone
        bound = signature.bind(*args, **kwargs).arguments
        out = train_task(*args, **kwargs)
        result["train_s"] += time.perf_counter() - now
        result["sample_epochs"] += len(bound["task"].samples) * bound["settings"].epochs
        return out

    engine.train_task = timed_train_task

    try:
        code = mtcl.cli.main(argv)
    except SetupDone:
        code = 0
    result["run_s"] = time.perf_counter() - started
    result["exit_code"] = code
    result["peak_rss_mb"] = peak_rss_mb()
    result["llm_queries"] = sum(
        t.query_count for t in made if not isinstance(t, engine.PrevModelTeacher)
    )
    result["prev_queries"] = sum(
        t.query_count for t in made if isinstance(t, engine.PrevModelTeacher)
    )
    if tracer is not None:
        tracer.save(result_path + ".npz")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
