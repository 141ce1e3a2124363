"""Benchmark for ``mtcl run``: whole-run time, set-up, training rate,
memory and result quality on three workloads, plus a traced run that
breaks the time down by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload regression-ours --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1
    python3 perfbench/run.py --record     # re-record reference.json

Closed loop: one ``mtcl run`` at a time, each in a fresh process that
calls ``mtcl.cli.main(["run", ...])`` (see ``child.py``).  Whole runs
repeat until ``--seconds`` have passed; timings are medians over them,
scaled to a reference host speed measured beside each run.
Every run is checked (exit code, output digests, teacher counts) and a
run that fails a check counts in ``failed``.  The last output line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
from inputs import ensure_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"
DEADLINE_S = 170.0
SETUP_PROBES = 6
CHECKED_FILES = ("metrics.csv", "weight_trace.csv")

# The shared host's speed drifts by more than the bounds, from one second
# to the next and from one vCPU to the other, and the program slows down
# together with this fixed mix of interpreter, small-array numpy and JSON
# work.  The benchmark and every process it starts share one CPU; while a
# child runs, the benchmark takes the CPU time of one such sample every
# SAMPLE_GAP_S (about 2.5 % of that CPU); the run's times are divided by
# its slowdown, the mean sample time over SAMPLE_REFERENCE_S, giving
# seconds at the reference speed (README, Noise).  CPU time, not wall
# time: the sample's wait for the CPU must not count as a slow host.
SAMPLE_GAP_S = 0.2
SAMPLE_REFERENCE_S = 0.005
SAMPLE_DOC = json.dumps(
    [{"id": i, "x": [i * 0.5] * 16, "label": f"c{i % 10}"} for i in range(200)]
)

# Why each workload exists is in README.md.
WORKLOADS = {
    "regression-ours": {"config": "ours.json", "stream": "packaged", "args": []},
    "stream-ft": {
        "config": "ft.json", "stream": "wide", "args": ["--epochs", "3"],
        "zero_queries": True,
    },
    "service-ours": {
        "config": "ours.json", "stream": "packaged", "args": ["--epochs", "5"],
        "service": True,
    },
}

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("train_sample_epochs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("avg_acc", "fraction"),
    ("avg_macro_f1", "fraction"),
    ("bwt", "fraction"),
)

# Per-layer metric -> unit.  Names ending in .s/.self_s/.calls come from
# the span of the same stem; the rest are computed in layer_metrics().
PER_LAYER = {
    "losses.kd_loss.s": "s",
    "losses.kd_loss.calls": "count",
    "losses.hard_label_loss.s": "s",
    "losses.hard_label_loss.calls": "count",
    "losses.softened_softmax.calls": "count",
    "engine.train_task.s": "s",
    "engine.train_task.self_s": "s",
    "engine.forward.s": "s",
    "engine.forward.calls": "count",
    "engine.forward.rows": "count",
    "engine.backward.s": "s",
    "engine.apply_gradients.s": "s",
    "taskstream.load_manifest.s": "s",
    "taskstream.load_task.s": "s",
    "taskstream.load_task.rows": "count",
    "engine.encode_inputs.s": "s",
    "engine.encode_inputs.rows": "count",
    "engine.encode_question.calls": "count",
    "engine.evaluate.s": "s",
    "engine.evaluate.calls": "count",
    "engine.save_checkpoint.s": "s",
    "engine.save_checkpoint.bytes": "B",
    "engine.write_metrics_csv.s": "s",
    "weights.WeightTrace.write_csv.s": "s",
    "teachers.llm.queries": "count",
    "teachers.prev.queries": "count",
    "teachers.llm.unique_ratio": "ratio",
    "teachers.prev.unique_ratio": "ratio",
    "teachers.llm.query.s": "s",
    "teachers.prev.query.s": "s",
    "teachers.llm.query_ms.p50": "ms",
    "teachers.llm.query_ms.p99": "ms",
    "teachers.llm.http_posts": "count",
    "bridge.scores_to_logits.s": "s",
    "bridge.scores_to_logits.calls": "count",
    "weights.measure_teacher_accuracy.s": "s",
    "weights.measure_teacher_accuracy.calls": "count",
    "weights.assemble_weights.calls": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot run or is broken."""


def sample_s() -> float:
    """CPU time of the fixed speed sample, about 5 ms."""
    began = time.thread_time()
    total = 0
    for i in range(25_000):
        total += i * i % 7
    probs = np.linspace(0.0, 1.0, 32)
    for _ in range(375):
        exp = np.exp(probs - probs.max())
        probs = exp / exp.sum()
    for _ in range(2):
        json.loads(SAMPLE_DOC)
    return time.thread_time() - began


def wait_sampling(proc: subprocess.Popen, timeout: float) -> tuple:
    """Wait for ``proc``, sampling the host's speed meanwhile; returns
    (exit code or None on timeout, slowdown)."""
    deadline = time.perf_counter() + timeout
    samples = []
    code = None
    while code is None and time.perf_counter() < deadline:
        try:
            code = proc.wait(timeout=SAMPLE_GAP_S)
        except subprocess.TimeoutExpired:
            samples.append(sample_s())
    if not samples:
        samples.append(sample_s())
    return code, statistics.fmean(samples) / SAMPLE_REFERENCE_S


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_quality(metrics_csv: Path) -> dict:
    """Final averages and backward transfer from a metrics.csv.

    BWT (Lopez-Paz & Ranzato, 2017) is the mean over tasks i < T of
    acc(T, i) - acc(i, i).
    """
    acc = {}
    with open(metrics_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            acc[int(row["t"]), row["dataset"]] = (
                float(row["accuracy"]), float(row["macro_f1"])
            )
    final = max(t for t, _ in acc)
    earlier = range(1, final)
    return {
        "avg_acc": acc[final, "Avg."][0],
        "avg_macro_f1": acc[final, "Avg."][1],
        "bwt": statistics.fmean(
            acc[final, f"task{i}"][0] - acc[i, f"task{i}"][0] for i in earlier
        ) if final > 1 else 0.0,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MTCL_OUTPUT_ROOT", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Stub:
    """The scoring service of ``stub.py``, in its own process."""

    def __init__(self, fixture: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(ROOT / "src"), str(fixture)],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise BenchError("scoring stub did not start")
        self.port = int(line)
        self.url = f"http://127.0.0.1:{self.port}"

    def served(self) -> int:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/count", headers={"Connection": "close"})
            return json.loads(conn.getresponse().read())["served"]
        finally:
            conn.close()

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workload:
    """One workload's inputs, scoring stub and checked runs."""

    def __init__(self, name: str, inputs: dict, reference, started: float):
        """``reference`` None records instead of checking."""
        self.name = name
        self.spec = WORKLOADS[name]
        self.inputs = inputs
        self.reference = None if reference is None else reference.get(name, {})
        self.started = started
        self.stub = None
        self.attempted = 0
        self.failed = 0

    def __enter__(self):
        if self.spec.get("service"):
            self.stub = Stub(self.inputs["fixture"])
        return self

    def __exit__(self, *exc):
        if self.stub is not None:
            self.stub.close()

    def run_args(self, out_dir: Path, teacher=None) -> list:
        args = [
            "run", str(ROOT / "experiments" / self.spec["config"]),
            "--manifest", str(self.inputs[self.spec["stream"]]),
            "--output-dir", str(out_dir), *self.spec["args"],
        ]
        if teacher is None and self.stub is not None:
            teacher = ["--service-url", self.stub.url]
        return args + (teacher or [])

    def child(self, mode: str, teacher=None) -> tuple:
        """Run one child; returns (result, run dir, problems)."""
        self.attempted += 1
        out_dir = WORK / "runs" / f"{self.name}-{self.attempted}"
        result_path = WORK / "runs" / f"{self.name}-{self.attempted}.json"
        served = self.stub.served() if self.stub else 0
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path),
               str(ROOT / "src"), "--", *self.run_args(out_dir, teacher)]
        stderr_path = result_path.with_suffix(".err")
        result = None
        with open(stderr_path, "w") as err:
            proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
            try:
                code, slowdown = wait_sampling(proc, max(self.time_left(), 1.0))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code is None:
            problems = ["did not finish before the benchmark's deadline"]
        else:
            stderr = stderr_path.read_text().strip()[-400:]
            if code != 0 or not result_path.is_file():
                problems = [f"child exited {code}: {stderr}"]
            else:
                result = json.loads(result_path.read_text())
                result["slowdown"] = slowdown
                result["spans"] = result_path.with_name(result_path.name + ".npz")
                if self.stub is not None:
                    result["served"] = self.stub.served() - served
                if result["exit_code"] != 0:
                    problems = [f"mtcl exited {result['exit_code']}: {stderr}"]
                elif result["setup_s"] is None:
                    problems = ["train_task was never called"]
                elif mode == "probe":
                    problems = []
                else:
                    problems = self.check(result, out_dir)
        if problems:
            self.failed += 1
            print(f"[{self.name}] run {self.attempted} FAILED: " + "; ".join(problems),
                  file=sys.stderr)
        return result, out_dir, problems

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def keep_going(self, begun: float, seconds: float, done: int) -> bool:
        """Start another run: none started yet or ``seconds`` not over,
        and the deadline not near."""
        if self.time_left() < 20.0:
            return False
        return done == 0 or time.perf_counter() - begun < seconds

    def check(self, result: dict, out_dir: Path) -> list:
        if self.reference is None:
            return []
        problems = check_outputs(out_dir, self.reference)
        if self.spec.get("zero_queries") and (result["llm_queries"] or result["prev_queries"]):
            problems.append(
                f"zero-weight teachers were queried: general {result['llm_queries']}, "
                f"previous model {result['prev_queries']}"
            )
        if self.stub is not None and result["served"] != result["llm_queries"]:
            problems.append(
                f"stub served {result['served']} queries, trainer counted "
                f"{result['llm_queries']}"
            )
        return problems


def check_outputs(out_dir: Path, reference) -> list:
    """Digest mismatches of the deterministic output files."""
    problems = []
    for name in CHECKED_FILES:
        path = out_dir / name
        if name not in reference:
            problems.append(f"no reference digest recorded for {name}")
        elif not path.is_file():
            problems.append(f"{name} missing")
        elif digest(path) != reference[name]:
            problems.append(f"{name} differs from the reference")
    return problems


def self_check(out_dir: Path, reference, seed: int) -> None:
    """Prove the digest check rejects a metrics.csv with one byte changed
    (position chosen from the seed)."""
    altered = WORK / "runs" / "self-check"
    shutil.copytree(out_dir, altered)
    data = bytearray((altered / "metrics.csv").read_bytes())
    data[random.Random(seed).randrange(len(data))] ^= 0x01
    (altered / "metrics.csv").write_bytes(bytes(data))
    if not check_outputs(altered, reference):
        raise BenchError("self-check: an altered metrics.csv passed the digest check")
    shutil.rmtree(altered)


def measure(work: Workload, seconds: float, seed: int) -> tuple:
    """End-to-end metrics over set-up probes and whole runs that together
    take ``seconds``; times are scaled to the reference speed."""
    setups = []
    begun = time.perf_counter()
    for _ in range(SETUP_PROBES):
        result, _, problems = work.child("probe")
        if not problems:
            setups.append(result["setup_s"] / result["slowdown"])
    runs, quality = [], []
    done = 0
    while work.keep_going(begun, seconds, done):
        done += 1
        result, out_dir, problems = work.child("timed")
        if (out_dir / "metrics.csv").is_file():
            if not quality:
                self_check(out_dir, work.reference, seed)
            quality.append(read_quality(out_dir / "metrics.csv"))
        shutil.rmtree(out_dir, ignore_errors=True)
        if not problems:
            runs.append(result)
            setups.append(result["setup_s"] / result["slowdown"])
    samples = {
        "run_s": [r["run_s"] / r["slowdown"] for r in runs],
        "setup_s": setups,
        "train_sample_epochs_per_s": [
            r["sample_epochs"] / r["train_s"] * r["slowdown"] for r in runs
        ],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        **{key: [q[key] for q in quality] for key in ("avg_acc", "avg_macro_f1", "bwt")},
    }
    metrics = {
        name: (statistics.median(samples[name]), unit)
        for name, unit in END_TO_END if samples[name]
    }
    times = sorted(samples["run_s"])
    notes = [
        f"run_s: median of n={len(times)} runs"
        + (f", min {times[0]:.4f} s, max {times[-1]:.4f} s" if times else ""),
        "unscaled run_s: "
        + (f"median {statistics.median(r['run_s'] for r in runs):.4f} s, median host "
           f"slowdown {statistics.median(r['slowdown'] for r in runs):.4f}" if runs else "none"),
        f"setup_s: median of n={len(setups)} set-ups ({SETUP_PROBES} probes + whole runs)",
        "llm_queries: "
        + ", ".join(sorted({str(r["llm_queries"]) for r in runs}))
        + " count (general-teacher queries per run)",
        f"failed_runs: {work.failed / max(work.attempted, 1):.4f} share "
        f"({work.failed} of {work.attempted} child runs, probes included)",
    ]
    return metrics, notes


def layer_metrics(summary: dict, served: int) -> dict:
    """Per-layer metrics of one traced run; absent targets are skipped."""
    spans, counters, absent = summary["spans"], summary["counters"], set(summary["absent"])
    values = {}
    for metric in PER_LAYER:
        stem, _, field = metric.rpartition(".")
        if metric == "trace.overhead_s":
            continue
        if metric.startswith("teachers."):
            kind = metric.split(".")[1]
            stem = f"teachers.{kind}.query"
            if stem in absent:
                continue
            span = spans[stem]
            calls = span["calls"]
            if field == "queries":
                values[metric] = calls
            elif field == "unique_ratio":
                values[metric] = counters.get(f"teachers.{kind}.unique", 0) / calls if calls else 0.0
            elif field == "s":
                values[metric] = span["s"]
            elif field in ("p50", "p99"):
                q = int(field[1:]) / 100.0
                values[metric] = 1000.0 * float(np.quantile(span["durations"], q)) if calls else 0.0
            elif field == "http_posts":
                values[metric] = served
            continue
        if stem in absent:
            continue
        if field in ("s", "self_s", "calls"):
            values[metric] = spans[stem][field]
        else:
            values[metric] = counters.get(metric, 0)
    return values


def trace(work: Workload, seconds: float, seed: int) -> tuple:
    """Per-layer metrics: untraced and traced runs alternate for
    ``seconds``; each metric is the median over the traced runs, and the
    overhead is the median difference of scaled ``run_s`` within a pair,
    whose two runs share the host's load of the moment."""
    plain, traced, overhead, layers = [], [], [], []
    begun = time.perf_counter()
    done = 0
    while work.keep_going(begun, seconds, done):
        done += 1
        result, out_dir, problems = work.child("timed")
        shutil.rmtree(out_dir, ignore_errors=True)
        plain_s = None if problems else result["run_s"] / result["slowdown"]
        if plain_s is not None:
            plain.append(plain_s)
        result, out_dir, problems = work.child("traced")
        if done == 1 and (out_dir / "metrics.csv").is_file():
            self_check(out_dir, work.reference, seed)
        shutil.rmtree(out_dir, ignore_errors=True)
        if not problems:
            summary = tracer.summarize(result["spans"])
            traced.append(result["run_s"])
            layers.append((summary, layer_metrics(summary, result.get("served", 0))))
            if plain_s is not None:
                overhead.append(result["run_s"] / result["slowdown"] - plain_s)
    metrics = {
        name: (statistics.median(values[name] for _, values in layers), unit)
        for name, unit in PER_LAYER.items() if layers and name in layers[0][1]
    }
    if overhead:
        metrics["trace.overhead_s"] = (statistics.median(overhead), PER_LAYER["trace.overhead_s"])
    notes = [f"traced runs: {len(traced)}, untraced runs: {len(plain)}"]
    absent = [name for name in PER_LAYER if name not in metrics]
    if absent:
        notes.append("absent: " + ", ".join(absent))
    if layers:
        total = traced[0]
        notes.append("largest self times, first traced run (share of its run_s):")
        spans = layers[0][0]["spans"]
        for name, span in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:8]:
            notes.append(
                f"  {name:34s} {span['self_s']:8.4f} s {100 * span['self_s'] / total:5.1f}%"
                f"  calls={span['calls']}"
            )
    return metrics, notes


def run_workload(name, inputs, reference, args, started) -> dict:
    with Workload(name, inputs, reference, started) as work:
        if args.trace:
            metrics, notes = trace(work, args.seconds, args.seed)
        else:
            metrics, notes = measure(work, args.seconds, args.seed)
    print(f"== {name} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record(inputs: dict) -> None:
    """Write reference.json from one run of each workload, after
    checking that the service run matches a fixture-teacher run."""
    reference = {}
    started = time.perf_counter()
    for name in WORKLOADS:
        with Workload(name, inputs, None, started) as work:
            _, out_dir, _ = work.child("timed")
            reference[name] = {f: digest(out_dir / f) for f in CHECKED_FILES}
            if work.stub is not None:
                _, fixture_dir, _ = work.child(
                    "timed", teacher=["--fixture", str(inputs["fixture"])]
                )
                for f in CHECKED_FILES:
                    if digest(fixture_dir / f) != reference[name][f]:
                        raise BenchError(f"service and fixture runs differ in {f}")
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(reference, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # One CPU for the benchmark and everything it starts, so that the speed
    # sample runs where the measured processes run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Unwind on SIGTERM too, so the stub and a running child are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    needed = [ROOT / "src" / "mtcl" / "cli.py"] + [
        ROOT / "experiments" / f for f in ("ours.json", "ft.json", "stream_params.json")
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not an mtcl checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        inputs = ensure_inputs(ROOT, WORK)
        shutil.rmtree(WORK / "runs", ignore_errors=True)
        (WORK / "runs").mkdir(parents=True)
        if args.record:
            record(inputs)
            return 0
        reference = json.loads(REFERENCE.read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            results.append(run_workload(name, inputs, reference, args, started))
            started = time.perf_counter()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / "runs", ignore_errors=True)
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
