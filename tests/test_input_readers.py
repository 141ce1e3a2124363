"""Every input from outside the program ends with its documented exit code.

Whole-file reads and JSON parses go through ``errors.read_input`` and
``errors.parse_json``, whole-file data parses through
``errors.parse_input``, which names the file, and a service teacher's
HTTP replies through ``teachers._read_reply``; a damaged run config,
checkpoint or service reply is a ConfigError (exit 2), DataError (exit 3,
naming the checkpoint) or TeacherQueryError (exit 4), never a traceback;
a service reply whose token scores are not all finite is exit 4 too.
Every output file goes through ``errors.write_output``, whole or not at
all, every table through ``errors.write_csv``, every removal through
``errors.remove_outputs``, and only ``engine.RunDir`` names a run file.
"""

import ast
import base64
import contextlib
import csv
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtcl.cli import main
from mtcl.engine import StudentModel, save_checkpoint
from mtcl.bridge import build_vocabulary, tokenize_labels
from mtcl.errors import DataError, TeacherQueryError
from mtcl.errors import write_csv, write_output
from mtcl.taskstream import LabelClass
from mtcl.teachers import ServiceTeacher, _read_reply
from mtcl.weights import WeightTrace

SRC = Path(__file__).resolve().parents[1] / "src" / "mtcl"
OURS = (Path(__file__).resolve().parents[1] / "experiments" / "ours.json").read_bytes()

# Inputs no truncation or bit flip of a valid file makes.
DEEP = b"[" * 100_000
BIG_INTEGER = b'{"seed": ' + b"1" * 5000 + b"}"  # over Python's 4,300-digit limit
NOT_UTF8 = b"\xff"


def damaged(whole: bytes):
    """``whole`` cut short, or with one of its bits flipped."""

    def flip(bit):
        data = bytearray(whole)
        data[bit // 8] ^= 1 << (bit % 8)
        return bytes(data)

    return st.one_of(
        st.integers(0, len(whole) - 1).map(lambda n: whole[:n]),
        st.integers(0, 8 * len(whole) - 1).map(flip),
    )


def run_main(argv):
    """``cli.main(argv)`` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def checkpoint_bytes() -> bytes:
    model = StudentModel(0, 4, 6, 2, 2).grow_head([LabelClass(id=0, name="cut")])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.bin"
        save_checkpoint(path, model, 1, WeightTrace(), "digest")
        return path.read_bytes()


CHECKPOINT = checkpoint_bytes()


def with_header(header: bytes) -> bytes:
    """The checkpoint with its JSON header replaced by ``header``."""
    (length,) = struct.unpack_from("<I", CHECKPOINT, 6)
    return CHECKPOINT[:6] + struct.pack("<I", len(header)) + header + CHECKPOINT[10 + length:]


LABELS = ("cut", "idle", "grasp")
VOCAB = build_vocabulary(LABELS)
TOKENIZED = tokenize_labels(VOCAB, LABELS)


def reply_body(bad=None) -> bytes:
    """A service reply with token scores for ``LABELS``; ``bad``, if given,
    replaces one score (a float32 bit pattern when it is an int)."""
    rng = np.random.default_rng(5)
    shape = (TOKENIZED.count, TOKENIZED.width, TOKENIZED.vocab_size)
    scores = rng.normal(size=shape).astype("<f4")
    if isinstance(bad, int):
        scores.view("<u4")[1, 0, 2] = bad
    elif bad is not None:
        scores[1, 0, 2] = bad
    payload = base64.b64encode(scores.tobytes()).decode("ascii")
    return (
        f'{{"request_id": "r-1", "dims": {list(shape)}, "payload": "{payload}"}}'
    ).encode("ascii")


def raw_replies() -> list:
    """A whole HTTP reply carrying ``reply_body()``, framed by
    Content-Length and by chunks."""
    body = reply_body()
    head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    chunks = b"%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n" % (20, body[:20], len(body) - 20, body[20:])
    return [
        head + b"Content-Length: %d\r\n\r\n" % len(body) + body,
        head + b"Transfer-Encoding: chunked\r\n\r\n" + chunks,
    ]


class TestOneReader:
    def test_reads_and_parses_only_in_the_errors_module(self):
        """Only ``read_input`` reads a whole file, only ``parse_json``
        calls ``json.loads``, only ``write_output`` opens, writes or
        renames a file or makes a directory, and only ``remove_outputs``
        and ``write_output`` remove one, so one place decides how their
        failures map.  The one exception is ``parse_stream``, which opens
        a file for binary reads (``"rb"``) so that its parser reads it in
        pieces.  The task-record fallback keeps ``json.loads`` as the
        reference its fast path must match; ``load_task`` maps its errors
        with file and line.  Only ``errors.py`` imports ``csv``, so every
        table is written by ``write_csv``."""
        readers = {"read_input", "parse_json", "_parse_record"}
        writers = {"write_output", "remove_outputs"}
        found = []

        def visit(node, where, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            imported = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                        else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in imported and where != "errors.py":
                found.append(f"{where}:{node.lineno} imports csv")
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    name = func.attr
                    owner = func.value.id if isinstance(func.value, ast.Name) else None
                else:
                    name, owner = getattr(func, "id", None), None
                reads = name in ("read_text", "read_bytes") or (owner, name) == ("json", "loads")
                writes = (name in ("open", "write_text", "write_bytes", "mkdir", "unlink")
                          or (owner, name) in (("os", "replace"), ("os", "remove")))
                mode = [a.value for a in node.args[1:2] if isinstance(a, ast.Constant)]
                if (where, function, name, mode) == ("errors.py", "parse_stream", "open", ["rb"]):
                    writes = False
                if (reads and function not in readers) or (writes and function not in writers):
                    found.append(f"{where}:{node.lineno} {name} in {function}")
            for child in ast.iter_child_nodes(node):
                visit(child, where, function)

        for path in sorted(SRC.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
        assert found == []


# Substrings of every name a run writes into its output directory.
RUN_FILES = ("metrics.csv", "weight_trace.csv", "checkpoint_t", "resolved_config.json",
             "run_info.json", "events.jsonl")


class TestOneRunDir:
    def test_only_run_dir_names_a_run_file(self):
        """No string literal in the package outside ``engine.RunDir``
        spells a run file's name, so one place owns the run directory's
        layout.  Docstrings may name the files they document."""
        found = []

        def visit(node, where, owner):
            if isinstance(node, ast.ClassDef):
                owner = node.name
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                return  # a docstring
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and owner != "RunDir":
                found.extend(f"{where}:{node.lineno} {name}"
                             for name in RUN_FILES if name in node.value)
            for child in ast.iter_child_nodes(node):
                visit(child, where, owner)

        for path in sorted(SRC.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
        assert found == []


class TestOneWriter:
    def test_text_is_written_as_utf8_under_a_new_parent(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        write_output(path, "é\n", "text")
        assert path.read_bytes() == "é\n".encode("utf-8")
        assert sorted(path.parent.iterdir()) == [path]

    def test_existing_file_is_replaced_whole(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"x" * 1000)
        write_output(path, b"short", "blob")
        assert path.read_bytes() == b"short"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_onto_a_directory_raises_data_error_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "taken"
        path.mkdir()
        with pytest.raises(DataError, match=f"cannot write blob {path}: "):
            write_output(path, b"data", "blob")
        assert sorted(tmp_path.iterdir()) == [path]
        assert list(path.iterdir()) == []


# Floats whose text form is easy to get wrong: NaN, both infinities,
# negative zero, the smallest subnormal, a subnormal with many digits, the
# largest normal magnitudes.
AWKWARD_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.225073858507201e-308,
                  1e308, -1.7976931348623157e308)


class TestOneCsvWriter:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.lists(
        st.integers()
        # csv on Python 3.10 refuses NUL; a lone surrogate is no UTF-8.
        | st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"))
        | st.floats() | st.sampled_from(AWKWARD_FLOATS),
        min_size=1, max_size=6,
    ), max_size=6))
    @example(rows=[list(AWKWARD_FLOATS), ["a,b", 'say "hi"', "two\nlines", "cr\r", "", 7]])
    def test_every_value_reads_back_equal(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            write_csv(path, ("x", "y"), rows, "table")
            with open(path, newline="", encoding="utf-8") as fh:
                header, *read = list(csv.reader(fh))
        assert header == ["x", "y"] and len(read) == len(rows)
        for row, cells in zip(rows, read):
            assert len(cells) == len(row)
            for value, cell in zip(row, cells):
                if isinstance(value, int):
                    assert int(cell) == value
                elif isinstance(value, str):
                    assert cell == value
                elif math.isnan(value):
                    assert math.isnan(float(cell))
                else:  # bit for bit, so -0.0 stays negative
                    assert struct.pack("<d", float(cell)) == struct.pack("<d", value)


class TestDamagedInputs:
    @settings(max_examples=80, deadline=None)
    @given(
        contents=damaged(OURS),
        flags=st.sampled_from([[], ["--epochs", "1"], ["--alpha", "0.2"]]),
    )
    @example(contents=DEEP, flags=[])
    @example(contents=BIG_INTEGER, flags=["--epochs", "1"])
    @example(contents=NOT_UTF8 + OURS, flags=[])
    def test_run_config(self, tmp_path_factory, contents, flags):
        config = tmp_path_factory.mktemp("config") / "ours.json"
        config.write_bytes(contents)
        code, err = run_main(["run", str(config), *flags])
        # A config that still validates names a manifest that is not there.
        assert code == 2 or (code == 3 and "cannot read manifest" in err), err

    @settings(max_examples=80, deadline=None)
    @given(contents=damaged(CHECKPOINT))
    @example(contents=with_header(DEEP))
    @example(contents=with_header(BIG_INTEGER))
    @example(contents=with_header(NOT_UTF8 + b"{}"))
    @example(contents=with_header(b'{"seed": 1e400}'))  # int() of an infinite float
    def test_checkpoint(self, tmp_path_factory, contents):
        root = tmp_path_factory.mktemp("checkpoint")
        (root / "ck.bin").write_bytes(contents)
        code, err = run_main(
            ["eval", "--checkpoint", str(root / "ck.bin"),
             "--manifest", str(root / "manifest.json"), "--task", "1"]
        )
        # A checkpoint that still loads stops at the manifest, which is not there.
        assert code == 3, err
        assert f"checkpoint {root / 'ck.bin'}" in err or "cannot read manifest" in err, err

    @settings(max_examples=200, deadline=None)
    @given(body=damaged(reply_body()))
    @example(body=DEEP)
    @example(body=BIG_INTEGER)
    @example(body=NOT_UTF8 + reply_body())
    @example(body=reply_body(np.nan))
    @example(body=reply_body(np.inf))
    def test_service_reply(self, body):
        teacher = ServiceTeacher("http://127.0.0.1:1", VOCAB)
        try:
            logits = teacher._logits("r-1", body, TOKENIZED)
        except TeacherQueryError:
            return
        assert logits.shape == (3,)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, 0x7F800001],
        ids=["nan", "inf", "minus-inf", "signalling-nan"],
    )
    def test_non_finite_service_score_is_a_protocol_error(self, bad):
        """A service (not the bridge) is at fault for a score that is not
        finite: exit 4, like any other malformed reply."""
        teacher = ServiceTeacher("http://127.0.0.1:1", VOCAB)
        with pytest.raises(TeacherQueryError, match="non-finite scores"):
            teacher._logits("r-1", reply_body(bad), TOKENIZED)

    @settings(max_examples=300, deadline=None)
    @given(reply=st.sampled_from(raw_replies()).flatmap(damaged))
    @example(reply=b"")
    @example(reply=b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n" + reply_body())
    @example(reply=b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
             b"ffffffffffffffff\r\n" + reply_body())
    @example(reply=b"HTTP/1.1 200 OK\r\nContent-Length: " + b"1" * 5000 + b"\r\n\r\n")
    def test_service_raw_reply(self, reply):
        """A damaged status line, header or body, then what the teacher
        makes of a reply that still reads."""
        teacher = ServiceTeacher("http://127.0.0.1:1", VOCAB)
        try:
            status, will_close, body = _read_reply(io.BufferedReader(io.BytesIO(reply)))
            logits = teacher._logits("r-1", body, TOKENIZED)
        except (TeacherQueryError, OSError):
            return
        assert isinstance(status, int) and isinstance(will_close, bool)
        assert logits.shape == (3,)
