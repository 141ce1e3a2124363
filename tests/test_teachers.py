"""Teacher backend tests: fixture replay, HTTP service, noisy oracle."""

import base64
import contextlib
import io
import json
import math
import os
import re
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import raw_reply

import mtcl
from mtcl.bridge import (
    build_vocabulary,
    read_fixture,
    scores_to_logits,
    tokenize_labels,
    write_fixture,
)
from mtcl.cli import main
from mtcl.engine import StudentModel
from mtcl.errors import DataError, TeacherQueryError
from mtcl.taskstream import GeneratorConfig, generate_synthetic_stream, load_manifest
from mtcl.teachers import (
    MAX_UNANSWERED_BYTES,
    FixtureTeacher,
    NoisyOracleTeacher,
    ServiceTeacher,
    Teacher,
    _endpoint,
    _read_reply,
    teacher_from_config,
)

LABELS = ("cut", "idle", "grasp")


def make_sample(sample_id="s-0", answer="cut"):
    return SimpleNamespace(
        id=sample_id,
        features=np.array([0.1, -0.2, 0.3]),
        question="what action is shown",
        answer_name=answer,
    )


def tensor_for(vocab, labels, rng):
    table = tokenize_labels(vocab, labels)
    return rng.normal(0.0, 1.5, size=(len(labels), table.width, len(vocab))).astype(
        np.float32
    )


VOCAB = build_vocabulary(LABELS)
# The token scores the service tests reply with, and the logits they make.
TENSOR = tensor_for(VOCAB, LABELS, np.random.default_rng(3030))
LOGITS = scores_to_logits(TENSOR.astype(np.float64), tokenize_labels(VOCAB, LABELS))


class TestTeacherBase:
    def test_query_counting_and_empty_mask(self):
        class Recording(NoisyOracleTeacher):
            def score_table(self, samples, mask_names):
                tables.append(len(samples))
                return super().score_table(samples, mask_names)

        tables = []
        teacher = Recording(seed=1, accuracy=0.5)
        assert teacher.query_count == 0
        row = teacher.query(make_sample(), LABELS)
        teacher.query(make_sample(), LABELS)
        # query is the one-row table.
        assert teacher.query_count == 2 and tables == [1, 1]
        assert row.tobytes() == teacher.score_table([make_sample()], LABELS)[0].tobytes()
        with pytest.raises(DataError):
            teacher.query(make_sample(), ())
        with pytest.raises(NotImplementedError):
            Teacher().query(make_sample(), LABELS)

    def test_wrong_output_length_rejected(self, tmp_path, monkeypatch, capsys):
        """A general teacher's table one column too wide or too narrow
        stops the run, exit 4, before the task's first batch."""
        class Misshapen(NoisyOracleTeacher):
            def score_table(self, samples, mask_names):
                table = super().score_table(samples, mask_names)
                steps_at_table.append(len(steps))
                return np.pad(table, ((0, 0), (0, 1)))[:, :table.shape[1] + extra]

        steps = []
        apply_gradients = StudentModel.apply_gradients

        def counted(self, *args):
            steps.append(1)
            return apply_gradients(self, *args)

        monkeypatch.setattr(StudentModel, "apply_gradients", counted)
        monkeypatch.setattr("mtcl.cli.teacher_from_config",
                            lambda *args, **kwargs: Misshapen(seed=3, accuracy=0.8))
        stream = GeneratorConfig(tasks=2, classes_per_task=2, feature_length=3,
                                 samples_per_task=24, imbalance=2.0)
        manifest = generate_synthetic_stream(stream, seed=3, out_dir=tmp_path / "stream")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "mode": "ours",
            "optimizer": {"epochs": 1, "batch_size": 8},
            "model": {"hidden1": 4, "hidden2": 4},
            "llm_teacher": {"kind": "noisy-oracle", "accuracy": 0.8},
        }))
        for extra in (1, -1):
            steps_at_table = []
            assert main(["run", str(config), "--output-dir", str(tmp_path / f"out{extra}")]) == 4
            got = re.search(r"shape \((\d+), (\d+)\), expected \((\d+), (\d+)\)",
                            capsys.readouterr().err)
            rows, width, want_rows, want_width = map(int, got.groups())
            assert (rows, width) == (want_rows, want_width + extra)
            # Task 1 trained; task 2 stopped at its table.
            assert steps_at_table == [len(steps)] and steps


CONTRACT_SAMPLES = [make_sample(f"s-{i}", LABELS[i % len(LABELS)]) for i in range(5)]


@pytest.fixture(params=["fixture", "service", "noisy-oracle"])
def any_teacher(request, tmp_path):
    """Each teacher kind, ready to score ``CONTRACT_SAMPLES`` over ``LABELS``."""
    vocab = build_vocabulary(LABELS)
    rng = np.random.default_rng(3020)
    tensors = {s.id: tensor_for(vocab, LABELS, rng) for s in CONTRACT_SAMPLES}
    if request.param == "fixture":
        write_fixture(tmp_path / "scores.bin", tensors)
        yield FixtureTeacher(tmp_path / "scores.bin", vocab)
    elif request.param == "service":
        with serving(_KeepAliveHandler) as server:
            server.behavior = lambda path, body: (
                200, embedding_response(body, tensors[body["sample_id"]])
            )
            teacher = ServiceTeacher(f"http://127.0.0.1:{server.server_address[1]}",
                                     vocab=vocab, timeout=5.0)
            yield teacher
            teacher.close()
    else:
        yield NoisyOracleTeacher(seed=3, accuracy=0.6)


class TestTeacherContract:
    """What every teacher promises: ``score_table`` is its scoring method,
    ``query`` its one-row form, and one query is counted per sample."""

    def test_query_is_a_row_of_the_table(self, any_teacher):
        table = any_teacher.score_table(CONTRACT_SAMPLES, LABELS)
        assert table.shape == (len(CONTRACT_SAMPLES), len(LABELS))
        assert table.dtype == np.float64
        rows = np.array([any_teacher.query(sample, LABELS) for sample in CONTRACT_SAMPLES])
        assert rows.tobytes() == table.tobytes()

    def test_query_count_grows_by_samples_scored(self, any_teacher):
        any_teacher.score_table(CONTRACT_SAMPLES, LABELS)
        assert any_teacher.query_count == len(CONTRACT_SAMPLES)
        any_teacher.score_table(CONTRACT_SAMPLES[:2], LABELS)
        any_teacher.query(CONTRACT_SAMPLES[0], LABELS)
        assert any_teacher.query_count == len(CONTRACT_SAMPLES) + 3

    def test_empty_candidate_list_rejected(self, any_teacher):
        with pytest.raises(DataError):
            any_teacher.score_table(CONTRACT_SAMPLES, ())
        with pytest.raises(DataError):
            any_teacher.query(CONTRACT_SAMPLES[0], [])


class TestFixtureTeacher:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary(LABELS)

    @pytest.fixture
    def fixture_path(self, tmp_path, vocab):
        rng = np.random.default_rng(3001)
        records = {
            "s-0": tensor_for(vocab, LABELS, rng),
            "s-1": tensor_for(vocab, LABELS, rng),
        }
        path = tmp_path / "scores.bin"
        write_fixture(path, records)
        return path, records

    def test_replays_transform_of_stored_tensor(self, fixture_path, vocab):
        path, records = fixture_path
        teacher = FixtureTeacher(path, vocab)
        logits = teacher.query(make_sample("s-0"), LABELS)
        expected = scores_to_logits(
            records["s-0"].astype(np.float64), tokenize_labels(vocab, LABELS)
        )
        np.testing.assert_allclose(logits, expected, atol=1e-12)

    def test_repeat_query_is_identical(self, fixture_path, vocab):
        path, _ = fixture_path
        teacher = FixtureTeacher(path, vocab)
        first = teacher.query(make_sample("s-1"), LABELS)
        second = teacher.query(make_sample("s-1"), LABELS)
        np.testing.assert_array_equal(first, second)
        assert teacher.query_count == 2

    def test_missing_sample_rejected(self, fixture_path, vocab):
        path, _ = fixture_path
        teacher = FixtureTeacher(path, vocab)
        with pytest.raises(DataError, match=re.escape(
                f"fixture file {path}: no score tensor for sample 'absent'")):
            teacher.query(make_sample("absent"), LABELS)

    def test_candidate_count_mismatch_rejected(self, fixture_path, vocab):
        path, _ = fixture_path
        teacher = FixtureTeacher(path, vocab)
        shapes = r"has shape \(3, 6, 14\), expected \(2, 5, 14\) \(candidates, token positions"
        with pytest.raises(TeacherQueryError, match=shapes):
            teacher.query(make_sample("s-0"), ("cut", "idle"))

    def test_file_read_once_at_the_first_table(self, fixture_path, vocab, monkeypatch):
        path, _ = fixture_path
        reads = []

        def counted(fixture):
            reads.append(fixture)
            return read_fixture(fixture)

        monkeypatch.setattr("mtcl.teachers.read_fixture", counted)
        teacher = FixtureTeacher(path, vocab)
        assert reads == []
        teacher.score_table([make_sample("s-0"), make_sample("s-1")], LABELS)
        teacher.query(make_sample("s-1"), LABELS)
        assert reads == [path]


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        self.server.seen.append((self.path, body))
        status, payload = self.server.behavior(self.path, body)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def log_message(self, *args):
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass


class _IdleCloseHandler(_Handler):
    """Replies as a keep-alive HTTP/1.1 server, then closes the connection
    the way a server drops an idle client."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        super().do_POST()
        self.server.peers.append(self.client_address)
        self.connection.shutdown(socket.SHUT_WR)
        self.close_connection = True


@contextlib.contextmanager
def serving(handler):
    server = _QuietServer(("127.0.0.1", 0), handler)
    server.seen = []
    server.peers = []
    server.behavior = lambda path, body: (500, {})
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def mock_server():
    with serving(_Handler) as server:
        yield server


def embedding_response(body, tensor):
    payload = base64.b64encode(
        np.ascontiguousarray(tensor, dtype="<f4").tobytes()
    ).decode("ascii")
    return {
        "request_id": body["request_id"],
        "dims": list(tensor.shape),
        "payload": payload,
    }


class TestServiceTeacher:
    def test_embedding_response_matches_fixture_teacher(
        self, mock_server, tmp_path
    ):
        vocab = build_vocabulary(LABELS)
        rng = np.random.default_rng(3010)
        tensor = tensor_for(vocab, LABELS, rng)
        fixture = tmp_path / "scores.bin"
        write_fixture(fixture, {"s-0": tensor})
        offline = FixtureTeacher(fixture, vocab)

        mock_server.behavior = lambda path, body: (200, embedding_response(body, tensor))
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        online = ServiceTeacher(url, vocab=vocab, timeout=2.0)
        np.testing.assert_allclose(
            online.query(make_sample("s-0"), LABELS),
            offline.query(make_sample("s-0"), LABELS),
            atol=1e-12,
        )
        path, body = mock_server.seen[0]
        assert path == "/teacher/query"
        assert body["sample_id"] == "s-0"
        assert body["candidate_labels"] == list(LABELS)
        assert body["want"] == "embeddings"
        assert online.retry_count == 0

    def test_logits_reply_rejected(self, mock_server):
        """A reply of one logit per candidate instead of token scores is a
        TeacherQueryError (exit 4)."""
        mock_server.behavior = lambda path, body: (200, embedding_response(body, LOGITS))
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
        with pytest.raises(TeacherQueryError, match=r"shape \(3,\), expected \(3, "):
            teacher.query(make_sample(), LABELS)

    def test_vocab_size_mismatch_rejected(self, mock_server):
        vocab = build_vocabulary(LABELS)
        wrong = np.zeros((3, 7, len(vocab) + 2), dtype="<f4")
        mock_server.behavior = lambda path, body: (200, embedding_response(body, wrong))
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, vocab=vocab, timeout=2.0)
        shapes = r"has shape \(3, 7, 16\), expected \(3, 6, 14\) \(candidates, token positions"
        with pytest.raises(TeacherQueryError, match=shapes):
            teacher.query(make_sample(), LABELS)

    def test_payload_dims_disagreement_rejected(self, mock_server):
        def behavior(path, body):
            # dims for three candidates over the payload of two.
            return 200, {**embedding_response(body, TENSOR),
                         "payload": embedding_response(body, TENSOR[:2])["payload"]}

        mock_server.behavior = behavior
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
        sizes = r"payload holds 672 bytes, dims \[3, 6, 14\] require 1008"
        with pytest.raises(TeacherQueryError, match=sizes):
            teacher.query(make_sample(), LABELS)

    @pytest.mark.parametrize(
        "dims",
        [b"[1e400]", b"[Infinity]", b"[3.7]", b"[3.0]", b'["3"]', b'"3"', b"[true, 3]",
         b"[-3]"],
        ids=["overflowing", "infinite", "fraction", "float", "text-element", "text",
             "bool", "negative"],
    )
    def test_dims_must_be_integers(self, mock_server, dims):
        payload = embedding_response({"request_id": ""}, TENSOR)["payload"].encode()
        mock_server.behavior = lambda path, body: (
            200,
            b'{"request_id": "%s", "dims": %s, "payload": "%s"}'
            % (body["request_id"].encode(), dims, payload),
        )
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
        with pytest.raises(TeacherQueryError, match="dims must be an array of integers >= 0"):
            teacher.query(make_sample(), LABELS)

    def test_huge_dims_are_counted_exactly(self, mock_server):
        def behavior(path, body):
            return 200, {**embedding_response(body, TENSOR), "dims": [2**40, 2**40]}

        mock_server.behavior = behavior
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
        with pytest.raises(TeacherQueryError, match=f"require {4 * 2**80}"):
            teacher.query(make_sample(), LABELS)

    def test_request_id_mismatch_rejected(self, mock_server):
        def behavior(path, body):
            return 200, {**embedding_response(body, TENSOR), "request_id": "someone-else"}

        mock_server.behavior = behavior
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
        with pytest.raises(TeacherQueryError, match="echoed request id"):
            teacher.query(make_sample(), LABELS)

    def test_http_error_and_garbage_rejected(self, mock_server):
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
        mock_server.behavior = lambda path, body: (503, {})
        with pytest.raises(TeacherQueryError, match="returned HTTP 503"):
            teacher.query(make_sample(), LABELS)
        for garbage in (b"this is not json", b"[" * 100_000):
            mock_server.behavior = lambda path, body: (200, garbage)
            with pytest.raises(TeacherQueryError, match="invalid JSON"):
                teacher.query(make_sample(), LABELS)

    def test_unreachable_endpoint_times_out(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        teacher = ServiceTeacher(
            f"http://127.0.0.1:{dead_port}", VOCAB, timeout=0.2, retries=1
        )
        with pytest.raises(TeacherQueryError, match="unreachable after 2 attempts"):
            teacher.query(make_sample(), LABELS)

    def test_retry_reuses_request_id(self, mock_server):
        state = {"calls": 0}

        def behavior(path, body):
            state["calls"] += 1
            if state["calls"] == 1:
                time.sleep(0.8)
            return 200, embedding_response(body, TENSOR)

        mock_server.behavior = behavior
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=0.3, retries=2)
        teacher.query(make_sample(), LABELS)
        assert len(mock_server.seen) == 2
        first_id = mock_server.seen[0][1]["request_id"]
        second_id = mock_server.seen[1][1]["request_id"]
        assert first_id == second_id
        assert teacher.retry_count == 1

    def test_request_bytes_are_pinned(self, mock_server, monkeypatch):
        """Every byte the client writes for one sample, its random request
        id aside: the wire format an embeddings service reads."""
        port = mock_server.server_address[1]
        written = []
        sendall = socket.socket.sendall

        def recording(sock, data, *args):
            if sock.getpeername()[1] == port:
                written.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", recording)
        mock_server.behavior = lambda path, body: (200, embedding_response(body, TENSOR))
        teacher = ServiceTeacher(f"http://127.0.0.1:{port}", VOCAB, timeout=2.0)
        teacher.query(make_sample("s-0"), LABELS)
        teacher.close()
        request_id = mock_server.seen[0][1]["request_id"]
        assert re.fullmatch(r"[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}",
                            request_id)
        assert [data.replace(request_id.encode(), b"<uuid4>") for data in written] == [
            b"POST /teacher/query HTTP/1.1\r\n"
            b"Host: 127.0.0.1:%d\r\n" % port
            + b"Accept-Encoding: identity\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 208\r\n"
            b"\r\n"
            b'{"request_id": "<uuid4>", "sample_id": "s-0", "question": "what action is shown", '
            b'"features": [0.1, -0.2, 0.3], "candidate_labels": ["cut", "idle", "grasp"], '
            b'"want": "embeddings"}'
        ]

    def test_base_url_path_prefix_kept(self, mock_server):
        mock_server.behavior = lambda path, body: (200, embedding_response(body, TENSOR))
        url = f"http://127.0.0.1:{mock_server.server_address[1]}/scoring/v1/"
        ServiceTeacher(url, VOCAB, timeout=2.0).query(make_sample(), LABELS)
        assert mock_server.seen[0][0] == "/scoring/v1/teacher/query"

    def test_connection_closed_while_idle_is_resent(self):
        with serving(_IdleCloseHandler) as server:
            server.behavior = lambda path, body: (200, embedding_response(body, TENSOR))
            url = f"http://127.0.0.1:{server.server_address[1]}"
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0, retries=0)
            teacher.query(make_sample("s-0"), LABELS)
            teacher.query(make_sample("s-1"), LABELS)
            teacher.close()
        assert [body["sample_id"] for _, body in server.seen] == ["s-0", "s-1"]
        assert len(set(server.peers)) == 2
        assert teacher.retry_count == 0

    def test_reply_cut_short_fails_fast(self):
        reply = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n{\"request_id\": "
        )
        with raw_reply(reply) as (url, received):
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0, retries=2)
            with pytest.raises(TeacherQueryError, match="body cut short"):
                teacher.query(make_sample(), LABELS)
        assert len(received) == 1

    def test_chunked_reply_gives_the_same_logits(self, monkeypatch):
        monkeypatch.setattr("mtcl.teachers.uuid.uuid4", lambda: "r-1")
        body = json.dumps(embedding_response({"request_id": "r-1"}, TENSOR)).encode()
        chunked = b"".join(b"%x\r\n%s\r\n" % (len(part), part)
                           for part in (body[:10], body[10:])) + b"0\r\n\r\n"

        def query(reply):
            with raw_reply(reply) as (url, received):
                teacher = ServiceTeacher(url, VOCAB, timeout=2.0, retries=0)
                logits = teacher.query(make_sample(), LABELS)
                teacher.close()
            return logits

        head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        np.testing.assert_array_equal(
            query(head + b"Transfer-Encoding: chunked\r\n\r\n" + chunked),
            query(head + b"Content-Length: %d\r\n\r\n" % len(body) + body),
        )

    def test_malformed_status_line_fails_fast(self):
        with raw_reply(b"garbage instead of a status line\r\n\r\n") as (url, received):
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0, retries=2)
            with pytest.raises(TeacherQueryError, match="malformed status line"):
                teacher.query(make_sample(), LABELS)
        assert len(received) == 1
        assert teacher.retry_count == 0

    def test_invalid_base64_payload_rejected(self, mock_server):
        def behavior(path, body):
            return 200, {**embedding_response(body, TENSOR), "payload": "@@@@"}

        mock_server.behavior = behavior
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
        with pytest.raises(TeacherQueryError, match="missing or malformed fields"):
            teacher.query(make_sample(), LABELS)

    def test_works_without_requests_installed(self, mock_server, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        mock_server.behavior = lambda path, body: (200, embedding_response(body, TENSOR))
        url = f"http://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
        np.testing.assert_array_equal(teacher.query(make_sample(), LABELS), LOGITS)


class _KeepAliveHandler(_Handler):
    """Keeps each client connection open between replies (HTTP/1.1)."""

    protocol_version = "HTTP/1.1"


class TestServiceTeacherLifetime:
    def test_close_releases_the_connection(self):
        with serving(_KeepAliveHandler) as server:
            server.behavior = lambda path, body: (200, embedding_response(body, TENSOR))
            url = f"http://127.0.0.1:{server.server_address[1]}"
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
            teacher.query(make_sample(), LABELS)
            assert teacher._sock is not None
            teacher.close()
            assert teacher._sock is None
            # A later query reconnects.
            teacher.query(make_sample("s-1"), LABELS)
            teacher.close()
        Teacher().close()

    @pytest.mark.parametrize("status, expected_code", [(200, 0), (500, 4)],
                             ids=["finished-run", "failed-run"])
    def test_cli_run_closes_the_general_teacher(
        self, tmp_path, monkeypatch, capsys, status, expected_code
    ):
        stream = GeneratorConfig(tasks=2, classes_per_task=2, feature_length=3,
                                 samples_per_task=24, imbalance=2.0)
        manifest = generate_synthetic_stream(stream, seed=3, out_dir=tmp_path / "stream")
        built = []

        def recording(*args, **kwargs):
            built.append(teacher_from_config(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("mtcl.cli.teacher_from_config", recording)

        vocab = load_manifest(manifest).vocab

        def behavior(path, body):
            labels = tokenize_labels(vocab, body["candidate_labels"])
            shape = (labels.count, labels.width, labels.vocab_size)
            return status, embedding_response(
                body, np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
            )

        with serving(_KeepAliveHandler) as server:
            server.behavior = behavior
            config = {
                "manifest": str(manifest),
                "mode": "ours",
                "optimizer": {"epochs": 1, "batch_size": 8},
                "model": {"hidden1": 4, "hidden2": 4},
                "llm_teacher": {
                    "kind": "service", "timeout": 5.0,
                    "base_url": f"http://127.0.0.1:{server.server_address[1]}",
                },
            }
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == expected_code
        (teacher,) = built
        assert teacher.query_count > 0
        assert teacher._sock is None


# Run in a fresh interpreter: which modules the client loads, first on
# import, then after one query to the http:// URL in argv[1].
_IMPORT_BUDGET = """
import json, sys
from types import SimpleNamespace

import mtcl.cli
from mtcl.bridge import build_vocabulary
from mtcl.teachers import ServiceTeacher

watched = ("socket", "http.client", "email.parser", "ssl")
on_import = [name for name in watched if name in sys.modules]
labels = ["cut", "idle", "grasp"]
teacher = ServiceTeacher(sys.argv[1], build_vocabulary(labels), timeout=5.0, retries=0)
teacher.query(SimpleNamespace(id="s-0", features=[0.1], question="q"), labels)
teacher.close()
print(json.dumps([on_import, [name for name in watched if name in sys.modules]]))
"""


class TestServiceConnection:
    def test_import_budget(self):
        src = str(Path(mtcl.__file__).resolve().parents[1])
        with serving(_KeepAliveHandler) as server:
            server.behavior = lambda path, body: (200, embedding_response(body, TENSOR))
            url = f"http://127.0.0.1:{server.server_address[1]}"
            done = subprocess.run(
                [sys.executable, "-c", _IMPORT_BUDGET, url], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src}, timeout=60,
            )
        assert done.returncode == 0, done.stderr
        on_import, after_query = json.loads(done.stdout)
        assert on_import == []
        # Only socket itself: no http.client, email.parser or ssl for http://.
        assert after_query == ["socket"]

    def test_connection_sets_tcp_nodelay(self):
        with serving(_KeepAliveHandler) as server:
            server.behavior = lambda path, body: (200, embedding_response(body, TENSOR))
            url = f"http://127.0.0.1:{server.server_address[1]}"
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
            teacher.query(make_sample(), LABELS)
            nodelay = teacher._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            teacher.close()
        assert nodelay != 0

    def test_https_to_a_plain_text_server_is_unreachable(self, mock_server):
        url = f"https://127.0.0.1:{mock_server.server_address[1]}"
        teacher = ServiceTeacher(url, VOCAB, timeout=0.5, retries=2)
        with pytest.raises(TeacherQueryError, match="unreachable after 3 attempts"):
            teacher.query(make_sample(), LABELS)
        assert teacher.retry_count == 2
        assert teacher._sock is None
        assert mock_server.seen == []

    def test_https_to_a_plain_text_server_exits_4(self, mock_server, tmp_path, capsys):
        stream = GeneratorConfig(tasks=2, classes_per_task=2, feature_length=3,
                                 samples_per_task=24, imbalance=2.0)
        config = {
            "manifest": str(generate_synthetic_stream(stream, seed=3, out_dir=tmp_path / "s")),
            "mode": "ours",
            "optimizer": {"epochs": 1, "batch_size": 8},
            "model": {"hidden1": 4, "hidden2": 4},
            "llm_teacher": {
                "kind": "service", "timeout": 0.5, "retries": 1,
                "base_url": f"https://127.0.0.1:{mock_server.server_address[1]}",
            },
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 4
        assert "unreachable after 2 attempts" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "url, port, tls, host",
        [
            ("https://scoring.example", 443, True, "scoring.example"),
            ("https://scoring.example:443/v1", 443, True, "scoring.example"),
            ("https://scoring.example:8443", 8443, True, "scoring.example:8443"),
            ("https://scoring.example:80", 80, True, "scoring.example:80"),
            ("http://scoring.example:80", 80, False, "scoring.example"),
            ("http://scoring.example:443", 443, False, "scoring.example:443"),
            ("https://[::1]:8443", 8443, True, "[::1]:8443"),
        ],
    )
    def test_request_head_leaves_out_only_the_default_port(self, url, port, tls, host):
        _, got_port, got_tls, head = _endpoint(url)
        assert (got_port, got_tls) == (port, tls)
        assert f"\r\nHost: {host}\r\n".encode() in head


def _split_requests(buffer: bytes) -> tuple[list, bytes]:
    """The JSON bodies of the complete requests at the front of ``buffer``,
    and the bytes after them."""
    bodies = []
    while (head_end := buffer.find(b"\r\n\r\n")) >= 0:
        length = int(re.search(rb"(?i)content-length: *(\d+)", buffer[:head_end])[1])
        end = head_end + 4 + length
        if len(buffer) < end:
            break
        bodies.append(json.loads(buffer[head_end + 4:end]))
        buffer = buffer[end:]
    return bodies, buffer


@contextlib.contextmanager
def pipeline_server(version="HTTP/1.1", drop_after=None, chunk=1 << 16, pause=0.0):
    """A one-thread TCP server that reads pipelined requests itself.

    It answers the oldest unanswered request only after 50 ms without new
    bytes, so that whatever a client keeps in flight has arrived by then,
    with ``embedding_response`` of ``TENSOR``.  It records every connection's request
    bodies, the most requests it ever held unanswered, and how many
    requests arrived after it had started answering the ones it held and
    before it had answered them all (``late``).  An HTTP/1.0
    server closes each connection after one reply; ``drop_after`` closes
    the first connection after that many replies; ``chunk`` bytes per
    read with a ``pause`` after each make a slow reader.  Yields the URL
    and the record.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    record = SimpleNamespace(connections=[], most_unanswered=0, late=0)
    stop = threading.Event()

    def serve_connection(conn):
        bodies, unanswered, buffer, replies = [], [], b"", 0
        answering = False
        record.connections.append(bodies)
        while not stop.is_set():
            try:
                data = conn.recv(chunk)
            except TimeoutError:
                data = None
            if data == b"":
                return
            if data:
                arrived, buffer = _split_requests(buffer + data)
                if answering:
                    record.late += len(arrived)
                bodies += arrived
                unanswered += arrived
                record.most_unanswered = max(record.most_unanswered, len(unanswered))
                time.sleep(pause)
            elif unanswered:
                body = json.dumps(embedding_response(unanswered.pop(0), TENSOR)).encode()
                conn.sendall(
                    f"{version} 200 OK\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                )
                replies += 1
                answering = bool(unanswered)
                if version == "HTTP/1.0" or (replies == drop_after
                                             and len(record.connections) == 1):
                    return

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(0.05)
            with conn:
                serve_connection(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", record
    finally:
        stop.set()
        thread.join(timeout=5.0)
        listener.close()


def recorded_windows(monkeypatch, url) -> list:
    """A list to which each ``sendall`` to ``url`` from now on appends
    (requests written, bytes written)."""
    port = int(url.rsplit(":", 1)[1])
    windows = []
    sendall = socket.socket.sendall

    def recording(sock, data, *args):
        if sock.getpeername()[1] == port:
            windows.append((len(_split_requests(bytes(data))[0]), len(data)))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording)
    return windows


def numbered_samples(n, features=3):
    return [
        SimpleNamespace(id=f"s-{i}", features=np.full(features, i / 7.0),
                        question="what action is shown", answer_name="cut")
        for i in range(n)
    ]


class TestServiceTeacherPipeline:
    def test_table_rows_equal_queries_and_fixture_teacher(self, tmp_path):
        vocab = build_vocabulary(LABELS)
        rng = np.random.default_rng(3020)
        samples = numbered_samples(20)
        records = {s.id: tensor_for(vocab, LABELS, rng) for s in samples}
        fixture = tmp_path / "scores.bin"
        write_fixture(fixture, records)
        offline = FixtureTeacher(fixture, vocab).score_table(samples, LABELS)
        with serving(_KeepAliveHandler) as server:
            server.behavior = lambda path, body: (
                200, embedding_response(body, records[body["sample_id"]])
            )
            url = f"http://127.0.0.1:{server.server_address[1]}"
            teacher = ServiceTeacher(url, vocab=vocab, timeout=2.0)
            table = teacher.score_table(samples, LABELS)
            rows = [teacher.query(sample, LABELS) for sample in samples]
            teacher.close()
        np.testing.assert_array_equal(table, offline)
        np.testing.assert_array_equal(table, np.array(rows))
        assert table.shape == (20, 3)
        assert teacher.query_count == 40
        assert len(server.seen) == 40
        ids = [body["request_id"] for _, body in server.seen]
        assert len(set(ids)) == 40

    def test_keep_alive_server_sees_requests_in_flight(self):
        samples = numbered_samples(12)
        with pipeline_server() as (url, record):
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0, retries=0)
            table = teacher.score_table(samples, LABELS)
            teacher.close()
        np.testing.assert_array_equal(table, np.tile(LOGITS, (12, 1)))
        # Every request after the first fits in one window.
        assert record.most_unanswered == 11
        assert [body["sample_id"] for body in record.connections[0]] == [
            s.id for s in samples
        ]

    def test_each_window_goes_out_in_one_write_after_the_last_is_answered(
        self, monkeypatch
    ):
        samples = numbered_samples(20)
        with pipeline_server() as (url, record):
            windows = recorded_windows(monkeypatch, url)
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0, retries=0)
            table = teacher.score_table(samples, LABELS)
            teacher.close()
        np.testing.assert_array_equal(table, np.tile(LOGITS, (20, 1)))
        # One request until the first reply shows keep-alive, then whole windows.
        assert [count for count, _ in windows] == [1, 19]
        assert record.late == 0
        assert [body["sample_id"] for body in record.connections[0]] == [
            s.id for s in samples
        ]

    def test_windows_close_at_the_byte_cap(self, monkeypatch):
        # Every feature prints as 4 characters, so the requests differ in
        # size only by a digit of the sample id: about 20.5 KB each.
        samples = [
            SimpleNamespace(id=f"s-{i}", features=np.full(3400, 0.25 + i),
                            question="what action is shown", answer_name="cut")
            for i in range(10)
        ]
        with pipeline_server() as (url, record):
            windows = recorded_windows(monkeypatch, url)
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0, retries=0)
            table = teacher.score_table(samples, LABELS)
            teacher.close()
        assert table.shape == (10, 3)
        assert [count for count, _ in windows] == [1, 3, 3, 3]
        size = windows[0][1]
        assert 3 * size <= MAX_UNANSWERED_BYTES < 4 * size
        assert all(sent <= MAX_UNANSWERED_BYTES for _, sent in windows)
        assert record.late == 0
        assert [body["sample_id"] for body in record.connections[0]] == [
            s.id for s in samples
        ]

    def test_connection_dropped_mid_window_is_resent_free(self):
        samples = numbered_samples(12)
        with pipeline_server(drop_after=3) as (url, record):
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0, retries=0)
            table = teacher.score_table(samples, LABELS)
            teacher.close()
        assert table.shape == (12, 3)
        first, second = record.connections
        answered_first = {body["sample_id"] for body in first[:3]}
        resent = first[3:]
        assert resent, "the drop came in the middle of a window"
        ids = {body["sample_id"]: body["request_id"] for body in first}
        for body in second:
            assert body["sample_id"] not in answered_first
            assert ids.setdefault(body["sample_id"], body["request_id"]) == body["request_id"]
        assert [body["sample_id"] for body in second][:len(resent)] == [
            body["sample_id"] for body in resent
        ]
        assert sorted(ids) == sorted(s.id for s in samples)
        assert teacher.retry_count == 0
        assert teacher.query_count == 12

    def test_http_1_0_server_gets_one_request_per_connection(self):
        samples = numbered_samples(4)
        with pipeline_server(version="HTTP/1.0") as (url, record):
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0, retries=0)
            table = teacher.score_table(samples, LABELS)
        assert table.shape == (4, 3)
        assert [[body["sample_id"] for body in c] for c in record.connections] == [
            [s.id] for s in samples
        ]
        assert teacher.retry_count == 0
        assert teacher._reader is None

    def test_large_requests_to_a_slow_reader_go_one_at_a_time(self):
        samples = numbered_samples(3, features=20_000)
        with pipeline_server(chunk=16384, pause=0.001) as (url, record):
            teacher = ServiceTeacher(url, VOCAB, timeout=5.0, retries=0)
            table = teacher.score_table(samples, LABELS)
            teacher.close()
        assert table.shape == (3, 3)
        assert len(json.dumps(record.connections[0][0])) > MAX_UNANSWERED_BYTES
        assert record.most_unanswered == 1

    def test_error_mid_window_leaves_no_reply_behind(self):
        samples = numbered_samples(10)
        with serving(_KeepAliveHandler) as server:
            server.behavior = lambda path, body: (
                (503, {}) if body["sample_id"] == "s-4" else (200, embedding_response(body, TENSOR))
            )
            url = f"http://127.0.0.1:{server.server_address[1]}"
            teacher = ServiceTeacher(url, VOCAB, timeout=2.0)
            with pytest.raises(TeacherQueryError, match="returned HTTP 503"):
                teacher.score_table(samples, LABELS)
            assert teacher._sock is None
            table = teacher.score_table(samples[:4], LABELS)
            teacher.close()
        np.testing.assert_array_equal(table, np.tile(LOGITS, (4, 1)))


def read_reply(data: bytes):
    """``_read_reply`` over the bytes ``data``, and what it left unread."""
    reader = io.BufferedReader(io.BytesIO(data))
    return _read_reply(reader), reader.read()


class TestReadReply:
    def test_content_length_body_leaves_the_next_reply(self):
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"
        assert read_reply(reply + b"HTTP/1.1") == ((200, False, b"abc"), b"HTTP/1.1")

    def test_conflicting_content_lengths_rejected(self):
        """Differing ``Content-Length`` values cannot frame the body
        (RFC 9112 section 6.3); a repeated equal one can."""
        with pytest.raises(TeacherQueryError,
                           match=r"conflicting Content-Length values b'2' and b'5'$"):
            read_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello")
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-length: 3\r\n\r\nabc"
        assert read_reply(reply + b"next") == ((200, False, b"abc"), b"next")

    def test_chunked_body_with_extension_and_trailer(self):
        reply = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"3\r\nabc\r\nA;name=value\r\n0123456789\r\n0\r\nX-Trailer: 1\r\n\r\n"
        )
        assert read_reply(reply + b"next") == ((200, False, b"abc0123456789"), b"next")

    @pytest.mark.parametrize("codings, named", [
        ([b"gzip", b"chunked"], b"gzip"),
        ([b"gzip, chunked"], b"gzip, chunked"),
        ([b"chunked", b"Chunked"], b"chunked, Chunked"),
        ([b"identity"], b"identity"),
    ], ids=["gzip-then-chunked-lines", "gzip-chunked-list", "chunked-twice", "identity"])
    def test_transfer_coding_other_than_one_chunked_rejected(self, codings, named):
        """Only a lone ``chunked`` can be framed; any other coding, in one
        field line or over several, would leave the body misframed."""
        head = b"".join(b"Transfer-Encoding: " + coding + b"\r\n" for coding in codings)
        reply = b"HTTP/1.1 200 OK\r\n" + head + b"\r\n2\r\nok\r\n0\r\n\r\n"
        message = re.escape(f"Transfer-Encoding {named!r}; only a lone chunked can be read")
        with pytest.raises(TeacherQueryError, match=message):
            read_reply(reply + b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")

    @pytest.mark.parametrize("chunks", [
        b"3\r\nabc\r\n",  # no last chunk
        b"3\r\nabcd\r\n0\r\n\r\n",  # chunk longer than declared
        b"x\r\nabc\r\n0\r\n\r\n",  # size not hexadecimal
        b"-3\r\nabc\r\n0\r\n\r\n",
        b"ffffffffffffffff\r\nabc",
        b"0\r\n" + b"X: 1\r\n" * 101 + b"\r\n",  # too many trailer lines
    ], ids=["unfinished", "overlong", "not-hex", "signed", "huge", "trailers"])
    def test_malformed_chunked_body_rejected(self, chunks):
        chunking = "malformed chunk size|chunk without its line end|cut short|100 trailer"
        with pytest.raises(TeacherQueryError, match=chunking):
            read_reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunks)

    def test_100_continue_skipped(self):
        """Every interim 1xx reply is skipped, not only ``100 Continue``."""
        final = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        for interim in (
            b"HTTP/1.1 100 Continue\r\n\r\n",
            b"HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n"
            b"HTTP/1.1 100 Continue\r\n\r\n",
        ):
            assert read_reply(interim + final + b"next") == ((200, False, b"ok"), b"next")

    @pytest.mark.parametrize("reply, will_close", [
        (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", True),
        (b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
         False),
        (b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", True),
        (b"HTTP/1.1 200 OK\r\n\r\nok", True),  # only the end of input ends the body
    ], ids=["http-1.0", "http-1.0-keep-alive", "connection-close", "close-delimited"])
    def test_will_close(self, reply, will_close):
        assert read_reply(reply) == ((200, will_close, b"ok"), b"")

    def test_header_names_are_case_insensitive(self):
        reply = (
            b"HTTP/1.1 200 OK\r\ncOnTeNt-LeNgTh: 2\r\nCONNECTION: Close\r\n\r\nok"
            b"HTTP/1.1 200 OK\r\nTRANSFER-ENCODING: Chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n"
        )
        reader = io.BufferedReader(io.BytesIO(reply))
        assert _read_reply(reader) == (200, True, b"ok")
        assert _read_reply(reader) == (200, False, b"ok")

    def test_header_limits(self):
        def reply(headers):
            return b"HTTP/1.1 200 OK\r\n" + headers + b"Content-Length: 2\r\n\r\nok"

        long_line = b"X: " + b"a" * (65536 - 5) + b"\r\n"
        assert len(long_line) == 65536
        assert read_reply(reply(long_line))[0] == (200, False, b"ok")
        assert read_reply(reply(b"X: 1\r\n" * 99))[0] == (200, False, b"ok")
        for headers in (b"X: a" + long_line[3:], b"X: 1\r\n" * 100):
            with pytest.raises(TeacherQueryError, match="65536 bytes|100 header"):
                read_reply(reply(headers))

    @pytest.mark.parametrize("length", [b"-1", b"abc", b"", b"+2", b"1" * 5000])
    def test_malformed_content_length_rejected(self, length):
        with pytest.raises(TeacherQueryError, match="Content-Length"):
            read_reply(b"HTTP/1.1 200 OK\r\nContent-Length: " + length + b"\r\n\r\nok")

    def test_body_cut_short_rejected(self):
        with pytest.raises(TeacherQueryError, match="cut short"):
            read_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok")

    @pytest.mark.parametrize("reply", [
        b"garbage\r\n\r\n",
        b"HTTP/2 200 OK\r\n\r\n",
        b"HTTP/1.1 2000 OK\r\n\r\n",
        b"HTTP/1.1 099 Low\r\n\r\n",
        b"HTTP/1.1 200 OK",  # cut short inside the status line
        b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",  # no blank line
        b"HTTP/1.1 " + b"2" * 65536 + b"\r\n\r\n",
    ], ids=["garbage", "http-2", "four-digits", "below-100", "unfinished-status",
            "no-colon", "unfinished-headers", "long-status"])
    def test_malformed_head_rejected(self, reply):
        head = "malformed (status|header) line|status line over 65536 bytes"
        with pytest.raises(TeacherQueryError, match=head):
            read_reply(reply)

    def test_closed_before_the_status_line_is_a_connection_error(self):
        with pytest.raises(ConnectionResetError):
            read_reply(b"")

    @pytest.mark.parametrize("status", [204, 304])
    def test_bodiless_status_reads_no_body(self, status):
        reply = b"HTTP/1.1 %d X\r\n\r\nHTTP/1.1" % status
        assert read_reply(reply) == ((status, False, b""), b"HTTP/1.1")


class TestNoisyOracle:
    def test_perfect_accuracy_always_correct(self):
        teacher = NoisyOracleTeacher(seed=7, accuracy=1.0)
        for i in range(50):
            truth = LABELS[i % 3]
            logits = teacher.query(make_sample(f"s-{i}", truth), LABELS)
            assert LABELS[int(logits.argmax())] == truth

    def test_deterministic_per_sample(self):
        a = NoisyOracleTeacher(seed=7, accuracy=0.5)
        b = NoisyOracleTeacher(seed=7, accuracy=0.5)
        for i in range(20):
            sample = make_sample(f"s-{i}", LABELS[i % 3])
            np.testing.assert_array_equal(
                a.query(sample, LABELS), b.query(sample, LABELS)
            )

    def test_different_seed_changes_pattern(self):
        a = NoisyOracleTeacher(seed=7, accuracy=0.5)
        b = NoisyOracleTeacher(seed=8, accuracy=0.5)
        diffs = 0
        for i in range(50):
            sample = make_sample(f"s-{i}", LABELS[i % 3])
            if not np.array_equal(a.query(sample, LABELS), b.query(sample, LABELS)):
                diffs += 1
        assert diffs > 0

    def test_empirical_accuracy_near_target(self):
        teacher = NoisyOracleTeacher(seed=11, accuracy=0.7)
        hits = 0
        n = 10_000
        for i in range(n):
            truth = LABELS[i % 3]
            logits = teacher.query(make_sample(f"mc-{i}", truth), LABELS)
            hits += LABELS[int(logits.argmax())] == truth
        assert abs(hits / n - 0.7) <= 0.02

    def test_wrong_answers_have_fixed_margin(self):
        teacher = NoisyOracleTeacher(seed=3, accuracy=0.5)
        for i in range(50):
            logits = teacher.query(make_sample(f"s-{i}", "cut"), LABELS)
            assert sorted(logits) == pytest.approx([0.0, 0.0, 2.0])

    def test_truth_outside_candidates_still_answers(self):
        teacher = NoisyOracleTeacher(seed=3, accuracy=1.0)
        logits = teacher.query(make_sample("s-0", "unknown-label"), LABELS)
        assert logits.shape == (3,)
        assert logits.max() == 2.0

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(DataError):
            NoisyOracleTeacher(seed=1, accuracy=0.0)
        with pytest.raises(DataError):
            NoisyOracleTeacher(seed=1, accuracy=1.2)


class TestTeacherFromConfig:
    def test_builds_each_kind(self, tmp_path):
        vocab = build_vocabulary(LABELS)
        fixture = tmp_path / "scores.bin"
        write_fixture(fixture, {"s-0": np.zeros((3, 6, len(vocab)), dtype=np.float32)})
        assert isinstance(
            teacher_from_config({"kind": "fixture", "path": str(fixture)}, vocab),
            FixtureTeacher,
        )
        assert isinstance(
            teacher_from_config(
                {"kind": "service", "base_url": "http://127.0.0.1:1"}, vocab
            ),
            ServiceTeacher,
        )
        oracle = teacher_from_config(
            {"kind": "noisy-oracle", "accuracy": 0.7}, default_seed=17
        )
        assert isinstance(oracle, NoisyOracleTeacher)
        assert oracle.seed == 17

    def test_building_reads_no_file_and_opens_no_socket(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError(f"building a teacher used {args!r}")

        monkeypatch.setattr("mtcl.teachers.read_fixture", fail)
        monkeypatch.setattr(socket, "create_connection", fail)
        vocab = build_vocabulary(LABELS)
        for spec, kind in (
            ({"kind": "fixture", "path": str(tmp_path / "no-such-scores.bin")}, FixtureTeacher),
            ({"kind": "service", "base_url": "http://127.0.0.1:1"}, ServiceTeacher),
            ({"kind": "noisy-oracle", "accuracy": 0.7}, NoisyOracleTeacher),
        ):
            teacher = teacher_from_config(spec, vocab, default_seed=3)
            assert isinstance(teacher, kind)
            teacher.close()

    def test_explicit_seed_beats_default(self):
        oracle = teacher_from_config(
            {"kind": "noisy-oracle", "accuracy": 0.7, "seed": 4}, default_seed=17
        )
        assert oracle.seed == 4

    def test_bad_specs_rejected(self, monkeypatch):
        with pytest.raises(DataError):
            teacher_from_config({"kind": "mystery"})
        with pytest.raises(DataError):
            teacher_from_config({"kind": "noisy-oracle", "accuracy": 0.7})
        with pytest.raises(DataError, match="fixture teacher needs a vocabulary"):
            teacher_from_config({"kind": "fixture"})
        with pytest.raises(DataError, match="service teacher needs a vocabulary"):
            teacher_from_config({"kind": "service", "base_url": "http://127.0.0.1:1"})
        with pytest.raises(DataError, match="unknown teacher kind"):
            teacher_from_config({"kind": ["fixture"]})
        with pytest.raises(DataError):
            teacher_from_config("not an object")

        def no_file(path):
            raise AssertionError(f"fixture {path!r} was opened")

        monkeypatch.setattr("mtcl.teachers.read_fixture", no_file)
        vocab = build_vocabulary(LABELS)
        service = {"kind": "service", "base_url": "http://127.0.0.1:1"}
        oracle = {"kind": "noisy-oracle", "accuracy": 0.7, "seed": 1}
        # Each ill-typed field is named before any file or socket is used.
        for spec, field in (
            ({**service, "timeout": "x"}, "timeout"),
            ({**service, "timeout": 0}, "timeout"),
            ({**service, "timeout": float("nan")}, "timeout"),
            ({**service, "base_url": 5}, "base_url"),
            ({**service, "base_url": "127.0.0.1:1"}, "base_url"),
            ({**service, "retries": -1}, "retries"),
            ({**service, "retries": "x"}, "retries"),
            ({**oracle, "accuracy": "high"}, "accuracy"),
            ({**oracle, "seed": "s"}, "seed"),
            ({"kind": "fixture", "path": 5}, "path"),
            # Numbers are taken as given: no bool, no text, no truncation.
            ({**oracle, "accuracy": True}, "accuracy"),
            ({**oracle, "accuracy": "0.7"}, "accuracy"),
            ({**oracle, "seed": 1.5}, "seed"),
            ({**oracle, "seed": True}, "seed"),
            ({**oracle, "seed": "3"}, "seed"),
            ({**service, "retries": 1.5}, "retries"),
            ({**service, "retries": True}, "retries"),
            ({**service, "timeout": True}, "timeout"),
            ({**service, "timeout": "3"}, "timeout"),
            ({**service, "timeout": 1e300}, "timeout"),
        ):
            with pytest.raises(DataError, match=f"'{field}'"):
                teacher_from_config(spec, vocab)
