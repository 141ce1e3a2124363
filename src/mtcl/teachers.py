"""Teacher backends that score candidate answer labels for a sample.

Every teacher answers the same question: "given these samples, how do
you rate each of these candidate labels?"  The answer is a score table,
one logit row per sample over the candidates.  Backends:

* ``FixtureTeacher`` replays token-level score tensors recorded to a
  binary fixture file, pushing them through the embedding-to-logits
  bridge.  Used for offline runs and reproducible tests.
* ``ServiceTeacher`` queries an HTTP endpoint over one persistent
  connection, one request per sample, and pushes the token scores of
  each reply through the same bridge; it opens the connection and reads
  the replies itself (``_read_reply``).  A score table's requests go out
  in windows of up to ``MAX_UNANSWERED_BYTES``, each window in one write
  once the previous one is answered; timeouts and connection failures
  resend the unanswered requests with their request ids on a fresh
  connection.
* ``NoisyOracleTeacher`` is a synthetic stand-in whose per-sample
  correctness is a deterministic hash of (seed, sample id); it hits the
  true label with a configurable rate.  Used by the synthetic pipeline
  where no real teacher exists.

Each teacher (``engine.PrevModelTeacher`` too) implements one scoring
method, ``score_table``, which the trainer calls once per task;
``query`` is its one-row form.  All teachers count one query per sample
scored, so runs that claim not to consult a teacher can prove it.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import os
import re
import threading
import uuid
from collections import deque
from itertools import islice
from urllib.parse import quote, urlsplit

import numpy as np

from .bridge import TokenizedLabelSet, Vocabulary, read_fixture, scores_to_logits, tokenize_labels
from .errors import (
    DataError,
    TeacherDimensionError,
    TeacherProtocolError,
    TeacherTimeoutError,
    parse_json,
)
from .weights import is_finite_number, is_integer, is_number

# Pre-softmax margin the oracle puts on its chosen label.
ORACLE_MARGIN = 2.0

# Bytes of requests ServiceTeacher writes together on one connection (one
# request alone may exceed it).  Below the socket buffers, so the service
# can read a whole window while its replies wait unread.
MAX_UNANSWERED_BYTES = 64 * 1024

# Reply limits of http.client: bytes in a status, header, chunk-size or
# trailer line, and header (or trailer) lines in one reply.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# A body is read in pieces of at most this many bytes, so a declared size
# allocates no more than what arrives.
_MAX_READ = 1 << 20
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9][0-9])(?: [^\r\n]*)?\r?\n")
_CHUNK_SIZE_LINE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")


def _checked(name: str, value, valid, wanted: str):
    """``value`` if it is ``valid``, else DataError naming the field."""
    if valid(value):
        return value
    raise DataError(f"teacher field {name!r} must be {wanted}, got {value!r}")


def _candidates(mask_names) -> tuple:
    """``mask_names`` as a tuple of at least one label (else DataError)."""
    mask_names = tuple(mask_names)
    if not mask_names:
        raise DataError("teacher query needs at least one candidate label")
    return mask_names


class Teacher:
    """Base class: ``score_table`` is the one scoring method; the base
    keeps the query count (one per sample scored) and ``close``."""

    def __init__(self):
        self.query_count = 0

    def score_table(self, samples, mask_names) -> np.ndarray:
        """Logits over ``mask_names`` for every sample, shape (n, k)."""
        raise NotImplementedError

    def query(self, sample, mask_names) -> np.ndarray:
        """The one-row form of ``score_table``."""
        return self.score_table([sample], mask_names)[0]

    def close(self) -> None:
        """Release what the teacher holds open; a no-op unless overridden."""


def _bridge(values: np.ndarray, shape, labels: TokenizedLabelSet, source: str) -> np.ndarray:
    """Logits from ``values`` of ``shape``, which must be (k, width, |vocab|)
    of the tokenized candidates ``labels``."""
    expected = (labels.count, labels.width, labels.vocab_size)
    if tuple(shape) != expected:
        raise TeacherDimensionError(
            f"{source} has shape {tuple(shape)}, expected {expected} "
            "(candidates, token positions, vocabulary)"
        )
    return scores_to_logits(np.reshape(values, expected), labels)


class FixtureTeacher(Teacher):
    """Replays recorded score tensors keyed by sample id."""

    def __init__(self, fixture_path, vocab: Vocabulary):
        super().__init__()
        if not isinstance(fixture_path, (str, os.PathLike)):
            raise DataError(f"teacher field 'path' must be a file path, got {fixture_path!r}")
        self.vocab = vocab
        self.records = read_fixture(fixture_path)

    def score_table(self, samples, mask_names) -> np.ndarray:
        labels = tokenize_labels(self.vocab, _candidates(mask_names))
        table = np.empty((len(samples), labels.count))
        for i, sample in enumerate(samples):
            self.query_count += 1
            tensor = self.records.get(sample.id)
            if tensor is None:
                raise DataError(f"fixture has no score tensor for sample {sample.id!r}")
            table[i] = _bridge(tensor, tensor.shape, labels,
                               f"fixture tensor for {sample.id!r}")
        return table


def _endpoint(base_url) -> tuple[str, int, bool, bytes]:
    """(host, port, tls, request head up to the Content-Length value) of
    ``base_url``, an http(s) URL with a host, optional port and path
    prefix, and no user info, query or fragment (else DataError)."""
    if not isinstance(base_url, str) or not base_url.startswith(("http://", "https://")):
        raise DataError(f"teacher field 'base_url' must be an http(s) URL, got {base_url!r}")
    try:
        parts = urlsplit(base_url)
        tls = parts.scheme == "https"
        default_port = 443 if tls else 80
        port = default_port if parts.port is None else parts.port
        if not parts.hostname or "@" in parts.netloc or "?" in base_url or "#" in base_url:
            raise ValueError("it needs a host and no user, query or fragment part")
        # http.client's check of a host (CVE-2019-18348), and its message.
        if found := re.search(r"[\x00-\x20\x7f]", parts.hostname):
            raise ValueError(f"URL can't contain control characters. {parts.hostname!r} "
                             f"(found at least {found[0]!r})")
        host = parts.hostname.encode("idna").decode("ascii")
    except ValueError as exc:
        raise DataError(
            f"teacher field 'base_url' is not a usable URL ({exc}): {base_url!r}"
        ) from exc
    authority = f"[{host}]" if ":" in host else host
    if port != default_port:
        authority = f"{authority}:{port}"
    path = quote(parts.path.rstrip("/") + "/teacher/query", safe="/%:@!$&'()*+,;=~")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {authority}\r\nAccept-Encoding: identity\r\n"
        "Content-Type: application/json\r\nContent-Length: "
    )
    return host, port, tls, head.encode("ascii")


@functools.cache
def _tls_context():
    """The TLS context http.client would use, made once: its certificates take 50 ms to load."""
    import ssl  # here only: about 2 MB of resident memory

    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    return context


def _reply_line(reader, what: str) -> bytes:
    """One line of a reply, newline included; b"" at the end of the input."""
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise TeacherProtocolError(f"teacher reply has a {what} line over {_MAX_LINE} bytes")
    return line


def _read_headers(reader, what: str) -> dict:
    """The header (or trailer) lines up to the blank line, by lower-case name."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _reply_line(reader, what)
        if line in (b"\r\n", b"\n"):
            return headers
        name, colon, value = line.partition(b":")
        if not colon or not line.endswith(b"\n"):
            raise TeacherProtocolError(f"teacher reply has a malformed {what} line {line[:80]!r}")
        headers.setdefault(name.strip().lower(), value.strip())
    raise TeacherProtocolError(f"teacher reply has more than {_MAX_HEADERS} {what} lines")


def _read_body(reader, size: int) -> bytes:
    """Exactly ``size`` bytes of a reply."""
    pieces = []
    while size > 0:
        piece = reader.read(min(size, _MAX_READ))
        if not piece:
            raise TeacherProtocolError("teacher endpoint sent a body cut short")
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _read_chunked(reader) -> bytes:
    """A ``Transfer-Encoding: chunked`` body, trailers read and dropped."""
    pieces = []
    while True:
        line = _reply_line(reader, "chunk size")
        match = _CHUNK_SIZE_LINE.fullmatch(line)
        if match is None:
            raise TeacherProtocolError(f"teacher reply has a malformed chunk size {line[:80]!r}")
        size = int(match[1], 16)
        if not size:
            _read_headers(reader, "trailer")
            return b"".join(pieces)
        pieces.append(_read_body(reader, size))
        if _read_body(reader, 2) != b"\r\n":
            raise TeacherProtocolError("teacher reply has a chunk without its line end")


def _read_reply(reader) -> tuple[int, bool, bytes]:
    """(status, will_close, body) of the next HTTP/1.x reply on ``reader``,
    a connection's buffered binary reader.

    An interim ``100 Continue`` is skipped.  The body is framed by
    ``Transfer-Encoding: chunked``, else by ``Content-Length``, else by
    the end of the connection.  ``will_close`` is set when the server
    closes the connection after this reply: ``Connection: close``, an
    HTTP/1.0 reply without keep-alive, or a body the end of input frames.
    The connection closed before a status line is ConnectionResetError;
    any other malformed reply is TeacherProtocolError.
    """
    while True:
        line = _reply_line(reader, "status")
        if not line:
            raise ConnectionResetError("teacher endpoint closed the connection without a reply")
        status_line = _STATUS_LINE.fullmatch(line)
        if status_line is None:
            raise TeacherProtocolError(f"teacher reply has a malformed status line {line[:80]!r}")
        headers = _read_headers(reader, "header")
        status = int(status_line[2])
        if status != 100:
            break
    connection = headers.get(b"connection", b"").lower()
    if status_line[1] == b"0":
        will_close = b"keep-alive" not in connection
    else:
        will_close = b"close" in connection
    if status < 200 or status in (204, 304):
        return status, will_close, b""
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, will_close, _read_chunked(reader)
    length = headers.get(b"content-length")
    if length is None:
        return status, True, reader.read()
    # Over 18 digits is more than any body (and than Python turns into an int).
    if not length.isdigit() or len(length) > 18:
        raise TeacherProtocolError(f"teacher reply has a malformed Content-Length {length[:80]!r}")
    return status, will_close, _read_body(reader, int(length))


class ServiceTeacher(Teacher):
    """Talks to a scoring service over one persistent HTTP connection.

    Each sample is one request with its own request id, which the reply
    must echo; the reply's token scores go through the bridge, as the
    fixture teacher's do.  Requests are pipelined in whole windows: as
    many as fit in ``MAX_UNANSWERED_BYTES`` (at least one) go out in one
    write, and the next window is written once all their replies are
    read.  A window holds one request until a reply has shown that the
    connection stays open.  The replies are read by ``_read_reply``.  A
    timeout or connection failure closes the connection and resends every
    unanswered request, with the same ids, on a fresh one; that counts
    in ``retry_count`` unless the failed connection had already
    delivered a reply.  A malformed reply is an error the caller must
    see.
    """

    def __init__(self, base_url: str, vocab: Vocabulary, timeout: float = 10.0,
                 retries: int = 2):
        super().__init__()
        timeout = _checked("timeout", timeout,
                           lambda v: is_finite_number(v) and 0.0 < v <= threading.TIMEOUT_MAX,
                           f"a number of seconds in (0, {threading.TIMEOUT_MAX:g}]")
        self.retries = _checked("retries", retries, lambda v: is_integer(v) and v >= 0,
                                "an integer >= 0")
        self.vocab = vocab
        self._host, self._port, self._tls, self._head = _endpoint(base_url)
        self._timeout = timeout
        self._sock = self._reader = None  # the open connection and its buffered reader
        self._kept_open = False  # the open connection has delivered a reply
        self.retry_count = 0

    def close(self) -> None:
        """Close the connection; a later query opens a fresh one."""
        if self._reader is not None:
            self._reader.close()
        if self._sock is not None:
            self._sock.close()
        self._sock = self._reader = None
        self._kept_open = False

    def _connect(self) -> None:
        """Open the connection as http.client does: with ``TCP_NODELAY``,
        so that no write waits for a delayed ACK, and for https in TLS.
        What it opens is ``close``'s to release, also when it fails."""
        import socket  # here only: about 4 ms to import, which other runs skip

        self._sock = socket.create_connection((self._host, self._port), self._timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._tls:
            self._sock = _tls_context().wrap_socket(self._sock, server_hostname=self._host)
        self._reader = self._sock.makefile("rb")

    def score_table(self, samples, mask_names) -> np.ndarray:
        mask_names = _candidates(mask_names)
        labels = tokenize_labels(self.vocab, mask_names)
        table = np.empty((len(samples), labels.count))
        try:
            for i, (request_id, reply) in enumerate(self._replies(samples, mask_names)):
                table[i] = self._logits(request_id, reply, labels)
        except BaseException:
            self.close()  # replies to unanswered requests may still arrive on it
            raise
        return table

    def _request(self, sample, mask_names) -> tuple[str, bytes]:
        """A fresh request id and the whole request for ``sample``; counts
        the query."""
        self.query_count += 1
        request_id = str(uuid.uuid4())
        body = json.dumps({
            "request_id": request_id,
            "sample_id": sample.id,
            "question": sample.question,
            "features": np.asarray(sample.features, dtype=np.float64).tolist(),
            "candidate_labels": list(mask_names),
            "want": "embeddings",
        }).encode("utf-8")
        return request_id, self._head + b"%d\r\n\r\n" % len(body) + body

    def _replies(self, samples, mask_names):
        """Yield (request id, reply body) for each sample, in order.

        Requests are built as their window is filled, and a window is
        written in one ``sendall`` only when nothing on the connection is
        unanswered, so the service is woken once per window rather than
        once per request.  On an error this raises with requests possibly
        unanswered; the caller closes the connection.
        """
        waiting = deque()  # built and unanswered (request id, request), oldest first
        built = sent = failures = 0  # sent: of waiting, on the wire
        while waiting or built < len(samples):
            try:
                if self._sock is None:
                    sent = 0
                    self._connect()
                if not sent:
                    size = 0
                    while self._kept_open or not sent:
                        if sent == len(waiting):
                            if built == len(samples):
                                break
                            waiting.append(self._request(samples[built], mask_names))
                            built += 1
                        size += len(waiting[sent][1])
                        if sent and size > MAX_UNANSWERED_BYTES:
                            break
                        sent += 1
                    self._sock.sendall(
                        b"".join(request for _, request in islice(waiting, sent))
                    )
                status, will_close, reply = _read_reply(self._reader)
            except OSError as exc:
                # Timeouts and refused or dropped connections, closed before a reply too.
                free = self._kept_open
                self.close()
                if free:
                    continue
                failures += 1
                if failures > self.retries:
                    raise TeacherTimeoutError(
                        f"teacher endpoint unreachable after {failures} attempts: {exc}"
                    ) from exc
                self.retry_count += 1
                continue
            request_id, _ = waiting.popleft()
            sent -= 1
            failures = 0
            if will_close:
                self.close()
            else:
                self._kept_open = True
            if status != 200:
                raise TeacherProtocolError(f"teacher endpoint returned HTTP {status}")
            yield request_id, reply

    def _logits(self, request_id: str, reply: bytes, labels: TokenizedLabelSet) -> np.ndarray:
        """The logits of the tokenized candidates ``labels`` from the token
        scores in one reply body."""
        payload = parse_json(reply, TeacherProtocolError, "teacher endpoint returned invalid JSON")
        try:
            echoed = payload["request_id"]
            dims = payload["dims"]
            raw = base64.b64decode(payload["payload"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise TeacherProtocolError(
                f"teacher response missing or malformed fields: {exc}"
            ) from exc
        if not isinstance(dims, list) or not all(is_integer(d) and d >= 0 for d in dims):
            raise TeacherProtocolError(
                f"teacher response dims must be an array of integers >= 0, got {dims!r}"
            )
        if echoed != request_id:
            raise TeacherProtocolError(
                f"teacher echoed request id {echoed!r}, expected {request_id!r}"
            )
        count = math.prod(dims) if dims else 0
        if len(raw) != 4 * count:
            raise TeacherDimensionError(
                f"payload holds {len(raw)} bytes, dims {dims} require {4 * count}"
            )
        values = np.frombuffer(raw, dtype="<f4")
        # A service that sends NaN or infinity misbehaves (exit 4), where a
        # recorded fixture holding one is a numeric failure of the bridge.
        if not np.isfinite(values).all():
            raise TeacherProtocolError("teacher response payload holds non-finite scores")
        return _bridge(values, dims, labels, "service embedding payload")


class NoisyOracleTeacher(Teacher):
    """Hash-driven synthetic teacher with a target accuracy.

    Whether a given sample is answered correctly depends only on
    (seed, sample id), so repeated queries and repeated runs agree.
    Wrong answers pick a deterministic non-true candidate.
    """

    def __init__(self, seed: int, accuracy: float):
        super().__init__()
        self.accuracy = _checked("accuracy", accuracy,
                                 lambda v: is_number(v) and 0.0 < v <= 1.0,
                                 "a number in (0, 1]")
        self.seed = _checked("seed", seed, is_integer, "an integer")

    def score_table(self, samples, mask_names) -> np.ndarray:
        mask_names = _candidates(mask_names)
        n = len(mask_names)
        table = np.zeros((len(samples), n))
        for i, sample in enumerate(samples):
            self.query_count += 1
            digest = hashlib.sha256(f"{self.seed}:{sample.id}".encode("utf-8")).digest()
            u = int.from_bytes(digest[:8], "little") / 2.0**64
            h = int.from_bytes(digest[8:16], "little")
            truth = getattr(sample, "answer_name", None)
            if truth in mask_names:
                truth_idx = mask_names.index(truth)
                if u < self.accuracy or n == 1:
                    pick = truth_idx
                else:
                    pick = (truth_idx + 1 + h % (n - 1)) % n
            else:
                pick = h % n
            table[i, pick] = ORACLE_MARGIN
        return table


# The fields each teacher kind takes besides ``kind``.
_TEACHER_FIELDS = {"fixture": ("path",), "service": ("base_url", "timeout", "retries"),
                   "noisy-oracle": ("accuracy", "seed")}


def check_teacher_spec(spec) -> tuple[str, tuple]:
    """The kind of the teacher description ``spec`` and the fields it takes.

    An unknown kind, or a field that kind does not take, is a DataError
    naming it; the field values are checked only where the teacher is built.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DataError(f"teacher description must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _TEACHER_FIELDS:
        raise DataError(f"unknown teacher kind {kind!r}")
    fields = _TEACHER_FIELDS[kind]
    if unknown := [key for key in spec if key not in ("kind", *fields)]:
        raise DataError(
            f"{kind} teacher has no field {unknown[0]!r}; it takes {', '.join(fields)}"
        )
    return kind, fields


def teacher_from_config(
    spec: dict, vocab: Vocabulary = None, default_seed: int = None
) -> Teacher:
    """Build a teacher from its JSON description.

    ``spec["kind"]`` selects the backend: ``fixture`` (path), ``service``
    (base_url, optional timeout, retries), or ``noisy-oracle`` (accuracy,
    optional seed falling back to ``default_seed``); the first two need
    ``vocab``.  An unknown kind or field (``check_teacher_spec``), or a
    missing or ill-typed one, is a DataError naming it.
    """
    kind, fields = check_teacher_spec(spec)
    if kind == "noisy-oracle":
        return NoisyOracleTeacher(spec.get("seed", default_seed), spec.get("accuracy"))
    if vocab is None:
        raise DataError(f"{kind} teacher needs a vocabulary")
    if kind == "fixture":
        return FixtureTeacher(spec.get("path"), vocab)
    options = {key: spec[key] for key in fields[1:] if key in spec}
    return ServiceTeacher(spec.get("base_url"), vocab, **options)
