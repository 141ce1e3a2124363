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

Each general teacher implements one scoring method, ``score_table``;
``query`` is its one-row form.  The trainer calls the general teacher's
``score_table`` once per task.  The previous model
(``engine.PrevModelTeacher``) has no ``score_table``: it scores the
design matrix the trainer already encoded, once per task, with
``score_inputs``.  All teachers count one query per sample scored, so
runs that claim not to consult a teacher can prove it.
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
from .errors import DataError, TeacherQueryError, checked, integer_rule, is_finite_number
from .errors import is_integer, is_number, parse_json

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


def _candidates(mask_names) -> tuple:
    """``mask_names`` as a tuple of at least one label (else DataError)."""
    mask_names = tuple(mask_names)
    if not mask_names:
        raise DataError("teacher query needs at least one candidate label")
    return mask_names


class Teacher:
    """Base class: ``score_table`` is a general teacher's one scoring
    method (the previous model scores with ``score_inputs`` instead); the
    base keeps the query count (one per sample scored) and ``close``."""

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
        raise TeacherQueryError(
            f"{source} has shape {tuple(shape)}, expected {expected} "
            "(candidates, token positions, vocabulary)"
        )
    return scores_to_logits(np.reshape(values, expected), labels)


class FixtureTeacher(Teacher):
    """Replays recorded score tensors keyed by sample id."""

    def __init__(self, fixture_path, vocab: Vocabulary):
        super().__init__()
        self.vocab = vocab
        self.path = checked("teacher field 'path'", fixture_path, "a file path",
                            lambda v: isinstance(v, (str, os.PathLike)), DataError)

    @functools.cached_property
    def records(self) -> dict:
        """The fixture's score tensors by sample id, read at the first table."""
        return read_fixture(self.path)

    def score_table(self, samples, mask_names) -> np.ndarray:
        labels = tokenize_labels(self.vocab, _candidates(mask_names))
        table = np.empty((len(samples), labels.count))
        for i, sample in enumerate(samples):
            self.query_count += 1
            tensor = self.records.get(sample.id)
            if tensor is None:
                raise DataError(f"fixture file {self.path}: no score tensor for "
                                f"sample {sample.id!r}")
            table[i] = _bridge(tensor, tensor.shape, labels,
                               f"fixture tensor for {sample.id!r}")
        return table


def _endpoint(base_url) -> tuple[str, int, bool, bytes]:
    """(host, port, tls, request head up to the Content-Length value) of
    ``base_url``, an http(s) URL with a host, optional port and path
    prefix, and no user info, query or fragment (else DataError)."""
    checked("teacher field 'base_url'", base_url, "an http(s) URL",
            lambda v: isinstance(v, str) and v.startswith(("http://", "https://")), DataError)
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
        raise TeacherQueryError(f"teacher reply has a {what} line over {_MAX_LINE} bytes")
    return line


def _read_headers(reader, what: str) -> dict:
    """The header (or trailer) lines up to the blank line, by lower-case
    name; the first of a repeated name is kept, but a second
    ``Content-Length`` that differs would misframe the body, and so would
    ``Transfer-Encoding`` lines that together are not one ``chunked``."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _reply_line(reader, what)
        if line in (b"\r\n", b"\n"):
            return headers
        name, colon, value = line.partition(b":")
        if not colon or not line.endswith(b"\n"):
            raise TeacherQueryError(f"teacher reply has a malformed {what} line {line[:80]!r}")
        name, value = name.strip().lower(), value.strip()
        if name == b"transfer-encoding" and (name in headers or value.lower() != b"chunked"):
            coding = headers[name] + b", " + value if name in headers else value
            raise TeacherQueryError(f"teacher reply has Transfer-Encoding {coding[:80]!r}; "
                                    "only a lone chunked can be read")
        if headers.setdefault(name, value) != value and name == b"content-length":
            raise TeacherQueryError("teacher reply has conflicting Content-Length values "
                                    f"{headers[name][:80]!r} and {value[:80]!r}")
    raise TeacherQueryError(f"teacher reply has more than {_MAX_HEADERS} {what} lines")


def _read_body(reader, size: int) -> bytes:
    """Exactly ``size`` bytes of a reply."""
    pieces = []
    while size > 0:
        piece = reader.read(min(size, _MAX_READ))
        if not piece:
            raise TeacherQueryError("teacher endpoint sent a body cut short")
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
            raise TeacherQueryError(f"teacher reply has a malformed chunk size {line[:80]!r}")
        size = int(match[1], 16)
        if not size:
            _read_headers(reader, "trailer")
            return b"".join(pieces)
        pieces.append(_read_body(reader, size))
        if _read_body(reader, 2) != b"\r\n":
            raise TeacherQueryError("teacher reply has a chunk without its line end")


def _read_reply(reader) -> tuple[int, bool, bytes]:
    """(status, will_close, body) of the next HTTP/1.x reply on ``reader``,
    a connection's buffered binary reader.

    Interim 1xx replies are skipped.  The body is framed by
    ``Transfer-Encoding: chunked``, else by ``Content-Length``, else by
    the end of the connection.  ``will_close`` is set when the server
    closes the connection after this reply: ``Connection: close``, an
    HTTP/1.0 reply without keep-alive, or a body the end of input frames.
    The connection closed before a status line is ConnectionResetError;
    any other malformed reply is TeacherQueryError.
    """
    while True:
        line = _reply_line(reader, "status")
        if not line:
            raise ConnectionResetError("teacher endpoint closed the connection without a reply")
        status_line = _STATUS_LINE.fullmatch(line)
        if status_line is None:
            raise TeacherQueryError(f"teacher reply has a malformed status line {line[:80]!r}")
        headers = _read_headers(reader, "header")
        status = int(status_line[2])
        if status >= 200:
            break
    connection = headers.get(b"connection", b"").lower()
    if status_line[1] == b"0":
        will_close = b"keep-alive" not in connection
    else:
        will_close = b"close" in connection
    if status in (204, 304):
        return status, will_close, b""
    if b"transfer-encoding" in headers:
        return status, will_close, _read_chunked(reader)
    length = headers.get(b"content-length")
    if length is None:
        return status, True, reader.read()
    # Over 18 digits is more than any body (and than Python turns into an int).
    if not length.isdigit() or len(length) > 18:
        raise TeacherQueryError(f"teacher reply has a malformed Content-Length {length[:80]!r}")
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
        timeout = checked("teacher field 'timeout'", timeout,
                          f"a number of seconds in (0, {threading.TIMEOUT_MAX:g}]",
                          lambda v: is_finite_number(v) and 0.0 < v <= threading.TIMEOUT_MAX,
                          DataError)
        self.retries = checked("teacher field 'retries'", retries, *integer_rule(0), DataError)
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
                    raise TeacherQueryError(
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
                raise TeacherQueryError(f"teacher endpoint returned HTTP {status}")
            yield request_id, reply

    def _logits(self, request_id: str, reply: bytes, labels: TokenizedLabelSet) -> np.ndarray:
        """The logits of the tokenized candidates ``labels`` from the token
        scores in one reply body."""
        payload = parse_json(reply, TeacherQueryError, "teacher endpoint returned invalid JSON")
        try:
            echoed = payload["request_id"]
            dims = payload["dims"]
            raw = base64.b64decode(payload["payload"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise TeacherQueryError(
                f"teacher response missing or malformed fields: {exc}"
            ) from exc
        checked("teacher response dims", dims, "an array of integers >= 0",
                lambda v: isinstance(v, list) and all(is_integer(d) and d >= 0 for d in v),
                TeacherQueryError)
        if echoed != request_id:
            raise TeacherQueryError(
                f"teacher echoed request id {echoed!r}, expected {request_id!r}"
            )
        count = math.prod(dims) if dims else 0
        if len(raw) != 4 * count:
            raise TeacherQueryError(
                f"payload holds {len(raw)} bytes, dims {dims} require {4 * count}"
            )
        values = np.frombuffer(raw, dtype="<f4")
        # A service that sends NaN or infinity misbehaves (exit 4), where a
        # recorded fixture holding one is a numeric failure of the bridge.
        if not np.isfinite(values).all():
            raise TeacherQueryError("teacher response payload holds non-finite scores")
        return _bridge(values, dims, labels, "service embedding payload")


class NoisyOracleTeacher(Teacher):
    """Hash-driven synthetic teacher with a target accuracy.

    Whether a given sample is answered correctly depends only on
    (seed, sample id), so repeated queries and repeated runs agree.
    Wrong answers pick a deterministic non-true candidate.
    """

    def __init__(self, seed: int, accuracy: float):
        super().__init__()
        self.accuracy = checked("teacher field 'accuracy'", accuracy, "a number in (0, 1]",
                                lambda v: is_number(v) and 0.0 < v <= 1.0, DataError)
        self.seed = checked("teacher field 'seed'", seed, "an integer", is_integer, DataError)

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


def teacher_from_config(
    spec: dict, vocab: Vocabulary = None, default_seed: int = None
) -> Teacher:
    """Build a teacher from its JSON description.

    ``spec["kind"]`` selects the backend: ``fixture`` (path), ``service``
    (base_url, optional timeout, retries), or ``noisy-oracle`` (accuracy,
    optional seed falling back to ``default_seed``); the first two need
    ``vocab``.  An unknown kind or field, or a missing or ill-typed one,
    is a DataError naming it.  Building reads no file and opens no
    connection: the fixture is read, and the service connected to, at the
    first score table.
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
    if kind == "noisy-oracle":
        return NoisyOracleTeacher(spec.get("seed", default_seed), spec.get("accuracy"))
    if vocab is None:
        raise DataError(f"{kind} teacher needs a vocabulary")
    if kind == "fixture":
        return FixtureTeacher(spec.get("path"), vocab)
    options = {key: spec[key] for key in fields[1:] if key in spec}
    return ServiceTeacher(spec.get("base_url"), vocab, **options)
