"""Teacher backends that score candidate answer labels for a sample.

Every teacher answers the same question: "given this sample, how do you
rate each of these candidate labels?"  The return value is a logit
vector over the candidates.  Backends:

* ``FixtureTeacher`` replays token-level score tensors recorded to a
  binary fixture file, pushing them through the embedding-to-logits
  bridge.  Used for offline runs and reproducible tests.
* ``ServiceTeacher`` queries an HTTP endpoint over one persistent
  connection, with idempotent retries on timeouts and connection
  failures.
* ``NoisyOracleTeacher`` is a synthetic stand-in whose per-sample
  correctness is a deterministic hash of (seed, sample id); it hits the
  true label with a configurable rate.  Used by the synthetic pipeline
  where no real teacher exists.

The trainer asks each teacher once per task for a score table over the
task's training samples (``score_table``); the base implementation
queries sample by sample.  All teachers count their queries so runs that
claim not to consult a teacher can prove it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import uuid
from urllib.parse import quote, urlsplit

import numpy as np

from .bridge import Vocabulary, scores_to_logits, tokenize_labels, read_fixture
from .errors import (
    DataError,
    TeacherDimensionError,
    TeacherProtocolError,
    TeacherTimeoutError,
)
from .weights import is_finite_number, is_integer, is_number

# Pre-softmax margin the oracle puts on its chosen label.
ORACLE_MARGIN = 2.0

_JSON_HEADERS = {"Content-Type": "application/json"}


def _checked(name: str, value, valid, wanted: str):
    """``value`` if it is ``valid``, else DataError naming the field."""
    if valid(value):
        return value
    raise DataError(f"teacher field {name!r} must be {wanted}, got {value!r}")


class Teacher:
    """Base class: query counting plus an overridable scoring hook."""

    def __init__(self):
        self.query_count = 0

    def score_table(self, samples, mask_names) -> np.ndarray:
        """Logits over ``mask_names`` for every sample, shape (n, k)."""
        mask_names = tuple(mask_names)
        rows = [self.query(sample, mask_names) for sample in samples]
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(mask_names))

    def query(self, sample, mask_names) -> np.ndarray:
        mask_names = tuple(mask_names)
        if not mask_names:
            raise DataError("teacher query needs at least one candidate label")
        self.query_count += 1
        logits = np.asarray(self._score(sample, mask_names), dtype=np.float64)
        if logits.shape != (len(mask_names),):
            raise TeacherDimensionError(
                f"teacher produced {logits.shape} logits for {len(mask_names)} candidates"
            )
        return logits

    def _score(self, sample, mask_names):
        raise NotImplementedError

    def close(self) -> None:
        """Release what the teacher holds open; a no-op unless overridden."""


class _TokenScoreTeacher(Teacher):
    """Base for teachers that answer with token-score tensors, which go
    through the bridge; each candidate tuple is tokenized once."""

    def __init__(self, vocab: Vocabulary):
        super().__init__()
        self.vocab = vocab
        self._tables = {}

    def _bridge(self, values: np.ndarray, shape, mask_names, source: str) -> np.ndarray:
        """Logits from ``values`` of ``shape``, which must be (k, width, |vocab|)."""
        table = self._tables.get(mask_names)
        if table is None:
            table = self._tables[mask_names] = tokenize_labels(self.vocab, mask_names)
        expected = (len(mask_names), table.width, len(self.vocab))
        if tuple(shape) != expected:
            raise TeacherDimensionError(
                f"{source} has shape {tuple(shape)}, expected {expected} "
                "(candidates, token positions, vocabulary)"
            )
        return scores_to_logits(np.reshape(values, expected), table)


class FixtureTeacher(_TokenScoreTeacher):
    """Replays recorded score tensors keyed by sample id."""

    def __init__(self, fixture_path, vocab: Vocabulary):
        super().__init__(vocab)
        if not isinstance(fixture_path, (str, os.PathLike)):
            raise DataError(f"teacher field 'path' must be a file path, got {fixture_path!r}")
        self.records = read_fixture(fixture_path)

    def _score(self, sample, mask_names):
        tensor = self.records.get(sample.id)
        if tensor is None:
            raise DataError(f"fixture has no score tensor for sample {sample.id!r}")
        return self._bridge(tensor, tensor.shape, mask_names,
                            f"fixture tensor for {sample.id!r}")


def _endpoint(base_url, timeout: float):
    """The unopened connection and the request path for ``base_url``: an
    http(s) URL with a host, optional port and path prefix, and no user
    info, query or fragment (else DataError)."""
    # Imported here and in _post: http.client loads ssl, about 6 MB of
    # resident memory that runs without a service teacher need not carry.
    from http.client import HTTPConnection, HTTPSConnection, InvalidURL

    if not isinstance(base_url, str) or not base_url.startswith(("http://", "https://")):
        raise DataError(f"teacher field 'base_url' must be an http(s) URL, got {base_url!r}")
    try:
        parts = urlsplit(base_url)
        kind = HTTPSConnection if parts.scheme == "https" else HTTPConnection
        # An explicit port keeps http.client from reading one out of an IPv6 host.
        port = kind.default_port if parts.port is None else parts.port
        if not parts.hostname or "@" in parts.netloc or "?" in base_url or "#" in base_url:
            raise ValueError("it needs a host and no user, query or fragment part")
        connection = kind(parts.hostname, port, timeout=timeout)
    except (ValueError, InvalidURL) as exc:
        raise DataError(
            f"teacher field 'base_url' is not a usable URL ({exc}): {base_url!r}"
        ) from exc
    path = quote(parts.path.rstrip("/") + "/teacher/query", safe="/%:@!$&'()*+,;=~")
    return connection, path


class ServiceTeacher(_TokenScoreTeacher):
    """Talks to a scoring service over one persistent HTTP connection.

    One logical query keeps its request id across retries so the server
    can deduplicate.  Only timeouts and connection failures are retried,
    each on a fresh connection; a malformed response is an error the
    caller must see.  ``retry_count`` counts the retries of all queries.
    """

    def __init__(
        self,
        base_url: str,
        vocab: Vocabulary = None,
        want: str = "embeddings",
        timeout: float = 10.0,
        retries: int = 2,
    ):
        super().__init__(vocab)
        if want not in ("embeddings", "logits"):
            raise DataError(f"want must be 'embeddings' or 'logits', got {want!r}")
        if want == "embeddings" and vocab is None:
            raise DataError("embeddings mode needs a vocabulary for the token targets")
        timeout = _checked("timeout", timeout, lambda v: is_finite_number(v) and v > 0.0,
                           "a finite number of seconds > 0")
        self.retries = _checked("retries", retries, lambda v: is_integer(v) and v >= 0,
                                "an integer >= 0")
        self.want = want
        self._connection, self._path = _endpoint(base_url, timeout)
        self.retry_count = 0

    def close(self) -> None:
        """Close the connection; a later query opens a fresh one."""
        self._connection.close()

    def _exchange(self, data: bytes) -> tuple[int, bytes]:
        """Send one request and read its reply.

        A keep-alive connection that the server closed while idle fails
        before any reply arrives; the request then goes out once more on
        a fresh connection, which does not count as a retry.
        """
        reused = self._connection.sock is not None
        try:
            self._connection.request("POST", self._path, data, _JSON_HEADERS)
            response = self._connection.getresponse()
        except (BrokenPipeError, ConnectionResetError):
            if not reused:
                raise
            self._connection.close()
            self._connection.request("POST", self._path, data, _JSON_HEADERS)
            response = self._connection.getresponse()
        return response.status, response.read()

    def _post(self, body) -> dict:
        from http.client import HTTPException

        data = json.dumps(body).encode("utf-8")
        last = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retry_count += 1
            try:
                status, reply = self._exchange(data)
            except OSError as exc:
                # Timeouts and refused or dropped connections, RemoteDisconnected included.
                self._connection.close()
                last = exc
                continue
            except HTTPException as exc:
                self._connection.close()
                raise TeacherProtocolError(
                    f"teacher endpoint sent a malformed reply: {exc!r}"
                ) from exc
            if status != 200:
                raise TeacherProtocolError(f"teacher endpoint returned HTTP {status}")
            try:
                return json.loads(reply)
            except ValueError as exc:
                raise TeacherProtocolError(
                    f"teacher endpoint returned invalid JSON: {exc}"
                ) from exc
        raise TeacherTimeoutError(
            f"teacher endpoint unreachable after {self.retries + 1} attempts: {last}"
        )

    def _score(self, sample, mask_names):
        request_id = str(uuid.uuid4())
        body = {
            "request_id": request_id,
            "sample_id": sample.id,
            "question": sample.question,
            "features": np.asarray(sample.features, dtype=np.float64).tolist(),
            "candidate_labels": list(mask_names),
            "want": self.want,
        }
        payload = self._post(body)
        try:
            echoed = payload["request_id"]
            dims = [int(d) for d in payload["dims"]]
            raw = base64.b64decode(payload["payload"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise TeacherProtocolError(
                f"teacher response missing or malformed fields: {exc}"
            ) from exc
        if echoed != request_id:
            raise TeacherProtocolError(
                f"teacher echoed request id {echoed!r}, expected {request_id!r}"
            )
        count = int(np.prod(dims)) if dims else 0
        if len(raw) != 4 * count:
            raise TeacherDimensionError(
                f"payload holds {len(raw)} bytes, dims {dims} require {4 * count}"
            )
        values = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        if self.want == "logits":
            if dims != [len(mask_names)]:
                raise TeacherDimensionError(
                    f"logits dims {dims} do not match {len(mask_names)} candidates"
                )
            return values
        return self._bridge(values, dims, mask_names, "service embedding payload")


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

    def _draws(self, sample_id: str) -> tuple[float, int]:
        digest = hashlib.sha256(f"{self.seed}:{sample_id}".encode("utf-8")).digest()
        u = int.from_bytes(digest[:8], "little") / 2.0**64
        h = int.from_bytes(digest[8:16], "little")
        return u, h

    def _score(self, sample, mask_names):
        n = len(mask_names)
        u, h = self._draws(sample.id)
        truth = getattr(sample, "answer_name", None)
        logits = np.zeros(n)
        if truth in mask_names:
            truth_idx = mask_names.index(truth)
            if u < self.accuracy or n == 1:
                pick = truth_idx
            else:
                pick = (truth_idx + 1 + h % (n - 1)) % n
        else:
            pick = h % n
        logits[pick] = ORACLE_MARGIN
        return logits


def teacher_from_config(
    spec: dict, vocab: Vocabulary = None, default_seed: int = None
) -> Teacher:
    """Build a teacher from its JSON description.

    ``spec["kind"]`` selects the backend: ``fixture`` (path), ``service``
    (base_url, optional want, timeout, retries), or ``noisy-oracle``
    (accuracy, optional seed falling back to ``default_seed``).  A
    missing or ill-typed field is a DataError naming it.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DataError(f"teacher description must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "fixture":
        if vocab is None:
            raise DataError("fixture teacher needs a vocabulary")
        return FixtureTeacher(spec.get("path"), vocab)
    if kind == "service":
        options = {key: spec[key] for key in ("want", "timeout", "retries") if key in spec}
        return ServiceTeacher(spec.get("base_url"), vocab=vocab, **options)
    if kind == "noisy-oracle":
        return NoisyOracleTeacher(spec.get("seed", default_seed), spec.get("accuracy"))
    raise DataError(f"unknown teacher kind {kind!r}")
