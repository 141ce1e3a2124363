"""Teacher backends that score candidate answer labels for a sample.

Every teacher answers the same question: "given this sample, how do you
rate each of these candidate labels?"  The return value is a logit
vector over the candidates.  Backends:

* ``FixtureTeacher`` replays token-level score tensors recorded to a
  binary fixture file, pushing them through the embedding-to-logits
  bridge.  Used for offline runs and reproducible tests.
* ``ServiceTeacher`` queries an HTTP endpoint, with idempotent retries
  on timeouts.
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
import math
import os
import uuid

import numpy as np

from .bridge import Vocabulary, scores_to_logits, tokenize_labels, read_fixture
from .errors import (
    DataError,
    TeacherDimensionError,
    TeacherProtocolError,
    TeacherTimeoutError,
)

# Pre-softmax margin the oracle puts on its chosen label.
ORACLE_MARGIN = 2.0


def _checked(name: str, value, kind, valid, wanted: str):
    """``kind(value)`` if it converts and is ``valid``, else DataError naming the field."""
    try:
        converted = kind(value)
        if valid(converted):
            return converted
    except (TypeError, ValueError, OverflowError):
        pass
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


class FixtureTeacher(Teacher):
    """Replays recorded score tensors keyed by sample id."""

    def __init__(self, fixture_path, vocab: Vocabulary):
        super().__init__()
        if not isinstance(fixture_path, (str, os.PathLike)):
            raise DataError(f"teacher field 'path' must be a file path, got {fixture_path!r}")
        self.records = read_fixture(fixture_path)
        self.vocab = vocab
        self._tables = {}

    def _table(self, mask_names):
        if mask_names not in self._tables:
            self._tables[mask_names] = tokenize_labels(self.vocab, mask_names)
        return self._tables[mask_names]

    def _score(self, sample, mask_names):
        tensor = self.records.get(sample.id)
        if tensor is None:
            raise DataError(f"fixture has no score tensor for sample {sample.id!r}")
        table = self._table(mask_names)
        if tensor.shape[0] != len(mask_names):
            raise TeacherDimensionError(
                f"fixture tensor for {sample.id!r} covers {tensor.shape[0]} labels, "
                f"query asked about {len(mask_names)}"
            )
        if tensor.shape[1] != table.width or tensor.shape[2] != len(self.vocab):
            raise TeacherDimensionError(
                f"fixture tensor shape {tensor.shape} does not fit "
                f"{table.width} token positions over a vocabulary of {len(self.vocab)}"
            )
        return scores_to_logits(tensor, table)


class ServiceTeacher(Teacher):
    """Talks to a scoring service over HTTP.

    One logical query keeps its request id across retries so the server
    can deduplicate.  Only timeouts and connection failures are retried;
    a malformed response is an error the caller must see.
    """

    def __init__(
        self,
        base_url: str,
        vocab: Vocabulary = None,
        want: str = "embeddings",
        timeout: float = 10.0,
        retries: int = 2,
        session=None,
    ):
        super().__init__()
        if want not in ("embeddings", "logits"):
            raise DataError(f"want must be 'embeddings' or 'logits', got {want!r}")
        if want == "embeddings" and vocab is None:
            raise DataError("embeddings mode needs a vocabulary for the token targets")
        if not isinstance(base_url, str) or not base_url.startswith(("http://", "https://")):
            raise DataError(f"teacher field 'base_url' must be an http(s) URL, got {base_url!r}")
        timeout = _checked("timeout", timeout, float, lambda v: 0.0 < v < math.inf,
                           "a finite number of seconds > 0")
        retries = _checked("retries", retries, int, lambda v: v >= 0, "an integer >= 0")
        if session is None:
            import requests

            session = requests.Session()
        self.base_url = base_url.rstrip("/")
        self.vocab = vocab
        self.want = want
        self.timeout = timeout
        self.retries = retries
        self.session = session
        self._tables = {}

    def _post(self, body) -> dict:
        import requests

        url = self.base_url + "/teacher/query"
        last = None
        for _ in range(self.retries + 1):
            try:
                resp = self.session.post(url, json=body, timeout=self.timeout)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last = exc
                continue
            if resp.status_code != 200:
                raise TeacherProtocolError(
                    f"teacher endpoint returned HTTP {resp.status_code}"
                )
            try:
                return resp.json()
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
        table = self._tables.get(mask_names)
        if table is None:
            table = tokenize_labels(self.vocab, mask_names)
            self._tables[mask_names] = table
        expected = [len(mask_names), table.width, len(self.vocab)]
        if dims != expected:
            raise TeacherDimensionError(
                f"embedding dims {dims} do not match expected {expected}"
            )
        return scores_to_logits(values.reshape(dims), table)


class NoisyOracleTeacher(Teacher):
    """Hash-driven synthetic teacher with a target accuracy.

    Whether a given sample is answered correctly depends only on
    (seed, sample id), so repeated queries and repeated runs agree.
    Wrong answers pick a deterministic non-true candidate.
    """

    def __init__(self, seed: int, accuracy: float):
        super().__init__()
        self.accuracy = _checked("accuracy", accuracy, float, lambda v: 0.0 < v <= 1.0,
                                 "a number in (0, 1]")
        self.seed = _checked("seed", seed, int, lambda v: True, "an integer")

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
