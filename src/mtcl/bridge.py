"""Bridge from token-level embedding scores to class logits.

A general-knowledge teacher scores every candidate answer as a sequence
of tokens: for each candidate it emits one score row per token position,
each row covering the whole token vocabulary.  This module turns that
score tensor into one logit per candidate:

1. every row is treated as pre-softmax scores over the vocabulary and
   charged the cross entropy of its target token,
2. the per-position charges of one candidate are summed into a badness
   score (small means the teacher finds that spelling likely),
3. the badness score is inverted into a logit.

Padding rows (target = the pause token) participate like any other row;
a teacher confident in an answer must also be confident that the answer
has ended.

Also here: the character-level tokenizer that defines the target token
sequences, the line-delimited vocabulary file format, and the binary
fixture format used to replay recorded score tensors offline.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionMismatchError, NumericError, parse_input, write_output

PAUSE_TOKEN = "<pause>"
PAUSE_ID = 0
SPACE_TOKEN = "<sp>"

# Floor on the summed badness score before inversion.
SCORE_EPS = 1e-6

FIXTURE_MAGIC = b"LLME"
FIXTURE_VERSION = 1


@dataclass(frozen=True)
class Vocabulary:
    """Character-level token inventory, pause token at id 0.

    Spaces inside a label map to a dedicated separator token, so
    encoding is reversible for any label whose characters are all in
    the inventory.
    """

    tokens: tuple

    def __post_init__(self):
        if not self.tokens or self.tokens[PAUSE_ID] != PAUSE_TOKEN:
            raise DataError(f"token inventory must have {PAUSE_TOKEN!r} at id 0")
        if len(set(self.tokens)) != len(self.tokens):
            raise DataError("token inventory contains duplicates")
        for tok in self.tokens:
            if not tok or "\t" in tok or "\n" in tok:
                raise DataError(f"unserializable token {tok!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def index(self) -> dict:
        return {tok: i for i, tok in enumerate(self.tokens)}

    def encode(self, label: str) -> list:
        idx = self.index
        ids = []
        for ch in label:
            tok = SPACE_TOKEN if ch == " " else ch
            if tok not in idx:
                raise DataError(f"label {label!r} uses unknown token {tok!r}")
            ids.append(idx[tok])
        return ids

    def to_text(self) -> str:
        """One ``token<TAB>id`` line per token, in id order."""
        return "".join(f"{tok}\t{i}\n" for i, tok in enumerate(self.tokens))

    @classmethod
    def from_text(cls, text: str) -> "Vocabulary":
        entries = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"vocabulary line {lineno} is not 'token<TAB>id': {line!r}")
            tok, raw_id = parts
            try:
                tok_id = int(raw_id)
            except ValueError as exc:
                raise DataError(f"vocabulary line {lineno} has non-integer id {raw_id!r}") from exc
            if tok_id in entries:
                raise DataError(f"vocabulary reuses id {tok_id}")
            entries[tok_id] = tok
        if sorted(entries) != list(range(len(entries))):
            raise DataError("vocabulary ids must cover 0..P-1 without gaps")
        return cls(tuple(entries[i] for i in range(len(entries))))

    def save(self, path) -> None:
        write_output(path, self.to_text(), "vocabulary file")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return parse_input(path, "vocabulary file", cls.from_text, text=True)


def build_vocabulary(labels) -> Vocabulary:
    """Inventory covering every character of the given labels.

    Characters are sorted so the result depends only on the label set,
    not its order.
    """
    chars = set()
    for label in labels:
        if not label:
            raise DataError("empty label name")
        chars.update(ch for ch in label if ch != " ")
    return Vocabulary((PAUSE_TOKEN, SPACE_TOKEN) + tuple(sorted(chars)))


@dataclass(frozen=True)
class TokenizedLabelSet:
    """Per-candidate token-id sequences padded to a common width.

    ``token_ids`` has shape (candidates, positions); the final position
    of every sequence is the pause token.
    """

    token_ids: np.ndarray
    vocab_size: int

    def __post_init__(self):
        ids = np.asarray(self.token_ids)
        if ids.ndim != 2 or ids.shape[0] == 0 or ids.shape[1] == 0:
            raise DataError(f"token table must be 2-d and non-empty, got shape {ids.shape}")
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise DataError(f"token ids out of range for vocabulary of {self.vocab_size}")
        if not np.all(ids[:, -1] == PAUSE_ID):
            raise DataError("every token sequence must end with the pause token")

    @property
    def count(self) -> int:
        return self.token_ids.shape[0]

    @property
    def width(self) -> int:
        return self.token_ids.shape[1]


def tokenize_labels(vocab: Vocabulary, labels) -> TokenizedLabelSet:
    """Encode candidate labels into a padded token-id table.

    Sequences are padded with the pause token to the longest encoding
    plus one, so the final position is always pause.
    """
    labels = list(labels)
    if not labels:
        raise DataError("cannot tokenize an empty label list")
    encoded = [vocab.encode(label) for label in labels]
    longest = max(len(e) for e in encoded)
    table = np.full((len(encoded), longest + 1), PAUSE_ID, dtype=np.int64)
    for row, ids in enumerate(encoded):
        table[row, : len(ids)] = ids
    return TokenizedLabelSet(token_ids=table, vocab_size=len(vocab))


def scores_to_logits(scores: np.ndarray, labels: TokenizedLabelSet) -> np.ndarray:
    """Collapse a (candidates, positions, vocab) score tensor into logits.

    Each (candidate, position) row pays ``logsumexp(row) - row[target]``,
    the cross entropy of its target token under the row's softmax.  The
    per-position charges of one candidate are summed and the sum is
    inverted through ``1 / max(sum, SCORE_EPS)``, so a confidently spelled
    candidate gets a large positive logit.  (Negating the sum instead of
    inverting it would also order candidates correctly, but inversion is
    the implemented contract.)
    """
    scores = np.asarray(scores)
    if scores.ndim != 3:
        raise DimensionMismatchError(
            f"expected a (candidates, positions, vocab) tensor, got shape {scores.shape}"
        )
    n, width, vocab_size = scores.shape
    if (n, width) != (labels.count, labels.width) or vocab_size != labels.vocab_size:
        raise DimensionMismatchError(
            f"score tensor {scores.shape} does not match token table "
            f"({labels.count}, {labels.width}) over vocabulary of {labels.vocab_size}"
        )
    # Checked before the float64 cast, which warns on a signalling NaN.
    if not np.isfinite(scores).all():
        raise NumericError("score tensor contains non-finite values")
    flat = scores.reshape(n * width, vocab_size).astype(np.float64, copy=False)
    peak = flat.max(axis=1)
    lse = peak + np.log(np.exp(flat - peak[:, None]).sum(axis=1))
    nll = lse - flat[np.arange(flat.shape[0]), labels.token_ids.ravel()]
    badness = nll.reshape(n, width).sum(axis=1)
    return 1.0 / np.maximum(badness, SCORE_EPS)


def write_fixture(path, records) -> None:
    """Serialize recorded score tensors.

    ``records`` maps sample id to a (candidates, positions, vocab)
    array; tensors are stored as little-endian float32 in row-major
    order.
    """
    chunks = [FIXTURE_MAGIC, struct.pack("<H", FIXTURE_VERSION)]
    for sample_id, tensor in records.items():
        tensor = np.ascontiguousarray(tensor, dtype="<f4")
        if tensor.ndim != 3:
            raise DataError(
                f"fixture tensor for {sample_id!r} must be 3-d, got shape {tensor.shape}"
            )
        encoded = sample_id.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DataError(f"sample id too long: {sample_id!r}")
        chunks += [struct.pack("<H", len(encoded)), encoded,
                   struct.pack("<III", *tensor.shape), tensor.tobytes()]
    write_output(path, b"".join(chunks), "fixture file")


def read_fixture(path) -> dict:
    """Load a fixture file back into an id-to-tensor mapping.

    The file is read whole, and tensors come back as read-only float32
    views of its bytes, exactly as stored.  Every length is checked
    against the bytes left in the file, so a corrupt or truncated file is
    a DataError, never a huge allocation.
    """
    return parse_input(path, "fixture file", _parse_fixture)


def _parse_fixture(data: bytes) -> dict:
    if not data.startswith(FIXTURE_MAGIC):
        raise DataError("not a score-fixture file (bad magic)")
    offset = len(FIXTURE_MAGIC)

    def take(n, what):
        nonlocal offset
        if n > len(data) - offset:
            raise DataError(f"truncated while reading {what}")
        offset += n
        return memoryview(data)[offset - n : offset]

    (version,) = struct.unpack("<H", take(2, "version"))
    if version != FIXTURE_VERSION:
        raise DataError(f"unsupported fixture version {version}")
    records = {}
    while offset < len(data):
        (id_len,) = struct.unpack("<H", take(2, "record header"))
        sample_id = str(take(id_len, "sample id"), "utf-8")
        shape = struct.unpack("<III", take(12, "tensor shape"))
        raw = take(4 * math.prod(shape), f"tensor data for {sample_id!r}")
        tensor = np.frombuffer(raw, dtype="<f4").reshape(shape)
        if sample_id in records:
            raise DataError(f"duplicate sample id {sample_id!r}")
        records[sample_id] = tensor
    return records
