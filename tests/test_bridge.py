"""Tokenizer, score-transform, and fixture-format tests.

The transform oracle below recomputes per-class token negative log
likelihood with plain loops and inverts it, sharing no code with the
implementation.  It is written before the tests that rely on it.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtcl.bridge import (
    PAUSE_ID,
    PAUSE_TOKEN,
    SCORE_EPS,
    SPACE_TOKEN,
    TokenizedLabelSet,
    Vocabulary,
    build_vocabulary,
    read_fixture,
    scores_to_logits,
    tokenize_labels,
    write_fixture,
)
from mtcl.errors import DataError, NumericError


def transform_oracle(scores, token_ids, eps):
    """Per-class token NLL summed over positions, then inverted."""
    n, width, vocab = scores.shape
    out = []
    for j in range(n):
        badness = 0.0
        for m in range(width):
            row = [float(v) for v in scores[j][m]]
            total = sum(math.exp(v) for v in row)
            prob = math.exp(row[int(token_ids[j][m])]) / total
            badness += -math.log(prob)
        out.append(1.0 / max(badness, eps))
    return np.array(out)


def decode(vocab, ids) -> str:
    """Label text of a token-id sequence, pause tokens dropped."""
    chars = []
    for i in ids:
        if not 0 <= i < len(vocab.tokens):
            raise DataError(f"token id {i} out of range")
        tok = vocab.tokens[i]
        if tok == PAUSE_TOKEN:
            continue
        chars.append(" " if tok == SPACE_TOKEN else tok)
    return "".join(chars)


def random_label_set(rng, n, width, vocab_size):
    ids = rng.integers(0, vocab_size, size=(n, width))
    ids[:, -1] = PAUSE_ID
    return TokenizedLabelSet(token_ids=ids.astype(np.int64), vocab_size=vocab_size)


class TestVocabulary:
    def test_encode_decode_roundtrip(self):
        vocab = build_vocabulary(["cutting", "kidney", "idle time"])
        for label in ("cutting", "kidney", "idle time"):
            assert decode(vocab, vocab.encode(label)) == label

    def test_space_maps_to_separator_token(self):
        vocab = build_vocabulary(["a b"])
        ids = vocab.encode("a b")
        assert vocab.tokens[ids[1]] == SPACE_TOKEN

    def test_order_independent_construction(self):
        a = build_vocabulary(["cut", "idle"])
        b = build_vocabulary(["idle", "cut"])
        assert a.tokens == b.tokens

    def test_unknown_character_rejected(self):
        vocab = build_vocabulary(["abc"])
        with pytest.raises(DataError):
            vocab.encode("abz")

    def test_pause_token_reserved_at_zero(self):
        vocab = build_vocabulary(["xy"])
        assert vocab.tokens[PAUSE_ID] == PAUSE_TOKEN
        with pytest.raises(DataError):
            Vocabulary(("x", PAUSE_TOKEN))

    def test_text_roundtrip(self):
        vocab = build_vocabulary(["grasping", "cutting tool"])
        again = Vocabulary.from_text(vocab.to_text())
        assert again.tokens == vocab.tokens
        spaced = Vocabulary.from_text("\n" + vocab.to_text().replace("\n", "\n \n"))
        assert spaced.tokens == vocab.tokens

    def test_file_roundtrip(self, tmp_path):
        vocab = build_vocabulary(["one", "two"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert Vocabulary.load(path).tokens == vocab.tokens
        first_line = path.read_text().splitlines()[0]
        assert first_line == f"{PAUSE_TOKEN}\t0"

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.text(min_size=1), min_size=1, max_size=4))
    @example(labels=["cut", "a\u2028b", "\x85 \u2029"])
    def test_saved_vocabulary_loads_equal_or_is_refused(self, tmp_path_factory, labels):
        try:
            vocab = build_vocabulary(labels)
        except DataError as exc:
            assert "unserializable token" in str(exc)
            assert any(ch in "".join(labels) for ch in "\t\n\r")
            return
        path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
        vocab.save(path)
        assert Vocabulary.load(path) == vocab

    def test_malformed_lines_rejected(self):
        with pytest.raises(DataError):
            Vocabulary.from_text("<pause>\t0\nbroken line\n")
        with pytest.raises(DataError):
            Vocabulary.from_text("<pause>\t0\na\tx\n")

    def test_gapped_or_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            Vocabulary.from_text("<pause>\t0\na\t2\n")
        with pytest.raises(DataError):
            Vocabulary.from_text("<pause>\t0\na\t1\nb\t1\n")


@pytest.mark.parametrize("build, message", [
    (lambda: Vocabulary((PAUSE_TOKEN, "a\tb")), re.escape(repr("a\tb"))),
    (lambda: Vocabulary((PAUSE_TOKEN, "")), "unserializable token ''"),
    (lambda: build_vocabulary(["cut", "a\rb"]), re.escape("unserializable token '\\r'")),
    (lambda: Vocabulary((PAUSE_TOKEN, "a", "b", "a")), "contains duplicates"),
    (lambda: build_vocabulary(["cut", ""]), "empty label name"),
    (lambda: TokenizedLabelSet(np.zeros((0, 2), dtype=np.int64), 3),
     r"must be 2-d and non-empty, got shape \(0, 2\)"),
    (lambda: TokenizedLabelSet(np.zeros(3, dtype=np.int64), 3),
     r"must be 2-d and non-empty, got shape \(3,\)"),
    (lambda: TokenizedLabelSet(np.array([[1, 3, 0]]), 3), "out of range for vocabulary of 3"),
    (lambda: TokenizedLabelSet(np.array([[-1, 0]]), 3), "out of range for vocabulary of 3"),
    (lambda: TokenizedLabelSet(np.array([[1, 0], [0, 1]]), 3), "must end with the pause token"),
    (lambda: tokenize_labels(build_vocabulary(["cut"]), []), "cannot tokenize an empty label"),
    (lambda: write_fixture("unused.bin", {"s": np.zeros((2, 2))}),
     r"tensor for 's' must be 3-d, got shape \(2, 2\)"),
    (lambda: write_fixture("unused.bin", {"s" * 0x10000: np.zeros((1, 1, 1))}),
     "sample id too long"),
], ids=["tab-token", "empty-token", "return-token", "duplicate-token", "empty-label",
        "no-rows", "one-axis", "id-too-large", "negative-id", "no-final-pause", "no-labels",
        "fixture-2d", "fixture-long-id"])
def test_inconsistent_bridge_input_is_a_data_error(build, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DataError, match=message):
        build()
    assert list(tmp_path.iterdir()) == []


class TestTokenizeLabels:
    def test_padding_to_cap_plus_one(self):
        vocab = build_vocabulary(["cut", "idle"])
        table = tokenize_labels(vocab, ["cut", "idle"])
        assert table.token_ids.shape == (2, 5)
        assert (table.token_ids[:, -1] == PAUSE_ID).all()
        assert table.token_ids[0, 3] == PAUSE_ID  # "cut" padded from position 3

    def test_default_cap_is_longest_label(self):
        vocab = build_vocabulary(["cut", "idle"])
        table = tokenize_labels(vocab, ["cut", "idle"])
        assert table.width == 5

    def test_one_hot_shape_and_mass(self):
        vocab = build_vocabulary(["ab", "cd", "ee"])
        table = tokenize_labels(vocab, ["ab", "cd", "ee"])
        flat = table.token_ids.ravel()
        matrix = np.zeros((flat.size, table.vocab_size))
        matrix[np.arange(flat.size), flat] = 1.0
        assert matrix.shape == (3 * 3, len(vocab))
        assert matrix.sum() == 9.0
        assert ((matrix == 0.0) | (matrix == 1.0)).all()
        assert (matrix.sum(axis=1) == 1.0).all()

    def test_sequences_reversible_through_vocab(self):
        vocab = build_vocabulary(["idle time", "cutting"])
        table = tokenize_labels(vocab, ["idle time", "cutting"])
        assert decode(vocab, table.token_ids[0]) == "idle time"
        assert decode(vocab, table.token_ids[1]) == "cutting"


class TestScoresToLogits:
    def test_constant_tensor_gives_uniform(self):
        rng = np.random.default_rng(2001)
        labels = random_label_set(rng, 4, 3, 6)
        scores = np.full((4, 3, 6), 0.37)
        z = scores_to_logits(scores, labels)
        assert np.ptp(z) <= 1e-12
        softened = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(softened, np.full(4, 0.25), atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2002)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            width = int(rng.integers(2, 5))
            vocab_size = int(rng.integers(2, 8))
            labels = random_label_set(rng, n, width, vocab_size)
            scores = rng.normal(0.0, 2.0, size=(n, width, vocab_size))
            np.testing.assert_allclose(
                scores_to_logits(scores, labels),
                transform_oracle(scores, labels.token_ids, SCORE_EPS),
                atol=1e-9,
            )

    def test_confident_class_wins(self):
        rng = np.random.default_rng(2003)
        labels = random_label_set(rng, 2, 3, 5)
        scores = np.zeros((2, 3, 5))
        for m in range(3):
            scores[0, m, labels.token_ids[0, m]] = 1e4
        z = scores_to_logits(scores, labels)
        assert z.argmax() == 0
        assert z[0] == 1.0 / SCORE_EPS
        # The naive oracle exponentiates directly, so feed it a milder
        # but still overwhelming margin to confirm the same ordering.
        mild = np.where(scores > 0.0, 500.0, 0.0)
        oracle = transform_oracle(mild, labels.token_ids, SCORE_EPS)
        assert oracle.argmax() == 0
        assert oracle[0] == 1.0 / SCORE_EPS

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(2004)
        labels = random_label_set(rng, 3, 4, 6)
        scores = rng.normal(size=(3, 4, 6))
        shifted = scores.copy()
        shifted[1, 2, :] += 55.5
        np.testing.assert_allclose(
            scores_to_logits(shifted, labels), scores_to_logits(scores, labels),
            atol=1e-9,
        )

    def test_lower_badness_means_higher_logit(self):
        rng = np.random.default_rng(2005)
        labels = random_label_set(rng, 2, 2, 4)
        scores = np.zeros((2, 2, 4))
        for m in range(2):
            scores[0, m, labels.token_ids[0, m]] = 3.0
            scores[1, m, labels.token_ids[1, m]] = 1.0
        z = scores_to_logits(scores, labels)
        assert z[0] > z[1]

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(2006)
        labels = random_label_set(rng, 5, 3, 7)
        scores = rng.normal(size=(5, 3, 7))
        perm = rng.permutation(5)
        permuted_labels = TokenizedLabelSet(
            token_ids=labels.token_ids[perm], vocab_size=labels.vocab_size
        )
        np.testing.assert_allclose(
            scores_to_logits(scores[perm], permuted_labels),
            scores_to_logits(scores, labels)[perm],
            atol=1e-12,
        )

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(2007)
        labels = random_label_set(rng, 3, 3, 5)
        with pytest.raises(DataError, match=r"does not match token table"):
            scores_to_logits(np.zeros((2, 3, 5)), labels)
        with pytest.raises(DataError, match=r"does not match token table"):
            scores_to_logits(np.zeros((3, 3, 4)), labels)
        with pytest.raises(DataError, match=r"expected a \(candidates, positions, vocab\) tensor"):
            scores_to_logits(np.zeros((3, 3)), labels)

    def test_nonfinite_scores_rejected(self):
        """Also a float32 signalling NaN, as a fixture or service payload
        can carry, without the warning a float64 cast of it gives."""
        rng = np.random.default_rng(2008)
        labels = random_label_set(rng, 2, 2, 3)
        scores = np.zeros((2, 2, 3))
        scores[0, 0, 0] = np.inf
        signalling = np.zeros((2, 2, 3), dtype="<f4")
        signalling.view("<u4")[1, 1, 2] = 0x7FA00000
        for bad in (scores, signalling):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError):
                    scores_to_logits(bad, labels)


class TestFixtureFormat:
    def test_roundtrip_preserves_tensors_and_order(self, tmp_path):
        rng = np.random.default_rng(2010)
        records = {
            "s-1": rng.normal(size=(2, 3, 5)).astype(np.float32),
            "s-2": rng.normal(size=(4, 2, 5)).astype(np.float32),
            "unicode-идентификатор": rng.normal(size=(1, 1, 2)).astype(np.float32),
        }
        path = tmp_path / "scores.bin"
        write_fixture(path, records)
        back = read_fixture(path)
        assert list(back) == list(records)
        for key in records:
            np.testing.assert_array_equal(back[key], records[key])
            assert back[key].dtype == np.float32

    def test_float64_input_stored_as_float32(self, tmp_path):
        value = np.full((1, 1, 1), 1.0 / 3.0, dtype=np.float64)
        path = tmp_path / "scores.bin"
        write_fixture(path, {"x": value})
        back = read_fixture(path)["x"]
        np.testing.assert_array_equal(back, value.astype(np.float32))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            read_fixture(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "scores.bin"
        write_fixture(path, {"x": np.zeros((2, 2, 2), dtype=np.float32)})
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])
        with pytest.raises(DataError):
            read_fixture(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "scores.bin"
        write_fixture(path, {"x": np.zeros((1, 1, 1), dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            read_fixture(path)

    @settings(max_examples=6, deadline=None)
    @given(
        shapes=st.dictionaries(
            st.text(max_size=3),
            st.tuples(*[st.integers(0, 2)] * 3),
            min_size=1,
            max_size=2,
        )
    )
    @example(shapes={"t2-é": (2, 1, 2), "": (1, 2, 1)})
    def test_every_truncation_and_bit_flip_parses_or_raises_data_error(
        self, tmp_path_factory, shapes
    ):
        path = tmp_path_factory.mktemp("fuzz") / "scores.bin"
        write_fixture(path, {
            sample_id: np.arange(math.prod(shape), dtype=np.float32).reshape(shape)
            for sample_id, shape in shapes.items()
        })
        whole = path.read_bytes()
        variants = [whole[:cut] for cut in range(len(whole))]
        for bit in range(8 * len(whole)):
            flipped = bytearray(whole)
            flipped[bit // 8] ^= 1 << (bit % 8)
            variants.append(bytes(flipped))
        tracemalloc.start()
        try:
            for data in variants:
                path.write_bytes(data)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                try:
                    read_fixture(path)
                except DataError as exc:
                    assert str(exc).startswith(f"fixture file {path}"), exc
                # No length field may make the reader allocate beyond the
                # file's size, plus the file object's read buffer.
                assert tracemalloc.get_traced_memory()[1] - before < 64 * 1024
        finally:
            tracemalloc.stop()
