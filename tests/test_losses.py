"""Loss-term tests against independently coded oracles.

Every oracle below is a deliberate reimplementation with plain Python
loops so that a shared bug between implementation and check is
unlikely.  Oracles are defined before the tests that use them.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import grad_check

from mtcl.errors import DataError, NumericError
from mtcl.losses import (
    PROB_EPS,
    batch_loss,
    combine_losses,
    cross_entropy,
    hard_label_loss,
    kd_loss,
    softened_softmax,
)
from mtcl.weights import WeightTriple


def softmax_oracle(values, temperature):
    """Direct defining-formula softmax, no stabilization tricks."""
    scaled = [v / temperature for v in values]
    total = sum(math.exp(v) for v in scaled)
    return [math.exp(v) / total for v in scaled]


def ce_oracle(target, prediction):
    """Plain negative-log-likelihood summation with the same clamp."""
    total = 0.0
    for t_i, p_i in zip(target, prediction):
        total -= t_i * math.log(max(p_i, PROB_EPS))
    return total


def kl_oracle(p, q):
    total = 0.0
    for p_i, q_i in zip(p, q):
        if p_i > 0.0:
            total += p_i * math.log(p_i / q_i)
    return total


def random_simplex(rng, n):
    raw = rng.random(n) + 1e-3
    return raw / raw.sum()


class TestSoftenedSoftmax:
    def test_symmetric_pair_is_even(self):
        for delta in (0.5, 1.0, 2.0, 7.3):
            np.testing.assert_allclose(
                softened_softmax(np.array([0.0, 0.0]), delta), [0.5, 0.5], rtol=0, atol=0
            )

    def test_hand_computed_pair(self):
        out = softened_softmax(np.array([math.log(2.0), 0.0]), 1.0)
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(1001)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            z = rng.normal(0.0, 3.0, size=n)
            delta = float(rng.uniform(0.2, 9.0))
            np.testing.assert_allclose(
                softened_softmax(z, delta), softmax_oracle(z, delta), atol=1e-12
            )

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(1002)
        for _ in range(300):
            z = rng.normal(0.0, 5.0, size=int(rng.integers(2, 9)))
            p = softened_softmax(z, float(rng.uniform(0.1, 10.0)))
            assert abs(p.sum() - 1.0) <= 1e-12
            assert (p > 0.0).all()

    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=6),
        st.floats(-50, 50),
        st.floats(0.1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, z, shift, delta):
        z = np.array(z)
        np.testing.assert_allclose(
            softened_softmax(z + shift, delta), softened_softmax(z, delta), atol=1e-12
        )

    def test_unit_temperature_is_standard_softmax(self):
        rng = np.random.default_rng(1003)
        z = rng.normal(size=6)
        np.testing.assert_allclose(
            softened_softmax(z, 1.0), softmax_oracle(z, 1.0), atol=1e-12
        )

    def test_larger_temperature_moves_toward_uniform(self):
        z = np.array([3.0, 1.0, -2.0])
        uniform = [1.0 / 3.0] * 3
        divergences = [
            kl_oracle(softened_softmax(z, d), uniform) for d in (1.0, 2.0, 4.0, 8.0)
        ]
        for earlier, later in zip(divergences, divergences[1:]):
            assert later < earlier

    @given(
        st.integers(1, 40),
        st.integers(1, 20),
        st.sampled_from(["C", "F", "prefix"]),
        st.one_of(
            st.sampled_from([1.0, 2.0]),
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        ),
        st.sampled_from([0.1, 1.0, 4.0, 30.0]),
        st.integers(0, 2**32 - 1),
    )
    @example(2, 3, "C", 1.5199577817452024e-308, 1.0, 2)  # a row's spread overflows
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_the_copy_then_in_place_formula(
        self, n, width, layout, delta, scale, seed
    ):
        """The same bytes as an explicit C-order copy divided in place,
        max-subtracted, exponentiated and normalised by ndarray methods,
        for contiguous, column-major and prefix-view inputs."""
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, scale, size=(n, width + (3 if layout == "prefix" else 0)))
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "prefix":
            x = x[:, :width]
        with np.errstate(over="ignore"):
            scaled_is_finite = np.isfinite(x / delta).all()
        if not scaled_is_finite:
            with pytest.raises(NumericError), np.errstate(over="ignore"):
                softened_softmax(x, delta)
            return
        # A row whose scaled spread is past the float range subtracts to
        # -inf, whose exp is the exact 0; training ignores that overflow
        # (``run_continual``), and so do both sides here.
        with np.errstate(over="ignore"):
            z = np.array(x, dtype=np.float64, order="C")
            z /= delta
            z -= z.max(axis=-1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=-1, keepdims=True)
            got = softened_softmax(x, delta)
        assert got.tobytes() == z.tobytes()

    def test_rejects_bad_temperature(self):
        with pytest.raises(NumericError):
            softened_softmax(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(NumericError):
            softened_softmax(np.array([1.0, 2.0]), -1.0)

    def test_rejects_nonfinite_input(self):
        with pytest.raises(NumericError):
            softened_softmax(np.array([1.0, np.inf]), 1.0)
        with pytest.raises(NumericError):
            softened_softmax(np.array([np.nan, 0.0]), 1.0)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        target = np.array([0.0, 1.0, 0.0])
        assert cross_entropy(target, target.copy()) == 0.0

    def test_uniform_pair_is_log_two(self):
        pair = np.array([0.5, 0.5])
        assert abs(cross_entropy(pair, pair) - math.log(2.0)) <= 1e-15

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            target = random_simplex(rng, 5)
            prediction = random_simplex(rng, 5)
            assert abs(
                cross_entropy(target, prediction) - ce_oracle(target, prediction)
            ) <= 1e-12

    def test_clamp_prevents_infinity(self):
        target = np.array([1.0, 0.0])
        prediction = np.array([0.0, 1.0])
        value = cross_entropy(target, prediction)
        assert math.isfinite(value)
        assert abs(value - (-math.log(PROB_EPS))) <= 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="target shape"):
            cross_entropy(np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25]))


class TestHardLabelLoss:
    def test_matches_ce_of_softmax(self):
        rng = np.random.default_rng(1020)
        rows, labels = [], []
        for _ in range(50):
            rows.append(rng.normal(0.0, 2.0, size=5))
            labels.append(int(rng.integers(5)))
        losses, _ = hard_label_loss(np.array(rows), labels)
        assert losses.shape == (50,)
        for z, label, loss in zip(rows, labels, losses):
            expected = ce_oracle(np.eye(5)[label], softmax_oracle(z, 1.0))
            assert abs(loss - expected) <= 1e-12

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(1021)
        z = np.vstack([rng.normal(size=4), rng.normal(size=(2, 4))])
        labels = np.array([2, 0, 3])
        losses, grad = hard_label_loss(z, labels)
        step = 1e-6
        for r in range(3):
            for i in range(4):
                probe = z.copy()
                probe[r, i] += step
                plus, _ = hard_label_loss(probe, labels)
                probe[r, i] -= 2 * step
                minus, _ = hard_label_loss(probe, labels)
                numeric = (plus[r] - minus[r]) / (2 * step)
                assert abs(grad[r, i] - numeric) <= 1e-8
                others = np.arange(3) != r
                np.testing.assert_array_equal(plus[others], losses[others])

    def test_bad_label_rejected(self):
        with pytest.raises(DataError, match="out of range"):
            hard_label_loss(np.zeros((1, 3)), [3])
        with pytest.raises(DataError, match="out of range"):
            hard_label_loss(np.zeros((2, 3)), [0, -1])
        with pytest.raises(DataError, match="labels for a batch of 2 rows"):
            hard_label_loss(np.zeros((2, 3)), [0])
        with pytest.raises(DataError, match="logit matrix"):
            hard_label_loss(np.zeros(3), [0])
        with pytest.raises(DataError, match="logit matrix"):
            hard_label_loss(np.zeros((0, 3)), [])


def kd_oracle(teacher, student_masked, delta):
    """Recompute the distillation loss from its definition."""
    t_probs = softmax_oracle(teacher, delta)
    s_probs = softmax_oracle(student_masked, delta)
    return ce_oracle(t_probs, s_probs)


class TestKdLoss:
    def test_self_distillation_gives_entropy(self):
        z = np.array([[0.0, 0.0]])
        losses, _ = kd_loss(softened_softmax(z, 1.0), z, 1.0)
        assert abs(losses[0] - math.log(2.0)) <= 1e-12

    def test_matches_oracle_with_mask(self):
        rng = np.random.default_rng(1030)
        for _ in range(100):
            n_student = int(rng.integers(3, 8))
            m = int(rng.integers(1, n_student + 1))
            b = int(rng.integers(1, 5))
            teacher = rng.normal(0.0, 2.0, size=(b, m))
            student = rng.normal(0.0, 2.0, size=(b, n_student))
            delta = float(rng.uniform(0.5, 5.0))
            losses, _ = kd_loss(softened_softmax(teacher, delta), student, delta)
            for r in range(b):
                assert abs(losses[r] - kd_oracle(teacher[r], student[r, :m], delta)) <= 1e-12

    def test_high_temperature_approaches_uniform_entropy(self):
        teacher = np.array([[2.0, 0.0, 1.0]])
        student = np.array([[0.0, 1.0, 0.0]])
        limit = math.log(3.0)
        gaps = []
        for delta in (1.0, 10.0, 100.0):
            losses, _ = kd_loss(softened_softmax(teacher, delta), student, delta)
            gaps.append(abs(losses[0] - limit))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-3

    def test_peaked_teacher_reduces_to_hard_ce(self):
        student = np.array([[0.3, -0.7, 1.1]])
        teacher = np.array([[1000.0, 0.0, 0.0]])
        losses, _ = kd_loss(softened_softmax(teacher, 1.0), student, 1.0)
        expected = ce_oracle([1.0, 0.0, 0.0], softmax_oracle(student[0], 1.0))
        assert abs(losses[0] - expected) <= 1e-6

    def test_gibbs_lower_bound(self):
        rng = np.random.default_rng(1031)
        for _ in range(100):
            teacher = rng.normal(0.0, 2.0, size=(3, 4))
            student = rng.normal(0.0, 2.0, size=(3, 4))
            delta = float(rng.uniform(0.5, 4.0))
            losses, _ = kd_loss(softened_softmax(teacher, delta), student, delta)
            for r in range(3):
                t_probs = softmax_oracle(teacher[r], delta)
                assert losses[r] >= ce_oracle(t_probs, t_probs) - 1e-12

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(1032)
        student = rng.normal(size=(2, 5))
        teacher = softened_softmax(rng.normal(size=(2, 3)), 2.0)
        delta = 2.0
        _, grad = kd_loss(teacher, student, delta)
        assert grad.shape == (2, 3)
        step = 1e-6
        for r in range(2):
            for i in range(5):
                probe = student.copy()
                probe[r, i] += step
                plus, _ = kd_loss(teacher, probe, delta)
                probe[r, i] -= 2 * step
                minus, _ = kd_loss(teacher, probe, delta)
                numeric = (plus[r] - minus[r]) / (2 * step)
                if i < 3:
                    assert abs(grad[r, i] - numeric) <= 1e-8
                else:
                    assert numeric == 0.0

    def test_empty_mask_rejected(self):
        with pytest.raises(DataError, match="teacher gave"):
            kd_loss(np.zeros((1, 0)), np.array([[1.0, 2.0]]), 1.0)

    def test_coverage_mismatch_rejected(self):
        with pytest.raises(DataError, match="teacher gave"):
            kd_loss(np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 2.0]]), 1.0)
        with pytest.raises(DataError, match="teacher gave"):
            kd_loss(np.array([[1.0], [2.0]]), np.array([[1.0, 2.0]]), 1.0)
        with pytest.raises(DataError, match="teacher gave"):
            kd_loss(np.array([1.0]), np.array([[1.0, 2.0]]), 1.0)
        with pytest.raises(DataError, match="logit matrix"):
            kd_loss(np.array([1.0]), np.array([1.0, 2.0]), 1.0)


class TestCombineLosses:
    def test_hard_only(self):
        out = combine_losses(WeightTriple(1.0, 0.0, 0.0), 3.25, float("nan"), float("nan"))
        assert out.total == 3.25

    def test_even_two_way_split(self):
        out = combine_losses(WeightTriple(0.5, 0.5, 0.0), 2.0, 2.0, float("nan"))
        assert abs(out.total - 2.0) <= 1e-15

    def test_three_term_arithmetic(self):
        out = combine_losses(WeightTriple(0.2, 0.6, 0.2), 1.0, 2.0, 3.0)
        assert abs(out.total - 2.0) <= 1e-12
        assert out.hard == 1.0 and out.kd_prev == 2.0 and out.kd_llm == 3.0

    def test_linearity_in_terms(self):
        rng = np.random.default_rng(1040)
        w = WeightTriple(0.3, 0.45, 0.25)
        for _ in range(50):
            a, b, c = rng.uniform(0.0, 5.0, size=3)
            scale = float(rng.uniform(0.1, 3.0))
            base = combine_losses(w, a, b, c).total
            scaled = combine_losses(w, scale * a, b, c).total
            assert abs(scaled - (base + w.alpha * (scale - 1.0) * a)) <= 1e-9

    def test_nonzero_weight_rejects_nonfinite_term(self):
        with pytest.raises(NumericError):
            combine_losses(WeightTriple(0.2, 0.8, 0.0), 1.0, float("nan"), 0.0)


def row_hard_label_loss(logits, label_index):
    """Per-row reference: the hard-label term of one logit vector."""
    probs = softened_softmax(logits, 1.0)
    loss = float(-np.log(max(probs[label_index], PROB_EPS)))
    grad = probs.copy()
    grad[label_index] -= 1.0
    return loss, grad


def row_kd_loss(teacher_logits, student_logits, temperature, mask):
    """Per-row reference: the distillation term of one logit vector."""
    t_probs = softened_softmax(teacher_logits, temperature)
    s_probs = softened_softmax(student_logits[mask], temperature)
    loss = float(-(t_probs * np.log(np.maximum(s_probs, PROB_EPS))).sum())
    grad = np.zeros_like(student_logits)
    grad[mask] = (s_probs - t_probs) / temperature
    return loss, grad


def row_loop_loss(logits, labels, weights, delta, prev_rows, llm_rows):
    """The trainer's former one-row-at-a-time loss loop, kept as the
    reference that ``batch_loss`` must reproduce bit for bit.  Each
    teacher's classes are gathered by index, independently of the
    prefix slice ``batch_loss`` takes."""
    b = len(labels)
    prev_mask = None if prev_rows is None else np.arange(prev_rows.shape[1])
    llm_mask = None if llm_rows is None else np.arange(llm_rows.shape[1])
    dz = np.zeros_like(logits)
    hard_total = prev_total = llm_total = 0.0
    for i in range(b):
        loss_i, grad_i = row_hard_label_loss(logits[i], int(labels[i]))
        hard_total += loss_i
        if weights.alpha > 0.0:
            dz[i] += weights.alpha * grad_i / b
        if prev_rows is not None:
            loss_p, grad_p = row_kd_loss(prev_rows[i], logits[i], delta, prev_mask)
            prev_total += loss_p
            dz[i] += weights.beta * grad_p / b
        if llm_rows is not None:
            loss_l, grad_l = row_kd_loss(llm_rows[i], logits[i], delta, llm_mask)
            llm_total += loss_l
            dz[i] += weights.chi * grad_l / b
    breakdown = combine_losses(
        weights,
        hard_total / b,
        prev_total / b if prev_rows is not None else float("nan"),
        llm_total / b if llm_rows is not None else float("nan"),
    )
    return breakdown, dz


@st.composite
def loss_batches(draw):
    """One trainer-shaped batch: labels, logits, teacher rows and weights.

    The previous model scores the first ``m`` of the student's ``k``
    classes, half the time all of them and otherwise a strict prefix.
    Any of the three weights may be exactly zero, and a zero-weight
    teacher's table may be absent.
    """
    b = draw(st.integers(1, 33))
    k = draw(st.integers(2, 9))
    m = k if draw(st.booleans()) else draw(st.integers(1, k - 1))
    zero = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(lambda z: not all(z)))
    raw = [0.0 if z else draw(st.floats(0.05, 1.0)) for z in zero]
    weights = WeightTriple(*(r / sum(raw) for r in raw))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0, 30.0]))
    logits = rng.normal(0.0, scale, size=(b, k))
    labels = rng.integers(0, k, size=b)
    # As in the trainer, a teacher with non-zero weight always has a table.
    prev_rows = llm_rows = None
    if weights.beta > 0.0 or draw(st.booleans()):
        prev_rows = rng.normal(0.0, scale, size=(b, m))
    if weights.chi > 0.0 or draw(st.booleans()):
        llm_rows = rng.normal(0.0, scale, size=(b, k))
    if prev_rows is not None and draw(st.booleans()):
        # a column-major table sums its rows in another order unless copied
        prev_rows = np.asfortranarray(prev_rows)
    delta = draw(st.sampled_from([0.5, 1.0, 2.0, 3.7]))
    return logits, labels, weights, delta, prev_rows, llm_rows


class TestBatchLoss:
    @given(loss_batches())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_row_loop(self, batch):
        logits, labels, weights, delta, prev_rows, llm_rows = batch
        # The trainer hands batch_loss rows of tables softened once per
        # task; the reference softens each logit row on its own.
        prev_probs, llm_probs = (
            None if rows is None else softened_softmax(rows, delta)
            for rows in (prev_rows, llm_rows)
        )
        got, dz = batch_loss(logits, labels, weights, delta, prev_probs, llm_probs)
        want, want_dz = row_loop_loss(*batch)
        np.testing.assert_array_equal(dz, want_dz)
        assert dz.tobytes() == want_dz.tobytes()
        assert abs(got.hard - want.hard) <= 1e-12
        assert abs(got.total - want.total) <= 1e-12
        for value, expected, rows, w in (
            (got.kd_prev, want.kd_prev, prev_rows, weights.beta),
            (got.kd_llm, want.kd_llm, llm_rows, weights.chi),
        ):
            if rows is None or w == 0.0:
                assert math.isnan(value)
            else:
                assert abs(value - expected) <= 1e-12

    def test_breakdown_matches_per_term_means(self):
        rng = np.random.default_rng(1050)
        logits = rng.normal(size=(6, 4))
        labels = np.array([0, 1, 2, 3, 0, 1])
        prev_rows = rng.normal(size=(6, 2))
        llm_rows = rng.normal(size=(6, 4))
        weights = WeightTriple(0.2, 0.5, 0.3)
        out, _ = batch_loss(logits, labels, weights, 2.0,
                            softened_softmax(prev_rows, 2.0), softened_softmax(llm_rows, 2.0))
        hard = np.mean([
            ce_oracle(np.eye(4)[y], softmax_oracle(z, 1.0)) for z, y in zip(logits, labels)
        ])
        prev = np.mean([kd_oracle(t, z[:2], 2.0) for t, z in zip(prev_rows, logits)])
        llm = np.mean([kd_oracle(t, z, 2.0) for t, z in zip(llm_rows, logits)])
        assert abs(out.hard - hard) <= 1e-12
        assert abs(out.kd_prev - prev) <= 1e-12
        assert abs(out.kd_llm - llm) <= 1e-12
        assert abs(out.total - (0.2 * hard + 0.5 * prev + 0.3 * llm)) <= 1e-12

    def test_nonfinite_input_rejected(self):
        logits = np.zeros((2, 3))
        weights = WeightTriple(0.5, 0.0, 0.5)
        bad = np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NumericError):
            batch_loss(bad, [0, 1], weights, 2.0, None, logits)
        with pytest.raises(NumericError):
            batch_loss(logits, [0, 1], weights, 2.0, None, bad)

    def test_missing_table_under_nonzero_weight_rejected(self):
        with pytest.raises(NumericError):
            batch_loss(np.zeros((2, 3)), [0, 1], WeightTriple(0.5, 0.5, 0.0), 2.0,
                       None, None)

    def test_teacher_width_and_empty_mask_rejected(self):
        weights = WeightTriple(0.5, 0.5, 0.0)
        with pytest.raises(DataError, match="teacher gave"):
            batch_loss(np.zeros((2, 3)), [0, 1], weights, 2.0, np.zeros((2, 4)), None)
        with pytest.raises(DataError, match="teacher gave"):
            batch_loss(np.zeros((2, 3)), [0, 1], weights, 2.0, np.zeros((2, 0)), None)


class TestPerTaskTables:
    @given(
        st.integers(1, 60),
        st.integers(1, 40),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.1, 1.0, 4.0, 30.0]),
        st.sampled_from([0.5, 1.0, 2.0, 3.7]),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_table_rows_bit_identical_to_batch_rows(
        self, n, width, column_major, seed, scale, delta, data
    ):
        """Softening a whole teacher table once gives, row for row, the bits
        of softening each batch's rows, and kd_loss on those table rows
        equals the per-batch computation from teacher logits."""
        rng = np.random.default_rng(seed)
        table = rng.normal(0.0, scale, size=(n, width))
        if column_major:
            table = np.asfortranarray(table)
        probs = softened_softmax(table, delta)
        b = data.draw(st.integers(1, n))
        batch_idx = rng.permutation(n)[:b]
        batch = softened_softmax(table[batch_idx], delta)
        assert probs[batch_idx].tobytes() == batch.tobytes()

        k = width + data.draw(st.integers(0, 3))
        student = rng.normal(0.0, scale, size=(b, k))
        losses, grad = kd_loss(probs[batch_idx], student, delta)
        s_probs = softened_softmax(student[:, :width], delta)
        want_losses = cross_entropy(batch, s_probs)
        want_grad = np.zeros_like(student)
        want_grad[:, :width] = (s_probs - batch) / delta
        assert losses.tobytes() == want_losses.tobytes()
        assert grad.tobytes() == want_grad[:, :width].tobytes()


class TestGradCheck:
    def test_quadratic_is_exact(self):
        def quad(p):
            return 0.5 * float(p @ p), p.copy()

        err = grad_check(quad, np.array([1.0, -2.0, 0.5]), step=1e-4)
        assert err <= 1e-8

    def test_detects_wrong_gradient(self):
        def wrong(p):
            return 0.5 * float(p @ p), 2.0 * p

        err = grad_check(wrong, np.array([1.0, -2.0]), step=1e-4)
        assert err > 0.4

    def test_zero_step_rejected(self):
        with pytest.raises(NumericError):
            grad_check(lambda p: (0.0, np.zeros_like(p)), np.zeros(2), step=0.0)

    def test_nonfinite_probe_rejected(self):
        def explode(p):
            return float("inf"), np.zeros_like(p)

        with pytest.raises(NumericError):
            grad_check(explode, np.zeros(2), step=1e-4)
