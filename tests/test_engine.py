"""Training engine: model growth, task loop, evaluation, checkpoints."""

import json
import math

import numpy as np
import pytest
from conftest import classes_up_to, latest_triple, read_metrics_csv

from mtcl.bridge import build_vocabulary
from mtcl.engine import (
    AVG_DATASET,
    PrevModelTeacher,
    StudentModel,
    TrainSettings,
    encode_inputs,
    encode_question,
    evaluate,
    load_checkpoint,
    run_continual,
    save_checkpoint,
    train_task,
    write_metrics_csv,
)
from mtcl.errors import ConfigError, DataError, NumericError
from mtcl.losses import softened_softmax
from mtcl.taskstream import (
    GeneratorConfig,
    ImbalanceLedger,
    LabelClass,
    Sample,
    TaskDataset,
    generate_synthetic_stream,
    load_manifest,
    load_task,
)
from mtcl.teachers import NoisyOracleTeacher
from mtcl.weights import WeightConfig, WeightTrace, WeightTriple

MINI_CFG = GeneratorConfig(
    tasks=3,
    classes_per_task=3,
    feature_length=4,
    samples_per_task=60,
    imbalance=2.0,
    overlap=0.5,
    shift=2.0,
)

FAST = dict(learning_rate=0.05, epochs=3, batch_size=16, hidden1=16, hidden2=16)


@pytest.fixture(scope="module")
def mini_stream(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini")
    return load_manifest(generate_synthetic_stream(MINI_CFG, seed=5, out_dir=out))


def standard_weights():
    return WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4)


class TestEncodeQuestion:
    VOCAB = build_vocabulary(["cut", "idle"])

    def test_unit_norm_and_determinism(self):
        v = encode_question("cut it", self.VOCAB)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        np.testing.assert_array_equal(v, encode_question("cut it", self.VOCAB))

    def test_order_insensitive_bag(self):
        np.testing.assert_array_equal(
            encode_question("tiled", self.VOCAB), encode_question("delit", self.VOCAB)
        )

    def test_empty_question_is_zero_vector(self):
        assert not encode_question("", self.VOCAB).any()

    def test_unknown_characters_share_one_slot(self):
        v = encode_question("@@", self.VOCAB)
        assert v[len(self.VOCAB)] == pytest.approx(1.0)
        assert np.count_nonzero(v) == 1

    def test_space_uses_separator_token_slot(self):
        v = encode_question(" ", self.VOCAB)
        sp_id = self.VOCAB.index["<sp>"]
        assert v[sp_id] == pytest.approx(1.0)

    def test_encode_inputs_shape_and_validation(self):
        samples = [
            Sample(id="a", features=np.zeros(3), question="q", answer=0, answer_name="cut")
        ]
        design = encode_inputs(samples, self.VOCAB, 3)
        assert design.shape == (1, 3 + len(self.VOCAB) + 1)
        with pytest.raises(DataError):
            encode_inputs(samples, self.VOCAB, 7)

    def test_encode_inputs_equals_row_by_row_concatenation(self, mini_stream):
        vocab = mini_stream.vocab
        for t in (1, 2, 3):
            samples = load_task(mini_stream, t).samples
            rows = np.array([
                np.concatenate([s.features, encode_question(s.question, vocab)])
                for s in samples
            ])
            design = encode_inputs(samples, vocab, mini_stream.feature_length)
            assert design.tobytes() == rows.tobytes()
        empty = encode_inputs([], vocab, mini_stream.feature_length)
        assert empty.shape == (0, mini_stream.feature_length + len(vocab) + 1)


def toy_label(i, name="c"):
    return LabelClass(id=i, name=f"{name}{i}")


class TestStudentModel:
    def test_trunk_depends_only_on_seed(self):
        a = StudentModel(3, 4, 6, 8, 8)
        b = StudentModel(3, 4, 6, 8, 8)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)
        c = StudentModel(4, 4, 6, 8, 8)
        assert not np.array_equal(a.w1, c.w1)

    def test_growing_in_stages_matches_growing_at_once(self):
        classes = [toy_label(i) for i in range(5)]
        staged = StudentModel(3, 4, 6, 8, 8)
        staged.grow_head(classes[:2])
        staged.grow_head(classes[2:])
        at_once = StudentModel(3, 4, 6, 8, 8).grow_head(classes)
        np.testing.assert_array_equal(staged.w3, at_once.w3)
        np.testing.assert_array_equal(staged.b3, at_once.b3)
        assert staged.class_ids == at_once.class_ids

    def test_growth_leaves_existing_columns_alone(self):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0), toy_label(1)])
        before = model.w3.copy()
        model.grow_head([toy_label(2)])
        np.testing.assert_array_equal(model.w3[:, :2], before)

    def test_duplicate_class_rejected(self):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0)])
        with pytest.raises(DataError):
            model.grow_head([toy_label(0)])

    def test_forward_shape_and_input_validation(self):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0), toy_label(1)])
        x = np.random.default_rng(0).normal(size=(5, 10))
        assert model.forward(x).shape == (5, 2)
        with pytest.raises(DataError):
            model.forward(np.zeros((5, 3)))

    def test_non_finite_logits_raise(self):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0)])
        model.w3[0, 0] = np.nan
        with pytest.raises(NumericError):
            model.forward(np.zeros((1, 10)))

    def test_flat_roundtrip(self):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0), toy_label(1)])
        flat = model.get_flat()
        twin = StudentModel(9, 4, 6, 8, 8).grow_head([toy_label(0), toy_label(1)])
        twin.set_flat(flat)
        x = np.random.default_rng(1).normal(size=(4, 10))
        np.testing.assert_array_equal(model.forward(x), twin.forward(x))
        with pytest.raises(DataError):
            twin.set_flat(flat[:-1])

    def test_clone_is_independent(self):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0)])
        twin = model.clone()
        before = model.get_flat().copy()
        np.testing.assert_array_equal(twin.get_flat(), before)
        model.w1 += 1.0
        model.w3 += 1.0
        model.class_ids.append(99)
        np.testing.assert_array_equal(twin.get_flat(), before)
        assert twin.class_ids == [0]

    def test_backward_matches_central_differences(self):
        from mtcl.losses import batch_loss

        model = StudentModel(7, 3, 4, 5, 4).grow_head([toy_label(0), toy_label(1), toy_label(2)])
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 7))
        y = np.array([0, 2, 1, 0])
        hard_only = WeightTriple(1.0, 0.0, 0.0)

        def loss_and_dz(logits):
            breakdown, dz = batch_loss(logits, y, hard_only, 1.0, None, None)
            return breakdown.total, dz

        def loss_at(flat):
            model.set_flat(flat)
            return loss_and_dz(model.forward(x))[0]

        flat0 = model.get_flat().copy()
        model.set_flat(flat0)
        logits, cache = model.forward(x, want_cache=True)
        analytic = model.backward(cache, loss_and_dz(logits)[1])
        step = 1e-5
        for k in rng.choice(flat0.size, size=25, replace=False):
            probe = flat0.copy()
            probe[k] += step
            up = loss_at(probe)
            probe[k] -= 2 * step
            down = loss_at(probe)
            numeric = (up - down) / (2 * step)
            assert analytic[k] == pytest.approx(numeric, abs=1e-7)
        model.set_flat(flat0)


class DictStudent:
    """The former dict-of-arrays student, kept as the reference that the
    flat-vector ``StudentModel`` must reproduce bit for bit: one array per
    layer, the head grown one concatenated column per class, a dict of
    gradients and one update per array."""

    def __init__(self, seed, feature_length, question_length, hidden1, hidden2):
        self.seed = seed
        self.feature_length = feature_length
        self.question_length = question_length
        self.hidden1 = hidden1
        self.hidden2 = hidden2
        d = feature_length + question_length
        rng = np.random.default_rng([seed, 0])
        self.w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hidden1))
        self.b1 = np.zeros(hidden1)
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden1), size=(hidden1, hidden2))
        self.b2 = np.zeros(hidden2)
        self.w3 = np.zeros((hidden2, 0))
        self.b3 = np.zeros(0)
        self.class_ids = []
        self.class_names = []

    NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

    @property
    def n_params(self):
        return sum(getattr(self, name).size for name in self.NAMES)

    def grow_head(self, new_classes):
        for c in new_classes:
            rng = np.random.default_rng([self.seed, 1, int(c.id)])
            column = rng.normal(0.0, 0.01, size=self.hidden2)
            self.w3 = np.concatenate([self.w3, column[:, None]], axis=1)
            self.b3 = np.append(self.b3, 0.0)
            self.class_ids.append(int(c.id))
            self.class_names.append(c.name)
        return self

    def forward(self, x):
        h1 = np.tanh(x @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        return h2 @ self.w3 + self.b3, (x, h1, h2)

    def backward(self, cache, dlogits):
        x, h1, h2 = cache
        dh2 = (dlogits @ self.w3.T) * (1.0 - h2 * h2)
        dh1 = (dh2 @ self.w2.T) * (1.0 - h1 * h1)
        return {
            "w1": x.T @ dh1, "b1": dh1.sum(axis=0),
            "w2": h1.T @ dh2, "b2": dh2.sum(axis=0),
            "w3": h2.T @ dlogits, "b3": dlogits.sum(axis=0),
        }

    def apply_gradients(self, grads, learning_rate):
        for name in self.NAMES:
            arr = getattr(self, name)
            arr -= learning_rate * grads[name]

    def get_flat(self):
        return np.concatenate([getattr(self, name).ravel() for name in self.NAMES])

    def clone(self):
        twin = DictStudent(self.seed, self.feature_length, self.question_length,
                           self.hidden1, self.hidden2)
        for name in self.NAMES:
            setattr(twin, name, getattr(self, name).copy())
        twin.class_ids = list(self.class_ids)
        twin.class_names = list(self.class_names)
        return twin


class TestFlatStudentAgainstReference:
    def steps(self, model, reference, rng, count):
        """Random SGD steps on both models, comparing every result's bytes."""
        width = model.feature_length + model.question_length
        for _ in range(count):
            x = rng.normal(0.0, 1.5, size=(int(rng.integers(1, 12)), width))
            logits, cache = model.forward(x, want_cache=True)
            want_logits, want_cache = reference.forward(x)
            assert logits.tobytes() == want_logits.tobytes()
            assert model.forward(x).tobytes() == want_logits.tobytes()
            dlogits = rng.normal(0.0, 0.3, size=logits.shape)
            grads = model.backward(cache, dlogits)
            want = reference.backward(want_cache, dlogits)
            assert grads.tobytes() == np.concatenate(
                [want[name].ravel() for name in DictStudent.NAMES]
            ).tobytes()
            lr = float(rng.uniform(0.01, 0.2))
            model.apply_gradients(grads, lr)
            reference.apply_gradients(want, lr)
            assert model.get_flat().tobytes() == reference.get_flat().tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical_through_growth_steps_and_clones(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        dims = (seed, int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        model = StudentModel(*dims)
        reference = DictStudent(*dims)
        classes = [toy_label(int(i)) for i in rng.permutation(40)[:9]]
        # The first task's classes in one step, later ones in several.
        model.grow_head(classes[:4])
        reference.grow_head(classes[:4])
        self.steps(model, reference, rng, 6)
        for group in (classes[4:5], classes[5:9]):
            frozen, frozen_reference = model.clone(), reference.clone()
            for c in group:
                model.grow_head([c])
            reference.grow_head(group)
            assert model.class_ids == reference.class_ids
            self.steps(model, reference, rng, 6)
            self.steps(frozen, frozen_reference, rng, 2)
        trace = WeightTrace()
        save_checkpoint(tmp_path / "flat.bin", model, 3, trace, "d")
        save_checkpoint(tmp_path / "dict.bin", reference, 3, trace, "d")
        assert (tmp_path / "flat.bin").read_bytes() == (tmp_path / "dict.bin").read_bytes()
        restored, _ = load_checkpoint(tmp_path / "flat.bin")
        assert restored.get_flat().tobytes() == reference.get_flat().tobytes()

    def test_backward_results_never_alias(self):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0), toy_label(1)])
        x = np.random.default_rng(5).normal(size=(4, 10))
        logits, cache = model.forward(x, want_cache=True)
        first = model.backward(cache, np.ones_like(logits))
        assert first.shape == (model.n_params,)
        kept = first.copy()
        second = model.backward(cache, -np.ones_like(logits))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, model.w1)
        np.testing.assert_array_equal(first, kept)
        model.apply_gradients(second, 0.1)
        np.testing.assert_array_equal(first, kept)


class TestPrevModelTeacher:
    def make_model(self):
        names = ["cut", "idle", "grasp"]
        vocab = build_vocabulary(names)
        classes = [LabelClass(id=i, name=n) for i, n in enumerate(names)]
        model = StudentModel(3, 2, len(vocab) + 1, 8, 8).grow_head(classes)
        return model, vocab

    def sample(self):
        return Sample(
            id="s", features=np.array([0.3, -0.1]), question="what", answer=0,
            answer_name="cut",
        )

    def samples(self):
        rng = np.random.default_rng(4)
        return [
            Sample(id=f"s{i}", features=rng.normal(size=2), question=q,
                   answer=0, answer_name="cut")
            for i, q in enumerate(["what", "which tool", "", "cut it", "idle?"])
        ]

    def test_scores_the_design_matrix_with_one_forward(self):
        model, vocab = self.make_model()
        teacher = PrevModelTeacher(model)
        inputs = encode_inputs(self.samples(), vocab, 2)
        table = teacher.score_inputs(inputs)
        assert table.tobytes() == model.forward(inputs).tobytes()

    def test_counts_one_query_per_row(self):
        model, vocab = self.make_model()
        teacher = PrevModelTeacher(model)
        inputs = encode_inputs(self.samples(), vocab, 2)
        teacher.score_inputs(inputs)
        assert teacher.query_count == len(inputs)
        teacher.score_inputs(inputs[:2])
        assert teacher.query_count == len(inputs) + 2

    def test_class_names_are_the_frozen_head(self):
        model, _ = self.make_model()
        teacher = PrevModelTeacher(model.clone())
        model.grow_head([LabelClass(id=3, name="idle hand")])
        assert teacher.class_names == ("cut", "idle", "grasp")
        assert PrevModelTeacher(model).class_names == ("cut", "idle", "grasp", "idle hand")

    def test_scores_no_samples_itself(self):
        model, _ = self.make_model()
        teacher = PrevModelTeacher(model)
        # No path of its own from samples to a design matrix.
        assert "score_table" not in vars(PrevModelTeacher)
        assert not hasattr(teacher, "vocab")
        with pytest.raises(NotImplementedError):
            teacher.query(self.sample(), teacher.class_names)
        assert teacher.query_count == 0

    def test_snapshot_does_not_track_live_model(self):
        model, vocab = self.make_model()
        teacher = PrevModelTeacher(model.clone())
        inputs = encode_inputs([self.sample()], vocab, 2)
        before = teacher.score_inputs(inputs)
        model.w3 += 0.5
        after = teacher.score_inputs(inputs)
        np.testing.assert_array_equal(before, after)


class TestTrainSettings:
    def test_defaults(self):
        s = TrainSettings()
        assert (s.learning_rate, s.epochs, s.batch_size) == (0.05, 30, 32)

    def test_violations_collected(self):
        with pytest.raises(ConfigError) as info:
            TrainSettings(learning_rate=0.0, epochs=0, mode="magic")
        message = str(info.value)
        for fragment in ("learning_rate", "epochs", "mode"):
            assert fragment in message


def reference_supervised_loop(manifest, task, settings):
    """Plain single-loss SGD written independently of the trainer."""
    vocab = manifest.vocab
    model = StudentModel(
        settings.seed, manifest.feature_length, len(vocab) + 1,
        settings.hidden1, settings.hidden2,
    )
    model.grow_head(task.classes)
    position = {name: i for i, name in enumerate(model.class_names)}
    inputs = encode_inputs(task.samples, vocab, manifest.feature_length)
    labels = np.array([position[s.answer_name] for s in task.samples])
    rng = np.random.default_rng([settings.seed, 2, 1])
    n = len(task.samples)
    for _ in range(settings.epochs):
        order = rng.permutation(n)
        for start in range(0, n, settings.batch_size):
            idx = order[start : start + settings.batch_size]
            logits, cache = model.forward(inputs[idx], want_cache=True)
            dz = np.zeros_like(logits)
            for i, row in enumerate(idx):
                z = logits[i] - logits[i].max()
                p = np.exp(z)
                p = p / p.sum()
                p[labels[row]] -= 1.0
                dz[i] += 1.0 * p / len(idx)
            model.apply_gradients(model.backward(cache, dz), settings.learning_rate)
    return model


class TestTrainTask:
    def test_plain_fine_tuning_matches_reference_loop(self, mini_stream):
        task = load_task(mini_stream, 1)
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(task.classes)
        ledger = ImbalanceLedger().update(task)
        bystander = NoisyOracleTeacher(seed=1, accuracy=0.9)
        train_task(
            student, None, bystander, task, ledger, settings,
            standard_weights(), mini_stream.vocab, WeightTrace(),
        )
        reference = reference_supervised_loop(mini_stream, task, settings)
        np.testing.assert_array_equal(student.get_flat(), reference.get_flat())
        assert bystander.query_count == 0

    def test_first_task_pins_weights_to_hard_labels_only(self, mini_stream):
        task = load_task(mini_stream, 1)
        settings = TrainSettings(seed=5, mode="ours", **FAST)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(task.classes)
        trace = WeightTrace()
        train_task(
            student, None, NoisyOracleTeacher(seed=1, accuracy=0.9), task,
            ImbalanceLedger().update(task), settings, standard_weights(),
            mini_stream.vocab, trace,
        )
        assert latest_triple(trace).alpha == 1.0
        assert latest_triple(trace).beta == 0.0
        assert len(trace.rows) == 1

    def continue_to_second_task(self, mini_stream, settings, weight_cfg, trace,
                                observer=None):
        task1 = load_task(mini_stream, 1)
        task2 = load_task(mini_stream, 2)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(task1.classes)
        ledger = ImbalanceLedger().update(task1)
        train_task(
            student, None, None, task1, ledger, settings, weight_cfg,
            mini_stream.vocab, WeightTrace(),
        )
        prev = PrevModelTeacher(student.clone())
        llm = NoisyOracleTeacher(seed=2, accuracy=0.8)
        known = set(student.class_ids)
        student.grow_head([c for c in task2.classes if c.id not in known])
        ledger.update(task2)
        train_task(
            student, prev, llm, task2, ledger, settings, weight_cfg,
            mini_stream.vocab, trace, observer=observer,
        )
        return student, prev, llm

    @pytest.mark.parametrize("mode, per_batch, tables",
                             [("ours", 3, 2), ("lwf", 2, 1), ("ft", 1, 0)])
    def test_softmax_runs_per_batch_and_once_per_kept_table(
        self, mini_stream, monkeypatch, mode, per_batch, tables
    ):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return softened_softmax(*args, **kwargs)

        monkeypatch.setattr("mtcl.losses.softened_softmax", counting)
        monkeypatch.setattr("mtcl.engine.softened_softmax", counting, raising=False)
        settings = TrainSettings(seed=5, mode=mode, **FAST)
        trace = WeightTrace()
        self.continue_to_second_task(mini_stream, settings, standard_weights(), trace)
        weights = latest_triple(trace)
        assert (weights.beta > 0.0) + (weights.chi > 0.0) == tables
        batches = [
            settings.epochs * math.ceil(len(load_task(mini_stream, t).samples)
                                        / settings.batch_size)
            for t in (1, 2)
        ]
        # Task 1 trains on hard labels alone: one softmax per batch.
        assert len(calls) == batches[0] + per_batch * batches[1] + tables

    def test_non_finite_teacher_table_stops_before_the_first_batch(self, mini_stream):
        class Broken(NoisyOracleTeacher):
            def score_table(self, samples, mask_names):
                table = super().score_table(samples, mask_names)
                table[[s.id.endswith("7") for s in samples], -1] = np.nan
                return table

        settings = TrainSettings(seed=5, mode="ours", **FAST)
        task1, task2 = load_task(mini_stream, 1), load_task(mini_stream, 2)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(classes_up_to(mini_stream, 2))
        prev = PrevModelTeacher(student.clone())
        steps = []
        forward = student.forward

        def counted(*args, **kwargs):
            steps.append(1)
            return forward(*args, **kwargs)

        student.forward = counted
        before = student.get_flat()
        with pytest.raises(NumericError):
            train_task(
                student, prev, Broken(seed=2, accuracy=0.8), task2,
                ImbalanceLedger().update(task1).update(task2), settings,
                standard_weights(), mini_stream.vocab, WeightTrace(),
            )
        assert steps == []
        np.testing.assert_array_equal(student.get_flat(), before)

    def test_adaptive_mode_records_measurements(self, mini_stream):
        settings = TrainSettings(seed=5, mode="ours", **FAST)
        trace = WeightTrace()
        _, prev, llm = self.continue_to_second_task(
            mini_stream, settings, standard_weights(), trace
        )
        assert len(trace.rows) == 1
        row = trace.rows[0]
        assert 0.0 <= row["acc_prev"] <= 1.0
        assert 0.0 <= row["acc_llm"] <= 1.0
        assert row["ir"] > 1.0
        assert row["alpha"] == pytest.approx(0.2)
        task2 = load_task(mini_stream, 2)
        assert llm.query_count == prev.query_count == len(task2.samples)

    def test_prev_logits_are_the_frozen_model_on_the_training_matrix(self, mini_stream):
        settings = TrainSettings(seed=5, mode="lwf", **FAST)
        task1, task2 = load_task(mini_stream, 1), load_task(mini_stream, 2)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(task1.classes)
        frozen = student.clone()
        student.grow_head([c for c in task2.classes if c.id not in student.class_ids])
        observed = []
        train_task(
            student, PrevModelTeacher(frozen), None, task2,
            ImbalanceLedger().update(task1).update(task2), settings, standard_weights(),
            mini_stream.vocab, WeightTrace(), observer=observed.append,
        )
        expected = frozen.forward(
            encode_inputs(task2.samples, mini_stream.vocab, mini_stream.feature_length)
        )
        row_of = {s.id: i for i, s in enumerate(task2.samples)}
        for ctx in observed:
            rows = [row_of[sid] for sid in ctx["sample_ids"]]
            assert ctx["prev_logits"].tobytes() == expected[rows].tobytes()

    def test_single_teacher_mode_never_touches_general_teacher(self, mini_stream):
        settings = TrainSettings(seed=5, mode="lwf", **FAST)
        trace = WeightTrace()
        observed = []
        _, prev, llm = self.continue_to_second_task(
            mini_stream, settings, standard_weights(), trace, observer=observed.append
        )
        assert llm.query_count == 0
        assert prev.query_count > 0
        triple = latest_triple(trace)
        assert triple.beta == pytest.approx(0.8)
        assert triple.chi == 0.0
        # The step is read from the task itself.
        step = load_task(mini_stream, 2).task_index
        assert trace.rows[-1]["t"] == step
        assert observed and {ctx["t"] for ctx in observed} == {step}

    def test_adaptive_mode_requires_both_teachers(self, mini_stream):
        task2 = load_task(mini_stream, 2)
        settings = TrainSettings(seed=5, mode="ours", **FAST)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(classes_up_to(mini_stream, 2))
        ledger = ImbalanceLedger().update(task2)
        with pytest.raises(ConfigError):
            train_task(
                student, None, None, task2, ledger, settings, standard_weights(),
                mini_stream.vocab, WeightTrace(),
            )

    def test_missing_head_class_rejected(self, mini_stream):
        task = load_task(mini_stream, 1)
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        )
        with pytest.raises(DataError, match="grow"):
            train_task(
                student, None, None, task, ImbalanceLedger().update(task),
                settings, standard_weights(), mini_stream.vocab, WeightTrace(),
            )

    def test_head_must_extend_previous_model_head(self, mini_stream):
        settings = TrainSettings(seed=5, mode="ours", **FAST)
        task1 = load_task(mini_stream, 1)
        task2 = load_task(mini_stream, 2)
        old = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(task1.classes)
        prev = PrevModelTeacher(old)
        llm = NoisyOracleTeacher(seed=2, accuracy=0.8)
        # Every class is in the head, but the previous model's are not its prefix.
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(list(reversed(classes_up_to(mini_stream, 2))))
        ledger = ImbalanceLedger().update(task1).update(task2)
        with pytest.raises(DataError, match="does not extend"):
            train_task(
                student, prev, llm, task2, ledger, settings, standard_weights(),
                mini_stream.vocab, WeightTrace(),
            )
        assert prev.query_count == llm.query_count == 0

    def test_observer_sees_every_batch(self, mini_stream):
        task = load_task(mini_stream, 1)
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(task.classes)
        seen = []
        train_task(
            student, None, None, task, ImbalanceLedger().update(task), settings,
            standard_weights(), mini_stream.vocab, WeightTrace(),
            observer=seen.append,
        )
        per_epoch = math.ceil(len(task.samples) / settings.batch_size)
        assert len(seen) == settings.epochs * per_epoch
        first = seen[0]
        assert first["t"] == 1 and first["epoch"] == 0 and first["batch"] == 0
        assert len(first["sample_ids"]) == len(first["labels"])
        assert first["student_logits"].shape[0] == len(first["labels"])
        assert first["prev_logits"] is None
        assert math.isfinite(first["breakdown"].total)


def rigged_constant_model(n_classes, favored, vocab, feature_length=2):
    names = [f"k{i}" for i in range(n_classes)]
    classes = [LabelClass(id=i, name=n) for i, n in enumerate(names)]
    model = StudentModel(0, feature_length, len(vocab) + 1, 4, 4).grow_head(classes)
    model.w3[:] = 0.0
    model.b3[:] = 0.0
    model.b3[favored] = 1.0
    return model, classes


def metrics_oracle(predicted, truth):
    """Accuracy and macro F1 with plain counting loops."""
    n = len(truth)
    acc = sum(1 for p, t in zip(predicted, truth) if p == t) / n
    f1s = []
    for c in sorted(set(truth)):
        tp = sum(1 for p, t in zip(predicted, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(predicted, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(predicted, truth) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return acc, sum(f1s) / len(f1s)


def evaluated(model, dataset, vocab):
    return evaluate(model, dataset, encode_inputs(dataset.samples, vocab, model.feature_length))


class TestEvaluate:
    def test_constant_predictor_on_balanced_pair(self):
        vocab = build_vocabulary(["k0", "k1"])
        model, classes = rigged_constant_model(2, favored=0, vocab=vocab)
        samples = [
            Sample(id=f"s{i}", features=np.zeros(2), question="q",
                   answer=i % 2, answer_name=f"k{i % 2}")
            for i in range(4)
        ]
        dataset = TaskDataset(task_index=1, samples=samples, classes=classes)
        accuracy, macro_f1 = evaluated(model, dataset, vocab)
        assert accuracy == pytest.approx(0.5)
        assert macro_f1 == pytest.approx(1.0 / 3.0)

    def test_matches_independent_metric_oracle(self, mini_stream):
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        task = load_task(mini_stream, 1)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(task.classes)
        train_task(
            student, None, None, task, ImbalanceLedger().update(task), settings,
            standard_weights(), mini_stream.vocab, WeightTrace(),
        )
        test = load_task(mini_stream, 1, split="test")
        inputs = encode_inputs(test.samples, mini_stream.vocab, mini_stream.feature_length)
        accuracy, macro_f1 = evaluate(student, test, inputs)
        predicted = [
            student.class_ids[int(k)] for k in student.forward(inputs).argmax(axis=1)
        ]
        truth = [s.answer for s in test.samples]
        acc, f1 = metrics_oracle(predicted, truth)
        assert accuracy == pytest.approx(acc, abs=1e-12)
        assert macro_f1 == pytest.approx(f1, abs=1e-12)

    def test_f1_averages_only_classes_present(self):
        vocab = build_vocabulary(["k0", "k1", "k2"])
        model, classes = rigged_constant_model(3, favored=1, vocab=vocab)
        samples = [
            Sample(id=f"s{i}", features=np.zeros(2), question="q",
                   answer=1, answer_name="k1")
            for i in range(3)
        ]
        dataset = TaskDataset(task_index=1, samples=samples, classes=classes)
        accuracy, macro_f1 = evaluated(model, dataset, vocab)
        assert accuracy == 1.0
        assert macro_f1 == 1.0

    def test_uncovered_class_rejected(self):
        vocab = build_vocabulary(["k0", "k1"])
        model, classes = rigged_constant_model(1, favored=0, vocab=vocab)
        stranger = LabelClass(id=5, name="k5")
        samples = [
            Sample(id="s", features=np.zeros(2), question="q", answer=5, answer_name="k5")
        ]
        dataset = TaskDataset(task_index=1, samples=samples, classes=[stranger])
        with pytest.raises(DataError):
            evaluated(model, dataset, vocab)

    def test_empty_dataset_rejected(self):
        vocab = build_vocabulary(["k0"])
        model, classes = rigged_constant_model(1, favored=0, vocab=vocab)
        dataset = TaskDataset(task_index=1, samples=[], classes=classes)
        with pytest.raises(DataError):
            evaluated(model, dataset, vocab)


class TestRunContinual:
    def run(self, manifest, mode, run_dir=None, **kw):
        settings = TrainSettings(seed=5, mode=mode, **FAST)
        llm = NoisyOracleTeacher(seed=5, accuracy=0.8)
        return (
            run_continual(
                manifest, settings, standard_weights(),
                llm_teacher=llm, run_dir=run_dir, **kw,
            ),
            llm,
        )

    def test_row_layout_and_average(self, mini_stream):
        (rows, trace, student), _ = self.run(mini_stream, "ours")
        by_t = {}
        for row in rows:
            by_t.setdefault(row.t, []).append(row)
        assert sorted(by_t) == [1, 2, 3]
        for t, step_rows in by_t.items():
            assert [r.dataset for r in step_rows] == [
                f"task{i}" for i in range(1, t + 1)
            ] + [AVG_DATASET]
            avg = step_rows[-1]
            assert avg.accuracy == pytest.approx(
                np.mean([r.accuracy for r in step_rows[:-1]]), abs=1e-12
            )
            assert avg.macro_f1 == pytest.approx(
                np.mean([r.macro_f1 for r in step_rows[:-1]]), abs=1e-12
            )
        assert student.n_classes == len(mini_stream.labels)

    def test_deterministic_across_repeats(self, mini_stream):
        (rows_a, _, _), _ = self.run(mini_stream, "ours")
        (rows_b, _, _), _ = self.run(mini_stream, "ours")
        assert rows_a == rows_b

    def test_each_split_is_encoded_once(self, mini_stream, monkeypatch):
        # The previous model scores the matrix train_task encoded; nothing
        # encodes a split a second time for it.
        encoded = []
        real = encode_inputs

        def counted(samples, *args):
            encoded.append([s.id for s in samples])
            return real(samples, *args)

        monkeypatch.setattr("mtcl.engine.encode_inputs", counted)
        self.run(mini_stream, "ours")
        assert encoded == [
            [s.id for s in load_task(mini_stream, t, split).samples]
            for t in (1, 2, 3)
            for split in ("train", "test")
        ]

    def test_fine_tuning_never_queries_the_general_teacher(self, mini_stream):
        (rows, trace, _), llm = self.run(mini_stream, "ft")
        assert llm.query_count == 0
        assert all(row["alpha"] == 1.0 for row in trace.rows)

    def test_artifacts_written_and_reload(self, mini_stream, tmp_path):
        (rows, trace, student), _ = self.run(
            mini_stream, "ours", run_dir=tmp_path, config_digest="abc123"
        )
        for t in (1, 2, 3):
            assert (tmp_path / f"checkpoint_t{t}.bin").exists()
        reread = read_metrics_csv(tmp_path / "metrics.csv")
        assert reread == rows
        model, header = load_checkpoint(tmp_path / "checkpoint_t3.bin")
        assert header["task_index"] == 3
        assert header["config_digest"] == "abc123"
        assert header["class_names"] == student.class_names
        assert len(header["trace_rows"]) == len(trace.rows)
        test = load_task(mini_stream, 3, split="test")
        inputs = encode_inputs(test.samples, mini_stream.vocab, mini_stream.feature_length)
        np.testing.assert_array_equal(model.forward(inputs), student.forward(inputs))


class TestCheckpointFormat:
    def test_roundtrip_preserves_parameters_exactly(self, tmp_path):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0), toy_label(1)])
        model.w1 += 0.123456789
        trace = WeightTrace()
        trace.record(1, WeightTriple(1.0, 0.0, 0.0))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, 1, trace, "digest")
        restored, header = load_checkpoint(path)
        np.testing.assert_array_equal(restored.get_flat(), model.get_flat())
        assert restored.class_ids == model.class_ids
        assert header["seed"] == 3

    def test_header_layout_is_pinned(self, tmp_path):
        model = StudentModel(3, 4, 6, 8, 7).grow_head([toy_label(0)])
        trace = WeightTrace()
        trace.record(1, WeightTriple(1.0, 0.0, 0.0))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, 1, trace, "digest")
        _, header = load_checkpoint(path)
        assert list(header) == [
            "task_index", "seed", "feature_length", "question_length", "hidden1",
            "hidden2", "class_ids", "class_names", "config_digest", "trace_rows",
        ]
        assert [header[key] for key in list(header)[:6]] == [1, 3, 4, 6, 8, 7]
        assert list(header["trace_rows"][0]) == [
            "t", "epoch", "acc_prev", "acc_llm", "ir", "beta_ds", "chi_ds",
            "beta_di", "chi_di", "alpha", "beta", "chi",
        ]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0)])
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, 1, WeightTrace(), "")
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_no_leftover_temp_file(self, tmp_path):
        model = StudentModel(3, 4, 6, 8, 8).grow_head([toy_label(0)])
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, 1, WeightTrace(), "")
        assert list(tmp_path.iterdir()) == [path]


class TestMetricsCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        from mtcl.engine import MetricsRow

        rows = [
            MetricsRow(t=1, dataset="task1", accuracy=1.0 / 3.0, macro_f1=0.7531),
            MetricsRow(t=1, dataset=AVG_DATASET, accuracy=0.1 + 0.2, macro_f1=0.0),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        assert read_metrics_csv(path) == rows
        header = path.read_text().splitlines()[0]
        assert header == "t,dataset,accuracy,macro_f1"
