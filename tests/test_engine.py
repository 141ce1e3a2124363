"""Training engine: model growth, task loop, evaluation, checkpoints."""

import dataclasses
import gc
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import assert_held_out_matches_reload, classes_up_to, dataset_of
from conftest import held_out_against_reload, latest_triple, read_events, read_metrics_csv

from mtcl.bridge import build_vocabulary
from mtcl.engine import (
    AVG_DATASET,
    PrevModelTeacher,
    RunDir,
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
    PIECE_BYTES,
    SPLITS,
    GeneratorConfig,
    ImbalanceLedger,
    LabelClass,
    Sample,
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
        dataset = dataset_of(1, [
            Sample(id="a", features=np.zeros(3), question="q", answer=0, answer_name="cut")
        ], [LabelClass(id=0, name="cut")])
        design = encode_inputs(dataset, self.VOCAB, 3)
        assert design.shape == (1, 3 + len(self.VOCAB) + 1)
        with pytest.raises(DataError):
            encode_inputs(dataset, self.VOCAB, 7)

    def test_encode_inputs_equals_row_by_row_concatenation(self, mini_stream):
        vocab = mini_stream.vocab
        for t in (1, 2, 3):
            task = load_task(mini_stream, t)
            rows = np.array([
                np.concatenate([s.features, encode_question(s.question, vocab)])
                for s in task.samples
            ])
            design = encode_inputs(task, vocab, mini_stream.feature_length)
            assert design.tobytes() == rows.tobytes()
        empty = encode_inputs(dataset_of(1, [], task.classes, mini_stream.feature_length),
                              vocab, mini_stream.feature_length)
        assert empty.shape == (0, mini_stream.feature_length + len(vocab) + 1)

    def test_a_loaded_split_is_encoded_in_the_buffer_its_features_view(self, mini_stream):
        """``encode_inputs`` fills a loaded train split's own design buffer,
        assembles a loaded test split (which has none) into a new matrix,
        and gives the bytes that copying the features into a new matrix
        gives."""
        vocab, feature_length = mini_stream.vocab, mini_stream.feature_length
        for entry in mini_stream.tasks:
            for split in SPLITS:
                task = load_task(mini_stream, entry.index, split)
                design = encode_inputs(task, vocab, feature_length)
                if split == "train":
                    assert design is task.design
                    assert np.shares_memory(design, task.features)
                else:
                    assert task.design is None
                    assert not np.shares_memory(design, task.features)
                copied = dataclasses.replace(task, features=np.array(task.features),
                                             design=None)
                allocated = encode_inputs(copied, vocab, feature_length)
                assert not np.shares_memory(allocated, task.features)
                assert allocated.tobytes() == design.tobytes()

    def test_a_split_holds_each_question_text_once(self, mini_stream):
        for entry in mini_stream.tasks:
            for split in SPLITS:
                questions = load_task(mini_stream, entry.index, split).questions
                assert len({id(q) for q in questions}) == len(set(questions)) < len(questions)

    def test_a_loaded_split_holds_its_features_once(self, tmp_path):
        """Loading and encoding a train split with wide features peaks below
        its block and its design matrix together: the block's values are
        read straight into the design matrix, not held beside it.  A test
        split holds its features alone, read-only, in a buffer no wider
        than them, and loading it peaks below its block twice over."""
        cfg = GeneratorConfig(tasks=1, classes_per_task=3, feature_length=512,
                              samples_per_task=300)
        manifest = load_manifest(generate_synthetic_stream(cfg, seed=3, out_dir=tmp_path))
        _, block = manifest.tasks[0].splits["train"]
        _, test_block = manifest.tasks[0].splits["test"]
        tracemalloc.start()
        try:
            design = encode_inputs(load_task(manifest, 1), manifest.vocab, cfg.feature_length)
            peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            test = load_task(manifest, 1, "test")
            test_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert block.bytes == len(design) * cfg.feature_length * 8
        assert peak < block.bytes + design.nbytes
        assert test.design is None
        assert not test.features.flags.writeable
        assert test.features.nbytes == test.features.base.nbytes == test_block.bytes
        assert test_peak < 2 * test_block.bytes

    def test_encoding_a_loaded_split_allocates_far_less_than_its_question_columns(
            self, tmp_path):
        """The question columns are filled in place without a temporary as
        large as them: gathered in row pieces of at most ``PIECE_BYTES``."""
        cfg = GeneratorConfig(tasks=1, classes_per_task=3, feature_length=4,
                              samples_per_task=12000)
        manifest = load_manifest(generate_synthetic_stream(cfg, seed=3, out_dir=tmp_path))
        task = load_task(manifest, 1)
        columns = len(task.ids) * (len(manifest.vocab) + 1) * 8
        tracemalloc.start()
        try:
            design = encode_inputs(task, manifest.vocab, cfg.feature_length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert design is task.design
        assert columns > 8 * PIECE_BYTES
        assert peak < columns / 4


def toy_label(i, name="c"):
    return LabelClass(id=i, name=f"{name}{i}")


def head_ids(model):
    return [c.id for c in model.classes]


def head_names(model):
    return [c.name for c in model.classes]


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
        assert head_ids(staged) == head_ids(at_once)

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
        model.classes.append(toy_label(99))
        np.testing.assert_array_equal(twin.get_flat(), before)
        assert head_ids(twin) == [0]

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
        self.classes = []

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
            self.classes.append(LabelClass(int(c.id), c.name))
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
        twin.classes = list(self.classes)
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
            assert head_ids(model) == head_ids(reference)
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

    def dataset(self):
        rng = np.random.default_rng(4)
        return dataset_of(1, [
            Sample(id=f"s{i}", features=rng.normal(size=2), question=q,
                   answer=0, answer_name="cut")
            for i, q in enumerate(["what", "which tool", "", "cut it", "idle?"])
        ], [LabelClass(id=0, name="cut")])

    def test_scores_the_design_matrix_with_one_forward(self):
        model, vocab = self.make_model()
        teacher = PrevModelTeacher(model)
        inputs = encode_inputs(self.dataset(), vocab, 2)
        table = teacher.score_inputs(inputs)
        assert table.tobytes() == model.forward(inputs).tobytes()

    def test_counts_one_query_per_row(self):
        model, vocab = self.make_model()
        teacher = PrevModelTeacher(model)
        inputs = encode_inputs(self.dataset(), vocab, 2)
        teacher.score_inputs(inputs)
        assert teacher.query_count == len(inputs)
        teacher.score_inputs(inputs[:2])
        assert teacher.query_count == len(inputs) + 2

    def test_class_names_are_the_frozen_head(self):
        model, _ = self.make_model()
        teacher = PrevModelTeacher(model.clone())
        model.grow_head([LabelClass(id=3, name="idle hand")])
        assert head_names(teacher.model) == ["cut", "idle", "grasp"]
        assert head_names(PrevModelTeacher(model).model) == ["cut", "idle", "grasp", "idle hand"]

    def test_scores_no_samples_itself(self):
        model, _ = self.make_model()
        teacher = PrevModelTeacher(model)
        # No path of its own from samples to a design matrix.
        assert "score_table" not in vars(PrevModelTeacher)
        assert not hasattr(teacher, "vocab")
        with pytest.raises(NotImplementedError):
            teacher.query(self.sample(), head_names(teacher.model))
        assert teacher.query_count == 0

    def test_snapshot_does_not_track_live_model(self):
        model, vocab = self.make_model()
        teacher = PrevModelTeacher(model.clone())
        inputs = encode_inputs(dataset_of(1, [self.sample()], [LabelClass(id=0, name="cut")]),
                               vocab, 2)
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
    position = {name: i for i, name in enumerate(head_names(model))}
    inputs = encode_inputs(task, vocab, manifest.feature_length)
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
        known = set(head_ids(student))
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
        student.grow_head([c for c in task2.classes if c.id not in head_ids(student)])
        observed = []
        train_task(
            student, PrevModelTeacher(frozen), None, task2,
            ImbalanceLedger().update(task1).update(task2), settings, standard_weights(),
            mini_stream.vocab, WeightTrace(), observer=observed.append,
        )
        expected = frozen.forward(
            encode_inputs(task2, mini_stream.vocab, mini_stream.feature_length)
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

    def test_single_teacher_mode_requires_a_previous_model(self, mini_stream):
        task2 = load_task(mini_stream, 2)
        settings = TrainSettings(seed=5, mode="lwf", **FAST)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(classes_up_to(mini_stream, 2))
        with pytest.raises(ConfigError, match="single-teacher distillation needs a previous"):
            train_task(
                student, None, None, task2, ImbalanceLedger().update(task2), settings,
                standard_weights(), mini_stream.vocab, WeightTrace(),
            )

    def test_task_without_training_samples_rejected(self, mini_stream):
        task = load_task(mini_stream, 1)
        empty = dataset_of(1, [], task.classes, mini_stream.feature_length)
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        ).grow_head(task.classes)
        with pytest.raises(DataError, match="task 1 has no training samples"):
            train_task(
                student, None, None, empty, ImbalanceLedger(), settings,
                standard_weights(), mini_stream.vocab, WeightTrace(),
            )

    def test_missing_head_class_rejected(self, mini_stream):
        task = load_task(mini_stream, 1)
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        )
        with pytest.raises(DataError, match="does not cover"):
            train_task(
                student, None, None, task, ImbalanceLedger().update(task),
                settings, standard_weights(), mini_stream.vocab, WeightTrace(),
            )

    def head_with(self, mini_stream, task, first):
        """A student whose head is the task's classes with the first replaced."""
        return StudentModel(
            5, mini_stream.feature_length, len(mini_stream.vocab) + 1, 16, 16,
        ).grow_head([first, *task.classes[1:]])

    def test_class_found_by_name_under_another_id_rejected(self, mini_stream):
        # Labels are found by id: a head that holds the class's name under
        # another id does not hold the class.
        task = load_task(mini_stream, 1)
        first = task.classes[0]
        student = self.head_with(mini_stream, task, LabelClass(id=99, name=first.name))
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        with pytest.raises(DataError, match=re.escape(f"does not cover classes [{first.name!r}]")):
            train_task(
                student, None, None, task, ImbalanceLedger().update(task),
                settings, standard_weights(), mini_stream.vocab, WeightTrace(),
            )

    def test_head_id_with_another_name_rejected(self, mini_stream):
        task = load_task(mini_stream, 1)
        first = task.classes[0]
        student = self.head_with(mini_stream, task, LabelClass(id=first.id, name="other"))
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        with pytest.raises(DataError, match=re.escape(
                f"names class ids differently: {first.id} ('other' in the head, "
                f"{first.name!r} in the data)")):
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
    return evaluate(model, model.head_columns(dataset),
                    encode_inputs(dataset, vocab, model.feature_length))


class TestEvaluate:
    def test_constant_predictor_on_balanced_pair(self):
        vocab = build_vocabulary(["k0", "k1"])
        model, classes = rigged_constant_model(2, favored=0, vocab=vocab)
        samples = [
            Sample(id=f"s{i}", features=np.zeros(2), question="q",
                   answer=i % 2, answer_name=f"k{i % 2}")
            for i in range(4)
        ]
        dataset = dataset_of(1, samples, classes)
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
        inputs = encode_inputs(test, mini_stream.vocab, mini_stream.feature_length)
        accuracy, macro_f1 = evaluate(student, student.head_columns(test), inputs)
        predicted = [
            head_ids(student)[int(k)] for k in student.forward(inputs).argmax(axis=1)
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
        dataset = dataset_of(1, samples, classes)
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
        dataset = dataset_of(1, samples, [stranger])
        with pytest.raises(DataError):
            evaluated(model, dataset, vocab)

    def test_empty_dataset_rejected(self):
        vocab = build_vocabulary(["k0"])
        model, classes = rigged_constant_model(1, favored=0, vocab=vocab)
        dataset = dataset_of(1, [], classes, model.feature_length)
        with pytest.raises(DataError, match="got 0 truths for 0 rows"):
            evaluated(model, dataset, vocab)

    def test_truth_of_another_length_rejected(self):
        vocab = build_vocabulary(["k0"])
        model, classes = rigged_constant_model(1, favored=0, vocab=vocab)
        with pytest.raises(DataError, match="got 2 truths for 3 rows"):
            evaluate(model, np.zeros(2, dtype=np.int64), np.zeros((3, 2 + len(vocab) + 1)))

    def test_truth_taken_at_load_scores_as_the_final_heads(self, mini_stream):
        """Each held-out split's truth, taken when it loads, gives after the
        head has grown the same (accuracy, macro F1), bit for bit, as the
        truth taken through the final head."""
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        student = StudentModel(
            settings.seed, mini_stream.feature_length, len(mini_stream.vocab) + 1,
            settings.hidden1, settings.hidden2,
        )
        ledger, trace, held_out = ImbalanceLedger(), WeightTrace(), []
        for t in (1, 2, 3):
            task = load_task(mini_stream, t)
            student.grow_head([c for c in task.classes if c not in student.classes])
            train_task(student, None, None, task, ledger.update(task), settings,
                       standard_weights(), mini_stream.vocab, trace)
            test = load_task(mini_stream, t, split="test")
            inputs = encode_inputs(test, mini_stream.vocab, mini_stream.feature_length)
            held_out.append((test, student.head_columns(test), inputs, student.n_classes))
        assert held_out[0][3] < held_out[1][3] < student.n_classes
        for test, truth, inputs, _ in held_out:
            final_truth = student.head_columns(test)
            np.testing.assert_array_equal(truth, final_truth)
            assert evaluate(student, truth, inputs) == evaluate(student, final_truth, inputs)


class TestPerClassTables:
    """Training labels and evaluation truth are taken through per-class
    tables; on a head whose class ids are out of order and include 2**70
    they equal the per-sample formulas they replaced, kept here as oracles."""

    HEAD = [LabelClass(id=2**70, name="cut"), LabelClass(id=7, name="idle"),
            LabelClass(id=0, name="grasp"), LabelClass(id=3, name="wait")]

    def dataset(self):
        # The task lists its classes in another order than the head, and not all of them.
        classes = [self.HEAD[2], self.HEAD[0], self.HEAD[1]]
        rng = np.random.default_rng(11)
        centers = 3.0 * rng.normal(size=(len(classes), 2))
        picks = rng.integers(len(classes), size=48)
        return dataset_of(1, [
            Sample(id=f"s{i}", features=centers[k] + rng.normal(size=2),
                   question=("what", "which")[i % 2],
                   answer=classes[k].id, answer_name=classes[k].name)
            for i, k in enumerate(picks.tolist())
        ], classes)

    def test_labels_and_truth_equal_the_per_sample_formulas(self):
        vocab = build_vocabulary([c.name for c in self.HEAD])
        task = self.dataset()
        settings = TrainSettings(seed=5, mode="ft", **FAST)
        student = StudentModel(settings.seed, 2, len(vocab) + 1, settings.hidden1,
                               settings.hidden2).grow_head(self.HEAD)
        observed = []
        train_task(student, None, None, task, ImbalanceLedger().update(task), settings,
                   standard_weights(), vocab, WeightTrace(), observer=observed.append)
        position = {name: i for i, name in enumerate(head_names(student))}
        label_of = {s.id: position[s.answer_name] for s in task.samples}
        for ctx in observed:
            assert ctx["labels"].tolist() == [label_of[sid] for sid in ctx["sample_ids"]]

        inputs = encode_inputs(task, vocab, student.feature_length)
        rank = {cid: r for r, cid in enumerate(sorted(head_ids(student)))}
        predicted = [rank[head_ids(student)[int(k)]]
                     for k in student.forward(inputs).argmax(axis=1)]
        truth = [rank[s.answer] for s in task.samples]
        assert len(set(predicted)) > 1 and len(set(truth)) == 3
        accuracy, macro_f1 = evaluate(student, student.head_columns(task), inputs)
        acc, f1 = metrics_oracle(predicted, truth)
        assert accuracy == pytest.approx(acc, abs=1e-12) and accuracy > 0.5
        assert macro_f1 == pytest.approx(f1, abs=1e-12)


class TestRunContinual:
    def run(self, manifest, mode, run_dir=None, weight_cfg=None, accuracy=0.8):
        settings = TrainSettings(seed=5, mode=mode, **FAST)
        llm = NoisyOracleTeacher(seed=5, accuracy=accuracy)
        return (
            run_continual(
                manifest, settings, weight_cfg or standard_weights(), llm_teacher=llm,
                run_dir=run_dir,
            ),
            llm,
        )

    @pytest.mark.parametrize("mode, weight_cfg, accuracy, later_nulls", [
        ("ft", None, 0.8, ["kd_prev", "kd_llm"]),
        ("lwf", None, 0.8, ["kd_llm"]),
        ("ours", None, 0.8, []),
        # A general teacher that is always wrong gets chi = theta_ds * 0.
        ("ours", WeightConfig(alpha=0.2, theta_ds=0.8, theta_di=0.0), 1e-9, ["kd_llm"]),
    ])
    def test_event_log_has_a_line_per_task_and_epoch_and_null_for_a_term_that_is_off(
            self, mini_stream, tmp_path, mode, weight_cfg, accuracy, later_nulls):
        """A distillation term is null exactly where its weight is 0 (at
        task 1 both are); the weights are the trace's, and ``samples`` is
        the train split's row count."""
        (_, trace, _), _ = self.run(mini_stream, mode, RunDir(tmp_path), weight_cfg, accuracy)
        events = read_events(tmp_path / "events.jsonl")
        assert [(event["t"], event["epoch"]) for event in events] == [
            (t, epoch) for t in (1, 2, 3) for epoch in range(FAST["epochs"])]
        for event in events:
            row = trace.rows[event["t"] - 1]
            assert list(event) == ["t", "epoch", "samples", "alpha", "beta", "chi",
                                   "hard", "kd_prev", "kd_llm", "total"]
            assert event["samples"] == len(load_task(mini_stream, event["t"]).ids)
            assert [event[name] for name in ("alpha", "beta", "chi")] == [
                row[name] for name in ("alpha", "beta", "chi")]
            nulls = [name for name in ("hard", "kd_prev", "kd_llm", "total")
                     if event[name] is None]
            assert nulls == (["kd_prev", "kd_llm"] if event["t"] == 1 else later_nulls)
            assert nulls == [name for name, weight in (("kd_prev", "beta"), ("kd_llm", "chi"))
                             if row[weight] == 0.0]

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
        # encodes a split a second time for it.  Each distinct question
        # text of each split is encoded once: a held-out split's rows are
        # assembled from its codes at every evaluation, never re-encoded.
        encoded, texts = [], []
        real, real_question = encode_inputs, encode_question

        def counted(dataset, *args):
            encoded.append(list(dataset.ids))
            return real(dataset, *args)

        def counted_question(question, vocab):
            texts.append(question)
            return real_question(question, vocab)

        monkeypatch.setattr("mtcl.engine.encode_inputs", counted)
        monkeypatch.setattr("mtcl.engine.encode_question", counted_question)
        self.run(mini_stream, "ours")
        assert encoded == [load_task(mini_stream, t).ids for t in (1, 2, 3)]
        assert texts == [
            text for t in (1, 2, 3) for split in SPLITS
            for text in dict.fromkeys(load_task(mini_stream, t, split).questions)
        ]

    @pytest.mark.parametrize("mode", ["ft", "lwf", "ours"])
    def test_held_out_rows_are_the_reloaded_split_encoded(self, mini_stream, monkeypatch,
                                                          mode):
        """At every step, each finished task's held-out rows, as assembled
        for ``evaluate``, are byte for byte ``encode_inputs`` of its test
        split reloaded, and score bit-identically."""
        seen = held_out_against_reload(monkeypatch, mini_stream)
        self.run(mini_stream, mode)
        assert_held_out_matches_reload(seen, mini_stream)

    def test_a_finished_task_holds_its_features_slots_and_codes(self, tmp_path,
                                                                monkeypatch):
        """From one step to the next, the memory a run holds grows by the
        finished task's held-out truth, features, question slots and codes,
        and by little else: not by its question columns."""
        cfg = GeneratorConfig(tasks=4, classes_per_task=3, feature_length=256,
                              samples_per_task=1500)
        manifest = load_manifest(generate_synthetic_stream(cfg, seed=7, out_dir=tmp_path))
        held, real = [], evaluate
        steps = iter(t for t in range(1, 5) for _ in range(t))

        def measured(model, truth, inputs):
            if next(steps) == len(held) + 1:  # the first evaluation of a step
                held.append(tracemalloc.get_traced_memory()[0])
            return real(model, truth, inputs)

        monkeypatch.setattr("mtcl.engine.evaluate", measured)
        settings = TrainSettings(seed=5, mode="ft", epochs=1, batch_size=64, hidden1=4,
                                 hidden2=4)
        tracemalloc.start()
        try:
            run_continual(manifest, settings, standard_weights())
        finally:
            tracemalloc.stop()
        slack = 8 * 1024
        # Steps 2 to 4 each hold a previous model of the student's size.
        for t in (3, 4):
            test = load_task(manifest, t, "test")
            rows, width = len(test.ids), len(manifest.vocab) + 1
            truth_and_slots = 2 * rows * 8
            kept = test.features.nbytes + truth_and_slots + len(set(test.questions)) * width * 8
            assert rows * width * 8 > 4 * slack
            assert held[t - 1] - held[t - 2] < kept + slack, (t, held)

    @pytest.mark.parametrize("mode", ["ft", "lwf", "ours"])
    def test_a_finished_task_holds_no_split(self, mini_stream, monkeypatch, mode):
        # Evaluation keeps each held-out split's truth and design matrix, not
        # the split; the train split is dropped once its task is trained and
        # its held-out split taken.  So at each split load and each
        # train_task entry, no split of an earlier task is alive.
        loaded, events = [], []

        def snapshot(event):
            gc.collect()
            events.append((event, [(t, split) for t, split, ref in loaded if ref() is not None]))

        def watched_load(manifest, t, split="train"):
            snapshot(f"load {t} {split}")
            dataset = load_task(manifest, t, split)
            loaded.append((t, split, weakref.ref(dataset)))
            return dataset

        def watched_train(student, prev_teacher, llm_teacher, task, *args, **kwargs):
            snapshot(f"train {task.task_index}")
            return train_task(student, prev_teacher, llm_teacher, task, *args, **kwargs)

        monkeypatch.setattr("mtcl.engine.load_task", watched_load)
        monkeypatch.setattr("mtcl.engine.train_task", watched_train)
        self.run(mini_stream, mode)
        assert events == [
            event for t in (1, 2, 3)
            for event in ((f"load {t} train", []), (f"train {t}", [(t, "train")]),
                          (f"load {t} test", [(t, "train")]))
        ]

    def test_fine_tuning_never_queries_the_general_teacher(self, mini_stream):
        (rows, trace, _), llm = self.run(mini_stream, "ft")
        assert llm.query_count == 0
        assert all(row["alpha"] == 1.0 for row in trace.rows)

    def test_artifacts_written_and_reload(self, mini_stream, tmp_path):
        (rows, trace, student), _ = self.run(
            mini_stream, "ours", run_dir=RunDir(tmp_path, "abc123")
        )
        for t in (1, 2, 3):
            assert (tmp_path / f"checkpoint_t{t}.bin").exists()
        reread = read_metrics_csv(tmp_path / "metrics.csv")
        assert reread == rows
        model, header = load_checkpoint(tmp_path / "checkpoint_t3.bin")
        assert header["task_index"] == 3
        assert header["config_digest"] == "abc123"
        assert header["class_names"] == head_names(student)
        assert len(header["trace_rows"]) == len(trace.rows)
        test = load_task(mini_stream, 3, split="test")
        inputs = encode_inputs(test, mini_stream.vocab, mini_stream.feature_length)
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
        assert head_ids(restored) == head_ids(model)
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
