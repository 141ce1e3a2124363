"""Adaptive weight assignment: shares, blending, measurement, trace."""

import csv
import math
import re

import numpy as np
import pytest
from conftest import latest_triple
from hypothesis import assume, example, given, strategies as st

from mtcl.errors import ConfigError, DataError
from mtcl.weights import (
    WEIGHT_SUM_TOL,
    WeightConfig,
    WeightTrace,
    WeightTriple,
    assemble_weights,
    di_shares,
    ds_shares,
    measure_teacher_accuracy,
)


class TestDsShares:
    def test_proportional_split(self):
        beta, chi = ds_shares(0.8, 0.2)
        assert beta == pytest.approx(0.8)
        assert chi == pytest.approx(0.2)
        beta, chi = ds_shares(0.6, 0.2)
        assert beta == pytest.approx(0.75)
        assert chi == pytest.approx(0.25)

    def test_double_zero_falls_back_to_even_split(self):
        assert ds_shares(0.0, 0.0) == (0.5, 0.5)

    def test_equal_accuracies_split_evenly(self):
        assert ds_shares(0.4, 0.4) == (0.5, 0.5)
        assert ds_shares(1.0, 1.0) == (0.5, 0.5)

    def test_shares_sum_to_exactly_one(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            beta, chi = ds_shares(float(rng.random()), float(rng.random()))
            assert beta + chi == 1.0

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
        st.floats(0.05, 1.0),
    )
    def test_scale_invariance(self, a, b, scale):
        direct = ds_shares(a, b)
        scaled = ds_shares(a * scale, b * scale)
        assert scaled[0] == pytest.approx(direct[0], abs=1e-12)

    def test_out_of_range_accuracy_rejected(self):
        with pytest.raises(ConfigError, match=r"^acc_prev must be in \[0, 1\], got -0\.1$"):
            ds_shares(-0.1, 0.5)
        with pytest.raises(ConfigError, match=r"^acc_llm must be in \[0, 1\], got 1\.1$"):
            ds_shares(0.5, 1.1)
        with pytest.raises(ConfigError, match=r"^acc_llm must be in \[0, 1\], got nan$"):
            ds_shares(0.5, float("nan"))


class TestDiShares:
    def test_balanced_history_gives_previous_teacher_everything(self):
        assert di_shares(1.0, 10.0) == (1.0, 0.0)

    def test_ratio_equal_to_base_splits_evenly(self):
        beta, chi = di_shares(10.0, 10.0)
        assert beta == pytest.approx(0.5)
        assert chi == pytest.approx(0.5)

    def test_squared_base_gives_one_third(self):
        beta, chi = di_shares(100.0, 10.0)
        assert beta == pytest.approx(1.0 / 3.0)
        assert chi == pytest.approx(2.0 / 3.0)

    def test_log_identity(self):
        # di_shares(base**x, base) reduces to 1 / (1 + x)
        for base in (2.0, 5.0, 12.0):
            for x in (0.0, 0.5, 1.0, 2.5):
                beta, _ = di_shares(base**x, base)
                assert beta == pytest.approx(1.0 / (1.0 + x), rel=1e-12)

    def test_shares_sum_to_exactly_one(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            ir = float(1.0 + 99.0 * rng.random())
            beta, chi = di_shares(ir, 12.0)
            assert beta + chi == 1.0

    def test_more_imbalance_shifts_share_to_general_teacher(self):
        values = [di_shares(ir, 12.0)[1] for ir in (1.0, 2.0, 4.0, 50.0, 144.0)]
        assert values == sorted(values)
        assert values[0] == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError, match=r"^imbalance ratio ir must be >= 1, got 0\.5$"):
            di_shares(0.5, 10.0)
        with pytest.raises(ConfigError, match=r"^log_base must be > 1, got 1\.0$"):
            di_shares(2.0, 1.0)
        with pytest.raises(ConfigError, match=r"^log_base must be > 1, got nan$"):
            di_shares(2.0, float("nan"))


class TestWeightConfig:
    def test_valid_config(self):
        cfg = WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4)
        assert cfg.log_base is None

    def test_theta_constraint_enforced(self):
        with pytest.raises(ConfigError, match="1 - alpha"):
            WeightConfig(alpha=0.2, theta_ds=0.5, theta_di=0.5)

    def test_all_violations_collected(self):
        with pytest.raises(ConfigError) as info:
            WeightConfig(
                alpha=1.5, theta_ds=-0.1, theta_di=0.4, log_base=1.0,
            )
        message = str(info.value)
        for fragment in ("alpha", "theta_ds", "log_base"):
            assert fragment in message

    def test_resolve_log_base_prefers_explicit_value(self):
        cfg = WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4, log_base=7.0)
        assert cfg.resolve_log_base(class_count=30) == 7.0

    def test_resolve_log_base_derives_from_class_count(self):
        cfg = WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4)
        assert cfg.resolve_log_base(class_count=12) == 12.0
        assert cfg.resolve_log_base(class_count=1) == 2.0

    def test_resolve_log_base_needs_some_source(self):
        cfg = WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4)
        with pytest.raises(ConfigError):
            cfg.resolve_log_base()


class TestWeightTriple:
    def test_unit_sum_enforced(self):
        WeightTriple(0.2, 0.5, 0.3)
        with pytest.raises(ConfigError, match=r"^alpha \+ beta \+ chi must be 1, got 1\.1"):
            WeightTriple(0.2, 0.5, 0.4)

    def test_components_must_be_probabilities(self):
        with pytest.raises(ConfigError, match=r"^alpha must be in \[0, 1\], got -0\.2$"):
            WeightTriple(-0.2, 0.7, 0.5)


@st.composite
def accepted_configs(draw):
    """A WeightConfig whose theta_ds + theta_di may miss 1 - alpha by as
    much as the config allows."""
    alpha = draw(st.floats(0.0, 1.0))
    theta_ds = draw(st.floats(0.0, 1.0 - alpha))
    miss = draw(st.floats(-WEIGHT_SUM_TOL, WEIGHT_SUM_TOL))
    log_base = draw(st.none() | st.floats(1.0, 1e6, exclude_min=True))
    try:
        return WeightConfig(alpha=alpha, theta_ds=theta_ds,
                            theta_di=max(0.0, 1.0 - alpha - theta_ds + miss),
                            log_base=log_base)
    except ConfigError:
        assume(False)


class TestAcceptedConfigsAssemble:
    @given(
        cfg=accepted_configs(),
        acc_prev=st.floats(0.0, 1.0),
        acc_llm=st.floats(0.0, 1.0),
        ir=st.floats(min_value=1.0, allow_infinity=False),
        class_count=st.integers(1, 10**6),
    )
    # A config that misses 1 - alpha by just under the tolerance, whose
    # blended triple rounds past it.
    @example(
        cfg=WeightConfig(alpha=0.3, theta_ds=0.5107588125009608, theta_di=0.18924118849903918),
        acc_prev=0.0, acc_llm=1.0, ir=8.0, class_count=6,
    )
    def test_every_accepted_config_assembles(self, cfg, acc_prev, acc_llm, ir, class_count):
        triple, _ = assemble_weights(cfg, acc_prev, acc_llm, ir, class_count=class_count)
        assert triple.alpha == cfg.alpha


class TestAssembleWeights:
    CFG = WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4, log_base=10.0)

    def test_hand_worked_example(self):
        # ds = (0.75, 0.25), di at ir == base = (0.5, 0.5)
        triple, breakdown = assemble_weights(self.CFG, 0.75, 0.25, 10.0)
        assert triple.beta == pytest.approx(0.4 * 0.75 + 0.4 * 0.5)
        assert triple.chi == pytest.approx(0.4 * 0.25 + 0.4 * 0.5)
        assert breakdown.beta_ds == pytest.approx(0.75)
        assert breakdown.beta_di == pytest.approx(0.5)
        assert breakdown.ir == 10.0

    def test_pure_domain_shift_emphasis(self):
        cfg = WeightConfig(alpha=0.2, theta_ds=0.8, theta_di=0.0, log_base=10.0)
        triple, _ = assemble_weights(cfg, 0.0, 0.9, 1.0)
        assert triple.beta == 0.0
        assert triple.chi == pytest.approx(0.8)

    def test_balanced_history_zeroes_imbalance_chi(self):
        triple, breakdown = assemble_weights(self.CFG, 0.5, 0.5, 1.0)
        assert breakdown.chi_di == 0.0
        assert triple.chi == pytest.approx(0.4 * 0.5)

    def test_random_draws_keep_unit_sum(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            alpha = float(rng.uniform(0.0, 1.0))
            theta_ds = float(rng.uniform(0.0, 1.0 - alpha))
            cfg = WeightConfig(
                alpha=alpha, theta_ds=theta_ds, theta_di=(1.0 - alpha) - theta_ds,
                log_base=float(rng.uniform(1.5, 40.0)),
            )
            triple, breakdown = assemble_weights(
                cfg,
                float(rng.random()),
                float(rng.random()),
                float(1.0 + 200.0 * rng.random()),
            )
            assert abs(triple.alpha + triple.beta + triple.chi - 1.0) <= 1e-9
            assert breakdown.beta_ds + breakdown.chi_ds == 1.0
            assert breakdown.beta_di + breakdown.chi_di == 1.0

    def test_derived_log_base_uses_class_count(self):
        cfg = WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4)
        triple_small, _ = assemble_weights(cfg, 0.5, 0.5, 4.0, class_count=4)
        triple_large, _ = assemble_weights(cfg, 0.5, 0.5, 4.0, class_count=16)
        # Larger base damps the same imbalance harder, shrinking chi.
        assert triple_large.chi < triple_small.chi

    def test_chi_grows_with_general_teacher_accuracy(self):
        previous = -1.0
        for acc_llm in np.linspace(0.0, 1.0, 21):
            triple, _ = assemble_weights(self.CFG, 0.5, float(acc_llm), 1.0)
            assert triple.chi > previous
            previous = triple.chi

    def test_chi_grows_with_imbalance(self):
        values = [
            assemble_weights(self.CFG, 0.5, 0.5, float(ir))[0].chi
            for ir in np.linspace(1.0, 100.0, 25)
        ]
        assert values == sorted(values)
        assert values[-1] > values[0]


def constant_answer_table(answer, mask_names, n):
    """Score table of a teacher that always picks ``answer`` when it is a candidate."""
    scores = np.zeros((n, len(mask_names)))
    if answer in mask_names:
        scores[:, mask_names.index(answer)] = 1.0
    return scores


class TestMeasureTeacherAccuracy:
    def test_constant_teacher_scores_label_frequency(self):
        # True labels cut, cut, cut, idle over candidates (cut, idle).
        scores = constant_answer_table("cut", ("cut", "idle"), 4)
        assert measure_teacher_accuracy(scores, [0, 0, 0, 1]) == 0.75

    def test_truth_outside_mask_counts_as_wrong_without_querying(self):
        # True labels cut, idle, idle, idle; only cut is a candidate.
        scores = constant_answer_table("cut", ("cut",), 4)
        assert measure_teacher_accuracy(scores, [0, -1, -1, -1]) == 0.25

    def test_perfect_teacher(self):
        scores = constant_answer_table("idle", ("cut", "idle"), 2)
        assert measure_teacher_accuracy(scores, [1, 1]) == 1.0

    def test_empty_inputs_rejected(self):
        for shape in ((1, 0), (0, 1), (3,)):
            with pytest.raises(DataError, match=re.escape(
                    "teacher score table shape must be (samples, candidates), both >= 1, "
                    f"got {shape}")):
                measure_teacher_accuracy(np.zeros(shape), [0] * shape[0])


class TestWeightTrace:
    def test_record_and_latest(self):
        trace = WeightTrace()
        trace.record(1, WeightTriple(1.0, 0.0, 0.0))
        cfg = WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4, log_base=10.0)
        triple, breakdown = assemble_weights(cfg, 0.75, 0.25, 10.0)
        trace.record(2, triple, breakdown)
        assert latest_triple(trace) == triple
        assert math.isnan(trace.rows[0]["acc_prev"])
        assert trace.rows[1]["acc_prev"] == 0.75

    def test_empty_trace_has_no_latest(self, tmp_path):
        path = tmp_path / "trace.csv"
        WeightTrace().write_csv(path)
        assert path.read_text().splitlines() == [
            "t,epoch,acc_prev,acc_llm,ir,beta_ds,chi_ds,beta_di,chi_di,alpha,beta,chi"
        ]

    def test_csv_roundtrip_preserves_floats_exactly(self, tmp_path):
        trace = WeightTrace()
        cfg = WeightConfig(alpha=0.2, theta_ds=0.4, theta_di=0.4, log_base=10.0)
        triple, breakdown = assemble_weights(cfg, 1.0 / 3.0, 0.1, 7.3)
        trace.record(1, WeightTriple(1.0, 0.0, 0.0))
        trace.record(2, triple, breakdown)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == [
            "t", "epoch", "acc_prev", "acc_llm", "ir", "beta_ds", "chi_ds",
            "beta_di", "chi_di", "alpha", "beta", "chi",
        ]
        assert float(rows[1]["beta"]) == triple.beta
        assert float(rows[1]["acc_prev"]) == 1.0 / 3.0
        assert math.isnan(float(rows[0]["ir"]))
        assert rows[1]["t"] == "2"
        assert rows[1]["epoch"] == "0"
