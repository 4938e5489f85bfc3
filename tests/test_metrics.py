"""Detection metric tests against brute-force oracles.

The oracles below are deliberately naive: AUROC counts every pair,
TNR@TPR95 and DTACC scan every candidate threshold with direct
comparisons. The fast implementations must agree exactly, ties and all.
"""

import numpy as np
import pytest

from oodkit.metrics import (
    DetectionScoreSet,
    auroc,
    classification_accuracy,
    dtacc,
    tnr_at_tpr95,
)
from oodkit.numerics import ContractViolation
from oracles import auroc_oracle, dtacc_oracle, random_score_set, tnr_oracle


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(DetectionScoreSet([3.0, 2.0], [1.0])) == 1.0

    def test_identical_multisets(self):
        assert auroc(DetectionScoreSet([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])) == 0.5

    def test_worked_pair_count(self):
        s = DetectionScoreSet([0.9, 0.4, 0.8], [0.5, 0.4])
        # pairs: (.9>.5) (.9>.4) (.4<.5) (.4=.4) (.8>.5) (.8>.4) = 4.5/6
        assert auroc(s) == pytest.approx(0.75)
        assert auroc(s) == auroc_oracle([0.9, 0.4, 0.8], [0.5, 0.4])

    def test_complement_sums_to_one_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_score_set(rng)
            assert auroc(DetectionScoreSet(a, b)) + auroc(DetectionScoreSet(b, a)) == 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(ContractViolation):
            DetectionScoreSet([], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractViolation):
            DetectionScoreSet([np.inf], [1.0])


class TestTnrAtTpr95:
    def test_perfect_separation(self):
        assert tnr_at_tpr95(DetectionScoreSet([2.0, 3.0, 4.0], [0.0, 1.0])) == 1.0

    def test_all_identical(self):
        assert tnr_at_tpr95(DetectionScoreSet([1.0] * 10, [1.0] * 4)) == 0.0

    def test_twenty_point_example(self):
        in_scores = np.arange(1, 21) / 20.0
        out_scores = np.array([0.06, 0.30])
        s = DetectionScoreSet(in_scores, out_scores)
        assert tnr_at_tpr95(s) == 0.5
        assert tnr_at_tpr95(s) == tnr_oracle(in_scores, out_scores)


class TestDtacc:
    def test_perfect_separation(self):
        assert dtacc(DetectionScoreSet([2.0, 3.0], [0.0, 1.0])) == 1.0

    def test_identical_groups(self):
        assert dtacc(DetectionScoreSet([1.0, 2.0], [2.0, 1.0])) == 0.5

    def test_worked_example(self):
        s = DetectionScoreSet([0.9, 0.4, 0.8], [0.5, 0.4])
        assert dtacc(s) == pytest.approx(1.0 - 0.5 / 3.0)
        assert dtacc(s) == dtacc_oracle([0.9, 0.4, 0.8], [0.5, 0.4])

    def test_never_below_half(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = random_score_set(rng)
            assert dtacc(DetectionScoreSet(a, b)) >= 0.5


class TestOracleEquivalence:
    def test_exact_match_on_random_sets(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            a, b = random_score_set(rng)
            s = DetectionScoreSet(a, b)
            assert auroc(s) == auroc_oracle(a, b)
            assert tnr_at_tpr95(s) == tnr_oracle(a, b)
            assert dtacc(s) == dtacc_oracle(a, b)

    @pytest.mark.parametrize("style", ["continuous", "half_integer_grid"])
    def test_exact_match_at_eval_scale(self, style):
        # The wide workload's sizes: 2,000 validation scores against 5,000
        # OOD scores.
        rng = np.random.default_rng(2000)
        if style == "continuous":
            a, b = rng.standard_normal(2000), rng.standard_normal(5000) - 0.5
        else:
            a, b = rng.integers(-40, 41, 2000) / 2.0, rng.integers(-50, 31, 5000) / 2.0
        s = DetectionScoreSet(a, b)
        assert auroc(s) == auroc_oracle(a, b)
        assert tnr_at_tpr95(s) == tnr_oracle(a, b)
        assert dtacc(s) == dtacc_oracle(a, b)


class TestMonotoneInvariance:
    # Strictly increasing maps that stay exact on dyadic grids, so tie
    # structure survives the transform bit for bit.
    MAPS = [
        lambda x: 2.0 * x + 0.25,
        lambda x: x + x ** 3,
        lambda x: 0.125 * x - 3.0,
    ]

    def test_all_metrics_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            a = rng.integers(-16, 17, size=int(rng.integers(2, 60))) / 8.0
            b = rng.integers(-16, 17, size=int(rng.integers(2, 60))) / 8.0
            s = DetectionScoreSet(a, b)
            base = (auroc(s), tnr_at_tpr95(s), dtacc(s))
            for t in self.MAPS:
                mapped = DetectionScoreSet(t(a), t(b))
                assert (auroc(mapped), tnr_at_tpr95(mapped), dtacc(mapped)) == base


class TestClassificationAccuracy:
    def test_all_correct(self):
        assert classification_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_none_correct(self):
        assert classification_accuracy([1, 2, 3], [2, 3, 1]) == 0.0

    def test_three_of_four(self):
        assert classification_accuracy([0, 1, 2, 3], [0, 1, 2, 9]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            classification_accuracy([1, 2], [1, 2, 3])
