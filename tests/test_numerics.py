"""Unit tests for the dense matrix kernel."""

import math

import numpy as np
import pytest
from oracles import pairwise_euclidean_oracle

from oodkit import numerics
from oodkit.numerics import (
    ContractViolation,
    pairwise_euclidean,
    row_normalize,
    shannon_entropy_rows,
    stable_softmax_rows,
)


def entropy_oracle(row):
    """Independent direct-sum entropy, term by term via math.log."""
    return -sum(p * math.log(p) for p in row if p > 0.0)


class TestRowNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(row_normalize([[3.0, 4.0]]), [[0.6, 0.8]])

    def test_zero_row_stays_zero(self):
        out = row_normalize([[0.0, 0.0]])
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_symmetric_row(self):
        np.testing.assert_allclose(row_normalize([[1.0, 1.0, 1.0, 1.0]]),
                                   [[0.5, 0.5, 0.5, 0.5]])

    def test_idempotent_above_eps(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((20, 5)) * 10.0
        once = row_normalize(m)
        twice = row_normalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractViolation):
            row_normalize([[1.0, 2.0]], eps=0.0)

    def test_rejects_nan(self):
        with pytest.raises(ContractViolation):
            row_normalize([[np.nan, 1.0]])


class TestPairwiseEuclidean:
    def test_identical_rows(self):
        np.testing.assert_array_equal(pairwise_euclidean([[1.0, 2.0]], [[1.0, 2.0]]),
                                      [[0.0]])

    def test_orthogonal_unit_vectors(self):
        out = pairwise_euclidean([[1.0, 0.0]], [[0.0, 1.0]])
        np.testing.assert_allclose(out, [[math.sqrt(2.0)]])

    def test_three_four_five_triangles(self):
        out = pairwise_euclidean([[0.0, 0.0]], [[3.0, 4.0], [6.0, 8.0]])
        np.testing.assert_allclose(out, [[5.0, 10.0]])

    def test_matches_percoordinate_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((3, 4))
        out = pairwise_euclidean(a, b)
        for i in range(6):
            for j in range(3):
                assert out[i, j] == pytest.approx(math.dist(a[i], b[j]), abs=1e-12)

    def test_symmetry_is_a_transpose(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(pairwise_euclidean(a, b),
                                      pairwise_euclidean(b, a).T)

    def test_metric_axioms_on_sampled_triples(self):
        rng = np.random.default_rng(13)
        points = rng.standard_normal((30, 4))
        d = pairwise_euclidean(points, points)
        assert np.all(d >= 0.0)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)
        np.testing.assert_allclose(d, d.T, atol=1e-12)
        for _ in range(200):
            i, j, k = rng.integers(0, 30, size=3)
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            pairwise_euclidean([[1.0, 2.0]], [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("block_rows", [1, 7, 50])
    @pytest.mark.parametrize("rows", ["random", "near_duplicate"])
    def test_row_blocks_equal_the_unblocked_kernel(self, monkeypatch, block_rows, rows):
        rng = np.random.default_rng(block_rows)
        b = rng.standard_normal((5, 6))
        if rows == "random":
            a = rng.standard_normal((50, 6))
        else:  # rows a few ulps from a prototype, where cancellation bites
            a = b[rng.integers(0, 5, size=50)] * (1.0 + 1e-15 * rng.standard_normal((50, 6)))
        monkeypatch.setattr(numerics, "DISTANCE_BLOCK_ROWS", block_rows)
        np.testing.assert_array_equal(pairwise_euclidean(a, b),
                                      pairwise_euclidean_oracle(a, b))


class TestStableSoftmaxRows:
    def test_uniform_by_symmetry(self):
        np.testing.assert_allclose(stable_softmax_rows([[0.0, 0.0, 0.0]]),
                                   [[1 / 3, 1 / 3, 1 / 3]])

    def test_huge_logit_does_not_overflow(self):
        out = stable_softmax_rows([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_direct_evaluation(self):
        # oracle: exp / sum(exp) evaluated directly at modest logits
        e1, e2 = math.exp(1.0), math.exp(2.0)
        expected = [[e1 / (e1 + e2), e2 / (e1 + e2)]]
        np.testing.assert_allclose(stable_softmax_rows([[1.0, 2.0]]), expected)
        np.testing.assert_allclose(stable_softmax_rows([[1.0, 2.0]]),
                                   [[0.26894142, 0.73105858]], atol=1e-8)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((40, 6)) * 50.0
        out = stable_softmax_rows(m, scale=3.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0.0)
        assert np.all(out <= 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(22)
        m = rng.standard_normal((10, 5))
        shifts = rng.standard_normal((10, 1)) * 100.0
        a = stable_softmax_rows(m, scale=2.5)
        b = stable_softmax_rows(m + shifts, scale=2.5)
        np.testing.assert_allclose(a, b, atol=1e-12)


def shannon_entropy_row(p):
    """The entropy of one probability row, through the row-batched kernel."""
    return float(shannon_entropy_rows(np.asarray(p, dtype=np.float64)[np.newaxis, :])[0])


class TestShannonEntropy:
    def test_degenerate_distribution(self):
        assert shannon_entropy_row([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_maximizes(self):
        assert shannon_entropy_row([0.25] * 4) == pytest.approx(math.log(4.0))

    def test_direct_evaluation(self):
        row = [0.73105858, 0.26894142]
        expected = entropy_oracle(row)
        assert shannon_entropy_row(row) == pytest.approx(expected, abs=1e-15)
        assert shannon_entropy_row(row) == pytest.approx(0.58220309, abs=1e-7)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            row = rng.dirichlet(np.ones(6))
            shuffled = rng.permutation(row)
            assert shannon_entropy_row(shuffled) == pytest.approx(
                shannon_entropy_row(row), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(32)
        rows = rng.dirichlet(np.ones(5), size=50)
        h = shannon_entropy_rows(rows)
        assert np.all(h >= 0.0)
        assert np.all(h <= math.log(5.0) + 1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractViolation):
            shannon_entropy_row([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ContractViolation):
            shannon_entropy_row([1.2, -0.2])
