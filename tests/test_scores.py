"""Detection score tests."""

import math

import numpy as np
import pytest

from oodkit.heads import (
    IsoMaxHead,
    IsoMaxPlusHead,
    SoftMaxHead,
    feature_prototype_distances,
    head_outputs,
)
from oodkit.numerics import ContractViolation
from oodkit.scores import (
    ScoreKind,
    compute_score,
    entropic_score,
    max_probability_score,
    min_distance_score,
    min_distance_score_from_distances,
)


class TestMaxProbabilityScore:
    def test_simple_row(self):
        np.testing.assert_array_equal(
            max_probability_score([[0.7, 0.2, 0.1]]), [0.7])

    def test_uniform_row(self):
        assert max_probability_score([[0.25] * 4])[0] == 0.25

    def test_on_inference_probabilities(self):
        head = IsoMaxPlusHead(prototypes=np.array([[1.0, 0.0], [0.0, 1.0]]))
        from oodkit.heads import inference_probabilities
        probs = inference_probabilities(head, [[1.0, 0.0]])
        expected = 1.0 / (1.0 + math.exp(-math.sqrt(2.0)))
        assert max_probability_score(probs)[0] == pytest.approx(expected, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractViolation):
            max_probability_score([[0.7, 0.7]])


class TestEntropicScore:
    def test_degenerate_is_zero(self):
        assert entropic_score([[1.0, 0.0]])[0] == 0.0

    def test_uniform_is_most_ood(self):
        assert entropic_score([[0.25] * 4])[0] == pytest.approx(-math.log(4.0))

    def test_derived_row(self):
        assert entropic_score([[0.73105858, 0.26894142]])[0] == pytest.approx(
            -0.58220309, abs=1e-7)

    def test_matches_max_probability_order_for_two_classes(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.01, 0.99, size=30)
        probs = np.stack([p, 1.0 - p], axis=1)
        es = entropic_score(probs)
        ms = max_probability_score(probs)
        assert np.array_equal(np.argsort(es), np.argsort(ms))


class TestMinDistanceScore:
    def test_on_prototype_is_maximal(self):
        rng = np.random.default_rng(1)
        head = IsoMaxPlusHead(prototypes=rng.standard_normal((3, 4)))
        f = np.vstack([head.prototypes[1] * 2.0, rng.standard_normal(4)])
        s = min_distance_score(head, f)
        assert s[0] == pytest.approx(0.0, abs=1e-12)
        assert s[0] >= s[1]

    def test_hand_computed(self):
        head = IsoMaxPlusHead(prototypes=np.array([[1.0, 0.0], [0.0, 1.0]]))
        s = min_distance_score(head, [[1.0, 0.0], [-1.0, 0.0]])
        assert s[0] == pytest.approx(0.0, abs=1e-12)
        assert s[1] == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_distance_scale_never_enters(self):
        rng = np.random.default_rng(2)
        protos = rng.standard_normal((4, 3))
        f = rng.standard_normal((10, 3))
        scores = [min_distance_score(
            IsoMaxPlusHead(prototypes=protos, distance_scale=ds), f)
            for ds in (1.0, -1.0, 0.0, 123.456)]
        for other in scores[1:]:
            np.testing.assert_array_equal(scores[0], other)

    def test_ranking_matches_max_logit(self):
        rng = np.random.default_rng(3)
        head = IsoMaxPlusHead(prototypes=rng.standard_normal((4, 3)),
                              distance_scale=2.5)
        f = rng.standard_normal((25, 3))
        s = min_distance_score(head, f)
        ml = head_outputs(head, f).logits.max(axis=1)
        # no strictly inverted pair
        inversions = (s[:, None] > s[None, :]) & (ml[:, None] < ml[None, :])
        assert not inversions.any()

    def test_derives_from_the_classification_distances(self):
        rng = np.random.default_rng(4)
        head = IsoMaxHead(prototypes=rng.standard_normal((3, 5)))
        f = rng.standard_normal((8, 5))
        d = feature_prototype_distances(head, f)
        np.testing.assert_array_equal(min_distance_score(head, f),
                                      min_distance_score_from_distances(d))

    def test_isomax_uses_raw_distances(self):
        head = IsoMaxHead(prototypes=np.array([[3.0, 0.0]]))
        s = min_distance_score(head, [[0.0, 0.0]])
        assert s[0] == pytest.approx(-3.0)  # no normalization under isomax

    def test_softmax_head_rejected(self):
        head = SoftMaxHead.initial(3, 4, np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            min_distance_score(head, np.zeros((1, 4)))


class TestComputeScore:
    def test_dispatch(self):
        rng = np.random.default_rng(5)
        head = IsoMaxPlusHead(prototypes=rng.standard_normal((3, 4)))
        f = rng.standard_normal((6, 4))
        for kind in ScoreKind:
            out = compute_score(kind, head_outputs(head, f))
            assert out.shape == (6,)
        np.testing.assert_array_equal(compute_score("min_distance", head_outputs(head, f)),
                                      min_distance_score(head, f))

    def test_min_distance_rejects_softmax_outputs(self):
        head = SoftMaxHead.initial(3, 4, np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            compute_score("min_distance", head_outputs(head, np.zeros((1, 4))))

    def test_higher_means_more_in_distribution(self):
        # a point on a prototype must outscore a far away point on all kinds
        rng = np.random.default_rng(6)
        head = IsoMaxPlusHead(prototypes=np.array([[1.0, 0.0], [0.0, 1.0]]),
                              distance_scale=4.0)
        f = np.array([[5.0, 0.0], [-3.0, -3.0]])
        for kind in ScoreKind:
            s = compute_score(kind, head_outputs(head, f))
            assert s[0] > s[1], kind
