"""Unit tests for the three classification heads."""

import math

import numpy as np
import pytest

from oodkit import gradcheck
from oodkit.heads import (
    IsoMaxHead,
    IsoMaxPlusHead,
    SoftMaxHead,
    backward,
    feature_prototype_distances,
    forward_logits,
    head_outputs,
    inference_probabilities,
    predict,
    training_loss,
)
from oodkit.numerics import (
    ContractViolation,
    pairwise_euclidean,
    shannon_entropy_rows,
    stable_softmax_rows,
)
from oracles import fused_log_softmax_loss


def unit_prototypes():
    return np.array([[1.0, 0.0], [0.0, 1.0]])


class TestForwardLogits:
    def test_isomaxplus_zero_distance_to_own_prototype(self):
        head = IsoMaxPlusHead(prototypes=np.array([[2.0, 0.0], [0.0, 3.0]]))
        logits = forward_logits(head, [[4.0, 0.0]])  # normalizes onto prototype 0
        assert logits[0, 0] == 0.0
        assert logits[0, 0] == logits[0].max()

    def test_isomaxplus_hand_computed(self):
        head = IsoMaxPlusHead(prototypes=unit_prototypes(), distance_scale=2.0)
        logits = forward_logits(head, [[1.0, 0.0]])
        np.testing.assert_allclose(logits, [[0.0, -2.0 * math.sqrt(2.0)]], atol=1e-15)

    def test_isomaxplus_scaling_invariance(self):
        head = IsoMaxPlusHead(prototypes=np.random.default_rng(0).standard_normal((3, 4)))
        f = np.random.default_rng(1).standard_normal((5, 4))
        np.testing.assert_allclose(forward_logits(head, f), forward_logits(head, 5.0 * f),
                                   atol=1e-9)

    def test_isomax_logits_nonpositive(self):
        rng = np.random.default_rng(2)
        head = IsoMaxHead(prototypes=rng.standard_normal((3, 4)))
        assert np.all(forward_logits(head, rng.standard_normal((6, 4))) <= 0.0)

    def test_softmax_is_affine(self):
        head = SoftMaxHead(weights=np.array([[1.0, 2.0], [0.0, -1.0]]),
                           bias=np.array([0.5, -0.5]))
        np.testing.assert_allclose(forward_logits(head, [[1.0, 1.0]]), [[3.5, -1.5]])

    def test_dimension_mismatch(self):
        head = IsoMaxHead(prototypes=np.zeros((2, 3)))
        with pytest.raises(ContractViolation):
            forward_logits(head, [[1.0, 2.0]])


class TestTrainingLoss:
    def test_single_class_is_zero(self):
        head = IsoMaxPlusHead(prototypes=np.array([[1.0, 1.0]]))
        assert training_loss(head, [[3.0, -2.0]], [0]) == 0.0

    def test_equidistant_two_classes(self):
        head = IsoMaxPlusHead(prototypes=unit_prototypes())
        f = [[1.0, 1.0]]  # normalized form is equidistant from both prototypes
        assert training_loss(head, f, [0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_computed_distances(self):
        # target at distance 0, other at sqrt(2), entropic scale 10, scale 1
        head = IsoMaxPlusHead(prototypes=unit_prototypes(), distance_scale=1.0)
        expected = math.log(1.0 + math.exp(-10.0 * math.sqrt(2.0)))
        assert training_loss(head, [[1.0, 0.0]], [0]) == pytest.approx(expected, rel=1e-9)
        assert training_loss(head, [[1.0, 0.0]], [0]) == pytest.approx(7.2135e-7, rel=1e-3)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(3)
        for kind in ("softmax", "isomax", "isomaxplus"):
            for _ in range(20):
                head, f, t = gradcheck._draw_instance(kind, rng)
                assert training_loss(head, f, t) >= 0.0

    def test_isomax_uniform_at_init(self):
        head = IsoMaxHead.initial(classes=5, dim=3, rng=np.random.default_rng(0))
        f = np.random.default_rng(4).standard_normal((8, 3))
        assert training_loss(head, f, [0, 1, 2, 3, 4, 0, 1, 2]) == pytest.approx(
            math.log(5.0), abs=1e-9)

    def test_separate_form_matches_fused_form(self):
        # Identical in exact arithmetic; the artifact keeps them separate
        # and only records the fused value for comparison.
        rng = np.random.default_rng(5)
        for kind in ("softmax", "isomax", "isomaxplus"):
            head, f, t = gradcheck._draw_instance(kind, rng)
            assert training_loss(head, f, t) == pytest.approx(
                fused_log_softmax_loss(head, f, t), rel=1e-10, abs=1e-12)

    def test_invalid_target(self):
        head = IsoMaxHead.initial(2, 2, np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            training_loss(head, [[1.0, 2.0]], [2])

    @pytest.mark.parametrize("targets", [[0.9, 1.0], [0.0, np.nan], [np.inf, 1.0],
                                         [0.0, -np.inf]], ids=["fraction", "nan", "inf", "-inf"])
    def test_non_integer_targets_rejected(self, targets):
        head = IsoMaxHead.initial(2, 2, np.random.default_rng(0))
        features = [[1.0, 2.0], [0.5, -1.0]]
        with pytest.raises(ContractViolation, match="targets must be whole numbers"):
            training_loss(head, features, targets)
        assert training_loss(head, features, [1.0, 0.0]) == training_loss(head, features, [1, 0])

    def test_underflow_clamped_to_finite_loss(self):
        head = IsoMaxHead(prototypes=np.array([[0.0, 0.0], [40.0, 0.0]]))
        loss = training_loss(head, [[40.0, 0.0]], [0])  # target 400 nats away
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-30))


class TestInferenceProbabilities:
    def test_equidistant_gives_half(self):
        head = IsoMaxPlusHead(prototypes=unit_prototypes())
        np.testing.assert_allclose(inference_probabilities(head, [[1.0, 1.0]]),
                                   [[0.5, 0.5]], atol=1e-12)

    def test_direct_evaluation(self):
        head = IsoMaxPlusHead(prototypes=unit_prototypes(), distance_scale=1.0)
        p0 = 1.0 / (1.0 + math.exp(-math.sqrt(2.0)))  # softmax(0, -sqrt(2))
        np.testing.assert_allclose(inference_probabilities(head, [[1.0, 0.0]]),
                                   [[p0, 1.0 - p0]], atol=1e-12)

    def test_argmax_matches_training_probabilities(self):
        rng = np.random.default_rng(6)
        for kind in ("softmax", "isomax", "isomaxplus"):
            for _ in range(10):
                head, f, _ = gradcheck._draw_instance(kind, rng)
                infer = inference_probabilities(head, f)
                train = stable_softmax_rows(forward_logits(head, f), head.training_scale)
                np.testing.assert_array_equal(infer.argmax(axis=1), train.argmax(axis=1))

    def test_entropic_scale_removed(self):
        rng = np.random.default_rng(7)
        head = IsoMaxPlusHead(prototypes=rng.standard_normal((3, 4)),
                              entropic_scale=10.0)
        f = rng.standard_normal((5, 4))
        infer = inference_probabilities(head, f)
        train = stable_softmax_rows(forward_logits(head, f), head.training_scale)
        # the training softmax is strictly sharper away from uniform
        assert shannon_entropy_rows(infer).mean() > shannon_entropy_rows(train).mean()


class TestPredict:
    def test_feature_on_prototype(self):
        rng = np.random.default_rng(8)
        head = IsoMaxPlusHead(prototypes=rng.standard_normal((4, 3)))
        f = head.prototypes[2][None, :] * 3.0
        assert predict(head, f)[0] == 2

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        head = IsoMaxPlusHead(prototypes=rng.standard_normal((4, 3)))
        f = rng.standard_normal((20, 3))
        alphas = rng.uniform(0.1, 50.0, size=(20, 1))
        np.testing.assert_array_equal(predict(head, f), predict(head, f * alphas))

    def test_matches_brute_force_argmin(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            c, d, n = rng.integers(2, 5), rng.integers(1, 5), rng.integers(1, 9)
            head = IsoMaxHead(prototypes=rng.standard_normal((int(c), int(d))))
            f = rng.standard_normal((int(n), int(d)))
            expected = pairwise_euclidean(f, head.prototypes).argmin(axis=1)
            np.testing.assert_array_equal(predict(head, f), expected)

    def test_tie_breaks_to_lowest_index(self):
        head = SoftMaxHead(weights=np.zeros((3, 2)), bias=np.zeros(3))
        assert predict(head, [[1.0, 2.0]])[0] == 0


class TestHeadOutputs:
    @pytest.mark.parametrize("kind", ["softmax", "isomax", "isomaxplus"])
    def test_bit_identical_to_the_separate_functions(self, kind):
        rng = np.random.default_rng(8)
        head = {
            "softmax": SoftMaxHead.initial(4, 3, rng),
            "isomax": IsoMaxHead(prototypes=rng.standard_normal((4, 3))),
            "isomaxplus": IsoMaxPlusHead(prototypes=rng.standard_normal((4, 3)),
                                         distance_scale=-2.5),
        }[kind]
        f = rng.standard_normal((20, 3))
        out = head_outputs(head, f)
        np.testing.assert_array_equal(out.logits, forward_logits(head, f))
        np.testing.assert_array_equal(out.probabilities, inference_probabilities(head, f))
        np.testing.assert_array_equal(out.entropy,
                                      shannon_entropy_rows(inference_probabilities(head, f)))
        if kind == "softmax":
            assert out.distances is None
        else:
            np.testing.assert_array_equal(out.distances,
                                          feature_prototype_distances(head, f))


class TestBackward:
    def test_finite_difference_spot_checks(self):
        rng = np.random.default_rng(11)
        for kind in ("softmax", "isomax", "isomaxplus"):
            worst = max(gradcheck.check_head_instance(kind, rng) for _ in range(5))
            assert worst <= 1e-4

    def test_single_class_gradients_vanish(self):
        head = IsoMaxPlusHead(prototypes=np.array([[1.0, 2.0]]))
        grads = backward(head, [[0.3, -0.4]], [0])
        np.testing.assert_array_equal(grads.d_features, 0.0)
        np.testing.assert_array_equal(grads.params["prototypes"], 0.0)
        assert grads.params["distance_scale"] == 0.0

    def test_softmax_shift_invariance_of_loss(self):
        rng = np.random.default_rng(12)
        head = SoftMaxHead(weights=rng.standard_normal((3, 4)),
                           bias=rng.standard_normal(3))
        f = rng.standard_normal((6, 4))
        t = rng.integers(0, 3, size=6)
        shifted = SoftMaxHead(weights=head.weights, bias=head.bias + 17.5)
        assert training_loss(head, f, t) == pytest.approx(
            training_loss(shifted, f, t), abs=1e-12)
        grads = backward(head, f, t)
        assert grads.params["bias"].sum() == pytest.approx(0.0, abs=1e-12)

    def test_distance_scale_sign_irrelevant(self):
        rng = np.random.default_rng(13)
        protos = rng.standard_normal((3, 4))
        f = rng.standard_normal((5, 4))
        t = rng.integers(0, 3, size=5)
        pos = IsoMaxPlusHead(prototypes=protos, distance_scale=1.7)
        neg = IsoMaxPlusHead(prototypes=protos, distance_scale=-1.7)
        np.testing.assert_array_equal(forward_logits(pos, f), forward_logits(neg, f))
        assert training_loss(pos, f, t) == training_loss(neg, f, t)
        np.testing.assert_array_equal(inference_probabilities(pos, f),
                                      inference_probabilities(neg, f))
        np.testing.assert_array_equal(predict(pos, f), predict(neg, f))
        gp, gn = backward(pos, f, t), backward(neg, f, t)
        np.testing.assert_array_equal(gp.params["prototypes"], gn.params["prototypes"])
        assert gp.params["distance_scale"] == -gn.params["distance_scale"]

    def test_subgradient_at_zero_scale(self):
        head = IsoMaxPlusHead(prototypes=unit_prototypes(), distance_scale=0.0)
        grads = backward(head, [[0.6, 0.8]], [0])
        assert grads.params["distance_scale"] == 0.0


class TestIsometryInvariance:
    def test_rescaled_features_agree_everywhere(self):
        rng = np.random.default_rng(14)
        head = IsoMaxPlusHead(prototypes=rng.standard_normal((4, 5)))
        f = rng.standard_normal((10, 5))
        t = rng.integers(0, 4, size=10)
        scaled = f * rng.uniform(0.2, 20.0, size=(10, 1))
        np.testing.assert_allclose(forward_logits(head, f),
                                   forward_logits(head, scaled), atol=1e-9)
        assert training_loss(head, f, t) == pytest.approx(
            training_loss(head, scaled, t), abs=1e-9)
        np.testing.assert_allclose(inference_probabilities(head, f),
                                   inference_probabilities(head, scaled), atol=1e-9)
        np.testing.assert_array_equal(predict(head, f), predict(head, scaled))


class TestFactories:
    def test_isomax_prototypes_start_at_zero(self):
        head = IsoMaxHead.initial(4, 7, np.random.default_rng(0))
        np.testing.assert_array_equal(head.prototypes, 0.0)
        assert head.entropic_scale == 10.0

    def test_isomaxplus_seeded_standard_normal(self):
        rng = np.random.default_rng(99)
        head = IsoMaxPlusHead.initial(3, 5, rng)
        expected = np.random.default_rng(99).standard_normal((3, 5))
        np.testing.assert_array_equal(head.prototypes, expected)
        assert head.distance_scale == 1.0

    def test_softmax_bias_starts_at_zero(self):
        head = SoftMaxHead.initial(3, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(head.bias, 0.0)

    def test_min_distance_requires_distance_head(self):
        head = SoftMaxHead.initial(3, 5, np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            feature_prototype_distances(head, np.zeros((1, 5)))
