"""The input contract: every public entry point rejects a non-finite
array, and the unchecked kernels behind the entry points compute the
same bits as the checked functions."""

import os

import numpy as np
import pytest

import oodkit
from oodkit import heads, numerics
from oodkit.numerics import ContractViolation

TARGETS = np.array([0, 1, 0, 1])


def matrix(value=0.0, n=4, d=3):
    """A random n x d matrix with `value` written into one entry."""
    m = np.random.default_rng(0).standard_normal((n, d))
    m[1, -1] = value
    return m


def constant(value, d):
    """A 4 x d matrix of 0.5 with `value` written into one entry; with
    d = 2 its rows are probability rows."""
    m = np.full((4, d), 0.5)
    m[1, -1] = value
    return m


def make_head(kind):
    rng = np.random.default_rng(1)
    if kind == "softmax":
        return oodkit.SoftMaxHead(weights=rng.standard_normal((2, 3)), bias=np.zeros(2))
    if kind == "isomax":
        return oodkit.IsoMaxHead(prototypes=rng.standard_normal((2, 3)))
    return oodkit.IsoMaxPlusHead(prototypes=rng.standard_normal((2, 3)), distance_scale=2.0)


BACKBONE = oodkit.make_backbone([3, 4, 3], np.random.default_rng(2))

# Public name -> a call that passes `value` inside one of its arrays.
# Public names that take arrays but are not listed: backbone_backward (its
# trace and d_features come from forward_trace and backward, which checked
# them); the head classes, MlpBackbone and Dataset (containers, whose
# arrays are checked when a batch or a forward pass reads them);
# write_csv (writes a Dataset as it is); classification_accuracy
# (compares labels); compute_score (reads the outputs of head_outputs).
CASES = {
    "pairwise_euclidean[a]": lambda v: oodkit.pairwise_euclidean(matrix(v), matrix()),
    "pairwise_euclidean[b]": lambda v: oodkit.pairwise_euclidean(matrix(), matrix(v)),
    "stable_softmax_rows": lambda v: oodkit.stable_softmax_rows(matrix(v), 10.0),
    "shannon_entropy_rows": lambda v: oodkit.shannon_entropy_rows(constant(v, 2)),
    "sgd_step": lambda v: oodkit.sgd_step(
        oodkit.make_train_state([3, 4, 2], "softmax", 2, 0), matrix(v), TARGETS,
        oodkit.SgdConfig()),
    "loss_and_gradients": lambda v: oodkit.loss_and_gradients(
        oodkit.make_train_state([3, 4, 2], "softmax", 2, 0), matrix(v), TARGETS),
    "DetectionScoreSet[in]": lambda v: oodkit.DetectionScoreSet([0.5, v], [0.1, 0.2]),
    "DetectionScoreSet[out]": lambda v: oodkit.DetectionScoreSet([0.5, 0.6], [v, 0.2]),
    "backbone_forward": lambda v: oodkit.backbone_forward(BACKBONE, matrix(v)),
    "forward_trace": lambda v: oodkit.forward_trace(BACKBONE, matrix(v)),
    "write_idx": lambda v: oodkit.write_idx(
        oodkit.Dataset(constant(v, 3), TARGETS), os.devnull, os.devnull),
}
for _kind in heads.HEAD_KINDS:
    CASES.update({
        f"training_loss[{_kind}]":
            lambda v, k=_kind: oodkit.training_loss(make_head(k), matrix(v), TARGETS),
        f"backward[{_kind}]":
            lambda v, k=_kind: oodkit.backward(make_head(k), matrix(v), TARGETS),
        f"predict[{_kind}]": lambda v, k=_kind: oodkit.predict(make_head(k), matrix(v)),
        f"inference_probabilities[{_kind}]":
            lambda v, k=_kind: oodkit.inference_probabilities(make_head(k), matrix(v)),
        f"head_outputs[{_kind}]":
            lambda v, k=_kind: oodkit.head_outputs(make_head(k), matrix(v)),
    })
for _kind in heads.DISTANCE_HEAD_KINDS:
    CASES[f"min_distance_score[{_kind}]"] = (
        lambda v, k=_kind: oodkit.min_distance_score(make_head(k), matrix(v)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_public_entry_point_rejects_a_non_finite_input(case, value):
    CASES[case](0.5)  # the same call with a finite value passes
    with pytest.raises(ContractViolation, match="non-finite"):
        CASES[case](value)


@pytest.mark.parametrize("n", [1, 7, numerics.DISTANCE_BLOCK_ROWS + 44])
def test_kernels_equal_their_public_functions(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 5)) * 10.0
    b = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(numerics._pairwise(a, b), oodkit.pairwise_euclidean(a, b))
    for scale in (1.0, 10.0):
        np.testing.assert_array_equal(numerics._softmax_rows(a, scale),
                                      oodkit.stable_softmax_rows(a, scale))


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_mean_loss_equals_training_loss(kind):
    head = make_head(kind)
    features = np.random.default_rng(3).standard_normal((9, 3)) * 2.0
    targets = np.random.default_rng(4).integers(0, 2, size=9)
    assert heads._mean_loss(head, features, targets) == oodkit.training_loss(
        head, features, targets)
