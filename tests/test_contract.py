"""The input contract: every public entry point rejects a non-finite
array, every public function and class of the array modules is such an
entry point or exempt for a stated reason, and the unchecked kernels
behind the entry points compute the same bits as the checked functions."""

import inspect
import os

import numpy as np
import pytest

from oodkit import data, heads, metrics, model, numerics, scores
from oodkit.numerics import ContractViolation

TARGETS = np.array([0, 1, 0, 1])
MODULES = (numerics, heads, scores, metrics, model, data)


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
        return heads.SoftMaxHead(weights=rng.standard_normal((2, 3)), bias=np.zeros(2))
    if kind == "isomax":
        return heads.IsoMaxHead(prototypes=rng.standard_normal((2, 3)))
    return heads.IsoMaxPlusHead(prototypes=rng.standard_normal((2, 3)), distance_scale=2.0)


BACKBONE = model.make_backbone([3, 4, 3], np.random.default_rng(2))

# Public name -> a call that passes `value` inside one of its arrays.
CASES = {
    "pairwise_euclidean[a]": lambda v: numerics.pairwise_euclidean(matrix(v), matrix()),
    "pairwise_euclidean[b]": lambda v: numerics.pairwise_euclidean(matrix(), matrix(v)),
    "stable_softmax_rows": lambda v: numerics.stable_softmax_rows(matrix(v), 10.0),
    "shannon_entropy_rows": lambda v: numerics.shannon_entropy_rows(constant(v, 2)),
    "sgd_step": lambda v: model.sgd_step(
        model.make_train_state([3, 4, 2], "softmax", 2, 0), matrix(v), TARGETS,
        model.SgdConfig()),
    "loss_and_gradients": lambda v: model.loss_and_gradients(
        model.make_train_state([3, 4, 2], "softmax", 2, 0), matrix(v), TARGETS),
    "DetectionScoreSet[in]": lambda v: metrics.DetectionScoreSet([0.5, v], [0.1, 0.2]),
    "DetectionScoreSet[out]": lambda v: metrics.DetectionScoreSet([0.5, 0.6], [v, 0.2]),
    "backbone_forward": lambda v: model.backbone_forward(BACKBONE, matrix(v)),
    "forward_trace": lambda v: model.forward_trace(BACKBONE, matrix(v)),
    "write_idx": lambda v: data.write_idx(
        data.Dataset(constant(v, 3), TARGETS), os.devnull, os.devnull),
}
for _kind in heads.HEAD_KINDS:
    CASES.update({
        f"training_loss[{_kind}]":
            lambda v, k=_kind: heads.training_loss(make_head(k), matrix(v), TARGETS),
        f"backward[{_kind}]":
            lambda v, k=_kind: heads.backward(make_head(k), matrix(v), TARGETS),
        f"predict[{_kind}]": lambda v, k=_kind: heads.predict(make_head(k), matrix(v)),
        f"inference_probabilities[{_kind}]":
            lambda v, k=_kind: heads.inference_probabilities(make_head(k), matrix(v)),
        f"head_outputs[{_kind}]":
            lambda v, k=_kind: heads.head_outputs(make_head(k), matrix(v)),
    })
for _kind in heads.DISTANCE_HEAD_KINDS:
    CASES.update({
        f"min_distance_score[{_kind}]":
            lambda v, k=_kind: scores.min_distance_score(make_head(k), matrix(v)),
        f"feature_prototype_distances[{_kind}]":
            lambda v, k=_kind: heads.feature_prototype_distances(make_head(k), matrix(v)),
    })

# Public function or class of MODULES -> why it has no case in CASES.
EXEMPT = {
    "ContractViolation": "the error every case expects",
    "as_matrix": "the finite-matrix check that the entry points run",
    "as_labels": "reads labels, where a NaN fails as not a whole number",
    "SoftMaxHead": "a container; a head function checks the features it reads",
    "IsoMaxHead": "a container; a head function checks the features it reads",
    "IsoMaxPlusHead": "a container; a head function checks the features it reads",
    "HeadOutputs": "the container head_outputs returns",
    "ScoreKind": "an enum of score names",
    "compute_score": "reads the outputs of head_outputs",
    "auroc": "reads a DetectionScoreSet, which checked its scores",
    "tnr_at_tpr95": "reads a DetectionScoreSet, which checked its scores",
    "dtacc": "reads a DetectionScoreSet, which checked its scores",
    "classification_accuracy": "compares labels",
    "TrainingDiverged": "an error",
    "MlpBackbone": "a container; a forward pass checks the inputs it reads",
    "SgdConfig": "optimizer settings, no array",
    "TrainState": "a container; sgd_step checks the batches it reads",
    "make_backbone": "builds arrays from a generator and takes none",
    "make_train_state": "builds arrays from a seed and takes none",
    "backbone_backward": ("its trace and d_features come from forward_trace and backward, "
                          "which checked them"),
    "nesterov_update": ("updates the state's own buffers; sgd_step is its checked caller, "
                        "and it stays public because perfbench/spans.py times it by name"),
    "named_parameters": "lists the arrays of a state",
    "fit": "trains through sgd_step, which checks every batch",
    "IdxParseError": "an error",
    "Dataset": "a container; a batch or a forward pass checks its arrays",
    "BatchStream": "a container; sgd_step checks each batch",
    "check_size": "checks a shape before any array is built",
    "check_spec": "checks a spec dict",
    "dataset_from_spec": "builds a set from a spec dict",
    "gaussian_blobs": "generates a set from its arguments",
    "ood_uniform": "generates a set from its arguments",
    "ood_ring": "generates a set from its arguments",
    "load_idx": "reads files; tests/test_readers.py covers them",
    "load_csv": "reads a file; tests/test_readers.py covers it",
    "write_csv": "writes a Dataset as it is",
    "split_dataset": "copies rows of a Dataset",
}


def public_names():
    """Every public function and class that MODULES define themselves."""
    return {name for module in MODULES for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__}


def test_every_public_name_has_a_case_or_an_exemption():
    cased = {case.split("[")[0] for case in CASES}
    public = public_names()
    assert sorted(public - cased - set(EXEMPT)) == []
    assert sorted((cased | set(EXEMPT)) - public) == []
    assert sorted(cased & set(EXEMPT)) == []


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
    np.testing.assert_array_equal(numerics._pairwise(a, b), numerics.pairwise_euclidean(a, b))
    for scale in (1.0, 10.0):
        np.testing.assert_array_equal(numerics._softmax_rows(a, scale),
                                      numerics.stable_softmax_rows(a, scale))

