"""The gradient check must fail on wrong gradients.

Each test seeds one bug into the analytic gradients by monkeypatching a
copy of the gradient code, then asserts that both the suite and
`oodkit gradcheck` report it.
"""

import numpy as np
import pytest
from oracles import run_suite_oracle

from oodkit import experiment, gradcheck, heads, model
from oodkit.cli import GRADCHECK_TOLERANCE, cli_main
from oodkit.numerics import NORM_EPS, stable_softmax_rows

INSTANCES = 5


def loss_grad_wrt_logits(head, logits, targets, mean=True, entropic=True):
    """heads._loss_grad_wrt_logits, with switches that remove the 1/n of
    the mean or the entropic scale from the gradient."""
    scale = head.training_scale
    n = len(targets)
    probs = stable_softmax_rows(logits, scale)
    grad = probs.copy()
    grad[np.arange(n), targets] -= 1.0
    grad *= (scale if entropic else 1.0) / (n if mean else 1)
    clamped = probs[np.arange(n), targets] < heads.PROBABILITY_FLOOR
    if np.any(clamped):
        grad[clamped] = 0.0
    return grad


def normalize_backward_without_projection(raw, unit, d_unit):
    """heads._normalize_backward with the (I - u u^T) projection dropped."""
    norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
    out = d_unit / np.maximum(norms, NORM_EPS)[:, np.newaxis]
    out[norms < NORM_EPS] = 0.0
    return out


def backbone_backward_without_mask(b, trace, d_features):
    """model.backbone_backward with the rectifier mask dropped."""
    _, layer_inputs, _ = trace
    grads = {}
    delta = np.asarray(d_features, dtype=np.float64)
    for i in range(len(b.weights) - 1, -1, -1):
        grads[f"backbone.w{i}"] = delta.T @ layer_inputs[i]
        grads[f"backbone.b{i}"] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ b.weights[i]
    return grads


def flip_distance_scale_sign(monkeypatch):
    backward = heads.backward

    def flipped(head, features, targets):
        d_features, params = backward(head, features, targets)
        if "distance_scale" in params:
            params["distance_scale"] = -params["distance_scale"]
        return d_features, params

    monkeypatch.setattr(heads, "backward", flipped)


def double_the_step_gradient(monkeypatch):
    loss_and_gradients = model.loss_and_gradients

    def doubled(state, inputs, targets):
        loss, grads, correct = loss_and_gradients(state, inputs, targets)
        return loss, {name: 2.0 * g for name, g in grads.items()}, correct

    monkeypatch.setattr(model, "loss_and_gradients", doubled)


BUGS = {
    "step_gradient_doubled": double_the_step_gradient,
    "distance_scale_sign_flipped": flip_distance_scale_sign,
    "mean_without_1_over_n": lambda mp: mp.setattr(
        heads, "_loss_grad_wrt_logits",
        lambda head, logits, targets: loss_grad_wrt_logits(head, logits, targets, mean=False)),
    "normalization_without_projection": lambda mp: mp.setattr(
        heads, "_normalize_backward", normalize_backward_without_projection),
    "rectifier_without_mask": lambda mp: mp.setattr(
        model, "backbone_backward", backbone_backward_without_mask),
    "logit_gradient_without_entropic_scale": lambda mp: mp.setattr(
        heads, "_loss_grad_wrt_logits",
        lambda head, logits, targets: loss_grad_wrt_logits(head, logits, targets,
                                                           entropic=False)),
}


def test_finite_difference_of_a_quadratic_restores_theta():
    # loss = 0.5 * theta' A theta has gradient A theta; central differences
    # are exact on a quadratic up to rounding.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    a = a + a.T
    theta = rng.standard_normal((2, 3))
    before = theta.tobytes()
    grad = gradcheck.finite_difference(
        lambda: 0.5 * theta.ravel() @ a @ theta.ravel(), theta)
    assert theta.tobytes() == before
    assert grad.shape == theta.shape
    np.testing.assert_allclose(grad.ravel(), a @ theta.ravel(), rtol=1e-7, atol=1e-9)


def test_unmodified_gradients_pass_at_the_same_size(capsys):
    assert max(gradcheck.run_suite(instances=INSTANCES).values()) <= GRADCHECK_TOLERANCE
    assert cli_main(["gradcheck", "--instances", str(INSTANCES)]) == 0
    capsys.readouterr()


def test_the_copies_match_the_originals():
    # The seeded bugs differ from the real code only by the bug.
    rng = np.random.default_rng(5)
    head = heads.IsoMaxPlusHead(prototypes=rng.standard_normal((3, 4)), distance_scale=1.5)
    logits, targets = rng.standard_normal((6, 3)), rng.integers(0, 3, size=6)
    np.testing.assert_array_equal(loss_grad_wrt_logits(head, logits, targets),
                                  heads._loss_grad_wrt_logits(head, logits, targets))
    # A single affine layer has no rectifier, so the mask never applies.
    backbone = model.make_backbone([3, 4], rng)
    inputs, d_features = rng.standard_normal((6, 3)), rng.standard_normal((6, 4))
    trace = model.forward_trace(backbone, inputs)
    expected = model.backbone_backward(backbone, trace, d_features)
    got = backbone_backward_without_mask(backbone, trace, d_features)
    np.testing.assert_array_equal(got["backbone.w0"], expected["backbone.w0"])
    np.testing.assert_array_equal(got["backbone.b0"], expected["backbone.b0"])


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_gradcheck_catches_a_seeded_bug(bug, monkeypatch, capsys):
    BUGS[bug](monkeypatch)
    assert max(gradcheck.run_suite(instances=INSTANCES).values()) > GRADCHECK_TOLERANCE
    assert cli_main(["gradcheck", "--instances", str(INSTANCES)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_suite_matches_the_suite_with_checked_finite_differences():
    assert gradcheck.run_suite(instances=10, seed=0) == run_suite_oracle(10, 0)


def test_suite_repeats_after_a_training_in_the_same_process():
    # Nothing a training leaves behind may reach the next suite.
    first = gradcheck.run_suite(instances=10, seed=0)
    cfg = experiment.ExperimentConfig.from_dict({
        "head": "isomaxplus", "backbone_widths": [2, 8, 8],
        "in_distribution": {"kind": "blobs", "classes": 3, "dims": 2,
                            "centers_radius": 4.0, "sigma": 0.5, "n_per_class": 40},
        "score_kinds": [], "seeds": [4], "sgd": {"epochs": 3, "batch_size": 16}})
    experiment.train_single_seed(cfg, 4)
    assert gradcheck.run_suite(instances=10, seed=0) == first
