"""The gradient check must fail on wrong gradients.

Each test seeds one bug into the analytic gradients by monkeypatching a
copy of the gradient code, then asserts that both the suite and
`oodkit gradcheck` report it.
"""

import re

import numpy as np
import pytest
from oracles import finite_difference_oracle, run_suite_oracle

from oodkit import experiment, gradcheck, heads, model
from oodkit.cli import GRADCHECK_TOLERANCE, cli_main
from oodkit.numerics import NORM_EPS, ContractViolation, stable_softmax_rows

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


def roll_feature_gradient_rows(monkeypatch):
    backward = heads.backward

    def rolled(head, features, targets):
        d_features, params = backward(head, features, targets)
        return np.roll(d_features, 1, axis=0), params

    monkeypatch.setattr(heads, "backward", rolled)


def roll_class_gradient_rows(monkeypatch):
    backward = heads.backward

    def rolled(head, features, targets):
        d_features, params = backward(head, features, targets)
        return d_features, {name: np.roll(g, 1, axis=0) if name in gradcheck._CLASS_INDEXED else g
                            for name, g in params.items()}

    monkeypatch.setattr(heads, "backward", rolled)


def double_the_step_gradient(monkeypatch):
    loss_and_gradients = model.loss_and_gradients

    def doubled(state, inputs, targets):
        loss, grads, correct = loss_and_gradients(state, inputs, targets)
        return loss, {name: 2.0 * g for name, g in grads.items()}, correct

    monkeypatch.setattr(model, "loss_and_gradients", doubled)


BUGS = {
    "step_gradient_doubled": double_the_step_gradient,
    "distance_scale_sign_flipped": flip_distance_scale_sign,
    "feature_gradient_rows_rolled": roll_feature_gradient_rows,
    "class_gradient_rows_rolled": roll_class_gradient_rows,
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


GOLDEN_GRADCHECK_STDOUT = """\
softmax: max relative error 1.135e-06
isomax: max relative error 1.776e-05
isomaxplus: max relative error 1.566e-05
backbone: max relative error 1.776e-05
overall max relative error 1.776e-05 (OK, tolerance 1e-04)
"""


def mean_loss(head, features, targets) -> float:
    """heads.training_loss without its checks."""
    return float(heads._row_losses(head, features, targets).mean())


def test_finite_difference_of_a_quadratic_leaves_its_arrays_unwritten():
    # loss = 0.5 * theta' A theta has gradient A theta; central differences
    # are exact on a quadratic up to rounding. theta is two arrays.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((9, 9))
    a = a + a.T
    arrays = [rng.standard_normal((2, 3)), rng.standard_normal(3)]
    before = [x.tobytes() for x in arrays]

    def row_losses(stacks):
        theta = np.concatenate([x.reshape(len(x), -1) for x in stacks], axis=1)
        return 0.5 * np.einsum("ki,ij,kj->k", theta, a, theta)[:, np.newaxis]

    grads = gradcheck.finite_difference(row_losses, arrays)
    assert [x.tobytes() for x in arrays] == before
    assert [g.shape for g in grads] == [x.shape for x in arrays]
    theta = np.concatenate([x.ravel() for x in arrays])
    np.testing.assert_allclose(np.concatenate([g.ravel() for g in grads]), a @ theta,
                               rtol=1e-7, atol=1e-9)


def test_gradcheck_stdout_is_the_golden_one(capsys):
    assert cli_main(["gradcheck", "--instances", "100", "--seed", "0"]) == 0
    assert capsys.readouterr().out == GOLDEN_GRADCHECK_STDOUT


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


def test_rolled_feature_gradient_rows_fail_every_head_kind(monkeypatch):
    # Right gradients in the wrong rows: only a check that compares each
    # entry's difference with its own row catches them.
    roll_feature_gradient_rows(monkeypatch)
    results = gradcheck.run_suite(instances=INSTANCES)
    for kind in heads.HEAD_KINDS:
        assert results[kind] > GRADCHECK_TOLERANCE, kind


def test_rolled_class_gradient_rows_fail_every_head_kind(monkeypatch):
    # Each stacked copy's difference must land on its own class row.
    roll_class_gradient_rows(monkeypatch)
    results = gradcheck.run_suite(instances=INSTANCES)
    for kind in heads.HEAD_KINDS:
        assert results[kind] > GRADCHECK_TOLERANCE, kind


def record_differences(monkeypatch, draw: str):
    """Record the instance of every gradcheck._<draw> call and, per
    finite_difference call, its arrays and differences, asserting that
    the arrays come back unwritten."""
    drawn, calls = [], []
    draw_instance, finite_difference = getattr(gradcheck, draw), gradcheck.finite_difference

    def recorded_draw(*args):
        drawn.append(draw_instance(*args))
        calls.clear()
        return drawn[-1]

    def recorded(row_losses, arrays):
        before = [a.tobytes() for a in arrays]
        numeric = finite_difference(row_losses, arrays)
        assert [a.tobytes() for a in arrays] == before
        calls.append((arrays, numeric))
        return numeric

    monkeypatch.setattr(gradcheck, draw, recorded_draw)
    monkeypatch.setattr(gradcheck, "finite_difference", recorded)
    return drawn, calls


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_stacked_feature_differences_match_the_per_entry_loop(kind, monkeypatch):
    drawn, calls = record_differences(monkeypatch, "_draw_instance")
    rng = np.random.default_rng([7, gradcheck._STREAM_IDS[kind]])
    for _ in range(1000):
        gradcheck.check_head_instance(kind, rng)
        head, features, targets = drawn[-1]
        [(stacked,)] = [numeric for arrays, numeric in calls if arrays[0] is features]
        looped = finite_difference_oracle(lambda: mean_loss(head, features, targets), features)
        if kind == "softmax":
            # The stacked product features @ weights.T can round a row in
            # its last bits differently from the product over the n rows.
            np.testing.assert_allclose(stacked, looped, rtol=1e-7)
        else:
            np.testing.assert_array_equal(stacked, looped)


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_stacked_class_row_differences_match_the_per_entry_loop(kind, monkeypatch):
    # The class-indexed parameters, and the isomaxplus distance scale.
    drawn, calls = record_differences(monkeypatch, "_draw_instance")
    rng = np.random.default_rng([8, gradcheck._STREAM_IDS[kind]])
    for _ in range(1000):
        gradcheck.check_head_instance(kind, rng)
        head, features, targets = drawn[-1]
        names = {id(getattr(head, name)): name for name in head.parameters}
        stacked = {names[id(p)]: g for arrays, numeric in calls
                   if arrays[0] is not features for p, g in zip(arrays, numeric)}
        assert sorted(stacked) == sorted(head.parameters)
        for name, numeric in stacked.items():
            looped = finite_difference_oracle(lambda: mean_loss(head, features, targets),
                                              getattr(head, name))
            np.testing.assert_array_equal(numeric, looped)


def test_stacked_backbone_differences_match_the_per_entry_loop(monkeypatch):
    drawn, calls = record_differences(monkeypatch, "_draw_backbone_instance")
    rng = np.random.default_rng([8, gradcheck._STREAM_IDS["backbone"]])
    for _ in range(1000):
        gradcheck.check_backbone_instance(rng)
        state, inputs, targets = drawn[-1]
        entries = [(name, p) for name, p in model.named_parameters(state)
                   if name.startswith("backbone.")]
        [(arrays, stacked)] = calls
        assert [id(p) for p in arrays] == [id(p) for _, p in entries]

        def loss():
            return mean_loss(state.head, model.backbone_forward(state.backbone, inputs),
                             targets)

        # The head scores the feature rows of every copy in one call, and
        # under softmax that product can round a row in its last bits
        # differently from the product over the n rows. A few ulps of a mean
        # loss, over 2 * DEFAULT_STEP, bound the difference on entries near 0.
        ulps = 8 * np.finfo(np.float64).eps * max(loss(), 1.0) / (2 * gradcheck.DEFAULT_STEP)
        for (_, p), numeric in zip(entries, stacked):
            looped = finite_difference_oracle(loss, p)
            if state.head.kind == "softmax":
                np.testing.assert_allclose(numeric, looped, rtol=1e-7, atol=ulps)
            else:
                np.testing.assert_array_equal(numeric, looped)


def count_head_forwards(monkeypatch) -> list:
    """Record the feature rows of every head.forward call, of every head kind."""
    calls = []
    for cls in heads.HEAD_CLASSES.values():
        def counted(self, features, forward=cls.forward):
            calls.append(len(features))
            return forward(self, features)
        monkeypatch.setattr(cls, "forward", counted)
    return calls


def test_a_head_instance_needs_the_same_head_forwards_for_any_parameter_count(monkeypatch):
    # Beyond the checked backward call: one forward for the stacked
    # perturbed feature rows, one for every class-indexed parameter entry
    # at once, and one base forward whose distances give both distance
    # scale copies, however many entries the head has.
    forwards, drawn = count_head_forwards(monkeypatch), []
    draw_instance = gradcheck._draw_instance

    def draw(*args):
        drawn.append(draw_instance(*args))
        forwards.clear()
        return drawn[-1]

    monkeypatch.setattr(gradcheck, "_draw_instance", draw)
    rng = np.random.default_rng(0)
    for kind in heads.HEAD_KINDS:
        sizes = set()
        for _ in range(20):
            gradcheck.check_head_instance(kind, rng)
            checked = len(forwards)
            head, features, targets = drawn[-1]
            forwards.clear()
            heads.backward(head, features, targets)
            assert checked - len(forwards) == 2 + ("distance_scale" in head.parameters)
            sizes.add(sum(getattr(head, name).size for name in head.parameters))
        assert len(sizes) > 1


def test_a_backbone_instance_needs_one_stacked_forward_for_all_its_entries(monkeypatch):
    # After the checked gradient call, one forward_trace of 2 x entries
    # stacked backbones and nothing else.
    stacks, expected = [], []
    forward_trace, loss_and_gradients = model.forward_trace, model.loss_and_gradients

    def traced(b, inputs):
        stacks.append([w.shape[:-2] for w in b.weights])
        return forward_trace(b, inputs)

    def checked(state, inputs, targets):
        result = loss_and_gradients(state, inputs, targets)
        entries = sum(p.size for name, p in model.named_parameters(state)
                      if name.startswith("backbone."))
        expected.append([(2 * entries,)] * len(state.backbone.weights))
        stacks.clear()
        return result

    monkeypatch.setattr(model, "forward_trace", traced)
    monkeypatch.setattr(model, "loss_and_gradients", checked)
    rng = np.random.default_rng(0)
    for _ in range(20):
        gradcheck.check_backbone_instance(rng)
        assert stacks == [expected[-1]]
    assert len({str(e) for e in expected}) > 1


@pytest.mark.parametrize("shapes", [((3, 1), (3, 4)), ((3,), (1, 3)), ((2, 2), (4,))])
def test_relative_error_rejects_gradients_of_different_shapes(shapes):
    analytic, numeric = (np.ones(shape) for shape in shapes)
    with pytest.raises(ContractViolation,
                       match=f"{re.escape(str(shapes[0]))} .* {re.escape(str(shapes[1]))}"):
        gradcheck.relative_error(analytic, numeric)


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
