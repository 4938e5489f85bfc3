"""Backbone and optimizer tests."""

import copy

import numpy as np
import pytest

from oodkit import gradcheck, heads, model
from oodkit.data import BatchStream, gaussian_blobs
from oodkit.model import (
    MlpBackbone,
    SgdConfig,
    TrainingDiverged,
    backbone_backward,
    backbone_forward,
    fit,
    forward_trace,
    loss_and_gradients,
    make_backbone,
    make_train_state,
    named_parameters,
    nesterov_update,
    sgd_step,
)
from oodkit.numerics import ContractViolation
from oracles import fit_trace_oracle


class TestBackboneForward:
    def test_identity_when_empty(self):
        b = MlpBackbone(weights=[], biases=[])
        x = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_array_equal(backbone_forward(b, x), x)

    def test_all_zero_parameters(self):
        b = MlpBackbone(weights=[np.zeros((3, 2)), np.zeros((2, 3))],
                        biases=[np.zeros(3), np.zeros(2)])
        out = backbone_forward(b, [[1.0, -2.0]])
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_final_layer_has_no_rectifier(self):
        eye = MlpBackbone(weights=[np.eye(2)], biases=[np.zeros(2)])
        out = backbone_forward(eye, [[-1.5, 2.0]])
        np.testing.assert_array_equal(out, [[-1.5, 2.0]])  # negatives pass through

    def test_hidden_layer_rectifies(self):
        b = MlpBackbone(weights=[np.eye(2), np.eye(2)], biases=[np.zeros(2), np.zeros(2)])
        out = backbone_forward(b, [[-1.5, 2.0]])
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_width_mismatch(self):
        b = make_backbone([3, 2], np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            backbone_forward(b, [[1.0, 2.0]])

    def test_each_slice_of_a_stacked_forward_is_the_forward_of_its_backbone(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            high = 70 if trial % 3 == 0 else 6
            widths = [int(w) for w in rng.integers(1, high, size=int(rng.integers(2, 5)))]
            backbones = [make_backbone(widths, rng) for _ in range(int(rng.integers(1, 40)))]
            stacked = MlpBackbone(
                weights=[np.stack(layer) for layer in zip(*(b.weights for b in backbones))],
                biases=[np.stack(layer)[:, np.newaxis]
                        for layer in zip(*(b.biases for b in backbones))])
            x = rng.standard_normal((int(rng.integers(1, high + 3)), widths[0]))
            features, layer_inputs, preacts = forward_trace(stacked, x)
            assert features.shape == (len(backbones), len(x), widths[-1])
            np.testing.assert_array_equal(layer_inputs[0], x)
            for p, b in enumerate(backbones):
                one = forward_trace(b, x)
                np.testing.assert_array_equal(features[p], one[0])
                for got, expected in zip(layer_inputs[1:] + preacts, one[1][1:] + one[2]):
                    np.testing.assert_array_equal(got[p], expected)


class TestBackboneBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        b = make_backbone([3, 4, 2], np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((5, 3))
        grads = backbone_backward(b, forward_trace(b, x), np.zeros((5, 2)))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_finite_difference_spot_checks(self):
        rng = np.random.default_rng(3)
        worst = max(gradcheck.check_backbone_instance(rng) for _ in range(5))
        assert worst <= 1e-4

    def test_rectifier_subgradient_zero_at_kink(self):
        # A hidden unit sitting exactly at 0 passes no gradient to its
        # weights or its bias; the active unit beside it does.
        b = MlpBackbone(weights=[np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]])],
                        biases=[np.array([-2.0, 0.0]), np.zeros(1)])
        trace = forward_trace(b, [[2.0]])
        np.testing.assert_array_equal(trace[2][0], [[0.0, 2.0]])
        grads = backbone_backward(b, trace, np.array([[1.0]]))
        np.testing.assert_array_equal(grads["backbone.w0"], [[0.0], [2.0]])
        np.testing.assert_array_equal(grads["backbone.b0"], [0.0, 1.0])


def scratch():
    return np.empty(()), np.empty(())


class TestNesterovUpdate:
    def test_single_parameter_quadratic_hand_check(self):
        # loss 0.5 * (theta - 3)^2, gradient theta - 3, starting at 0
        cfg = SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
        theta, velocity = np.array(0.0), np.array(0.0)
        theta, velocity = nesterov_update(theta, theta - 3.0, velocity, cfg, 0.1, scratch())
        assert theta == pytest.approx(0.3)  # plain gradient descent step
        assert velocity == pytest.approx(-3.0)

    def test_momentum_lookahead_form(self):
        # v <- mu v + g; theta <- theta - lr (g + mu v), checked by hand
        cfg = SgdConfig(learning_rate=1.0, momentum=0.5, weight_decay=0.0)
        theta, velocity = np.array(1.0), np.array(2.0)
        new_theta, new_velocity = nesterov_update(theta, np.array(4.0), velocity, cfg, 1.0,
                                                  scratch())
        assert new_velocity == pytest.approx(0.5 * 2.0 + 4.0)       # 5.0
        assert new_theta == pytest.approx(1.0 - (4.0 + 0.5 * 5.0))  # -5.5

    def test_weight_decay_enters_gradient(self):
        cfg = SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.5)
        theta, _ = nesterov_update(np.array(2.0), np.array(0.0), np.array(0.0), cfg, 0.1,
                                   scratch())
        assert theta == pytest.approx(2.0 - 0.1 * (0.5 * 2.0))


def blob_state_and_data(head_kind, seed=0, classes=2, n=60):
    ds = gaussian_blobs(classes=classes, dims=2, centers_radius=4.0, sigma=0.4,
                        n_per_class=n, seed=seed)
    state = make_train_state([2, 8, 4], head_kind, classes, seed)
    return state, ds


def stream(state, ds, batch_size=64):
    """Batches reshuffled by (seed, 2) per epoch, as fit once built them
    from a bare Dataset."""
    return BatchStream(ds, batch_size, (state.seed, 2))


class TestLossAndGradients:
    @pytest.mark.parametrize("kind", heads.HEAD_KINDS)
    def test_one_gradient_per_parameter_from_the_checked_parts(self, kind):
        state, _ = blob_state_and_data(kind, seed=9)
        rng = np.random.default_rng(10)
        inputs, targets = rng.standard_normal((12, 2)), rng.integers(0, 2, size=12)
        loss, grads, _ = loss_and_gradients(state, inputs, targets)
        trace = forward_trace(state.backbone, inputs)
        d_features, params = heads.backward(state.head, trace[0], targets)
        assert loss == heads.training_loss(state.head, trace[0], targets)
        expected = backbone_backward(state.backbone, trace, d_features)
        expected.update((f"head.{name}", g) for name, g in params.items())
        assert set(grads) == {name for name, _ in named_parameters(state)}
        for name, param in named_parameters(state):
            assert grads[name].shape == param.shape, name
            np.testing.assert_array_equal(grads[name], expected[name], err_msg=name)


class TestSgdStep:
    def make_batch(self, rng, n=16):
        return rng.standard_normal((n, 2)) * 3.0, rng.integers(0, 2, size=n)

    def test_empty_batch_rejected(self):
        state, _ = blob_state_and_data("softmax")
        before = copy.deepcopy(state)
        with pytest.raises(ContractViolation, match="a batch needs at least one example"):
            sgd_step(state, np.zeros((0, 2)), [], SgdConfig())
        np.testing.assert_array_equal(state.head.weights, before.head.weights)
        assert not state.velocities

    @pytest.mark.parametrize("inputs, targets, message", [
        ([[np.nan, 0.0]], [0], "inputs contains non-finite entries"),
        (np.zeros((1, 3)), [0], "input width 3"),
        (np.zeros((2, 2)), [0.5, 1.0], "targets must be whole numbers"),
        (np.zeros((2, 2)), [0], "targets must be a 1-D vector"),
    ], ids=["non_finite_inputs", "input_width", "fractional_target", "target_count"])
    def test_rejected_batch_is_a_contract_violation(self, inputs, targets, message):
        state, _ = blob_state_and_data("isomaxplus")
        with pytest.raises(ContractViolation, match=message):
            sgd_step(state, inputs, targets, SgdConfig())
        assert not state.velocities

    def test_zero_learning_rate_keeps_parameters(self):
        state, _ = blob_state_and_data("isomaxplus")
        inputs, targets = self.make_batch(np.random.default_rng(5))
        before = copy.deepcopy(state)
        cfg = SgdConfig(learning_rate=0.0)
        loss, _ = sgd_step(state, inputs, targets, cfg)
        assert loss == heads.training_loss(
            before.head, backbone_forward(before.backbone, inputs), targets)
        for w0, w1 in zip(before.backbone.weights, state.backbone.weights):
            np.testing.assert_array_equal(w0, w1)
        np.testing.assert_array_equal(before.head.prototypes, state.head.prototypes)
        assert state.head.distance_scale == before.head.distance_scale
        assert state.velocities  # velocities still advanced

    def test_one_nesterov_update_over_every_parameter_per_step(self, monkeypatch):
        sizes = []
        update = model.nesterov_update

        def counted(param, *args, **kwargs):
            sizes.append(param.size)
            return update(param, *args, **kwargs)

        monkeypatch.setattr(model, "nesterov_update", counted)
        state, ds = blob_state_and_data("isomaxplus")
        total = sum(array.size for _, array in named_parameters(state))
        rng = np.random.default_rng(6)
        for _ in range(3):
            sgd_step(state, *self.make_batch(rng), SgdConfig())
        assert sizes == [total] * 3
        batches = stream(state, ds, 32)
        fit(state, batches, SgdConfig(epochs=2, batch_size=32))
        assert sizes == [total] * (3 + 2 * len(batches.for_epoch(1)))

    def test_bit_identical_across_runs(self):
        results = []
        for _ in range(2):
            state, _ = blob_state_and_data("isomaxplus", seed=7)
            batch = self.make_batch(np.random.default_rng(8))
            cfg = SgdConfig(learning_rate=0.1)
            for _ in range(3):
                sgd_step(state, *batch, cfg)
            results.append(state)
        a, b = results
        for w0, w1 in zip(a.backbone.weights, b.backbone.weights):
            np.testing.assert_array_equal(w0, w1)
        np.testing.assert_array_equal(a.head.prototypes, b.head.prototypes)
        assert a.head.distance_scale == b.head.distance_scale

    def test_gradient_reaches_every_parameter(self):
        # guards against silently detached parameters
        for kind in ("softmax", "isomax", "isomaxplus"):
            state, _ = blob_state_and_data(kind, seed=11)
            batch = self.make_batch(np.random.default_rng(12), n=32)
            cfg = SgdConfig(learning_rate=0.05)
            before = copy.deepcopy(state)
            sgd_step(state, *batch, cfg)
            for (w0, w1) in zip(before.backbone.weights, state.backbone.weights):
                assert np.any(w0 != w1)
            if kind == "softmax":
                assert np.any(before.head.weights != state.head.weights)
                assert np.any(before.head.bias != state.head.bias)
            else:
                assert np.any(before.head.prototypes != state.head.prototypes)
            if kind == "isomaxplus":
                assert state.head.distance_scale != before.head.distance_scale

    def test_divergence_carries_location(self):
        state, _ = blob_state_and_data("softmax")
        state.head.weights[:] = 1e300  # forces non-finite logits downstream
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingDiverged) as info:
            sgd_step(state, np.full((2, 2), 1e300), [0, 1], SgdConfig(), epoch=3, batch_index=1)
        assert str(info.value) == "non-finite loss nan at epoch 3 batch 1"

    def test_overflowing_features_raise_diverged_with_location(self):
        state, _ = blob_state_and_data("isomaxplus")
        state.backbone.weights[0][:] = 1e300  # finite, but the features overflow
        before = copy.deepcopy(state)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingDiverged, match="features at epoch 3 batch 1") as info:
            sgd_step(state, np.full((2, 2), 1e10), [0, 1], SgdConfig(), epoch=3, batch_index=1)
        assert (info.value.epoch, info.value.batch_index) == (3, 1)
        for w0, w1 in zip(before.backbone.weights, state.backbone.weights):
            np.testing.assert_array_equal(w0, w1)
        assert not state.velocities

    def test_overflowing_feature_norms_raise_diverged_with_location(self):
        # Finite features whose squared row norms overflow: isomaxplus
        # would normalize every row to the zero vector.
        state, _ = blob_state_and_data("isomaxplus")
        state.backbone.weights[0][...] *= 1e160
        state.backbone.biases[0][...] *= 1e160
        before = copy.deepcopy(state)
        batch = self.make_batch(np.random.default_rng(5))
        assert np.isfinite(backbone_forward(state.backbone, batch[0])).all()
        with pytest.raises(TrainingDiverged) as info:
            sgd_step(state, *batch, SgdConfig(), epoch=3, batch_index=1)
        assert str(info.value) == "non-finite feature norms at epoch 3 batch 1"
        assert (info.value.epoch, info.value.batch_index) == (3, 1)
        np.testing.assert_array_equal(state._layout.params, before._layout.params)
        assert not state.velocities

    def test_overflowing_prototype_norms_raise_diverged_with_location(self):
        # Finite prototypes whose squared row norms overflow: isomaxplus
        # would normalize every prototype to the zero vector.
        state, _ = blob_state_and_data("isomaxplus")
        state.head.prototypes[...] *= 1e160
        before = copy.deepcopy(state)
        batch = self.make_batch(np.random.default_rng(5))
        with pytest.raises(TrainingDiverged) as info:
            sgd_step(state, *batch, SgdConfig(), epoch=3, batch_index=1)
        assert str(info.value) == "non-finite prototype norms at epoch 3 batch 1"
        assert (info.value.epoch, info.value.batch_index) == (3, 1)
        np.testing.assert_array_equal(state._layout.params, before._layout.params)
        assert not state.velocities

    @pytest.mark.parametrize("kind, name", [("softmax", "weights"), ("isomax", "prototypes"),
                                            ("isomaxplus", "distance_scale")])
    def test_overflowing_logits_raise_diverged_with_location(self, kind, name):
        state, _ = blob_state_and_data(kind)
        getattr(state.head, name)[:] = 1e308  # finite features, but the logits overflow
        before = copy.deepcopy(state)
        batch = self.make_batch(np.random.default_rng(5))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingDiverged) as info:
            sgd_step(state, *batch, SgdConfig(), epoch=3, batch_index=1)
        assert str(info.value) == "non-finite loss nan at epoch 3 batch 1"
        assert (info.value.epoch, info.value.batch_index) == (3, 1)
        np.testing.assert_array_equal(getattr(state.head, name), getattr(before.head, name))
        assert not state.velocities


class TestFit:
    def test_zero_epochs_is_identity(self):
        state, ds = blob_state_and_data("isomax")
        before = copy.deepcopy(state)
        _, trace = fit(state, stream(state, ds), SgdConfig(epochs=0))
        assert trace == []
        np.testing.assert_array_equal(before.head.prototypes, state.head.prototypes)

    @pytest.mark.parametrize("kind", heads.HEAD_KINDS)
    def test_trace_equals_the_oracle(self, kind):
        # Accuracy of each step's pre-update logits; the learning rate and
        # the mean loss as before.
        state, ds = blob_state_and_data(kind, seed=13, classes=3, n=50)
        twin = copy.deepcopy(state)
        cfg = SgdConfig(learning_rate=0.05, epochs=4, batch_size=32, decay_epochs=[3])
        _, trace = fit(state, stream(state, ds, cfg.batch_size), cfg)
        expected = fit_trace_oracle(twin, stream(twin, ds, cfg.batch_size), cfg)
        assert trace == expected
        assert len({row["train_accuracy"] for row in trace}) > 1

    def test_decay_schedule_visible_in_trace(self):
        state, ds = blob_state_and_data("softmax")
        cfg = SgdConfig(learning_rate=0.1, epochs=4, decay_epochs=[2], decay_factor=10.0)
        _, trace = fit(state, stream(state, ds), cfg)
        rates = [row["learning_rate"] for row in trace]
        assert rates == pytest.approx([0.1, 0.01, 0.01, 0.01])

    def test_loss_decreases_on_separable_task(self):
        # The task must stay in its descent phase through epoch 5: wide
        # blobs and enough points keep early epoch means converging
        # rather than bouncing at noise level.
        for kind in ("softmax", "isomax", "isomaxplus"):
            ds = gaussian_blobs(classes=2, dims=2, centers_radius=4.0, sigma=1.0,
                                n_per_class=400, seed=0)
            state = make_train_state([2, 8, 4], kind, 2, seed=0)
            _, trace = fit(state, stream(state, ds), SgdConfig(epochs=5))
            losses = [row["mean_loss"] for row in trace]
            assert all(b < a for a, b in zip(losses, losses[1:])), (kind, losses)

    def test_quick_accuracy_on_blobs(self):
        for kind in ("softmax", "isomax", "isomaxplus"):
            state, ds = blob_state_and_data(kind, seed=4, classes=3, n=80)
            _, trace = fit(state, stream(state, ds), SgdConfig(epochs=10))
            assert trace[-1]["train_accuracy"] >= 0.9, kind

    def test_determinism_of_full_fit(self):
        finals = []
        for _ in range(2):
            state, ds = blob_state_and_data("isomaxplus", seed=21)
            _, trace = fit(state, stream(state, ds), SgdConfig(epochs=3))
            finals.append((state, trace))
        (s0, t0), (s1, t1) = finals
        assert t0 == t1
        np.testing.assert_array_equal(s0.head.prototypes, s1.head.prototypes)
        assert s0.head.distance_scale == s1.head.distance_scale
        for w0, w1 in zip(s0.backbone.weights, s1.backbone.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_distance_scale_grows_on_separable_data(self):
        # observational: the loss benefits from sharper distances
        state, ds = blob_state_and_data("isomaxplus", seed=5, classes=2, n=100)
        fit(state, stream(state, ds), SgdConfig(epochs=10))
        assert abs(state.head.distance_scale) >= 1.0

    @pytest.mark.parametrize("kind", heads.HEAD_KINDS)
    def test_last_step_that_overflows_the_features_raises_diverged(self, kind):
        # One batch per epoch, so the step that overflows is the last.
        state, ds = blob_state_and_data(kind, n=30)
        with pytest.raises(TrainingDiverged) as info:
            fit(state, stream(state, ds), SgdConfig(learning_rate=1e308, epochs=1))
        assert str(info.value) == "non-finite features after the update of epoch 1 batch 0"
        assert (info.value.epoch, info.value.batch_index) == (1, 0)

    def test_last_step_that_overflows_the_feature_norms_raises_diverged(self):
        # The update leaves finite features whose squared row norms overflow.
        state, ds = blob_state_and_data("isomaxplus", n=30)
        with pytest.raises(TrainingDiverged) as info:
            fit(state, stream(state, ds), SgdConfig(learning_rate=1e100, epochs=1))
        assert str(info.value) == (
            "non-finite feature norms after the update of epoch 1 batch 0")
        assert (info.value.epoch, info.value.batch_index) == (1, 0)

    def test_invalid_decay_epochs(self):
        with pytest.raises(ContractViolation):
            SgdConfig(epochs=5, decay_epochs=[3, 2])
        with pytest.raises(ContractViolation):
            SgdConfig(epochs=5, decay_epochs=[6])


class TestMakeTrainState:
    def test_isomaxplus_replays_from_seed(self):
        a = make_train_state([2, 8, 4], "isomaxplus", 3, seed=42)
        b = make_train_state([2, 8, 4], "isomaxplus", 3, seed=42)
        np.testing.assert_array_equal(a.head.prototypes, b.head.prototypes)
        for w0, w1 in zip(a.backbone.weights, b.backbone.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_unknown_head_kind(self):
        with pytest.raises(ContractViolation):
            make_train_state([2, 4], "cosine", 3, seed=0)
