"""The one listing of trainable parameters: head declarations, the
arrays named_parameters returns being the state's own attributes, and
those arrays, their gradients and velocities being views of the state's
flat buffers.

A parameter left out of a head's declaration is the one fault the
gradient check cannot see, since it only checks what the listing names.
"""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from oodkit import heads
from oodkit.data import BatchStream, gaussian_blobs
from oodkit.experiment import load_checkpoint, save_checkpoint
from oodkit.model import (
    MlpBackbone,
    SgdConfig,
    TrainState,
    fit,
    make_train_state,
    named_parameters,
    sgd_step,
)

HEAD_CLASSES = list(heads.HEAD_CLASSES.values())


def class_id(cls):
    return cls.kind


@pytest.mark.parametrize("cls", HEAD_CLASSES, ids=class_id)
def test_declarations_nest(cls):
    fields = [f.name for f in dataclasses.fields(cls)]
    assert set(cls.parameters) <= set(cls.checkpointed) <= set(fields)
    assert set(cls.checkpointed) - set(cls.parameters) in ({"entropic_scale"}, set())
    assert len(set(cls.checkpointed)) == len(cls.checkpointed)


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_every_array_field_is_a_declared_parameter(kind):
    head = make_train_state([2, 4], kind, 3, seed=0).head
    arrays = [f.name for f in dataclasses.fields(head)
              if isinstance(getattr(head, f.name), np.ndarray)]
    assert arrays == list(head.parameters)
    for name in head.parameters:
        assert getattr(head, name).dtype == np.float64


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_backward_returns_one_gradient_per_parameter(kind):
    rng = np.random.default_rng(1)
    head = make_train_state([2, 4], kind, 3, seed=1).head
    _, params = heads.backward(head, rng.standard_normal((5, 4)), rng.integers(0, 3, size=5))
    assert tuple(params) == head.parameters
    for name, grad in params.items():
        assert np.shape(grad) == getattr(head, name).shape


def expected_attributes(state):
    names, arrays = [], []
    for i, (w, b) in enumerate(zip(state.backbone.weights, state.backbone.biases)):
        names += [f"backbone.w{i}", f"backbone.b{i}"]
        arrays += [w, b]
    names += [f"head.{name}" for name in state.head.parameters]
    arrays += [getattr(state.head, name) for name in state.head.parameters]
    return names, arrays


def assert_listing_is_the_attributes(state):
    listed = named_parameters(state)
    names, arrays = expected_attributes(state)
    assert [name for name, _ in listed] == names
    for (_, listed_array), attribute in zip(listed, arrays):
        assert listed_array is attribute


def blobs(state):
    """Batches of 16, reshuffled by (seed, 2) per epoch."""
    ds = gaussian_blobs(classes=3, dims=2, centers_radius=4.0, sigma=0.5,
                        n_per_class=20, seed=0)
    return BatchStream(ds, 16, (state.seed, 2))


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_listing_after_make_train_state_and_fit(kind):
    state = make_train_state([2, 6, 4], kind, 3, seed=2)
    assert_listing_is_the_attributes(state)
    fit(state, blobs(state), SgdConfig(epochs=2, batch_size=16))
    assert_listing_is_the_attributes(state)


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_listing_after_load_checkpoint(kind, tmp_path):
    state = make_train_state([2, 6, 4], kind, 3, seed=3)
    fit(state, blobs(state), SgdConfig(epochs=1, batch_size=16))
    save_checkpoint(state, tmp_path / "ckpt.bin")
    restored = load_checkpoint(tmp_path / "ckpt.bin")
    assert_listing_is_the_attributes(restored)
    assert set(restored.velocities) == {name for name, _ in named_parameters(restored)}


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_sgd_step_updates_every_parameter_in_place(kind):
    state = make_train_state([2, 6, 4], kind, 3, seed=4)
    before = named_parameters(state)
    values = [array.copy() for _, array in before]
    rng = np.random.default_rng(4)
    sgd_step(state, rng.standard_normal((8, 2)), rng.integers(0, 3, size=8),
             SgdConfig(learning_rate=0.05))
    after = named_parameters(state)
    for (name, old), (_, new), value in zip(before, after, values):
        assert new is old, name
        assert np.any(new != value), name


def assert_views_of_the_layout(state):
    """Every parameter, gradient and velocity is a view of its buffer, at
    the offset its layout slot gives."""
    layout = state._layout
    listed = named_parameters(state)
    assert [name for name, _ in listed] == [name for name, _, _ in layout.slots]
    assert sum(array.size for _, array in listed) == layout.params.size
    for (name, array), (_, shape, offset) in zip(listed, layout.slots):
        assert array.shape == shape, name
        assert np.shares_memory(array, layout.params[offset:offset + array.size]), name
        grad = layout.grad_views[name]
        assert np.shares_memory(grad, layout.grads[offset:offset + grad.size]), name
    for name, velocity in state.velocities.items():
        _, _, offset = next(slot for slot in layout.slots if slot[0] == name)
        assert np.shares_memory(velocity, layout.velocity[offset:offset + velocity.size]), name


def step(state, seed):
    rng = np.random.default_rng(seed)
    sgd_step(state, rng.standard_normal((8, 2)), rng.integers(0, 3, size=8),
             SgdConfig(learning_rate=0.05))


def all_names(state):
    return {name for name, _ in named_parameters(state)}


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_views_after_make_train_state_sgd_step_and_fit(kind):
    state = make_train_state([2, 6, 4], kind, 3, seed=5)
    assert_views_of_the_layout(state)
    assert state.velocities == {}
    step(state, 5)
    assert_views_of_the_layout(state)
    assert set(state.velocities) == all_names(state)
    fit(state, blobs(state), SgdConfig(epochs=2, batch_size=16))
    assert_views_of_the_layout(state)


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_views_after_load_checkpoint(kind, tmp_path):
    state = make_train_state([2, 6, 4], kind, 3, seed=6)
    save_checkpoint(state, tmp_path / "fresh.bin")
    fresh = load_checkpoint(tmp_path / "fresh.bin")
    assert_views_of_the_layout(fresh)
    assert fresh.velocities == {}
    fit(state, blobs(state), SgdConfig(epochs=1, batch_size=16))
    save_checkpoint(state, tmp_path / "trained.bin")
    restored = load_checkpoint(tmp_path / "trained.bin")
    assert_views_of_the_layout(restored)
    for name, velocity in state.velocities.items():
        np.testing.assert_array_equal(restored.velocities[name], velocity, err_msg=name)
    step(restored, 6)
    assert_views_of_the_layout(restored)


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
@pytest.mark.parametrize("stepped", [False, True], ids=["fresh", "stepped"])
def test_a_deep_copy_trains_through_its_own_buffer(kind, stepped):
    state = make_train_state([2, 6, 4], kind, 3, seed=7)
    if stepped:
        step(state, 7)
    before = [array.copy() for _, array in named_parameters(state)]
    velocities = {name: v.copy() for name, v in state.velocities.items()}
    twin = copy.deepcopy(state)
    assert_views_of_the_layout(twin)
    assert not np.shares_memory(twin._layout.params, state._layout.params)
    assert set(twin.velocities) == set(velocities)
    step(twin, 8)
    assert_views_of_the_layout(twin)
    for (name, array), value in zip(named_parameters(state), before):
        np.testing.assert_array_equal(array, value, err_msg=name)
    for name, velocity in velocities.items():
        np.testing.assert_array_equal(state.velocities[name], velocity, err_msg=name)


def handmade_state(kind):
    """An unstepped state from fixed arrays, with no random draw."""
    backbone = MlpBackbone(weights=[np.linspace(-1.0, 1.0, 6).reshape(3, 2),
                                    np.linspace(-0.5, 0.7, 12).reshape(4, 3)],
                           biases=[np.linspace(0.1, 0.3, 3), np.linspace(-0.2, 0.2, 4)])
    arrays = {"weights": np.linspace(-2.0, 2.0, 12).reshape(3, 4),
              "bias": np.array([0.5, -0.25, 0.125]),
              "prototypes": np.linspace(-2.0, 2.0, 12).reshape(3, 4),
              "distance_scale": 1.5}
    cls = heads.HEAD_CLASSES[kind]
    head = cls(**{name: arrays[name] for name in cls.parameters})
    return TrainState(backbone=backbone, head=head, velocities={}, epoch=0, seed=11)


# sha256 of the checkpoint of handmade_state, as written before the
# parameters moved into one buffer.
@pytest.mark.parametrize("kind, digest", [
    ("softmax", "dbd2c9b65f43c5a9d07870a3f77888f153a18088164417c6c983aec2d9c64a03"),
    ("isomax", "84b9718f9fc5691d97d84a31370d99a84ae4c9ef0c033ef2de01930e1f58f53c"),
    ("isomaxplus", "3dbaf5ba648112dcfbaf11b485942d0559a1dcc3e218e5ff7de1b1d3027655c6"),
])
def test_unstepped_checkpoint_bytes_are_pinned(kind, digest, tmp_path):
    save_checkpoint(handmade_state(kind), tmp_path / "ckpt.bin")
    assert hashlib.sha256((tmp_path / "ckpt.bin").read_bytes()).hexdigest() == digest
