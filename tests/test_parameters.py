"""The one listing of trainable parameters: head declarations, and the
arrays named_parameters returns being the state's own attributes.

A parameter left out of a head's declaration is the one fault the
gradient check cannot see, since it only checks what the listing names.
"""

import dataclasses

import numpy as np
import pytest

from oodkit import heads
from oodkit.data import BatchStream, gaussian_blobs
from oodkit.experiment import load_checkpoint, save_checkpoint
from oodkit.model import SgdConfig, fit, make_train_state, named_parameters, sgd_step

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
