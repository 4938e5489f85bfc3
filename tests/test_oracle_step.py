"""The head gradients and the training step, bit for bit against the
oracles in tests/oracles.py: one isinstance branch per head kind, and a
backbone backward that runs the forward pass again.

Bit identity is checked on many random instances at desk size, not only
at the seeds the shipped configs use.
"""

import copy

import numpy as np
import pytest

from oodkit import gradcheck, heads
from oodkit.model import SgdConfig, make_train_state, named_parameters, sgd_step
from oracles import head_backward_oracle, sgd_step_oracle

ROWS, WIDTH, CLASSES = 64, 64, 4
DESK_SGD = SgdConfig(learning_rate=0.03, momentum=0.9, weight_decay=0.01)


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_backward_equals_the_oracle(kind):
    rng = np.random.default_rng([heads.HEAD_KINDS.index(kind), 50])
    for _ in range(50):
        head = gradcheck._random_head(kind, CLASSES, WIDTH, rng)
        features = rng.standard_normal((ROWS, WIDTH)) * rng.uniform(0.1, 3.0)
        targets = rng.integers(0, CLASSES, size=ROWS)
        got_features, got_params = heads.backward(head, features, targets)
        expected_features, expected_params = head_backward_oracle(head, features, targets)
        np.testing.assert_array_equal(got_features, expected_features)
        assert got_params.keys() == expected_params.keys()
        for name, grad in expected_params.items():
            np.testing.assert_array_equal(got_params[name], grad)


@pytest.mark.parametrize("seed", [3, 1009])
@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_sgd_steps_equal_the_oracle(kind, seed):
    state = make_train_state([2, WIDTH, WIDTH], kind, CLASSES, seed)
    twin = copy.deepcopy(state)
    rng = np.random.default_rng([seed, 51])
    for step in range(50):
        inputs = rng.standard_normal((ROWS, 2)) * 2.0
        targets = rng.integers(0, CLASSES, size=ROWS)
        assert sgd_step(state, inputs, targets, DESK_SGD) == sgd_step_oracle(
            twin, inputs, targets, DESK_SGD), step
        for (name, got), (_, expected) in zip(named_parameters(state), named_parameters(twin)):
            np.testing.assert_array_equal(got, expected, err_msg=f"{name} at step {step}")
    assert state.velocities.keys() == twin.velocities.keys()
    for name, velocity in twin.velocities.items():
        np.testing.assert_array_equal(state.velocities[name], velocity, err_msg=name)
