"""Fully connected backbone and the SGD training loop.

The backbone is a plain affine + rectifier stack whose final layer emits
raw features with no activation, so features can live anywhere in R^d.
Training uses Nesterov momentum in the reformulated parameter-space form
with weight decay added to the gradient, applied uniformly to every
trainable parameter including prototypes and the distance scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import heads
from .data import BatchStream
from .heads import ClassifierHead
from .numerics import ContractViolation, as_matrix

INIT_STREAM = 1


class TrainingDiverged(RuntimeError):
    """Raised when a batch's features or loss stop being finite."""

    def __init__(self, message: str, epoch: int | None = None,
                 batch_index: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass
class MlpBackbone:
    """Affine + ReLU stack; the last layer is purely affine.

    weights[i] has shape (widths[i+1], widths[i]). An empty layer list is
    the identity backbone.
    """

    weights: list
    biases: list

    @property
    def widths(self) -> list:
        if not self.weights:
            raise ContractViolation("identity backbone has no stored widths")
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def feature_dim(self) -> int:
        return self.weights[-1].shape[0] if self.weights else -1


@dataclass
class SgdConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 0
    decay_epochs: list[int] = field(default_factory=list)
    decay_factor: float = 10.0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ContractViolation("learning_rate must be nonnegative")
        if not (0 <= self.momentum < 1):
            raise ContractViolation("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ContractViolation("weight_decay must be nonnegative")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be at least 1")
        if self.epochs < 0:
            raise ContractViolation("epochs must be nonnegative")
        if self.decay_factor <= 0:
            raise ContractViolation("decay_factor must be positive")
        eps = list(self.decay_epochs)
        if any(e2 <= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ContractViolation("decay_epochs must be strictly increasing")
        if eps and (eps[0] < 1 or eps[-1] > self.epochs):
            raise ContractViolation("decay_epochs must lie within [1, epochs]")


@dataclass
class TrainState:
    backbone: MlpBackbone
    head: ClassifierHead
    velocities: dict
    epoch: int = 0
    seed: int = 0
    config_hash: bytes = b"\x00" * 32


def make_backbone(widths, rng: np.random.Generator) -> MlpBackbone:
    """Seeded uniform initialization, U(-k, k) with k = 1/sqrt(fan_in), for
    weights and biases alike; widths = [input, hidden..., feature].

    Nonzero biases matter here: they scatter the rectifier kinks across
    the (unit-scale, standardized) input region, so the network is not
    positively homogeneous and feature directions keep carrying radius
    information after normalization.
    """
    widths = [int(w) for w in widths]
    if any(w < 1 for w in widths):
        raise ContractViolation("layer widths must be positive")
    weights, biases = [], []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        k = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-k, k, (fan_out, fan_in)))
        biases.append(rng.uniform(-k, k, fan_out))
    return MlpBackbone(weights=weights, biases=biases)


def make_train_state(widths, head_kind: str, classes: int, seed: int,
                     entropic_scale: float = heads.DEFAULT_ENTROPIC_SCALE) -> TrainState:
    """Build a fresh state. One generator seeds backbone layers first, then
    the head, so the whole initialization replays from the seed alone."""
    widths = [int(w) for w in widths]
    rng = np.random.default_rng([seed, INIT_STREAM])
    backbone = make_backbone(widths, rng)
    if head_kind not in heads.HEAD_CLASSES:
        raise ContractViolation(f"unknown head kind {head_kind!r}")
    head = heads.HEAD_CLASSES[head_kind].initial(classes, widths[-1], rng, entropic_scale)
    return TrainState(backbone=backbone, head=head, velocities={}, seed=seed)


def backbone_forward(b: MlpBackbone, inputs) -> np.ndarray:
    """Features for a batch of inputs; identity when the stack is empty."""
    return forward_trace(b, inputs)[0]


def forward_trace(b: MlpBackbone, inputs):
    """Forward pass keeping what backbone_backward needs: returns
    (features, layer_inputs, preacts), each layer's input and
    pre-activation in layer order."""
    h = as_matrix(inputs, "inputs")
    if b.weights and h.shape[1] != b.weights[0].shape[1]:
        raise ContractViolation(
            f"input width {h.shape[1]} does not match layer 0 width "
            f"{b.weights[0].shape[1]}"
        )
    layer_inputs, preacts = [], []
    last = len(b.weights) - 1
    for i, (w, bias) in enumerate(zip(b.weights, b.biases)):
        layer_inputs.append(h)
        z = h @ w.T + bias
        preacts.append(z)
        h = z if i == last else np.maximum(z, 0.0)
    return h, layer_inputs, preacts


def backbone_backward(b: MlpBackbone, trace, d_features) -> dict:
    """Exact parameter gradients by the chain rule, from the forward_trace
    of the same backbone on the batch, keyed backbone.w{i} and
    backbone.b{i} like named_parameters.

    The rectifier uses subgradient 0 at exactly zero input. Inputs are
    data, not parameters, so nothing flows upstream of layer 0.
    """
    _, layer_inputs, preacts = trace
    grads = {}
    delta = np.asarray(d_features, dtype=np.float64)
    for i in range(len(b.weights) - 1, -1, -1):
        if i != len(b.weights) - 1:
            delta = delta * (preacts[i] > 0.0)
        grads[f"backbone.w{i}"] = delta.T @ layer_inputs[i]
        grads[f"backbone.b{i}"] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ b.weights[i]
    return grads


def nesterov_update(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
                    cfg: SgdConfig, lr: float):
    """One Nesterov step in the reformulated parameter-space form.

    g <- grad + weight_decay * param
    v <- momentum * v + g
    param <- param - lr * (g + momentum * v)

    The last line subtracts into param in place, so an array parameter
    keeps its identity. Returns (param, new_velocity).
    """
    g = grad + cfg.weight_decay * param
    v = cfg.momentum * velocity + g
    param -= lr * (g + cfg.momentum * v)
    return param, v


def named_parameters(state: TrainState) -> list:
    """Every trainable array of a state as (name, array) pairs, in a fixed
    order: backbone.w{i} and backbone.b{i} per layer, then head.<name> for
    each name in the head's `parameters`. Each array is the attribute
    itself, so writing into it changes the state."""
    entries = []
    for i, (w, b) in enumerate(zip(state.backbone.weights, state.backbone.biases)):
        entries += [(f"backbone.w{i}", w), (f"backbone.b{i}", b)]
    head = state.head
    return entries + [(f"head.{name}", getattr(head, name)) for name in head.parameters]


def loss_and_gradients(state: TrainState, inputs, targets):
    """The mean training loss of a batch and its gradient, as (loss, grads)
    with grads keyed by the named_parameters names.

    One forward pass feeds the checked heads.training_loss and
    heads.backward, then backbone_backward.
    """
    trace = forward_trace(state.backbone, inputs)
    features = trace[0]
    loss = heads.training_loss(state.head, features, targets)
    hg = heads.backward(state.head, features, targets)
    grads = backbone_backward(state.backbone, trace, hg.d_features)
    grads.update((f"head.{name}", g) for name, g in hg.params.items())
    return loss, grads


def sgd_step(state: TrainState, inputs, targets, cfg: SgdConfig,
             lr: float | None = None, epoch: int | None = None,
             batch_index: int | None = None) -> float:
    """One optimizer step over a batch of inputs and integer targets;
    returns the pre-update loss.

    Raises TrainingDiverged, naming the epoch and the batch, when the
    forward features or the loss stop being finite; the state is then
    left as it was.
    """
    lr = cfg.learning_rate if lr is None else lr
    if np.size(targets) == 0:
        raise ContractViolation("a batch needs at least one example")
    try:
        loss, grads = loss_and_gradients(state, inputs, targets)
    except ContractViolation:
        # training_loss rejects non-finite features. From inputs that
        # forward_trace accepts, they mean the parameters have grown until
        # the forward pass overflowed; inputs it rejects fail again here.
        if np.isfinite(backbone_forward(state.backbone, inputs)).all():
            raise
        raise TrainingDiverged(
            f"non-finite features at epoch {epoch} batch {batch_index}",
            epoch=epoch, batch_index=batch_index,
        ) from None
    if not np.isfinite(loss):
        raise TrainingDiverged(
            f"non-finite loss {loss} at epoch {epoch} batch {batch_index}",
            epoch=epoch, batch_index=batch_index,
        )
    for name, param in named_parameters(state):
        velocity = state.velocities.get(name)
        if velocity is None:
            velocity = np.zeros_like(param)
        _, state.velocities[name] = nesterov_update(param, grads[name], velocity, cfg, lr)
    return loss


def fit(state: TrainState, stream: BatchStream, cfg: SgdConfig, callbacks=None):
    """Run the epoch loop over a stream's batches; returns (state, trace).

    The learning rate is divided by decay_factor at the start of each
    epoch listed in decay_epochs. Each trace row records the epoch, the
    learning rate in effect, the mean batch loss, and full-pass training
    accuracy.
    """
    trace = []
    lr = cfg.learning_rate
    decay_at = set(int(e) for e in cfg.decay_epochs)
    for epoch in range(1, cfg.epochs + 1):
        if epoch in decay_at:
            lr = lr / cfg.decay_factor
        losses = []
        # sgd_step reports an overflow as TrainingDiverged, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for bi, (inputs, targets) in enumerate(stream.for_epoch(epoch)):
                losses.append(sgd_step(state, inputs, targets, cfg, lr=lr, epoch=epoch,
                                       batch_index=bi))
        state.epoch = epoch
        features = backbone_forward(state.backbone, stream.dataset.inputs)
        predictions = heads.predict(state.head, features)
        accuracy = float(np.mean(predictions == stream.dataset.targets))
        record = {
            "epoch": epoch,
            "learning_rate": lr,
            "mean_loss": float(np.mean(losses)) if losses else 0.0,
            "train_accuracy": accuracy,
        }
        trace.append(record)
        for cb in callbacks or ():
            cb(state, record)
    return state, trace
