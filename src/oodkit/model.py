"""Fully connected backbone and the SGD training loop.

The backbone is a plain affine + rectifier stack whose final layer emits
raw features with no activation, so features can live anywhere in R^d.
Training uses Nesterov momentum in the reformulated parameter-space form
with weight decay added to the gradient, applied uniformly to every
trainable parameter including prototypes and the distance scale.

Every trainable array of a TrainState is a view into one float64 buffer,
laid out in named_parameters order, with gradient and velocity buffers of
the same layout. A step writes its gradients into the gradient buffer and
makes one in-place Nesterov update over the whole of it.
"""

from __future__ import annotations

import math
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


class _Layout:
    """Flat float64 buffers over the trainable arrays of a state.

    slots holds (name, shape, offset) per array, in named_parameters
    order. params, grads and velocity each span every array, and scratch
    is a pair of buffers of the same length for the in-place update.
    """

    def __init__(self, entries):
        self.slots, offset = [], 0
        for name, array in entries:
            self.slots.append((name, array.shape, offset))
            offset += array.size
        self.params = np.empty(offset)
        self.grads = np.zeros(offset)
        self.velocity = np.zeros(offset)
        self.scratch = (np.empty(offset), np.empty(offset))
        self.grad_views = self.views(self.grads)
        self.velocity_views = self.views(self.velocity)

    def views(self, buffer: np.ndarray) -> dict:
        """One view of buffer per slot, keyed by name."""
        return {name: buffer[offset:offset + math.prod(shape)].reshape(shape)
                for name, shape, offset in self.slots}


@dataclass
class TrainState:
    """A backbone and a head with their optimizer state.

    Building a state copies every trainable array into one parameter
    buffer and points the backbone and head attributes at views of it,
    and copies any velocities into a velocity buffer of the same layout.
    velocities stays empty until the first step; from then on it maps
    every named_parameters name to its view of the velocity buffer. A
    deep copy, or an unpickled state, lays out buffers of its own.
    """

    backbone: MlpBackbone
    head: ClassifierHead
    velocities: dict
    epoch: int = 0
    seed: int = 0
    config_hash: bytes = b"\x00" * 32

    def __post_init__(self):
        entries = named_parameters(self)
        self._layout = _Layout(entries)
        params = self._layout.views(self._layout.params)
        for name, array in entries:
            params[name][...] = array
        b = self.backbone
        b.weights = [params[f"backbone.w{i}"] for i in range(len(b.weights))]
        b.biases = [params[f"backbone.b{i}"] for i in range(len(b.biases))]
        for name in self.head.parameters:
            setattr(self.head, name, params[f"head.{name}"])
        self.load_velocities(self.velocities)

    def load_velocities(self, velocities: dict):
        """Copy velocities, keyed by named_parameters names, into the
        velocity buffer; each entry of self.velocities is then its view."""
        views = self._layout.velocity_views
        for name, velocity in list(velocities.items()):
            views[name][...] = velocity
            self.velocities[name] = views[name]

    def __getstate__(self):
        state = dict(vars(self))
        del state["_layout"]
        return state

    def __setstate__(self, state):
        vars(self).update(state)
        self.__post_init__()


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
    pre-activation in layer order.

    P backbones of the same widths run as one when each weight carries a
    leading stack axis, (P, out, in), and each bias is shaped (P, 1, out)
    to broadcast over the rows; the features are then (P, n, width), and
    each slice holds the same bits as the forward of that backbone alone."""
    h = as_matrix(inputs, "inputs")
    if b.weights and h.shape[1] != b.weights[0].shape[-1]:
        raise ContractViolation(
            f"input width {h.shape[1]} does not match layer 0 width "
            f"{b.weights[0].shape[-1]}"
        )
    layer_inputs, preacts = [], []
    last = len(b.weights) - 1
    for i, (w, bias) in enumerate(zip(b.weights, b.biases)):
        layer_inputs.append(h)
        z = h @ w.swapaxes(-1, -2) + bias
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
                    cfg: SgdConfig, lr: float, scratch):
    """One Nesterov step in the reformulated parameter-space form.

    g <- grad + weight_decay * param
    v <- momentum * v + g
    param <- param - lr * (g + momentum * v)

    param and velocity are updated in place. g and the bracket of the last
    line are formed in scratch, a pair of float64 arrays shaped like
    param, so an update over preallocated buffers allocates nothing.
    Returns (param, velocity).
    """
    g, step = scratch
    np.multiply(param, cfg.weight_decay, out=g)
    g += grad
    velocity *= cfg.momentum
    velocity += g
    np.multiply(velocity, cfg.momentum, out=step)
    step += g
    step *= lr
    param -= step
    return param, velocity


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
    """The mean training loss of a batch, its gradient, and how many of
    its rows the state classifies correctly, as (loss, grads, correct)
    with grads keyed by the named_parameters names.

    One forward pass feeds the checked heads.training_loss and
    heads.backward, then backbone_backward. A row's prediction is the
    argmax of its logits, ties going to the lowest class; the logits come
    from one unchecked head.forward on the features that training_loss
    has checked.
    """
    trace = forward_trace(state.backbone, inputs)
    features = trace[0]
    loss = heads.training_loss(state.head, features, targets)
    d_features, params = heads.backward(state.head, features, targets)
    grads = backbone_backward(state.backbone, trace, d_features)
    grads.update((f"head.{name}", g) for name, g in params.items())
    predictions = np.argmax(state.head.forward(features)[0], axis=1)
    return loss, grads, int(np.count_nonzero(predictions == targets))


def sgd_step(state: TrainState, inputs, targets, cfg: SgdConfig,
             lr: float | None = None, epoch: int | None = None,
             batch_index: int | None = None):
    """One optimizer step over a batch of inputs and integer targets;
    returns (loss, correct), the pre-update loss and the number of rows
    the pre-update parameters classify correctly.

    Each gradient is written into its slice of the state's gradient
    buffer, and one nesterov_update moves the whole parameter buffer.

    Raises TrainingDiverged, naming the epoch and the batch, when the
    forward features, the squared row norms of the features or the
    prototypes under the isomaxplus head, or the loss stop being finite;
    the state is then left as it was.
    """
    lr = cfg.learning_rate if lr is None else lr
    if np.size(targets) == 0:
        raise ContractViolation("a batch needs at least one example")
    try:
        loss, grads, correct = loss_and_gradients(state, inputs, targets)
    except ContractViolation:
        # training_loss rejects features the head cannot read. From inputs
        # that forward_trace accepts, they mean the parameters have grown
        # until the forward pass overflowed; inputs it rejects fail again
        # here.
        what = _unreadable(state, backbone_forward(state.backbone, inputs))
        if what is None:
            raise
        raise TrainingDiverged(
            f"non-finite {what} at epoch {epoch} batch {batch_index}",
            epoch=epoch, batch_index=batch_index,
        ) from None
    if not np.isfinite(loss):
        raise TrainingDiverged(
            f"non-finite loss {loss} at epoch {epoch} batch {batch_index}",
            epoch=epoch, batch_index=batch_index,
        )
    layout = state._layout
    for name, grad in layout.grad_views.items():
        grad[...] = grads[name]
    nesterov_update(layout.params, layout.grads, layout.velocity, cfg, lr, layout.scratch)
    state.velocities.update(layout.velocity_views)
    return loss, correct


def fit(state: TrainState, stream: BatchStream, cfg: SgdConfig):
    """Run the epoch loop over a stream's batches; returns (state, trace).

    The learning rate is divided by decay_factor at the start of each
    epoch listed in decay_epochs. Each trace row records the epoch, the
    learning rate in effect, the mean batch loss, and the running
    training accuracy: the share of the epoch's rows that the pre-update
    parameters of their own step classified correctly. No extra pass over
    the training set runs.

    Raises TrainingDiverged as sgd_step does, and also when the parameters
    of the last step give its batch features the head cannot read or a
    non-finite loss.
    """
    trace, last = [], None
    lr = cfg.learning_rate
    decay_at = set(int(e) for e in cfg.decay_epochs)
    # sgd_step reports an overflow as TrainingDiverged, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            if epoch in decay_at:
                lr = lr / cfg.decay_factor
            losses, correct, rows = [], 0, 0
            for bi, (inputs, targets) in enumerate(stream.for_epoch(epoch)):
                loss, batch_correct = sgd_step(state, inputs, targets, cfg, lr=lr,
                                               epoch=epoch, batch_index=bi)
                losses.append(loss)
                correct += batch_correct
                rows += len(targets)
                last = (inputs, targets, epoch, bi)
            state.epoch = epoch
            trace.append({
                "epoch": epoch,
                "learning_rate": lr,
                "mean_loss": float(np.mean(losses)) if losses else 0.0,
                "train_accuracy": correct / rows if rows else 0.0,
            })
        if last is not None:
            _check_last_step(state, *last)
    return state, trace


def _check_last_step(state: TrainState, inputs, targets, epoch: int, batch_index: int):
    """Raise TrainingDiverged, naming the step, when the parameters it left
    give its batch features the head cannot read or a non-finite loss.
    sgd_step checks each step's parameters before it updates them, so this
    covers the last."""
    features = backbone_forward(state.backbone, inputs)
    what = _unreadable(state, features)
    if what is None:
        loss = heads.training_loss(state.head, features, targets)
        if np.isfinite(loss):
            return
        what = f"loss {loss}"
    raise TrainingDiverged(
        f"non-finite {what} after the update of epoch {epoch} batch {batch_index}",
        epoch=epoch, batch_index=batch_index,
    )


def _unreadable(state: TrainState, features: np.ndarray) -> str | None:
    """What makes a batch's features unreadable by the state's head:
    "features" when an entry is not finite, "feature norms" or "prototype
    norms" when a squared row norm overflows under the isomaxplus head, or
    None."""
    if not np.isfinite(features).all():
        return "features"
    overflowing = heads._overflowing_norms(state.head, features)
    return None if overflowing is None else f"{overflowing} norms"
