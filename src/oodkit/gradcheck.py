"""Central finite-difference verification of every analytic gradient.

The suite draws small random instances, compares heads.backward and
model.loss_and_gradients, the gradient that sgd_step applies, against
central differences of the actual training loss, and reports the worst
guarded relative error. Each instance is checked once, by the gradient
call; the finite differences then run the unchecked model code, the
same arithmetic without the checks. finite_difference stacks the
perturbed copies of a group of arrays and scores them all in one call:
a head instance's features in one heads._row_losses call; its
class-indexed parameters in one head.forward on a head whose classes
are the copies side by side; the isomaxplus distance scale on the
distances of one base forward; and a backbone instance's arrays in one
stacked model.forward_trace. Instances too close to a
nondifferentiable or near-singular point (a rectifier kink, a
feature/prototype collision, a near-zero norm entering a
normalization) are redrawn, since finite differences at a fixed step
are meaningless there.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import heads, model
from .heads import HEAD_KINDS
from .numerics import ContractViolation, _softmax_rows

DEFAULT_STEP = 1e-5

# |analytic - numeric| / max(|analytic|, |numeric|, floor). The floor keeps
# the ratio meaningful where the true gradient is zero or tiny: central
# differences of a loss of magnitude L at step h carry rounding noise of
# roughly eps * L / h (about 1e-9 here), which would swamp any smaller
# denominator without indicating a wrong gradient.
ERROR_FLOOR = 1e-5


def finite_difference(row_losses, arrays) -> list:
    """Central-difference gradient of a mean loss with respect to each of
    the float64 arrays, which are not written.

    With E the entry count of arrays, copy k of the 2E perturbed copies
    moves the k-th entry, taken array by array and each in np.ndindex
    order, to keep + DEFAULT_STEP, and copy E + k moves it to
    keep - DEFAULT_STEP; every other entry keeps its bits. The copies of
    each array are stacked along a new leading axis, and
    row_losses(stacks) returns the n row losses of every copy, (2E, n)
    in copy order. Each difference is (hi - lo) / (2 * DEFAULT_STEP) of
    the mean over n.
    """
    total = sum(a.size for a in arrays)
    stacks, offset = [], 0
    for a in arrays:
        stack = np.tile(a.reshape(1, -1), (2 * total, 1)).reshape(2, total, a.size)
        entries = np.arange(a.size)
        stack[0, offset + entries, entries] = a.ravel() + DEFAULT_STEP
        stack[1, offset + entries, entries] = a.ravel() - DEFAULT_STEP
        stacks.append(stack.reshape(2 * total, *a.shape))
        offset += a.size
    hi, lo = row_losses(stacks).reshape(2, total, -1).mean(axis=-1)
    grad = (hi - lo) / (2.0 * DEFAULT_STEP)
    splits = np.cumsum([a.size for a in arrays])[:-1]
    return [g.reshape(a.shape) for g, a in zip(np.split(grad, splits), arrays)]


def relative_error(analytic, numeric) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ContractViolation(
            f"analytic gradient {analytic.shape} does not match numeric gradient "
            f"{numeric.shape}")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), ERROR_FLOOR)
    if analytic.size == 0:
        return 0.0
    return float((np.abs(analytic - numeric) / denom).max())


def _random_head(kind: str, classes: int, dim: int, rng: np.random.Generator):
    if kind == "softmax":
        return heads.SoftMaxHead(weights=rng.standard_normal((classes, dim)),
                                 bias=rng.standard_normal(classes))
    if kind == "isomax":
        return heads.IsoMaxHead(prototypes=rng.standard_normal((classes, dim)))
    # Exercise the |d_s| chain on both signs, staying clear of zero.
    scale = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    return heads.IsoMaxPlusHead(prototypes=rng.standard_normal((classes, dim)),
                                distance_scale=scale)


def _well_posed(head, features, targets) -> bool:
    """Whether central differences at DEFAULT_STEP measure the gradient
    here, rather than truncation error or an ambiguous kink.

    The distance gradient curves like 1/D^2 near a feature-prototype
    collision, and the normalization chain like 1/|v|^2 near a zero
    vector, so instances too close to either are redrawn. The loss is
    flat below the probability floor; deep inside either region finite
    differences agree with the analytic (sub)gradient, and only a narrow
    band around the floor itself is ambiguous.
    """
    logits, distances = head.forward(features)
    if distances is not None:
        if distances.min() < 0.05:
            return False
        if head.kind == "isomaxplus":
            if np.sqrt((features ** 2).sum(axis=1)).min() < 0.3:
                return False
            if np.sqrt((head.prototypes ** 2).sum(axis=1)).min() < 0.3:
                return False
    probs = _softmax_rows(logits, head.training_scale)
    at_target = probs[np.arange(len(targets)), targets]
    return not np.any((at_target > 1e-33) & (at_target < 1e-27))


def _draw_instance(kind: str, rng: np.random.Generator):
    """A random (head, features, targets) triple away from kinks."""
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(1, 5))
        head = _random_head(kind, c, d, rng)
        features = rng.standard_normal((n, d))
        targets = rng.integers(0, c, size=n)
        if _well_posed(head, features, targets):
            return head, features, targets
    raise RuntimeError("could not draw a differentiable instance")


# Parameters with one row per class. A head of the same kind whose class
# rows are P perturbed copies side by side scores all P in one forward.
_CLASS_INDEXED = ("weights", "bias", "prototypes")


def check_head_instance(kind: str, rng: np.random.Generator) -> float:
    """Worst relative error across every gradient of one random instance."""
    head, features, targets = _draw_instance(kind, rng)
    d_features, params = heads.backward(head, features, targets)
    names = [name for name in head.parameters if name in _CLASS_INDEXED]
    n, c = len(features), head.classes

    def feature_losses(stacks):
        (copies,) = stacks
        return heads._row_losses(head, copies.reshape(-1, head.dim), np.tile(targets, len(copies)))

    def class_row_losses(stacks):
        # Row i's logits against copy p are the wide head's columns p * c to (p + 1) * c.
        wide = dataclasses.replace(
            head, **{name: s.reshape(-1, *s.shape[2:]) for name, s in zip(names, stacks)})
        logits = wide.forward(features)[0].reshape(n, -1, c).transpose(1, 0, 2)
        return heads._logit_losses(head, logits.reshape(-1, c), np.tile(targets, len(logits)))

    def scale_losses(stacks):
        # -|s| * D, the products that forward makes, on one base forward's distances.
        logits = -np.abs(stacks[0])[:, :, np.newaxis] * head.forward(features)[1]
        return heads._logit_losses(head, logits.reshape(-1, c), np.tile(targets, len(logits)))

    numeric = dict(zip(names, finite_difference(
        class_row_losses, [getattr(head, name) for name in names])))
    if "distance_scale" in head.parameters:
        (numeric["distance_scale"],) = finite_difference(scale_losses, [head.distance_scale])
    (d_numeric,) = finite_difference(feature_losses, [features])
    errors = [relative_error(d_features, d_numeric)]
    errors += [relative_error(params[name], numeric[name]) for name in head.parameters]
    return max(errors)


def _draw_backbone_instance(rng: np.random.Generator):
    """A random (state, inputs, targets) triple, a backbone chained into a
    randomly chosen head, away from kinks."""
    for _ in range(100):
        n = int(rng.integers(1, 9))
        widths = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(2, 4)))]
        c = int(rng.integers(1, 5))
        kind = str(rng.choice(list(HEAD_KINDS)))
        backbone = model.make_backbone(widths, rng)
        head = _random_head(kind, c, widths[-1], rng)
        inputs = rng.standard_normal((n, widths[0]))
        targets = rng.integers(0, c, size=n)
        features, _, preacts = model.forward_trace(backbone, inputs)
        if any(np.abs(z).min() < 1e-4 for z in preacts[:-1] if z.size):
            continue
        if _well_posed(head, features, targets):
            return model.TrainState(backbone=backbone, head=head, velocities={}), inputs, targets
    raise RuntimeError("could not draw a differentiable backbone instance")


def check_backbone_instance(rng: np.random.Generator) -> float:
    """Worst relative error of the backbone parameter gradients, chained
    through a randomly chosen head."""
    state, inputs, targets = _draw_backbone_instance(rng)
    _, grads, _ = model.loss_and_gradients(state, inputs, targets)
    names, arrays = zip(*((name, p) for name, p in model.named_parameters(state)
                          if name.startswith("backbone.")))

    def backbone_losses(stacks):
        # named_parameters alternates backbone.w{i} and backbone.b{i}.
        copies = model.forward_trace(model.MlpBackbone(
            weights=stacks[0::2], biases=[b[:, np.newaxis] for b in stacks[1::2]]), inputs)[0]
        return heads._row_losses(state.head, copies.reshape(-1, copies.shape[-1]),
                                 np.tile(targets, len(copies)))

    return max(relative_error(grads[name], numeric)
               for name, numeric in zip(names, finite_difference(backbone_losses, arrays)))


_STREAM_IDS = {"softmax": 11, "isomax": 12, "isomaxplus": 13, "backbone": 14}


def run_suite(instances: int = 100, seed: int = 0) -> dict:
    """Max relative error per head kind and for the backbone chain."""
    if instances < 1:
        raise ContractViolation(f"instances must be at least 1, got {instances}")
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")
    results = {}
    for kind in HEAD_KINDS:
        rng = np.random.default_rng([seed, _STREAM_IDS[kind]])
        results[kind] = max(check_head_instance(kind, rng) for _ in range(instances))
    rng = np.random.default_rng([seed, _STREAM_IDS["backbone"]])
    results["backbone"] = max(check_backbone_instance(rng) for _ in range(instances))
    return results
