"""Central finite-difference verification of every analytic gradient.

The suite draws small random instances, compares heads.backward and
model.loss_and_gradients, the gradient that sgd_step applies, against
central differences of the actual training loss, and reports the worst
guarded relative error. Each instance is checked once, by the gradient
call; the finite differences then evaluate the unchecked heads._mean_loss,
the same arithmetic without the checks. Instances
too close to a nondifferentiable or near-singular point (a rectifier
kink, a feature/prototype collision, a near-zero norm entering a
normalization) are redrawn, since finite differences at a fixed step
are meaningless there.
"""

from __future__ import annotations

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


def finite_difference(loss, theta: np.ndarray) -> np.ndarray:
    """Central-difference gradient of loss() with respect to the float64
    array theta, which loss reads. Each entry is perturbed in place by
    DEFAULT_STEP and restored bit for bit before the next."""
    grad = np.zeros_like(theta)
    for i in np.ndindex(theta.shape):
        keep = theta[i]
        try:
            theta[i] = keep + DEFAULT_STEP
            hi = loss()
            theta[i] = keep - DEFAULT_STEP
            lo = loss()
        finally:
            theta[i] = keep
        grad[i] = (hi - lo) / (2.0 * DEFAULT_STEP)
    return grad


def relative_error(analytic, numeric) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
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


def check_head_instance(kind: str, rng: np.random.Generator) -> float:
    """Worst relative error across every gradient of one random instance."""
    head, features, targets = _draw_instance(kind, rng)
    d_features, params = heads.backward(head, features, targets)
    checks = [(d_features, features)]
    checks += [(params[name], getattr(head, name)) for name in head.parameters]

    def loss():
        return heads._mean_loss(head, features, targets)

    return max(relative_error(analytic, finite_difference(loss, theta))
               for analytic, theta in checks)


def check_backbone_instance(rng: np.random.Generator) -> float:
    """Worst relative error of the backbone parameter gradients, chained
    through a randomly chosen head."""
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
            break
    else:
        raise RuntimeError("could not draw a differentiable backbone instance")

    state = model.TrainState(backbone=backbone, head=head, velocities={})
    _, grads, _ = model.loss_and_gradients(state, inputs, targets)

    def loss():
        return heads._mean_loss(head, model.backbone_forward(backbone, inputs), targets)

    return max(relative_error(grads[name], finite_difference(loss, p))
               for name, p in model.named_parameters(state) if name.startswith("backbone."))


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
