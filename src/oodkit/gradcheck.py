"""Central finite-difference verification of every analytic gradient.

The suite draws small random instances, compares heads.backward and
model.backbone_backward against central differences of the actual
training loss, and reports the worst guarded relative error. Each
instance is checked once, by heads.backward and one heads.training_loss
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
from .numerics import stable_softmax_rows

DEFAULT_STEP = 1e-5

# |analytic - numeric| / max(|analytic|, |numeric|, floor). The floor keeps
# the ratio meaningful where the true gradient is zero or tiny: central
# differences of a loss of magnitude L at step h carry rounding noise of
# roughly eps * L / h (about 1e-9 here), which would swamp any smaller
# denominator without indicating a wrong gradient.
ERROR_FLOOR = 1e-5


def finite_difference(f, theta: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at array theta."""
    theta = np.array(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f(theta)
        flat[i] = keep - h
        lo = f(theta)
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(analytic, numeric, floor: float = ERROR_FLOOR) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
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


def _near_probability_floor(head, features, targets) -> bool:
    # The loss is flat below the probability floor. Deep inside either
    # region finite differences agree with the analytic (sub)gradient;
    # only a narrow band around the floor itself is ambiguous.
    probs = stable_softmax_rows(heads.forward_logits(head, features), head.training_scale)
    at_target = probs[np.arange(len(targets)), targets]
    return bool(np.any((at_target > 1e-33) & (at_target < 1e-27)))


def _smooth_at_step(kind: str, head, features) -> bool:
    """Reject near-singular geometry where central differences at the
    fixed step are dominated by truncation error rather than the gradient.

    The distance gradient curves like 1/D^2 near a feature-prototype
    collision, and the normalization chain like 1/|v|^2 near a zero
    vector, so instances too close to either are redrawn.
    """
    if kind == "softmax":
        return True
    distances = heads.feature_prototype_distances(head, features)
    if distances.min() < 0.05:
        return False
    if kind == "isomaxplus":
        if np.sqrt((features ** 2).sum(axis=1)).min() < 0.3:
            return False
        if np.sqrt((head.prototypes ** 2).sum(axis=1)).min() < 0.3:
            return False
    return True


def _draw_instance(kind: str, rng: np.random.Generator):
    """A random (head, features, targets) triple away from kinks."""
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(1, 5))
        head = _random_head(kind, c, d, rng)
        features = rng.standard_normal((n, d))
        targets = rng.integers(0, c, size=n)
        if not _smooth_at_step(kind, head, features):
            continue
        if _near_probability_floor(head, features, targets):
            continue
        return head, features, targets
    raise RuntimeError("could not draw a differentiable instance")


def _check_in_place(named, analytic: dict, loss, h: float) -> float:
    """Worst relative error over (name, array) parameters, each perturbed
    in place while loss() reads it, then restored bit for bit."""
    worst = 0.0
    for name, param in named:
        saved = param.copy()

        def loss_at(v):
            param[...] = v
            try:
                return loss()
            finally:
                param[...] = saved

        numeric = finite_difference(loss_at, saved, h)
        worst = max(worst, relative_error(analytic[name], numeric))
    return worst


def check_head_instance(kind: str, rng: np.random.Generator,
                        h: float = DEFAULT_STEP) -> float:
    """Worst relative error across every gradient of one random instance."""
    head, features, targets = _draw_instance(kind, rng)
    grads = heads.backward(head, features, targets)
    heads.training_loss(head, features, targets)  # the checks _mean_loss skips
    numeric = finite_difference(
        lambda f: heads._mean_loss(head, f, targets), features, h)
    return max(relative_error(grads.d_features, numeric), _check_in_place(
        [(name, getattr(head, name)) for name in head.parameters], grads.params,
        lambda: heads._mean_loss(head, features, targets), h))


def check_backbone_instance(rng: np.random.Generator,
                            h: float = DEFAULT_STEP) -> float:
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
        trace = model.forward_trace(backbone, inputs)
        features, _, preacts = trace
        if any(np.abs(z).min() < 1e-4 for z in preacts[:-1] if z.size):
            continue
        if not _smooth_at_step(kind, head, features):
            continue
        if _near_probability_floor(head, features, targets):
            continue
        break
    else:
        raise RuntimeError("could not draw a differentiable backbone instance")

    hg = heads.backward(head, features, targets)
    heads.training_loss(head, features, targets)  # the checks _mean_loss skips
    bg = model.backbone_backward(backbone, trace, hg.d_features)
    state = model.TrainState(backbone=backbone, head=head, velocities={})
    return _check_in_place(
        [(name, p) for name, p in model.named_parameters(state) if name.startswith("backbone.")],
        model.named_gradients(bg, hg),
        lambda: heads._mean_loss(head, model.backbone_forward(backbone, inputs), targets), h)


_STREAM_IDS = {"softmax": 11, "isomax": 12, "isomaxplus": 13, "backbone": 14}


def run_suite(instances: int = 100, seed: int = 0,
              h: float = DEFAULT_STEP) -> dict:
    """Max relative error per head kind and for the backbone chain."""
    results = {}
    for kind in HEAD_KINDS:
        rng = np.random.default_rng([seed, _STREAM_IDS[kind]])
        results[kind] = max(check_head_instance(kind, rng, h) for _ in range(instances))
    rng = np.random.default_rng([seed, _STREAM_IDS["backbone"]])
    results["backbone"] = max(check_backbone_instance(rng, h) for _ in range(instances))
    return results
