"""Brute-force reference implementations shared by the test suite.

These stay deliberately naive and independent of the package's fast
paths: AUROC counts every pair, the threshold metrics scan every
candidate with direct comparisons.
"""

import numpy as np

from oodkit import gradcheck, heads, model
from oodkit.heads import (
    DISTANCE_GRAD_EPS,
    PROBABILITY_FLOOR,
    IsoMaxHead,
    IsoMaxPlusHead,
    SoftMaxHead,
)
from oodkit.numerics import (
    NORM_EPS,
    ContractViolation,
    as_matrix,
    _normalize_rows,
    pairwise_euclidean,
    stable_softmax_rows,
)


def auroc_oracle(in_scores, out_scores):
    """Pairwise Mann-Whitney count: win 1, tie 0.5."""
    in_scores = np.asarray(in_scores)[:, None]
    out_scores = np.asarray(out_scores)[None, :]
    wins = (in_scores > out_scores).sum()
    ties = (in_scores == out_scores).sum()
    return (wins + 0.5 * ties) / (in_scores.size * out_scores.size)


def tnr_oracle(in_scores, out_scores):
    """Exhaustive threshold scan, largest threshold with TPR >= 0.95."""
    in_scores = np.asarray(in_scores)
    out_scores = np.asarray(out_scores)
    n, m = len(in_scores), len(out_scores)
    best = None
    for t in sorted(set(np.concatenate([in_scores, out_scores]))):
        tpr = (in_scores > t).sum() / n
        if tpr >= 0.95:
            best = t
    if best is None:
        return 0.0  # threshold falls back to -inf
    return (out_scores <= best).sum() / m


def dtacc_oracle(in_scores, out_scores):
    """Exhaustive scan of 1 - min risk, candidates plus +/- infinity."""
    in_scores = np.asarray(in_scores)
    out_scores = np.asarray(out_scores)
    n, m = len(in_scores), len(out_scores)
    candidates = sorted(set(np.concatenate([in_scores, out_scores])))
    candidates += [np.inf, -np.inf]
    risks = []
    for t in candidates:
        cin = (in_scores <= t).sum()
        cout = (out_scores > t).sum()
        risks.append(0.5 * (cin / n) + 0.5 * (cout / m))
    return 1.0 - min(risks)


def random_score_set(rng, max_size=200):
    """Random in/out score pair mixing continuous and heavy-tie styles."""
    n = int(rng.integers(1, max_size + 1))
    m = int(rng.integers(1, max_size + 1))
    style = rng.integers(0, 3)
    if style == 0:  # continuous, ties essentially impossible
        return rng.standard_normal(n), rng.standard_normal(m) - rng.uniform(0, 2)
    if style == 1:  # heavy ties from a tiny value set
        values = rng.standard_normal(4)
        return rng.choice(values, size=n), rng.choice(values, size=m)
    # half-integer grid, moderate ties
    return rng.integers(-6, 7, size=n) / 2.0, rng.integers(-8, 5, size=m) / 2.0


def pairwise_euclidean_oracle(a, b):
    """The unblocked kernel: the whole n x c x d difference tensor at once."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a[:, np.newaxis, :] - b[np.newaxis, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def fused_log_softmax_loss(head, features, targets):
    """The training loss by one fused log-sum-exp over the scaled logits,
    against which the separate-form heads.training_loss is compared. The
    entropic scale sharpens the distance heads only."""
    scale = 1.0 if head.kind == "softmax" else float(head.entropic_scale)
    z = heads.head_outputs(head, features).logits * scale
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(targets)), np.asarray(targets)].mean())


# ---------------------------------------------------------------------------
# The training step as it was written before each head kind became a class:
# one isinstance branch per kind, and a backbone backward that runs the
# forward pass again. The package's step must match it bit for bit.


def _check_features_oracle(head, features):
    features = as_matrix(features, "features")
    if features.shape[1] != head.dim:
        raise ContractViolation(
            f"feature dimension {features.shape[1]} does not match head dimension {head.dim}"
        )
    return features


def _check_targets_oracle(head, targets, n):
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or len(targets) != n:
        raise ContractViolation("targets must be a 1-D vector matching the feature rows")
    if np.any(targets < 0) or np.any(targets >= head.classes):
        raise ContractViolation(
            f"targets must lie in [0, {head.classes}), got range "
            f"[{targets.min()}, {targets.max()}]"
        )
    return targets


def _training_scale_oracle(head):
    if isinstance(head, SoftMaxHead):
        return 1.0
    return float(head.entropic_scale)


def _logits_oracle(head, features):
    features = _check_features_oracle(head, features)
    if isinstance(head, SoftMaxHead):
        return features @ head.weights.T + head.bias
    if isinstance(head, IsoMaxHead):
        return -pairwise_euclidean(features, head.prototypes)
    distances = pairwise_euclidean(_normalize_rows(features), _normalize_rows(head.prototypes))
    return -abs(head.distance_scale[0]) * distances


def training_loss_oracle(head, features, targets):
    features = _check_features_oracle(head, features)
    targets = _check_targets_oracle(head, targets, len(features))
    probs = stable_softmax_rows(_logits_oracle(head, features), _training_scale_oracle(head))
    at_target = probs[np.arange(len(targets)), targets]
    return float(-np.log(np.maximum(at_target, PROBABILITY_FLOOR)).mean())


def _loss_grad_wrt_logits_oracle(head, logits, targets):
    scale = _training_scale_oracle(head)
    n = len(targets)
    probs = stable_softmax_rows(logits, scale)
    grad = probs.copy()
    grad[np.arange(n), targets] -= 1.0
    grad *= scale / n
    clamped = probs[np.arange(n), targets] < PROBABILITY_FLOOR
    if np.any(clamped):
        grad[clamped] = 0.0
    return grad


def _normalize_backward_oracle(raw, unit, d_unit):
    norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
    inner = np.einsum("ij,ij->i", unit, d_unit)
    out = (d_unit - inner[:, np.newaxis] * unit) / np.maximum(norms, NORM_EPS)[:, np.newaxis]
    out[norms < NORM_EPS] = 0.0
    return out


def head_backward_oracle(head, features, targets):
    """heads.backward with one isinstance branch per head kind."""
    features = _check_features_oracle(head, features)
    targets = _check_targets_oracle(head, targets, len(features))

    if isinstance(head, SoftMaxHead):
        logits = features @ head.weights.T + head.bias
        g = _loss_grad_wrt_logits_oracle(head, logits, targets)
        return g @ head.weights, {"weights": g.T @ features, "bias": g.sum(axis=0)}

    if isinstance(head, IsoMaxHead):
        distances = pairwise_euclidean(features, head.prototypes)
        g = _loss_grad_wrt_logits_oracle(head, -distances, targets)
        # dL/dD = -g; coefficient per pair on (f_i - p_j)
        coeff = -g / np.maximum(distances, DISTANCE_GRAD_EPS)
        d_features = coeff.sum(axis=1)[:, np.newaxis] * features - coeff @ head.prototypes
        d_prototypes = (
            coeff.sum(axis=0)[:, np.newaxis] * head.prototypes - coeff.T @ features
        )
        return d_features, {"prototypes": d_prototypes}

    if isinstance(head, IsoMaxPlusHead):
        fhat = _normalize_rows(features)
        phat = _normalize_rows(head.prototypes)
        distances = pairwise_euclidean(fhat, phat)
        s = abs(head.distance_scale[0])
        g = _loss_grad_wrt_logits_oracle(head, -s * distances, targets)
        # dL/dD = -s g; chain onto the unit vectors, then through both
        # normalizations, and finally into the scalar scale.
        coeff = -s * g / np.maximum(distances, DISTANCE_GRAD_EPS)
        d_fhat = coeff.sum(axis=1)[:, np.newaxis] * fhat - coeff @ phat
        d_phat = coeff.sum(axis=0)[:, np.newaxis] * phat - coeff.T @ fhat
        d_scale_abs = -(g * distances).sum()
        return _normalize_backward_oracle(features, fhat, d_fhat), {
            "prototypes": _normalize_backward_oracle(head.prototypes, phat, d_phat),
            "distance_scale": np.sign(head.distance_scale) * d_scale_abs}

    raise ContractViolation(f"unknown head kind {head.kind!r}")


def _backbone_trace_oracle(b, inputs):
    h = as_matrix(inputs, "inputs")
    layer_inputs, preacts = [], []
    last = len(b.weights) - 1
    for i, (w, bias) in enumerate(zip(b.weights, b.biases)):
        layer_inputs.append(h)
        z = h @ w.T + bias
        preacts.append(z)
        h = z if i == last else np.maximum(z, 0.0)
    return h, layer_inputs, preacts


def _backbone_backward_oracle(b, inputs, d_features):
    """The backbone backward that runs the forward pass again."""
    _, layer_inputs, preacts = _backbone_trace_oracle(b, inputs)
    d_features = np.asarray(d_features, dtype=np.float64)
    grads = {}
    delta = d_features
    for i in range(len(b.weights) - 1, -1, -1):
        if i != len(b.weights) - 1:
            delta = delta * (preacts[i] > 0.0)
        grads[f"backbone.w{i}"] = delta.T @ layer_inputs[i]
        grads[f"backbone.b{i}"] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ b.weights[i]
    return grads


def sgd_step_oracle(state, inputs, targets, cfg, lr=None):
    """One optimizer step with two backbone forward passes and one
    Nesterov update per parameter; returns (loss, correct), the pre-update
    loss and the number of rows whose pre-update logits put their target
    first (lowest index on a tie), and updates state in place like
    model.sgd_step."""
    lr = cfg.learning_rate if lr is None else lr
    features = _backbone_trace_oracle(state.backbone, inputs)[0]
    loss = training_loss_oracle(state.head, features, targets)
    correct = int((np.argmax(_logits_oracle(state.head, features), axis=1) == targets).sum())
    d_features, params = head_backward_oracle(state.head, features, targets)
    grads = _backbone_backward_oracle(state.backbone, inputs, d_features)
    grads.update((f"head.{name}", g) for name, g in params.items())
    for name, param in model.named_parameters(state):
        velocity = state.velocities.get(name)
        if velocity is None:
            velocity = np.zeros_like(param)
        g = grads[name] + cfg.weight_decay * param
        v = cfg.momentum * velocity + g
        param -= lr * (g + cfg.momentum * v)
        state.velocities[name] = v
    return loss, correct


def fit_trace_oracle(state, stream, cfg):
    """model.fit's trace, one sgd_step_oracle per batch: per epoch, the
    learning rate in effect, the mean batch loss and the share of the
    epoch's rows that their step's pre-update parameters classified
    correctly."""
    trace = []
    lr = cfg.learning_rate
    for epoch in range(1, cfg.epochs + 1):
        if epoch in cfg.decay_epochs:
            lr = lr / cfg.decay_factor
        losses, correct, rows = [], 0, 0
        for inputs, targets in stream.for_epoch(epoch):
            loss, batch_correct = sgd_step_oracle(state, inputs, targets, cfg, lr)
            losses.append(loss)
            correct += batch_correct
            rows += len(targets)
        trace.append({"epoch": epoch, "learning_rate": lr,
                      "mean_loss": float(np.mean(losses)), "train_accuracy": correct / rows})
    return trace


# ---------------------------------------------------------------------------
# The gradient check as it was written before its finite differences were
# stacked: one entry at a time, every perturbed loss a fully checked
# heads.training_loss call. gradcheck.run_suite must match it bit for bit.


def finite_difference_oracle(loss, theta):
    """Central-difference gradient of loss() with respect to the float64
    array theta, which loss reads. Each entry is perturbed in place by
    gradcheck.DEFAULT_STEP and restored bit for bit before the next."""
    step = gradcheck.DEFAULT_STEP
    grad = np.zeros_like(theta)
    for i in np.ndindex(theta.shape):
        keep = theta[i]
        try:
            theta[i] = keep + step
            hi = loss()
            theta[i] = keep - step
            lo = loss()
        finally:
            theta[i] = keep
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def _check_head_instance_oracle(kind, rng):
    head, features, targets = gradcheck._draw_instance(kind, rng)
    d_features, params = heads.backward(head, features, targets)
    checks = [(d_features, features)]
    checks += [(params[name], getattr(head, name)) for name in head.parameters]

    def loss():
        return heads.training_loss(head, features, targets)

    return max(gradcheck.relative_error(analytic, finite_difference_oracle(loss, theta))
               for analytic, theta in checks)


def _check_backbone_instance_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        widths = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(2, 4)))]
        c = int(rng.integers(1, 5))
        kind = str(rng.choice(list(heads.HEAD_KINDS)))
        backbone = model.make_backbone(widths, rng)
        head = gradcheck._random_head(kind, c, widths[-1], rng)
        inputs = rng.standard_normal((n, widths[0]))
        targets = rng.integers(0, c, size=n)
        trace = model.forward_trace(backbone, inputs)
        features, _, preacts = trace
        if any(np.abs(z).min() < 1e-4 for z in preacts[:-1] if z.size):
            continue
        if gradcheck._well_posed(head, features, targets):
            break
    else:
        raise RuntimeError("could not draw a differentiable backbone instance")

    d_features, _ = heads.backward(head, features, targets)
    grads = model.backbone_backward(backbone, trace, d_features)
    state = model.TrainState(backbone=backbone, head=head, velocities={})

    def loss():
        return heads.training_loss(head, model.backbone_forward(backbone, inputs), targets)

    return max(gradcheck.relative_error(grads[name], finite_difference_oracle(loss, p))
               for name, p in model.named_parameters(state) if name.startswith("backbone."))


def run_suite_oracle(instances, seed):
    """gradcheck.run_suite with checked finite differences."""
    results = {}
    for kind in heads.HEAD_KINDS:
        rng = np.random.default_rng([seed, gradcheck._STREAM_IDS[kind]])
        results[kind] = max(_check_head_instance_oracle(kind, rng) for _ in range(instances))
    rng = np.random.default_rng([seed, gradcheck._STREAM_IDS["backbone"]])
    results["backbone"] = max(_check_backbone_instance_oracle(rng) for _ in range(instances))
    return results
