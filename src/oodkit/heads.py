"""The three interchangeable classification heads.

SoftMaxHead is the conventional affine layer trained with cross-entropy.
IsoMaxHead scores classes by negative Euclidean distance to one learnable
prototype per class, with a fixed entropic scale sharpening the training
softmax.  IsoMaxPlusHead additionally normalizes both features and
prototypes and multiplies the distances by the absolute value of a single
learnable scalar, so every class and every feature norm is treated
isometrically.

Each head provides logits, the training loss, exact analytic gradients of
the mean batch loss (derived by hand, no autodiff), and inference
probabilities computed with the entropic scale removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .numerics import (
    NORM_EPS,
    ContractViolation,
    as_matrix,
    pairwise_euclidean,
    row_normalize,
    shannon_entropy_rows,
    stable_softmax_rows,
)

DEFAULT_ENTROPIC_SCALE = 10.0

# Softmax outputs can underflow to exactly 0.0 in float64 once the scaled
# logit gap passes ~709 nats; the floor keeps the separate
# probability-then-logarithm computation finite.
PROBABILITY_FLOOR = 1e-30

# Distance denominators in gradients are clamped here; at an exact
# feature/prototype collision the numerator is zero as well, so the
# subgradient comes out 0.
DISTANCE_GRAD_EPS = 1e-12


def _check_rows(name: str, matrix: np.ndarray):
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ContractViolation(
            f"{name} must be a matrix with one row per class, has shape {matrix.shape}")


def _one_value(name: str, value) -> np.ndarray:
    value = np.array(value, dtype=np.float64).reshape(-1)
    if value.size != 1:
        raise ContractViolation(f"{name} must hold one value, has shape {value.shape}")
    return value


# Each head declares its arrays once. `parameters` names the trainable
# attributes, each an ndarray that training updates in place;
# `checkpointed` names what a checkpoint stores, in file order.


@dataclass
class SoftMaxHead:
    """Affine output layer: logits = features @ weights.T + bias."""

    weights: np.ndarray  # (classes, dim)
    bias: np.ndarray     # (classes,)

    kind = "softmax"
    parameters = ("weights", "bias")
    checkpointed = ("weights", "bias")

    def __post_init__(self):
        _check_rows("head weights", self.weights)
        if self.bias.shape != self.weights.shape[:1]:
            raise ContractViolation(
                f"head bias {self.bias.shape} does not match head weights "
                f"{self.weights.shape}")

    @property
    def classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class IsoMaxHead:
    """Prototype head: logits are negative raw feature-prototype distances."""

    prototypes: np.ndarray  # (classes, dim)
    entropic_scale: float = DEFAULT_ENTROPIC_SCALE

    kind = "isomax"
    parameters = ("prototypes",)
    checkpointed = ("prototypes", "entropic_scale")

    def __post_init__(self):
        _check_rows("head prototypes", self.prototypes)
        self.entropic_scale = float(_one_value("entropic_scale", self.entropic_scale)[0])

    @property
    def classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


@dataclass
class IsoMaxPlusHead:
    """Normalized prototype head with a learnable scalar distance scale.

    distance_scale is stored as a one-element float64 array, so that,
    like every other parameter, training can update it in place; a float
    passed to the constructor is converted. Only its absolute value ever
    enters a computation, so its sign is irrelevant everywhere.
    """

    prototypes: np.ndarray  # (classes, dim)
    distance_scale: np.ndarray = 1.0  # (1,)
    entropic_scale: float = DEFAULT_ENTROPIC_SCALE

    kind = "isomaxplus"
    parameters = ("prototypes", "distance_scale")
    checkpointed = ("prototypes", "entropic_scale", "distance_scale")

    def __post_init__(self):
        _check_rows("head prototypes", self.prototypes)
        self.distance_scale = _one_value("distance_scale", self.distance_scale)
        self.entropic_scale = float(_one_value("entropic_scale", self.entropic_scale)[0])

    @property
    def classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


ClassifierHead = Union[SoftMaxHead, IsoMaxHead, IsoMaxPlusHead]

HEAD_CLASSES = {cls.kind: cls for cls in (SoftMaxHead, IsoMaxHead, IsoMaxPlusHead)}
HEAD_KINDS = tuple(HEAD_CLASSES)
DISTANCE_HEAD_KINDS = ("isomax", "isomaxplus")


@dataclass
class LabeledBatch:
    """Feature rows paired with integer class targets."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.targets = np.asarray(self.targets, dtype=np.int64)
        if self.targets.ndim != 1 or len(self.targets) != len(self.features):
            raise ContractViolation("targets must be a 1-D vector matching the feature rows")
        if len(self.targets) < 1:
            raise ContractViolation("a batch needs at least one example")


@dataclass
class HeadGradients:
    """Gradients of the mean batch loss: d_features with respect to the
    input features, and params keyed by the head's `parameters` names,
    each shaped like its parameter."""

    d_features: np.ndarray
    params: dict


def make_softmax_head(classes: int, dim: int, rng: np.random.Generator) -> SoftMaxHead:
    """Seeded affine head: weights ~ N(0, 1/dim), zero bias."""
    weights = rng.standard_normal((classes, dim)) / np.sqrt(dim)
    return SoftMaxHead(weights=weights, bias=np.zeros(classes))


def make_isomax_head(classes: int, dim: int,
                     entropic_scale: float = DEFAULT_ENTROPIC_SCALE) -> IsoMaxHead:
    """Prototypes start at the zero vector; no randomness is consumed."""
    return IsoMaxHead(prototypes=np.zeros((classes, dim)), entropic_scale=entropic_scale)


def make_isomaxplus_head(classes: int, dim: int, rng: np.random.Generator,
                         entropic_scale: float = DEFAULT_ENTROPIC_SCALE) -> IsoMaxPlusHead:
    """Prototypes ~ N(0, 1) drawn row-major, i.e. in class-index order."""
    prototypes = rng.standard_normal((classes, dim))
    return IsoMaxPlusHead(prototypes=prototypes, distance_scale=1.0,
                          entropic_scale=entropic_scale)


def _check_features(head: ClassifierHead, features) -> np.ndarray:
    features = as_matrix(features, "features")
    if features.shape[1] != head.dim:
        raise ContractViolation(
            f"feature dimension {features.shape[1]} does not match head dimension {head.dim}"
        )
    return features


def _check_targets(head: ClassifierHead, targets, n: int) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or len(targets) != n:
        raise ContractViolation("targets must be a 1-D vector matching the feature rows")
    if np.any(targets < 0) or np.any(targets >= head.classes):
        raise ContractViolation(
            f"targets must lie in [0, {head.classes}), got range "
            f"[{targets.min()}, {targets.max()}]"
        )
    return targets


def feature_prototype_distances(head: ClassifierHead, features) -> np.ndarray:
    """Distance matrix (n x classes) for the distance-based heads.

    isomax uses raw vectors; isomaxplus normalizes both sides. The distance
    scale never appears here, only in the logits.
    """
    features = _check_features(head, features)
    if isinstance(head, IsoMaxHead):
        return pairwise_euclidean(features, head.prototypes)
    if isinstance(head, IsoMaxPlusHead):
        return pairwise_euclidean(row_normalize(features), row_normalize(head.prototypes))
    raise ContractViolation(f"head kind {head.kind!r} has no feature-prototype distances")


def _logits_and_distances(head: ClassifierHead, features):
    """Logits plus the distances they came from (None for softmax)."""
    features = _check_features(head, features)
    if isinstance(head, SoftMaxHead):
        return features @ head.weights.T + head.bias, None
    distances = feature_prototype_distances(head, features)
    if isinstance(head, IsoMaxPlusHead):
        return -abs(head.distance_scale[0]) * distances, distances
    return -distances, distances


def forward_logits(head: ClassifierHead, features) -> np.ndarray:
    """Per-class logits, one row per feature row."""
    return _logits_and_distances(head, features)[0]


def _training_scale(head: ClassifierHead) -> float:
    # The entropic scale sharpens the training softmax only for the
    # distance heads; the affine head trains with plain cross-entropy.
    if isinstance(head, SoftMaxHead):
        return 1.0
    return float(head.entropic_scale)


def training_probabilities(head: ClassifierHead, features) -> np.ndarray:
    """Softmax of the entropic-scaled logits, as used inside the loss."""
    return stable_softmax_rows(forward_logits(head, features), _training_scale(head))


def training_loss(head: ClassifierHead, features, targets) -> float:
    """Mean negative log probability of the target class.

    The probability is formed first (softmax of the scaled logits), then
    floored at PROBABILITY_FLOOR, then passed through the logarithm: the
    two steps stay separate and sequential rather than fused into a
    log-softmax.
    """
    features = _check_features(head, features)
    targets = _check_targets(head, targets, len(features))
    probs = training_probabilities(head, features)
    at_target = probs[np.arange(len(targets)), targets]
    return float(-np.log(np.maximum(at_target, PROBABILITY_FLOOR)).mean())


def fused_log_softmax_loss(head: ClassifierHead, features, targets) -> float:
    """Diagnostic only: the same loss via a fused log-sum-exp.

    Kept so the separate-form loss above can be compared against the
    fused form; nothing in training uses this.
    """
    features = _check_features(head, features)
    targets = _check_targets(head, targets, len(features))
    z = forward_logits(head, features) * _training_scale(head)
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(targets)), targets].mean())


def inference_probabilities(head: ClassifierHead, features) -> np.ndarray:
    """Softmax of the raw logits with the entropic scale removed."""
    return stable_softmax_rows(forward_logits(head, features), 1.0)


def predict(head: ClassifierHead, features) -> np.ndarray:
    """Argmax class per row; ties break toward the lowest class index.

    For the distance heads this is the nearest-prototype class whenever
    the distance scale is nonzero.
    """
    return np.argmax(forward_logits(head, features), axis=1)


@dataclass(frozen=True)
class HeadOutputs:
    """What evaluation reads from one head on one feature matrix.

    distances is None for the softmax head; probabilities are the
    inference probabilities (entropic scale removed) and entropy is their
    per-row Shannon entropy in nats.
    """

    distances: np.ndarray | None  # (n, classes)
    logits: np.ndarray            # (n, classes)
    probabilities: np.ndarray     # (n, classes)
    entropy: np.ndarray           # (n,)


def head_outputs(head: ClassifierHead, features) -> HeadOutputs:
    """Distances, logits, inference probabilities and entropy, each computed
    once and bit-identical to forward_logits and inference_probabilities."""
    logits, distances = _logits_and_distances(head, features)
    probabilities = stable_softmax_rows(logits, 1.0)
    return HeadOutputs(distances=distances, logits=logits, probabilities=probabilities,
                       entropy=shannon_entropy_rows(probabilities))


def _loss_grad_wrt_logits(head: ClassifierHead, logits: np.ndarray,
                          targets: np.ndarray) -> np.ndarray:
    """d(mean loss)/d(logits). Rows whose target probability sits below the
    floor contribute nothing, matching the flat region of the clamped loss."""
    scale = _training_scale(head)
    n = len(targets)
    probs = stable_softmax_rows(logits, scale)
    grad = probs.copy()
    grad[np.arange(n), targets] -= 1.0
    grad *= scale / n
    clamped = probs[np.arange(n), targets] < PROBABILITY_FLOOR
    if np.any(clamped):
        grad[clamped] = 0.0
    return grad


def _normalize_backward(raw: np.ndarray, unit: np.ndarray,
                        d_unit: np.ndarray) -> np.ndarray:
    """Chain a gradient through v -> v / max(|v|, eps).

    Uses the Jacobian (I - u u^T) / |v| for rows with |v| >= eps; rows
    below eps get zero gradient (the zero-vector convention).
    """
    norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
    inner = np.einsum("ij,ij->i", unit, d_unit)
    out = (d_unit - inner[:, np.newaxis] * unit) / np.maximum(norms, NORM_EPS)[:, np.newaxis]
    out[norms < NORM_EPS] = 0.0
    return out


def backward(head: ClassifierHead, features, targets) -> HeadGradients:
    """Analytic gradients of the mean batch loss.

    Returns the gradient with respect to the input features and, in
    params, one gradient per name in the head's `parameters`. Matches
    central finite differences of training_loss at 1e-4 relative
    tolerance on differentiable points.
    """
    features = _check_features(head, features)
    targets = _check_targets(head, targets, len(features))

    if isinstance(head, SoftMaxHead):
        logits = features @ head.weights.T + head.bias
        g = _loss_grad_wrt_logits(head, logits, targets)
        return HeadGradients(
            d_features=g @ head.weights,
            params={"weights": g.T @ features, "bias": g.sum(axis=0)},
        )

    if isinstance(head, IsoMaxHead):
        distances = pairwise_euclidean(features, head.prototypes)
        g = _loss_grad_wrt_logits(head, -distances, targets)
        # dL/dD = -g; coefficient per pair on (f_i - p_j)
        coeff = -g / np.maximum(distances, DISTANCE_GRAD_EPS)
        d_features = coeff.sum(axis=1)[:, np.newaxis] * features - coeff @ head.prototypes
        d_prototypes = (
            coeff.sum(axis=0)[:, np.newaxis] * head.prototypes - coeff.T @ features
        )
        return HeadGradients(d_features=d_features, params={"prototypes": d_prototypes})

    if isinstance(head, IsoMaxPlusHead):
        fhat = row_normalize(features)
        phat = row_normalize(head.prototypes)
        distances = pairwise_euclidean(fhat, phat)
        s = abs(head.distance_scale[0])
        g = _loss_grad_wrt_logits(head, -s * distances, targets)
        # dL/dD = -s g; chain onto the unit vectors, then through both
        # normalizations, and finally into the scalar scale.
        coeff = -s * g / np.maximum(distances, DISTANCE_GRAD_EPS)
        d_fhat = coeff.sum(axis=1)[:, np.newaxis] * fhat - coeff @ phat
        d_phat = coeff.sum(axis=0)[:, np.newaxis] * phat - coeff.T @ fhat
        d_scale_abs = -(g * distances).sum()
        return HeadGradients(
            d_features=_normalize_backward(features, fhat, d_fhat),
            params={"prototypes": _normalize_backward(head.prototypes, phat, d_phat),
                    "distance_scale": np.sign(head.distance_scale) * d_scale_abs},
        )

    raise ContractViolation(f"unknown head kind {head.kind!r}")
