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
    _normalize_rows,
    _pairwise,
    _softmax_rows,
    as_labels,
    as_matrix,
    pairwise_euclidean,
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
# Each class also holds what differs between kinds: `initial` (a seeded
# fresh head), `forward` (logits, and the distances they came from or
# None), `gradients` (d_features, params) of the mean loss, and
# `training_scale`. They take checked arrays and call the unchecked
# numerics kernels; the module-level functions below are the checked
# entry points. The distance heads' `forward` still calls the public
# pairwise_euclidean, so every distance matrix an evaluation computes
# passes through it.


@dataclass
class SoftMaxHead:
    """Affine output layer: logits = features @ weights.T + bias."""

    weights: np.ndarray  # (classes, dim)
    bias: np.ndarray     # (classes,)

    kind = "softmax"
    parameters = ("weights", "bias")
    checkpointed = ("weights", "bias")
    # Plain cross-entropy: no entropic scale sharpens the training softmax.
    training_scale = 1.0

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

    @classmethod
    def initial(cls, classes: int, dim: int, rng: np.random.Generator,
                entropic_scale: float = DEFAULT_ENTROPIC_SCALE) -> SoftMaxHead:
        """Seeded affine head: weights ~ N(0, 1/dim), zero bias. The
        entropic scale does not apply to this head."""
        weights = rng.standard_normal((classes, dim)) / np.sqrt(dim)
        return cls(weights=weights, bias=np.zeros(classes))

    def forward(self, features: np.ndarray):
        return features @ self.weights.T + self.bias, None

    def gradients(self, features: np.ndarray, targets: np.ndarray):
        g = _loss_grad_wrt_logits(self, self.forward(features)[0], targets)
        return g @ self.weights, {"weights": g.T @ features, "bias": g.sum(axis=0)}


class _PrototypeHead:
    """What the two distance heads share: one prototype row per class and
    an entropic scale that sharpens the training softmax."""

    def __post_init__(self):
        _check_rows("head prototypes", self.prototypes)
        self.entropic_scale = float(_one_value("entropic_scale", self.entropic_scale)[0])

    @property
    def classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    @property
    def training_scale(self) -> float:
        return self.entropic_scale


@dataclass
class IsoMaxHead(_PrototypeHead):
    """Prototype head: logits are negative raw feature-prototype distances."""

    prototypes: np.ndarray  # (classes, dim)
    entropic_scale: float = DEFAULT_ENTROPIC_SCALE

    kind = "isomax"
    parameters = ("prototypes",)
    checkpointed = ("prototypes", "entropic_scale")

    @classmethod
    def initial(cls, classes: int, dim: int, rng: np.random.Generator,
                entropic_scale: float = DEFAULT_ENTROPIC_SCALE) -> IsoMaxHead:
        """Prototypes start at the zero vector; no randomness is consumed."""
        return cls(prototypes=np.zeros((classes, dim)), entropic_scale=entropic_scale)

    def forward(self, features: np.ndarray):
        distances = pairwise_euclidean(features, self.prototypes)
        return -distances, distances

    def gradients(self, features: np.ndarray, targets: np.ndarray):
        logits, distances = self.forward(features)
        g = _loss_grad_wrt_logits(self, logits, targets)
        # dL/dD = -g; coefficient per pair on (f_i - p_j)
        coeff = -g / np.maximum(distances, DISTANCE_GRAD_EPS)
        d_features = coeff.sum(axis=1)[:, np.newaxis] * features - coeff @ self.prototypes
        d_prototypes = coeff.sum(axis=0)[:, np.newaxis] * self.prototypes - coeff.T @ features
        return d_features, {"prototypes": d_prototypes}


@dataclass
class IsoMaxPlusHead(_PrototypeHead):
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
        super().__post_init__()
        self.distance_scale = _one_value("distance_scale", self.distance_scale)

    @classmethod
    def initial(cls, classes: int, dim: int, rng: np.random.Generator,
                entropic_scale: float = DEFAULT_ENTROPIC_SCALE) -> IsoMaxPlusHead:
        """Prototypes ~ N(0, 1) drawn row-major, i.e. in class-index order."""
        return cls(prototypes=rng.standard_normal((classes, dim)), distance_scale=1.0,
                   entropic_scale=entropic_scale)

    def forward(self, features: np.ndarray):
        distances = pairwise_euclidean(_normalize_rows(features),
                                       _normalize_rows(self.prototypes))
        return -abs(self.distance_scale[0]) * distances, distances

    def gradients(self, features: np.ndarray, targets: np.ndarray):
        fhat = _normalize_rows(features)
        phat = _normalize_rows(self.prototypes)
        distances = _pairwise(fhat, phat)
        s = abs(self.distance_scale[0])
        g = _loss_grad_wrt_logits(self, -s * distances, targets)
        # dL/dD = -s g; chain onto the unit vectors, then through both
        # normalizations, and finally into the scalar scale.
        coeff = -s * g / np.maximum(distances, DISTANCE_GRAD_EPS)
        d_fhat = coeff.sum(axis=1)[:, np.newaxis] * fhat - coeff @ phat
        d_phat = coeff.sum(axis=0)[:, np.newaxis] * phat - coeff.T @ fhat
        d_scale_abs = -(g * distances).sum()
        return _normalize_backward(features, fhat, d_fhat), {
            "prototypes": _normalize_backward(self.prototypes, phat, d_phat),
            "distance_scale": np.sign(self.distance_scale) * d_scale_abs}


ClassifierHead = Union[SoftMaxHead, IsoMaxHead, IsoMaxPlusHead]

HEAD_CLASSES = {cls.kind: cls for cls in (SoftMaxHead, IsoMaxHead, IsoMaxPlusHead)}
HEAD_KINDS = tuple(HEAD_CLASSES)
DISTANCE_HEAD_KINDS = ("isomax", "isomaxplus")


def _check_features(head: ClassifierHead, features) -> np.ndarray:
    features = as_matrix(features, "features")
    if features.shape[1] != head.dim:
        raise ContractViolation(
            f"feature dimension {features.shape[1]} does not match head dimension {head.dim}"
        )
    if _norms_overflow(head, features):
        raise ContractViolation("features have a row whose squared norm overflows float64")
    return features


def _norms_overflow(head: ClassifierHead, features: np.ndarray) -> bool:
    """Whether the isomaxplus head would divide a row of finite features by
    an infinite norm, which maps the row to the zero vector."""
    return (isinstance(head, IsoMaxPlusHead)
            and not np.isfinite(np.einsum("ij,ij->i", features, features)).all())


def _check_targets(head: ClassifierHead, targets, n: int) -> np.ndarray:
    targets = as_labels(targets)
    if targets.ndim != 1 or len(targets) != n:
        raise ContractViolation("targets must be a 1-D vector matching the feature rows")
    if targets.size and (targets.min() < 0 or targets.max() >= head.classes):
        raise ContractViolation(
            f"targets must lie in [0, {head.classes}), got range "
            f"[{targets.min()}, {targets.max()}]"
        )
    return targets


def feature_prototype_distances(head: ClassifierHead, features) -> np.ndarray:
    """head_outputs(head, features).distances, for a distance head."""
    if head.kind not in DISTANCE_HEAD_KINDS:
        raise ContractViolation(f"head kind {head.kind!r} has no feature-prototype distances")
    return head_outputs(head, features).distances


def training_loss(head: ClassifierHead, features, targets) -> float:
    """Mean negative log probability of the target class.

    The probability is formed first (softmax of the logits at the head's
    training_scale), then floored at PROBABILITY_FLOOR, then passed
    through the logarithm: the two steps stay separate and sequential
    rather than fused into a log-softmax.
    """
    features = _check_features(head, features)
    return _mean_loss(head, features, _check_targets(head, targets, len(features)))


def _mean_loss(head: ClassifierHead, features: np.ndarray, targets: np.ndarray) -> float:
    """training_loss of checked features and targets."""
    probs = _softmax_rows(head.forward(features)[0], head.training_scale)
    at_target = probs[np.arange(len(targets)), targets]
    return float(-np.log(np.maximum(at_target, PROBABILITY_FLOOR)).mean())


def inference_probabilities(head: ClassifierHead, features) -> np.ndarray:
    """head_outputs(head, features).probabilities."""
    return head_outputs(head, features).probabilities


def predict(head: ClassifierHead, features) -> np.ndarray:
    """Argmax of head_outputs(head, features).logits per row; ties break
    toward the lowest class index."""
    return np.argmax(head_outputs(head, features).logits, axis=1)


@dataclass(frozen=True)
class HeadOutputs:
    """What evaluation reads from one head on one feature matrix.

    distances (n x classes) is None for the softmax head: isomax measures
    raw vectors and isomaxplus normalizes both sides, and the distance
    scale enters only the logits. probabilities are the inference
    probabilities, the softmax of the logits with the entropic scale
    removed, and entropy is their per-row Shannon entropy in nats.
    """

    distances: np.ndarray | None  # (n, classes)
    logits: np.ndarray            # (n, classes)
    probabilities: np.ndarray     # (n, classes)
    entropy: np.ndarray           # (n,)


def head_outputs(head: ClassifierHead, features) -> HeadOutputs:
    """The checked read of a head: distances, logits, inference
    probabilities and entropy, each computed once. It rejects features that
    are not a finite matrix of the head's width, and, for isomaxplus, rows
    whose squared norm overflows."""
    logits, distances = head.forward(_check_features(head, features))
    probabilities = stable_softmax_rows(logits, 1.0)
    return HeadOutputs(distances=distances, logits=logits, probabilities=probabilities,
                       entropy=shannon_entropy_rows(probabilities))


def _loss_grad_wrt_logits(head: ClassifierHead, logits: np.ndarray,
                          targets: np.ndarray) -> np.ndarray:
    """d(mean loss)/d(logits). Rows whose target probability sits below the
    floor contribute nothing, matching the flat region of the clamped loss."""
    scale = head.training_scale
    n = len(targets)
    probs = _softmax_rows(logits, scale)
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


def backward(head: ClassifierHead, features, targets):
    """Analytic gradients of the mean batch loss, as (d_features, params).

    d_features is the gradient with respect to the input features, and
    params holds one gradient per name in the head's `parameters`, each
    shaped like its parameter. Matches central finite differences of
    training_loss at 1e-4 relative tolerance on differentiable points.
    """
    features = _check_features(head, features)
    targets = _check_targets(head, targets, len(features))
    return head.gradients(features, targets)
