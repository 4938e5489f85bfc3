"""Per-example detection scores computed from a trained head.

Every score follows the same convention: higher means more
in-distribution. The minimum distance score is therefore negated, which
leaves every ranking metric unchanged.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .heads import ClassifierHead, HeadOutputs, feature_prototype_distances
from .numerics import ContractViolation, _check_probability_rows, shannon_entropy_rows


class ScoreKind(str, Enum):
    MAX_PROBABILITY = "max_probability"
    ENTROPIC = "entropic"
    MIN_DISTANCE = "min_distance"


def max_probability_score(probs) -> np.ndarray:
    """Largest inference probability per row; lies in (0, 1]."""
    probs = _check_probability_rows(probs)
    return probs.max(axis=1)


def entropic_score(probs) -> np.ndarray:
    """Negative Shannon entropy per row; lies in [-ln(classes), 0]."""
    return -shannon_entropy_rows(probs)


def min_distance_score_from_distances(distances: np.ndarray) -> np.ndarray:
    """Negated per-row minimum of an already computed distance matrix.

    This is the whole score: classification already produced these
    distances, so detection adds no distance computation of its own.
    """
    return -np.min(distances, axis=1)


def min_distance_score(head: ClassifierHead, features) -> np.ndarray:
    """Negative distance to the nearest prototype.

    isomaxplus measures normalized features against normalized prototypes,
    isomax raw vectors against raw prototypes; the
    distance scale never enters, so heads differing only in it produce
    bit-identical scores. Ranks examples exactly like the maximum logit.
    """
    if head.kind not in ("isomax", "isomaxplus"):
        raise ContractViolation(
            f"minimum distance score requires a distance-based head, got {head.kind!r}"
        )
    return min_distance_score_from_distances(feature_prototype_distances(head, features))


def compute_score(kind: ScoreKind | str, outputs: HeadOutputs) -> np.ndarray:
    """Evaluate one score kind from a head's outputs on a batch of features
    (see heads.head_outputs); nothing is recomputed."""
    kind = ScoreKind(kind)
    if kind is ScoreKind.MIN_DISTANCE:
        if outputs.distances is None:
            raise ContractViolation(
                "minimum distance score requires a distance-based head, got softmax outputs")
        return min_distance_score_from_distances(outputs.distances)
    if kind is ScoreKind.MAX_PROBABILITY:
        return max_probability_score(outputs.probabilities)
    return -outputs.entropy
