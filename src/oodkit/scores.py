"""Per-example detection scores computed from a trained head.

Every score follows the same convention: higher means more
in-distribution. The minimum distance score is therefore negated, which
leaves every ranking metric unchanged.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .heads import ClassifierHead, HeadOutputs, head_outputs
from .numerics import ContractViolation


class ScoreKind(str, Enum):
    MAX_PROBABILITY = "max_probability"
    ENTROPIC = "entropic"
    MIN_DISTANCE = "min_distance"


def compute_score(kind: ScoreKind | str, outputs: HeadOutputs) -> np.ndarray:
    """One score kind, read from a head's outputs on a batch of features
    (see heads.head_outputs); nothing is recomputed.

    max_probability is the largest inference probability per row, in
    (0, 1]; entropic is the negative entropy, in [-ln(classes), 0];
    min_distance is the negated distance to the nearest prototype, the
    distances classification already computed, so the distance scale
    never enters.
    """
    kind = ScoreKind(kind)
    if kind is ScoreKind.MAX_PROBABILITY:
        return outputs.probabilities.max(axis=1)
    if kind is ScoreKind.ENTROPIC:
        return -outputs.entropy
    if outputs.distances is None:
        raise ContractViolation("minimum distance score requires head outputs with distances")
    return -outputs.distances.min(axis=1)


def min_distance_score(head: ClassifierHead, features) -> np.ndarray:
    """The min_distance score of a head on features; ranks examples
    exactly like the maximum logit."""
    return compute_score(ScoreKind.MIN_DISTANCE, head_outputs(head, features))
