"""Out-of-distribution detection metrics plus classification accuracy.

Scores follow one convention everywhere: larger means more
in-distribution.  In-distribution examples are the positives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ContractViolation


@dataclass
class DetectionScoreSet:
    """Per-example scores split into the in-distribution and OOD groups."""

    in_scores: np.ndarray
    out_scores: np.ndarray

    def __post_init__(self):
        self.in_scores = _check_scores(self.in_scores, "in_scores")
        self.out_scores = _check_scores(self.out_scores, "out_scores")


def _check_scores(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    if len(v) == 0:
        raise ContractViolation(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return v


def _threshold_scan(s: DetectionScoreSet):
    """For each distinct observed score t, ascending: how many
    in-distribution scores and how many OOD scores lie at or below t, as
    (in_leq, out_leq), two int arrays."""
    thresholds = np.unique(np.concatenate([s.in_scores, s.out_scores]))
    return (np.searchsorted(np.sort(s.in_scores), thresholds, side="right"),
            np.searchsorted(np.sort(s.out_scores), thresholds, side="right"))


def auroc(s: DetectionScoreSet) -> float:
    """Probability that a random in-distribution score beats a random OOD score.

    The Mann-Whitney statistic read from the threshold scan, ties counting
    one half: each OOD score at t beats no in-distribution score above t
    and ties those at t. Twice the statistic is an integer, so the result
    is the pairwise definition, correctly rounded.
    """
    n, m = len(s.in_scores), len(s.out_scores)
    in_leq, out_leq = _threshold_scan(s)
    in_at, out_at = np.diff(in_leq, prepend=0), np.diff(out_leq, prepend=0)
    twice_u = 2 * int((out_at * (n - in_leq)).sum()) + int((out_at * in_at).sum())
    return twice_u / (2 * n * m)


def tnr_at_tpr95(s: DetectionScoreSet) -> float:
    """True negative rate at the loosest threshold keeping TPR at or above 0.95.

    An example is classified in-distribution iff its score exceeds the
    threshold. Candidates are the distinct observed scores; if none keeps
    TPR >= 0.95 the threshold falls back to -inf and the TNR is 0.
    """
    n, m = len(s.in_scores), len(s.out_scores)
    in_leq, out_leq = _threshold_scan(s)
    valid = np.flatnonzero((n - in_leq) / n >= 0.95)
    if len(valid) == 0:
        return 0.0
    return float(out_leq[valid[-1]] / m)


def dtacc(s: DetectionScoreSet) -> float:
    """Best balanced detection accuracy over all thresholds, equal priors.

    Evaluates 1 - min over thresholds of
    0.5 * P_in(score <= t) + 0.5 * P_out(score > t), scanning the
    distinct observed scores; the +/- infinity sentinels both give 0.5,
    so the result never falls below it.
    """
    n, m = len(s.in_scores), len(s.out_scores)
    in_leq, out_leq = _threshold_scan(s)
    risk = 0.5 * (in_leq / n) + 0.5 * ((m - out_leq) / m)
    return float(1.0 - min(risk.min(), 0.5))


def classification_accuracy(predictions, targets) -> float:
    """Fraction of exact matches between two equal-length label vectors."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape or predictions.ndim != 1:
        raise ContractViolation(
            f"predictions and targets must be equal-length vectors, got "
            f"{predictions.shape} and {targets.shape}"
        )
    if len(predictions) == 0:
        raise ContractViolation("need at least one prediction")
    return float(np.mean(predictions == targets))
