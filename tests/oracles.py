"""Brute-force reference implementations shared by the test suite.

These stay deliberately naive and independent of the package's fast
paths: AUROC counts every pair, the threshold metrics scan every
candidate with direct comparisons.
"""

import numpy as np

from oodkit import heads


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
    z = heads.forward_logits(head, features) * scale
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(targets)), np.asarray(targets)].mean())
