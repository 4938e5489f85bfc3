"""Dense float64 matrix kernel that every other module builds on.

All operations are pure functions: inputs are never mutated and results
are freshly allocated.  Everything runs in 64-bit (gradient verification
at tight tolerances is unreliable in 32-bit).

Each public function checks its arguments once and then calls a private
kernel (`_pairwise`, `_softmax_rows`) that takes checked arrays: 2-D,
float64 and finite. Callers that have already checked their arrays call
the kernels directly; the arithmetic, and so every result, is the same
either way. `_normalize_rows` is such a kernel with no public function:
the isomaxplus head is its checked caller.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-12

# Rows of the first operand per block in pairwise_euclidean.
DISTANCE_BLOCK_ROWS = 256


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising ContractViolation otherwise."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return m


def as_labels(values) -> np.ndarray:
    """Coerce targets to int64 class labels, raising ContractViolation
    unless every value is a whole number that int64 holds (1.0 passes, 0.5
    and NaN do not). Integer input is not copied."""
    m = np.asarray(values)
    if m.dtype.kind not in "iub":
        f = m.astype(np.float64)
        # Checked before the cast, which would warn on a non-finite value.
        if not np.all(np.isfinite(f) & (f == np.round(f)) & (np.abs(f) < 2.0 ** 63)):
            raise ContractViolation("targets must be whole numbers")
    return np.asarray(m, dtype=np.int64)


def _normalize_rows(m: np.ndarray, eps: float = NORM_EPS) -> np.ndarray:
    """Scale each row to unit 2-norm. Rows with norm below eps are divided
    by eps instead, so a zero row maps to a zero row rather than NaN."""
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    return m / np.maximum(norms, eps)[:, np.newaxis]


def pairwise_euclidean(a, b) -> np.ndarray:
    """Nonsquared Euclidean distances between all row pairs of a (n x d) and b (c x d).

    Computed from explicit per-pair differences. The expanded identity
    |a|^2 + |b|^2 - 2ab is deliberately avoided: it loses precision for
    nearby rows and can go negative under rounding.

    The output is filled DISTANCE_BLOCK_ROWS rows of a at a time, so the
    difference tensor never holds more than DISTANCE_BLOCK_ROWS x c x d
    entries. Each pair's distance is computed exactly as without blocking.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ContractViolation(
            f"column mismatch: a has {a.shape[1]} columns, b has {b.shape[1]}"
        )
    return _pairwise(a, b)


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], DISTANCE_BLOCK_ROWS):
        stop = start + DISTANCE_BLOCK_ROWS
        diff = a[start:stop, np.newaxis, :] - b[np.newaxis, :, :]
        out[start:stop] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def stable_softmax_rows(m, scale: float = 1.0) -> np.ndarray:
    """Row-wise softmax of scale * m with per-row max subtraction.

    Safe for arbitrarily large logits; every row sums to 1 and all
    entries lie in (0, 1].
    """
    return _softmax_rows(as_matrix(m), scale)


def _softmax_rows(m: np.ndarray, scale: float = 1.0) -> np.ndarray:
    z = m * scale
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _check_probability_rows(p: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    p = as_matrix(p, "probabilities")
    if np.any(p < 0):
        raise ContractViolation("probability entries must be nonnegative")
    sums = p.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > tol):
        worst = float(np.abs(sums - 1.0).max())
        raise ContractViolation(f"rows must sum to 1 within {tol}, worst deviation {worst}")
    return p


def shannon_entropy_rows(p) -> np.ndarray:
    """Per-row Shannon entropy of a matrix of probability rows (nats)."""
    p = _check_probability_rows(p)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)
