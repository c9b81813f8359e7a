"""Dense linear-algebra kernels: pseudo-inverse, projections, log-scale
Gram determinants, and the stacked per-trial statistics of the
minimum-norm estimator.

All functions are pure and operate on plain numpy arrays. Rank decisions
use a shared singular-value cutoff so that the same matrix is never
"full rank" in one routine and "deficient" in another.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "zero_threshold",
    "pseudo_inverse",
    "projection_complement",
    "log_det_gram",
    "min_norm_stats",
    "projection_complement_sum",
]

_EPS = np.finfo(float).eps


def _as_matrix(A, ndim: int = 2) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def zero_threshold(singular_values: np.ndarray, shape: tuple[int, int]) -> float:
    """Cutoff below which singular values are treated as exactly zero.

    sigma <= eps * sigma_max * max(rows, cols), the standard numerically
    safe rank cutoff.
    """
    if singular_values.size == 0:
        return 0.0
    return _EPS * float(np.max(singular_values)) * max(shape)


def pseudo_inverse(A) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the shared zero threshold."""
    A = _as_matrix(A)
    if 0 in A.shape:
        return np.zeros((A.shape[1], A.shape[0]))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    cut = zero_threshold(s, A.shape)
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return (Vt.T * inv) @ U.T


def projection_complement(X) -> np.ndarray:
    """I - X^+ X, the projection onto the orthocomplement of the row span.

    Symmetric idempotent with trace d - rank(X). An empty (0 x d) design
    spans nothing, so the result is the identity.
    """
    X = _as_matrix(X)
    d = X.shape[1]
    if X.shape[0] == 0:
        return np.eye(d)
    # Row space basis from the SVD right singular vectors.
    _, s, Vt = np.linalg.svd(X, full_matrices=False)
    cut = zero_threshold(s, X.shape)
    V = Vt[s > cut]
    return np.eye(d) - V.T @ V


def log_det_gram(X) -> float:
    """log det(X X^T) for a k x d matrix with k <= d.

    Returns -inf when X is rank deficient; the empty 0 x d design gives
    log(1) = 0. Computed from singular values so no Gram matrix is formed.
    """
    X = _as_matrix(X)
    k, d = X.shape
    if k > d:
        raise ValueError(f"log_det_gram needs k <= d, got {k} x {d}")
    if k == 0:
        return 0.0
    s = np.linalg.svd(X, compute_uv=False)
    cut = zero_threshold(s, X.shape)
    if np.any(s <= cut):
        return -np.inf
    return float(2.0 * np.sum(np.log(s)))


def _r_factor(X: np.ndarray, w: np.ndarray | None):
    """R-only QR of each design in a (B, n, d) stack: of [X^T | w] for n < d
    (w only when given), of X^T for n = d, of X for n > d.

    Returns R, the inverse of its leading k x k block (k = min(n, d)),
    tr((X^T X)^+) = ||R_k^{-1}||_F^2, and the mask of designs to recompute
    through the SVD path. A design is sent there when
    tr * (eps ||X||_F max(n, d))^2 >= 1 or tr is not finite: since
    tr >= 1 / sigma_min^2 and sigma_max <= ||X||_F, that is the only case
    in which zero_threshold could drop a singular value, so both paths give
    the same numbers.
    """
    B, n, d = X.shape
    k = min(n, d)
    A = np.swapaxes(X, 1, 2) if n <= d else X
    if w is not None and n < d:
        A = np.concatenate([A, np.broadcast_to(w[:, None], (B, d, 1))], axis=2)
    R = np.linalg.qr(A, mode="r")
    Rinv = np.empty((B, k, k))
    singular = np.zeros(B, dtype=bool)
    for b in range(B):
        # triangular inverse: a sixth of the flops of a general one
        Rinv[b], info = lapack.dtrtri(R[b, :k, :k])
        singular[b] = info != 0
    with np.errstate(over="ignore", invalid="ignore"):
        tr = np.einsum("bij,bij->b", Rinv, Rinv)
        scale = _EPS * np.sqrt(np.einsum("bij,bij->b", X, X)) * max(n, d)
        fallback = singular | ~(tr * scale**2 < 1.0)
    return R, Rinv, tr, fallback


def min_norm_stats(X, w=None) -> tuple[np.ndarray, np.ndarray]:
    """tr((X^T X)^+) and ||(I - X^+ X) w||^2 for each design of a
    (B, n, d) stack, without forming Q or any singular vectors.

    With k = min(n, d) and R from the R-only QR of [X^T | w] (n < d), X^T
    (n = d) or X (n > d): tr = ||R_k^{-1}||_F^2. For n < d the last column
    of R holds Q^T w = R[:n, n] above R[n, n], so the part of w outside the
    row span has squared norm R[n, n]^2 = ||w||^2 - ||Q^T w||^2. For n >= d
    a full-rank X^+ X is I and the residual is 0. Designs that could be
    rank deficient go through pseudo_inverse instead. ``w=None`` skips the
    residual (all zeros).
    """
    X = _as_matrix(X, ndim=3)
    B, n, d = X.shape
    if w is not None:
        w = np.asarray(w, dtype=float).reshape(-1)
        if w.size != d:
            raise ValueError(f"w has {w.size} entries, designs have {d} columns")
    if n == 0:
        return np.zeros(B), np.full(B, 0.0 if w is None else float(w @ w))
    R, _, tr, fallback = _r_factor(X, w)
    resid = R[:, n, n] ** 2 if w is not None and n < d else np.zeros(B)
    for b in np.flatnonzero(fallback):
        P = pseudo_inverse(X[b])
        tr[b] = float(np.sum(P * P))
        if w is not None:
            r = w - P @ (X[b] @ w)
            resid[b] = float(r @ r)
    return tr, resid


def projection_complement_sum(X) -> np.ndarray:
    """Sum of I - X^+ X over the designs of a (B, n, d) stack.

    From the same R-only QR as min_norm_stats: with X^T = QR, X^+ X = QQ^T
    and Q = X^T R^{-1}, so the designs that pass the rank guard add up in
    one GEMM of the side-by-side Q factors. The others go through
    projection_complement.
    """
    X = _as_matrix(X, ndim=3)
    B, n, d = X.shape
    if n == 0:
        return B * np.eye(d)
    _, Rinv, _, fallback = _r_factor(X, None)
    total = np.zeros((d, d))
    if n < d:
        ok = ~fallback
        Q = np.swapaxes(X[ok], 1, 2) @ Rinv[ok]
        Qs = np.swapaxes(Q, 0, 1).reshape(d, -1)
        total = np.count_nonzero(ok) * np.eye(d) - Qs @ Qs.T
    for b in np.flatnonzero(fallback):
        total += projection_complement(X[b])
    return total
