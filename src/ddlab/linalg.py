"""Dense linear-algebra kernels: pseudo-inverse, projections, log-scale
Gram determinants, and the stacked per-trial statistics of the
minimum-norm estimator.

All functions are pure and operate on plain numpy arrays. Rank decisions
use a shared singular-value cutoff so that the same matrix is never
"full rank" in one routine and "deficient" in another.

Which LAPACK runs: ``pseudo_inverse`` and ``projection_complement`` call
scipy's ``dgesdd`` directly, skipping most of the per-call cost of
``np.linalg.svd``. Both take the rank r once from
``zero_threshold`` on the descending singular values and keep s[:r], so
a full-rank matrix, the common case at the oracle's sizes, builds no
mask and no masked reciprocal. ``log_det_gram`` and the stacked QR of
``min_norm_stats`` and ``projection_complements`` run on numpy's LAPACK;
their triangular inverses, and those of ``triangular_trace_inv``, call
scipy's ``dtrtri`` through one helper with one rank guard. The numpy and
scipy wheels each bundle their own OpenBLAS; the trial engine
(``parallel.run_block_streams``) holds both at one thread.

Importing this module loads no part of scipy: ``scipy.linalg.lapack`` is
imported by the first kernel call that needs ``dgesdd`` or ``dtrtri``, so
a closed-form run never pays for it.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "zero_threshold",
    "pseudo_inverse",
    "projection_complement",
    "log_det_gram",
    "min_norm_stats",
    "triangular_trace_inv",
    "projection_complements",
]

_EPS = np.finfo(float).eps


@functools.cache
def _lapack():
    """scipy.linalg.lapack, imported on the first call."""
    from scipy.linalg import lapack

    return lapack


def _as_matrix(A, ndim: int = 2) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    return A


def zero_threshold(singular_values: np.ndarray, shape: tuple[int, int]):
    """Cutoff below which singular values are treated as exactly zero.

    sigma <= eps * sigma_max * max(rows, cols), the standard numerically
    safe rank cutoff; one cutoff per vector of a (..., r) stack. The values
    come in LAPACK's descending order, so sigma_max is the first of each
    vector.
    """
    if singular_values.size == 0:
        return 0.0
    top = singular_values[..., 0][()]  # [()]: a scalar, not a 0-d array, for one vector
    return _EPS * top * max(shape)


def _svd(A: np.ndarray):
    """Thin SVD U, s, Vt of a non-empty k x d matrix, and the number r of
    singular values above the shared zero threshold: s descends, so the
    kept ones are s[:r].
    """
    U, s, Vt, info = _lapack().dgesdd(A, compute_uv=1, full_matrices=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgesdd failed (info={info})")
    cut = zero_threshold(s, A.shape)
    return U, s, Vt, s.size if s[-1] > cut else int(np.count_nonzero(s > cut))


def pseudo_inverse(A) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the shared zero threshold."""
    A = _as_matrix(A)
    if 0 in A.shape:
        return np.zeros((A.shape[1], A.shape[0]))
    U, s, Vt, r = _svd(A)
    if r == s.size:
        inv = 1.0 / s
    else:
        inv = np.zeros(s.size)
        inv[:r] = 1.0 / s[:r]
    return (Vt.T * inv) @ U.T


def projection_complement(X) -> np.ndarray:
    """I - X^+ X, the projection onto the orthocomplement of the row span.

    Symmetric idempotent with trace d - rank(X). An empty (0 x d) design
    spans nothing, so the result is the identity.
    """
    X = _as_matrix(X)
    d = X.shape[1]
    if 0 in X.shape:
        return np.eye(d)
    # Row space basis from the SVD right singular vectors.
    _, _, Vt, r = _svd(X)
    V = Vt[:r]
    return np.eye(d) - V.T @ V


def log_det_gram(X):
    """log det(X X^T) for a k x d matrix with k <= d, or for each matrix of
    a (..., k, d) stack.

    Returns -inf when X is rank deficient, that is when a singular value
    falls to the shared zero threshold; the empty 0 x d design gives
    log(1) = 0. Computed from singular values so no Gram matrix is formed.
    """
    X = _as_matrix(X, ndim=max(np.ndim(X), 2))
    k, d = X.shape[-2:]
    if k > d:
        raise ValueError(f"log_det_gram needs k <= d, got {k} x {d}")
    if k == 0:
        out = np.zeros(X.shape[:-2])
    else:
        s = np.linalg.svd(X, compute_uv=False)
        with np.errstate(divide="ignore"):
            logdet = 2.0 * np.sum(np.log(s), axis=-1)
        out = np.where(np.min(s, axis=-1) > zero_threshold(s, (k, d)), logdet, -np.inf)
    return float(out) if X.ndim == 2 else out


def _tri_inv(R: np.ndarray, X: np.ndarray):
    """Inverse of each upper-triangular factor of a (B, k, k) stack R, the
    trace tr = ||R^{-1}||_F^2, and the mask of factors whose design must go
    through the SVD path instead; R is the triangular factor of design
    X[b], so that R^T R = X^T X.

    A design is sent there when tr * (eps ||X||_F max(rows, cols))^2 >= 1
    or tr is not finite: since tr >= 1 / sigma_min^2 and sigma_max <=
    ||X||_F, that is the only case in which zero_threshold could drop a
    singular value, so both paths give the same numbers.
    """
    B, k, _ = R.shape
    Rinv = np.empty((B, k, k))
    singular = np.zeros(B, dtype=bool)
    dtrtri = _lapack().dtrtri
    for b in range(B):
        # triangular inverse: a sixth of the flops of a general one
        Rinv[b], info = dtrtri(R[b])
        singular[b] = info != 0
    with np.errstate(over="ignore", invalid="ignore"):
        tr = np.einsum("bij,bij->b", Rinv, Rinv)
        scale = _EPS * np.sqrt(np.einsum("bij,bij->b", X, X)) * max(X.shape[1:])
        fallback = singular | ~(tr * scale**2 < 1.0)
    return Rinv, tr, fallback


def _r_factor(X: np.ndarray, w: np.ndarray | None):
    """R-only QR of each design in a (B, n, d) stack: of [X^T | w] for n < d
    (w only when given), of X^T for n = d, of X for n > d.

    Returns R, then what ``_tri_inv`` returns for its leading k x k block
    (k = min(n, d)): the block's inverse, tr((X^T X)^+) = ||R_k^{-1}||_F^2
    and the mask of designs to recompute through the SVD path.
    """
    B, n, d = X.shape
    k = min(n, d)
    A = np.swapaxes(X, 1, 2) if n <= d else X
    if w is not None and n < d:
        A = np.concatenate([A, np.broadcast_to(w[:, None], (B, d, 1))], axis=2)
    R = np.linalg.qr(A, mode="r")
    return (R, *_tri_inv(R[:, :k, :k], X))


def triangular_trace_inv(T) -> np.ndarray:
    """tr((T^T T)^+) = ||T^{-1}||_F^2 for each upper-triangular k x k factor
    of a (B, k, k) stack; only the upper triangle is read.

    The same triangular inverse and rank guard as ``min_norm_stats``, with
    T standing for its own design: a factor that could be rank deficient
    goes through pseudo_inverse instead.
    """
    T = np.triu(_as_matrix(T, ndim=3))
    B, k, _ = T.shape
    if k == 0:
        return np.zeros(B)
    _, tr, fallback = _tri_inv(T, T)
    for b in np.flatnonzero(fallback):
        P = pseudo_inverse(T[b])
        tr[b] = float(np.sum(P * P))
    return tr


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


def projection_complements(X) -> np.ndarray:
    """I - X^+ X for each design of a (B, n, d) stack, as a (B, d, d) stack.

    From the same R-only QR as min_norm_stats: with X^T = QR, X^+ X = QQ^T
    and Q = X^T R^{-1}, so a design that passes the rank guard takes one
    product of its Q factor; a full-rank n >= d design gives 0. The others
    go through projection_complement.
    """
    X = _as_matrix(X, ndim=3)
    B, n, d = X.shape
    out = np.tile(np.eye(d), (B, 1, 1))
    if n == 0:
        return out
    _, Rinv, _, fallback = _r_factor(X, None)
    ok = ~fallback
    if n < d:
        Q = np.swapaxes(X[ok], 1, 2) @ Rinv[ok]
        out[ok] -= Q @ np.swapaxes(Q, 1, 2)
    else:
        out[ok] = 0.0
    for b in np.flatnonzero(fallback):
        out[b] = projection_complement(X[b])
    return out
