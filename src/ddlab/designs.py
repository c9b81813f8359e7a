"""Design samplers and Monte Carlo oracles.

Three ways of touching the surrogate design live here:

* ``sample_iid`` draws the standard i.i.d. sub-Gaussian design,
* ``surrogate_expectation_oracle`` estimates surrogate expectations by
  self-normalized determinant weighting of i.i.d. blocks, each weighted
  by det(X X^T) / (k! e_k(Sigma)), which has mean 1,
* ``sample_surrogate_under_batch`` produces actual surrogate samples at
  any n with ``_tilted``, batched over samples: i.i.d. entries, with a
  determinant-tilted k x k block on the design's column set. That block is
  exact for every entry law: for ``gaussian`` a Haar rotation of a Bartlett
  factor, for the bounded laws the row-by-row rejection sampler ``_rows``
  (the chain rule of volume sampling), whose acceptance rate is returned.

All three draw their designs through ``_by_size``, one batch per size. For
n < d it draws each design's column set S as independent Bernoullis,
column i with probability tau_i / (tau_i + lambda_n), and the design has
k = |S| rows; for n >= d, S is every column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import Spectrum, apply_sqrt
from .linalg import log_det_gram
from .parallel import block_size, run_block_streams, trial_rng
from .surrogate import SurrogateParams, _size_pmf, surrogate_params

__all__ = [
    "MeasureSpec",
    "MonteCarloEstimate",
    "sample_iid",
    "gen_responses",
    "surrogate_expectation_oracle",
    "sample_surrogate_under_batch",
]

ENTRY_LAWS = ("gaussian", "rademacher", "uniform_pm_sqrt3")


@dataclass(frozen=True)
class MeasureSpec:
    """Row measure: x = Sigma^{1/2} z with i.i.d. unit-variance entries z."""

    spectrum: Spectrum
    entry_law: str = "gaussian"

    def __post_init__(self):
        if self.entry_law not in ENTRY_LAWS:
            raise ValueError(f"unknown entry law {self.entry_law!r}; expected one of {ENTRY_LAWS}")

    @property
    def dim(self) -> int:
        return self.spectrum.dim


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Mean with standard error; shapes may be scalar, vector, or matrix."""

    mean: np.ndarray
    std_error: np.ndarray
    trials: int
    effective_sample_size: float = field(default=0.0)

    def z_score(self, target) -> np.ndarray:
        """(mean - target) / SE; a zero SE scores 0 if the error is 0 and inf otherwise."""
        err = np.asarray(self.mean, dtype=float) - np.asarray(target, dtype=float)
        se = np.broadcast_to(np.asarray(self.std_error, dtype=float), err.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(se > 0, err / se, np.where(err == 0, 0.0, np.inf))


def _entries(law: str, size, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. zero-mean, unit-variance entries of the entry law, shape ``size``."""
    if law == "gaussian":
        return rng.standard_normal(size)
    if law == "rademacher":
        return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=size)


def sample_iid(m: MeasureSpec, n: int | tuple[int, int], seed_or_rng) -> np.ndarray:
    """n i.i.d. rows from the measure, or for n = (count, k) a (count, k, d)
    stack of k-row designs, equal to count * k rows drawn in order;
    deterministic given a seed."""
    shape = tuple(np.atleast_1d(n))
    if min(shape) < 0:
        raise ValueError("n must be nonnegative")
    rng = _resolve_rng(seed_or_rng)
    return apply_sqrt(m.spectrum, _entries(m.entry_law, (*shape, m.dim), rng))


def gen_responses(X, w_star, sigma2: float, seed_or_rng) -> np.ndarray:
    """y = X w* + xi with xi i.i.d. Gaussian(0, sigma2), sigma2 finite and >= 0."""
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"sigma2 must be finite and nonnegative, got {sigma2!r}")
    X = np.asarray(X, dtype=float)
    w = np.asarray(w_star, dtype=float).reshape(-1)
    if X.shape[1] != w.size:
        raise ValueError("w_star dimension does not match the design")
    rng = _resolve_rng(seed_or_rng)
    y = X @ w
    if sigma2 > 0:
        y = y + math.sqrt(sigma2) * rng.standard_normal(X.shape[0])
    return y


def _resolve_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return trial_rng(int(seed_or_rng), 0)


def surrogate_expectation_oracle(f, m: MeasureSpec, n: float, trials: int, seed: int,
                                 threads: int | None = None) -> MonteCarloEstimate:
    """Self-normalized importance-weighted estimate of E[f(X)] under the
    surrogate design with expected size n.

    The designs come from ``_by_size`` with i.i.d. k x d blocks, each
    weighted by det(X X^T) / (k! e_k(Sigma)): the weight has mean 1 for
    every entry law (Cauchy-Binet), and it tilts the block to the
    surrogate's law. Trials run in fixed blocks on ``run_block_streams``, so
    the estimate does not depend on ``threads``. Standard errors come from
    the delta method for ratio estimators; the effective sample size
    (sum w)^2 / sum w^2 is reported so weight degeneracy is visible.
    """
    if trials < 100:
        raise ValueError("fewer than 100 trials makes the weighted estimate meaningless")
    d = m.dim
    sp = surrogate_params(m.spectrum, n)
    # log k! e_k(Sigma) up to a constant, which the self-normalized estimate
    # cancels: log e_k = log P(K = k) + k log lambda_n + log det(I + gamma_n
    # Sigma) for n < d, and for n >= d only k = d occurs
    log_norm = np.array([math.lgamma(k + 1) for k in range(d + 1)])
    if n < d:
        with np.errstate(divide="ignore"):  # sizes of probability 0 are never drawn
            log_norm += np.log(_size_pmf(m.spectrum, sp.lambda_n))
        log_norm += np.arange(d + 1) * math.log(sp.lambda_n)

    def block(rng, lo, hi):
        logw = np.full(hi - lo, -log_norm[0])  # an empty block has det 1

        def draw(idx, cols):
            k = cols.shape[1]
            X = sample_iid(m, (idx.size, k), rng)
            logw[idx] = log_det_gram(X) - log_norm[k]
            return X

        designs = _by_size(m, sp, hi - lo, rng, draw)
        return logw, np.stack([np.asarray(f(X), dtype=float) for X in designs])

    parts = run_block_streams(block, trials, seed, block_size(d * math.ceil(max(n, d))), threads)
    logw, vals = (np.concatenate(c) for c in zip(*parts))
    mx = np.max(logw)
    if not np.isfinite(mx):
        raise RuntimeError("all determinant weights vanished; no usable trials")
    w = np.exp(logw - mx)
    wsum = float(np.sum(w))
    wbar = w / wsum
    shaped = wbar.reshape((-1,) + (1,) * (vals.ndim - 1))
    mean = np.sum(shaped * vals, axis=0)
    dev = vals - mean
    se = np.sqrt(np.sum((shaped * dev) ** 2, axis=0))
    ess = wsum**2 / float(np.sum(w**2))
    return MonteCarloEstimate(mean=mean, std_error=se, trials=trials, effective_sample_size=ess)


def _rows(law: str, num: int, k: int, rng) -> tuple[np.ndarray, int]:
    """(num, k, k) blocks Z with density proportional to det(Z)^2 times a
    bounded entry law, drawn exactly, and the number of rows proposed.

    det(Z Z^T) = prod_i |P_i z_i|^2, with P_i the projection off rows 1 to
    i - 1, and given rows 1 to i the factors of the later rows have mean
    (k - i)! for every zero-mean, unit-variance i.i.d. law. So row i has
    density proportional to the law times |P_i z|^2 <= k max z^2: a row from
    the law is accepted when u k max z^2 < |P_i z|^2. The blocks run in
    lockstep, row by row, each row redrawn only for the blocks that have not
    accepted it; Q holds the normalized residuals of the accepted rows.
    """
    Z, Q = np.empty((num, k, k)), np.empty((num, k, k))
    bound = k * (1.0 if law == "rademacher" else 3.0)  # k max z^2
    proposed = 0
    for i in range(k):
        todo = np.arange(num)
        while todo.size:
            z = _entries(law, (todo.size, k), rng)
            B = Q[todo, :i]
            r = z - np.einsum("bij,bi->bj", B, np.einsum("bij,bj->bi", B, z))
            r2 = np.einsum("bj,bj->b", r, r)
            acc = rng.uniform(size=todo.size) * bound < r2
            Z[todo[acc], i] = z[acc]
            Q[todo[acc], i] = r[acc] / np.sqrt(r2[acc])[:, None]
            proposed += todo.size
            todo = todo[~acc]
    return Z, proposed


def _bartlett(num: int, k: int, df: int, rng) -> np.ndarray:
    """(num, k, k) upper Bartlett factors R, so that R^T R ~ Wishart_k(df, I):
    N(0, 1) above the diagonal and R_ii^2 ~ chi^2_{df+1-i}. Drawn as full
    k x k normals, of which the strict upper triangle is kept, then the
    chi-squares."""
    R = np.triu(rng.standard_normal((num, k, k)), 1)
    R[:, np.arange(k), np.arange(k)] = np.sqrt(rng.chisquare(np.arange(df, df - k, -1), size=(num, k)))
    return R


def _tilted(m: MeasureSpec, cols: np.ndarray, rng) -> tuple[np.ndarray, int]:
    """Draws of k x d designs with density proportional to det(X X^T) times
    the measure, one per row of the (num, k) column sets ``cols``, as a
    (num, k, d) stack, and the number of block rows proposed for them.

    X = Z Sigma^{1/2} with Z i.i.d. from the law, and Cauchy-Binet gives
    det(X X^T) = sum_{|S|=k} det(Z_S)^2 prod_{i in S} tau_i with
    E det(Z_S)^2 = k! for every S and every i.i.d. zero-mean, unit-variance
    law. So the tilted law is a mixture: S with P(S) proportional to
    prod_{i in S} tau_i, which ``_by_size`` draws; Z_S with density
    proportional to det(Z_S)^2 times the law; the other columns i.i.d. Z is
    drawn whole and its S block replaced, exactly for every law: for the
    ``gaussian`` law by H R, H Haar and R the Bartlett factor of
    Wishart_k(k + 2, I) (R_ii^2 ~ chi^2_{k+3-i}, N(0, 1) above the
    diagonal), with no row rejected; for the bounded laws by the row-by-row
    rejection sampler ``_rows``, whose envelope is k max z^2. When k = d,
    S is every column and Z is the block itself, with no gather or scatter.
    """
    num, k = cols.shape
    Z = _entries(m.entry_law, (num, k, m.dim), rng)
    whole = k == m.dim
    if whole:
        block = Z
    else:
        at = np.broadcast_to(cols[:, None, :], (num, k, k))
        block = np.take_along_axis(Z, at, axis=2)
    proposed = num * k
    if m.entry_law == "gaussian":
        # H is the Q factor of the Gaussian S block itself, its column signs
        # fixed by diag(R) so that it is Haar
        Q, G = np.linalg.qr(block)
        H = Q * np.where(np.diagonal(G, axis1=1, axis2=2) < 0, -1.0, 1.0)[:, None, :]
        block = H @ _bartlett(num, k, k + 2, rng)
    else:
        block, proposed = _rows(m.entry_law, num, k, rng)
    if whole:
        Z = block
    else:
        np.put_along_axis(Z, at, block, axis=2)
    return apply_sqrt(m.spectrum, Z), proposed


def _by_size(m: MeasureSpec, sp: SurrogateParams, num: int, rng, draw) -> list[np.ndarray]:
    """num designs with the surrogate's size law at expected size n = sp.n,
    in draw order, from the solved parameters ``sp`` of m's spectrum.

    For n < d each design's column set S holds column i independently with
    probability p_i = tau_i / (tau_i + lambda_n): P(K = k, S) is proportional
    to gamma_n^k prod_{i in S} tau_i, which factorizes, and E|S| = n is the
    equation ``solve_lambda`` solves. The block has k = |S| rows. For n >= d,
    S is every column and no size is drawn. ``draw(idx, cols)`` returns the
    (idx.size, k, d) blocks of the draws ``idx`` with column sets ``cols``,
    an (idx.size, k) array of increasing column indices; it is called once
    per realized size k > 0, in increasing k. For n >= d each block then
    gets Poisson(n - d) i.i.d. rows and a uniformly random row permutation:
    the volume-rescaled decomposition of the surrogate design (Derezinski,
    Warmuth and Hsu, 2019).
    """
    d, n = m.dim, sp.n
    if n < d:
        t = m.spectrum.eigenvalues
        S = rng.random((num, d)) < t / (t + sp.lambda_n)
    else:
        S = np.ones((num, d), dtype=bool)
    ks = np.sum(S, axis=1)
    out: list[np.ndarray | None] = [None] * num
    for k in np.unique(ks):
        idx = np.flatnonzero(ks == k)
        cols = np.nonzero(S[idx])[1].reshape(idx.size, k)
        for i, X in zip(idx, draw(idx, cols) if k else np.zeros((idx.size, 0, d))):
            out[i] = X
    if n < d:
        return out
    extra = rng.poisson(n - d, size=num)
    rows = sample_iid(m, int(np.sum(extra)), rng)
    return [np.concatenate((X, rows[end - e:end]))[rng.permutation(d + e)]
            for X, e, end in zip(out, extra.tolist(), np.cumsum(extra).tolist())]


def sample_surrogate_under_batch(m: MeasureSpec, n: float, num: int, ignored,
                                 seed) -> tuple[list[np.ndarray], float]:
    """num surrogate samples at expected size n, drawn by ``_by_size``: for
    n < d a block on a Bernoulli column set, for n >= d a d-row block plus
    Poisson(n - d) i.i.d. rows; the blocks of each size are one ``_tilted``
    batch.

    The draws are exact for every entry law. The returned rate is the
    accepted block rows over the proposed ones: 1.0 for the ``gaussian``
    law, the pooled acceptance rate of ``_rows`` for the bounded laws, and
    1.0 when no block row is drawn. All draws come from a single seeded
    stream, which keeps the batch deterministic for a fixed (seed, num).
    The fourth parameter is ignored by every law; it stays because
    ``perfbench/workloads.py`` still passes a chain length there.
    """
    rng = _resolve_rng(seed)
    rows = proposed = 0

    def draw(idx, cols):
        nonlocal rows, proposed
        X, p = _tilted(m, cols, rng)
        rows += cols.size
        proposed += p
        return X

    out = _by_size(m, surrogate_params(m.spectrum, n), num, rng, draw)
    return out, rows / proposed if proposed else 1.0
