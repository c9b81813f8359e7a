"""Design samplers and Monte Carlo oracles.

Three ways of touching the surrogate design live here:

* ``sample_iid`` draws the standard i.i.d. sub-Gaussian design,
* ``surrogate_expectation_oracle`` estimates surrogate expectations by
  self-normalized determinant weighting of Poisson-sized i.i.d. draws
  (an exact identity, so the estimates are unbiased up to normalization),
* ``sample_surrogate_under`` / ``sample_surrogate_over`` produce actual
  surrogate samples with a Metropolis row-replacement chain.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .covariance import Spectrum, apply_sqrt
from .errors import UnsupportedMeasureError
from .linalg import log_det_gram, zero_threshold
from .parallel import run_trials, trial_rng
from .surrogate import surrogate_params, surrogate_size_pmf

__all__ = [
    "MeasureSpec",
    "DesignSample",
    "MonteCarloEstimate",
    "sample_iid",
    "gen_responses",
    "surrogate_expectation_oracle",
    "sample_surrogate_under",
    "sample_surrogate_under_batch",
    "sample_surrogate_over",
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


@dataclass
class DesignSample:
    """A sampled design with optional responses."""

    X: np.ndarray
    y: np.ndarray | None = None
    accept_rate: float | None = None

    @property
    def k(self) -> int:
        return int(self.X.shape[0])

    def to_csv(self, path) -> None:
        d = self.X.shape[1]
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow([f"x_{j + 1}" for j in range(d)] + ["y"])
            for i, row in enumerate(self.X):
                tail = [repr(float(self.y[i]))] if self.y is not None else [""]
                wr.writerow([repr(float(v)) for v in row] + tail)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Mean with standard error; shapes may be scalar, vector, or matrix."""

    mean: np.ndarray
    std_error: np.ndarray
    trials: int
    effective_sample_size: float = field(default=0.0)

    def z_score(self, target) -> np.ndarray:
        se = np.where(np.asarray(self.std_error) > 0, self.std_error, np.inf)
        return (np.asarray(self.mean) - np.asarray(target)) / se


def _raw_rows(m: MeasureSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    d = m.dim
    if m.entry_law == "gaussian":
        return rng.standard_normal((n, d))
    if m.entry_law == "rademacher":
        return rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(n, d))


def sample_iid(m: MeasureSpec, n: int, seed_or_rng) -> np.ndarray:
    """n i.i.d. rows from the measure; deterministic given a seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = _resolve_rng(seed_or_rng)
    return apply_sqrt(m.spectrum, _raw_rows(m, n, rng))


def gen_responses(X, w_star, sigma2: float, seed_or_rng) -> np.ndarray:
    """y = X w* + xi with xi i.i.d. Gaussian(0, sigma2)."""
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


def _log_weight(X: np.ndarray, n: float, d: int) -> float:
    """Log determinant weight of one i.i.d. draw under the expectation template.

    det(X X^T) for n < d, det(X)^2 for n = d, det(X^T X) for n > d; the
    weight is zero (log -inf) exactly when the realized size falls outside
    the regime's valid range.
    """
    k = X.shape[0]
    if n < d:
        if k > d:
            return -np.inf
        return log_det_gram(X)
    if n == d:
        sign, logdet = np.linalg.slogdet(X)
        return -np.inf if sign == 0 else 2.0 * logdet
    if k < d:
        return -np.inf
    s = np.linalg.svd(X, compute_uv=False)
    if np.any(s <= zero_threshold(s, X.shape)):
        return -np.inf
    return float(2.0 * np.sum(np.log(s)))


def surrogate_expectation_oracle(f, m: MeasureSpec, n: float, trials: int, seed: int,
                                 threads: int | None = None) -> MonteCarloEstimate:
    """Self-normalized importance-weighted estimate of E[f(X)] under the
    surrogate design with expected size n.

    Draws K ~ Poisson(gamma_n) (K = d exactly when n = d), samples an
    i.i.d. K x d design, and weights f by the appropriate determinant,
    accumulated in log space. Standard errors come from the delta method
    for ratio estimators; the effective sample size (sum w)^2 / sum w^2 is
    reported so weight degeneracy is visible.
    """
    if trials < 100:
        raise ValueError("fewer than 100 trials makes the weighted estimate meaningless")
    d = m.dim
    gamma = surrogate_params(m.spectrum, n).gamma_n

    def one(rng, _idx):
        k = d if n == d else int(rng.poisson(gamma))
        X = sample_iid(m, k, rng)
        return _log_weight(X, n, d), np.asarray(f(X), dtype=float)

    results = run_trials(one, trials, seed, threads)
    logw = np.array([r[0] for r in results])
    vals = np.stack([r[1] for r in results])
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


def _chain_init(m: MeasureSpec, k: int, rng, n: float) -> tuple[np.ndarray, float]:
    d = m.dim
    for _ in range(1000):
        X = sample_iid(m, k, rng)
        lw = _log_weight(X, n, d)
        if np.isfinite(lw):
            return X, lw
    raise RuntimeError("could not initialize a full-rank chain state")


def _run_chain(m: MeasureSpec, X: np.ndarray, lw: float, n: float, steps: int, rng):
    """Metropolis row replacement with stationary density prop. to the
    determinant weight times the product measure."""
    d = m.dim
    k = X.shape[0]
    accepted = 0
    for _ in range(steps):
        i = int(rng.integers(k))
        prop = sample_iid(m, 1, rng)[0]
        Xp = X.copy()
        Xp[i] = prop
        lwp = _log_weight(Xp, n, d)
        if lwp - lw >= 0 or math.log(rng.uniform()) < lwp - lw:
            X, lw = Xp, lwp
            accepted += 1
    return X, lw, (accepted / steps if steps > 0 else 0.0)


def sample_surrogate_under(m: MeasureSpec, n: int, chain_steps: int | None, seed_or_rng) -> DesignSample:
    """One surrogate sample for n < d: realized size from the closed-form
    pmf, then a Metropolis chain over k x d designs. Gaussian measure only
    (the size pmf requires it)."""
    if m.entry_law != "gaussian":
        raise UnsupportedMeasureError("under-determined surrogate sampling requires a Gaussian measure")
    rng = _resolve_rng(seed_or_rng)
    pmf = surrogate_size_pmf(m.spectrum, n)
    k = int(rng.choice(len(pmf), p=pmf))
    if k == 0:
        return DesignSample(X=np.zeros((0, m.dim)), accept_rate=0.0)
    if chain_steps is None:
        chain_steps = 100 * k  # conservative desk-scale default; no mixing theory available
    X, lw = _chain_init(m, k, rng, n)
    X, _, rate = _run_chain(m, X, lw, n, chain_steps, rng)
    return DesignSample(X=X, accept_rate=rate)


def sample_surrogate_over(m: MeasureSpec, n: float, chain_steps: int | None, seed_or_rng) -> DesignSample:
    """One surrogate sample for n > d: a d x d block with density prop. to
    det(X)^2 times the measure, plus Poisson(n - d) i.i.d. rows, under a
    uniformly random row permutation."""
    d = m.dim
    if n < d:
        raise ValueError("sample_surrogate_over needs n >= d")
    rng = _resolve_rng(seed_or_rng)
    if chain_steps is None:
        chain_steps = 100 * d
    X, lw = _chain_init(m, d, rng, d)
    X, _, rate = _run_chain(m, X, lw, d, chain_steps, rng)
    extra = sample_iid(m, int(rng.poisson(n - d)), rng)
    full = np.vstack([X, extra])
    perm = rng.permutation(full.shape[0])
    return DesignSample(X=full[perm], accept_rate=rate)


def sample_surrogate_under_batch(m: MeasureSpec, n: int, num: int, chain_steps: int,
                                 seed: int) -> tuple[list[np.ndarray], float]:
    """Vectorized batch of under-determined surrogate samples.

    All chains advance in lockstep from a single seeded stream, which keeps
    the batch deterministic for a fixed (seed, num, chain_steps) while
    running orders of magnitude faster than independent chains. Returns the
    samples and the pooled acceptance rate.
    """
    if m.entry_law != "gaussian":
        raise UnsupportedMeasureError("under-determined surrogate sampling requires a Gaussian measure")
    rng = _resolve_rng(seed)
    d = m.dim
    pmf = surrogate_size_pmf(m.spectrum, n)
    ks = rng.choice(len(pmf), size=num, p=pmf)
    out: list[np.ndarray | None] = [None] * num
    accepted = 0
    proposals = 0
    for k in np.unique(ks):
        idx = np.flatnonzero(ks == k)
        if k == 0:
            for i in idx:
                out[i] = np.zeros((0, d))
            continue
        B = idx.size
        X = apply_sqrt_batch(m, rng.standard_normal((B, k, d)))
        sign, ld = np.linalg.slogdet(X @ np.swapaxes(X, 1, 2))
        lw = np.where(sign > 0, ld, -np.inf)
        bad = ~np.isfinite(lw)
        while np.any(bad):  # rank-deficient starts have probability zero; redraw defensively
            nb = int(np.sum(bad))
            X[bad] = apply_sqrt_batch(m, rng.standard_normal((nb, k, d)))
            s2, l2 = np.linalg.slogdet(X[bad] @ np.swapaxes(X[bad], 1, 2))
            lw[bad] = np.where(s2 > 0, l2, -np.inf)
            bad = ~np.isfinite(lw)
        for _ in range(chain_steps):
            rows = rng.integers(k, size=B)
            props = apply_sqrt_batch(m, rng.standard_normal((B, 1, d)))[:, 0, :]
            Xp = X.copy()
            Xp[np.arange(B), rows] = props
            sp, lp = np.linalg.slogdet(Xp @ np.swapaxes(Xp, 1, 2))
            lwp = np.where(sp > 0, lp, -np.inf)
            u = np.log(rng.uniform(size=B))
            acc = u < (lwp - lw)
            X[acc] = Xp[acc]
            lw[acc] = lwp[acc]
            accepted += int(np.sum(acc))
            proposals += B
        for j, i in enumerate(idx):
            out[i] = X[j]
    rate = accepted / proposals if proposals else 0.0
    return [o for o in out], rate


def apply_sqrt_batch(m: MeasureSpec, Z: np.ndarray) -> np.ndarray:
    """Sigma^{1/2} applied to a stack of raw designs."""
    s = m.spectrum
    root = np.sqrt(s.eigenvalues)
    if s.basis is None:
        return Z * root
    return ((Z @ s.basis) * root) @ s.basis.T
