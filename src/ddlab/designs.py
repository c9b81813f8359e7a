"""Design samplers and Monte Carlo oracles.

Three ways of touching the surrogate design live here:

* ``sample_iid`` draws the standard i.i.d. sub-Gaussian design,
* ``surrogate_expectation_oracle`` estimates surrogate expectations by
  self-normalized determinant weighting of Poisson-sized i.i.d. draws
  (an exact identity, so the estimates are unbiased up to normalization),
* ``sample_surrogate_under_batch`` / ``sample_surrogate_over`` produce
  actual surrogate samples from one batched Metropolis row-replacement
  chain, ``_chain``, which advances many chains in lockstep.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

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

    def csv_text(self) -> str:
        """Header x_1..x_d,y and one line per row; y is empty without responses."""
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow([f"x_{j + 1}" for j in range(self.X.shape[1])] + ["y"])
        for i, row in enumerate(self.X):
            tail = [repr(float(self.y[i]))] if self.y is not None else [""]
            wr.writerow([repr(float(v)) for v in row] + tail)
        return buf.getvalue()


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


def _raw_rows(m: MeasureSpec, shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance entries of the measure, shape ``shape + (d,)``."""
    size = (*np.atleast_1d(shape), m.dim)
    if m.entry_law == "gaussian":
        return rng.standard_normal(size)
    if m.entry_law == "rademacher":
        return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=size)


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


def _gram_log_weight(X: np.ndarray) -> np.ndarray:
    """log det(X X^T) of each design in a (..., k, d) stack; -inf unless
    the Gram determinant is positive."""
    sign, logdet = np.linalg.slogdet(X @ np.swapaxes(X, -1, -2))
    return np.where(sign > 0, logdet, -np.inf)


def _chain(m: MeasureSpec, k: int, num: int, steps: int, rng) -> tuple[np.ndarray, int]:
    """num Metropolis row-replacement chains over k x d designs, advanced in
    lockstep from one stream, with stationary density proportional to
    det(X X^T) times the product measure.

    Each step replaces one uniformly chosen row of every chain by a fresh
    row from the measure and accepts when log u < log w' - log w. Returns
    the (num, k, d) final states and the number of accepted proposals.
    """
    s = m.spectrum
    X = apply_sqrt(s, _raw_rows(m, (num, k), rng))
    lw = _gram_log_weight(X)
    bad = ~np.isfinite(lw)
    for _ in range(1000):  # rank-deficient starts have probability zero; redraw defensively
        if not np.any(bad):
            break
        X[bad] = apply_sqrt(s, _raw_rows(m, (int(np.sum(bad)), k), rng))
        lw[bad] = _gram_log_weight(X[bad])
        bad = ~np.isfinite(lw)
    if np.any(bad):
        raise RuntimeError("could not initialize a full-rank chain state")
    chains = np.arange(num)
    accepted = 0
    for _ in range(steps):
        rows = rng.integers(k, size=num)
        Xp = X.copy()
        # one-row stacks: with a basis, a single (num, d) GEMM rounds
        # differently, and the chain's output is pinned bit for bit
        Xp[chains, rows] = apply_sqrt(s, _raw_rows(m, (num, 1), rng))[:, 0]
        lwp = _gram_log_weight(Xp)
        acc = np.log(rng.uniform(size=num)) < lwp - lw
        X[acc] = Xp[acc]
        lw[acc] = lwp[acc]
        accepted += int(np.sum(acc))
    return X, accepted


def sample_surrogate_over(m: MeasureSpec, n: float, chain_steps: int | None, seed_or_rng) -> DesignSample:
    """One surrogate sample for n > d: a d x d block with density prop. to
    det(X)^2 times the measure, plus Poisson(n - d) i.i.d. rows, under a
    uniformly random row permutation. ``chain_steps=None`` means 100 d."""
    d = m.dim
    if n < d:
        raise ValueError("sample_surrogate_over needs n >= d")
    rng = _resolve_rng(seed_or_rng)
    if chain_steps is None:
        chain_steps = 100 * d
    X, accepted = _chain(m, d, 1, chain_steps, rng)
    extra = sample_iid(m, int(rng.poisson(n - d)), rng)
    full = np.vstack([X[0], extra])
    perm = rng.permutation(full.shape[0])
    rate = accepted / chain_steps if chain_steps > 0 else 0.0
    return DesignSample(X=full[perm], accept_rate=rate)


def sample_surrogate_under_batch(m: MeasureSpec, n: int, num: int, chain_steps: int | None,
                                 seed: int) -> tuple[list[np.ndarray], float]:
    """num under-determined (n < d) surrogate samples: realized sizes from
    the closed-form pmf, then one lockstep chain batch per size.

    All chains draw from a single seeded stream, which keeps the batch
    deterministic for a fixed (seed, num, chain_steps). ``chain_steps=None``
    means 100 k for size k (a desk-scale default; no mixing theory is
    available). Gaussian measure only (the size pmf requires it). Returns
    the samples and the pooled acceptance rate.
    """
    if m.entry_law != "gaussian":
        raise UnsupportedMeasureError("under-determined surrogate sampling requires a Gaussian measure")
    rng = _resolve_rng(seed)
    pmf = surrogate_size_pmf(m.spectrum, n)
    ks = rng.choice(len(pmf), size=num, p=pmf)
    out: list[np.ndarray | None] = [None] * num
    accepted = 0
    proposals = 0
    for k in np.unique(ks):
        idx = np.flatnonzero(ks == k)
        if k == 0:
            X = np.zeros((idx.size, 0, m.dim))
        else:
            steps = 100 * int(k) if chain_steps is None else chain_steps
            X, acc = _chain(m, int(k), idx.size, steps, rng)
            accepted += acc
            proposals += idx.size * steps
        for j, i in enumerate(idx):
            out[i] = X[j]
    rate = accepted / proposals if proposals else 0.0
    return out, rate
