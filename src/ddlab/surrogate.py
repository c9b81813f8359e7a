"""Closed-form quantities of the determinantal surrogate design:

* the implicit ridge level lambda_n matching the effective dimension to n,
  by a numpy Newton iteration, to below 1e-15 relative error from n -> 0
  to n -> d and up to condition number 1e12 (checked against a 50-digit
  mpmath root), and to 1e-14 at condition numbers up to 1e300 (checked
  against the exact root at d = 2),
* the derived scalars (gamma_n, lambda_n, alpha_n, beta_n),
* the exact surrogate MSE and its variance/bias split,
* the expected minimum-norm estimator (implicit regularization mean),
* the realized-sample-size distribution for any row measure with i.i.d.
  zero-mean, unit-variance entries: a Poisson-binomial over the columns,
  formed as a blocked product of per-column factors, all of whose terms
  are non-negative.

Everything here is evaluated in the eigenbasis of the covariance, so all
matrix expressions reduce to per-eigenvalue scalar operations. Every
closed form depends on the spectrum only through lambda_n, so each public
(s, n) function solves for it once and hands it, or the ``SurrogateParams``
holding it, to a private helper; callers that need several closed forms at
one n (``experiments``, ``designs``) call those helpers with one solve.
The module imports no part of scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import Spectrum

__all__ = [
    "SurrogateParams",
    "RegressionProblem",
    "solve_lambda",
    "surrogate_params",
    "surrogate_mse",
    "variance_term",
    "bias_factors",
    "implicit_reg_mean",
    "surrogate_size_pmf",
]


def solve_lambda(s: Spectrum, n: float) -> float:
    """The unique lam >= 0 with effective dimension equal to n, for 0 < n < d.

    Solved in x = 1 / lam as sum x tau_i / (1 + x tau_i) = n for n <= d / 2,
    exact as n -> 0, and in x = lam as sum x / (tau_i + x) = d - n above,
    exact as n -> d. Each residual is concave and increasing in its x, so
    Newton's method started left of the root rises monotonically to it:
    every tangent lies above the residual. The start is the Jensen bound of
    x / (1 + x) in x tau (below d / 2) or in x / tau (above), the root for
    a flat spectrum and left of it otherwise. The iteration stops when an
    iterate no longer rises.

    A term over 1/2 (tau_i > lam) is summed as 1 minus its complement,
    lam / (tau_i + lam), so the residual keeps its small parts at every
    condition number: the result is within 1e-15 relative of a 50-digit
    root for d up to 300, condition numbers up to 1e12 and n from 1e-6 to
    d - 1e-6, and within 1e-14 of the exact root sqrt(tau_1 tau_2) at d = 2,
    n = 1 for tau_1 / tau_2 from 1e12 to 1e300. Far from the flat spectrum
    the start is far left of the root and each step about doubles x, so a
    condition number of 1e300 takes about 500 steps. A call raises
    ValueError when 2 d tau_1 / n overflows a double, or when lam or 1 / lam
    falls outside the positive doubles or the residual there is not finite
    (a spectrum of subnormal eigenvalues).
    """
    d = s.dim
    if not (0 < n < d):
        raise ValueError(f"solve_lambda needs 0 < n < d, got n={n}, d={d}")
    t = s.eigenvalues
    if not math.isfinite(2 * d * float(t[0]) / n):
        raise ValueError(f"solve_lambda: 2 d tau_1 / n overflows at n={n}, d={d}")
    low = n <= d / 2
    if low:
        x = n / ((d - n) * float(np.mean(t)))
    else:
        x = (d - n) / (n * float(np.mean(1.0 / t)))
    neg = -t  # ascending, for counting the eigenvalues above lambda
    while x < math.inf:  # x overflows only on subnormal eigenvalues
        # sum p_i - n with p_i = tau_i / (tau_i + lam) and q_i = 1 - p_i; the
        # k terms with tau_i > lam, whose p_i is over 1/2, are summed as
        # 1 - q_i, so that their small parts are not rounded away
        if low:
            xt = x * t
            q = 1.0 / (1.0 + xt)
            p = xt * q
        else:
            r = 1.0 / (t + x)
            p, q = t * r, x * r
        k = int(neg.searchsorted(-1.0 / x if low else -x))
        h = (k - n) + float(p[k:].sum()) - float(q[:k].sum())
        if not low:
            h = -h
        # the slope of either residual in its x is sum p_i q_i / x
        step = x - h * x / float(p @ q)
        if not step > x:
            break
        x = step
    lam = 1.0 / x if low else x
    if not (0 < lam < math.inf and math.isfinite(h)):
        raise ValueError(f"solve_lambda: no positive double lambda_n has a finite residual "
                         f"at n={n}, d={d}")
    return lam


@dataclass(frozen=True)
class SurrogateParams:
    """Scalars parameterizing the surrogate design at expected size n.

    alpha_n underflows to zero for moderate d, so its log is stored as the
    primary representation.
    """

    n: float
    d: int
    gamma_n: float
    lambda_n: float
    log_alpha_n: float
    beta_n: float

    @property
    def alpha_n(self) -> float:
        return math.exp(self.log_alpha_n)


def _log_alpha(s: Spectrum, lam: float) -> float:
    """log det(Sigma (Sigma + lam I)^{-1}), exact as lam -> 0."""
    return -float(np.sum(np.log1p(lam / s.eigenvalues)))


def surrogate_params(s: Spectrum, n: float) -> SurrogateParams:
    """Populate (gamma_n, lambda_n, alpha_n, beta_n) for the three regimes."""
    d = s.dim
    if not n > 0:
        raise ValueError("n must be positive")
    if n < d:
        lam = solve_lambda(s, n)
        gamma = 1.0 / lam
        return SurrogateParams(n=n, d=d, gamma_n=gamma, lambda_n=lam,
                               log_alpha_n=_log_alpha(s, lam), beta_n=1.0)
    if n == d:
        return SurrogateParams(n=n, d=d, gamma_n=0.0, lambda_n=0.0, log_alpha_n=0.0, beta_n=1.0)
    gamma = float(n - d)
    return SurrogateParams(n=n, d=d, gamma_n=gamma, lambda_n=0.0, log_alpha_n=0.0,
                           beta_n=math.exp(d - n))


@dataclass(frozen=True)
class RegressionProblem:
    """A linear response model over a covariance spectrum.

    ``w_star`` is expressed in the eigenbasis of the spectrum; ``sigma2``
    is the homoscedastic noise variance.
    """

    spectrum: Spectrum
    w_star: np.ndarray
    sigma2: float

    def __post_init__(self):
        w = np.asarray(self.w_star, dtype=float).reshape(-1)
        if w.size != self.spectrum.dim:
            raise ValueError("w_star dimension does not match the spectrum")
        if not np.all(np.isfinite(w)):
            raise ValueError("w_star has non-finite entries")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2!r}")
        object.__setattr__(self, "w_star", w)


def variance_term(s: Spectrum, n: float) -> float:
    """Variance factor (1 - alpha_n) / lambda_n of the surrogate MSE, n < d.

    It is the det-weighted E tr adj(X X^T) / det(X X^T), whose numerator's
    mean, k! e_{k-1} at size k, holds for rows Sigma^{1/2} z with any i.i.d.
    zero-mean, unit-variance entries z. So it is E tr((X^T X)^+) for every
    entry law whose tilted blocks are almost surely nonsingular (the
    Gaussian one among them), and exceeds it by exactly the singular mass,
    the weighted tr adj(X X^T) of the singular blocks, otherwise (Rademacher
    rows: 0.812 against 0.487 at tau = (1, 2, 3), n = 2).
    """
    p = surrogate_params(s, n)
    if not n < s.dim:
        raise ValueError("variance_term is defined for n < d")
    return -math.expm1(p.log_alpha_n) / p.lambda_n


def bias_factors(s: Spectrum, n: float) -> np.ndarray:
    """Per-eigenvalue bias factors lambda_n / (tau_i + lambda_n), n < d."""
    if not n < s.dim:
        raise ValueError("bias_factors is defined for n < d")
    return _bias_factors(s, solve_lambda(s, n))


def _bias_factors(s: Spectrum, lam: float) -> np.ndarray:
    """``bias_factors`` at the solved lambda_n ``lam``."""
    t = s.eigenvalues
    return lam / (t + lam)


def surrogate_mse(p: RegressionProblem, n: float) -> float:
    """Exact surrogate-design MSE of the minimum-norm estimator.

    Under-determined: sigma^2 (1-alpha_n)/lambda_n + lambda_n w*^T (Sigma+lambda_n I)^{-1} w*.
    At n = d: sigma^2 tr(Sigma^{-1}).
    Over-determined: sigma^2 tr(Sigma^{-1}) (1 - e^{d-n}) / (n - d).

    The bias term holds for every i.i.d. entry law; the under-determined
    variance term holds for laws whose tilted blocks are almost surely
    nonsingular and otherwise misses by exactly their singular mass (see
    ``variance_term``).
    """
    return _mse(p, surrogate_params(p.spectrum, n))


def _mse(p: RegressionProblem, sp: SurrogateParams) -> float:
    """``surrogate_mse`` from the solved parameters ``sp`` of p's spectrum."""
    s, n, d = p.spectrum, sp.n, sp.d
    if n < d:
        bias = float(np.sum(_bias_factors(s, sp.lambda_n) * p.w_star**2))
        return p.sigma2 * -math.expm1(sp.log_alpha_n) / sp.lambda_n + bias
    tr_inv = s.trace_inverse()
    if n == d:
        return p.sigma2 * tr_inv
    return p.sigma2 * tr_inv * -math.expm1(d - n) / (n - d)


def implicit_reg_mean(p: RegressionProblem, n: float, v: np.ndarray | None = None) -> np.ndarray:
    """Expected minimum-norm estimator, in the eigenbasis.

    Equals the ridge solution (Sigma + lambda_n I)^{-1} v for n < d and the
    population solution Sigma^{-1} v for n >= d, where v defaults to
    Sigma w* (the homoscedastic linear-model value) but may be supplied
    explicitly for general response models.
    """
    return _implicit_mean(p, surrogate_params(p.spectrum, n), v)


def _implicit_mean(p: RegressionProblem, sp: SurrogateParams,
                   v: np.ndarray | None = None) -> np.ndarray:
    """``implicit_reg_mean`` from the solved parameters ``sp``; lambda_n is 0
    for n >= d, where (Sigma + 0 I)^{-1} v is Sigma^{-1} v bit for bit."""
    s = p.spectrum
    t = s.eigenvalues
    if v is None:
        v = t * p.w_star
    else:
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.size != s.dim:
            raise ValueError("v dimension does not match the spectrum")
    return v / (t + sp.lambda_n)


def surrogate_size_pmf(s: Spectrum, n: float) -> np.ndarray:
    """P(K = k), k = 0..d, of the realized surrogate sample size for 0 < n < d.

    For rows x = Sigma^{1/2} z with i.i.d. zero-mean, unit-variance entries
    z, Cauchy-Binet gives E[det(X X^T) | K = k] = k! e_k(eigenvalues)
    exactly, whatever the entry law, so P(k) is proportional to
    gamma_n^k e_k; the normalizer is det(I + gamma_n Sigma). So K is the
    size of a column set holding column i independently with probability
    p_i = tau_i / (tau_i + lambda_n): a Poisson-binomial, the coefficients
    of prod_i (q_i + p_i x). q_i = 1 - p_i is taken as
    lambda_n / (tau_i + lambda_n), accurate as n -> d.

    The product is blocked: the columns fall into chunks of c = isqrt(d),
    the last padded with p = 0, q = 1; all chunk polynomials are built at
    once by c vectorised recursion steps, then folded together by
    ``np.convolve`` (a direct sum, not an FFT), dropping the exactly-zero
    leading and trailing coefficients of the running product. Every term
    is a product or a sum of non-negatives, so there is no cancellation:
    no entry is negative, and each entry keeps the relative accuracy of
    the column-by-column recursion (within 1e-13 relative of it, and of a
    60-digit reference, on every entry above 1e-300). On 2 cores it costs
    about 0.07-0.16 ms at d = 100-300 and 0.45 s at d = 1e5.
    """
    if not 0 < n < s.dim:
        raise ValueError("surrogate_size_pmf needs 0 < n < d")
    return _size_pmf(s, solve_lambda(s, n))


def _size_pmf(s: Spectrum, lam: float) -> np.ndarray:
    """``surrogate_size_pmf`` at the solved lambda_n ``lam``."""
    d, t = s.dim, s.eigenvalues
    c = math.isqrt(d)
    m = -(-d // c)
    p, q = np.zeros(m * c), np.ones(m * c)  # the last chunk padded with p = 0, q = 1
    p[:d], q[:d] = t / (t + lam), lam / (t + lam)
    p, q = p.reshape(m, c), q.reshape(m, c)
    chunks = np.zeros((m, c + 1))
    chunks[:, 0] = 1.0
    for i in range(c):
        chunks[:, 1:i + 2] = chunks[:, 1:i + 2] * q[:, i, None] + chunks[:, :i + 1] * p[:, i, None]
        chunks[:, 0] *= q[:, i]
    # acc holds the coefficients lo, lo + 1, ... of the running product
    acc, lo = chunks[0], 0
    for poly in chunks[1:]:
        acc = np.convolve(acc, poly)
        if not (acc[0] and acc[-1]):  # drop exact zeros: underflow and padding
            nz = np.flatnonzero(acc)
            lo += nz[0]
            acc = acc[nz[0]:nz[-1] + 1]
    pmf = np.zeros(d + 1)
    pmf[lo:lo + acc.size] = acc
    return pmf
