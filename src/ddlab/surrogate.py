"""Closed-form quantities of the determinantal surrogate design:

* the implicit ridge level lambda_n matching the effective dimension to n,
* the derived scalars (gamma_n, lambda_n, alpha_n, beta_n),
* the exact surrogate MSE and its variance/bias split,
* the expected minimum-norm estimator (implicit regularization mean),
* the realized-sample-size distribution for a Gaussian row measure.

Everything here is evaluated in the eigenbasis of the covariance, so all
matrix expressions reduce to per-eigenvalue scalar operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import Spectrum
from .errors import UnsupportedMeasureError

__all__ = [
    "SurrogateParams",
    "RegressionProblem",
    "solve_lambda",
    "effective_dimension",
    "surrogate_params",
    "surrogate_mse",
    "variance_term",
    "bias_factors",
    "implicit_reg_mean",
    "surrogate_size_pmf",
]


def effective_dimension(s: Spectrum, lam: float) -> float:
    """Ridge effective degrees of freedom tr(Sigma (Sigma + lam I)^{-1})."""
    t = s.eigenvalues
    return float(np.sum(t / (t + lam)))


def solve_lambda(s: Spectrum, n: float, rel_tol: float = 1e-12) -> float:
    """The unique lam >= 0 with effective dimension equal to n, for 0 < n < d.

    The effective dimension is strictly decreasing and convex in lam, so a
    bracketed bisection refined by guarded Newton steps converges globally.
    """
    d = s.dim
    if not (0 < n < d):
        raise ValueError(f"solve_lambda needs 0 < n < d, got n={n}, d={d}")
    t = s.eigenvalues

    def f(lam):
        return float(np.sum(t / (t + lam))) - n

    def fprime(lam):
        return -float(np.sum(t / (t + lam) ** 2))

    lo = 0.0
    hi = d * float(t[0]) / n  # effective dimension there is strictly below n
    while f(hi) > 0:  # defensive; the bound above already guarantees f(hi) < 0
        hi *= 2.0
    lam = 0.5 * hi
    for _ in range(200):
        flam = f(lam)
        if flam > 0:
            lo = lam
        else:
            hi = lam
        step = flam / fprime(lam)
        nxt = lam - step
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - lam) <= rel_tol * max(nxt, 1e-300):
            lam = nxt
            break
        lam = nxt
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
    t = s.eigenvalues
    return float(np.sum(np.log(t) - np.log(t + lam)))


def surrogate_params(s: Spectrum, n: float) -> SurrogateParams:
    """Populate (gamma_n, lambda_n, alpha_n, beta_n) for the three regimes."""
    d = s.dim
    if n < 1:
        raise ValueError("n must be >= 1")
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
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        object.__setattr__(self, "w_star", w)


def variance_term(s: Spectrum, n: float) -> float:
    """Variance factor (1 - alpha_n) / lambda_n of the surrogate MSE, n < d."""
    p = surrogate_params(s, n)
    if not n < s.dim:
        raise ValueError("variance_term is defined for n < d")
    return (1.0 - p.alpha_n) / p.lambda_n


def bias_factors(s: Spectrum, n: float) -> np.ndarray:
    """Per-eigenvalue bias factors lambda_n / (tau_i + lambda_n), n < d."""
    if not n < s.dim:
        raise ValueError("bias_factors is defined for n < d")
    p = surrogate_params(s, n)
    t = s.eigenvalues
    return p.lambda_n / (t + p.lambda_n)


def surrogate_mse(p: RegressionProblem, n: float) -> float:
    """Exact surrogate-design MSE of the minimum-norm estimator.

    Under-determined: sigma^2 (1-alpha_n)/lambda_n + lambda_n w*^T (Sigma+lambda_n I)^{-1} w*.
    At n = d: sigma^2 tr(Sigma^{-1}).
    Over-determined: sigma^2 tr(Sigma^{-1}) (1 - e^{d-n}) / (n - d).
    """
    s = p.spectrum
    d = s.dim
    if n < d:
        sp = surrogate_params(s, n)
        bias = float(np.sum(bias_factors(s, n) * p.w_star**2))
        return p.sigma2 * (1.0 - sp.alpha_n) / sp.lambda_n + bias
    tr_inv = s.trace_inverse()
    if n == d:
        return p.sigma2 * tr_inv
    return p.sigma2 * tr_inv * (1.0 - math.exp(d - n)) / (n - d)


def implicit_reg_mean(p: RegressionProblem, n: float, v: np.ndarray | None = None) -> np.ndarray:
    """Expected minimum-norm estimator, in the eigenbasis.

    Equals the ridge solution (Sigma + lambda_n I)^{-1} v for n < d and the
    population solution Sigma^{-1} v for n >= d, where v defaults to
    Sigma w* (the homoscedastic linear-model value) but may be supplied
    explicitly for general response models.
    """
    s = p.spectrum
    t = s.eigenvalues
    if v is None:
        v = t * p.w_star
    else:
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.size != s.dim:
            raise ValueError("v dimension does not match the spectrum")
    if n < s.dim:
        lam = solve_lambda(s, n)
        return v / (t + lam)
    return v / t


def _log_esp(log_vals: np.ndarray, up_to: int) -> np.ndarray:
    """log e_0..e_{up_to} of positive values given their logs.

    Log-space version of the standard one-value-at-a-time recursion, so
    the result is finite even when the linear-space e_k overflow.
    """
    loge = np.full(up_to + 1, -np.inf)
    loge[0] = 0.0
    for lv in log_vals:
        # the right side is built before the assignment, so every e_k takes
        # the e_{k-1} from before this value, as the recursion requires
        loge[1:] = np.logaddexp(loge[1:], lv + loge[:-1])
    return loge


def surrogate_size_pmf(s: Spectrum, n: int, entry_law: str = "gaussian") -> np.ndarray:
    """P(K = k), k = 0..d, of the realized surrogate sample size for n < d.

    For a Gaussian row measure E[det(X X^T) | K = k] = k! e_k(eigenvalues)
    exactly, which gives P(k) proportional to gamma_n^k e_k; the normalizer
    is det(I + gamma_n Sigma). Computed in log space.
    """
    if entry_law != "gaussian":
        raise UnsupportedMeasureError("the closed-form size pmf requires a Gaussian measure")
    d = s.dim
    if not (isinstance(n, (int, np.integer)) and 0 < n < d):
        raise ValueError("surrogate_size_pmf needs an integer 0 < n < d")
    gamma = surrogate_params(s, n).gamma_n
    log_scaled = np.log(gamma) + np.log(s.eigenvalues)
    loge = _log_esp(log_scaled, d)
    log_norm = float(np.sum(np.log1p(gamma * s.eigenvalues)))
    return np.exp(loge - log_norm)
