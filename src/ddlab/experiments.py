"""Empirical protocol: i.i.d.-design MSE estimation, variance and bias
discrepancies against the surrogate closed forms, bootstrap confidence
intervals, adaptive trial escalation, and log-log slope fits.

The i.i.d. designs come from the block streams of
``parallel.run_block_streams``: a block of ``count`` trials draws all its
designs in one ``sample_iid(m, count * n, rng)`` call, reshaped to
(count, n, d), so a trial's design depends on its block and its place in
it. The one exception is ``mse_trial_samples`` for the ``gaussian`` law at
n > d, whose blocks draw ``count`` Bartlett factors of X^T X from the
same streams instead of designs. The bias discrepancy's batch b draws
from the stream of block b. The bootstraps keep their own single streams,
keyed (seed, 0xB5) and (seed, 0xB6), apart from every block stream. The
covariance is diagonal, so w* and the bias whitening factors act in the
designs' own coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .covariance import Spectrum
from .designs import MeasureSpec, gram_factor, sample_iid
from .linalg import min_norm_stats, projection_complement_sum, triangular_trace_inv
from .parallel import block_size, run_block_streams, trial_rng
from .surrogate import (
    RegressionProblem,
    bias_factors,
    implicit_reg_mean,
    surrogate_mse,
    surrogate_params,
    variance_term,
)

__all__ = [
    "DiscrepancyPoint",
    "CurvePoint",
    "mse_trial_samples",
    "variance_point",
    "variance_discrepancy",
    "bias_discrepancy",
    "bootstrap_ci",
    "bootstrap_opnorm_ci",
    "adaptive_trials",
    "loglog_slope",
    "curve_double_descent",
    "curve_dimension_sweep",
]


@dataclass(frozen=True)
class DiscrepancyPoint:
    d: int
    n: int
    aspect: float
    kind: str  # "variance" | "bias"
    value: float
    ci_low: float
    ci_high: float
    trials_used: int
    flagged: bool = False


@dataclass(frozen=True)
class CurvePoint:
    n: float
    d: int
    mse_surrogate: float
    mse_mc: float | None
    mse_mc_se: float | None
    ci_low: float | None
    ci_high: float | None
    lambda_n: float
    alpha_or_beta: float
    norm_implicit_mean: float


def _block_designs(m: MeasureSpec, n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, n, d) stack of i.i.d. designs drawn from ``rng`` in one call."""
    return sample_iid(m, count * n, rng).reshape(count, n, m.dim)


def mse_trial_samples(p: RegressionProblem, m: MeasureSpec, n: int, trials: int,
                      seed: int, threads: int | None = None) -> np.ndarray:
    """Per-trial Rao-Blackwellized MSE statistics for an i.i.d. design:
    sigma^2 tr((X^T X)^+) + ||(I - X^+X) w*||^2, exact over the response
    noise and random only in X, which removes all noise-sampling variance
    from the Monte Carlo.

    For the ``gaussian`` law at n > d a trial draws no design: the
    statistic depends on X only through X^T X, so each trial draws the
    d x d triangular factor of ``gram_factor``, T with T^T T equal in law
    to X^T X, and returns sigma^2 ||T^{-1}||_F^2; the residual is 0, as
    for any full-rank n > d design. Its blocks hold block_size(d^2)
    trials. Every other case draws (count, n, d) designs in blocks of
    block_size(n d) trials."""
    if trials < 30:
        raise ValueError("need at least 30 trials")
    d = m.dim
    if m.entry_law == "gaussian" and n > d:
        def block(rng, lo, hi):
            return p.sigma2 * triangular_trace_inv(gram_factor(m, n, hi - lo, rng))

        size = block_size(d * d)
    else:
        def block(rng, lo, hi):
            tr, resid = min_norm_stats(_block_designs(m, n, rng, hi - lo), p.w_star)
            return p.sigma2 * tr + resid

        size = block_size(n * d)
    return np.concatenate(run_block_streams(block, trials, seed, size, threads))


# bootstrap indices drawn at once: keeps memory flat at large trial counts
_RESAMPLE_CHUNK = 2**17
# coverage of the percentile bootstrap CIs
CI_LEVEL = 0.95
# bootstrap resamples of a variance discrepancy point
VARIANCE_RESAMPLES = 1000
# batch means of a bias discrepancy point, and their bootstrap resamples
BIAS_BATCHES = 200
BIAS_RESAMPLES = 500


def _resample_chunks(rng: np.random.Generator, T: int, resamples: int, width: int):
    """Bootstrap index rows, ``resamples`` of them in all, drawn in chunks of
    at most _RESAMPLE_CHUNK // width rows. The stream is the same as drawing
    one row of T indices at a time."""
    rows = max(1, _RESAMPLE_CHUNK // width)
    for start in range(0, resamples, rows):
        yield rng.integers(T, size=(min(rows, resamples - start), T))


def bootstrap_ci(samples, resamples: int = 2000, seed: int = 0, stat=None) -> tuple[float, float]:
    """Percentile bootstrap CI, at level CI_LEVEL, of the sample mean (or of
    ``stat`` applied to the array of resampled means)."""
    samples = np.asarray(samples, dtype=float)
    T = samples.shape[0]
    if T < 30:
        raise ValueError("need at least 30 samples to bootstrap")
    rng = trial_rng(seed, 0xB5)
    means = np.concatenate([samples[idx].mean(axis=1)
                            for idx in _resample_chunks(rng, T, resamples, T)])
    if stat is not None:
        means = stat(means)
    lo, hi = np.quantile(means, [(1 - CI_LEVEL) / 2, 1 - (1 - CI_LEVEL) / 2])
    return float(lo), float(hi)


def bootstrap_opnorm_ci(matrix_samples, resamples: int = 2000, seed: int = 0,
                        transform=None) -> tuple[float, float]:
    """Percentile bootstrap, at level CI_LEVEL, over resampled matrix means,
    with the spectral norm (optionally of a transformed mean) computed per
    resample. ``transform`` is applied to a stack of means at once.

    Each chunk's means are one product of resample counts and the flattened
    samples, and their norms one batched SVD."""
    stack = np.asarray(matrix_samples, dtype=float)
    T = stack.shape[0]
    if T < 30:
        raise ValueError("need at least 30 matrix samples to bootstrap")
    flat = stack.reshape(T, -1)
    rng = trial_rng(seed, 0xB6)
    norms = []
    for idx in _resample_chunks(rng, T, resamples, max(T, flat.shape[1])):
        rows = idx.shape[0]
        offsets = (idx + T * np.arange(rows)[:, None]).ravel()
        counts = np.bincount(offsets, minlength=rows * T).reshape(rows, T)
        means = (counts @ flat / T).reshape((rows,) + stack.shape[1:])
        if transform is not None:
            means = transform(means)
        norms.append(np.linalg.norm(means, ord=2, axis=(1, 2)))
    lo, hi = np.quantile(np.concatenate(norms), [(1 - CI_LEVEL) / 2, 1 - (1 - CI_LEVEL) / 2])
    return float(lo), float(hi)


def variance_point(s: Spectrum, d: int, aspect: float, seed: int, threads: int | None = None):
    """The variance discrepancy point as a function of the trial count, for
    ``adaptive_trials``: ``point(trials)`` returns what
    ``variance_discrepancy(s, d, aspect, trials, seed, threads)`` returns.

    The point computes whole blocks of trials and keeps their per-trial
    tr((X^T X)^+) values, so a doubling draws only the blocks it lacks and
    each block is drawn once. A trial's value depends only on its block, so
    the values do not depend on the order of the calls.
    """
    if s.dim != d:
        raise ValueError("spectrum dimension does not match d")
    n = round(aspect * d)
    if not 0 < n < d:
        raise ValueError("aspect must give 0 < n < d")
    target = variance_term(s, n)
    m = MeasureSpec(s, "gaussian")
    size = block_size(n * d)
    vals = np.empty(0)

    def block(rng, lo, hi):
        return min_norm_stats(_block_designs(m, n, rng, hi - lo))[0]

    def point(trials: int) -> DiscrepancyPoint:
        nonlocal vals
        if trials > vals.size:
            end = -(-trials // size) * size
            vals = np.concatenate([vals, *run_block_streams(block, end, seed, size, threads,
                                                            start=vals.size)])
        used = vals[:trials]
        value = abs(float(np.mean(used)) / target - 1.0)
        lo, hi = bootstrap_ci(used, VARIANCE_RESAMPLES, seed=seed,
                              stat=lambda mu: abs(mu / target - 1.0))
        return DiscrepancyPoint(d=d, n=n, aspect=aspect, kind="variance", value=value,
                                ci_low=lo, ci_high=hi, trials_used=trials)

    return point


def variance_discrepancy(s: Spectrum, d: int, aspect: float, trials: int, seed: int,
                         threads: int | None = None) -> DiscrepancyPoint:
    """|E[tr((X^T X)^+)] / V(Sigma, n) - 1| for a Gaussian i.i.d. design,
    with an ordinary bootstrap CI mapped through the discrepancy."""
    return variance_point(s, d, aspect, seed, threads)(trials)


def bias_discrepancy(s: Spectrum, d: int, aspect: float, trials: int, seed: int,
                     threads: int | None = None) -> DiscrepancyPoint:
    """Spectral-norm bias discrepancy ||B^{-1/2} E[I - X^+X] B^{-1/2} - I||
    for a Gaussian i.i.d. design, with an operator-norm bootstrap CI.

    Trials are aggregated into BIAS_BATCHES batch means before
    bootstrapping so memory stays flat for large trial counts. Each batch is one block of the
    engine: batch b draws its designs, ``block_size`` of them at a time,
    from the stream of block b.
    """
    if s.dim != d:
        raise ValueError("spectrum dimension does not match d")
    n = round(aspect * d)
    if not 0 < n < d:
        raise ValueError("aspect must give 0 < n < d")
    m = MeasureSpec(s, "gaussian")
    white = 1.0 / np.sqrt(bias_factors(s, n))
    batches = min(BIAS_BATCHES, trials)
    bounds = np.linspace(0, trials, batches + 1).astype(int)
    size = block_size(n * d)

    def batch_mean(rng, b, _):
        count = bounds[b + 1] - bounds[b]
        return sum(projection_complement_sum(_block_designs(m, n, rng, min(size, count - i)))
                   for i in range(0, count, size)) / count

    batch_means = np.stack(run_block_streams(batch_mean, batches, seed, 1, threads))

    def whitened_dev(mean):
        return (white[:, None] * mean * white[None, :]) - np.eye(d)

    value = float(np.linalg.norm(whitened_dev(np.mean(batch_means, axis=0)), ord=2))
    lo, hi = bootstrap_opnorm_ci(batch_means, BIAS_RESAMPLES, seed=seed, transform=whitened_dev)
    return DiscrepancyPoint(d=d, n=n, aspect=aspect, kind="bias", value=value,
                            ci_low=lo, ci_high=hi, trials_used=trials)


def adaptive_trials(point_fn, target_rel_halfwidth: float = 0.125, cap: int = 100_000,
                    start: int = 100) -> DiscrepancyPoint:
    """Double the trial count until the bootstrap CI half-width is within
    the target fraction of the value; a point that hits the cap first is
    flagged rather than failed.

    ``point_fn(trials)`` is called with each trial count in turn. A
    ``variance_point`` computes each trial once across the doublings; a
    function that recomputes, such as a ``bias_discrepancy`` call, redoes
    the smaller counts' trials."""
    trials = min(start, cap)
    while True:
        point = point_fn(trials)
        halfwidth = 0.5 * (point.ci_high - point.ci_low)
        if halfwidth <= target_rel_halfwidth * point.value:
            return point
        if trials >= cap:
            return replace(point, flagged=True)
        trials = min(2 * trials, cap)


def loglog_slope(points) -> tuple[float, float, float]:
    """Least-squares fit of log(value) on log(d); returns (slope, intercept, r^2)."""
    points = list(points)
    usable = [p for p in points if p.value > 0]
    if len(usable) < len(points):
        import warnings

        warnings.warn("excluding non-positive discrepancy values from the log-log fit")
    if len(usable) < 3:
        raise ValueError("need at least 3 positive points for a slope fit")
    x = np.log([p.d for p in usable])
    y = np.log([p.value for p in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _curve_point(p: RegressionProblem, n: int, vals=None, seed: int = 0) -> CurvePoint:
    """Closed-form curve point at n; the Monte Carlo columns are filled from
    per-trial MSE statistics ``vals`` (bootstrap CI seeded by ``seed``)
    when given and left empty otherwise."""
    s = p.spectrum
    sp = surrogate_params(s, n)
    mse_mc = mse_mc_se = ci_low = ci_high = None
    if vals is not None:
        mse_mc = float(np.mean(vals))
        mse_mc_se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        ci_low, ci_high = bootstrap_ci(vals, seed=seed)
    return CurvePoint(n=n, d=s.dim, mse_surrogate=surrogate_mse(p, n), mse_mc=mse_mc,
                      mse_mc_se=mse_mc_se, ci_low=ci_low, ci_high=ci_high,
                      lambda_n=sp.lambda_n, alpha_or_beta=sp.alpha_n if n < s.dim else sp.beta_n,
                      norm_implicit_mean=float(np.linalg.norm(implicit_reg_mean(p, n))))


def curve_double_descent(p: RegressionProblem, m: MeasureSpec, n_values, trials: int,
                         seed: int, threads: int | None = None,
                         with_mc: bool = True) -> list[CurvePoint]:
    """Surrogate MSE curve over sample sizes, optionally accompanied by
    i.i.d.-design Monte Carlo estimates with bootstrap CIs."""
    points = []
    for i, n in enumerate(n_values):
        n, point_seed = int(n), seed + 1000 * i
        vals = mse_trial_samples(p, m, n, trials, point_seed, threads) if with_mc else None
        points.append(_curve_point(p, n, vals, point_seed))
    return points


def curve_dimension_sweep(make_problem, d_values) -> list[CurvePoint]:
    """Surrogate-only curve over dimensions at fixed n.

    ``make_problem(d)`` must return (RegressionProblem, n).
    """
    return [_curve_point(*make_problem(int(d))) for d in d_values]
