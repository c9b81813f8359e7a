"""Empirical protocol: i.i.d.-design MSE estimation, variance and bias
discrepancies against the surrogate closed forms, bootstrap confidence
intervals, adaptive trial escalation, and log-log slope fits.

The i.i.d. designs come from the block streams of
``parallel.run_block_streams``: a block of ``count`` trials draws all its
designs in one ``sample_iid(m, (count, n), rng)`` call, so a trial's
design depends on its block and its place in it. The one exception is
``mse_trial_samples`` for the ``gaussian`` law at n > d, whose blocks draw
no designs: from the same streams they draw ``count`` bidiagonal chi
factors (``_inverse_wishart_traces``), O(d) chi-squares per trial. A
discrepancy point's trial t comes from block t // block_size(n d) and
joins batch t mod BATCHES. Every CI comes from the one ``bootstrap_ci``,
on a single stream its caller passes, apart from every block stream: a
curve point and a variance point key theirs (seed, 0xB5), a bias point
(seed, 0xB6). The covariance is diagonal, so w* and the bias whitening
factors act in the designs' own coordinates. Each entry point takes each
input once: the Monte Carlo of a curve draws rows of
``MeasureSpec(p.spectrum, entry_law)``, the covariance of the closed form
beside it, and a discrepancy point reads d from its spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .covariance import Spectrum
from .designs import MeasureSpec, sample_iid
from .linalg import min_norm_stats, projection_complements
from .parallel import block_size, run_block_streams, trial_rng
from .surrogate import (
    RegressionProblem,
    _implicit_mean,
    _mse,
    bias_factors,
    surrogate_params,
    variance_term,
)

__all__ = [
    "DiscrepancyPoint",
    "CurvePoint",
    "mse_trial_samples",
    "discrepancy_point",
    "bootstrap_ci",
    "adaptive_trials",
    "loglog_slope",
    "curve_point",
    "curve_double_descent",
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
    # half the gap between the means of the even and the odd batches, in
    # the units of value: the size of a value that is noise alone
    noise_floor: float
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


def _inverse_wishart_traces(num: int, k: int, df: int, rng) -> np.ndarray:
    """tr(W^{-1}) for each of ``num`` draws W ~ Wishart_k(df, I), df >= k,
    from the bidiagonal chi model of Dumitriu and Edelman (2002): W has the
    eigenvalues of B^T B, B upper bidiagonal with squared diagonal
    a_j^2 ~ chi^2_{df+1-j} and squared superdiagonal b_j^2 ~ chi^2_{k-j},
    j = 1, 2, ..., drawn in that order from ``rng``.

    tr(W^{-1}) = ||B^{-1}||_F^2, and column j of B^{-1} has squared norm
    t_j / a_j^2 with t_1 = 1 and t_j = 1 + t_{j-1} b_{j-1}^2 / a_{j-1}^2: a
    sum of positive terms, computed across the draws one column at a time,
    with no normals and no matrix."""
    a2 = rng.chisquare(np.arange(df, df - k, -1), size=(num, k))
    b2 = rng.chisquare(np.arange(k - 1, 0, -1), size=(num, k - 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.ones(num)
        tr = t / a2[:, 0]
        for j in range(1, k):
            t = 1.0 + t * (b2[:, j - 1] / a2[:, j - 1])
            tr += t / a2[:, j]
    return tr


def mse_trial_samples(p: RegressionProblem, entry_law: str, n: int, trials: int,
                      seed: int, threads: int | None = None) -> np.ndarray:
    """Per-trial Rao-Blackwellized MSE statistics for an i.i.d. design with
    rows of ``MeasureSpec(p.spectrum, entry_law)``:
    sigma^2 tr((X^T X)^+) + ||(I - X^+X) w*||^2, exact over the response
    noise and random only in X, which removes all noise-sampling variance
    from the Monte Carlo.

    For the ``gaussian`` law at n > d a trial draws no design. The residual
    of a full-rank n > d design is 0, and X^T X = Sigma^{1/2} W Sigma^{1/2}
    with W = O Lambda O^T ~ Wishart_d(n, I), O Haar and independent of
    Lambda, so E[tr(Sigma^{-1} W^{-1}) | Lambda] = tr(Sigma^{-1}) tr(W^{-1}) / d.
    A trial returns sigma^2 tr(Sigma^{-1}) tr(W^{-1}) / d, with tr(W^{-1})
    from ``_inverse_wishart_traces``: the same mean at a lower variance, in
    O(d) per trial. Its blocks hold block_size(2 d) trials, and a block
    whose statistics are not all finite raises RuntimeError. Every other
    case draws (count, n, d) designs in blocks of block_size(n d) trials."""
    if trials < 30:
        raise ValueError("need at least 30 trials")
    m = MeasureSpec(p.spectrum, entry_law)
    d = m.dim
    if entry_law == "gaussian" and n > d:
        scale = p.sigma2 * p.spectrum.trace_inverse() / d

        def block(rng, lo, hi):
            vals = scale * _inverse_wishart_traces(hi - lo, d, n, rng)
            if not np.isfinite(vals).all():
                raise RuntimeError(f"non-finite tr(W^-1) in a Wishart_{d}({n}) block")
            return vals

        size = block_size(2 * d)
    else:
        def block(rng, lo, hi):
            tr, resid = min_norm_stats(sample_iid(m, (hi - lo, n), rng), p.w_star)
            return p.sigma2 * tr + resid

        size = block_size(n * d)
    return np.concatenate(run_block_streams(block, trials, seed, size, threads))


# bootstrap indices drawn at once: keeps memory flat at large trial counts
_RESAMPLE_CHUNK = 2**17
# coverage of the percentile bootstrap CIs
CI_LEVEL = 0.95
# bootstrap resamples of a curve point and of a variance discrepancy point
CURVE_RESAMPLES = 2000
VARIANCE_RESAMPLES = 1000
# batches of a discrepancy point, whose means its CI bootstraps, and the
# bootstrap resamples of a bias point
BATCHES = 200
BIAS_RESAMPLES = 500
# statistics, in floats, a discrepancy point computes per engine call (16 MB)
_POINT_CHUNK_FLOATS = 2**21


def bootstrap_ci(samples, resamples: int, rng: np.random.Generator,
                 stat=None) -> tuple[float, float]:
    """Percentile bootstrap CI, at level CI_LEVEL, of the mean of (T,) or
    (T, ...) samples, or of ``stat`` applied to each stack of resampled
    means, which must give one value per resample for (T, ...) samples.

    The index rows come from ``rng`` in chunks of at most
    _RESAMPLE_CHUNK // max(T, sample size) rows, the same stream as one row
    of T indices at a time. Scalar samples gather and average each row,
    the faster kernel for them; other shapes take a chunk's means as one
    product of its resample counts and the flattened samples, which never
    holds a gathered copy of the samples per resample."""
    samples = np.asarray(samples, dtype=float)
    T = samples.shape[0]
    if T < 30:
        raise ValueError("need at least 30 samples to bootstrap")
    flat = samples.reshape(T, -1)
    rows = max(1, _RESAMPLE_CHUNK // max(T, flat.shape[1]))
    values = []
    for start in range(0, resamples, rows):
        idx = rng.integers(T, size=(min(rows, resamples - start), T))
        if samples.ndim == 1:
            means = samples[idx].mean(axis=1)
        else:
            offsets = (idx + T * np.arange(len(idx))[:, None]).ravel()
            counts = np.bincount(offsets, minlength=idx.size).reshape(idx.shape)
            means = (counts @ flat / T).reshape(idx.shape[:1] + samples.shape[1:])
        values.append(means if stat is None else stat(means))
    lo, hi = np.quantile(np.concatenate(values), [(1 - CI_LEVEL) / 2, 1 - (1 - CI_LEVEL) / 2])
    return float(lo), float(hi)


def discrepancy_point(kind: str, s: Spectrum, aspect: float, seed: int,
                      threads: int | None = None):
    """A discrepancy point of a Gaussian i.i.d. design at d = s.dim and
    n = round(aspect d), as the function ``point(trials)`` of the trial count that
    ``adaptive_trials`` takes.

    ``kind`` "variance" is |E[tr((X^T X)^+)] / V(Sigma, n) - 1| and "bias"
    is ||W E[I - X^+X] W - I||, W = B^{-1/2}: the norm of a whitened mean
    less the identity, valued at the mean of all trials. The CI is the
    percentile ``bootstrap_ci`` of that discrepancy over the
    min(trials, BATCHES) batch means, where trial t joins batch t mod
    BATCHES, with VARIANCE_RESAMPLES or BIAS_RESAMPLES resamples. The noise
    floor is half the norm of the whitened gap between the trial means of
    the even and of the odd batches, |A - B| / (2 V) or ||W (A - B) W|| / 2.

    Trial t comes from block t // block_size(n d), drawn once: the point
    keeps per-batch sums and holds a last block's statistics beyond
    ``trials`` for the next call. So a grown point equals one called once
    at its count, and a count below one already used raises.
    """
    d = s.dim
    n = round(aspect * d)
    if not 0 < n < d:
        raise ValueError("aspect must give 0 < n < d")
    if kind == "variance":
        target, shape = variance_term(s, n), ()

        def stats(X):
            return min_norm_stats(X)[0]

        def whiten(mean):
            return mean / target

        resamples, key = VARIANCE_RESAMPLES, 0xB5
    elif kind == "bias":
        white, shape = 1.0 / np.sqrt(bias_factors(s, n)), (d, d)
        stats = projection_complements

        def whiten(mean):
            return white[:, None] * mean * white[None, :]

        resamples, key = BIAS_RESAMPLES, 0xB6
    else:
        raise ValueError(f"unknown discrepancy kind {kind!r}")

    def norm(x):  # |x|, or the spectral norm of each matrix of a stack
        return np.linalg.norm(x, ord=2, axis=(-2, -1)) if shape else np.abs(x)

    def discrepancy(mean):
        return norm(whiten(mean) - (np.eye(d) if shape else 1.0))

    m = MeasureSpec(s, "gaussian")
    size = block_size(n * d)
    # blocks per engine call: bounds the statistics held at once
    chunk = size * max(1, _POINT_CHUNK_FLOATS // (size * math.prod(shape)))
    sums = np.zeros((BATCHES, *shape))
    used = 0
    held = np.empty((0, *shape))  # computed statistics of trials used, used + 1, ...

    def block(rng, lo, hi):
        return stats(sample_iid(m, (hi - lo, n), rng))

    def point(trials: int) -> DiscrepancyPoint:
        nonlocal used, held
        if trials < used:
            raise ValueError(f"trial count {trials} is below the {used} already used")
        while used < trials:
            if not len(held):  # used is a block boundary
                end = min(used + chunk, -(-trials // size) * size)
                held = np.concatenate(run_block_streams(block, end, seed, size, threads,
                                                        start=used))
            # trial t joins batch t mod BATCHES; each sum adds in index order
            b = used % BATCHES
            k = min(BATCHES - b, trials - used, len(held))
            sums[b:b + k] += held[:k]
            held, used = held[k:], used + k
        batches = min(trials, BATCHES)
        counts = trials // BATCHES + (np.arange(batches) < trials % BATCHES)
        value = float(discrepancy(sums.sum(axis=0) / trials))
        lo, hi = bootstrap_ci(sums[:batches] / counts.reshape((batches,) + (1,) * len(shape)),
                              resamples, trial_rng(seed, key), discrepancy)
        even = sums[:batches:2].sum(axis=0) / counts[::2].sum()
        odd = sums[1:batches:2].sum(axis=0) / counts[1::2].sum()
        return DiscrepancyPoint(d=d, n=n, aspect=aspect, kind=kind, value=value,
                                ci_low=lo, ci_high=hi, trials_used=trials,
                                noise_floor=float(norm(whiten(even - odd)) / 2.0))

    return point


def adaptive_trials(point_fn, target_rel_halfwidth: float = 0.125, cap: int = 100_000,
                    start: int = 100) -> DiscrepancyPoint:
    """Double the trial count until the bootstrap CI half-width is within
    the target fraction of the value; a point that hits the cap first is
    flagged rather than failed.

    ``point_fn(trials)`` is called with each trial count in turn, and the
    counts only grow; a ``discrepancy_point`` computes each trial once
    across the doublings. The target must be positive, and the start and
    the cap at least the bootstrap's 30 samples."""
    if not target_rel_halfwidth > 0:
        raise ValueError(f"the target half-width must be positive, got {target_rel_halfwidth!r}")
    if cap < 30 or start < 30:
        raise ValueError(f"the start and the trial cap must be at least 30, got {start} and {cap}")
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


def curve_point(p: RegressionProblem, n: int, vals=None, seed: int = 0) -> CurvePoint:
    """Closed-form curve point at n; the Monte Carlo columns are filled from
    per-trial MSE statistics ``vals`` (bootstrap CI on the stream keyed
    (seed, 0xB5)) when given and left empty otherwise."""
    s = p.spectrum
    sp = surrogate_params(s, n)
    mse_mc = mse_mc_se = ci_low = ci_high = None
    if vals is not None:
        mse_mc = float(np.mean(vals))
        mse_mc_se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        ci_low, ci_high = bootstrap_ci(vals, CURVE_RESAMPLES, trial_rng(seed, 0xB5))
    return CurvePoint(n=n, d=s.dim, mse_surrogate=_mse(p, sp), mse_mc=mse_mc,
                      mse_mc_se=mse_mc_se, ci_low=ci_low, ci_high=ci_high,
                      lambda_n=sp.lambda_n, alpha_or_beta=sp.alpha_n if n < s.dim else sp.beta_n,
                      norm_implicit_mean=float(np.linalg.norm(_implicit_mean(p, sp))))


def curve_double_descent(p: RegressionProblem, entry_law: str, n_values, trials: int | None,
                         seed: int, threads: int | None = None) -> list[CurvePoint]:
    """Surrogate MSE curve over sample sizes with, unless ``trials`` is None,
    i.i.d.-design Monte Carlo estimates of ``entry_law`` rows and bootstrap
    CIs."""
    MeasureSpec(p.spectrum, entry_law)  # an unknown law raises, with or without trials
    points = []
    for i, n in enumerate(n_values):
        n, point_seed = int(n), seed + 1000 * i
        vals = (None if trials is None
                else mse_trial_samples(p, entry_law, n, trials, point_seed, threads))
        points.append(curve_point(p, n, vals, point_seed))
    return points
