import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from ddlab import experiments, parallel
from ddlab.covariance import Spectrum, make_profile, scale_trace_inverse
from ddlab.designs import MeasureSpec, sample_iid
from ddlab.linalg import min_norm_stats, projection_complement, pseudo_inverse
from ddlab.parallel import BLOCK_KEY, block_size, trial_rng
from ddlab.experiments import (
    DiscrepancyPoint,
    adaptive_trials,
    bootstrap_ci,
    curve_double_descent,
    curve_point,
    discrepancy_point,
    loglog_slope,
    mse_trial_samples,
)
from ddlab.surrogate import RegressionProblem, bias_factors, surrogate_mse, variance_term


def iso_problem(d, sigma2=1.0):
    return RegressionProblem(Spectrum(np.ones(d)), np.full(d, 1 / math.sqrt(d)), sigma2)


def record_stream_keys(monkeypatch, *modules):
    """List that collects the (seed, index) of every trial_rng call made
    through the given modules."""
    keys = []

    def recording(seed, index):
        keys.append((seed, index))
        return trial_rng(seed, index)

    for mod in modules:
        monkeypatch.setattr(mod, "trial_rng", recording)
    return keys


def mean_and_se(vals):
    """Mean and standard error of per-trial statistics, as ``curve_point`` takes them."""
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


class TestMseMonteCarlo:
    def test_noiseless_overdetermined_zero(self):
        p = iso_problem(3, sigma2=0.0)
        mean, _ = mean_and_se(mse_trial_samples(p, "gaussian", 10, 50, 1))
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_matches_surrogate_at_d100(self):
        p = iso_problem(100)
        mean, se = mean_and_se(mse_trial_samples(p, "gaussian", 50, 1000, 2))
        target = surrogate_mse(p, 50)
        assert abs(mean - target) < max(3 * se, 0.05 * target)

    def test_peak_completes_with_finite_mean(self):
        p = iso_problem(20)
        mean, se = mean_and_se(mse_trial_samples(p, "gaussian", 20, 100, 3))
        assert np.isfinite(mean)
        assert se > 0

    def test_too_few_trials(self):
        p = iso_problem(4)
        with pytest.raises(ValueError):
            mse_trial_samples(p, "gaussian", 2, 10, 1)

    @pytest.mark.parametrize("law,n,trials", [
        pytest.param(law, 4, 700, id=law) for law in ("gaussian", "rademacher", "uniform_pm_sqrt3")
    ] + [
        # n > d: the non-Gaussian laws keep drawing whole designs
        pytest.param(law, 20, 200, id=f"{law}-tall") for law in ("rademacher", "uniform_pm_sqrt3")
    ])
    def test_matches_block_stream_reference(self, law, n, trials):
        # the trials of n x 12 designs cross one block boundary (682 trials
        # at n=4, 136 at n=20); block b's designs are consecutive runs of n
        # rows of one draw from stream (seed, 2^63 | b), each design's
        # statistic computed alone
        p = RegressionProblem(Spectrum(np.linspace(0.5, 2.0, 12)), np.linspace(-1, 1, 12), 0.5)
        m = MeasureSpec(p.spectrum, law)
        seed = 21
        size = block_size(n * 12)
        assert size < trials < 2 * size
        ref = []
        for lo in range(0, trials, size):
            count = min(size, trials - lo)
            rows = sample_iid(m, count * n, trial_rng(seed, BLOCK_KEY | lo // size))
            for j in range(count):
                tr, resid = min_norm_stats(rows[None, j * n:(j + 1) * n], p.w_star)
                ref.append(p.sigma2 * tr[0] + resid[0])
        got = mse_trial_samples(p, law, n, trials, seed, threads=3)
        assert got.tobytes() == np.array(ref).tobytes()

    def test_gaussian_tall_matches_bidiagonal_stream_reference(self):
        # Gaussian n > d draws no design: block b draws its trials'
        # bidiagonal chi factors B from stream (seed, 2^63 | b), the squared
        # diagonal chi^2_{n}, ..., chi^2_{n-d+1} first, then the squared
        # superdiagonal chi^2_{d-1}, ..., chi^2_1; a trial's statistic is
        # sigma^2 tr(Sigma^{-1}) ||B^{-1}||_F^2 / d, summed column by column.
        # 2000 trials cross the 1365-trial block boundary of d = 12
        d, n, trials, seed = 12, 20, 2000, 23
        tau = np.linspace(0.5, 2.0, d)
        p = RegressionProblem(Spectrum(tau), np.linspace(-1, 1, d), 0.5)
        scale = p.sigma2 * p.spectrum.trace_inverse() / d
        size = block_size(2 * d)
        assert size < trials < 2 * size
        ref, plain = [], []
        for lo in range(0, trials, size):
            count = min(size, trials - lo)
            rng = trial_rng(seed, BLOCK_KEY | lo // size)
            a2 = rng.chisquare(np.arange(n, n - d, -1), size=(count, d))
            b2 = rng.chisquare(np.arange(d - 1, 0, -1), size=(count, d - 1))
            for a, b in zip(a2, b2):
                t, tr = 1.0, 1.0 / a[0]
                for j in range(1, d):
                    t = 1.0 + t * (b[j - 1] / a[j - 1])
                    tr += t / a[j]
                ref.append(scale * tr)
                B = np.diag(np.sqrt(a)) + np.diag(np.sqrt(b), 1)
                plain.append(scale * np.sum(np.linalg.inv(B) ** 2))
        got = mse_trial_samples(p, "gaussian", n, trials, seed, threads=3)
        assert got.tobytes() == np.array(ref).tobytes()
        np.testing.assert_allclose(got, plain, rtol=1e-12)

    def test_gaussian_tall_trace_law_matches_explicit_designs(self):
        # on the identity a trial is tr((X^T X)^{-1}) itself: its law at
        # d = 12, n = 16 against that of explicit 16 x 12 Gaussian designs.
        # Either chi sequence of the bidiagonal model drawn in reverse
        # order gives p = 0 at this size
        d, n, trials = 12, 16, 20_000
        got = mse_trial_samples(iso_problem(d), "gaussian", n, trials, 24)
        Z = trial_rng(24, 1).standard_normal((trials, n, d))
        ref = np.trace(np.linalg.inv(np.swapaxes(Z, 1, 2) @ Z), axis1=1, axis2=2)
        assert stats.ks_2samp(got, ref).pvalue > 1e-3

    @pytest.mark.parametrize("n", [110, 150, 200])
    def test_gaussian_tall_mean_at_figure_scale(self, n):
        # the exact i.i.d. MSE sigma^2 tr(Sigma^{-1}) / (n - d - 1) at the
        # figures' d = 100, away from the threshold (the statistic has
        # finite variance for n - d >= 4)
        d = 100
        s = scale_trace_inverse(make_profile("diag_exp", d, 1.0, 1e-4), float(d))
        p = RegressionProblem(s, np.full(d, 1 / math.sqrt(d)), 1.0)
        mean, se = mean_and_se(mse_trial_samples(p, "gaussian", n, 20_000, 33 + n))
        assert abs(mean - s.trace_inverse() / (n - d - 1)) < 4 * se

    def test_gaussian_tall_non_finite_trace_raises(self, monkeypatch):
        # chi-squares of 0 (a broken generator) give tr(W^-1) = inf: the
        # block fails loudly instead of returning it
        broken = SimpleNamespace(chisquare=lambda df, size: np.zeros(size))
        monkeypatch.setattr(parallel, "trial_rng", lambda seed, index: broken)
        with pytest.raises(RuntimeError, match="non-finite"):
            mse_trial_samples(iso_problem(4), "gaussian", 8, 40, 1)

    @pytest.mark.parametrize("d,n,seed", [(10, 16, 31), (40, 50, 32)])
    def test_gaussian_tall_mean_matches_inverse_wishart(self, d, n, seed):
        # E tr((X^T X)^{-1}) = tr(Sigma^{-1}) / (n - d - 1) for Gaussian rows
        s = make_profile("diag_exp", d, 1.0, 1e-2)
        p = RegressionProblem(s, np.full(d, 1 / math.sqrt(d)), 1.0)
        mean, se = mean_and_se(mse_trial_samples(p, "gaussian", n, 4000, seed))
        exact = s.trace_inverse() / (n - d - 1)
        assert abs(mean - exact) < 4 * se


# the percentile levels of a 95 % interval, computed as bootstrap_ci does
LEVELS = [(1 - 0.95) / 2, 1 - (1 - 0.95) / 2]


def opnorm(means):
    return np.linalg.norm(means, ord=2, axis=(-2, -1))


class TestBootstrap:
    def test_constant_samples_degenerate(self):
        lo, hi = bootstrap_ci(np.full(100, 2.5), 2000, trial_rng(0, 0xB5))
        assert lo == hi == 2.5

    def test_opnorm_fixed_matrices_degenerate(self):
        M = np.diag([3.0, 1.0])
        lo, hi = bootstrap_ci(np.stack([M] * 50), 2000, trial_rng(0, 0xB6), opnorm)
        assert lo == pytest.approx(3.0)
        assert hi == pytest.approx(3.0)

    def test_coverage(self):
        # CI for the mean of standard Gaussians should cover 0 about 95% of the time
        hits = 0
        reps = 200
        for r in range(reps):
            samples = np.random.default_rng(r).standard_normal(400)
            lo, hi = bootstrap_ci(samples, 400, trial_rng(r, 0xB5))
            hits += lo <= 0.0 <= hi
        assert 0.90 <= hits / reps <= 0.99

    @pytest.mark.parametrize("T", [50, 51, 1000])
    def test_ci_equals_reference_loop(self, T):
        samples = np.random.default_rng(T).standard_normal(T) ** 2
        stat = lambda mu: np.abs(mu / 1.5 - 1.0)
        rng = trial_rng(4, 0xB5)
        means = np.array([np.mean(samples[rng.integers(T, size=T)]) for _ in range(2000)])
        for f, ref in ((None, means), (stat, np.array([stat(v) for v in means]))):
            expected = tuple(float(q) for q in np.quantile(ref, LEVELS))
            assert bootstrap_ci(samples, 2000, trial_rng(4, 0xB5), f) == expected

    @pytest.mark.parametrize("T,d", [(50, 3), (200, 8)])
    def test_opnorm_matches_reference_loop(self, T, d):
        stack = np.random.default_rng(d).standard_normal((T, d, d))
        white = np.linspace(0.5, 2.0, d)
        transform = lambda M: white[:, None] * M * white[None, :] - np.eye(d)
        rng = trial_rng(6, 0xB6)
        norms = [np.linalg.norm(transform(np.mean(stack[rng.integers(T, size=T)], axis=0)), ord=2)
                 for _ in range(300)]
        expected = np.quantile(norms, LEVELS)
        got = bootstrap_ci(stack, 300, trial_rng(6, 0xB6), lambda M: opnorm(transform(M)))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("T", [50, 1000])
    def test_gather_kernel_matches_product_kernel(self, T):
        # scalar samples gather and average; the same samples as (T, 1, 1)
        # matrices take the counts-by-samples product, on the same stream
        samples = np.random.default_rng(T).standard_normal(T)
        stat = lambda mu: np.abs(mu / 0.5 - 1.0)
        gather = bootstrap_ci(samples, 700, trial_rng(5, 0xB5), stat)
        product = bootstrap_ci(samples.reshape(T, 1, 1), 700, trial_rng(5, 0xB5),
                               lambda M: stat(M[:, 0, 0]))
        np.testing.assert_allclose(gather, product, rtol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones(10), 2000, trial_rng(0, 0xB5))
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones((5, 2, 2)), 2000, trial_rng(0, 0xB6), opnorm)


class TestDiscrepancies:
    def test_variance_synthetic_zero(self):
        # feeding the exact closed form through the discrepancy map gives 0
        s = Spectrum(np.ones(10))
        target = variance_term(s, 5)
        assert abs(target / target - 1.0) == 0.0

    def test_variance_isotropic_matches_exact_ratio(self):
        # for Gaussian iid designs E[tr((X^T X)^+)] = n/(d-n-1) exactly, so
        # the discrepancy converges to |(d/n-1)/(1-alpha) * n/(d-n-1) - 1|
        d, n = 10, 5
        s = Spectrum(np.ones(d))
        point = discrepancy_point("variance", s, 0.5, 7)(20_000)
        exact = abs((n / (d - n - 1)) / variance_term(s, n) - 1.0)
        assert point.ci_low <= exact <= point.ci_high or abs(point.value - exact) < 0.02
        assert point.ci_low <= point.value <= point.ci_high

    def test_variance_invalid_aspect(self):
        s = Spectrum(np.ones(10))
        with pytest.raises(ValueError):
            discrepancy_point("variance", s, 1.0, 1)

    def test_bias_positive_finite_small_d(self):
        s = Spectrum(np.array([1.0, 2.0]))
        point = discrepancy_point("bias", s, 0.5, 8)(40_000)
        assert np.isfinite(point.value) and point.value > 0
        assert point.ci_low <= point.value <= point.ci_high

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            discrepancy_point("skew", Spectrum(np.ones(4)), 0.5, 1)


class TestThreadInvariance:
    # block boundaries do not depend on the worker count, so results are byte-identical
    def test_mse_trial_samples(self):
        p = RegressionProblem(Spectrum(np.linspace(0.5, 2.0, 12)), np.ones(12), 0.5)
        for n in (4, 12, 30):
            a = mse_trial_samples(p, "rademacher", n, 300, 3, threads=1)
            b = mse_trial_samples(p, "rademacher", n, 300, 3, threads=3)
            assert a.tobytes() == b.tobytes()

    def test_variance_discrepancy(self):
        s = Spectrum(np.linspace(0.5, 2.0, 16))
        assert discrepancy_point("variance", s, 0.5, 4, threads=1)(2000) == \
            discrepancy_point("variance", s, 0.5, 4, threads=3)(2000)

    def test_bias_discrepancy(self):
        s = Spectrum(np.linspace(0.5, 2.0, 16))
        assert discrepancy_point("bias", s, 0.5, 5, threads=1)(3000) == \
            discrepancy_point("bias", s, 0.5, 5, threads=3)(3000)


class TestAdaptiveTrials:
    @staticmethod
    def _fake_point(value, half, trials):
        return DiscrepancyPoint(d=10, n=5, aspect=0.5, kind="variance", value=value,
                                ci_low=value - half, ci_high=value + half, trials_used=trials,
                                noise_floor=0.0)

    def test_zero_variance_stops_immediately(self):
        calls = []

        def fn(t):
            calls.append(t)
            return self._fake_point(1.0, 0.0, t)

        point = adaptive_trials(fn, cap=10_000, start=100)
        assert calls == [100]
        assert not point.flagged

    def test_doubles_until_target(self):
        def fn(t):
            return self._fake_point(1.0, 40.0 / t, t)

        point = adaptive_trials(fn, target_rel_halfwidth=0.125, cap=10_000, start=100)
        assert point.trials_used == 400
        assert not point.flagged

    def test_cap_flags(self):
        point = adaptive_trials(lambda t: self._fake_point(1.0, 10.0, t), cap=100, start=100)
        assert point.flagged

    @pytest.mark.parametrize("target", [0.0, -1.0, float("nan")])
    def test_nonpositive_target_rejected(self, target):
        # a NaN or non-positive target would run every point to the cap; it
        # is rejected before any trial
        calls = []
        with pytest.raises(ValueError):
            adaptive_trials(lambda t: calls.append(t), target, cap=10_000, start=100)
        assert calls == []

    @pytest.mark.parametrize("cap,start", [(0, 100), (1, 100), (29, 100), (100, 10)],
                             ids=["0", "1", "29", "start10"])
    def test_cap_below_bootstrap_floor_rejected(self, cap, start):
        # a cap or a start under the bootstrap's 30 samples used to compute
        # its trials first (a divide by zero at cap 0, a failing bootstrap at
        # start 10); it is rejected before any trial
        calls = []
        with pytest.raises(ValueError, match="at least 30"):
            adaptive_trials(lambda t: calls.append(t), cap=cap, start=start)
        assert calls == []

    def test_variance_d20_terminates_quickly(self):
        s = Spectrum(np.ones(20))
        point = adaptive_trials(discrepancy_point("variance", s, 0.5, 9), cap=10_000)
        assert point.trials_used <= 10_000
        assert not point.flagged


class _PointCases:
    """Cases of a discrepancy point of kind KIND on diag_exp at d = 10, seed
    4, which reaches the CI target at TRIALS trials: doublings from 100
    across the 655-trial blocks of n = 5 designs."""
    S = make_profile("diag_exp", 10)
    KIND = TRIALS = None

    def point(self, threads=None):
        return discrepancy_point(self.KIND, self.S, 0.5, 4, threads)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("cap,flagged", [(100_000, False), (1000, True)])
    def test_matches_recomputed_point(self, threads, cap, flagged):
        # one point grown through the doublings against a fresh point per count
        point = adaptive_trials(self.point(threads), cap=cap)
        ref = adaptive_trials(lambda t: self.point(threads)(t), cap=cap)
        assert point == ref
        assert point.flagged == flagged
        assert point.trials_used == min(cap, self.TRIALS)

    def test_computes_each_trial_once(self, monkeypatch):
        # whole blocks of 655 trials, each drawn once across the doublings
        keys = record_stream_keys(monkeypatch, parallel)
        point = adaptive_trials(self.point(), cap=100_000)
        assert point.trials_used == self.TRIALS
        assert keys == [(4, BLOCK_KEY | b) for b in range(-(-self.TRIALS // 655))]

    def test_grown_through_any_counts_equals_fresh(self):
        # counts off the batch and block boundaries, one of them repeated
        point = self.point()
        for t in (150, 333, 333, 1000):
            point(t)
        assert point(2001) == self.point()(2001)

    def test_smaller_count_raises(self):
        point = self.point()
        point(500)
        with pytest.raises(ValueError):
            point(499)

    def test_noise_floor_matches_recomputation(self):
        # trial t joins batch t mod 200, so the even batches hold the even
        # trials; each design's statistic is recomputed alone through the SVD
        trials, size, n = 1000, 655, 5
        stats = []
        for lo in range(0, trials, size):
            count = min(size, trials - lo)
            rows = sample_iid(MeasureSpec(self.S), count * n, trial_rng(4, BLOCK_KEY | lo // size))
            for j in range(count):
                X = rows[j * n:(j + 1) * n]
                stats.append(np.sum(pseudo_inverse(X) ** 2) if self.KIND == "variance"
                             else projection_complement(X))
        gap = np.mean(stats[::2], axis=0) - np.mean(stats[1::2], axis=0)
        if self.KIND == "variance":
            expected = abs(gap) / (2 * variance_term(self.S, n))
        else:
            white = 1 / np.sqrt(bias_factors(self.S, n))
            expected = np.linalg.norm(white[:, None] * gap * white[None, :], ord=2) / 2
        point = self.point()(trials)
        assert point.noise_floor == pytest.approx(expected, rel=1e-9)
        assert 0 < point.noise_floor < point.value


class TestVariancePoint(_PointCases):
    KIND, TRIALS = "variance", 3200


class TestBiasPoint(_PointCases):
    KIND, TRIALS = "bias", 12800


class TestLoglogSlope:
    def test_exact_inverse_d(self):
        pts = [replace(TestAdaptiveTrials._fake_point(1.0 / d, 0.0, 1), d=d)
               for d in (10, 20, 40, 80)]
        slope, _, r2 = loglog_slope(pts)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_exact_inverse_d_squared(self):
        pts = [replace(TestAdaptiveTrials._fake_point(1.0 / d**2, 0.0, 1), d=d)
               for d in (10, 20, 40)]
        slope, _, _ = loglog_slope(pts)
        assert slope == pytest.approx(-2.0, abs=1e-12)

    def test_nonpositive_excluded_with_warning(self):
        pts = [replace(TestAdaptiveTrials._fake_point(v, 0.0, 1), d=d)
               for d, v in ((10, 0.1), (20, 0.05), (40, 0.025), (80, 0.0))]
        with pytest.warns(UserWarning):
            slope, _, _ = loglog_slope(pts)
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_generator_is_read_once(self):
        # the points of a generator are read in one pass, so the dropped
        # point still warns
        pts = (replace(TestAdaptiveTrials._fake_point(v, 0.0, 1), d=d)
               for d, v in ((10, 0.1), (20, 0.05), (40, 0.025), (80, 0.0)))
        with pytest.warns(UserWarning):
            slope, _, _ = loglog_slope(pts)
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_points(self):
        pts = [TestAdaptiveTrials._fake_point(1.0, 0.0, 1)] * 2
        with pytest.raises(ValueError):
            loglog_slope(pts)


class TestCurves:
    def test_formula_only_sweep(self):
        p = iso_problem(10)
        points = curve_double_descent(p, "gaussian", range(1, 21), None, 1)
        assert len(points) == 20
        peak = max(points, key=lambda pt: pt.mse_surrogate)
        assert peak.n == 10
        for pt in points:
            assert pt.mse_mc is None
            if pt.n < 10:  # isotropic implicit-mean linearity
                assert pt.norm_implicit_mean == pytest.approx(pt.n / 10, abs=1e-10)

    def test_mc_columns_filled(self):
        p = iso_problem(6)
        points = curve_double_descent(p, "gaussian", [2, 3], 60, 5)
        for pt in points:
            assert pt.mse_mc is not None and pt.ci_low <= pt.mse_mc <= pt.ci_high

    def test_bootstrap_streams_apart_from_block_streams(self, monkeypatch):
        # the point's 2000 trials (Gaussian n=30 > d=20, so bidiagonal chi
        # factors) run in 3 blocks of 819; its bootstrap keys (seed, 0xB5)
        # and (seed, 0xB6) must name streams none of them uses
        keys = record_stream_keys(monkeypatch, parallel, experiments)
        p = iso_problem(20)
        curve_double_descent(p, "gaussian", [30], 2000, 9)
        blocks = [k for k in keys if k[1] & BLOCK_KEY]
        assert block_size(2 * 20) == 819
        assert blocks == [(9, BLOCK_KEY | b) for b in range(3)]
        assert (9, 0xB5) in keys
        first = lambda key: trial_rng(*key).integers(2**63, size=4).tolist()
        block_draws = [first(k) for k in blocks]
        for boot in ((9, 0xB5), (9, 0xB6)):
            assert boot not in blocks and first(boot) not in block_draws

    def test_dimension_sweep_peaks_at_n(self):
        n = 12
        points = [curve_point(iso_problem(d), n) for d in range(4, 25)]
        peak = max(points, key=lambda pt: pt.mse_surrogate)
        assert peak.d == n
