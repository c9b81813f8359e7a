import math
from dataclasses import replace

import numpy as np
import pytest

from ddlab.covariance import Spectrum
from ddlab.designs import MeasureSpec
from ddlab.parallel import trial_rng
from ddlab.experiments import (
    DiscrepancyPoint,
    adaptive_trials,
    bias_discrepancy,
    bootstrap_ci,
    bootstrap_opnorm_ci,
    curve_dimension_sweep,
    curve_double_descent,
    loglog_slope,
    mse_monte_carlo_iid,
    mse_trial_samples,
    variance_discrepancy,
)
from ddlab.surrogate import RegressionProblem, surrogate_mse, variance_term


def iso_problem(d, sigma2=1.0):
    return RegressionProblem(Spectrum(np.ones(d)), np.full(d, 1 / math.sqrt(d)), sigma2)


class TestMseMonteCarlo:
    def test_noiseless_overdetermined_zero(self):
        p = iso_problem(3, sigma2=0.0)
        m = MeasureSpec(p.spectrum)
        est = mse_monte_carlo_iid(p, m, 10, 50, 1)
        assert float(est.mean) == pytest.approx(0.0, abs=1e-12)

    def test_matches_surrogate_at_d100(self):
        p = iso_problem(100)
        m = MeasureSpec(p.spectrum)
        est = mse_monte_carlo_iid(p, m, 50, 1000, 2)
        target = surrogate_mse(p, 50)
        assert abs(float(est.mean) - target) < max(3 * float(est.std_error), 0.05 * target)

    def test_peak_completes_with_finite_mean(self):
        p = iso_problem(20)
        m = MeasureSpec(p.spectrum)
        est = mse_monte_carlo_iid(p, m, 20, 100, 3)
        assert np.isfinite(float(est.mean))
        assert float(est.std_error) > 0

    def test_too_few_trials(self):
        p = iso_problem(4)
        with pytest.raises(ValueError):
            mse_trial_samples(p, MeasureSpec(p.spectrum), 2, 10, 1)


# the percentile levels of a 95 % interval, computed as bootstrap_ci does
LEVELS = [(1 - 0.95) / 2, 1 - (1 - 0.95) / 2]


class TestBootstrap:
    def test_constant_samples_degenerate(self):
        lo, hi = bootstrap_ci(np.full(100, 2.5))
        assert lo == hi == 2.5

    def test_opnorm_fixed_matrices_degenerate(self):
        M = np.diag([3.0, 1.0])
        lo, hi = bootstrap_opnorm_ci(np.stack([M] * 50))
        assert lo == pytest.approx(3.0)
        assert hi == pytest.approx(3.0)

    def test_coverage(self):
        # CI for the mean of standard Gaussians should cover 0 about 95% of the time
        hits = 0
        reps = 200
        for r in range(reps):
            samples = np.random.default_rng(r).standard_normal(400)
            lo, hi = bootstrap_ci(samples, resamples=400, seed=r)
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
            assert bootstrap_ci(samples, seed=4, stat=f) == expected

    @pytest.mark.parametrize("T,d", [(50, 3), (200, 8)])
    def test_opnorm_matches_reference_loop(self, T, d):
        stack = np.random.default_rng(d).standard_normal((T, d, d))
        white = np.linspace(0.5, 2.0, d)
        transform = lambda M: white[:, None] * M * white[None, :] - np.eye(d)
        rng = trial_rng(6, 0xB6)
        norms = [np.linalg.norm(transform(np.mean(stack[rng.integers(T, size=T)], axis=0)), ord=2)
                 for _ in range(300)]
        expected = np.quantile(norms, LEVELS)
        got = bootstrap_opnorm_ci(stack, 300, seed=6, transform=transform)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones(10))
        with pytest.raises(ValueError):
            bootstrap_opnorm_ci(np.ones((5, 2, 2)))


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
        point = variance_discrepancy(s, d, 0.5, 20_000, 7)
        exact = abs((n / (d - n - 1)) / variance_term(s, n) - 1.0)
        assert point.ci_low <= exact <= point.ci_high or abs(point.value - exact) < 0.02
        assert point.ci_low <= point.value <= point.ci_high

    def test_variance_invalid_aspect(self):
        s = Spectrum(np.ones(10))
        with pytest.raises(ValueError):
            variance_discrepancy(s, 10, 1.0, 1000, 1)

    def test_bias_positive_finite_small_d(self):
        s = Spectrum(np.array([1.0, 2.0]))
        point = bias_discrepancy(s, 2, 0.5, 40_000, 8)
        assert np.isfinite(point.value) and point.value > 0
        assert point.ci_low <= point.value <= point.ci_high

    def test_bias_dim_mismatch(self):
        with pytest.raises(ValueError):
            bias_discrepancy(Spectrum(np.ones(3)), 4, 0.5, 1000, 1)


class TestThreadInvariance:
    # block boundaries do not depend on the worker count, so results are byte-identical
    def test_mse_trial_samples(self):
        p = RegressionProblem(Spectrum(np.linspace(0.5, 2.0, 12)), np.ones(12), 0.5)
        m = MeasureSpec(p.spectrum, "rademacher")
        for n in (4, 12, 30):
            a = mse_trial_samples(p, m, n, 300, 3, threads=1)
            b = mse_trial_samples(p, m, n, 300, 3, threads=3)
            assert a.tobytes() == b.tobytes()

    def test_variance_discrepancy(self):
        s = Spectrum(np.linspace(0.5, 2.0, 16))
        assert variance_discrepancy(s, 16, 0.5, 2000, 4, threads=1) == \
            variance_discrepancy(s, 16, 0.5, 2000, 4, threads=3)

    def test_bias_discrepancy(self):
        s = Spectrum(np.linspace(0.5, 2.0, 16))
        assert bias_discrepancy(s, 16, 0.5, 3000, 5, threads=1) == \
            bias_discrepancy(s, 16, 0.5, 3000, 5, threads=3)


class TestAdaptiveTrials:
    @staticmethod
    def _fake_point(value, half, trials):
        return DiscrepancyPoint(d=10, n=5, aspect=0.5, kind="variance", value=value,
                                ci_low=value - half, ci_high=value + half, trials_used=trials)

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

    def test_variance_d20_terminates_quickly(self):
        s = Spectrum(np.ones(20))
        fn = lambda t: variance_discrepancy(s, 20, 0.5, t, 9)
        point = adaptive_trials(fn, cap=10_000)
        assert point.trials_used <= 10_000
        assert not point.flagged


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

    def test_too_few_points(self):
        pts = [TestAdaptiveTrials._fake_point(1.0, 0.0, 1)] * 2
        with pytest.raises(ValueError):
            loglog_slope(pts)


class TestCurves:
    def test_formula_only_sweep(self):
        p = iso_problem(10)
        m = MeasureSpec(p.spectrum)
        points = curve_double_descent(p, m, range(1, 21), 0, 1, with_mc=False)
        assert len(points) == 20
        peak = max(points, key=lambda pt: pt.mse_surrogate)
        assert peak.n == 10
        for pt in points:
            assert pt.mse_mc is None
            if pt.n < 10:  # isotropic implicit-mean linearity
                assert pt.norm_implicit_mean == pytest.approx(pt.n / 10, abs=1e-10)

    def test_mc_columns_filled(self):
        p = iso_problem(6)
        m = MeasureSpec(p.spectrum)
        points = curve_double_descent(p, m, [2, 3], 60, 5)
        for pt in points:
            assert pt.mse_mc is not None and pt.ci_low <= pt.mse_mc <= pt.ci_high

    def test_dimension_sweep_peaks_at_n(self):
        n = 12

        def make_problem(d):
            w = np.full(d, 1 / math.sqrt(d))
            return RegressionProblem(Spectrum(np.ones(d)), w, 1.0), n

        points = curve_dimension_sweep(make_problem, range(4, 25))
        peak = max(points, key=lambda pt: pt.mse_surrogate)
        assert peak.d == n
