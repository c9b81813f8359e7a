import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab.covariance import Spectrum, make_profile
from ddlab.errors import UnsupportedMeasureError
from ddlab.surrogate import (
    RegressionProblem,
    _log_esp,
    bias_factors,
    effective_dimension,
    implicit_reg_mean,
    solve_lambda,
    surrogate_mse,
    surrogate_params,
    surrogate_size_pmf,
    variance_term,
)


def random_spectrum(seed, d=8):
    return Spectrum(np.random.default_rng(seed).uniform(0.05, 5.0, size=d))


class TestSolveLambda:
    def test_isotropic_closed_form(self):
        s = Spectrum(np.ones(100))
        assert solve_lambda(s, 50) == pytest.approx(1.0, abs=1e-10)

    def test_hand_solved_quadratic(self):
        # d=2, eigenvalues (1, 2), n=1: lambda = sqrt(2)
        s = Spectrum(np.array([1.0, 2.0]))
        assert solve_lambda(s, 1) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_domain(self):
        s = Spectrum(np.ones(5))
        with pytest.raises(ValueError):
            solve_lambda(s, 5)
        with pytest.raises(ValueError):
            solve_lambda(s, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
    def test_residual_self_check(self, seed, frac):
        s = random_spectrum(seed)
        n = frac * s.dim
        lam = solve_lambda(s, n)
        assert effective_dimension(s, lam) == pytest.approx(n, abs=1e-10 * n)


class TestSurrogateParams:
    def test_isotropic_under(self):
        p = surrogate_params(Spectrum(np.ones(100)), 50)
        assert p.gamma_n == pytest.approx(1.0, abs=1e-10)
        assert p.lambda_n == pytest.approx(1.0, abs=1e-10)
        assert p.log_alpha_n == pytest.approx(100 * math.log(0.5), rel=1e-10)
        assert p.beta_n == 1.0

    def test_boundary(self):
        p = surrogate_params(Spectrum(np.ones(100)), 100)
        assert p.lambda_n == 0.0 and p.alpha_n == 1.0 and p.gamma_n == 0.0

    def test_over(self):
        p = surrogate_params(Spectrum(np.ones(100)), 101)
        assert p.gamma_n == 1.0
        assert p.beta_n == pytest.approx(math.exp(-1.0))

    def test_n_below_one(self):
        with pytest.raises(ValueError):
            surrogate_params(Spectrum(np.ones(3)), 0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    def test_under_invariants(self, seed, n):
        s = random_spectrum(seed)
        p = surrogate_params(s, n)
        assert p.lambda_n * p.gamma_n == pytest.approx(1.0, rel=1e-10)
        t = s.eigenvalues
        assert p.log_alpha_n == pytest.approx(float(np.sum(np.log(t / (t + p.lambda_n)))), rel=1e-10)


class TestSurrogateMse:
    def test_peak_value(self):
        p = RegressionProblem(Spectrum(np.ones(100)), np.full(100, 0.1), 1.0)
        assert surrogate_mse(p, 100) == pytest.approx(100.0)

    def test_just_over(self):
        p = RegressionProblem(Spectrum(np.ones(100)), np.full(100, 0.1), 1.0)
        assert surrogate_mse(p, 101) == pytest.approx(100.0 * (1.0 - math.exp(-1.0)), rel=1e-12)

    def test_noiseless_isotropic_bias_only(self):
        d, n = 20, 5
        w = np.random.default_rng(3).standard_normal(d)
        p = RegressionProblem(Spectrum(np.ones(d)), w, 0.0)
        assert surrogate_mse(p, n) == pytest.approx((1 - n / d) * float(w @ w), rel=1e-10)

    def test_regime_continuity_from_above(self):
        s = Spectrum(np.ones(10))
        p = RegressionProblem(s, np.zeros(10), 1.0)
        assert surrogate_mse(p, 11) < surrogate_mse(p, 10)

    def test_peak_is_global_max(self):
        s = random_spectrum(11, d=12)
        p = RegressionProblem(s, np.random.default_rng(1).standard_normal(12) * 0.1, 0.7)
        vals = {n: surrogate_mse(p, n) for n in range(1, 25)}
        assert max(vals, key=vals.get) == 12


class TestVarianceBiasSplit:
    def test_isotropic(self):
        s = Spectrum(np.ones(100))
        assert variance_term(s, 50) == pytest.approx(1.0 - 0.5**100, rel=1e-12)
        np.testing.assert_allclose(bias_factors(s, 50), np.full(100, 0.5), atol=1e-10)

    def test_near_boundary_positive(self):
        s = Spectrum(np.ones(100))
        v = variance_term(s, 99)
        assert np.isfinite(v) and v > 0

    def test_isotropic_shrinkage_linearity(self):
        d = 50
        s = Spectrum(2.5 * np.ones(d))
        for n in (1, 10, 49):
            np.testing.assert_allclose(bias_factors(s, n), np.full(d, 1 - n / d), atol=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            variance_term(Spectrum(np.ones(4)), 4)
        with pytest.raises(ValueError):
            bias_factors(Spectrum(np.ones(4)), 5)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    def test_recombination_identity(self, seed, n):
        s = random_spectrum(seed)
        rng = np.random.default_rng(seed + 1)
        p = RegressionProblem(s, rng.standard_normal(8), float(rng.uniform(0, 2)))
        lhs = p.sigma2 * variance_term(s, n) + float(np.sum(bias_factors(s, n) * p.w_star**2))
        assert lhs == pytest.approx(surrogate_mse(p, n), rel=1e-12, abs=1e-12)


class TestImplicitRegMean:
    def test_isotropic_linear_shrinkage(self):
        d = 100
        w = np.random.default_rng(5).standard_normal(d)
        p = RegressionProblem(Spectrum(np.ones(d)), w, 1.0)
        for n in (10, 50, 90):
            np.testing.assert_allclose(implicit_reg_mean(p, n), (n / d) * w, atol=1e-10)

    def test_over_recovers_w_star(self):
        s = random_spectrum(9, d=6)
        w = np.random.default_rng(2).standard_normal(6)
        p = RegressionProblem(s, w, 1.0)
        np.testing.assert_allclose(implicit_reg_mean(p, 6), w, atol=1e-10)
        np.testing.assert_allclose(implicit_reg_mean(p, 9), w, atol=1e-10)

    def test_hand_evaluation_d2(self):
        s = Spectrum(np.array([1.0, 2.0]))  # stored as (2, 1)
        w = np.ones(2)
        p = RegressionProblem(s, w, 1.0)
        lam = math.sqrt(2.0)
        expected = s.eigenvalues * w / (s.eigenvalues + lam)
        np.testing.assert_allclose(implicit_reg_mean(p, 1), expected, rtol=1e-10)

    def test_explicit_v(self):
        s = Spectrum(np.array([2.0, 1.0]))
        p = RegressionProblem(s, np.zeros(2), 1.0)
        v = np.array([4.0, 3.0])
        np.testing.assert_allclose(implicit_reg_mean(p, 2, v=v), v / s.eigenvalues)

    def test_v_dim_mismatch(self):
        p = RegressionProblem(Spectrum(np.ones(3)), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            implicit_reg_mean(p, 2, v=np.ones(4))


class TestSizePmf:
    def test_isotropic_d2(self):
        pmf = surrogate_size_pmf(Spectrum(np.ones(2)), 1)
        np.testing.assert_allclose(pmf, [0.25, 0.5, 0.25], atol=1e-12)

    def test_top_atom_positive(self):
        s = random_spectrum(4, d=5)
        pmf = surrogate_size_pmf(s, 3)
        assert pmf[-1] > 0

    def test_normalization_and_mean(self):
        for seed in range(5):
            s = random_spectrum(seed, d=7)
            for n in (1, 3, 6):
                pmf = surrogate_size_pmf(s, n)
                assert float(np.sum(pmf)) == pytest.approx(1.0, abs=1e-10)
                assert float(np.sum(np.arange(8) * pmf)) == pytest.approx(n, abs=1e-8)

    def test_large_d_no_overflow(self):
        pmf = surrogate_size_pmf(make_profile("diag_exp", 200), 100)
        assert np.all(np.isfinite(pmf))
        assert float(np.sum(pmf)) == pytest.approx(1.0, abs=1e-10)

    def test_non_gaussian_rejected(self):
        with pytest.raises(UnsupportedMeasureError):
            surrogate_size_pmf(Spectrum(np.ones(3)), 1, entry_law="rademacher")

    def test_integer_n_required(self):
        with pytest.raises(ValueError):
            surrogate_size_pmf(Spectrum(np.ones(3)), 1.5)


def esp(eigs, up_to):
    """e_0..e_{up_to} of positive values, through the log-space recursion."""
    return np.exp(_log_esp(np.log(np.asarray(eigs, dtype=float)), up_to))


class TestLogEsp:
    def test_hand_expansion(self):
        np.testing.assert_allclose(esp([1.0, 2.0, 3.0], 3), [1, 6, 11, 6])

    def test_all_ones_binomial(self):
        d = 8
        np.testing.assert_allclose(esp(np.ones(d), d), [math.comb(d, k) for k in range(d + 1)])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 10.0]))
    def test_generating_function_identity(self, seed, gamma):
        eigs = np.random.default_rng(seed).uniform(0.1, 5.0, size=6)
        e = esp(eigs, 6)
        series = sum(gamma**k * e[k] for k in range(7))
        product = np.prod(1.0 + gamma * eigs)
        assert series == pytest.approx(product, rel=1e-10)

    def test_matches_scalar_recursion_bitwise(self):
        def reference(log_vals, up_to):
            loge = np.full(up_to + 1, -np.inf)
            loge[0] = 0.0
            for lv in log_vals:
                for k in range(up_to, 0, -1):
                    loge[k] = np.logaddexp(loge[k], lv + loge[k - 1])
            return loge

        s = make_profile("diag_exp", 300)
        log_vals = np.log(surrogate_params(s, 150).gamma_n * s.eigenvalues)
        for up_to in (300, 40):
            np.testing.assert_array_equal(_log_esp(log_vals, up_to), reference(log_vals, up_to))


class TestRegressionProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionProblem(Spectrum(np.ones(3)), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            RegressionProblem(Spectrum(np.ones(3)), np.zeros(3), -1.0)
        with pytest.raises(ValueError):
            RegressionProblem(Spectrum(np.ones(3)), np.array([1.0, np.inf, 0.0]), 1.0)
