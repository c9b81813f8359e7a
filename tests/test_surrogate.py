import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import surrogate
from ddlab.covariance import Spectrum, make_profile, scale_trace_inverse
from ddlab.designs import MeasureSpec, sample_surrogate_under_batch, surrogate_expectation_oracle
from ddlab.experiments import curve_double_descent
from ddlab.linalg import min_norm_stats, projection_complement, pseudo_inverse
from ddlab.surrogate import (
    RegressionProblem,
    bias_factors,
    implicit_reg_mean,
    solve_lambda,
    surrogate_mse,
    surrogate_params,
    surrogate_size_pmf,
    variance_term,
)


def random_spectrum(seed, d=8):
    return Spectrum(np.random.default_rng(seed).uniform(0.05, 5.0, size=d))


def esp_by_enumeration(vals, k):
    """e_k(vals): the sum over all k-subsets of the product of their values."""
    return sum(math.prod(c) for c in itertools.combinations(vals, k))


def column_recursion(s, lam):
    """The size pmf at lambda_n ``lam`` by the Poisson-binomial recursion,
    one column at a time: the float reference for the blocked product."""
    t = s.eigenvalues
    p, q = t / (t + lam), lam / (t + lam)
    pmf = np.zeros(s.dim + 1)
    pmf[0] = 1.0
    for i in range(s.dim):
        pmf[1:i + 2] = pmf[1:i + 2] * q[i] + pmf[:i + 1] * p[i]
        pmf[0] *= q[i]
    return pmf


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
        t = s.eigenvalues
        assert np.sum(t / (t + lam)) == pytest.approx(n, abs=1e-10 * n)

    @staticmethod
    def relative_residual(s, n, lam):
        """The residual solve_lambda zeroes, over n below d / 2 and over
        d - n above."""
        t, d = s.eigenvalues, s.dim
        if n <= d / 2:
            return abs(n - np.sum(t / (t + lam))) / n
        return abs(np.sum(lam / (t + lam)) - (d - n)) / (d - n)

    def test_matches_high_precision_reference_at_the_edges(self):
        # the same residual in 50-digit arithmetic, solved by mpmath from the
        # double result, on trace-normalised diag_exp spectra from n -> 0 to
        # n -> d and condition numbers from just above 1 to 1e12
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(50):
            for d, kappa in itertools.product((10, 100, 300), (1 + 1e-9, 1e4, 1e12)):
                s = scale_trace_inverse(make_profile("diag_exp", d, 1.0, 1.0 / kappa), d)
                tau = [mpmath.mpf(float(t)) for t in s.eigenvalues]
                for n in (1e-6, 0.5, d / 4, d / 2, 3 * d / 4, d - 1, d - 1e-6):
                    lam = solve_lambda(s, n)
                    nm = mpmath.mpf(n)
                    if n <= d / 2:
                        def f(x):
                            return nm - mpmath.fsum(t / (t + x) for t in tau)
                    else:
                        def f(x):
                            return mpmath.fsum(x / (t + x) for t in tau) - (d - nm)
                    ref = mpmath.findroot(f, (mpmath.mpf(lam), mpmath.mpf(lam) * (1 + 1e-8)))
                    err = float(abs(lam - ref) / ref)
                    assert err <= 1e-14, (d, kappa, n, err)
                    worst = max(worst, err)
        print(f"worst relative error of lambda_n against the 50-digit root: {worst:.2e}")

    @pytest.mark.parametrize("s, n", [
        (scale_trace_inverse(make_profile("diag_exp", 10, 1.0, 1e-4), 10), 1e-200),
        # flat: at d tau_1 / n the residual n^2 / (n + d) rounds to below 0
        (Spectrum(np.ones(100)), 1e-20),
    ])
    def test_tiny_n_is_finite(self, s, n):
        lam = solve_lambda(s, n)
        assert math.isfinite(lam)
        assert self.relative_residual(s, n, lam) <= 1e-14

    @pytest.mark.parametrize("gap", [5e4, 1e-3])
    def test_large_d_extreme_condition(self, gap):
        d = 10**5
        s = scale_trace_inverse(make_profile("diag_exp", d, 1.0, 1e-12), d)
        n = d - gap
        assert self.relative_residual(s, n, solve_lambda(s, n)) <= 1e-13

    def test_exact_root_at_extreme_condition(self):
        # d = 2, n = 1: tau_1 / (tau_1 + lam) + tau_2 / (tau_2 + lam) = 1 at
        # lam = sqrt(tau_1 tau_2), for condition numbers 1e12 to 1e300; the
        # term of tau_1 = 1 is 1 - lam / (1 + lam), which a residual summing it
        # as a probability rounds to 1 once lam is below eps
        for k in range(12, 301):
            tau_2 = 10.0 ** -k
            lam = solve_lambda(Spectrum(np.array([1.0, tau_2])), 1)
            assert abs(lam / math.sqrt(tau_2) - 1) <= 1e-14, (k, lam)

    @pytest.mark.parametrize("s, n, match", [
        # 2 d tau_1 / n = 2e309
        (Spectrum(np.ones(10)), 1e-308, "overflows"),
        # subnormal eigenvalues: lambda_n is below every normal double
        (Spectrum(np.full(3, 1e-320)), 1.0, "positive double"),
        (Spectrum(np.array([1.0, 1e-320])), 1.5, "positive double"),
    ])
    def test_out_of_double_range_raises(self, s, n, match):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=match):
            solve_lambda(s, n)


class TestSolveCount:
    """Each closed-form evaluation at n < d solves for lambda_n once."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # counts the calls through every ddlab module that binds the solver
        calls = []

        def counted(s, n):
            calls.append(n)
            return solve(s, n)

        solve = surrogate.solve_lambda
        for name, mod in list(sys.modules.items()):
            if name.startswith("ddlab") and getattr(mod, "solve_lambda", None) is solve:
                monkeypatch.setattr(mod, "solve_lambda", counted)
        return calls

    def test_surrogate_mse(self, solves):
        s = make_profile("diag_exp", 20)
        surrogate_mse(RegressionProblem(s, np.ones(20), 1.0), 7)
        assert solves == [7]

    def test_curve_without_monte_carlo(self, solves):
        s = make_profile("diag_exp", 20)
        ns = [5, 10, 19, 20, 21, 40]
        curve_double_descent(RegressionProblem(s, np.ones(20), 1.0), MeasureSpec(s), ns, 100, 1,
                             with_mc=False)
        assert solves == [5, 10, 19]

    def test_oracle(self, solves):
        m = MeasureSpec(make_profile("diag_exp", 10))
        # 4000 trials span several blocks of the trial engine
        surrogate_expectation_oracle(lambda X: X.shape[0], m, 5, 4000, 3, threads=1)
        assert solves == [5]


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
        # any 0 < n < d is under-determined; n <= 0 is refused
        p = surrogate_params(Spectrum(np.ones(3)), 0.5)
        assert p.lambda_n == pytest.approx(5.0, rel=1e-12)  # 3 / (1 + lam) = 0.5
        for n in (0, -1):
            with pytest.raises(ValueError):
                surrogate_params(Spectrum(np.ones(3)), n)

    def test_n_near_zero(self):
        # at n = 1e-9 the effective dimension is solved from n itself, not
        # from d - n, where n is lost to rounding; the MSE tends to ||w*||^2
        s = make_profile("diag_exp", 100)
        n = 1e-9
        pmf = surrogate_size_pmf(s, n)
        assert float(np.sum(np.arange(101) * pmf)) == pytest.approx(n, rel=1e-11, abs=0)
        w = np.random.default_rng(5).standard_normal(100)
        p = RegressionProblem(s, w, 1.0)
        assert surrogate_mse(p, n) == pytest.approx(float(w @ w), rel=0, abs=1e-8)

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

    @pytest.mark.parametrize("gap", [1e-9, 1e-12])
    def test_just_over_d_without_cancellation(self, gap):
        # sigma^2 tr(Sigma^-1) (1 - e^-x) / x with x = n - d, against its
        # series 1 - x/2 (next term x^2/6, below 1e-18 here)
        d = 10
        p = RegressionProblem(Spectrum(np.ones(d)), np.zeros(d), 1.0)
        n = d + gap
        x = n - d
        assert surrogate_mse(p, n) == pytest.approx(d * (1.0 - x / 2.0), rel=1e-12, abs=0)

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

    @pytest.mark.parametrize("kind", ["diag_exp", "diag_linear"])
    def test_exact_as_n_approaches_d(self, kind):
        # lambda_n ~ 1e-14 here: the variance factor and the MSE must meet
        # their n = d values, tr(Sigma^{-1}) and sigma^2 tr(Sigma^{-1})
        d = 100
        s = scale_trace_inverse(make_profile(kind, d, 1.0, 1e-4), float(d))
        p = RegressionProblem(s, np.full(d, 0.1), 1.0)
        assert variance_term(s, d - 1e-12) == pytest.approx(s.trace_inverse(), rel=1e-10)
        assert surrogate_mse(p, d - 1e-12) == pytest.approx(surrogate_mse(p, d), rel=1e-10)

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

    @pytest.mark.parametrize("s, n", [(Spectrum(np.array([0.3, 1.0, 2.0, 0.5, 4.0])), 2.0),
                                      (Spectrum(np.ones(8)), 5.0),
                                      (random_spectrum(7, d=7), 6.5)])
    def test_matches_subset_enumeration(self, s, n):
        # P(K = k) = gamma^k e_k(tau) / prod(1 + gamma tau_i)
        gamma = surrogate_params(s, n).gamma_n
        tau = s.eigenvalues.tolist()
        norm = math.prod(1.0 + gamma * t for t in tau)
        expected = [gamma**k * esp_by_enumeration(tau, k) / norm for k in range(s.dim + 1)]
        np.testing.assert_allclose(surrogate_size_pmf(s, n), expected, rtol=1e-12)

    @pytest.mark.parametrize("d, kappa", [(10, 1e4), (100, 1e4), (300, 1e4), (300, 1e12)],
                             ids=["10", "100", "300", "300-kappa1e12"])
    def test_matches_high_precision_reference(self, d, kappa):
        # the Poisson-binomial recursion in 60-digit arithmetic at the same
        # lambda_n; entries that double precision can hold are within 1e-13
        # relative, up to n = d - 1e-3 where every q_i is tiny
        mpmath = pytest.importorskip("mpmath")
        s = make_profile("diag_exp", d, 1.0, 1.0 / kappa)
        with mpmath.workdps(60):
            tau = [mpmath.mpf(float(t)) for t in s.eigenvalues]
            for n in (d / 2, d - 1, d - 1e-3):
                lam = mpmath.mpf(solve_lambda(s, n))
                ref = [mpmath.mpf(1)] + [mpmath.mpf(0)] * d
                for i, t in enumerate(tau):
                    p, q = t / (t + lam), lam / (t + lam)
                    ref[1:i + 2] = [a * q + b * p for a, b in zip(ref[1:i + 2], ref[:i + 1])]
                    ref[0] *= q
                pmf = surrogate_size_pmf(s, n)
                big = [k for k in range(d + 1) if ref[k] > mpmath.mpf("1e-300")]
                err = max(float(abs(pmf[k] - ref[k]) / ref[k]) for k in big)
                assert err < 1e-13, (n, err)

    @pytest.mark.parametrize("d", [1, 2, 3, 15, 16, 17, 97])
    def test_matches_column_recursion(self, d):
        # the blocked product splits d into chunks of isqrt(d) columns: d at
        # a square, one either side of it, and a prime, from n -> 0 to n -> d
        s = Spectrum(np.geomspace(1.0, 1e-4, d))
        for n in (1e-9, d / 2, d - 1e-3):
            lam = solve_lambda(s, n)
            pmf, ref = surrogate_size_pmf(s, n), column_recursion(s, lam)
            assert pmf.shape == (d + 1,)
            assert np.all(pmf >= 0)
            big = ref > 1e-300
            np.testing.assert_allclose(pmf[big], ref[big], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [5000.0, 9999.0])
    def test_large_d_extreme_condition(self, n):
        d = 10**4
        pmf = surrogate_size_pmf(make_profile("diag_exp", d, 1.0, 1e-12), n)
        assert pmf.shape == (d + 1,) and np.all(pmf >= 0)
        assert abs(float(np.sum(pmf)) - 1.0) <= 1e-9
        assert abs(float(np.arange(d + 1) @ pmf) - n) <= 1e-9 * n

    def test_large_d_no_overflow(self):
        pmf = surrogate_size_pmf(make_profile("diag_exp", 200), 100)
        assert np.all(np.isfinite(pmf))
        assert float(np.sum(pmf)) == pytest.approx(1.0, abs=1e-10)

    def test_rademacher_gram_identity_exact(self):
        # E[det(X X^T) | K = k] = k! e_k(Sigma) needs only i.i.d. zero-mean,
        # unit-variance entries (Cauchy-Binet), so the pmf holds for every
        # entry law; enumerate all 2^(k d) sign matrices Z, with X = Z Sigma^{1/2}
        d = 3
        # a rotated covariance Q diag(tau) Q^T, whose symmetric root is used
        s = Spectrum(np.array([3.0, 1.0, 0.25]))
        Q = np.linalg.qr(np.random.default_rng(11).standard_normal((d, d)))[0]
        root = Q @ np.diag(np.sqrt(s.eigenvalues)) @ Q.T
        for k in (1, 2, 3):
            signs = np.array(list(itertools.product([-1.0, 1.0], repeat=k * d))).reshape(-1, k, d)
            X = signs @ root
            mean = float(np.mean(np.linalg.det(X @ np.swapaxes(X, 1, 2))))
            e_k = esp_by_enumeration(s.eigenvalues.tolist(), k)
            assert mean == pytest.approx(math.factorial(k) * e_k, rel=1e-12)

    def test_real_n_in_range(self):
        pmf = surrogate_size_pmf(random_spectrum(6, d=3), 1.5)
        assert float(np.sum(pmf)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(np.arange(4) * pmf)) == pytest.approx(1.5, abs=1e-10)
        for n in (0, 3, 3.5):
            with pytest.raises(ValueError):
                surrogate_size_pmf(Spectrum(np.ones(3)), n)


class TestRademacherExact:
    """The surrogate design on Rademacher rows at tau = (1, 2, 3), n = 2, by
    exact enumeration: all 2^(3k) sign matrices Z at each size k <= 3, X = Z
    Sigma^{1/2} weighted by det(X X^T), the sizes mixed by the pmf. The size
    pmf and the projection mean hold for any i.i.d. law; the variance form
    (1 - alpha_n) / lambda_n is derived for Gaussian rows and does not."""

    def test_weights_projection_and_variance(self):
        s, n, d = Spectrum(np.array([1.0, 2.0, 3.0])), 2, 3
        tau, pmf = s.eigenvalues, surrogate_size_pmf(s, n)
        comp, tr = np.zeros((d, d)), 0.0
        for k in range(d + 1):
            signs = itertools.product((-1.0, 1.0), repeat=k * d)
            X = np.array(list(signs)).reshape(2 ** (k * d), k, d) * np.sqrt(tau)
            w = np.linalg.det(X @ np.swapaxes(X, 1, 2))
            norm = math.factorial(k) * esp_by_enumeration(tau, k)
            assert np.mean(w) == pytest.approx(norm, rel=1e-12)  # E det(X X^T) = k! e_k
            mix = pmf[k] / (w.size * norm)
            comp += mix * sum(wi * projection_complement(Xi) for wi, Xi in zip(w, X))
            tr += mix * sum(wi * np.sum(pseudo_inverse(Xi) ** 2) for wi, Xi in zip(w, X))
        np.testing.assert_allclose(comp, np.diag(bias_factors(s, n)), rtol=0, atol=1e-12)
        # E tr((X^T X)^+) = E ||X^+||_F^2 is not the Gaussian form 0.812150...
        assert tr == pytest.approx(0.4873271090869, abs=1e-12)
        assert variance_term(s, n) == pytest.approx(0.8121503937441, abs=1e-12)


def int_dets(A):
    """Exact determinants of a (N, k, k) stack of int64 matrices, by the
    Leibniz sum; the empty 0 x 0 matrix has determinant 1."""
    N, k, _ = A.shape
    out = np.zeros(N, dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = np.ones(N, dtype=np.int64)
        for i, j in enumerate(perm):
            term = term * A[:, i, j]
        out += -term if inversions % 2 else term
    return out


class TestRademacherSingularMass:
    """Where the variance form holds for Rademacher rows. With X = Z
    Sigma^{1/2} and G = X X^T, tr adj(G) is a polynomial in the entries
    whose mean, (k - 1)! e_{k-1} per principal minor by Cauchy-Binet, does
    not depend on the entry law; so the det-weighted, pmf-mixed sum of tr
    adj(G) over all sign matrices is the Gaussian variance form. On a
    nonsingular block det(G) tr((X^T X)^+) = tr adj(G), and a singular one
    carries weight det(G) = 0: the true E tr((X^T X)^+) is the same sum over
    the nonsingular blocks only, and the form misses it by exactly the
    singular mass. Integer tau makes G integer, so every sum is exact."""

    @pytest.mark.parametrize("tau, full, nonsingular", [
        ((1, 2, 3), 0.8121503937437269, 0.48732710908675),
        ((1, 2, 3, 4), 0.42502581665323097, 0.3142777098157555),
    ])
    def test_variance_form_is_full_sum_of_adjugate_traces(self, tau, full, nonsingular):
        s, n, d = Spectrum(np.array(tau, dtype=float)), 2, len(tau)
        pmf = surrogate_size_pmf(s, n)
        total = kept = 0.0
        for k in range(1, d + 1):
            Z = np.array(list(itertools.product((-1, 1), repeat=k * d))).reshape(-1, k, d)
            G = (Z * np.array(tau)) @ np.swapaxes(Z, 1, 2)  # Z diag(tau) Z^T
            adj_trace = sum(int_dets(np.delete(np.delete(G, i, 1), i, 2)) for i in range(k))
            # rank Z = k iff some k x k minor of Z is nonzero
            full_rank = np.zeros(len(Z), dtype=bool)
            for cols in itertools.combinations(range(d), k):
                full_rank |= int_dets(Z[:, :, cols]) != 0
            # E tr adj(G) = k! e_{k-1}, exactly, on the signs as on any law
            assert int(adj_trace.sum()) == len(Z) * math.factorial(k) * esp_by_enumeration(tau, k - 1)
            norm = pmf[k] / (len(Z) * math.factorial(k) * esp_by_enumeration(tau, k))
            total += norm * int(adj_trace.sum())
            kept += norm * int(adj_trace[full_rank].sum())
        assert total == pytest.approx(variance_term(s, n), abs=1e-13)
        assert total == pytest.approx(full, abs=1e-13)
        assert kept == pytest.approx(nonsingular, abs=1e-13)


class TestTheoremOneAtFigureScale:
    """Theorem 1 and the implicit-ridge mean at the figures' d = 100, on
    exact gaussian surrogate draws: trace-normalised diag_exp at kappa 1e4,
    uniform w, sigma^2 = 1. Each draw is stacked with the others of its
    size, as the kernels take them."""

    @staticmethod
    def draws(n, num):
        d = 100
        s = scale_trace_inverse(make_profile("diag_exp", d, 1.0, 1e-4), float(d))
        p = RegressionProblem(s, np.full(d, 1.0 / math.sqrt(d)), 1.0)
        Xs, _ = sample_surrogate_under_batch(MeasureSpec(s), n, num, None, seed=n)
        stacks = {}
        for X in Xs:
            stacks.setdefault(X.shape, []).append(X)
        return p, [np.stack(group) for group in stacks.values()]

    @pytest.mark.parametrize("n", [25, 50, 90])
    def test_mse_and_implicit_mean(self, n):
        p, stacks = self.draws(n, 2000)
        w = p.w_star
        mse, fit = [], []
        for X in stacks:
            tr, resid = min_norm_stats(X, w)
            mse.append(p.sigma2 * tr + resid)
            Q = np.linalg.qr(np.swapaxes(X, 1, 2))[0]  # X^+ X = Q Q^T
            fit.append(np.einsum("bdk,bk->bd", Q, np.einsum("bdk,d->bk", Q, w)))
        mse, fit = np.concatenate(mse), np.concatenate(fit)
        z = (mse.mean() - surrogate_mse(p, n)) / (mse.std(ddof=1) / math.sqrt(mse.size))
        assert abs(z) <= 4
        zs = (fit.mean(0) - implicit_reg_mean(p, n)) / (fit.std(0, ddof=1) / math.sqrt(len(fit)))
        assert np.max(np.abs(zs)) <= 4

    def test_over_determined_fit_is_w(self):
        # a check by value needs fewer draws than the means above, and 2000
        # draws of about 150 x 100 would take several seconds more
        p, stacks = self.draws(150, 200)
        for X in stacks:
            Q, R = np.linalg.qr(X)  # X^+ X w = R^{-1} Q^T X w for full-rank X
            fit = np.linalg.solve(R, np.einsum("bnk,bn->bk", Q, X @ p.w_star)[..., None])[..., 0]
            assert np.max(np.abs(fit - p.w_star)) <= 1e-9


class TestRegressionProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionProblem(Spectrum(np.ones(3)), np.zeros(2), 1.0)
        for sigma2 in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                RegressionProblem(Spectrum(np.ones(3)), np.zeros(3), sigma2)
        with pytest.raises(ValueError):
            RegressionProblem(Spectrum(np.ones(3)), np.array([1.0, np.inf, 0.0]), 1.0)
