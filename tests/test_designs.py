import math

import numpy as np
import pytest
from scipy import stats

from ddlab import designs
from ddlab.covariance import Spectrum, make_profile
from ddlab.designs import (
    DesignSample,
    MeasureSpec,
    _log_weight,
    gen_responses,
    sample_iid,
    sample_surrogate_over,
    sample_surrogate_under_batch,
    surrogate_expectation_oracle,
)
from ddlab.errors import UnsupportedMeasureError
from ddlab.linalg import projection_complement
from ddlab.parallel import _openblas_threads, run_blocks, run_trials, trial_rng, trial_streams
from ddlab.surrogate import surrogate_size_pmf


class TestSampleIid:
    def test_empty(self):
        X = sample_iid(MeasureSpec(Spectrum(np.ones(4))), 0, 1)
        assert X.shape == (0, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_iid(MeasureSpec(Spectrum(np.ones(4))), -1, 1)

    def test_rademacher_support(self):
        X = sample_iid(MeasureSpec(Spectrum(np.ones(5)), "rademacher"), 100, 2)
        assert set(np.unique(X)) <= {-1.0, 1.0}

    def test_uniform_support_and_variance(self):
        X = sample_iid(MeasureSpec(Spectrum(np.ones(2)), "uniform_pm_sqrt3"), 50_000, 3)
        assert np.max(np.abs(X)) <= math.sqrt(3.0)
        assert np.var(X) == pytest.approx(1.0, rel=0.05)

    def test_sample_covariance(self):
        s = Spectrum(np.array([2.0, 0.5]))
        n = 200_000
        X = sample_iid(MeasureSpec(s), n, 4)
        cov = X.T @ X / n
        assert np.max(np.abs(cov - np.diag(s.eigenvalues))) < 3 * 3.0 / math.sqrt(n)

    def test_deterministic(self):
        m = MeasureSpec(Spectrum(np.ones(3)))
        np.testing.assert_array_equal(sample_iid(m, 5, 7), sample_iid(m, 5, 7))

    def test_unknown_entry_law(self):
        with pytest.raises(ValueError):
            MeasureSpec(Spectrum(np.ones(3)), "cauchy")


class TestGenResponses:
    def test_noiseless(self):
        X = np.eye(3)
        np.testing.assert_array_equal(gen_responses(X, [1.0, 2.0, 3.0], 0.0, 1), [1, 2, 3])

    def test_pure_noise_variance(self):
        y = gen_responses(np.zeros((100_000, 2)), np.ones(2), 4.0, 5)
        assert np.var(y) == pytest.approx(4.0, rel=3 * math.sqrt(2 / 100_000) + 0.01)

    def test_deterministic(self):
        X = np.ones((10, 2))
        np.testing.assert_array_equal(gen_responses(X, [1.0, 1.0], 1.0, 9),
                                      gen_responses(X, [1.0, 1.0], 1.0, 9))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gen_responses(np.eye(3), [1.0, 2.0], 1.0, 1)


class TestOracle:
    def test_constant_functional(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        est = surrogate_expectation_oracle(lambda X: 1.0, m, 1, 500, 11)
        assert float(est.mean) == pytest.approx(1.0)
        assert float(est.std_error) == pytest.approx(0.0, abs=1e-14)
        assert est.effective_sample_size <= est.trials

    def test_few_trials_rejected(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        with pytest.raises(ValueError):
            surrogate_expectation_oracle(lambda X: 1.0, m, 1, 50, 1)

    def test_projection_complement_matches_closed_form(self):
        # E[I - pinv(X) X] = (gamma Sigma + I)^{-1} with gamma = 1/sqrt(2)
        s = Spectrum(np.array([1.0, 2.0]))
        m = MeasureSpec(s)
        est = surrogate_expectation_oracle(projection_complement, m, 1, 60_000, 13)
        gamma = 1.0 / math.sqrt(2.0)
        target = np.diag(1.0 / (gamma * s.eigenvalues + 1.0))
        assert np.max(np.abs(est.z_score(target))) < 4.0

    def test_expected_row_count(self):
        m = MeasureSpec(Spectrum(np.ones(4)))
        est = surrogate_expectation_oracle(lambda X: float(X.shape[0]), m, 2, 60_000, 17)
        assert abs(float(est.z_score(2.0))) < 4.0

    def test_at_boundary_n_equals_d(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        est = surrogate_expectation_oracle(lambda X: float(X.shape[0]), m, 2, 1000, 19)
        assert float(est.mean) == pytest.approx(2.0)

    def test_thread_invariance(self):
        m = MeasureSpec(Spectrum(np.array([1.0, 3.0])))
        a = surrogate_expectation_oracle(projection_complement, m, 1, 500, 23, threads=1)
        b = surrogate_expectation_oracle(projection_complement, m, 1, 500, 23, threads=4)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.std_error, b.std_error)


def lockstep_reference(m, n, num, steps, seed):
    """Reference stream of the batched chain: every chain of one size
    advances in lockstep on one stream, rows are standard normals times
    Sigma^{1/2}, and singular starts are redrawn without bound."""
    s = m.spectrum
    root = np.sqrt(s.eigenvalues)

    def sqrt_stack(Z):
        return Z * root if s.basis is None else ((Z @ s.basis) * root) @ s.basis.T

    rng = trial_rng(seed, 0)
    d = m.dim
    pmf = surrogate_size_pmf(s, n)
    ks = rng.choice(len(pmf), size=num, p=pmf)
    out = [None] * num
    accepted = proposals = 0
    for k in np.unique(ks):
        idx = np.flatnonzero(ks == k)
        if k == 0:
            for i in idx:
                out[i] = np.zeros((0, d))
            continue
        B = idx.size
        X = sqrt_stack(rng.standard_normal((B, k, d)))
        sign, ld = np.linalg.slogdet(X @ np.swapaxes(X, 1, 2))
        lw = np.where(sign > 0, ld, -np.inf)
        bad = ~np.isfinite(lw)
        while np.any(bad):
            X[bad] = sqrt_stack(rng.standard_normal((int(np.sum(bad)), k, d)))
            s2, l2 = np.linalg.slogdet(X[bad] @ np.swapaxes(X[bad], 1, 2))
            lw[bad] = np.where(s2 > 0, l2, -np.inf)
            bad = ~np.isfinite(lw)
        for _ in range(steps):
            rows = rng.integers(k, size=B)
            props = sqrt_stack(rng.standard_normal((B, 1, d)))[:, 0, :]
            Xp = X.copy()
            Xp[np.arange(B), rows] = props
            sp, lp = np.linalg.slogdet(Xp @ np.swapaxes(Xp, 1, 2))
            lwp = np.where(sp > 0, lp, -np.inf)
            acc = np.log(rng.uniform(size=B)) < (lwp - lw)
            X[acc] = Xp[acc]
            lw[acc] = lwp[acc]
            accepted += int(np.sum(acc))
            proposals += B
        for j, i in enumerate(idx):
            out[i] = X[j]
    return out, accepted / proposals


class TestSamplerUnder:
    def test_non_gaussian_rejected(self):
        m = MeasureSpec(Spectrum(np.ones(3)), "rademacher")
        with pytest.raises(UnsupportedMeasureError):
            sample_surrogate_under_batch(m, 1, 1, 10, 1)

    def test_size_bounded_by_d(self):
        m = MeasureSpec(Spectrum(np.ones(3)))
        samples, _ = sample_surrogate_under_batch(m, 2, 20, 20, 1)
        assert all(X.shape[0] <= 3 for X in samples)

    @pytest.mark.parametrize("s, n, num, steps", [
        (Spectrum(np.array([1.0, 2.0, 3.0])), 2, 64, 25),
        (make_profile("diag_exp", 10), 5, 50, 10),
        (Spectrum(np.array([4.0, 3.0, 2.0, 1.0]),
                  basis=np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]), 2, 40, 10),
    ])
    def test_matches_lockstep_reference_bitwise(self, s, n, num, steps):
        m = MeasureSpec(s)
        samples, rate = sample_surrogate_under_batch(m, n, num, steps, 37)
        ref, ref_rate = lockstep_reference(m, n, num, steps, 37)
        assert rate == ref_rate
        for X, R in zip(samples, ref, strict=True):
            np.testing.assert_array_equal(X, R)

    def test_default_steps_are_100_per_row(self):
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0, 3.0])))
        samples, rate = sample_surrogate_under_batch(m, 2, 1, None, 5)
        k = samples[0].shape[0]
        explicit = sample_surrogate_under_batch(m, 2, 1, 100 * k, 5)
        np.testing.assert_array_equal(samples[0], explicit[0][0])
        assert rate == explicit[1]

    def test_singular_rows_stop_the_chain(self, monkeypatch):
        monkeypatch.setattr(designs, "_raw_rows",
                            lambda m, shape, rng: np.zeros((*np.atleast_1d(shape), m.dim)))
        m = MeasureSpec(Spectrum(np.ones(3)))
        with pytest.raises(RuntimeError, match="full-rank"):
            designs._chain(m, 2, 4, 5, trial_rng(1, 0))
        with pytest.raises(RuntimeError, match="full-rank"):
            sample_surrogate_over(m, 4.0, 5, 1)

    def test_size_frequencies_match_pmf(self):
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0])))
        pmf = surrogate_size_pmf(m.spectrum, 1)
        samples, _ = sample_surrogate_under_batch(m, 1, 20_000, 1, 29)
        counts = np.bincount([s.shape[0] for s in samples], minlength=3)
        chi2 = stats.chisquare(counts, 20_000 * pmf)
        assert chi2.pvalue > 0.01

    def test_batch_mean_projection(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        samples, rate = sample_surrogate_under_batch(m, 1, 8000, 60, 31)
        mats = np.stack([projection_complement(X) for X in samples])
        mean = mats.mean(axis=0)
        se = mats.std(axis=0, ddof=1) / math.sqrt(len(samples))
        target = np.diag(1.0 / (1.0 * np.ones(2) + 1.0))  # gamma = 1 at n=1, d=2
        assert np.max(np.abs((mean - target) / np.where(se > 0, se, np.inf))) < 4.0
        assert 0 < rate < 1


class TestSamplerOver:
    def test_expected_total_rows(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        ks = [sample_surrogate_over(m, 5.0, 30, seed).k for seed in range(3000)]
        se = np.std(ks, ddof=1) / math.sqrt(len(ks))
        assert abs(np.mean(ks) - 5.0) < 3 * se

    def test_d1_moment_ratio(self):
        # block density prop. to x^2 mu(x): second moment E[x^4]/E[x^2] = 3
        m = MeasureSpec(Spectrum(np.ones(1)))
        vals = []
        for seed in range(4000):
            rng = trial_rng(101, seed)
            X, lw = np.zeros((1, 1)), -np.inf
            while not np.isfinite(lw):
                X = sample_iid(m, 1, rng)
                lw = 2.0 * math.log(abs(X[0, 0])) if X[0, 0] != 0 else -np.inf
            for _ in range(60):
                prop = rng.standard_normal()
                lwp = 2.0 * math.log(abs(prop)) if prop != 0 else -np.inf
                if math.log(rng.uniform()) < lwp - lw:
                    X = np.array([[prop]])
                    lw = lwp
            vals.append(X[0, 0] ** 2)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - 3.0) < 3 * se

    def test_permutation_exchangeability(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        first_norms = [np.linalg.norm(sample_surrogate_over(m, 4.0, 40, s).X[0])
                       for s in range(1500)]
        # the appended rows are plain iid; under exchangeability the first row
        # must be indistinguishable from fresh iid norms mixed with block rows
        ks = stats.ks_2samp(first_norms[:750], first_norms[750:])
        assert ks.pvalue > 0.01

    def test_rademacher_entries(self):
        m = MeasureSpec(Spectrum(np.ones(3)), "rademacher")
        for seed in range(5):
            X = sample_surrogate_over(m, 6.0, 40, seed).X
            assert X.shape[0] >= 3 and X.shape[1] == 3
            assert set(np.unique(X)) <= {-1.0, 1.0}

    def test_rejects_n_below_d(self):
        m = MeasureSpec(Spectrum(np.ones(3)))
        with pytest.raises(ValueError):
            sample_surrogate_over(m, 2, 10, 1)


class TestDesignSample:
    def test_csv_round_structure(self):
        X = np.arange(6.0).reshape(2, 3)
        sample = DesignSample(X=X, y=np.array([0.5, -1.5]))
        lines = sample.csv_text().strip().splitlines()
        assert lines[0] == "x_1,x_2,x_3,y"
        assert len(lines) == 3
        assert lines[1].endswith(",0.5")

    def test_csv_without_y(self):
        text = DesignSample(X=np.ones((1, 2))).csv_text()
        assert text == "x_1,x_2,y\n1.0,1.0,\n"


class TestRunTrials:
    def test_thread_invariance(self):
        f = lambda rng, i: rng.standard_normal(3)
        a = run_trials(f, 50, 5, threads=1)
        b = run_trials(f, 50, 5, threads=8)
        np.testing.assert_array_equal(np.stack(a), np.stack(b))

    def test_index_order(self):
        out = run_trials(lambda rng, i: i, 20, 0, threads=4)
        assert out == list(range(20))

    def test_matches_per_trial_streams_at_any_thread_count(self):
        # runs past one block, with a Poisson size and a design per trial
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0])))

        def f(rng, i):
            return sample_iid(m, int(rng.poisson(2.0)), rng).sum() + i

        ref = [f(trial_rng(9, i), i) for i in range(70)]
        assert run_trials(f, 70, 9, threads=1) == ref
        assert run_trials(f, 70, 9, threads=3) == ref


class TestTrialStreams:
    @pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform_pm_sqrt3"])
    def test_designs_match_trial_rng(self, law):
        m = MeasureSpec(Spectrum(np.array([1.0, 3.0, 0.5])), law)
        for i, rng in trial_streams(17, 5, 25):
            np.testing.assert_array_equal(sample_iid(m, 4, rng), sample_iid(m, 4, trial_rng(17, i)))

    def test_poisson_and_int32_draws_match_trial_rng(self):
        # an odd count of 32-bit draws leaves half a 64-bit word behind; the
        # next trial must not start from it
        seed = 2**63 + 12345
        draws = (lambda g: g.poisson(3.0, size=3),
                 lambda g: g.integers(0, 1000, size=3, dtype=np.int32),
                 lambda g: g.standard_normal(2))
        for i, rng in trial_streams(seed, 0, 12):
            ref = trial_rng(seed, i)
            for draw in draws:
                np.testing.assert_array_equal(draw(rng), draw(ref))
        assert [i for i, _ in trial_streams(1, 3, 7)] == [3, 4, 5, 6]
        assert list(trial_streams(1, 4, 4)) == []


class TestRunBlocks:
    def test_fixed_blocks_in_index_order(self):
        for threads in (1, 3):
            out = run_blocks(lambda lo, hi: (lo, hi), 10, threads, 4)
            assert out == [(0, 4), (4, 8), (8, 10)]
        assert run_blocks(lambda lo, hi: (lo, hi), 0, 2, 4) == []

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            run_blocks(lambda lo, hi: None, 10, 1, 0)

    @pytest.mark.skipif(_openblas_threads() is None, reason="no OpenBLAS thread control found")
    @pytest.mark.parametrize("threads", [1, 3])
    def test_blas_held_at_one_thread_and_restored(self, threads):
        get, put = _openblas_threads()
        before = get()
        put(2)
        try:
            inside = run_blocks(lambda lo, hi: get(), 6, threads, 2)
            assert inside == [1, 1, 1]
            assert get() == 2

            def boom(lo, hi):
                raise RuntimeError("trial failed")

            with pytest.raises(RuntimeError):
                run_blocks(boom, 6, threads, 2)
            assert get() == 2
        finally:
            put(before)


class TestLogWeight:
    def test_singular_tall_design_has_zero_weight(self):
        # rank 1 at n > d: the shared rank cutoff gives -inf like the other regimes
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        assert _log_weight(X, 3, 2) == -np.inf
        assert _log_weight(X[:2], 2, 2) == -np.inf
        assert _log_weight(X[:2].T, 2, 3) == -np.inf
