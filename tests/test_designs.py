import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from ddlab import designs
from ddlab.covariance import Spectrum, apply_sqrt, make_profile
from ddlab.designs import (
    MeasureSpec,
    MonteCarloEstimate,
    gen_responses,
    sample_iid,
    sample_surrogate_under_batch,
    surrogate_expectation_oracle,
)
from ddlab.linalg import projection_complement, pseudo_inverse
from ddlab.parallel import (
    BLOCK_KEY,
    TRIAL_BLOCK,
    _openblas_threads,
    run_block_streams,
    run_trials,
    trial_rng,
)
from ddlab.surrogate import solve_lambda, surrogate_params, surrogate_size_pmf


def one_draw(m, n, seed_or_rng):
    """The one surrogate sample of a batch of one."""
    (X,), _ = sample_surrogate_under_batch(m, n, 1, None, seed_or_rng)
    return X


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

    @pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform_pm_sqrt3"])
    def test_stack_equals_reshaped_rows(self, law):
        m = MeasureSpec(Spectrum(np.array([0.5, 1.0, 2.0])), law)
        X = sample_iid(m, (4, 5), 8)
        assert X.shape == (4, 5, 3)
        np.testing.assert_array_equal(X, sample_iid(m, 20, 8).reshape(4, 5, 3))

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

    @pytest.mark.parametrize("sigma2", [-1.0, float("nan"), float("inf")])
    def test_invalid_sigma2_rejected(self, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            gen_responses(np.eye(3), [1.0, 2.0, 3.0], sigma2, 1)


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

    @pytest.mark.parametrize("s, law, n, trials, seed", [
        *[(make_profile("diag_exp", d), "gaussian", n, 1500, 5)
          for d, n in ((10, 5), (10, 11), (10, 12), (30, 60))],
        (Spectrum(np.array([0.5, 1.0, 2.0, 4.0])), "rademacher", 2, 4000, 7),
        (Spectrum(np.array([0.5, 1.0, 2.0, 4.0])), "rademacher", 6, 4000, 7),
        (Spectrum(np.array([1.0, 2.0, 3.0])), "gaussian", 2.5, 4000, 9),
        (Spectrum(np.array([1.0, 2.0, 3.0])), "gaussian", 3.5, 4000, 9),
    ])
    def test_expected_size(self, s, law, n, trials, seed):
        # on diag_exp gamma_n is far from n (100 at d=10, n=5), so sizes drawn
        # from Poisson(gamma_n) would leave almost every trial outside the regime
        m = MeasureSpec(s, law)
        est = surrogate_expectation_oracle(lambda X: float(X.shape[0]), m, n, trials, seed)
        assert abs(float(est.z_score(n))) < 4.0

    @pytest.mark.parametrize("n", [5, 12])
    def test_thread_and_rerun_invariance_over_blocks(self, n):
        # d=10 gives 3-4 blocks of trials at either n
        m = MeasureSpec(make_profile("diag_exp", 10))

        def f(X):
            return np.array([X.shape[0], float(np.trace(pseudo_inverse(X.T @ X)))])

        a = surrogate_expectation_oracle(f, m, n, 1000, 29, threads=1)
        for threads in (1, 3):
            b = surrogate_expectation_oracle(f, m, n, 1000, 29, threads=threads)
            assert a.mean.tobytes() == b.mean.tobytes()
            assert a.std_error.tobytes() == b.std_error.tobytes()
            assert a.effective_sample_size == b.effective_sample_size


class TestMonteCarloEstimate:
    def test_zero_se_z_score(self):
        est = MonteCarloEstimate(np.array([5.0, 2.0, 3.0]), np.array([0.0, 0.0, 0.5]), 100)
        np.testing.assert_array_equal(est.z_score(2.0), [np.inf, 0.0, 2.0])
        assert float(MonteCarloEstimate(np.array(5.0), np.array(0.0), 100).z_score(2.0)) == np.inf


class TestSamplerUnder:
    def test_rademacher_entries_and_sizes(self):
        # the size pmf holds for every entry law
        m = MeasureSpec(Spectrum(np.ones(3)), "rademacher")
        samples, rate = sample_surrogate_under_batch(m, 1, 3000, None, 1)
        assert all(set(np.unique(X)) <= {-1.0, 1.0} for X in samples)
        counts = np.bincount([X.shape[0] for X in samples], minlength=4)
        assert counts.size == 4
        assert stats.chisquare(counts, 3000 * surrogate_size_pmf(m.spectrum, 1)).pvalue > 0.01
        assert 0 < rate <= 1

    def test_size_bounded_by_d(self):
        m = MeasureSpec(Spectrum(np.ones(3)))
        samples, _ = sample_surrogate_under_batch(m, 2, 20, None, 1)
        assert all(X.shape[0] <= 3 for X in samples)

    @pytest.mark.parametrize("law, digest, rate", [
        ("gaussian", "12bf1d4e600fd8cc", 1.0),
        ("rademacher", "69292877e627040a", 0.5175438596491229),
        ("uniform_pm_sqrt3", "1eefef7aebd6fe10", 0.17251461988304093),
    ], ids=["gaussian", "rademacher", "uniform_pm_sqrt3"])
    def test_pinned_output(self, law, digest, rate):
        # sha256 of the sizes and bytes of one batch: the size draw and the
        # per-size draw order are part of the sampler's stream
        m = MeasureSpec(make_profile("diag_exp", 6), law)
        samples, r = sample_surrogate_under_batch(m, 3, 40, None, 41)
        h = hashlib.sha256()
        for X in samples:
            h.update(np.int64(X.shape[0]).tobytes())
            h.update(np.ascontiguousarray(X).tobytes())
        assert (h.hexdigest()[:16], r) == (digest, rate)

    def test_size_frequencies_match_pmf(self):
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0])))
        pmf = surrogate_size_pmf(m.spectrum, 1)
        samples, _ = sample_surrogate_under_batch(m, 1, 20_000, None, 29)
        counts = np.bincount([s.shape[0] for s in samples], minlength=3)
        chi2 = stats.chisquare(counts, 20_000 * pmf)
        assert chi2.pvalue > 0.01

    def test_batch_mean_projection(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        samples, rate = sample_surrogate_under_batch(m, 1, 8000, None, 31)
        mats = np.stack([projection_complement(X) for X in samples])
        mean = mats.mean(axis=0)
        se = mats.std(axis=0, ddof=1) / math.sqrt(len(samples))
        target = np.diag(1.0 / (1.0 * np.ones(2) + 1.0))  # gamma = 1 at n=1, d=2
        assert np.max(np.abs((mean - target) / np.where(se > 0, se, np.inf))) < 4.0
        assert rate == 1.0  # no row rejected
        _, rate = sample_surrogate_under_batch(MeasureSpec(m.spectrum, "uniform_pm_sqrt3"),
                                               1, 8000, None, 31)
        assert 0 < rate < 1


class TestChainTarget:
    @pytest.mark.parametrize("law", ["rademacher", "uniform_pm_sqrt3"])
    @pytest.mark.parametrize("s, n, num", [
        (Spectrum(np.array([4.0, 2.0, 1.0, 0.5])), 2, 8000),
        (make_profile("diag_exp", 10, 1.0, 0.01), 5, 4000),
    ], ids=["d4", "diag_exp_d10"])
    def test_projection_and_sizes_at_d_ge_2(self, law, s, n, num):
        # the bounded laws' row-by-row draws against the surrogate's targets,
        # which do not depend on the law: det^2 expansions read only the rows'
        # second moments. Each family member is tested at the Bonferroni
        # split of a single 3-SE test's level
        samples, _ = sample_surrogate_under_batch(MeasureSpec(s, law), n, num, None, 59)
        z = projection_and_size_z(samples, s, n)
        assert np.max(np.abs(z)) < stats.norm.isf(stats.norm.sf(3.0) / z.size)


def projection_diagonals(samples, d):
    """diag(I - X^+ X) of each sample, from the Q factor of X^T per size."""
    ks = np.array([X.shape[0] for X in samples])
    diags = np.ones((len(samples), d))
    for k in np.unique(ks[ks > 0]):
        idx = np.flatnonzero(ks == k)
        Q = np.linalg.qr(np.swapaxes(np.stack([samples[i] for i in idx]), 1, 2))[0]
        diags[idx] = 1.0 - np.sum(Q**2, axis=2)
    return diags, ks


def projection_and_size_z(samples, s, n):
    """z-scores of the d diagonal entries of the mean of I - X^+ X against
    lambda_n / (tau_i + lambda_n), then of the size frequencies against
    surrogate_size_pmf on the sizes with at least 5 expected draws."""
    d, num = s.dim, len(samples)
    diags, ks = projection_diagonals(samples, d)
    lam = surrogate_params(s, n).lambda_n
    z = list((diags.mean(axis=0) - lam / (s.eigenvalues + lam))
             / (diags.std(axis=0, ddof=1) / math.sqrt(num)))
    pmf = surrogate_size_pmf(s, n)
    cells = np.flatnonzero(num * pmf >= 5)
    freq = np.bincount(ks, minlength=d + 1)[cells] / num
    z += list((freq - pmf[cells]) / np.sqrt(pmf[cells] * (1 - pmf[cells]) / num))
    return np.array(z)


class TestTiltedDraw:
    def test_column_sets_match_enumeration(self):
        # the column sets _by_size hands to _tilted, over all 32 subsets S of
        # d = 5 columns: P(S) = prod_{i in S} p_i prod_{i not in S} q_i
        s = Spectrum(np.array([0.3, 1.0, 2.0, 0.5, 4.0]))
        tau, lam, num = s.eigenvalues, solve_lambda(s, 2.0), 50_000
        p, q = tau / (tau + lam), lam / (tau + lam)
        counts = np.zeros(32, dtype=int)

        def draw(idx, cols):
            assert np.all(np.diff(cols, axis=1) > 0)
            np.add.at(counts, np.sum(1 << cols, axis=1), 1)
            return np.zeros((idx.size, cols.shape[1], 5))

        designs._by_size(MeasureSpec(s), surrogate_params(s, 2.0), num, trial_rng(4, 0), draw)
        counts[0] = num - counts.sum()  # draw is not called for the empty set
        bits = (np.arange(32)[:, None] >> np.arange(5)) & 1
        law = np.prod(np.where(bits == 1, p, q), axis=1)
        assert stats.chisquare(counts, num * law).pvalue > 0.01

    def test_block_second_moment(self):
        # with k = d every column is in S; E[Z_S^T Z_S] = (m4 + k - 1) I, m4
        # the law's fourth moment: (k + 2) I for gaussian rows
        k, num = 3, 40_000
        cols = np.tile(np.arange(k), (num, 1))
        for law, m4 in (("gaussian", 3.0), ("rademacher", 1.0), ("uniform_pm_sqrt3", 9 / 5)):
            m = MeasureSpec(Spectrum(np.ones(k)), law)
            Z, _ = designs._tilted(m, cols, trial_rng(5, 0))
            prods = np.einsum("bki,bkj->bij", Z, Z)
            # Rademacher diagonals are k on every draw: SE 0, scored 0 only if exact
            est = MonteCarloEstimate(prods.mean(axis=0), prods.std(axis=0, ddof=1) / math.sqrt(num),
                                     num)
            assert np.max(np.abs(est.z_score((m4 + k - 1) * np.eye(k)))) < 4.0, law

    @pytest.mark.parametrize("law", designs.ENTRY_LAWS)
    def test_whole_block_matches_gather_and_scatter(self, law):
        # k = d takes Z itself as the block; the general path gathers the S
        # columns and scatters the tilted block back, from the same stream
        def reference(m, cols, rng):
            num, k = cols.shape
            Z = designs._entries(m.entry_law, (num, k, m.dim), rng)
            at = np.broadcast_to(cols[:, None, :], (num, k, k))
            block = np.take_along_axis(Z, at, axis=2)
            proposed = num * k
            if m.entry_law == "gaussian":
                Q, G = np.linalg.qr(block)
                H = Q * np.where(np.diagonal(G, axis1=1, axis2=2) < 0, -1.0, 1.0)[:, None, :]
                block = H @ designs._bartlett(num, k, k + 2, rng)
            else:
                block, proposed = designs._rows(m.entry_law, num, k, rng)
            np.put_along_axis(Z, at, block, axis=2)
            return apply_sqrt(m.spectrum, Z), proposed

        m = MeasureSpec(make_profile("diag_exp", 6), law)
        cols = np.tile(np.arange(6), (40, 1))
        Z, p = designs._tilted(m, cols, trial_rng(9, 0))
        ref, q = reference(m, cols, trial_rng(9, 0))
        assert p == q and np.array_equal(Z, ref)

    @pytest.mark.parametrize("k", [2, 3])
    def test_rademacher_block_matches_enumeration(self, k):
        # all 2^(k^2) sign matrices, weighted by det^2: the singular ones are
        # never drawn, and the others against their exact probabilities
        num = 100_000
        cols = np.tile(np.arange(k), (num, 1))
        Z, _ = designs._tilted(MeasureSpec(Spectrum(np.ones(k)), "rademacher"), cols,
                               trial_rng(61, k))
        cells = np.sum((Z.reshape(num, -1) > 0) << np.arange(k * k), axis=1)
        counts = np.bincount(cells, minlength=2 ** (k * k))
        signs = ((np.arange(2 ** (k * k))[:, None] >> np.arange(k * k)) & 1) * 2.0 - 1.0
        w = np.round(np.linalg.det(signs.reshape(-1, k, k)) ** 2)
        assert np.all(counts[w == 0] == 0)
        assert stats.chisquare(counts[w > 0], num * w[w > 0] / w.sum()).pvalue > 0.01

    def test_rademacher_trace_matches_enumeration(self):
        # E tr((X^T X)^+) at tau = (1, 2, 3), n = 2 depends on the law:
        # 0.487327... for Rademacher rows (TestRademacherExact in
        # test_surrogate), 0.812150... for Gaussian ones
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0, 3.0])), "rademacher")
        samples, _ = sample_surrogate_under_batch(m, 2, 20_000, None, 67)
        tr = np.array([np.sum(pseudo_inverse(X) ** 2) for X in samples])
        se = tr.std(ddof=1) / math.sqrt(tr.size)
        assert abs(tr.mean() - 0.4873271090869) < 4 * se

    def test_reruns_are_byte_identical(self):
        m = MeasureSpec(make_profile("diag_exp", 6))
        a, _ = sample_surrogate_under_batch(m, 3, 200, None, 8)
        b, _ = sample_surrogate_under_batch(m, 3, 200, 7, 8)  # the fourth argument is ignored
        for X, Y in zip(a, b, strict=True):
            assert X.tobytes() == Y.tobytes()
        assert one_draw(m, 9.0, 8).tobytes() == \
            sample_surrogate_under_batch(m, 9.0, 1, 5, 8)[0][0].tobytes()

    def test_figure_scale_projection_and_sizes(self):
        # d = 100 at n = 50: the 100 diagonal entries of E[I - X^+ X] and the
        # size frequencies, each family member at the Bonferroni split of a
        # single 3-SE test's level
        s = make_profile("diag_exp", 100)
        for law, num in (("gaussian", 4000), ("rademacher", 1500)):
            samples, _ = sample_surrogate_under_batch(MeasureSpec(s, law), 50, num, None, 47)
            z = projection_and_size_z(samples, s, 50)
            assert np.max(np.abs(z)) < stats.norm.isf(stats.norm.sf(3.0) / z.size), law


class TestChainWeight:
    @pytest.mark.parametrize("size", [4, 6])
    def test_singular_sign_blocks_get_zero_weight(self, size):
        # det of a +-1 matrix is a multiple of 2^(size-1), so |det| < 1 is
        # exact singularity
        Z = trial_rng(53, size).integers(0, 2, size=(4000, size, size)) * 2.0 - 1.0
        singular = np.abs(np.linalg.det(Z)) < 1.0
        assert 0 < np.sum(singular) < 4000
        lw = designs.log_det_gram(Z)
        assert np.all(lw[singular] == -np.inf)
        assert np.all(np.isfinite(lw[~singular]))


class TestSamplerOver:
    def test_expected_total_rows(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        ks = [one_draw(m, 5.0, seed).shape[0] for seed in range(3000)]
        se = np.std(ks, ddof=1) / math.sqrt(len(ks))
        assert abs(np.mean(ks) - 5.0) < 3 * se

    def test_d1_moment_ratio(self):
        # at d = n = 1 the sample is the block alone, with density prop. to
        # x^2 mu(x): its second moment is E[x^4]/E[x^2], drawn exactly for
        # both laws
        rng = trial_rng(101, 0)
        for law, second_moment, num in (("gaussian", 3.0, 1000), ("uniform_pm_sqrt3", 9 / 5, 600)):
            m = MeasureSpec(Spectrum(np.ones(1)), law)
            vals = [one_draw(m, 1.0, rng)[0, 0] ** 2 for _ in range(num)]
            se = np.std(vals, ddof=1) / math.sqrt(num)
            assert abs(np.mean(vals) - second_moment) < 3 * se, law

    def test_permutation_exchangeability(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        first_norms = [np.linalg.norm(one_draw(m, 4.0, s)[0]) for s in range(1500)]
        # the appended rows are plain iid; under exchangeability the first row
        # must be indistinguishable from fresh iid norms mixed with block rows
        ks = stats.ks_2samp(first_norms[:750], first_norms[750:])
        assert ks.pvalue > 0.01

    @pytest.mark.parametrize("n", [3.0, 3.4, 9.5])
    def test_assembly_matches_split_vstack(self, n):
        # the n >= d designs, block rows then extra rows in one permutation,
        # are bit for bit those of splitting the extra rows with np.split and
        # joining each design with np.vstack, on the same stream
        m = MeasureSpec(make_profile("diag_exp", 3), "rademacher")
        num, d = 300, 3

        def blocks(rng):
            return lambda idx, cols: sample_iid(m, idx.size * d, rng).reshape(idx.size, d, d)

        rng = trial_rng(29, 0)
        out = designs._by_size(m, surrogate_params(m.spectrum, n), num, rng, blocks(rng))
        ref_rng = trial_rng(29, 0)
        ref = list(blocks(ref_rng)(np.arange(num), None))
        extra = ref_rng.poisson(n - d, size=num)
        rows = np.split(sample_iid(m, int(np.sum(extra)), ref_rng), np.cumsum(extra)[:-1])
        ref = [np.vstack([X, R])[ref_rng.permutation(d + R.shape[0])] for X, R in zip(ref, rows)]
        assert len(out) == num
        for X, Y in zip(out, ref):
            assert X.shape == Y.shape and X.tobytes() == Y.tobytes()
        assert rng.random() == ref_rng.random()  # the streams end at one state

    def test_rademacher_entries(self):
        m = MeasureSpec(Spectrum(np.ones(3)), "rademacher")
        for seed in range(5):
            X = one_draw(m, 6.0, seed)
            assert X.shape[0] >= 3 and X.shape[1] == 3
            assert set(np.unique(X)) <= {-1.0, 1.0}


class TestRunTrials:
    def test_thread_invariance(self):
        f = lambda rng, i: rng.standard_normal(3)
        a = run_trials(f, 50, 5, threads=1)
        b = run_trials(f, 50, 5, threads=8)
        np.testing.assert_array_equal(np.stack(a), np.stack(b))

    def test_index_order(self):
        out = run_trials(lambda rng, i: i, 20, 0, threads=4)
        assert out == list(range(20))

    def test_matches_block_streams_at_any_thread_count(self):
        # runs past one block, with a Poisson size and a design per trial;
        # the trials of block b share stream (seed, 2^63 | b) in index order
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0])))

        def f(rng, i):
            return sample_iid(m, int(rng.poisson(2.0)), rng).sum() + i

        ref = []
        for lo in range(0, 70, TRIAL_BLOCK):
            rng = trial_rng(9, BLOCK_KEY | lo // TRIAL_BLOCK)
            ref += [f(rng, i) for i in range(lo, min(lo + TRIAL_BLOCK, 70))]
        assert run_trials(f, 70, 9, threads=1) == ref
        assert run_trials(f, 70, 9, threads=3) == ref


class TestRunBlockStreams:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_resumes_at_a_block_boundary(self, threads):
        def draw(rng, lo, hi):
            return lo, hi, rng.standard_normal(hi - lo)

        full = run_block_streams(draw, 10, 3, 4, threads)
        assert [(lo, hi) for lo, hi, _ in full] == [(0, 4), (4, 8), (8, 10)]
        np.testing.assert_array_equal(full[1][2], trial_rng(3, BLOCK_KEY | 1).standard_normal(4))
        tail = run_block_streams(draw, 10, 3, 4, threads, start=4)
        assert [(lo, hi) for lo, hi, _ in tail] == [(4, 8), (8, 10)]
        for a, b in zip(full[1:], tail, strict=True):
            np.testing.assert_array_equal(a[2], b[2])

    def test_start_must_be_a_block_boundary(self):
        with pytest.raises(ValueError):
            run_block_streams(lambda rng, lo, hi: None, 10, 3, 4, 1, start=2)


class TestRunBlocks:
    # run_block_streams as the engine: blocks, order, workers and the BLAS hold
    @staticmethod
    def bounds(rng, lo, hi):
        return lo, hi

    def test_fixed_blocks_in_index_order(self):
        for threads in (1, 3):
            out = run_block_streams(self.bounds, 10, 3, 4, threads)
            assert out == [(0, 4), (4, 8), (8, 10)]
        assert run_block_streams(self.bounds, 0, 3, 4, 2) == []

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            run_block_streams(self.bounds, 10, 3, 0, 1)

    @pytest.mark.skipif(not _openblas_threads(), reason="no OpenBLAS thread control found")
    @pytest.mark.parametrize("threads", [1, 3])
    def test_blas_held_at_one_thread_and_restored(self, threads):
        # numpy's and scipy's wheels each bundle an OpenBLAS build; the
        # workers' LAPACK calls run on both, so both are held
        apis = _openblas_threads()
        assert set(apis) == {"numpy", "scipy"}

        def counts(rng=None, lo=0, hi=0):
            return [get() for get, _ in apis.values()]

        before = counts()
        for _, put in apis.values():
            put(2)
        try:
            inside = run_block_streams(counts, 6, 3, 2, threads)
            assert inside == [[1, 1]] * 3
            assert counts() == [2, 2]

            def boom(rng, lo, hi):
                raise RuntimeError("trial failed")

            with pytest.raises(RuntimeError):
                run_block_streams(boom, 6, 3, 2, threads)
            assert counts() == [2, 2]
        finally:
            for (_, put), count in zip(apis.values(), before):
                put(count)
