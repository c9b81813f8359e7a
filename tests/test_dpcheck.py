import gc
import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from ddlab.covariance import Spectrum
from ddlab.designs import MeasureSpec, sample_iid
from ddlab.dpcheck import (
    FAMILY_LEVEL,
    LAPLACE_MAX,
    _bonferroni_z,
    _cofactors,
    _entry_vectors,
    _minor_dets,
    _select_minors,
    gaussian_entries_generator,
    gen_product,
    gen_sum,
    poisson_gram_generator,
    scaled_fixed_generator,
    scenario_generator,
    verify_dp,
    verify_normalization,
)
from ddlab.parallel import trial_rng

from dp_generators import fixed_generator, fixed_k_gram_generator

TRIALS = 20_000


class TestVerifyDp:
    def test_fixed_matrix_consistent(self):
        report = verify_dp(fixed_generator(np.diag([1.0, 2.0, 3.0])), [1, 2, 3], TRIALS, 1)
        assert report.verdict == "consistent"
        assert report.max_abs_z == pytest.approx(0.0, abs=1e-8)

    def test_gaussian_entries_consistent(self):
        report = verify_dp(gaussian_entries_generator(3), [1, 2, 3], TRIALS, 2)
        assert report.verdict == "consistent"

    def test_rank1_scaled_consistent(self):
        rng = np.random.default_rng(3)
        Z = np.outer(rng.standard_normal(3), rng.standard_normal(3))
        report = verify_dp(scaled_fixed_generator(Z, [0.0, 2.0]), [1, 2], TRIALS, 3)
        assert report.verdict == "consistent"

    def test_rank2_scaled_violated(self):
        # s*Z with rank(Z)=2 and Var[s]>0: E[s^2] = 2 but E[s]^2 = 1, so
        # every 2x2 minor determinant is off by a factor of 2
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
        report = verify_dp(scaled_fixed_generator(Z, [0.0, 2.0]), [2], 100_000, 4)
        assert report.verdict == "violated"
        assert report.max_abs_z > 5.0

    def test_trivial_trials_rejected(self):
        with pytest.raises(ValueError):
            verify_dp(gaussian_entries_generator(2), [1], 100, 1)

    def test_no_minor_sizes_rejected(self):
        with pytest.raises(ValueError, match="minor size"):
            verify_dp(gaussian_entries_generator(2), [], 10_000, 1)

    def test_minor_subsampling_cap(self):
        report = verify_dp(fixed_generator(np.eye(4)), [1, 2, 3, 4], 10_000, 5, max_minors=10)
        assert len(report.records) == 10


class TestThreshold:
    # the threshold is scipy.special.ndtri, so that ddlab need not import
    # scipy.stats; it must equal scipy.stats.norm.ppf bit for bit
    def test_equals_norm_ppf(self):
        for m in range(1, 201):
            assert _bonferroni_z(m) == float(stats.norm.ppf(1 - FAMILY_LEVEL / (2 * m)))

    @pytest.mark.parametrize("m", [1, 2, 3, 64, 200])
    def test_report_threshold_equals_norm_ppf(self, m):
        report = verify_dp(fixed_generator(np.diag([1.0, 2.0, 3.0, 4.0, 5.0])), [1, 2, 3],
                           10_000, 6, max_minors=m)
        assert len(report.records) == m
        assert report.z_threshold == float(stats.norm.ppf(1 - FAMILY_LEVEL / (2 * m)))


class TestSelectMinors:
    @staticmethod
    def enumerated(d, sizes, max_minors, seed):
        # reference: list every (I, J) pair, then subsample
        pairs = []
        for k in sizes:
            subs = list(combinations(range(d), k))
            pairs.extend((I, J) for I in subs for J in subs)
        if len(pairs) > max_minors:
            idx = trial_rng(seed, 0xD5).choice(len(pairs), size=max_minors, replace=False)
            pairs = [pairs[i] for i in sorted(idx)]
        return pairs

    @pytest.mark.parametrize("sizes", [range(1, 7), [3, 1], [6]])
    def test_matches_enumeration(self, sizes):
        # all sizes at d=6 give C(12, 6) - 1 = 923 pairs, more than the cap
        for seed in (1, 2):
            assert _select_minors(6, sizes, 200, seed) == self.enumerated(6, sizes, 200, seed)

    def test_large_d_is_not_enumerated(self):
        start = time.perf_counter()
        pairs = _select_minors(16, range(1, 17), 200, 3)
        assert time.perf_counter() - start < 1.0
        assert len(pairs) == len(set(pairs)) == 200
        assert all(len(I) == len(J) and list(I) == sorted(set(I)) for I, J in pairs)

    def test_pair_count_past_int64(self):
        # C(80, 40) - 1 > 2^63 pairs at d = 40: too many for rng.choice
        assert math.comb(80, 40) - 1 >= 2**63
        pairs = _select_minors(40, range(1, 41), 200, 3)
        assert pairs == _select_minors(40, range(1, 41), 200, 3)
        assert len(pairs) == len(set(pairs)) == 200
        assert all(len(I) == len(J) and list(I) == sorted(set(I)) for I, J in pairs)
        assert len({len(I) for I, _ in pairs}) > 1

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            _select_minors(3, [4], 200, 1)


class TestDeltaMethodSe:
    def test_cofactors_of_invertible_matrix(self):
        M = np.random.default_rng(21).standard_normal((4, 4))
        np.testing.assert_allclose(_cofactors(M), np.linalg.det(M) * np.linalg.inv(M).T,
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_cofactors_are_det_gradient_of_singular_matrix(self, rank):
        rng = np.random.default_rng(22 + rank)
        M = rng.standard_normal((3, rank)) @ rng.standard_normal((rank, 3))
        h = 1e-5
        grad = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = h
                grad[i, j] = (np.linalg.det(M + E) - np.linalg.det(M - E)) / (2 * h)
        np.testing.assert_allclose(_cofactors(M), grad, atol=1e-8)

    def test_scalar_minor(self):
        assert _cofactors(np.array([[5.0]])).tolist() == [[1.0]]

    def test_se_agrees_with_bootstrap(self):
        g = gen_sum(fixed_generator(np.diag([1.0, 2.0, 3.0])), gaussian_entries_generator(3))
        trials, seed = 10_000, 23
        report = verify_dp(g, [1, 2, 3], trials, seed)
        # reference: bootstrap SE of det(mean) on the second stream
        stack2 = g.draw_stack(trials, seed + 0x9E3779B9)
        rng = np.random.default_rng(24)
        picks = [rng.integers(trials, size=trials) for _ in range(1000)]
        for I in [(0,), (0, 1), (0, 1, 2)]:
            rec = [r for r in report.records if r.rows == r.cols == I][0]
            sub = stack2[:, list(I)][:, :, list(I)]
            boot = np.std([np.linalg.det(sub[p].mean(axis=0)) for p in picks], ddof=1)
            assert rec.det_of_mean_se == pytest.approx(boot, rel=0.15)


class TestMinorDets:
    # d x d stacks whose minors reach two sizes past the switch to LAPACK
    D = LAPLACE_MAX + 2

    @classmethod
    def minor(cls, k, seed):
        rng = np.random.default_rng(seed)
        return (tuple(sorted(rng.choice(cls.D, k, replace=False).tolist())),
                tuple(sorted(rng.choice(cls.D, k, replace=False).tolist())))

    @staticmethod
    def gathered(stack, I, J):
        return stack[:, list(I)][:, :, list(J)]

    @pytest.mark.parametrize("k", range(1, LAPLACE_MAX + 3))
    def test_random_stack(self, k):
        stack = np.random.default_rng(50 + k).standard_normal((300, self.D, self.D))
        I, J = self.minor(k, 60 + k)
        A = self.gathered(stack, I, J)
        got = _minor_dets(_entry_vectors(stack), self.D, I, J)
        # rounding is relative to Hadamard's bound, the product of row norms
        hadamard = np.prod(np.linalg.norm(A, axis=2), axis=1)
        assert got.shape == (300,)
        assert np.all(np.abs(got - np.linalg.det(A)) <= 1e-13 * hadamard)

    @pytest.mark.parametrize("k", range(2, LAPLACE_MAX + 3))
    def test_rank1_stack_under_noise_floor(self, k):
        # verify_dp reads |det| below 1e-10 * scale^k as zero
        rng = np.random.default_rng(70 + k)
        u, v = (10 * rng.standard_normal((300, self.D)) for _ in range(2))
        stack = u[:, :, None] * v[:, None, :]
        I, J = self.minor(k, 80 + k)
        scale = np.maximum(1.0, np.max(np.abs(self.gathered(stack, I, J)), axis=(1, 2)))
        assert np.all(np.abs(_minor_dets(_entry_vectors(stack), self.D, I, J))
                      < 1e-10 * scale**k)

    @pytest.mark.parametrize("k", [1, 2, LAPLACE_MAX, LAPLACE_MAX + 1])
    def test_broadcast_fixed_stack(self, k):
        Z = np.random.default_rng(90 + k).standard_normal((self.D, self.D))
        I, J = self.minor(k, 91 + k)
        got = _minor_dets(_entry_vectors(np.broadcast_to(Z, (50, self.D, self.D))), self.D, I, J)
        assert np.all(got == got[0])
        assert got[0] == pytest.approx(np.linalg.det(Z[np.ix_(I, J)]), rel=1e-12)


def gathered_verify_dp(g, minor_sizes, trials, seed, max_minors=200):
    """verify_dp with each minor gathered from the (T, d, d) stacks and its
    determinants taken in one np.linalg.det call: (pairs, z, verdict)."""
    pairs = _select_minors(g.dim, minor_sizes, max_minors, seed)
    stack1 = g.draw_stack(trials, seed)
    stack2 = g.draw_stack(trials, seed + 0x9E3779B9)
    mean2 = np.mean(stack2, axis=0)
    threshold = _bonferroni_z(len(pairs))
    zs = []
    for I, J in pairs:
        rows, cols = list(I), list(J)
        dets1 = np.linalg.det(stack1[:, rows][:, :, cols])
        mc_se = np.std(dets1, ddof=1) / math.sqrt(trials)
        mean_minor = mean2[np.ix_(I, J)]
        det2 = np.linalg.det(mean_minor)
        linear = stack2[:, rows][:, :, cols].reshape(trials, -1) @ _cofactors(mean_minor).ravel()
        denom = math.hypot(mc_se, np.std(linear, ddof=1) / math.sqrt(trials))
        diff = np.mean(dets1) - det2
        noise_floor = 1e-10 * max(1.0, float(np.max(np.abs(mean_minor)))) ** len(I)
        zs.append(diff / denom if denom > 0 and abs(diff) > noise_floor else 0.0)
    verdict = "violated" if max(map(abs, zs)) > threshold else "consistent"
    return pairs, np.array(zs), verdict


class TestAgainstGatheredDets:
    M = MeasureSpec(Spectrum(np.ones(6)))

    @pytest.mark.parametrize("name, d, sizes, max_minors", [
        *[(name, 3, [1, 2, 3], 200)
          for name in ("gaussian_entries", "rank1_scaled", "rank2_scaled_counterexample",
                       "closure_sum", "closure_product")],
        ("gaussian_entries", 6, range(1, 7), 200),
        ("poisson_gram", 6, range(1, 7), 200),
        # both sides of the kernel's size switch in one report
        ("closure_sum", LAPLACE_MAX + 1, [LAPLACE_MAX, LAPLACE_MAX + 1], 12),
    ])
    def test_same_pairs_verdict_and_z(self, name, d, sizes, max_minors):
        m = MeasureSpec(Spectrum(np.ones(d)))
        g = scenario_generator(name, m, 2.0, 101)
        report = verify_dp(g, sizes, 10_000, 102, max_minors=max_minors)
        pairs, z, verdict = gathered_verify_dp(g, sizes, 10_000, 102, max_minors)
        assert [(r.rows, r.cols) for r in report.records] == pairs
        assert report.verdict == verdict
        np.testing.assert_allclose([r.z for r in report.records], z, rtol=0, atol=1e-9)

    def test_leaves_no_reference_cycles(self):
        # a cycle (say, a recursive closure over a shared table) would hold
        # every table until the collector runs, at up to C(k, k/2) trial
        # vectors each
        g = scenario_generator("closure_sum", self.M, 2.0, 103)
        gc.collect()
        gc.disable()
        try:
            verify_dp(g, range(1, 7), 10_000, 104, max_minors=40)
            assert gc.collect() == 0
        finally:
            gc.enable()


BLOCK_KEY = 2**63


def block_rngs(trials, d, seed):
    """(count, rng) of every block of a run: block b holds up to
    2^15 // d^2 trials and draws from the stream keyed (seed, 2^63 | b)."""
    size = 2**15 // (d * d)
    return [(min(size, trials - lo), trial_rng(seed, BLOCK_KEY | b))
            for b, lo in enumerate(range(0, trials, size))]


def gram_loop(rows, K):
    """Per-trial sums of row outer products, added in row order."""
    G = np.zeros((K.size, rows.shape[1], rows.shape[1]))
    for row, t in zip(rows, np.repeat(np.arange(K.size), K)):
        G[t] += np.outer(row, row)
    return G


def normalization_reference(m, gamma, trials, seed, det):
    """verify_normalization's det(X X^T) of every trial, block by block,
    with ``det`` taken of one k x k Gram matrix at a time."""
    d = m.dim
    root = np.sqrt(m.spectrum.eigenvalues)
    vals = []
    for c, rng in block_rngs(trials, d, seed):
        K = rng.poisson(gamma, size=c)
        v = np.where(K == 0, 1.0, 0.0)
        for k in range(1, d + 1):
            hit = np.flatnonzero(K == k)
            X = rng.standard_normal((hit.size * k, d)) * root
            for j, t in enumerate(hit):
                Xt = X[j * k:(j + 1) * k]
                v[t] = det(Xt @ Xt.T)
        vals.append(v)
    return np.concatenate(vals)


class TestDrawStack:
    EIGS = np.array([2.0, 1.0])
    Z = np.arange(4.0).reshape(2, 2)
    # trials cross the boundary of the 8192-trial blocks at d = 2
    TRIALS = 10_000

    @classmethod
    def cases(cls):
        m, Z = MeasureSpec(Spectrum(cls.EIGS)), cls.Z
        root = np.sqrt(m.spectrum.eigenvalues)
        vals = np.array([0.0, 1.0, 2.0])

        def poisson(rng, c):
            K = rng.poisson(2.0, size=c)
            return gram_loop(rng.standard_normal((K.sum(), 2)) * root, K)

        def fixed_k(rng, c):
            X = rng.standard_normal((c, 3, 2)) * root
            return np.swapaxes(X, 1, 2) @ X

        # (generator, reference draw of one block)
        return {
            "fixed": (fixed_generator(Z), lambda rng, c: np.repeat(Z[None], c, axis=0)),
            "gaussian_entries": (gaussian_entries_generator(2),
                                 lambda rng, c: rng.standard_normal((c, 2, 2))),
            "scaled_fixed": (scaled_fixed_generator(Z, vals),
                             lambda rng, c: vals[rng.integers(3, size=c)][:, None, None] * Z),
            "poisson_gram": (poisson_gram_generator(m, 2.0), poisson),
            "fixed_k_gram": (fixed_k_gram_generator(m, 3), fixed_k),
            "gen_sum": (gen_sum(fixed_generator(Z), gaussian_entries_generator(2)),
                        lambda rng, c: Z + rng.standard_normal((c, 2, 2))),
            "gen_product": (gen_product(gaussian_entries_generator(2),
                                        gaussian_entries_generator(2)),
                            lambda rng, c: (rng.standard_normal((c, 2, 2))
                                            @ rng.standard_normal((c, 2, 2)))),
        }

    @pytest.mark.parametrize("name", ["fixed", "gaussian_entries", "scaled_fixed", "poisson_gram",
                                      "fixed_k_gram", "gen_sum", "gen_product"])
    def test_matches_block_reference(self, name):
        g, draw = self.cases()[name]
        ref = np.concatenate([draw(rng, c) for c, rng in block_rngs(self.TRIALS, 2, 31)])
        np.testing.assert_array_equal(g.draw_stack(self.TRIALS, 31), ref)

    def test_poisson_gram_sums_are_per_trial_grams(self):
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0, 3.0])))
        G = poisson_gram_generator(m, 0.8).sample(trial_rng(32, 0), 500)
        rng = trial_rng(32, 0)
        K = rng.poisson(0.8, size=500)
        X = sample_iid(m, int(K.sum()), rng)
        ends = np.cumsum(K)
        assert np.any(K == 0) and np.any(K > 1)
        for t in range(500):
            Xt = X[ends[t] - K[t]:ends[t]]
            np.testing.assert_allclose(G[t], Xt.T @ Xt, rtol=1e-13, atol=1e-13)
        assert not np.any(G[K == 0])

    def test_block_stream_is_apart_from_trial_streams(self):
        first = gaussian_entries_generator(2).draw_stack(1, 33)[0]
        np.testing.assert_array_equal(first, trial_rng(33, BLOCK_KEY).standard_normal((2, 2)))
        for index in (0, 0xD5):
            assert not np.array_equal(first, trial_rng(33, index).standard_normal((2, 2)))

    def test_reports_do_not_depend_on_threads(self, monkeypatch):
        # 10^4 trials at d = 3 span three 3640-trial blocks
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0, 3.0])))
        g = gen_sum(fixed_generator(np.eye(3)), gaussian_entries_generator(3))
        runs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("DDLAB_THREADS", threads)
            runs.append((verify_dp(g, [1, 2, 3], 10_000, 34),
                         verify_dp(poisson_gram_generator(m, 2.0), [1, 2, 3], 10_000, 35),
                         verify_normalization(m, 1.0, 10_000, 36)))
        assert runs[0] == runs[1]


class TestClosure:
    def test_fixed_plus_fixed(self):
        g = gen_sum(fixed_generator(np.eye(2)), fixed_generator(2 * np.eye(2)))
        report = verify_dp(g, [1, 2], 10_000, 7)
        assert report.verdict == "consistent"

    def test_rank1_plus_gaussian(self):
        rng = np.random.default_rng(8)
        Z = np.outer(rng.standard_normal(3), rng.standard_normal(3))
        g = gen_sum(scaled_fixed_generator(Z, [0.0, 2.0]), gaussian_entries_generator(3))
        report = verify_dp(g, [1, 2, 3], TRIALS, 8)
        assert report.verdict == "consistent"

    def test_gaussian_product(self):
        g = gen_product(gaussian_entries_generator(2), gaussian_entries_generator(2))
        report = verify_dp(g, [1, 2], TRIALS, 9)
        assert report.verdict == "consistent"

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gen_sum(fixed_generator(np.eye(2)), fixed_generator(np.eye(3)))
        with pytest.raises(ValueError):
            gen_product(fixed_generator(np.eye(2)), fixed_generator(np.eye(3)))


class TestPoissonIdentity:
    def test_scalar_case(self):
        m = MeasureSpec(Spectrum(np.ones(1)))
        report = verify_dp(poisson_gram_generator(m, 2.0), [1], TRIALS, 10)
        assert report.verdict == "consistent"
        # full minor expectation is det(gamma Sigma) = 2
        full = report.records[0]
        assert abs(full.mc_mean - 2.0) < 4 * full.mc_se

    def test_d2_gram_target(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        report = verify_dp(poisson_gram_generator(m, 3.0), [1, 2], 50_000, 11)
        assert report.verdict == "consistent"
        full = [r for r in report.records if r.size == 2 and r.rows == r.cols][0]
        assert abs(full.mc_mean - 9.0) < 4 * full.mc_se

    def test_fixed_k_violates_with_predicted_factor(self):
        # fixed K = d = 2: E[det] = (d!/d^d) det(E) = det(E)/2
        m = MeasureSpec(Spectrum(np.ones(2)))
        report = verify_dp(fixed_k_gram_generator(m, 2), [2], 100_000, 12)
        assert report.verdict == "violated"
        full = [r for r in report.records if r.rows == (0, 1) and r.cols == (0, 1)][0]
        assert full.mc_mean / full.det_of_mean == pytest.approx(0.5, abs=0.05)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            poisson_gram_generator(MeasureSpec(Spectrum(np.ones(2))), 0.0)


class TestScenarioGenerator:
    M = MeasureSpec(Spectrum(np.array([3.0, 2.0, 1.0])))

    @pytest.mark.parametrize("name, reference", [
        ("gaussian_entries", lambda m, rng: gaussian_entries_generator(3)),
        ("rank1_scaled", lambda m, rng: scaled_fixed_generator(
            np.outer(rng.standard_normal(3), rng.standard_normal(3)), [0.0, 2.0])),
        ("rank2_scaled_counterexample", lambda m, rng: scaled_fixed_generator(
            rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3)), [0.0, 2.0])),
        ("closure_sum", lambda m, rng: gen_sum(scaled_fixed_generator(
            np.outer(rng.standard_normal(3), rng.standard_normal(3)), [0.0, 2.0]),
            gaussian_entries_generator(3))),
        ("closure_product", lambda m, rng: gen_product(gaussian_entries_generator(3),
                                                       gaussian_entries_generator(3))),
        ("poisson_gram", lambda m, rng: poisson_gram_generator(m, 1.5)),
    ])
    def test_matches_reference(self, name, reference):
        # fixed matrices come from the stream keyed (seed, 0xF1)
        g = scenario_generator(name, self.M, 1.5, 17)
        ref = reference(self.M, trial_rng(17, 0xF1))
        assert g.dim == 3
        np.testing.assert_array_equal(g.draw_stack(50, 18), ref.draw_stack(50, 18))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_generator("normalization", self.M, 1.0, 1)


class TestNormalization:
    def test_d1(self):
        m = MeasureSpec(Spectrum(np.array([1.0])))
        est, target = verify_normalization(m, 1.0, 50_000, 13)
        assert target == pytest.approx(2.0 * math.exp(-1.0))
        assert abs(float(est.z_score(target))) < 4.0

    def test_d2_diag(self):
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0])))
        est, target = verify_normalization(m, 1.0, 50_000, 14)
        assert target == pytest.approx(6.0 * math.exp(-1.0))
        assert abs(float(est.z_score(target))) < 4.0

    def test_matches_block_reference(self):
        # K = 0 gives 1 and K > d gives 0 without drawing rows; the trials of
        # each size k draw their rows together, k = 1..d in turn; a 2 x 2
        # determinant is the first-row expansion of _minor_dets
        m = MeasureSpec(Spectrum(np.array([1.0, 2.0])))
        vals = normalization_reference(m, 1.5, 10_000, 16, lambda G: G[0, 0] if len(G) == 1
                                       else G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0])
        est, _ = verify_normalization(m, 1.5, 10_000, 16)
        assert float(est.mean) == float(np.mean(vals))
        assert float(est.std_error) == float(np.std(vals, ddof=1) / math.sqrt(10_000))
        # an unweighted mean: every trial counts in full
        assert est.effective_sample_size == 10_000

    @pytest.mark.parametrize("d", [3, LAPLACE_MAX + 1])
    def test_gram_determinants_match_lapack(self, d):
        # both sides of the kernel's size switch: at gamma = d every size
        # k = 1..d is drawn
        m = MeasureSpec(Spectrum(np.arange(1.0, d + 1.0)))
        vals = normalization_reference(m, float(d), 400, 19, np.linalg.det)
        est, _ = verify_normalization(m, float(d), 400, 19)
        assert float(est.mean) == pytest.approx(float(np.mean(vals)), rel=1e-12)
        assert float(est.std_error) == pytest.approx(float(np.std(vals, ddof=1) / 20), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_degenerate_gamma_rejected(self, gamma):
        m = MeasureSpec(Spectrum(np.ones(2)))
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            verify_normalization(m, gamma, 1000, 1)
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            poisson_gram_generator(m, gamma)

    def test_small_gamma_limit(self):
        m = MeasureSpec(Spectrum(np.ones(2)))
        est, target = verify_normalization(m, 1e-9, 5_000, 15)
        assert float(est.mean) == pytest.approx(1.0, abs=1e-6)
        assert target == pytest.approx(1.0, abs=1e-6)
