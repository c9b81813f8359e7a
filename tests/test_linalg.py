import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from ddlab import linalg
from ddlab.linalg import (
    _r_factor,
    log_det_gram,
    min_norm_stats,
    projection_complement,
    projection_complements,
    pseudo_inverse,
    zero_threshold,
)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal_with_zero(self):
        np.testing.assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12)

    def test_penrose_conditions(self):
        A = rng_for(0).standard_normal((3, 5))
        P = pseudo_inverse(A)
        np.testing.assert_allclose(A @ P @ A, A, atol=1e-10)
        np.testing.assert_allclose(P @ A @ P, P, atol=1e-10)
        np.testing.assert_allclose(A @ P, (A @ P).T, atol=1e-10)
        np.testing.assert_allclose(P @ A, (P @ A).T, atol=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.array([[1.0, np.nan]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_penrose_conditions_random_shapes(self, seed, n, d):
        A = rng_for(seed).standard_normal((n, d))
        P = pseudo_inverse(A)
        scale = max(np.linalg.norm(A), 1.0)
        assert np.max(np.abs(A @ P @ A - A)) <= 1e-10 * scale
        assert np.max(np.abs(P @ A @ P - P)) <= 1e-10 * max(np.linalg.norm(P), 1.0)


class TestProjectionComplement:
    def test_empty_design(self):
        np.testing.assert_allclose(projection_complement(np.zeros((0, 4))), np.eye(4))

    def test_identity_design(self):
        np.testing.assert_allclose(projection_complement(np.eye(4)), np.zeros((4, 4)), atol=1e-12)

    def test_rank_and_idempotence(self):
        X = rng_for(3).standard_normal((3, 5))
        P = projection_complement(X)
        np.testing.assert_allclose(P, P.T, atol=1e-10)
        np.testing.assert_allclose(P @ P, P, atol=1e-10)
        assert np.trace(P) == pytest.approx(2.0, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(2, 6))
    def test_trace_is_nullity(self, seed, n, d):
        X = rng_for(seed).standard_normal((n, d))
        P = projection_complement(X)
        rank = np.linalg.matrix_rank(X) if n else 0
        assert np.trace(P) == pytest.approx(d - rank, abs=1e-9)
        assert np.max(np.abs(P @ P - P)) < 1e-10


def svd_reference(A):
    """pseudo_inverse and projection_complement of a non-empty matrix from
    numpy's SVD, with the eps * sigma_max * max(k, d) cutoff."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > np.finfo(float).eps * s.max() * max(A.shape)
    V = Vt[keep]
    return (V.T / s[keep]) @ U[:, keep].T, np.eye(A.shape[1]) - V.T @ V


def assert_near(out, ref, tol):
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref), initial=0.0) <= tol


class TestSmallSvd:
    """The kernels on the small per-design SVD, scipy's dgesdd, against
    numpy's SVD."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_small_shapes_match_numpy_svd(self, k):
        # full rank, a duplicated row, and entries in {-1, 0, 1}, which are
        # often exactly rank deficient
        rng = rng_for(k)
        for d in range(1, 13):
            for kind in ("gaussian", "duplicated", "ternary"):
                A = (rng.integers(-1, 2, size=(k, d)).astype(float) if kind == "ternary"
                     else rng.standard_normal((k, d)))
                if kind == "duplicated":
                    A[-1] = A[0]
                P, C = svd_reference(A)
                assert_near(pseudo_inverse(A), P, 4 * np.spacing(np.linalg.norm(P)))
                assert_near(projection_complement(A), C, 4 * np.spacing(np.linalg.norm(C)))

    @pytest.mark.parametrize("shape", [(30, 30), (10, 100), (64, 64), (200, 100)])
    def test_larger_shapes_match_numpy_svd(self, shape):
        # square, wide and tall, up to the curve's 200 x 100 designs
        A = rng_for(sum(shape)).standard_normal(shape)
        P, C = svd_reference(A)
        assert_near(pseudo_inverse(A), P, 1e-12 * np.linalg.norm(P))
        assert_near(projection_complement(A), C, 1e-12 * np.linalg.norm(C))

    def test_dgesdd_sees_every_per_design_svd(self, monkeypatch):
        shapes, dgesdd = [], lapack.dgesdd

        def counted(A, **kw):
            shapes.append(A.shape)
            return dgesdd(A, **kw)

        monkeypatch.setattr(lapack, "dgesdd", counted)
        pseudo_inverse(np.ones((1, 1024)))
        projection_complement(np.ones((2, 513)))
        assert shapes == [(1, 1024), (2, 513)]

    def test_empty_and_one_by_one(self):
        np.testing.assert_array_equal(pseudo_inverse(np.zeros((0, 3))), np.zeros((3, 0)))
        np.testing.assert_array_equal(pseudo_inverse(np.zeros((3, 0))), np.zeros((0, 3)))
        np.testing.assert_array_equal(projection_complement(np.zeros((0, 3))), np.eye(3))
        np.testing.assert_array_equal(projection_complement(np.zeros((3, 0))), np.eye(0))
        assert pseudo_inverse(np.array([[4.0]]))[0, 0] == 0.25
        assert pseudo_inverse(np.array([[0.0]]))[0, 0] == 0.0
        assert projection_complement(np.array([[-2.0]]))[0, 0] == 0.0
        assert projection_complement(np.array([[0.0]]))[0, 0] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kernel", [pseudo_inverse, projection_complement])
    def test_nonfinite_rejected(self, kernel, bad):
        with pytest.raises(ValueError):
            kernel(np.array([[1.0, bad], [0.0, 1.0]]))

    @pytest.mark.parametrize("kernel", [pseudo_inverse, projection_complement])
    def test_lapack_failure_raises(self, kernel, monkeypatch):
        def no_convergence(A, **kw):
            k, d = A.shape
            r = min(k, d)
            return np.zeros((k, r)), np.zeros(r), np.zeros((r, d)), 1

        monkeypatch.setattr(lapack, "dgesdd", no_convergence)
        with pytest.raises(np.linalg.LinAlgError):
            kernel(np.eye(3))


def masked_reference(A):
    """pseudo_inverse and projection_complement by the general masked
    formula, on the dgesdd SVD that the kernels compute for A."""
    U, s, Vt, _ = lapack.dgesdd(A, compute_uv=1, full_matrices=0)
    keep = s > zero_threshold(s, A.shape)
    P = (Vt.T * np.divide(1.0, s, out=np.zeros_like(s), where=keep)) @ U.T
    V = Vt[keep]
    return P, np.eye(A.shape[1]) - V.T @ V


def bit_identity_inputs():
    rng = rng_for(17)
    X23 = rng.standard_normal((2, 3))
    dup = rng.standard_normal((3, 4))
    dup[2] = dup[0]
    tall = rng.standard_normal((40, 30))
    tall_dup = tall.copy()
    tall_dup[7] = tall_dup[3]
    return {
        "full rank 2x3": X23,
        "full rank 3x3": rng.standard_normal((3, 3)),
        "full rank 4x2": rng.standard_normal((4, 2)),
        "duplicated row": dup,
        "gram of a 2x3 design": X23.T @ X23,
        "zero": np.zeros((3, 2)),
        "1x1": np.array([[-0.7]]),
        "full rank 40x30": tall,
        "duplicated row 40x30": tall_dup,
    }


class TestBitIdentity:
    """The kernels keep the first r singular triplets, r counted once from
    the descending singular values; that is bit for bit the masked formula."""

    @pytest.mark.parametrize("name", list(bit_identity_inputs()))
    def test_kernels_equal_masked_formula(self, name):
        A = bit_identity_inputs()[name]
        P, C = masked_reference(A)
        np.testing.assert_array_equal(pseudo_inverse(A), P)
        np.testing.assert_array_equal(projection_complement(A), C)

    def test_gram_is_rank_deficient(self):
        # the criterion-4 f_under case: the zero-padded reciprocal is taken
        A = bit_identity_inputs()["gram of a 2x3 design"]
        assert np.linalg.matrix_rank(A) == 2
        assert np.trace(projection_complement(A)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_threshold_reads_the_first_value(self):
        s = -np.sort(-rng_for(5).uniform(size=(2, 4, 3)), axis=-1)
        np.testing.assert_array_equal(zero_threshold(s, (3, 7)),
                                      np.finfo(float).eps * s.max(axis=-1) * 7)
        assert np.isscalar(zero_threshold(s[0, 0], (3, 7)))
        assert zero_threshold(np.zeros(0), (0, 3)) == 0.0


class TestLogDetGram:
    def test_orthonormal_rows(self):
        X = np.eye(3)[:2]
        assert log_det_gram(X) == pytest.approx(0.0, abs=1e-12)

    def test_single_row(self):
        assert log_det_gram(np.array([[3.0, 4.0]])) == pytest.approx(np.log(25.0))

    def test_empty(self):
        assert log_det_gram(np.zeros((0, 5))) == 0.0

    def test_matches_direct_determinant(self):
        X = rng_for(4).standard_normal((3, 6))
        assert np.exp(log_det_gram(X)) == pytest.approx(np.linalg.det(X @ X.T), rel=1e-8)

    def test_rank_deficient_is_minus_inf(self):
        X = np.vstack([np.ones(4), np.ones(4)])
        assert log_det_gram(X) == -np.inf

    def test_wide_only(self):
        with pytest.raises(ValueError):
            log_det_gram(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            log_det_gram(np.zeros((4, 3, 2)))

    def test_stack_matches_single_designs(self):
        X = rng_for(6).standard_normal((2, 5, 3, 6))
        X[1, 2, 1] = X[1, 2, 0]
        out = log_det_gram(X)
        assert out.shape == (2, 5)
        ref = [[log_det_gram(x) for x in row] for row in X]
        np.testing.assert_array_equal(out, ref)
        assert out[1, 2] == -np.inf
        np.testing.assert_array_equal(log_det_gram(np.zeros((4, 0, 3))), np.zeros(4))


def svd_stats(X, w):
    """Reference for min_norm_stats: one SVD per design."""
    tr = np.array([np.sum(pseudo_inverse(x) ** 2) for x in X])
    resid = np.array([np.sum((projection_complement(x) @ w) ** 2) for x in X])
    return tr, resid


def assert_matches_svd(X, w):
    tr, resid = min_norm_stats(X, w)
    ref_tr, ref_resid = svd_stats(X, w)
    np.testing.assert_allclose(tr, ref_tr, rtol=1e-10, atol=0)
    assert np.max(np.abs(resid - ref_resid), initial=0.0) <= 1e-10 * float(w @ w)
    assert_complements_match(X)


def assert_complements_match(X):
    """projection_complements against projection_complement, design by design."""
    P = projection_complements(X)
    assert P.shape == (len(X), X.shape[2], X.shape[2])
    for p, x in zip(P, X, strict=True):
        np.testing.assert_allclose(p, projection_complement(x), rtol=0, atol=1e-12)


class TestMinNormStats:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 9), st.integers(1, 7))
    def test_matches_svd_reference(self, seed, B, n, d):
        # wide, square and tall designs, and the empty n = 0 design
        rng = rng_for(seed)
        assert_matches_svd(rng.standard_normal((B, n, d)), rng.standard_normal(d))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 7),
           st.sampled_from(["gaussian", "rademacher"]))
    def test_duplicated_row_takes_svd_path(self, seed, n, extra, law):
        rng = rng_for(seed)
        d = n + extra
        X = (rng.standard_normal((2, n, d)) if law == "gaussian"
             else rng.integers(0, 2, size=(2, n, d)) * 2.0 - 1.0)
        X[1, -1] = X[1, 0]
        assert _r_factor(X, None)[3][1]
        assert_matches_svd(X, rng.standard_normal(d))

    def test_rank_one_tall_design_takes_svd_path(self):
        X = np.array([[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]])
        assert _r_factor(X, None)[3].all()
        assert_matches_svd(X, np.array([1.0, -0.5]))
        tr, resid = min_norm_stats(X, np.array([2.0, -1.0]))
        assert tr[0] == pytest.approx(1.0 / 70.0)
        assert resid[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("n", [0, 3, 5, 8])
    def test_complements_wide_square_tall_and_empty(self, n):
        assert_complements_match(rng_for(n).standard_normal((4, n, 5)))

    def test_complements_rank_deficient_take_svd_path(self):
        # a duplicated row (wide) and a rank-one tall design go through the fallback
        X = rng_for(6).standard_normal((3, 3, 5))
        X[1, 2] = X[1, 0]
        assert _r_factor(X, None)[3].tolist() == [False, True, False]
        assert_complements_match(X)
        assert np.trace(projection_complements(X)[1]) == pytest.approx(3.0)
        tall = np.array([[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]])
        assert _r_factor(tall, None)[3].all()
        assert_complements_match(tall)

    def test_zero_design_takes_svd_path(self):
        tr, resid = min_norm_stats(np.zeros((1, 2, 4)), np.ones(4))
        assert tr[0] == 0.0 and resid[0] == 4.0

    def test_without_w_residual_is_zero(self):
        X = rng_for(5).standard_normal((3, 2, 5))
        tr, resid = min_norm_stats(X)
        np.testing.assert_array_equal(resid, 0.0)
        np.testing.assert_allclose(tr, svd_stats(X, np.zeros(5))[0], rtol=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            min_norm_stats(np.ones((2, 3)))
        with pytest.raises(ValueError):
            min_norm_stats(np.full((1, 2, 3), np.nan))
        with pytest.raises(ValueError):
            min_norm_stats(np.ones((1, 2, 3)), np.ones(2))

