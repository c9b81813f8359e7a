import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab.linalg import (
    _r_factor,
    log_det_gram,
    min_norm_stats,
    projection_complement,
    projection_complement_sum,
    pseudo_inverse,
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
    S, ref_S = projection_complement_sum(X), sum(projection_complement(x) for x in X)
    assert np.max(np.abs(S - ref_S)) <= 1e-10 * max(1, len(X))


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
