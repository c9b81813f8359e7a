import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab.covariance import (
    PROFILE_KINDS,
    Spectrum,
    apply_sqrt,
    make_profile,
    scale_trace_inverse,
)


class TestSpectrum:
    def test_sorted_descending(self):
        s = Spectrum(np.array([1.0, 3.0, 2.0]))
        np.testing.assert_array_equal(s.eigenvalues, [3.0, 2.0, 1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, -2.0]))

    def test_derived_scalars(self):
        s = Spectrum(np.array([4.0, 1.0]))
        assert s.dim == 2
        assert s.eigenvalues[0] / s.eigenvalues[-1] == 4.0
        assert s.trace_inverse() == pytest.approx(1.25)


class TestMakeProfile:
    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_endpoints_pinned_and_monotone(self, kind):
        s = make_profile(kind, 37)
        assert s.eigenvalues[0] == 1.0
        assert s.eigenvalues[-1] == 1e-4
        assert s.eigenvalues[0] / s.eigenvalues[-1] == pytest.approx(1e4, rel=1e-12)
        assert np.all(np.diff(s.eigenvalues) <= 0)

    def test_linear_d2(self):
        s = make_profile("diag_linear", 2)
        np.testing.assert_allclose(s.eigenvalues, [1.0, 1e-4])

    def test_exp_geometric_midpoint(self):
        s = make_profile("diag_exp", 3)
        assert s.eigenvalues[1] == pytest.approx(1e-2, rel=1e-12)

    def test_poly2_exponent(self):
        s = make_profile("diag_poly_2", 2)
        np.testing.assert_allclose(s.eigenvalues, [1.0, 1e-4])
        # constant a from the endpoint system is log_2(10^4)
        a = math.log(1e4) / math.log(2)
        assert 1.0 * 2.0**-a == pytest.approx(1e-4, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_profile("diag_cubic", 5)

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            make_profile("diag_linear", 1)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(PROFILE_KINDS), st.integers(2, 64))
    def test_endpoints_property(self, kind, d):
        s = make_profile(kind, d)
        assert s.eigenvalues[0] == 1.0 and s.eigenvalues[-1] == 1e-4
        assert np.all(np.diff(s.eigenvalues) <= 1e-15)


class TestScaleTraceInverse:
    def test_identity_unchanged(self):
        s = scale_trace_inverse(Spectrum(np.ones(100)), 100.0)
        np.testing.assert_allclose(s.eigenvalues, np.ones(100))

    def test_closed_form(self):
        s = scale_trace_inverse(Spectrum(np.ones(2)), 4.0)
        np.testing.assert_allclose(s.eigenvalues, [0.5, 0.5])

    def test_exp_profile_target(self):
        s = scale_trace_inverse(make_profile("diag_exp", 100), 100.0)
        assert s.trace_inverse() == pytest.approx(100.0, abs=1e-10)

    def test_ratios_preserved(self):
        base = make_profile("diag_poly", 10)
        s = scale_trace_inverse(base, 7.0)
        np.testing.assert_allclose(s.eigenvalues / s.eigenvalues[0],
                                   base.eigenvalues / base.eigenvalues[0], rtol=1e-14)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            scale_trace_inverse(Spectrum(np.ones(3)), 0.0)


class TestApplySqrt:
    def test_identity(self):
        Z = np.random.default_rng(0).standard_normal((5, 3))
        np.testing.assert_array_equal(apply_sqrt(Spectrum(np.ones(3)), Z), Z)

    def test_diagonal(self):
        s = Spectrum(np.array([4.0, 9.0]))
        # eigenvalues are stored descending: (9, 4)
        np.testing.assert_allclose(apply_sqrt(s, np.eye(2)), np.diag([3.0, 2.0]))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_sqrt(Spectrum(np.ones(3)), np.zeros((2, 4)))

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(8)
        s = Spectrum(np.array([3.0, 2.0, 1.0]))
        Z = rng.standard_normal((4, 5, 3))
        rows = np.stack([apply_sqrt(s, z) for z in Z])
        np.testing.assert_allclose(apply_sqrt(s, Z), rows, rtol=0, atol=1e-14)
        np.testing.assert_allclose(apply_sqrt(s, Z[0, 0]), rows[0, 0], rtol=0, atol=1e-14)
