"""Population covariance spectra: eigenvalue decay profiles, trace-inverse
rescaling, and square-root application to stacks of rows.

Formula-level code consumes eigenvalues only; an optional orthogonal basis
matters solely when sampling rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Spectrum", "make_profile", "scale_trace_inverse", "apply_sqrt"]

PROFILE_KINDS = ("diag_linear", "diag_exp", "diag_poly", "diag_poly_2")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a positive-definite covariance, sorted descending.

    ``basis``, when present, is an orthogonal d x d matrix Q such that the
    covariance is Q diag(eigenvalues) Q^T.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray | None = field(default=None)

    def __post_init__(self):
        eigs = np.asarray(self.eigenvalues, dtype=float)
        if eigs.ndim != 1 or eigs.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d array")
        if not np.all(np.isfinite(eigs)) or np.any(eigs <= 0):
            raise ValueError("eigenvalues must be finite and strictly positive")
        if np.any(np.diff(eigs) > 0):
            eigs = np.sort(eigs)[::-1]
        object.__setattr__(self, "eigenvalues", eigs)
        if self.basis is not None:
            Q = np.asarray(self.basis, dtype=float)
            if Q.shape != (eigs.size, eigs.size):
                raise ValueError("basis must be d x d")
            if np.max(np.abs(Q.T @ Q - np.eye(eigs.size))) > 1e-10:
                raise ValueError("basis is not orthogonal to 1e-10")
            object.__setattr__(self, "basis", Q)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def condition_number(self) -> float:
        return float(self.eigenvalues[0] / self.eigenvalues[-1])

    def trace_inverse(self) -> float:
        return float(np.sum(1.0 / self.eigenvalues))

    def matrix(self) -> np.ndarray:
        D = np.diag(self.eigenvalues)
        if self.basis is None:
            return D
        return self.basis @ D @ self.basis.T


def make_profile(kind: str, d: int, lambda_max: float = 1.0, lambda_min: float = 1e-4) -> Spectrum:
    """Named eigenvalue decay profile with pinned endpoint eigenvalues.

    The two profile constants are solved exactly from the endpoint
    conditions eig_1 = lambda_max and eig_d = lambda_min, so the condition
    number is lambda_max / lambda_min exactly.
    """
    if d < 2:
        raise ValueError("profiles need d >= 2")
    if not (lambda_max > lambda_min > 0):
        raise ValueError("need lambda_max > lambda_min > 0")
    i = np.arange(1, d + 1, dtype=float)
    if kind == "diag_linear":
        a = (lambda_max - lambda_min) / (d - 1)
        b = lambda_max + a
        eigs = b - a * i
    elif kind == "diag_exp":
        a = math.log10(lambda_max / lambda_min) / (d - 1)
        b = lambda_max * 10.0**a
        eigs = b * 10.0 ** (-a * i)
    elif kind == "diag_poly":
        smax, smin = math.sqrt(lambda_max), math.sqrt(lambda_min)
        a = (smax - smin) / (d - 1)
        b = smax + a
        eigs = (b - a * i) ** 2
    elif kind == "diag_poly_2":
        a = math.log(lambda_max / lambda_min) / math.log(d)
        b = lambda_max
        eigs = b * i ** (-a)
    else:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {PROFILE_KINDS}")
    eigs[0], eigs[-1] = lambda_max, lambda_min  # pin endpoints against rounding
    return Spectrum(eigs)


def scale_trace_inverse(s: Spectrum, target: float) -> Spectrum:
    """Rescale the spectrum so that tr(Sigma^{-1}) equals ``target``.

    Eigenvalue ratios (hence the condition number) are unchanged.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    c = s.trace_inverse() / target
    return Spectrum(s.eigenvalues * c, s.basis)


def apply_sqrt(s: Spectrum, Z) -> np.ndarray:
    """Z @ Sigma^{1/2} for a row or a (..., d) stack of rows, using the
    stored basis when present."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape[-1:] != (s.dim,):
        raise ValueError(f"Z must have {s.dim} columns, got shape {Z.shape}")
    root = np.sqrt(s.eigenvalues)
    if s.basis is None:
        return Z * root
    return ((Z @ s.basis) * root) @ s.basis.T
