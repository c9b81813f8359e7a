"""Matrix generators that only the tests use: a fixed matrix, and the Gram
matrix of a fixed-size i.i.d. design, the control that is not determinant
preserving."""

import numpy as np

from ddlab.designs import MeasureSpec, sample_iid
from ddlab.dpcheck import MatrixGenerator


def fixed_generator(Z) -> MatrixGenerator:
    Z = np.asarray(Z, dtype=float)
    return MatrixGenerator(Z.shape[0], lambda rng, count: np.broadcast_to(Z, (count, *Z.shape)))


def fixed_k_gram_generator(m: MeasureSpec, k: int) -> MatrixGenerator:
    """X^T X at fixed sample size k; not d.p. (the Poisson size is what
    corrects the k^d versus k-falling-d factor)."""

    def sample(rng, count):
        X = sample_iid(m, (count, k), rng)
        return np.swapaxes(X, 1, 2) @ X

    return MatrixGenerator(m.dim, sample)
