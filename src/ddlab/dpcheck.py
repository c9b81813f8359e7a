"""Statistical harness for determinant-preserving random matrices.

A random matrix is determinant preserving when expectation commutes with
the determinant of every square minor. The harness estimates E[det(A_IJ)]
on one stream of draws and det(E[A_IJ]) on an independent stream (the
determinant is nonlinear, so sharing samples would correlate the errors),
then reports z-scores with a Bonferroni-corrected family-wise threshold,
the standard normal quantile ``scipy.special.ndtri(1 - FAMILY_LEVEL / 2m)``
over m minors. ``scipy.stats.norm.ppf`` is the same function, but
importing ``scipy.stats`` would add about 0.6 s to every process.
``scipy.special`` itself is imported by the first threshold, not with this
module, so only runs that verify load it.
The standard error of det(E[A_IJ]) comes from the delta method, with the
cofactor matrix of the mean minor as the gradient of the determinant.

Each stack of trials is transposed once to its entry vectors, a (d*d, T)
array whose row i*d + j holds entry (i, j) of every trial, so that the
determinants of a minor are vector arithmetic over the trials
(``_minor_dets``). A minor of size k up to ``LAPLACE_MAX`` is expanded
along its first row, built bottom-up from the determinants of its lower
rows: k 2^(k-1) vector products, and no per-matrix call. Larger minors,
where those products cost more than one LAPACK LU per trial, are gathered
into a (T, k, k) stack for one ``np.linalg.det`` call.
``verify_normalization`` takes its Gram determinants from the same kernel.

Matrices are drawn in blocks (``parallel.run_block_streams``): block b of
a stream seeded ``seed`` draws all of its trials, in batched calls, from
the Philox stream keyed (seed, 2^63 | b). The block size comes from d
alone, so reports do not depend on the thread count. Minor selection keeps
its own stream, keyed (seed, 0xD5).

``scenario_generator`` builds the named scenarios of ``ddlab dp-verify``;
the fixed matrices of the scenarios that have one come from the stream
keyed (seed, 0xF1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .designs import MeasureSpec, MonteCarloEstimate, sample_iid
from .parallel import block_size, run_block_streams, trial_rng

__all__ = [
    "MatrixGenerator",
    "MinorRecord",
    "DpReport",
    "gaussian_entries_generator",
    "scaled_fixed_generator",
    "poisson_gram_generator",
    "gen_sum",
    "gen_product",
    "reads_measure",
    "scenario_generator",
    "verify_dp",
    "verify_normalization",
]

# family-wise level of the Bonferroni-corrected z threshold
FAMILY_LEVEL = 0.01
# largest minor whose determinants _minor_dets expands by cofactors; above
# it the k 2^(k-1) vector products cost more than one LAPACK LU per trial
# (crossover between k = 7 and 8 at 10^4 trials, BENCH_dp_minors.json)
LAPLACE_MAX = 7


@dataclass(frozen=True)
class MatrixGenerator:
    """Procedure producing i.i.d. random d x d matrices in batches:
    ``sample(rng, count)`` draws ``count`` of them from ``rng`` as a
    (count, d, d) stack."""

    dim: int
    sample: callable  # (rng, count) -> (count, d, d) ndarray

    def draw_stack(self, trials: int, seed: int) -> np.ndarray:
        """``trials`` matrices as one stack: the blocks of
        ``run_block_streams``, each drawn in one ``sample`` call."""
        blocks = run_block_streams(lambda rng, lo, hi: self.sample(rng, hi - lo), trials, seed,
                                   block_size(self.dim**2))
        return np.concatenate(blocks)


def gaussian_entries_generator(d: int) -> MatrixGenerator:
    return MatrixGenerator(d, lambda rng, count: rng.standard_normal((count, d, d)))


def scaled_fixed_generator(Z, scale_values) -> MatrixGenerator:
    """s * Z with s drawn uniformly from ``scale_values``."""
    Z = np.asarray(Z, dtype=float)
    vals = np.asarray(scale_values, dtype=float)

    def sample(rng, count):
        return vals[rng.integers(vals.size, size=count)][:, None, None] * Z

    return MatrixGenerator(Z.shape[0], sample)


def _check_gamma(gamma: float) -> None:
    if not (gamma > 0 and math.isfinite(gamma)):  # NaN fails both
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")


def poisson_gram_generator(m: MeasureSpec, gamma: float) -> MatrixGenerator:
    """X^T X with X an i.i.d. K x d design and K ~ Poisson(gamma); it is
    d.p., and its full-minor expectation is det(gamma Sigma).

    A batch draws every K, then all the rows in one call, trial after trial;
    each Gram entry is the sum of its trial's row products, accumulated in
    row order (K = 0 gives the zero matrix)."""
    _check_gamma(gamma)
    d = m.dim

    def sample(rng, count):
        K = rng.poisson(gamma, size=count)
        X = sample_iid(m, int(K.sum()), rng)
        owner = np.repeat(np.arange(count), K)
        G = np.empty((count, d, d))
        for j in range(d):
            for k in range(j, d):
                G[:, j, k] = G[:, k, j] = np.bincount(owner, X[:, j] * X[:, k], count)
        return G

    return MatrixGenerator(d, sample)


def gen_sum(a: MatrixGenerator, b: MatrixGenerator) -> MatrixGenerator:
    if a.dim != b.dim:
        raise ValueError("summed generators must share a dimension")

    def sample(rng, count):
        return a.sample(rng, count) + b.sample(rng, count)

    return MatrixGenerator(a.dim, sample)


def gen_product(a: MatrixGenerator, b: MatrixGenerator) -> MatrixGenerator:
    if a.dim != b.dim:
        raise ValueError("multiplied generators must share a dimension")

    def sample(rng, count):
        return a.sample(rng, count) @ b.sample(rng, count)

    return MatrixGenerator(a.dim, sample)


def _scaled_low_rank(d: int, rank: int, rng) -> MatrixGenerator:
    """s * U V with U (d x rank), V (rank x d) drawn once from ``rng`` and s
    uniform on {0, 2}: d.p. at rank 1, not at rank 2 and above."""
    U, V = rng.standard_normal((d, rank)), rng.standard_normal((rank, d))
    return scaled_fixed_generator(U @ V, [0.0, 2.0])


# name -> (reads the row measure and gamma, (m, gamma, rng) -> generator);
# rng draws the fixed matrices
_SCENARIOS = {
    "gaussian_entries": (False, lambda m, gamma, rng: gaussian_entries_generator(m.dim)),
    "rank1_scaled": (False, lambda m, gamma, rng: _scaled_low_rank(m.dim, 1, rng)),
    "rank2_scaled_counterexample": (False, lambda m, gamma, rng: _scaled_low_rank(m.dim, 2, rng)),
    "closure_sum": (False, lambda m, gamma, rng: gen_sum(_scaled_low_rank(m.dim, 1, rng),
                                                         gaussian_entries_generator(m.dim))),
    "closure_product": (False, lambda m, gamma, rng: gen_product(gaussian_entries_generator(m.dim),
                                                                 gaussian_entries_generator(m.dim))),
    "poisson_gram": (True, lambda m, gamma, rng: poisson_gram_generator(m, gamma)),
}


def reads_measure(name: str) -> bool:
    """Whether the ``dp-verify`` scenario ``name`` reads the row measure and
    gamma; ``normalization`` (``verify_normalization``) does."""
    if name != "normalization" and name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of "
                         f"{('normalization', *_SCENARIOS)}")
    return name == "normalization" or _SCENARIOS[name][0]


def scenario_generator(name: str, m: MeasureSpec, gamma: float, seed: int) -> MatrixGenerator:
    """The generator of the ``dp-verify`` scenario ``name`` at dimension
    m.dim."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {tuple(_SCENARIOS)}")
    return _SCENARIOS[name][1](m, gamma, trial_rng(seed, 0xF1))


@dataclass(frozen=True)
class MinorRecord:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    size: int
    mc_mean: float
    mc_se: float
    det_of_mean: float
    det_of_mean_se: float
    z: float


@dataclass(frozen=True)
class DpReport:
    records: tuple[MinorRecord, ...]
    z_threshold: float
    verdict: str  # "consistent" | "violated"

    @property
    def max_abs_z(self) -> float:
        return max((abs(r.z) for r in self.records), default=0.0)


def _unrank_combination(n: int, k: int, rank: int) -> tuple[int, ...]:
    """The k-subset of range(n) at position ``rank`` in lexicographic order."""
    out = []
    c = 0
    for left in range(k, 0, -1):
        # subsets that start with c at this position: C(n - c - 1, left - 1)
        while rank >= (count := math.comb(n - c - 1, left - 1)):
            rank -= count
            c += 1
        out.append(c)
        c += 1
    return tuple(out)


def _select_minors(d: int, minor_sizes, max_minors: int, seed: int):
    """(I, J) pairs of the minors to test, in the order sizes as given, then
    I, then J, each lexicographic; a uniform subset of max_minors of them
    when there are more. The pairs are counted, not listed, so the cost does
    not grow with their number, which is C(2d, d) - 1 for every size 1..d."""
    sizes = list(minor_sizes)
    for k in sizes:
        if not 1 <= k <= d:
            raise ValueError(f"minor size {k} out of range for d={d}")
    counts = [math.comb(d, k) ** 2 for k in sizes]
    total = sum(counts)
    if total > max_minors:
        rng = trial_rng(seed, 0xD5)
        if total < 2**63:
            picks = sorted(int(i) for i in rng.choice(total, size=max_minors, replace=False))
        else:  # past int64 (sizes 1..d at d >= 34): Python ints seeded from rng
            draw = random.Random(int(rng.integers(2**63))).randrange
            picks = set()
            while len(picks) < max_minors:
                picks.add(draw(total))
            picks = sorted(picks)
    else:
        picks = range(total)
    pairs = []
    offset, block = 0, 0
    for idx in picks:
        while idx >= offset + counts[block]:
            offset += counts[block]
            block += 1
        k = sizes[block]
        i_rank, j_rank = divmod(idx - offset, math.comb(d, k))
        pairs.append((_unrank_combination(d, k, i_rank), _unrank_combination(d, k, j_rank)))
    return pairs


def _cofactors(M: np.ndarray) -> np.ndarray:
    """Cofactor matrix of the square matrix M, the gradient of det at M.

    Each entry is a signed determinant of a (k-1) x (k-1) minor, all taken
    in one batched call, so singular M (where det * M^{-T} is undefined) is
    handled like any other."""
    k = M.shape[0]
    if k == 1:
        return np.ones((1, 1))
    keep = np.array([[j for j in range(k) if j != i] for i in range(k)])
    minors = M[keep[:, None, :, None], keep[None, :, None, :]]
    signs = (-1.0) ** np.add.outer(np.arange(k), np.arange(k))
    return signs * np.linalg.det(minors)


def _bonferroni_z(m: int) -> float:
    """The two-sided z threshold at family level FAMILY_LEVEL over m tests."""
    from scipy.special import ndtri

    return float(ndtri(1.0 - FAMILY_LEVEL / (2 * m)))


def _entry_vectors(stack: np.ndarray) -> np.ndarray:
    """The (d*d, T) entry vectors of a (T, d, d) stack: row i*d + j holds
    entry (i, j) of every trial, contiguous."""
    count, d, _ = stack.shape
    return np.ascontiguousarray(stack.reshape(count, d * d).T)


def _minor_dets(entries: np.ndarray, d: int, I, J) -> np.ndarray:
    """det(A_t[I, J]) of every trial t, from the entry vectors ``entries``
    (``_entry_vectors``) of a stack of d x d matrices.

    Up to k = LAPLACE_MAX, the expansion along row I[0] is built bottom-up:
    level l holds the determinants of rows I[k-l:] against every l-subset
    of the columns J, each the alternating sum over the subset's columns c
    of entry (I[k-l], c) times the level-(l-1) determinant without c. Only
    two levels are held at once, and none outlives the call. Above
    LAPLACE_MAX the minor is gathered for one ``np.linalg.det`` call."""
    k = len(I)
    if k > LAPLACE_MAX:
        return np.linalg.det(np.moveaxis(entries[np.add.outer(np.multiply(I, d), J)], -1, 0))
    dets = {(c,): entries[I[-1] * d + j] for c, j in enumerate(J)}
    term = np.empty(entries.shape[1])
    for level in range(2, k + 1):
        row = [entries[I[k - level] * d + j] for j in J]
        below, dets = dets, {}
        for S in combinations(range(k), level):
            acc = row[S[0]] * below[S[1:]]
            for p in range(1, level):
                np.multiply(row[S[p]], below[S[:p] + S[p + 1:]], out=term)
                if p % 2:
                    acc -= term
                else:
                    acc += term
            dets[S] = acc
    return dets[tuple(range(k))]


def verify_dp(g: MatrixGenerator, minor_sizes, trials: int, seed: int,
              max_minors: int = 200) -> DpReport:
    """Compare Monte Carlo E[det(minor)] against det(E[minor]) per minor.

    The z-score of a minor divides the difference by the hypot of two
    standard errors: that of the mean determinant on the first stream, and
    the delta-method SE of det(mean) on the second,
    sd_t(<C, A_t[I, J]>) / sqrt(T) with C the cofactor matrix of the mean
    minor. The verdict is "violated" when any |z| exceeds the Bonferroni
    threshold at family level FAMILY_LEVEL.
    """
    if trials < 10_000:
        raise ValueError("verify_dp needs at least 10^4 trials")
    d = g.dim
    pairs = _select_minors(d, minor_sizes, max_minors, seed)
    if not pairs:
        raise ValueError("verify_dp needs at least one minor size")
    entries1 = _entry_vectors(g.draw_stack(trials, seed))
    stack2 = g.draw_stack(trials, seed + 0x9E3779B9)  # independent stream
    mean2 = np.mean(stack2, axis=0)
    entries2 = _entry_vectors(stack2)
    del stack2
    threshold = _bonferroni_z(len(pairs))
    records = []
    for I, J in pairs:
        dets1 = _minor_dets(entries1, d, I, J)
        mc_mean = float(np.mean(dets1))
        mc_se = float(np.std(dets1, ddof=1) / math.sqrt(trials))
        mean_minor = mean2[np.ix_(I, J)]
        det2 = float(np.linalg.det(mean_minor))
        # <C, A_t[I, J]>: the cofactors dotted with the minor's k^2 entry vectors
        minor_rows = np.add.outer(np.multiply(I, d), J).ravel()
        linear = _cofactors(mean_minor).ravel() @ entries2[minor_rows]
        se2 = float(np.std(linear, ddof=1) / math.sqrt(trials))
        denom = math.hypot(mc_se, se2)
        diff = mc_mean - det2
        # determinants of structurally singular minors cancel only up to
        # rounding; differences at that scale are numerical noise, not evidence
        entry_scale = max(1.0, float(np.max(np.abs(mean_minor))))
        noise_floor = 1e-10 * entry_scale ** len(I)
        z = diff / denom if denom > 0 and abs(diff) > noise_floor else 0.0
        records.append(MinorRecord(I, J, len(I), mc_mean, mc_se, det2, se2, z))
    verdict = "violated" if any(abs(r.z) > threshold for r in records) else "consistent"
    return DpReport(tuple(records), threshold, verdict)


def verify_normalization(m: MeasureSpec, gamma: float, trials: int,
                         seed: int) -> tuple[MonteCarloEstimate, float]:
    """MC estimate of E[det(X X^T)] with Poisson sample size against the
    closed-form normalizer e^{-gamma} det(I + gamma Sigma).

    Trials run in the blocks of ``run_block_streams``. A block draws every
    K, then, for k = 1..d in turn, the rows of the trials with K = k and
    their k x k Gram determinants (``_minor_dets``). det(X X^T) is 1 for
    the empty matrix and vanishes once K exceeds d, so those trials draw no
    rows. Like the oracle, it needs at least 100 trials.
    """
    if trials < 100:
        raise ValueError("verify_normalization needs at least 100 trials")
    _check_gamma(gamma)
    d = m.dim

    def block(rng, lo, hi):
        K = rng.poisson(gamma, size=hi - lo)
        vals = (K == 0).astype(float)
        for k in range(1, d + 1):
            hit = np.flatnonzero(K == k)
            X = sample_iid(m, (hit.size, k), rng)
            gram = _entry_vectors(X @ np.swapaxes(X, 1, 2))
            vals[hit] = _minor_dets(gram, k, range(k), range(k))
        return vals

    vals = np.concatenate(run_block_streams(block, trials, seed, block_size(d * d)))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(trials))
    t = m.spectrum.eigenvalues
    target = math.exp(-gamma + float(np.sum(np.log1p(gamma * t))))
    est = MonteCarloEstimate(mean=np.asarray(mean), std_error=np.asarray(se), trials=trials,
                             effective_sample_size=float(trials))
    return est, target
