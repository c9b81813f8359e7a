"""Deterministic trial execution.

Random streams are counter-based Philox streams keyed by (master seed,
index), so results are identical for any thread count or scheduling
order. Every Monte Carlo loop draws from block streams: block b of a run
of trials seeded ``seed`` owns the stream keyed (seed, 2^63 | b), and the
block draws all of its trials from it in index order, in batched calls
where it can. ``run_block_streams`` is the one place that builds them.
``trial_rng`` builds a single stream from a constant index: 0 for the
seeded samplers, 0xB5 and 0xB6 for the bootstraps, 0xD5 for minor
selection and 0xF1 for the fixed matrices of the dp-verify scenarios. The
top bit of the block keys keeps every block stream apart from those.

Threads and BLAS: ``run_block_streams`` is the one trial engine. It cuts the
trials into fixed blocks whose size comes from the input shapes, and the
worker threads run whole blocks. One call can take several runs, each
with a ``finish`` for its blocks: ``curve_double_descent`` hands it every
point of a curve, so one pool runs all the points' blocks and, as each
point's blocks are done, that point's bootstrap. What the workers overlap
is the work that lets go of the GIL: the generators' array draws, the
bootstraps' index draws, gathers and means, and so one point's last
block or bootstrap runs beside the next point's blocks, where a pool per
point left a worker idle. What still holds the GIL: a stacked ``np.linalg`` call
releases it only when stack size times min(rows, cols) passes 500
(numpy's NPY_BEGIN_THREADS_THRESHOLDED), which the figure-scale n <= d
blocks' QR does not reach, and scipy's f2py ``dtrtri`` and ``dgesdd``
hold it throughout. While it runs, every OpenBLAS that numpy and scipy
loaded (their wheels bundle separate builds) is held at one thread, so
the workers' small LAPACK calls neither share nor wait for BLAS threads;
the previous counts are restored afterwards. Block boundaries never
depend on ``threads``, so the output does not depend on ``--threads``
either, and no generator is shared between threads.

The module does not import scipy. The first engine run finds scipy's
OpenBLAS from the package's location (``importlib.util.find_spec``) and
loads it to hold it at one thread; ``scipy.linalg`` itself is imported
later, by the first kernel that calls it, and picks up that same library.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import os
import threading
from collections.abc import Callable
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import NamedTuple

import numpy as np

__all__ = [
    "trial_rng", "BlockRun", "run_block_streams", "run_trials", "block_size", "default_threads",
]

# design data per block, in floats (256 KB): keeps the memory a block holds
# flat from 10 x 100 to 200 x 100 designs
BLOCK_FLOATS = 2**15
# block size of run_trials, whose per-trial work has no known shape
TRIAL_BLOCK = 32
# top bit of the block-stream keys: no constant single-stream index reaches it
BLOCK_KEY = 1 << 63


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream derived from (seed, index)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def default_threads() -> int:
    """DDLAB_THREADS, or 1 when it is unset or empty; any other value that
    is not a whole number of at least 1 raises."""
    text = os.environ.get("DDLAB_THREADS") or "1"
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"DDLAB_THREADS must be a whole number at least 1, got {text!r}")
    return int(text)


def block_size(floats_per_trial: int) -> int:
    """Trials per block for trials that each hold ``floats_per_trial`` floats
    of design data: as many as fit in BLOCK_FLOATS, at least one."""
    return max(1, BLOCK_FLOATS // max(1, int(floats_per_trial)))


def _thread_api(path: str):
    """(get, set) thread-count entry points of the OpenBLAS at ``path``, or
    None when it has none."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", "_64", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@functools.cache
def _openblas_threads() -> dict:
    """{package: (get, set)} for each of numpy and scipy whose wheel bundles
    an OpenBLAS with thread control; the two may load separate builds.
    Looked up on first use, not at import, and without importing scipy."""
    apis = {}
    for name in ("numpy", "scipy"):
        pkgdir = os.path.dirname(importlib.util.find_spec(name).origin)
        libdir = os.path.join(pkgdir, os.pardir, f"{name}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            api = _thread_api(path)
            if api is not None:
                apis[name] = api
                break
    return apis


class _BlasHold:
    """Context manager holding every OpenBLAS that numpy and scipy loaded at
    one thread.

    The thread count is process-wide state of each library, so there is one
    hold for the process. It counts the holds open at once: the first saves
    the counts and sets 1, the last restores the saved counts, so nested and
    concurrent engine runs leave the counts as they found them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._saved = []

    def __enter__(self):
        apis = _openblas_threads().values()
        with self._lock:
            if self._open == 0:
                self._saved = [(put, get()) for get, put in apis]
                for put, _ in self._saved:
                    put(1)
            self._open += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._open -= 1
            if self._open == 0:
                for put, count in self._saved:
                    put(count)


_blas_hold = _BlasHold()


class BlockRun(NamedTuple):
    """One run of the trial engine: ``fn(rng, lo, hi)`` on the blocks of
    ``block`` trials covering trials start..trials-1 of the run seeded
    ``seed``. With ``finish``, the run's result is ``finish(blocks)``, the
    block results in index order, called on the pool as soon as the run's
    last block is done; without it, the result is the block list."""

    fn: Callable
    trials: int
    seed: int
    block: int
    start: int = 0
    finish: Callable | None = None


def run_block_streams(fn, trials: int | None = None, seed: int | None = None,
                      block: int | None = None, threads: int | None = None,
                      start: int = 0) -> list:
    """Evaluate ``fn(rng, lo, hi)`` on the blocks of ``block`` trials
    covering trials start..trials-1, where ``rng`` is block b's own stream,
    ``trial_rng(seed, BLOCK_KEY | b)`` for trials [b block, (b + 1) block),
    and ``start`` is a block boundary; return the block results in index
    order.

    ``fn`` may instead be a sequence of ``BlockRun``, and ``threads`` the
    only other argument: the runs share one pool and one BLAS hold, and the
    return is the list of the runs' results. The pool takes the blocks of
    every run largest first, a block's size being its share of its run's
    full block, whose design data callers fix from the trial shapes; a
    run's ``finish`` runs on the worker that completes the run's last block.
    When a block or a ``finish`` raises, the blocks still queued are
    cancelled, the running ones are waited for, and the error of the first
    failed task in queue order is raised.

    ``fn`` draws all of its block's trials from ``rng``, so the draws depend
    on ``block`` (which callers fix from the trial shapes) but never on
    ``threads``: ``threads`` workers run whole blocks in parallel, with
    every OpenBLAS held at one thread throughout.
    """
    if callable(fn):
        return _run_blocks([BlockRun(fn, trials, seed, block, start)], threads)[0]
    return _run_blocks(list(fn), threads)


def _run_blocks(runs: list[BlockRun], threads: int | None) -> list:
    for run in runs:
        if run.block < 1:
            raise ValueError("block must be at least 1")
        if run.start % run.block:
            raise ValueError("start must be a block boundary")
    if threads is None:
        threads = default_threads()
    parts = [[None] * len(range(run.start, run.trials, run.block)) for run in runs]
    left = [len(blocks) for blocks in parts]
    results = [None] * len(runs)
    lock = threading.Lock()

    def finish(i):
        results[i] = parts[i] if runs[i].finish is None else runs[i].finish(parts[i])

    def one(i, lo):
        run = runs[i]
        hi = min(lo + run.block, run.trials)
        parts[i][(lo - run.start) // run.block] = run.fn(
            trial_rng(run.seed, BLOCK_KEY | lo // run.block), lo, hi)
        with lock:
            left[i] -= 1
            last = left[i] == 0
        if last:
            finish(i)

    def share(task):  # a block's share of its run's full block
        run = runs[task[0]]
        return min(run.block, run.trials - task[1]) / run.block

    # every block of every run, largest first; ties keep run and index order
    tasks = sorted(((i, lo) for i, run in enumerate(runs)
                    for lo in range(run.start, run.trials, run.block)), key=share, reverse=True)
    with _blas_hold:
        for i, count in enumerate(left):
            if count == 0:
                finish(i)
        if threads <= 1 or len(tasks) <= 1:
            for task in tasks:
                one(*task)
            return results
        with ThreadPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            futures = [pool.submit(one, *task) for task in tasks]
            wait(futures, return_when=FIRST_EXCEPTION)
            for future in futures:
                future.cancel()
        for future in futures:
            if not future.cancelled():
                future.result()
    return results


def run_trials(fn, trials: int, seed: int, threads: int | None = None) -> list:
    """Evaluate ``fn(rng, index)`` for index = 0..trials-1 and return the
    results in index order.

    The trials run in blocks of TRIAL_BLOCK on ``run_block_streams``: the
    trials of a block share the block's stream, one after another in index
    order, so ``rng`` carries on where the previous trial left it and
    ``fn`` must not keep it. The output is invariant to the number of
    worker threads.
    """
    def block(rng, lo, hi):
        return [fn(rng, i) for i in range(lo, hi)]

    return [r for part in run_block_streams(block, trials, seed, TRIAL_BLOCK, threads)
            for r in part]
