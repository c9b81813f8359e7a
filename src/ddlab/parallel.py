"""Deterministic trial execution.

Each trial gets its own counter-based random stream keyed by
(master seed, trial index), so results are identical for any thread
count or scheduling order.

Threads and BLAS: ``run_blocks`` is the one trial engine. It cuts the
trials into fixed blocks whose size comes from the input shapes, and the
worker threads run whole blocks in parallel. While it runs, OpenBLAS is
held at one thread, so the workers' small LAPACK calls neither share nor
wait for BLAS threads; the previous count is restored afterwards. Block
boundaries never depend on ``threads``, so the output does not depend on
``--threads`` either.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["trial_rng", "run_blocks", "run_trials", "block_size", "default_threads"]

# design data per block, in floats (256 KB): keeps the memory a block holds
# flat from 10 x 100 to 200 x 100 designs
BLOCK_FLOATS = 2**15
# block size of run_trials, whose per-trial work has no known shape
TRIAL_BLOCK = 32


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trial, derived from (seed, index)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def default_threads() -> int:
    try:
        return max(1, int(os.environ.get("DDLAB_THREADS", "1")))
    except ValueError:
        return 1


def block_size(floats_per_trial: int) -> int:
    """Trials per block for trials that each hold ``floats_per_trial`` floats
    of design data: as many as fit in BLOCK_FLOATS, at least one."""
    return max(1, BLOCK_FLOATS // max(1, int(floats_per_trial)))


@functools.cache
def _openblas_threads():
    """(get, set) thread-count entry points of the OpenBLAS that numpy
    loaded, or None when there is none to be found. Looked up on first use,
    not at import."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


class _BlasHold:
    """Context manager holding OpenBLAS at one thread.

    The thread count is process-wide state of the library, so there is one
    hold for the process. It counts the holds open at once: the first saves
    the count and sets 1, the last restores the saved count, so nested and
    concurrent engine runs leave the count as they found it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._saved = 0

    def __enter__(self):
        api = _openblas_threads()
        if api is not None:
            with self._lock:
                if self._open == 0:
                    self._saved = api[0]()
                    api[1](1)
                self._open += 1
        return self

    def __exit__(self, *exc):
        api = _openblas_threads()
        if api is not None:
            with self._lock:
                self._open -= 1
                if self._open == 0:
                    api[1](self._saved)


_blas_hold = _BlasHold()


def run_blocks(fn, trials: int, threads: int | None, block: int) -> list:
    """Evaluate ``fn(lo, hi)`` on the blocks [0, block), [block, 2 block), ...
    covering trials 0..trials-1, and return the block results in index order.

    Blocks are fixed by ``trials`` and ``block`` alone; ``threads`` workers
    run them in parallel, with OpenBLAS held at one thread throughout.
    """
    if block < 1:
        raise ValueError("block must be at least 1")
    if threads is None:
        threads = default_threads()
    bounds = [(lo, min(lo + block, trials)) for lo in range(0, trials, block)]
    with _blas_hold:
        if threads <= 1 or len(bounds) <= 1:
            return [fn(lo, hi) for lo, hi in bounds]
        with ThreadPoolExecutor(max_workers=min(threads, len(bounds))) as pool:
            return list(pool.map(lambda b: fn(*b), bounds))


def run_trials(fn, trials: int, seed: int, threads: int | None = None) -> list:
    """Evaluate ``fn(rng, index)`` for index = 0..trials-1, with ``rng`` the
    trial's own stream, as a per-trial loop inside ``run_blocks``.

    Results are returned in index order; the output is invariant to the
    number of worker threads.
    """
    def block(lo, hi):
        return [fn(trial_rng(seed, i), i) for i in range(lo, hi)]

    return [r for part in run_blocks(block, trials, threads, TRIAL_BLOCK) for r in part]
