"""Span tracer for the benchmark's traced runs.

The tracer wraps ddlab's public functions, and the ``numpy.linalg`` entry
points that ddlab calls, from outside the package: no file under ``src/``
knows about it. Spans are aggregated by (name, parent name) as they close,
so a loop of 10^6 trials costs one dictionary entry per distinct call edge,
not one record per call. Every patch is undone when ``instrument`` exits.

Self time is a span's duration minus the part of it that child spans
cover. Children on the same thread never overlap, so their durations are
subtracted. Spans opened on a worker thread of ``parallel.run_trials`` are
parented to that ``run_trials`` span; they overlap one another, so the
parent subtracts the union of their intervals, kept as a busy count.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("surrogate", "covariance", "linalg", "parallel", "designs", "experiments",
          "dpcheck", "cli")

# Suffix of spans around the per-trial callback handed to run_trials. The
# callback is ddlab code but not a public function, so it adds self time
# to its module's layer without counting as a call.
TRIAL_FN = ".trial_fn"


class _Frame:
    __slots__ = ("name", "parent", "start", "child", "pool", "busy", "since", "covered")

    def __init__(self, name: str, start: float):
        self.name = name
        self.parent = None
        self.start = start
        self.child = 0.0      # summed durations of same-thread children
        self.pool = None      # run_trials frame this worker-thread span belongs to
        self.busy = 0         # open worker-thread children
        self.since = 0.0      # when busy last rose from 0
        self.covered = 0.0    # union of worker-thread child intervals


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: defaultdict[str, float] = defaultdict(float)


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._pools: list[_Frame] = []  # open run_trials spans, innermost last

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def enter(self, name: str) -> _Frame:
        st = self._state()
        now = self.clock()
        f = _Frame(name, now)
        if st.stack:
            f.parent = st.stack[-1].name
        elif self._pools:
            pool = f.pool = self._pools[-1]
            f.parent = pool.name
            with self._lock:
                if pool.busy == 0:
                    pool.since = now
                pool.busy += 1
        st.stack.append(f)
        return f

    def exit(self, f: _Frame) -> float:
        now = self.clock()
        st = self._state()
        st.stack.pop()
        dur = now - f.start
        rec = st.spans.get((f.name, f.parent))
        if rec is None:
            rec = st.spans[(f.name, f.parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - f.child - f.covered
        if st.stack:
            st.stack[-1].child += dur
        elif f.pool is not None:
            with self._lock:
                f.pool.busy -= 1
                if f.pool.busy == 0:
                    f.pool.covered += now - f.pool.since
        return dur

    @contextlib.contextmanager
    def pool(self, name: str):
        """Span whose worker-thread spans become its children."""
        f = self.enter(name)
        self._pools.append(f)
        try:
            yield f
        finally:
            self._pools.pop()
            self.exit(f)

    def count(self, key: str, value: float = 1.0) -> None:
        self._state().counts[key] += value

    def spans(self) -> dict[tuple[str, str | None], tuple[int, float, float]]:
        """(name, parent) -> (calls, total seconds, self seconds)."""
        out: dict = {}
        for st in self._states:
            for key, (n, total, own) in st.spans.items():
                a = out.get(key, (0, 0.0, 0.0))
                out[key] = (a[0] + n, a[1] + total, a[2] + own)
        return out

    def counts(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for st in self._states:
            for key, v in st.counts.items():
                out[key] += v
        return dict(out)

    def wrap(self, fn, name: str, probe=None):
        """``fn`` timed as span ``name``; ``probe(tracer, bound_args, result)``
        runs after each call that returns."""
        sig = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            f = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(f)
            if probe is not None:
                probe(self, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced


# --- ddlab instrumentation -------------------------------------------------

def _batch(shape) -> int:
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _svd_flop(shape, uv: bool) -> float:
    """Golub-Van Loan leading terms for a thin SVD of an m x n matrix."""
    if len(shape) < 2:
        return 0.0
    big, k = max(shape[-2:]), min(shape[-2:])
    per = 6.0 * big * k * k + 20.0 * k**3 if uv else 4.0 * big * k * k - 4.0 * k**3 / 3.0
    return _batch(shape) * per


def _cube(coef: float):
    def flop(shape, *_):
        return _batch(shape) * coef * shape[-1] ** 3 if len(shape) >= 2 else 0.0
    return flop


def _norm_flop(shape, args, kwargs) -> float:
    ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
    if len(shape) == 2 and ord_ in (2, -2, "nuc"):
        return _svd_flop(shape, uv=False)
    return 2.0 * float(np.prod(shape))


def _qr_flop(shape, *_) -> float:
    if len(shape) < 2:
        return 0.0
    big, k = max(shape[-2:]), min(shape[-2:])
    return _batch(shape) * (4.0 * big * k * k - 4.0 * k**3 / 3.0)


# Flop counts are computed from argument shapes, not measured.
NUMPY_LINALG = {
    "svd": lambda s, a, kw: _svd_flop(s, kw.get("compute_uv", a[2] if len(a) > 2 else True)),
    "lstsq": lambda s, a, kw: _svd_flop(s, uv=False),
    "pinv": lambda s, a, kw: _svd_flop(s, uv=True),
    "matrix_rank": lambda s, a, kw: _svd_flop(s, uv=False),
    "norm": _norm_flop,
    "det": _cube(2.0 / 3.0),
    "slogdet": _cube(2.0 / 3.0),
    "solve": _cube(2.0 / 3.0),
    "inv": _cube(2.0),
    "cholesky": _cube(1.0 / 3.0),
    "eigvalsh": _cube(4.0 / 3.0),
    "eigh": _cube(9.0),
    "qr": _qr_flop,
}


def _count_trials(key):
    def probe(tr, a, result):
        tr.count(key, a["trials"])
    return probe


def _probe_mse_trials(tr, a, result):
    tr.count("experiments.trials_computed", a["trials"])
    tr.count("experiments.trials_used", a["trials"])


def _probe_point(tr, a, result):
    tr.count("experiments.trials_computed", a["trials"])
    tr.count("experiments.point_calls")


def _probe_adaptive(tr, a, result):
    tr.count("experiments.trials_used", result.trials_used)
    tr.count("experiments.adaptive_calls")


def _probe_verify_dp(tr, a, result):
    tr.count("dpcheck.minors", len(result.records))


PROBES = {
    "experiments.mse_trial_samples": _probe_mse_trials,
    "experiments.variance_discrepancy": _probe_point,
    "experiments.bias_discrepancy": _probe_point,
    "experiments.adaptive_trials": _probe_adaptive,
    "dpcheck.verify_dp": _probe_verify_dp,
    "dpcheck.MatrixGenerator.draw_stack": _count_trials("dpcheck.draws"),
}


def _traced_numpy(tr: Tracer, fn, name: str, flop):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # only calls made from ddlab code belong to its linalg layer
        if not sys._getframe(1).f_globals.get("__name__", "").startswith("ddlab"):
            return fn(*args, **kwargs)
        f = tr.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.count("linalg.numpy_s", tr.exit(f))
            tr.count("linalg.flop", flop(np.shape(args[0]) if args else (), args, kwargs))
    return traced


def _traced_run_trials(tr: Tracer, fn, default_threads):
    @functools.wraps(fn)
    def traced(trial_fn, trials, seed, threads=None):
        cb_name = trial_fn.__module__.rpartition(".")[2] + TRIAL_FN

        def cb(rng, i):
            f = tr.enter(cb_name)
            try:
                return trial_fn(rng, i)
            finally:
                tr.count("parallel.trial_s", tr.exit(f))

        workers = max(1, default_threads() if threads is None else threads)
        start = tr.clock()
        try:
            with tr.pool("parallel.run_trials"):
                return fn(cb, trials, seed, threads)
        finally:
            tr.count("parallel.trials", trials)
            tr.count("parallel.capacity_s", (tr.clock() - start) * workers)
    return traced


def _ddlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ddlab" or name.startswith("ddlab."))]


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Patch every name bound to a traced function, then restore them all."""
    import ddlab.dpcheck
    import ddlab.parallel

    modules = _ddlab_modules()
    replace: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"ddlab.{layer}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if fn is ddlab.parallel.run_trials:
                replace[id(fn)] = _traced_run_trials(tr, fn, ddlab.parallel.default_threads)
            else:
                replace[id(fn)] = tr.wrap(fn, name, PROBES.get(name))
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if id(val) in replace and inspect.isfunction(val):
                undo.append((mod, attr, val))
                setattr(mod, attr, replace[id(val)])
    gen = ddlab.dpcheck.MatrixGenerator
    name = "dpcheck.MatrixGenerator.draw_stack"
    undo.append((gen, "draw_stack", gen.draw_stack))
    gen.draw_stack = tr.wrap(gen.draw_stack, name, PROBES[name])
    for attr, flop in NUMPY_LINALG.items():
        fn = getattr(np.linalg, attr)
        undo.append((np.linalg, attr, fn))
        setattr(np.linalg, attr, _traced_numpy(tr, fn, f"linalg.numpy.{attr}", flop))
    try:
        yield tr
    finally:
        for obj, attr, val in reversed(undo):
            setattr(obj, attr, val)


def layer_metrics(tr: Tracer, passes: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics per traced pass; ``extra`` holds the workload's own
    counts (estimator diagnostics, bytes written)."""
    spans = tr.spans()
    c = defaultdict(float, tr.counts())
    for k, v in extra.items():
        c[k] += v
    calls = defaultdict(int)
    own = defaultdict(float)
    total = defaultdict(float)
    for (name, _parent), (n, tot, self_s) in spans.items():
        layer = name.split(".", 1)[0]
        own[layer] += self_s
        total[name] += tot
        calls[name] += n
        if not name.endswith(TRIAL_FN):
            calls[layer] += n

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    per = 1.0 / passes
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer] * per
        m[f"{layer}.self_s"] = own[layer] * per
    m["surrogate.solve_lambda_calls"] = calls["surrogate.solve_lambda"] * per
    m["linalg.flop"] = c["linalg.flop"] * per
    m["linalg.gflop_per_s"] = ratio(c["linalg.flop"], c["linalg.numpy_s"]) / 1e9
    m["parallel.trials"] = c["parallel.trials"] * per
    m["parallel.rng_s"] = total["parallel.trial_rng"] * per
    m["parallel.trial_s"] = c["parallel.trial_s"] * per
    m["parallel.efficiency"] = ratio(c["parallel.trial_s"], c["parallel.capacity_s"])
    m["designs.ess_frac"] = ratio(c["designs.ess"], c["designs.oracle_trials"])
    m["designs.zero_weight_frac"] = ratio(c["designs.zero_weight"], c["designs.oracle_trials"])
    m["designs.accept_rate"] = ratio(c["designs.accepted"], c["designs.chain_steps"])
    m["designs.chain_steps"] = c["designs.chain_steps"] * per
    m["experiments.bootstrap_s"] = (total["experiments.bootstrap_ci"]
                                    + total["experiments.bootstrap_opnorm_ci"]) * per
    m["experiments.trials_computed"] = c["experiments.trials_computed"] * per
    m["experiments.trials_used"] = c["experiments.trials_used"] * per
    computed = c["experiments.trials_computed"]
    m["experiments.waste_frac"] = 1.0 - c["experiments.trials_used"] / computed if computed else 0.0
    m["experiments.escalations"] = (c["experiments.point_calls"]
                                    - c["experiments.adaptive_calls"]) * per
    m["dpcheck.draw_s"] = total["dpcheck.MatrixGenerator.draw_stack"] * per
    m["dpcheck.draws"] = c["dpcheck.draws"] * per
    m["dpcheck.minors"] = c["dpcheck.minors"] * per
    m["cli.bytes_written"] = c["cli.bytes_written"] * per
    return m
