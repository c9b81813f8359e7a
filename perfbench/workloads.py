"""The benchmark's workloads.

A workload is built from the seed (its set-up), warmed up with one small
operation, then runs passes. A pass is a fixed list of steps; a step is
one program call, timed on its own, whose outputs are checked into one
``Outcome`` per operation. Every input of pass k is derived from
(seed, k, step index), so the same seed gives the same inputs.

An operation fails when the call raises or exits non-zero, when it returns
a non-finite value, or when its check fails. A failure is statistical when
a test of a Monte Carlo estimate rejected it; it makes an op fail but
leaves ``correct`` set. The statistical tests are set so that a correct
program fails one about once in a million ops or less, since a benchmark
run makes thousands of them.

Ops that fail on a known defect of the program are not in the timed
passes. They run once per run as findings, printed after the metrics.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import re
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

Z_MAX = 6.0        # |z| above this fails an estimate (2e-9 per normal component)
CHI2_P_MIN = 1e-7  # size-distribution chi-square p-value below this fails
DP_FAMILY = 1e-6   # family-wise level of the benchmark's own dp-verify z bound


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    op: str
    error: str | None = None  # failure reason; None when the op passed
    stat: bool = False        # the failure came from a statistical test
    trials: int = 0           # Monte Carlo trials that entered a reported estimate
    ess: float = 0.0          # effective sample size of that estimate


def z_scores(mean, se, target) -> np.ndarray:
    """(mean - target) / se, where a zero SE scores 0 if the error is 0 and inf otherwise."""
    err = np.asarray(mean, dtype=float) - np.asarray(target, dtype=float)
    se = np.broadcast_to(np.asarray(se, dtype=float), err.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(se > 0, err / np.where(se > 0, se, 1.0),
                        np.where(err == 0, 0.0, np.inf))


def check_estimate(op: str, mean, se, target, trials: int, ess: float) -> Outcome:
    mean, se = np.asarray(mean, dtype=float), np.asarray(se, dtype=float)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(se))):
        return Outcome(op, "non-finite estimate", trials=trials, ess=ess)
    z = np.abs(z_scores(mean, se, target)).ravel()
    i = int(np.argmax(z))
    if np.isinf(z[i]):
        return Outcome(op, f"component {i}: SE 0 with error "
                           f"{float(np.ravel(mean)[i] - np.ravel(target)[i]):.4g}",
                       trials=trials, ess=ess)
    if z[i] > Z_MAX:
        return Outcome(op, f"component {i}: |z| {z[i]:.2f} > {Z_MAX}", stat=True,
                       trials=trials, ess=ess)
    return Outcome(op, trials=trials, ess=ess)


def size_chi2_pvalue(ks, pmf) -> float:
    """Chi-square p-value of observed sizes against a pmf, pooling bins
    whose expected count is below 5."""
    obs = np.bincount(ks, minlength=len(pmf)).astype(float)[: len(pmf)]
    exp = len(ks) * np.asarray(pmf, dtype=float)
    big = exp >= 5
    o, e = list(obs[big]), list(exp[big])
    if not big.all():
        rest_o, rest_e = float(obs[~big].sum()), float(exp[~big].sum())
        if rest_e >= 5 or not o:
            o.append(rest_o)
            e.append(rest_e)
        else:
            j = int(np.argmax(e))
            o[j] += rest_o
            e[j] += rest_e
    if len(o) < 2:
        return 1.0
    e = np.array(e) * (sum(o) / sum(e))
    return float(stats.chisquare(o, e).pvalue)


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class Workload:
    """Base: seed-derived inputs, CLI calls in process, per-pass counts."""

    name = ""
    workers = 1

    def __init__(self, dd, seed: int, tmp: Path):
        self.dd = dd          # namespace of ddlab modules; attributes are looked
        self.seed = seed      # up per call so the tracer's patches take effect
        self.tmp = tmp
        self.counts: Counter = Counter()  # workload-side per-layer counts

    def op_seed(self, k: int, j: int) -> int:
        """Seed of call j in pass k (k = -1: the warm-up is j = 0, findings j >= 1)."""
        ss = np.random.SeedSequence([self.seed, k + 1, j])
        return int(ss.generate_state(1)[0] >> 1)

    def cli(self, argv: list[str]) -> tuple[int, str, str, Path]:
        out = self.tmp / "out"
        shutil.rmtree(out, ignore_errors=True)
        so, se = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            rc = self.dd.cli.main(argv + ["--out", str(out)])
        if out.is_dir():
            self.counts["cli.bytes_written"] += sum(p.stat().st_size for p in out.rglob("*")
                                                   if p.is_file())
        return rc, so.getvalue(), se.getvalue().strip(), out

    def warmup(self) -> None:
        raise NotImplementedError

    def findings(self) -> list:
        """Known-defect ops, run once outside the timed passes."""
        return []

    def steps(self, k: int) -> list:
        """Pass k as a list of calls, each returning a list of ``Outcome``."""
        raise NotImplementedError


def _single(fn, *args):
    """A step whose call checks one op."""
    return lambda: [fn(*args)]


def _failed(ops, reason):
    return [Outcome(op, reason) for op in ops]


def _floats(row, keys):
    return [float(row[k]) if row.get(k) not in (None, "") else math.nan for k in keys]


class Curve(Workload):
    """Figure-1 preset in process: d=100, diag_exp kappa=1e4, n=10..200,
    Monte Carlo with bootstrap CIs on all cores. The 20 sample sizes go
    through four calls of five, so that each timed step is short."""

    name = "curve"
    D = 100
    TRIALS = 50
    N_VALUES = list(range(10, 201, 10))
    CALLS = 4

    def __init__(self, dd, seed, tmp):
        super().__init__(dd, seed, tmp)
        self.workers = nproc()
        self.base = ["curve", "--d", str(self.D), "--profile", "diag_exp", "--kappa", "10000",
                     "--sigma2", "1", "--trials", str(self.TRIALS), "--threads", str(self.workers)]

    def warmup(self):
        self.cli(self.base + ["--n-values", "50", "--seed", str(self.op_seed(-1, 0))])

    def steps(self, k):
        return [functools.partial(self.curve, self.N_VALUES[j::self.CALLS], self.op_seed(k, j))
                for j in range(self.CALLS)]

    def curve(self, n_values, seed):
        ops = [f"n={n}" for n in n_values]
        rc, _, err, out = self.cli(self.base + ["--n-values", ",".join(map(str, n_values)),
                                                "--seed", str(seed)])
        if rc != 0:
            return _failed(ops, f"exit code {rc}: {err}")
        rows = {int(r["n"]): r for r in read_csv(out / "curve.csv")}
        res = []
        for op, n in zip(ops, n_values):
            row = rows.get(n)
            if row is None:
                res.append(Outcome(op, "missing from curve.csv"))
                continue
            vals = _floats(row, ["mse_surrogate", "mse_mc", "mse_mc_se", "ci_low", "ci_high"])
            target, mc, se = vals[:3]
            o = Outcome(op, trials=self.TRIALS, ess=self.TRIALS)
            if not all(map(math.isfinite, vals)):
                o.error = "non-finite value"
            elif abs(n - self.D) >= 30:
                # criterion 3's 5 % plus 5 SE: at |n-d| = 30 the i.i.d. MSE
                # sits 3.6 % above the surrogate, so at 50 trials criterion
                # 3's max(3 SE, 5 %) fails correct points. Nearer the peak
                # the surrogate is not an i.i.d. prediction, so only
                # finiteness is checked
                tol = 0.05 * target + 5 * se
                if abs(mc - target) > tol:
                    o.error, o.stat = f"MC {mc:.5g} vs surrogate {target:.5g} (tol {tol:.3g})", True
            res.append(o)
        return res


class Samplers(Workload):
    """Weighted oracle and batched chain sampler called directly."""

    name = "samplers"
    ORACLE_TRIALS = 3000
    # E[K] = n on diag_exp: all four fail at the commit that introduced the
    # benchmark (degenerate weights, see ROADMAP.md), so they are findings
    EK_TRIALS = 1500
    EK_CASES = ((10, 5), (10, 11), (10, 12), (30, 60))
    # d=3, n=2: the cubic response's delta-method SE understates its error
    # (|z| up to 8 at 3000 trials), so in the timed passes that component is
    # checked finite only; its largest |z| over the run is a finding
    UNDER_FINITE_ONLY = (14,)

    def __init__(self, dd, seed, tmp):
        super().__init__(dd, seed, tmp)
        self.workers = nproc()
        self.watched: dict[tuple[str, int], list[float]] = {}  # finite-only |z| per estimate
        Spectrum, MeasureSpec = dd.covariance.Spectrum, dd.designs.MeasureSpec
        sur = dd.surrogate
        # criterion 4, under-determined: d=3, n=2
        s3 = Spectrum(np.array([1.0, 2.0, 3.0]))
        p3 = sur.surrogate_params(s3, 2)
        tau, lam, gamma = s3.eigenvalues, p3.lambda_n, p3.gamma_n
        self.w3 = np.array([0.5, -1.0, 2.0])
        v_cube = np.array([3.0 * tau[0] ** 2, 0.0, 0.0])
        self.under = (MeasureSpec(s3), 2, np.concatenate([
            [2.0], np.diag(1.0 / (gamma * tau + 1.0)).ravel(), [gamma * (1.0 - p3.alpha_n)],
            tau * self.w3 / (tau + lam), v_cube / (tau + lam)]))
        # criterion 4, over-determined: d=2, n=4
        s2 = Spectrum(np.array([1.0, 2.0]))
        tau2, g2 = s2.eigenvalues, 2.0
        self.w2 = np.array([1.0, -0.5])
        self.over = (MeasureSpec(s2), 4, np.concatenate([
            (np.diag(1.0 / tau2) * (1.0 - math.exp(-g2)) / g2).ravel(), self.w2,
            np.array([3.0 * tau2[0] ** 2, 0.0]) / tau2]))
        self.calls = [
            (self.oracle, ("oracle_c4_d3_n2", self.f_under, *self.under[:2],
                           self.ORACLE_TRIALS, self.under[2], (), self.UNDER_FINITE_ONLY)),
            (self.oracle, ("oracle_c4_d2_n4", self.f_over, *self.over[:2],
                           self.ORACLE_TRIALS, self.over[2], (4, 5)))]
        self.ek_calls = [
            (f"oracle_EK_d{d}_n{n}", self.f_size,
             MeasureSpec(dd.covariance.make_profile("diag_exp", d)), n, self.EK_TRIALS,
             np.array([float(n)]))
            for d, n in self.EK_CASES]
        # chains: criterion 5 (d=2, n=1) and d=10, n=5 on diag_exp
        for s, n, num, steps in ((s2, 1, 4000, 100),
                                 (dd.covariance.make_profile("diag_exp", 10), 5, 2000, 500)):
            g = sur.surrogate_params(s, n).gamma_n
            self.calls.append((self.chain, (f"chain_d{s.dim}_n{n}", MeasureSpec(s), n, num, steps,
                                            np.diag(1.0 / (g * s.eigenvalues + 1.0)),
                                            sur.surrogate_size_pmf(s, n))))

    def f_under(self, X):
        pinv = self.dd.linalg.pseudo_inverse
        d = X.shape[1]
        P = pinv(X)
        return np.concatenate([[X.shape[0]], (np.eye(d) - P @ X).ravel(),
                               [float(np.trace(pinv(X.T @ X)))], P @ (X @ self.w3),
                               P @ X[:, 0] ** 3])

    def f_over(self, X):
        pinv = self.dd.linalg.pseudo_inverse
        P = pinv(X)
        return np.concatenate([pinv(X.T @ X).ravel(), P @ (X @ self.w2), P @ X[:, 0] ** 3])

    @staticmethod
    def f_size(X):
        return np.array([float(X.shape[0])])

    def oracle(self, seed, op, f, m, n, trials, target, exact=(), finite_only=()):
        d = m.dim
        sizes = []

        def g(X):
            sizes.append(X.shape[0])
            return f(X)

        try:
            est = self.dd.designs.surrogate_expectation_oracle(g, m, n, trials, seed, self.workers)
        except Exception as exc:  # a raising estimator is a failed op, not a crash
            return Outcome(op, f"raised {type(exc).__name__}: {exc}")
        finally:
            ks = np.array(sizes)
            outside = ks > d if n < d else (ks < d if n > d else np.zeros(ks.shape, bool))
            self.counts["designs.oracle_trials"] += trials
            self.counts["designs.zero_weight"] += int(np.sum(outside))
        ess = float(est.effective_sample_size)
        self.counts["designs.ess"] += ess
        mean, se = np.array(est.mean, dtype=float), np.array(est.std_error, dtype=float)
        if not np.all(np.isfinite(mean[list(finite_only)])):
            return Outcome(op, "non-finite estimate", trials=trials, ess=ess)
        for i in finite_only:
            z = abs(float(z_scores(mean[i], se[i], target[i])))
            self.watched.setdefault((op, i), []).append(z)
        if exact:
            # exact per draw (X^+ X = I), so its SE is rounding jitter: compare by value
            idx = list(exact)
            dev = float(np.max(np.abs(mean[idx] - target[idx])))
            if not dev < 1e-9:
                return Outcome(op, f"exact block deviates by {dev:.3g}", trials=trials, ess=ess)
        keep = np.setdiff1d(np.arange(mean.size), list(exact) + list(finite_only))
        return check_estimate(op, mean[keep], se[keep], target[keep], trials, ess)

    def chain(self, seed, op, m, n, num, steps, closed, pmf):
        try:
            samples, rate = self.dd.designs.sample_surrogate_under_batch(m, n, num, steps, seed)
        except Exception as exc:
            return Outcome(op, f"raised {type(exc).__name__}: {exc}")
        self.counts["designs.chain_steps"] += num * steps
        self.counts["designs.accepted"] += rate * num * steps
        pc = self.dd.linalg.projection_complement
        mats = np.stack([pc(X) for X in samples])
        o = check_estimate(op, mats.mean(axis=0), mats.std(axis=0, ddof=1) / math.sqrt(num),
                           closed, num, num)
        if o.error is None:
            p = size_chi2_pvalue(np.array([X.shape[0] for X in samples]), pmf)
            if not p >= CHI2_P_MIN:
                o.error, o.stat = f"size chi-square p {p:.2g} < {CHI2_P_MIN}", True
        return o

    def warmup(self):
        m, n, target = self.under
        self.oracle(self.op_seed(-1, 0), "warmup", self.f_under, m, n, 1000, target)

    def steps(self, k):
        return [_single(fn, self.op_seed(k, j), *args) for j, (fn, args) in enumerate(self.calls)]

    def findings(self):
        found = [self.oracle(self.op_seed(-1, 1 + j), *args) for j, args in enumerate(self.ek_calls)]
        for (op, i), zs in sorted(self.watched.items()):
            o = Outcome(f"{op}_component{i}")
            if max(zs) > Z_MAX:
                o.error, o.stat = f"max |z| {max(zs):.2f} > {Z_MAX} over {len(zs)} estimates", True
            found.append(o)
        return found


_SLOPE = re.compile(r"log-log slope (\S+)")
_VERDICT = re.compile(r"(?:verdict|->) (consistent|violated)")


class Protocol(Workload):
    """The variance discrepancy grid with adaptive escalation and its slope
    fit, then the determinant-preservation scenarios of
    scripts/run_dp_suite.sh at verify_dp's minimum trial count, all
    through the CLI at one worker.

    The bias grid (d = 8, 16, 32) is left out: its escalation doubles the
    d=16 point between 6400 and 12800 trials from seed to seed, which
    spreads a 7 s call by 17 %, more than a run can average away.

    dp-verify tests at a 1 % family level, so a correct program reports a
    d.p. scenario as violated about once in a hundred calls. The check of a
    d.p. scenario is therefore the benchmark's own: every minor's z in
    dp_report.csv within the Bonferroni bound at family level DP_FAMILY.
    The counterexample must be reported violated."""

    name = "protocol"
    # The slope bound is -1 +- 0.4, wider than criterion 7's +-0.2, which is
    # for its grid to d=160. On this shorter grid the slope falls at -1.08
    # (sd 0.04), where criterion 7's bound fails a correct grid about once
    # in 2500.
    GRID = ("variance", "10,20,40,80", 100_000, (-1.4, -0.6))
    DP_TRIALS = 10_000
    # (scenario, d, gamma, expected verdict)
    DP = ([(s, 3, None, "consistent") for s in ("gaussian_entries", "rank1_scaled")]
          + [("rank2_scaled_counterexample", 3, None, "violated")]
          + [(s, 3, None, "consistent") for s in ("closure_sum", "closure_product")]
          + [("poisson_gram", 2, 3, "consistent")]
          + [("normalization", d, 1, "consistent") for d in (1, 2, 3)])

    def warmup(self):
        self.grid("variance", "10,20,40", 800, (-math.inf, math.inf), self.op_seed(-1, 0))
        self.dp_op(("normalization", 2, 1, "consistent"), self.op_seed(-1, 1))

    def steps(self, k):
        return ([functools.partial(self.grid, *self.GRID, self.op_seed(k, 0))]
                + [_single(self.dp_op, case, self.op_seed(k, 1 + j))
                   for j, case in enumerate(self.DP)])

    def grid(self, kind, d_values, cap, bounds, seed):
        ds = [int(v) for v in d_values.split(",")]
        ops = [f"{kind}_d{d}" for d in ds] + [f"{kind}_slope"]
        rc, stdout, err, out = self.cli([
            "discrepancy", "--kind", kind, "--profile", "diag_exp", "--kappa", "10000",
            "--aspect", "0.5", "--d-values", d_values, "--trials", str(cap), "--threads", "1",
            "--seed", str(seed)])
        if rc != 0:
            return _failed(ops, f"exit code {rc}: {err}")
        rows = {int(r["d"]): r for r in read_csv(out / "discrepancy.csv")}
        res = []
        for op, d in zip(ops, ds):
            row = rows.get(d)
            if row is None:
                res.append(Outcome(op, "missing from discrepancy.csv"))
                continue
            used = int(row["trials"])
            o = Outcome(op, trials=used, ess=used)
            if not all(map(math.isfinite, _floats(row, ["value", "ci_low", "ci_high"]))):
                o.error = "non-finite value"
            elif row["flagged"] != "0":
                o.error, o.stat = f"flagged at the {cap}-trial cap", True
            res.append(o)
        m = _SLOPE.search(stdout)
        slope = float(m.group(1)) if m else math.nan
        o = Outcome(ops[-1])
        if not math.isfinite(slope):
            o.error = "no finite slope printed"
        elif not bounds[0] <= slope <= bounds[1]:
            o.error, o.stat = f"slope {slope:.3f} outside {list(bounds)}", True
        res.append(o)
        return res

    def dp_op(self, case, seed):
        scenario, d, gamma, expected = case
        op = f"dp_{scenario}" + (f"_d{d}" if scenario == "normalization" else "")
        argv = ["dp-verify", "--scenario", scenario, "--d", str(d),
                "--trials", str(self.DP_TRIALS), "--seed", str(seed)]
        if gamma is not None:
            argv += ["--gamma", str(gamma)]
        rc, stdout, err, out = self.cli(argv)
        if rc != 0:
            return Outcome(op, f"exit code {rc}: {err}")
        trials = self.DP_TRIALS * (1 if scenario == "normalization" else 2)  # two streams
        m = _VERDICT.search(stdout)
        o = Outcome(op, trials=trials, ess=trials)
        z = np.abs([float(r["z"]) for r in read_csv(out / "dp_report.csv")])
        if m is None:
            o.error = "no verdict printed"
        elif z.size == 0 or not np.all(np.isfinite(z)):
            o.error = "no finite z in dp_report.csv"
        elif expected == "violated":
            if m.group(1) != expected:
                o.error, o.stat = f"verdict {m.group(1)}, expected {expected}", True
        else:
            bound = float(stats.norm.isf(DP_FAMILY / (2 * z.size)))
            if z.max() > bound:
                o.error, o.stat = f"max |z| {z.max():.2f} > {bound:.2f}", True
        return o


class ClosedForm(Workload):
    """No Monte Carlo: closed-form curve at d=1000, the figure-2 dimension
    sweep with SVG, and surrogate size pmfs. Each closed-form evaluation is
    one op and counts as one exact trial."""

    name = "closed_form"
    D = 1000
    SWEEP_N = 100
    PMF_D = (100, 200, 300)

    def __init__(self, dd, seed, tmp):
        super().__init__(dd, seed, tmp)
        cov = dd.covariance
        self.pmf_spectra = {d: cov.scale_trace_inverse(cov.make_profile("diag_exp", d), float(d))
                            for d in self.PMF_D}

    def warmup(self):
        self.cli(["curve", "--no-mc", "--d", "100", "--profile", "diag_exp", "--kappa", "10000",
                  "--n-values", "50,150"])
        self.pmf(100, 50)

    def curve(self, argv, key, peak_at):
        rc, _, err, out = self.cli(argv)
        if rc != 0:
            return [Outcome(f"{key}_call", f"exit code {rc}: {err}")]
        rows = read_csv(out / "curve.csv")
        res = []
        for r in rows:
            v = _floats(r, ["mse_surrogate", "lambda_n", "alpha_or_beta", "norm_implicit_mean"])
            o = Outcome(f"{key}={r[key]}", trials=1, ess=1)
            if not all(map(math.isfinite, v)):
                o.error = "non-finite value"
            res.append(o)
        if rows:
            top = max(range(len(rows)), key=lambda i: float(rows[i]["mse_surrogate"]))
            if int(rows[top][key]) != peak_at and res[top].error is None:
                res[top].error = f"peak at {key}={rows[top][key]}, expected {peak_at}"
        return res

    def pmf(self, d, n):
        op = f"pmf_d{d}"
        try:
            p = self.dd.surrogate.surrogate_size_pmf(self.pmf_spectra[d], n)
        except Exception as exc:
            return Outcome(op, f"raised {type(exc).__name__}: {exc}")
        o = Outcome(op, trials=1, ess=1)
        total, mean = float(np.sum(p)), float(np.arange(p.size) @ p)
        if not (np.all(np.isfinite(p)) and np.all(p >= 0)):
            o.error = "non-finite or negative probabilities"
        elif abs(total - 1.0) > 1e-9 or abs(mean - n) > 1e-9 * n:
            o.error = f"n={n}: sum {total!r}, mean {mean!r}"
        return o

    def steps(self, k):
        out = [functools.partial(
                   self.curve, ["curve", "--no-mc", "--d", str(self.D), "--profile", "diag_exp",
                                "--kappa", "10000", "--sigma2", "1", "--n-values", "50:1950:50"],
                   "n", self.D),
               functools.partial(
                   self.curve, ["curve", "--profile", "diag_exp", "--kappa", "10000", "--snr",
                                "1", "--n", str(self.SWEEP_N), "--d-values", "40:200:5", "--svg"],
                   "d", self.SWEEP_N)]
        rng = np.random.default_rng(self.op_seed(k, 0))
        for d in self.PMF_D:
            for n in rng.integers(1, d, size=3):
                out.append(_single(self.pmf, d, int(n)))
        return out


WORKLOADS = {w.name: w for w in (Curve, Samplers, Protocol, ClosedForm)}
