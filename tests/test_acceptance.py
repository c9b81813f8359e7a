"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
printed lines immediately). The heavier criteria (3, 4, 7) take minutes.
"""

import math

import numpy as np
import pytest
from scipy import stats

from ddlab.cli import main as cli_main
from ddlab.covariance import Spectrum, make_profile, scale_trace_inverse
from ddlab.designs import (
    MeasureSpec,
    sample_iid,
    sample_surrogate_under_batch,
    surrogate_expectation_oracle,
)
from ddlab.dpcheck import (
    poisson_gram_generator,
    scaled_fixed_generator,
    verify_dp,
    verify_normalization,
)
from ddlab.experiments import (
    adaptive_trials,
    curve_point,
    discrepancy_point,
    loglog_slope,
    mse_trial_samples,
)
from ddlab.linalg import projection_complement, pseudo_inverse
from ddlab.parallel import trial_rng
from ddlab.surrogate import (
    RegressionProblem,
    bias_factors,
    implicit_reg_mean,
    solve_lambda,
    surrogate_mse,
    surrogate_params,
    surrogate_size_pmf,
    variance_term,
)

from dp_generators import fixed_k_gram_generator


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE criterion {num} ({name}): {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_closed_form_isotropic_suite():
    d = 100
    s = Spectrum(np.ones(d))
    ok = True
    details = []
    for n in (25, 50, 75):
        lam = solve_lambda(s, n)
        if abs(lam - (d / n - 1)) > 1e-10:
            ok, details = False, details + [f"lambda at n={n}"]
        p = surrogate_params(s, n)
        target_log_alpha = d * math.log(n / d)
        if abs(p.log_alpha_n - target_log_alpha) > 1e-10 * abs(target_log_alpha):
            ok, details = False, details + [f"alpha at n={n}"]
    w = np.full(d, 1 / math.sqrt(d))
    prob = RegressionProblem(s, w, 1.0)
    if surrogate_mse(prob, d) != 100.0:
        ok, details = False, details + ["peak MSE"]
    for n in (25, 50, 75):
        norm = float(np.linalg.norm(implicit_reg_mean(prob, n)))
        if abs(norm - (n / d) * 1.0) > 1e-10:
            ok, details = False, details + [f"implicit mean norm at n={n}"]
    report(1, "closed-form isotropic suite", ok, "; ".join(details))


def test_criterion_2_variance_bias_identity():
    failures = 0
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        d = int(rng.integers(2, 30))
        s = Spectrum(rng.uniform(1e-3, 10.0, size=d))
        w = rng.standard_normal(d)
        sigma2 = float(rng.uniform(0.0, 4.0))
        n = int(rng.integers(1, d))
        p = RegressionProblem(s, w, sigma2)
        lhs = sigma2 * variance_term(s, n) + float(np.sum(bias_factors(s, n) * w**2))
        rhs = surrogate_mse(p, n)
        err = abs(lhs - rhs) / max(abs(rhs), 1.0)
        worst = max(worst, err)
        failures += err > 1e-12
    report(2, "variance/bias split identity", failures == 0,
           f"worst relative error {worst:.2e} over 100 random problems")


def test_criterion_3_figure_1a_reproduction():
    d = 100
    s = scale_trace_inverse(make_profile("diag_exp", d), float(d))
    w = np.full(d, 1 / math.sqrt(d))
    p = RegressionProblem(s, w, 1.0)
    peak = surrogate_mse(p, d)
    ok = abs(peak - 100.0) < 1e-9
    details = [f"surrogate peak {peak:.6f}"]
    boot = trial_rng(202, 0xACC3)
    for i, n in enumerate((25, 50, 75, 150, 200)):
        target = surrogate_mse(p, n)
        vals = mse_trial_samples(p, "gaussian", n, 1000, 202 + 1000 * i)
        mean = float(np.mean(vals))
        boot_means = [np.mean(vals[boot.integers(1000, size=1000)]) for _ in range(500)]
        se = float(np.std(boot_means, ddof=1))
        tol = max(3 * se, 0.05 * target)
        if abs(mean - target) > tol:
            ok = False
            details.append(f"n={n}: MC {mean:.4f} vs surrogate {target:.4f} (tol {tol:.4f})")
    report(3, "double-descent curve agreement at d=100", ok, "; ".join(details))


def test_criterion_4_weighted_oracle_suite():
    trials = 1_000_000
    checks = []

    # under-determined regime: d=3, general spectrum, n=2
    s = Spectrum(np.array([1.0, 2.0, 3.0]))
    d, n = 3, 2
    m = MeasureSpec(s)
    sp = surrogate_params(s, n)
    gamma, lam = sp.gamma_n, sp.lambda_n
    w = np.array([0.5, -1.0, 2.0])
    tau = s.eigenvalues
    # response y(x) = x_1^3 in the eigenbasis: v = E[x y(x)] = 3 tau_1^2 e_1
    v_cube = np.array([3.0 * tau[0] ** 2, 0.0, 0.0])

    def f_under(X):
        P = pseudo_inverse(X)
        comp = np.eye(d) - P @ X
        gram_pinv_tr = float(np.trace(pseudo_inverse(X.T @ X)))
        mean_lin = P @ (X @ w)  # noise integrated out of X^+(Xw + xi)
        y_cube = X[:, 0] ** 3
        return np.concatenate([[X.shape[0]], comp.ravel(), [gram_pinv_tr],
                               mean_lin, P @ y_cube])

    est = surrogate_expectation_oracle(f_under, m, n, trials, seed=7)
    target_under = np.concatenate([
        [float(n)],                                            # Lemma: expected size
        np.diag(1.0 / (gamma * tau + 1.0)).ravel(),            # projection complement mean
        [gamma * (1.0 - sp.alpha_n)],                          # trace of the Gram pseudo-inverse
        tau * w / (tau + lam),                                 # expected estimator, linear response
        v_cube / (tau + lam),                                  # expected estimator, cubic response
    ])
    z_under = np.max(np.abs(est.z_score(target_under)))
    checks.append(("under-determined oracle block", z_under))

    # direct Monte Carlo estimate of v for the cubic response
    rows = sample_iid(m, 200_000, 11)
    xv = rows * (rows[:, 0] ** 3)[:, None]
    v_mc = xv.mean(axis=0)
    v_se = xv.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    checks.append(("direct MC estimate of the cubic response moment",
                   float(np.max(np.abs((v_mc - v_cube) / v_se)))))

    # over-determined regime: d=2, n=4 (gamma = 2)
    s2 = Spectrum(np.array([1.0, 2.0]))
    m2 = MeasureSpec(s2)
    n2 = 4
    gamma2 = float(n2 - 2)
    tau2 = s2.eigenvalues
    w2 = np.array([1.0, -0.5])
    v_cube2 = np.array([3.0 * tau2[0] ** 2, 0.0])

    def f_over(X):
        P = pseudo_inverse(X)
        sqinv = pseudo_inverse(X.T @ X)
        return np.concatenate([sqinv.ravel(), P @ (X @ w2), P @ X[:, 0] ** 3])

    est2 = surrogate_expectation_oracle(f_over, m2, n2, trials, seed=13)
    target_over = np.concatenate([
        (np.diag(1.0 / tau2) * (1.0 - math.exp(-gamma2)) / gamma2).ravel(),
        w2,                       # expected estimator, linear response (exact)
        v_cube2 / tau2,           # expected estimator, cubic response
    ])
    # the linear-response block is exact per draw (X^+X = I almost surely), so
    # its standard error is rounding jitter; compare it by value instead
    z_over_vec = np.abs(est2.z_score(target_over))
    z_over_vec[4:6] = 0.0
    lin_exact = float(np.max(np.abs(np.asarray(est2.mean)[4:6] - w2)))
    z_over = float(np.max(z_over_vec))
    checks.append(("over-determined oracle block", z_over))
    assert lin_exact < 1e-9, f"exact linear block deviates by {lin_exact:.2e}"

    ok = all(z <= 3.0 for _, z in checks)
    detail = "; ".join(f"{name}: max |z| {z:.2f}" for name, z in checks)
    report(4, "weighted-oracle lemma suite (10^6 trials)", ok, detail)


def test_criterion_5_chain_sampler_agreement():
    s = Spectrum(np.array([1.0, 2.0]))
    m = MeasureSpec(s)
    d, n = 2, 1
    gamma = surrogate_params(s, n).gamma_n
    closed = np.diag(1.0 / (gamma * s.eigenvalues + 1.0))

    num = 20_000
    samples, _ = sample_surrogate_under_batch(m, n, num, 100, 21)
    mats = np.stack([projection_complement(X) for X in samples])
    chain_mean = mats.mean(axis=0)
    chain_se = mats.std(axis=0, ddof=1) / math.sqrt(num)

    oracle = surrogate_expectation_oracle(projection_complement, m, n, 200_000, 23)

    se_floor = np.where(chain_se > 0, chain_se, np.inf)
    z_closed = float(np.max(np.abs((chain_mean - closed) / se_floor)))
    comb = np.sqrt(chain_se**2 + np.asarray(oracle.std_error) ** 2)
    comb = np.where(comb > 0, comb, np.inf)
    z_oracle = float(np.max(np.abs((chain_mean - np.asarray(oracle.mean)) / comb)))

    ks = np.array([X.shape[0] for X in samples])
    counts = np.bincount(ks, minlength=d + 1)
    pmf = surrogate_size_pmf(s, n)
    chi2 = stats.chisquare(counts, num * pmf)

    ok = z_closed <= 3.0 and z_oracle <= 3.0 and chi2.pvalue > 0.01
    report(5, "chain sampler vs oracle vs closed form", ok,
           f"|z| closed {z_closed:.2f}, |z| oracle {z_oracle:.2f}, "
           f"size pmf chi-square p {chi2.pvalue:.3f}")


def test_criterion_6_dp_verify_suite():
    ok = True
    details = []

    # normalization targets at d = 1, 2, 3
    for d in (1, 2, 3):
        s = Spectrum(np.arange(1.0, d + 1.0))
        est, target = verify_normalization(MeasureSpec(s), 1.0, 100_000, 31 + d)
        z = float(est.z_score(target))
        if abs(z) > 3.0:
            ok = False
        details.append(f"normalization d={d} z={z:.2f}")

    # Poisson Gram: full-minor expectation equals det(gamma * Sigma)
    s = Spectrum(np.array([1.0, 2.0]))
    rep = verify_dp(poisson_gram_generator(MeasureSpec(s), 3.0), [1, 2], 100_000, 37)
    full = [r for r in rep.records if r.size == 2 and r.rows == r.cols == (0, 1)][0]
    det_target = float(np.prod(3.0 * s.eigenvalues))
    z_gram = (full.mc_mean - det_target) / full.mc_se
    if rep.verdict != "consistent" or abs(z_gram) > 3.0:
        ok = False
    details.append(f"poisson gram verdict {rep.verdict}, target z {z_gram:.2f}")

    # fixed-size control: violates with the predicted d!/d^d factor
    d = 2
    rep_k = verify_dp(fixed_k_gram_generator(MeasureSpec(Spectrum(np.ones(d))), d),
                      [d], 100_000, 41)
    full_k = [r for r in rep_k.records if r.rows == r.cols == (0, 1)][0]
    ratio = full_k.mc_mean / full_k.det_of_mean
    factor = math.factorial(d) / d**d
    ratio_se = full_k.mc_se / abs(full_k.det_of_mean)
    if rep_k.verdict != "violated" or abs(ratio - factor) > 3 * ratio_se + 0.02:
        ok = False
    details.append(f"fixed-size ratio {ratio:.3f} vs {factor:.3f}")

    # scaled low-rank counterexample at 10^5 trials
    rng = np.random.default_rng(43)
    Z = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
    rep_c = verify_dp(scaled_fixed_generator(Z, [0.0, 2.0]), [2], 100_000, 43)
    if rep_c.verdict != "violated" or rep_c.max_abs_z <= 5.0:
        ok = False
    details.append(f"counterexample max |z| {rep_c.max_abs_z:.1f}")

    report(6, "determinant-preservation harness suite", ok, "; ".join(details))


@pytest.mark.parametrize("kind,profile,d_values,bounds", [
    ("variance", "identity", (10, 20, 40, 80, 160), (-1.2, -0.8)),
    ("variance", "diag_exp", (10, 20, 40, 80, 160), (-1.2, -0.8)),
    ("bias", "diag_exp", (8, 16, 32, 64), (-1.3, -0.7)),
])
def test_criterion_7_discrepancy_slopes(kind, profile, d_values, bounds):
    points = []
    for i, d in enumerate(d_values):
        s = Spectrum(np.ones(d)) if profile == "identity" else make_profile("diag_exp", d)
        cap = 100_000 if kind == "variance" else 400_000
        points.append(adaptive_trials(discrepancy_point(kind, s, 0.5, 51 + 7919 * i),
                                      target_rel_halfwidth=0.125, cap=cap, start=400))
    slope, _, r2 = loglog_slope(points)
    flagged = [p.d for p in points if p.flagged]
    ok = bounds[0] <= slope <= bounds[1] and not flagged
    report(7, f"{kind} discrepancy slope ({profile})", ok,
           f"slope {slope:.3f} in {list(bounds)}, r2 {r2:.3f}, "
           f"trials {[p.trials_used for p in points]}, flagged {flagged}, "
           f"noise/value {[round(p.noise_floor / p.value, 3) for p in points]}")


def test_criterion_8_double_descent_shape():
    ok = True
    details = []

    # peak at n = d for a noisy problem
    d = 60
    s = scale_trace_inverse(make_profile("diag_exp", d), float(d))
    w = np.full(d, 1 / math.sqrt(d))
    p = RegressionProblem(s, w, 1.0)
    vals = {n: surrogate_mse(p, n) for n in range(1, 2 * d + 1)}
    n_peak = max(vals, key=vals.get)
    if n_peak != d:
        ok = False
    details.append(f"n-sweep peak at n={n_peak} (d={d})")

    # sub-null region: some n < d with MSE below the null estimator's
    null_mse = float(w @ w)  # signal-to-noise ratio 1: sigma2 = ||w*||^2
    sub_null = [n for n in range(1, d) if vals[n] < null_mse]
    if not sub_null:
        ok = False
    details.append(f"{len(sub_null)} sample sizes below the null MSE {null_mse:.2f}")

    # dimension sweep at fixed n = 100 peaks at d = n
    n_fixed = 100

    def problem(dd):
        ss = scale_trace_inverse(make_profile("diag_exp", dd), float(dd))
        return RegressionProblem(ss, np.full(dd, 1 / math.sqrt(dd)), 1.0)

    points = [curve_point(problem(dd), n_fixed) for dd in range(40, 201, 4)]
    d_peak = max(points, key=lambda pt: pt.mse_surrogate).d
    if d_peak != n_fixed:
        ok = False
    details.append(f"d-sweep peak at d={d_peak} (n={n_fixed})")

    report(8, "double-descent shape properties", ok, "; ".join(details))


def test_criterion_9_reproducibility(tmp_path):
    def strip_run_specific(path, out_dir):
        lines = path.read_text().replace(str(out_dir), "OUT").splitlines()
        return [ln for ln in lines if not ln.startswith("# threads=")]

    base = ["curve", "--d", "20", "--n-values", "5,10,20,30", "--trials", "200",
            "--seed", "17"]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    assert cli_main(base + ["--out", str(dirs[0]), "--threads", "1"]) == 0
    assert cli_main(base + ["--out", str(dirs[1]), "--threads", "1"]) == 0
    assert cli_main(base + ["--out", str(dirs[2]), "--threads", "4"]) == 0

    identical_rerun = (dirs[0] / "curve.csv").read_bytes().replace(
        str(dirs[0]).encode(), b"OUT") == (dirs[1] / "curve.csv").read_bytes().replace(
        str(dirs[1]).encode(), b"OUT")
    thread_invariant = strip_run_specific(dirs[0] / "curve.csv", dirs[0]) == \
        strip_run_specific(dirs[2] / "curve.csv", dirs[2])

    ok = identical_rerun and thread_invariant
    report(9, "byte-identical reproducibility", ok,
           f"rerun identical {identical_rerun}, thread-count invariant {thread_invariant}")
