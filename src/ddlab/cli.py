"""Command-line entry point.

Commands: curve | discrepancy | dp-verify | sample. Parameters come from
an optional plain-text config file (``key = value`` lines with optional
``[section]`` grouping) overridden by flags; every output file embeds the
fully resolved configuration in ``#`` header comments so any run can be
reproduced byte-for-byte from its own output.

Exit codes: 0 success (including flagged results), 1 invalid input,
2 internal numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import dpcheck, experiments, svg
from .covariance import Spectrum, make_profile, scale_trace_inverse
from .designs import (
    DesignSample,
    MeasureSpec,
    gen_responses,
    sample_surrogate_over,
    sample_surrogate_under_batch,
)
from .errors import UnsupportedMeasureError
from .parallel import default_threads
from .surrogate import RegressionProblem

__all__ = ["main"]

DP_SCENARIOS = (
    "gaussian_entries",
    "rank1_scaled",
    "rank2_scaled_counterexample",
    "poisson_gram",
    "normalization",
    "closure_sum",
    "closure_product",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid input is exit code 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_config(path: str) -> dict[str, str]:
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # sections are grouping only; keys stay flat
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _parse_values(text: str) -> list[float]:
    """Comma list '10,20,40' or range 'start:stop:step' (stop inclusive)."""
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        if not step > 0:
            raise ValueError(f"range {text!r} needs a positive step")
        out = []
        v = start
        while v <= stop + 1e-9:
            out.append(v)
            v += step
    else:
        out = [float(v) for v in text.split(",") if v.strip()]
    if not out:
        raise ValueError(f"no values in {text!r}")
    return out


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _resolve(args, defaults: dict[str, str]) -> dict[str, str]:
    """defaults < config file < explicit flags; all values kept as strings."""
    cfg = dict(defaults)
    if args.config:
        cfg.update(parse_config(args.config))
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        cfg[key] = str(val)
    return cfg


def _build_spectrum(cfg: dict[str, str], d: int) -> Spectrum:
    kind = cfg.get("profile", "identity")
    kappa = float(cfg.get("kappa", "1"))
    if kind == "identity" or kappa == 1.0:
        s = Spectrum(np.ones(d))
    else:
        s = make_profile(kind, d, lambda_max=1.0, lambda_min=1.0 / kappa)
    if _bool(cfg.get("normalize_trace_inv", "true")):
        s = scale_trace_inverse(s, float(d))
    return s


def _build_w_star(cfg: dict[str, str], d: int) -> np.ndarray:
    spec = cfg.get("w_star", "uniform")
    if spec == "uniform":
        return np.full(d, 1.0 / math.sqrt(d))
    return np.array([float(v) for v in spec.split(",")])


def _header(cfg: dict[str, str]) -> list[str]:
    return [f"# {k}={cfg[k]}" for k in sorted(cfg)]


def _write_csv(path: Path, cfg: dict[str, str], columns: list[str], rows: list[list]) -> None:
    lines = _header(cfg) + [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if v is None else (repr(v) if isinstance(v, float) else str(v))
                              for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _fmt(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def cmd_curve(args) -> int:
    cfg = _resolve(args, {
        "d": "100", "sigma2": "1", "trials": "1000", "seed": "1", "profile": "identity",
        "kappa": "1", "normalize_trace_inv": "true", "w_star": "uniform", "mc": "true",
        "out": "out", "svg": "false", "threads": str(default_threads()),
    })
    out = Path(cfg["out"])
    trials = int(cfg["trials"])
    seed = int(cfg["seed"])
    threads = int(cfg["threads"])
    with_mc = _bool(cfg["mc"])
    columns = ["n", "d", "mse_surrogate", "mse_mc", "mse_mc_se", "ci_low", "ci_high",
               "lambda_n", "alpha_or_beta", "norm_implicit_mean"]
    if "d_values" in cfg:
        n = int(float(cfg.get("n", "100")))
        snr = float(cfg.get("snr", "1"))

        def make_problem(d):
            s = _build_spectrum(cfg, d)
            w = _build_w_star(cfg, d)
            sigma2 = float(np.dot(w, w)) / snr
            return RegressionProblem(s, w, sigma2), n

        points = experiments.curve_dimension_sweep(make_problem, [int(v) for v in _parse_values(cfg["d_values"])])
        xs = [p.d for p in points]
        xlabel = "d"
    else:
        d = int(cfg["d"])
        s = _build_spectrum(cfg, d)
        w = _build_w_star(cfg, d)
        p = RegressionProblem(s, w, float(cfg["sigma2"]))
        m = MeasureSpec(s, cfg.get("entry_law", "gaussian"))
        n_values = [int(v) for v in _parse_values(cfg.get("n_values", "10:190:10"))]
        points = experiments.curve_double_descent(p, m, n_values, trials, seed, threads, with_mc)
        xs = [p_.n for p_ in points]
        xlabel = "n"
    rows = [[int(pt.n), pt.d, pt.mse_surrogate, pt.mse_mc, pt.mse_mc_se, pt.ci_low,
             pt.ci_high, pt.lambda_n, pt.alpha_or_beta, pt.norm_implicit_mean]
            for pt in points]
    _write_csv(out / "curve.csv", cfg, columns, rows)
    if _bool(cfg["svg"]):
        series = [svg.Series(xs, [pt.mse_surrogate for pt in points], "surrogate", marker=True)]
        if points[0].mse_mc is not None:
            series.append(svg.Series(xs, [pt.mse_mc for pt in points], "iid MC (3 SE)",
                                     err=[3 * pt.mse_mc_se for pt in points], marker=True))
        null_mse = float(np.dot(_build_w_star(cfg, points[0].d), _build_w_star(cfg, points[0].d)))
        svg.line_chart(out / "curve.svg", series, title="MSE of the minimum-norm estimator",
                       xlabel=xlabel, ylabel="MSE", hline=null_mse, logy=True)
    print(f"wrote {out / 'curve.csv'} ({len(points)} points)")
    return 0


def cmd_discrepancy(args) -> int:
    cfg = _resolve(args, {
        "kind": "variance", "profile": "identity", "kappa": "1", "aspect": "0.5",
        "d_values": "10,20,40,80,160", "normalize_trace_inv": "false",
        "target_halfwidth": "0.125", "trials": "100000", "seed": "1",
        "out": "out", "svg": "false", "threads": str(default_threads()),
    })
    kind = cfg["kind"]
    if kind not in ("variance", "bias"):
        raise ValueError(f"unknown discrepancy kind {kind!r}")
    out = Path(cfg["out"])
    seed = int(cfg["seed"])
    threads = int(cfg["threads"])
    cap = int(cfg["trials"])
    target = float(cfg["target_halfwidth"])
    aspects = _parse_values(cfg["aspect"])
    d_values = [int(v) for v in _parse_values(cfg["d_values"])]
    points = []
    for aspect in aspects:
        for i, d in enumerate(d_values):
            s = _build_spectrum(cfg, d)
            point_seed = seed + 7919 * i + int(1e6 * aspect)
            if kind == "variance":
                fn = lambda t: experiments.variance_discrepancy(s, d, aspect, t, point_seed, threads)
            else:
                fn = lambda t: experiments.bias_discrepancy(s, d, aspect, t, point_seed, threads)
            points.append(experiments.adaptive_trials(fn, target, cap))
    columns = ["d", "n", "aspect", "kind", "value", "ci_low", "ci_high", "trials", "flagged"]
    rows = [[pt.d, pt.n, pt.aspect, pt.kind, pt.value, pt.ci_low, pt.ci_high,
             pt.trials_used, int(pt.flagged)] for pt in points]
    _write_csv(out / "discrepancy.csv", cfg, columns, rows)
    if any(pt.flagged for pt in points):
        print("warning: some points hit the trial cap before reaching the CI target", file=sys.stderr)
    for aspect in aspects:
        sub = [pt for pt in points if pt.aspect == aspect]
        slope, intercept, r2 = experiments.loglog_slope(sub)
        print(f"{kind} discrepancy, aspect {aspect}: log-log slope {slope:.3f} "
              f"(intercept {intercept:.3f}, r2 {r2:.3f})")
    if _bool(cfg["svg"]):
        series = [
            svg.Series([pt.d for pt in points if pt.aspect == a],
                       [pt.value for pt in points if pt.aspect == a],
                       f"aspect {a}", marker=True)
            for a in aspects
        ]
        svg.line_chart(out / "discrepancy.svg", series, title=f"{kind} discrepancy",
                       xlabel="d", ylabel="discrepancy", logx=True, logy=True)
    return 0


def _dp_generators(scenario: str, d: int, seed: int):
    fixed_rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xF1], dtype=np.uint64)))
    if scenario == "gaussian_entries":
        return dpcheck.gaussian_entries_generator(d)
    if scenario == "rank1_scaled":
        u, v = fixed_rng.standard_normal(d), fixed_rng.standard_normal(d)
        return dpcheck.scaled_fixed_generator(np.outer(u, v), [0.0, 2.0], "rank1_scaled")
    if scenario == "rank2_scaled_counterexample":
        U = fixed_rng.standard_normal((d, 2))
        V = fixed_rng.standard_normal((2, d))
        return dpcheck.scaled_fixed_generator(U @ V, [0.0, 2.0], "rank2_scaled")
    if scenario == "closure_sum":
        u, v = fixed_rng.standard_normal(d), fixed_rng.standard_normal(d)
        return (dpcheck.scaled_fixed_generator(np.outer(u, v), [0.0, 2.0], "rank1_scaled"),
                dpcheck.gaussian_entries_generator(d))
    if scenario == "closure_product":
        return (dpcheck.gaussian_entries_generator(d), dpcheck.gaussian_entries_generator(d))
    raise ValueError(f"unknown scenario {scenario!r}")


def cmd_dp_verify(args) -> int:
    cfg = _resolve(args, {
        "scenario": "gaussian_entries", "d": "3", "gamma": "1", "sigma2": "1",
        "trials": "100000", "seed": "1", "out": "out", "kappa": "1", "profile": "identity",
        "normalize_trace_inv": "false",
    })
    scenario = cfg["scenario"]
    if scenario not in DP_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {DP_SCENARIOS}")
    d = int(cfg["d"])
    gamma = float(cfg["gamma"])
    trials = int(cfg["trials"])
    seed = int(cfg["seed"])
    out = Path(cfg["out"])
    sizes = list(range(1, d + 1))
    if scenario == "normalization":
        sigma2 = float(cfg["sigma2"])
        s = Spectrum(np.full(d, sigma2)) if d == 1 else _build_spectrum(cfg, d)
        est, target = dpcheck.verify_normalization(MeasureSpec(s), gamma, trials, seed)
        z = float(est.z_score(target))
        verdict = "consistent" if abs(z) <= 3 else "violated"
        _write_csv(out / "dp_report.csv", cfg,
                   ["I", "J", "size", "mc_mean", "mc_se", "det_of_mean", "z"],
                   [["-", "-", d, float(est.mean), float(est.std_error), target, z]])
        print(f"normalization: estimate {float(est.mean):.6g} +- {float(est.std_error):.2g}, "
              f"target {target:.6g}, z {z:.2f} -> {verdict}")
        return 0
    if scenario == "poisson_gram":
        s = _build_spectrum(cfg, d)
        report = dpcheck.verify_poisson_identity(MeasureSpec(s), gamma, trials, seed)
        full = [r for r in report.records if r.size == d][0]
        print(f"poisson_gram: full-minor target det(gamma*Sigma) = "
              f"{float(np.prod(gamma * s.eigenvalues)):.6g}, estimate {full.mc_mean:.6g}")
    elif scenario in ("closure_sum", "closure_product"):
        gA, gB = _dp_generators(scenario, d, seed)
        mode = "sum" if scenario == "closure_sum" else "product"
        report = dpcheck.verify_closure(gA, gB, mode, sizes, trials, seed)
    else:
        report = dpcheck.verify_dp(_dp_generators(scenario, d, seed), sizes, trials, seed)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "dp_report.csv")
    print(f"{scenario}: verdict {report.verdict} (max |z| {report.max_abs_z:.2f}, "
          f"threshold {report.z_threshold:.2f}, {len(report.records)} minors)")
    return 0


def cmd_sample(args) -> int:
    cfg = _resolve(args, {
        "d": "4", "n": "2", "profile": "identity", "kappa": "1", "entry_law": "gaussian",
        "normalize_trace_inv": "false", "chain_steps": "", "seed": "1", "out": "out",
        "sigma2": "", "w_star": "uniform",
    })
    d = int(cfg["d"])
    n = int(cfg["n"])
    seed = int(cfg["seed"])
    out = Path(cfg["out"])
    steps = int(cfg["chain_steps"]) if cfg["chain_steps"] else None
    m = MeasureSpec(_build_spectrum(cfg, d), cfg["entry_law"])
    if n < d:
        (X,), rate = sample_surrogate_under_batch(m, n, 1, steps, seed)
        sample = DesignSample(X=X, accept_rate=rate)
    else:
        sample = sample_surrogate_over(m, n, steps, seed)
    if cfg["sigma2"] != "":
        w = _build_w_star(cfg, d)
        sample.y = gen_responses(sample.X, w, float(cfg["sigma2"]), seed + 1)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sample.csv"
    csv_path.write_text("\n".join(_header(cfg)) + "\n" + sample.csv_text())
    summary = [f"realized_k={sample.k}", f"accept_rate={sample.accept_rate!r}"]
    (out / "sample_summary.txt").write_text("\n".join(_header(cfg) + summary) + "\n")
    print(f"wrote {csv_path} (k={sample.k})")
    return 0


def _add_common(sp):
    sp.add_argument("--config", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--svg", action="store_const", const="true", default=None)


def build_parser() -> _Parser:
    ap = _Parser(prog="ddlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curve")
    _add_common(c)
    c.add_argument("--d", type=int, default=None)
    c.add_argument("--n-values", dest="n_values", default=None)
    c.add_argument("--d-values", dest="d_values", default=None)
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--snr", type=float, default=None)
    c.add_argument("--profile", default=None)
    c.add_argument("--kappa", type=float, default=None)
    c.add_argument("--sigma2", type=float, default=None)
    c.add_argument("--w-star", dest="w_star", default=None)
    c.add_argument("--no-mc", dest="mc", action="store_const", const="false", default=None)

    g = sub.add_parser("discrepancy")
    _add_common(g)
    g.add_argument("--kind", default=None)
    g.add_argument("--profile", default=None)
    g.add_argument("--kappa", type=float, default=None)
    g.add_argument("--aspect", default=None)
    g.add_argument("--d-values", dest="d_values", default=None)
    g.add_argument("--target-halfwidth", dest="target_halfwidth", type=float, default=None)

    v = sub.add_parser("dp-verify")
    _add_common(v)
    v.add_argument("--scenario", default=None)
    v.add_argument("--d", type=int, default=None)
    v.add_argument("--gamma", type=float, default=None)
    v.add_argument("--sigma2", type=float, default=None)

    s = sub.add_parser("sample")
    _add_common(s)
    s.add_argument("--d", type=int, default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--profile", default=None)
    s.add_argument("--kappa", type=float, default=None)
    s.add_argument("--entry-law", dest="entry_law", default=None)
    s.add_argument("--chain-steps", dest="chain_steps", type=int, default=None)
    s.add_argument("--sigma2", type=float, default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "curve": cmd_curve,
        "discrepancy": cmd_discrepancy,
        "dp-verify": cmd_dp_verify,
        "sample": cmd_sample,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, UnsupportedMeasureError, FileNotFoundError) as exc:
        print(f"ddlab: invalid input: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical or internal failure
        print(f"ddlab: internal failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
