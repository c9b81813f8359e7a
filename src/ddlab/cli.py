"""Command-line entry point: a thin shell over the library.

Commands: curve | discrepancy | dp-verify | sample. ``OPTIONS`` declares
each command's keys and their defaults once. Every key is both a flag,
``--key`` with ``-`` for ``_`` (``mc`` is set by ``--no-mc`` and ``svg``
by ``--svg``), and a key of the optional plain-text config file given by
``--config`` (``key = value`` lines with optional ``[section]``
grouping). Flags override the file, and a key that the command (for
``curve``, its mode; for ``dp-verify``, its scenario; for ``sample``,
whether sigma2 is set) does not read is invalid input.
Every output file embeds the fully resolved configuration in ``#`` header
comments so any run can be reproduced byte-for-byte from its own output.
Every CSV goes through ``_write_csv``: the sorted ``# key=value`` header,
the column line, then one LF-ended line per row.

``dp-verify`` runs ``dpcheck.verify_normalization`` for the
``normalization`` scenario and ``dpcheck.verify_dp`` on
``dpcheck.scenario_generator`` for every other one.

Exit codes: 0 success (including flagged results), 1 invalid input,
2 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import dpcheck, experiments, svg
from .covariance import PROFILE_KINDS, Spectrum, make_profile, scale_trace_inverse
from .designs import MeasureSpec, gen_responses, sample_surrogate_under_batch
from .parallel import default_threads
from .surrogate import RegressionProblem

__all__ = ["main"]

log = logging.getLogger(__name__)

DP_COLUMNS = ["I", "J", "size", "mc_mean", "mc_se", "det_of_mean", "z"]

# key -> default, kept as the string the header records. A None default
# keeps the key out of the header until it is set; a callable one is
# called when the command runs without the key. curve has two modes, each
# with its own keys: a given d_values selects the dimension sweep at fixed
# n, else the n-grid runs at fixed d.
_CURVE_COMMON = {"profile": "identity", "kappa": "1", "normalize_trace_inv": "true",
                  "w_star": "uniform", "out": "out", "svg": "false"}
_CURVE_SWEEP = {"d_values": None, "n": "100", "snr": "1", **_CURVE_COMMON}
_CURVE_GRID = {"d": "100", "n_values": None, "sigma2": "1", "entry_law": None, "mc": "true",
               "trials": "1000", "seed": "1", "threads": default_threads, **_CURVE_COMMON}
# dp-verify's keys: every scenario reads _DP_FIXED, and those that
# dpcheck.reads_measure names read the row measure and gamma too
_DP_FIXED = {"scenario": "gaussian_entries", "d": "3", "trials": "100000", "seed": "1",
             "out": "out"}
_DP_MEASURE = {**_DP_FIXED, "gamma": "1", "sigma2": "1", "profile": "identity", "kappa": "1",
               "normalize_trace_inv": "false"}
# command -> its keys; curve's flags are those of both modes
OPTIONS = {
    "curve": {**_CURVE_GRID, **_CURVE_SWEEP},
    "discrepancy": {
        "kind": "variance", "profile": "identity", "kappa": "1", "aspect": "0.5",
        "d_values": "10,20,40,80,160", "normalize_trace_inv": "false",
        "target_halfwidth": "0.125", "trials": "100000", "seed": "1",
        "threads": default_threads, "out": "out", "svg": "false",
    },
    "dp-verify": _DP_MEASURE,
    "sample": {
        "d": "4", "n": "2", "profile": "identity", "kappa": "1", "normalize_trace_inv": "false",
        "entry_law": "gaussian", "sigma2": "", "w_star": "uniform", "seed": "1", "out": "out",
    },
}
# flag value types; every other key is taken as text
_TYPES = {"d": int, "n": int, "trials": int, "seed": int, "threads": int, "kappa": float,
          "sigma2": float, "snr": float, "gamma": float, "target_halfwidth": float}
# keys set by a flag that takes no value: key -> (flag, value it sets)
_SWITCHES = {"mc": ("--no-mc", "false"), "svg": ("--svg", "true")}


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
    """Comma list '10,20,40' or range 'start:stop:step' (stop inclusive).

    The i-th value of a range is start + i * step, computed exactly from
    the text, so '0.1:0.9:0.1' gives the same floats as '0.1,0.2,...,0.9'.
    """
    if ":" in text:
        try:
            start, stop, step = (Decimal(v) for v in text.split(":"))
            if not step > 0:
                raise ValueError
            count = int((stop - start) // step) + 1 if stop >= start else 0
            out = [float(start + i * step) for i in range(count)]
        except (ValueError, ArithmeticError):
            raise ValueError(f"range {text!r} needs numbers start:stop:step, step > 0") from None
    else:
        out = [float(v) for v in text.split(",") if v.strip()]
    if not out:
        raise ValueError(f"no values in {text!r}")
    return out


def _sizes(key: str, text: str) -> list[int]:
    """The values of a size key (n_values, d_values, or the sweep's one n),
    which must be whole numbers: 5.5 rows cannot be drawn."""
    values = _parse_values(text)
    if not all(v.is_integer() for v in values):
        raise ValueError(f"{key} must be whole numbers, got {text!r}")
    return [int(v) for v in values]


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _resolve(args) -> dict[str, str]:
    """defaults < config file < explicit flags; all values kept as strings."""
    name, table = args.command, OPTIONS[args.command]
    given = parse_config(args.config) if args.config else {}
    given.update((k, str(v)) for k, v in vars(args).items() if k in table and v is not None)
    if name == "curve":
        name, table = (("curve sweep", _CURVE_SWEEP) if "d_values" in given
                       else ("curve n-grid", _CURVE_GRID))
    elif name == "dp-verify":
        scenario = given.get("scenario", table["scenario"])
        if not dpcheck.reads_measure(scenario):
            name, table = f"dp-verify {scenario}", _DP_FIXED
    elif name == "sample" and given.get("sigma2", table["sigma2"]) == "":
        # w_star enters only the responses, which a set sigma2 asks for
        name, table = "sample with no sigma2", {k: v for k, v in table.items() if k != "w_star"}
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ValueError(f"{name} does not read {', '.join(unknown)}")
    defaults = {k: str(v() if callable(v) else v) for k, v in table.items()
                if v is not None and k not in given}
    cfg = {**defaults, **given}
    if "threads" in cfg and int(cfg["threads"]) < 1:
        raise ValueError(f"threads must be at least 1, got {cfg['threads']}")
    return cfg


def _build_spectrum(cfg: dict[str, str], d: int) -> Spectrum:
    kind = cfg["profile"]
    kappa = float(cfg["kappa"])
    if kind not in ("identity", *PROFILE_KINDS):
        raise ValueError(f"unknown profile {kind!r}; expected identity or one of {PROFILE_KINDS}")
    if not kappa >= 1:
        raise ValueError(f"kappa is a condition number, at least 1, got {kappa!r}")
    if kind == "identity" and kappa != 1.0:
        raise ValueError(f"the identity profile has kappa 1, got {kappa!r}")
    if kappa == 1.0:
        s = Spectrum(np.ones(d))
    else:
        s = make_profile(kind, d, lambda_max=1.0, lambda_min=1.0 / kappa)
    if _bool(cfg["normalize_trace_inv"]):
        s = scale_trace_inverse(s, float(d))
    return s


def _build_w_star(cfg: dict[str, str], d: int) -> np.ndarray:
    spec = cfg["w_star"]
    if spec == "uniform":
        return np.full(d, 1.0 / math.sqrt(d))
    return np.array([float(v) for v in spec.split(",")])


def _header(cfg: dict[str, str]) -> list[str]:
    return [f"# {k}={cfg[k]}" for k in sorted(cfg)]


def _write_csv(path: Path, cfg: dict[str, str], columns: list[str], rows: list[list]) -> None:
    """The config header, the column line and one line per row, LF-ended;
    floats are written as repr(float(v)) and None as an empty field."""
    lines = _header(cfg) + [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v)) if isinstance(v, float)
                              else str(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def cmd_curve(cfg: dict[str, str]) -> int:
    out = Path(cfg["out"])
    columns = ["n", "d", "mse_surrogate", "mse_mc", "mse_mc_se", "ci_low", "ci_high",
               "lambda_n", "alpha_or_beta", "norm_implicit_mean"]
    law = cfg.get("entry_law", "gaussian")
    # the MSE closed form is derived for Gaussian rows only; the Monte Carlo
    # columns follow the given law
    gaussian_form_only = law != "gaussian" and _bool(cfg.get("mc", "false"))
    if "d_values" in cfg:
        (n,) = _sizes("n", cfg["n"])
        snr = float(cfg["snr"])
        if not snr > 0:
            raise ValueError(f"snr must be positive, got {snr!r}")

        def make_problem(d):
            s = _build_spectrum(cfg, d)
            w = _build_w_star(cfg, d)
            sigma2 = float(np.dot(w, w)) / snr
            return RegressionProblem(s, w, sigma2), n

        points = experiments.curve_dimension_sweep(make_problem, _sizes("d_values", cfg["d_values"]))
        xs = [p.d for p in points]
        xlabel = "d"
    else:
        d = int(cfg["d"])
        s = _build_spectrum(cfg, d)
        w = _build_w_star(cfg, d)
        p = RegressionProblem(s, w, float(cfg["sigma2"]))
        m = MeasureSpec(s, law)
        if gaussian_form_only:
            log.warning("mse_surrogate is the Gaussian closed form; %s rows need not follow it",
                        law)
        n_values = _sizes("n_values", cfg.get("n_values", "10:190:10"))
        points = experiments.curve_double_descent(p, m, n_values, int(cfg["trials"]),
                                                  int(cfg["seed"]), int(cfg["threads"]),
                                                  _bool(cfg["mc"]))
        xs = [p_.n for p_ in points]
        xlabel = "n"
    rows = [[int(pt.n), pt.d, pt.mse_surrogate, pt.mse_mc, pt.mse_mc_se, pt.ci_low,
             pt.ci_high, pt.lambda_n, pt.alpha_or_beta, pt.norm_implicit_mean]
            for pt in points]
    _write_csv(out / "curve.csv", cfg, columns, rows)
    if _bool(cfg["svg"]):
        label = "surrogate (Gaussian closed form)" if gaussian_form_only else "surrogate"
        series = [svg.Series(xs, [pt.mse_surrogate for pt in points], label, marker=True)]
        if points[0].mse_mc is not None:
            series.append(svg.Series(xs, [pt.mse_mc for pt in points], "iid MC (3 SE)",
                                     err=[3 * pt.mse_mc_se for pt in points], marker=True))
        w0 = _build_w_star(cfg, points[0].d)
        svg.line_chart(out / "curve.svg", series, title="MSE of the minimum-norm estimator",
                       xlabel=xlabel, ylabel="MSE", hline=float(np.dot(w0, w0)), logy=True)
    print(f"wrote {out / 'curve.csv'} ({len(points)} points)")
    return 0


def cmd_discrepancy(cfg: dict[str, str]) -> int:
    kind = cfg["kind"]
    out = Path(cfg["out"])
    seed = int(cfg["seed"])
    threads = int(cfg["threads"])
    cap = int(cfg["trials"])
    target = float(cfg["target_halfwidth"])
    aspects = _parse_values(cfg["aspect"])
    d_values = _sizes("d_values", cfg["d_values"])
    if len(set(d_values)) < 3:
        raise ValueError("need at least 3 distinct d-values for the log-log slope fit")
    points = []
    for aspect in aspects:
        for i, d in enumerate(d_values):
            s = _build_spectrum(cfg, d)
            point_seed = seed + 7919 * i + round(1e6 * aspect)
            fn = experiments.discrepancy_point(kind, s, d, aspect, point_seed, threads)
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


def cmd_dp_verify(cfg: dict[str, str]) -> int:
    scenario = cfg["scenario"]
    d = int(cfg["d"])
    trials = int(cfg["trials"])
    seed = int(cfg["seed"])
    out = Path(cfg["out"])
    if dpcheck.reads_measure(scenario):
        gamma = float(cfg["gamma"])
        # sigma2 scales the row covariance
        s = Spectrum(_build_spectrum(cfg, d).eigenvalues * float(cfg["sigma2"]))
    else:  # a fixed law, which reads only d
        gamma, s = None, Spectrum(np.ones(d))
    if scenario == "normalization":
        est, target = dpcheck.verify_normalization(MeasureSpec(s), gamma, trials, seed)
        z = float(est.z_score(target))
        verdict = "consistent" if abs(z) <= 3 else "violated"
        _write_csv(out / "dp_report.csv", cfg, DP_COLUMNS,
                   [["-", "-", d, float(est.mean), float(est.std_error), target, z]])
        print(f"normalization: estimate {float(est.mean):.6g} +- {float(est.std_error):.2g}, "
              f"target {target:.6g}, z {z:.2f} -> {verdict}")
        return 0
    g = dpcheck.scenario_generator(scenario, MeasureSpec(s), gamma, seed)
    report = dpcheck.verify_dp(g, range(1, d + 1), trials, seed)
    if scenario == "poisson_gram":
        # past max_minors minors, the d x d minor may be left out of the sample
        full = [r.mc_mean for r in report.records if r.size == d]
        estimate = f"estimate {full[0]:.6g}" if full else "full minor not sampled"
        print(f"poisson_gram: full-minor target det(gamma*Sigma) = "
              f"{float(np.prod(gamma * s.eigenvalues)):.6g}, {estimate}")
    _write_csv(out / "dp_report.csv", cfg, DP_COLUMNS,
               [[" ".join(map(str, r.rows)), " ".join(map(str, r.cols)), r.size, r.mc_mean,
                 r.mc_se, r.det_of_mean, r.z] for r in report.records])
    print(f"{scenario}: verdict {report.verdict} (max |z| {report.max_abs_z:.2f}, "
          f"threshold {report.z_threshold:.2f}, {len(report.records)} minors)")
    return 0


def cmd_sample(cfg: dict[str, str]) -> int:
    d = int(cfg["d"])
    n = int(cfg["n"])
    seed = int(cfg["seed"])
    out = Path(cfg["out"])
    m = MeasureSpec(_build_spectrum(cfg, d), cfg["entry_law"])
    (X,), rate = sample_surrogate_under_batch(m, n, 1, None, seed)
    k = X.shape[0]
    y = [None] * k
    if cfg["sigma2"] != "":
        y = gen_responses(X, _build_w_star(cfg, d), float(cfg["sigma2"]), seed + 1).tolist()
    csv_path = out / "sample.csv"
    _write_csv(csv_path, cfg, [f"x_{j + 1}" for j in range(d)] + ["y"],
               [row + [yi] for row, yi in zip(X.tolist(), y)])
    summary = [f"realized_k={k}", f"accept_rate={rate!r}"]
    (out / "sample_summary.txt").write_text("\n".join(_header(cfg) + summary) + "\n")
    print(f"wrote {csv_path} (k={k})")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built from OPTIONS once per process."""
    ap = _Parser(prog="ddlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, table in OPTIONS.items():
        sp = sub.add_parser(command)
        sp.add_argument("--config")
        for key in table:
            if key in _SWITCHES:
                flag, const = _SWITCHES[key]
                sp.add_argument(flag, dest=key, action="store_const", const=const)
            else:
                sp.add_argument("--" + key.replace("_", "-"), dest=key, type=_TYPES.get(key))
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
        return handlers[args.command](_resolve(args))
    except (ValueError, FileNotFoundError) as exc:
        print(f"ddlab: invalid input: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical or internal failure
        print(f"ddlab: internal failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
