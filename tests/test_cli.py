import hashlib
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ddlab import parallel
from ddlab.cli import OPTIONS, _parse_values, _resolve, build_parser, main, parse_config
from ddlab.parallel import default_threads

ROOT = Path(__file__).resolve().parent.parent

DP_SCENARIOS = ("gaussian_entries", "rank1_scaled", "rank2_scaled_counterexample",
                "closure_sum", "closure_product", "poisson_gram", "normalization")


def run(args):
    return main(args)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rows_digest(path):
    """digest of a CSV's column and data lines, its header lines dropped"""
    lines = path.read_text().splitlines()
    return digest("\n".join(ln for ln in lines if not ln.startswith("#")))


def read_rows(path):
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    return body[0].split(","), [ln.split(",") for ln in body[1:]]


class TestConfigParsing:
    def test_key_value_and_comments(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("[run]\nd = 10  # dimension\nprofile=diag_exp\n\n")
        parsed = parse_config(str(cfg))
        assert parsed == {"d": "10", "profile": "diag_exp"}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("not a pair\n")
        with pytest.raises(ValueError):
            parse_config(str(cfg))

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        rc = run(["curve", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1


class TestOptionTable:
    # (command, config) pairs of the scripts that run the preset configs
    PRESETS = sorted({m.groups() for script in (ROOT / "scripts").glob("run_*.sh")
                      for m in re.finditer(r"ddlab (\S+) --config (\S+)", script.read_text())})

    def test_every_preset_has_a_script(self):
        assert sorted(path for _, path in self.PRESETS) == \
            sorted(f"configs/{p.name}" for p in (ROOT / "configs").glob("*.cfg"))

    @pytest.mark.parametrize("command, path", PRESETS)
    def test_preset_keys_are_options(self, command, path):
        cfg = _resolve(build_parser().parse_args([command, "--config", str(ROOT / path)]))
        assert set(parse_config(str(ROOT / path))) <= set(cfg) <= set(OPTIONS[command])

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("d = 6\nn_values = 2,4\nkind = bias\n")
        out = tmp_path / "o"
        rc = run(["curve", "--no-mc", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert "kind" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sample", "--trials", "5"],
                                      ["dp-verify", "--threads", "4"],
                                      ["sample", "--chain-steps", "5"]])
    def test_flag_the_command_never_reads_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 1
        assert argv[1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["curve", "--no-mc", "--d", "10", "--n-values", "5", "--profile", "diag_exp",
         "--kappa", "0"],
        ["discrepancy", "--d-values", "10,20,40", "--profile", "diag_exp", "--kappa", "0"],
        ["dp-verify", "--scenario", "normalization", "--profile", "diag_exp", "--kappa", "0"],
        ["sample", "--profile", "diag_exp", "--kappa", "0"],
        ["sample", "--profile", "diag_exp", "--kappa=-3"],
        ["curve", "--d-values", "40,50,60", "--n", "50", "--snr", "0"],
        ["curve", "--d", "10", "--n-values", "5", "--trials", "30", "--threads", "0"],
        ["discrepancy", "--d-values", "10,20,40", "--trials", "100", "--threads=-1"],
        ["sample", "--d", "4", "--n", "2", "--sigma2=-1"],
        ["sample", "--d", "4", "--n", "2", "--sigma2", "nan"],
        ["sample", "--d", "4", "--n", "2", "--sigma2", "inf"],
        ["curve", "--no-mc", "--d", "10", "--n-values", "5", "--sigma2", "nan"],
        ["discrepancy", "--d-values", "10,20,40", "--trials", "200", "--target-halfwidth", "nan"],
        ["discrepancy", "--d-values", "10,20,40", "--trials", "200", "--target-halfwidth=-1"],
        ["dp-verify", "--scenario", "normalization", "--d", "2", "--trials", "1"],
        ["dp-verify", "--scenario", "normalization", "--d", "2", "--trials", "0"],
        # sizes with a fraction were truncated to the whole rows below them
        ["curve", "--no-mc", "--d", "10", "--n-values", "5.5,7.9"],
        ["curve", "--d-values", "10.5,20,40", "--n", "12"],
        ["discrepancy", "--d-values", "10.5,20.2,40.9", "--trials", "200"],
    ])
    def test_invalid_number_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 1
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_invalid_ddlab_threads_exit_1(self, tmp_path, capsys, monkeypatch, value):
        # these used to fall back to one thread without a word
        monkeypatch.setenv("DDLAB_THREADS", value)
        with pytest.raises(ValueError, match="DDLAB_THREADS"):
            default_threads()
        out = tmp_path / "o"
        assert run(["curve", "--d", "10", "--n-values", "5", "--trials", "30",
                    "--out", str(out)]) == 1
        assert "DDLAB_THREADS" in capsys.readouterr().err
        assert not out.exists()
        # the variable is only the default: a given --threads does not read it
        assert run(["curve", "--d", "10", "--n-values", "5", "--trials", "30",
                    "--threads", "1", "--out", str(out)]) == 0

    def test_fractional_sweep_n_in_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("d_values = 40,50,60\nn = 100.5\n")
        out = tmp_path / "o"
        assert run(["curve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "n must be whole numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_config_only_keys_have_flags(self, tmp_path):
        out = tmp_path / "o"
        assert run(["sample", "--d", "3", "--n", "2", "--normalize-trace-inv", "true",
                    "--w-star", "1,0,0", "--sigma2", "1", "--out", str(out)]) == 0
        text = (out / "sample.csv").read_text()
        assert "# normalize_trace_inv=true" in text and "# w_star=1,0,0" in text


class TestCurveCommand:
    def test_formula_only_fast(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["curve", "--no-mc", "--d", "100", "--n-values", "10:190:10",
                  "--out", str(out)])
        assert rc == 0
        cols, rows = read_rows(out / "curve.csv")
        assert cols[:3] == ["n", "d", "mse_surrogate"]
        assert len(rows) == 19
        # MC columns empty in formula-only mode
        assert all(r[3] == "" for r in rows)
        # n = d row carries the peak value sigma^2 tr(Sigma^{-1}) = 100
        peak = [r for r in rows if r[0] == "100"][0]
        assert float(peak[2]) == pytest.approx(100.0)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("d = 100\nmc = false\nn_values = 1:5:1\n")
        out = tmp_path / "o"
        rc = run(["curve", "--config", str(cfg), "--d", "6", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out / "curve.csv")
        assert all(r[1] == "6" for r in rows)

    def test_header_embeds_resolved_config(self, tmp_path):
        out = tmp_path / "o"
        run(["curve", "--no-mc", "--d", "12", "--n-values", "2,4", "--seed", "9",
             "--out", str(out)])
        text = (out / "curve.csv").read_text()
        assert "# d=12" in text and "# seed=9" in text and "# mc=false" in text

    def test_svg_toggle_does_not_change_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["curve", "--no-mc", "--d", "10", "--n-values", "2:18:2"]
        run(base + ["--out", str(a)])
        run(base + ["--out", str(b), "--svg"])
        content_a = (a / "curve.csv").read_text().replace(str(a), "OUT")
        content_b = (b / "curve.csv").read_text().replace(str(b), "OUT")
        # the only differing header line is the svg toggle itself
        diff = set(content_a.splitlines()) ^ set(content_b.splitlines())
        assert diff == {"# svg=false", "# svg=true"}
        assert (b / "curve.svg").exists() and not (a / "curve.svg").exists()

    def test_dimension_sweep_peak(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["curve", "--d-values", "4:20:1", "--n", "12", "--snr", "1",
                  "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out / "curve.csv")
        peak = max(rows, key=lambda r: float(r[2]))
        assert peak[1] == "12"

    @pytest.mark.parametrize("flag, values", [
        ("--n-values", "10:190:0"),
        ("--n-values", "10:190:-10"),
        ("--n-values", "190:10:-10"),
        ("--n-values", "20:10:5"),
        ("--n-values", ","),
        ("--d-values", "4:20:0"),
    ])
    def test_bad_value_list_exit_1(self, tmp_path, capsys, flag, values):
        extra = ["--n", "12"] if flag == "--d-values" else ["--no-mc", "--d", "20"]
        rc = run(["curve", *extra, flag, values, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_profile_exit_1(self, tmp_path, capsys):
        rc = run(["curve", "--no-mc", "--d", "10", "--profile", "diag_bogus",
                  "--n-values", "5", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "diag_bogus" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_identity_with_kappa_exit_1(self, tmp_path, capsys):
        rc = run(["curve", "--no-mc", "--d", "10", "--profile", "identity", "--kappa", "100",
                  "--n-values", "5", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "kappa" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_named_profile_at_kappa_1_is_the_identity(self, tmp_path):
        rows = []
        for profile in ("identity", "diag_exp"):
            out = tmp_path / profile
            assert run(["curve", "--no-mc", "--d", "10", "--profile", profile, "--kappa", "1",
                        "--n-values", "5,15", "--out", str(out)]) == 0
            rows.append(read_rows(out / "curve.csv"))
        assert rows[0] == rows[1]

    def test_sweep_header_lists_the_keys_it_reads(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["curve", "--d-values", "40:60:10", "--out", str(out)]) == 0
        header = [ln for ln in (out / "curve.csv").read_text().splitlines() if ln.startswith("#")]
        assert header == ["# d_values=40:60:10", "# kappa=1", "# n=100",
                          "# normalize_trace_inv=true", f"# out={out}", "# profile=identity",
                          "# snr=1", "# svg=false", "# w_star=uniform"]
        for argv in (["--trials", "7"], ["--seed", "99"], ["--sigma2", "5"], ["--d", "50"]):
            assert run(["curve", "--d-values", "40:60:10", *argv, "--out", str(out)]) == 1
            assert argv[0][2:] in capsys.readouterr().err

    def test_n_grid_rejects_the_sweep_keys(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["curve", "--no-mc", "--d", "6", "--n-values", "2,4", "--out", str(out)]) == 0
        header = (out / "curve.csv").read_text()
        assert "# n=" not in header and "# snr=" not in header and "# d=6" in header
        for argv in (["--n", "12"], ["--snr", "2"]):
            assert run(["curve", "--no-mc", "--d", "6", *argv, "--out", str(tmp_path / "x")]) == 1
            assert argv[0][2:] in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_reproducible_with_mc(self, tmp_path):
        args = ["curve", "--d", "8", "--n-values", "3,5", "--trials", "40", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert (a / "curve.csv").read_text().replace(str(a), "OUT") == \
            (b / "curve.csv").read_text().replace(str(b), "OUT")

    @pytest.mark.parametrize("law, mc, warns", [("gaussian", [], False),
                                                ("rademacher", [], True),
                                                ("uniform_pm_sqrt3", [], True),
                                                ("rademacher", ["--no-mc"], False)])
    def test_non_gaussian_monte_carlo_names_the_gaussian_form(self, tmp_path, caplog, capsys,
                                                              law, mc, warns):
        # the MSE closed form is the Gaussian one: a run that sets it next to
        # Monte Carlo of another law says so in a warning and in the SVG
        # label; stdout stays the one line
        out = tmp_path / "o"
        with caplog.at_level(logging.WARNING, logger="ddlab.cli"):
            assert run(["curve", "--d", "8", "--n-values", "3,5", "--trials", "40", "--seed", "3",
                        "--entry-law", law, *mc, "--svg", "--out", str(out)]) == 0
        warned = [r.getMessage() for r in caplog.records if "Gaussian closed form" in r.getMessage()]
        assert len(warned) == warns and all(law in msg for msg in warned)
        assert ("surrogate (Gaussian closed form)" in (out / "curve.svg").read_text()) == warns
        assert capsys.readouterr().out == f"wrote {out / 'curve.csv'} (2 points)\n"

    @pytest.mark.parametrize("n_values, args, warned", [
        ("3,5,6,7,8,9,10,11,12", [], "the i.i.d. MSE is infinite at n = 7, 8, 9; the per-trial "
                                     "statistic has infinite variance at n = 5, 6, 10, 11;"),
        ("3,10,20", [], "at d = 8: the per-trial statistic has infinite variance at n = 10;"),
        ("3,8,20", [], "at d = 8: the i.i.d. MSE is infinite at n = 8;"),
        ("3,4,12,20", [], None),
        ("7,8,9", ["--no-mc"], None),
        ("7,8,9", ["--entry-law", "rademacher"], None)])
    def test_heavy_tailed_gaussian_points_warn_once(self, tmp_path, caplog, n_values, args,
                                                    warned):
        # near n = d the Gaussian i.i.d. MSE is infinite (|n - d| <= 1) or its
        # per-trial statistic has infinite variance (2 <= |n - d| <= 3): one
        # warning names those points, and their rows keep their values
        out = tmp_path / "o"
        with caplog.at_level(logging.WARNING, logger="ddlab.cli"):
            assert run(["curve", "--d", "8", "--n-values", n_values, "--trials", "40",
                        *args, "--out", str(out)]) == 0
        msgs = [r.getMessage() for r in caplog.records if "Gaussian Monte Carlo" in r.getMessage()]
        assert msgs == ([] if warned is None else [msgs[0]])
        if warned is not None:
            assert warned in msgs[0] and msgs[0].endswith("mse_mc and its CI there are not reliable")
        header, rows = read_rows(out / "curve.csv")
        assert [int(r[0]) for r in rows] == [int(n) for n in n_values.split(",")]
        mc = [r[header.index("mse_mc")] for r in rows]
        assert all(math.isfinite(float(v)) for v in mc) if "--no-mc" not in args else set(mc) == {""}

    @pytest.mark.parametrize("line", ["trials = abc", "entry_law = cauchy"])
    def test_no_mc_still_checks_trials_and_law(self, tmp_path, capsys, line):
        # neither is used without Monte Carlo, but a bad value is still an error
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"d = 10\nn_values = 5\n{line}\n")
        out = tmp_path / "o"
        assert run(["curve", "--config", str(cfg), "--no-mc", "--out", str(out)]) == 1
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists()

    def test_pinned_monte_carlo_rows(self, tmp_path):
        # sha256 prefix of the curve.csv data rows of the figure-1 problem
        # (d = 100) at 60 trials on 2 workers. n = 50 runs the n <= d design
        # path, n = 150 the bidiagonal path, n = 100 the peak. A change is a
        # change of random stream, of MSE arithmetic or of output format
        out = tmp_path / "o"
        assert run(["curve", "--config", str(ROOT / "configs/figure1.cfg"),
                    "--n-values", "50,100,150", "--trials", "60", "--threads", "2",
                    "--out", str(out)]) == 0
        assert rows_digest(out / "curve.csv") == "99fababab80c8776"

    def test_non_finite_monte_carlo_exits_2(self, tmp_path, capsys, monkeypatch):
        # a generator whose chi-squares are all 0 makes the Gaussian n > d
        # trials infinite: a numerical failure, exit 2, and no curve.csv
        broken = SimpleNamespace(chisquare=lambda df, size: np.zeros(size))
        monkeypatch.setattr(parallel, "trial_rng", lambda seed, index: broken)
        out = tmp_path / "o"
        assert run(["curve", "--d", "8", "--n-values", "12", "--trials", "40",
                    "--out", str(out)]) == 2
        assert "internal failure: non-finite" in capsys.readouterr().err
        assert not (out / "curve.csv").exists()


class TestDiscrepancyCommand:
    def test_variance_small_grid(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["discrepancy", "--kind", "variance", "--d-values", "8,12,16",
                  "--aspect", "0.5", "--trials", "2000", "--seed", "2", "--out", str(out)])
        assert rc == 0
        cols, rows = read_rows(out / "discrepancy.csv")
        assert cols == ["d", "n", "aspect", "kind", "value", "ci_low", "ci_high",
                        "trials", "flagged"]
        assert len(rows) == 3
        assert "log-log slope" in capsys.readouterr().out

    def test_cap_flags_but_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["discrepancy", "--kind", "bias", "--d-values", "6,8,10",
                  "--aspect", "0.5", "--trials", "100", "--seed", "2", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out / "discrepancy.csv")
        err = capsys.readouterr().err
        if any(r[-1] == "1" for r in rows):
            assert "trial cap" in err

    def test_unknown_kind_exit_1(self, tmp_path, capsys):
        rc = run(["discrepancy", "--kind", "skew", "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("d_values", ["10,20", "10,10,20"])
    def test_too_few_d_values_exit_1_before_the_grid(self, tmp_path, capsys, d_values):
        out = tmp_path / "o"
        rc = run(["discrepancy", "--d-values", d_values, "--trials", "200", "--out", str(out)])
        assert rc == 1
        assert "at least 3 distinct d-values" in capsys.readouterr().err
        assert not out.exists()

    def test_range_runs_the_points_of_its_comma_list(self, tmp_path):
        # 0.5:0.8:0.1 once summed to 0.7999999999999999 and seeded its last point apart
        assert _parse_values("0.5:0.8:0.1") == [0.5, 0.6, 0.7, 0.8]
        assert _parse_values("10:190:10") == [float(v) for v in range(10, 191, 10)]
        args = ["discrepancy", "--d-values", "8,10,12", "--trials", "100", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--aspect", "0.5:0.8:0.1", "--out", str(a)]) == 0
        assert run(args + ["--aspect", "0.5,0.6,0.7,0.8", "--out", str(b)]) == 0
        assert read_rows(a / "discrepancy.csv") == read_rows(b / "discrepancy.csv")

    def test_reproducible(self, tmp_path):
        args = ["discrepancy", "--kind", "variance", "--d-values", "8,10,12",
                "--aspect", "0.5", "--trials", "1000", "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "discrepancy.csv").read_text().replace(str(a), "OUT") == \
            (b / "discrepancy.csv").read_text().replace(str(b), "OUT")

    # sha256 prefixes of the discrepancy.csv data rows at an 800-trial cap,
    # which every point reaches (so each escalates through its doublings).
    # A change is a change of random stream, of discrepancy or bootstrap
    # arithmetic, of the escalation rule or of output format
    PINNED = {
        "variance": (["--d-values", "8,12,16", "--aspect", "0.25,0.5", "--seed", "3"],
                     "e97cce190aefc971"),
        "bias": (["--d-values", "6,8,10", "--seed", "4"], "c366d79729ea9459"),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_pinned_rows(self, tmp_path, kind):
        argv, pin = self.PINNED[kind]
        out = tmp_path / "o"
        assert run(["discrepancy", "--kind", kind, "--profile", "diag_exp", "--kappa", "10000",
                    *argv, "--trials", "800", "--out", str(out)]) == 0
        assert rows_digest(out / "discrepancy.csv") == pin


class TestDpVerifyCommand:
    @pytest.mark.parametrize("trials", ["0", "1", "99"])
    def test_normalization_trial_floor(self, tmp_path, capsys, trials):
        # below 100 trials the SE was NaN (1 trial) or numpy's concatenate
        # failed (0 trials); the message names the floor
        out = tmp_path / "o"
        assert run(["dp-verify", "--scenario", "normalization", "--d", "2", "--trials", trials,
                    "--out", str(out)]) == 1
        assert "at least 100 trials" in capsys.readouterr().err
        assert not out.exists()

    def test_counterexample_detected(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["dp-verify", "--scenario", "rank2_scaled_counterexample", "--d", "3",
                  "--trials", "50000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert "violated" in capsys.readouterr().out
        assert (out / "dp_report.csv").exists()

    def test_poisson_gram_consistent(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["dp-verify", "--scenario", "poisson_gram", "--d", "2", "--gamma", "3",
                  "--trials", "20000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert "consistent" in capsys.readouterr().out

    def test_poisson_gram_full_minor_left_out(self, tmp_path, capsys):
        # d = 5 has 251 minors, more than the 200 tested; at seed 1 the
        # sample leaves out the full 5 x 5 minor
        out = tmp_path / "o"
        rc = run(["dp-verify", "--scenario", "poisson_gram", "--d", "5", "--trials", "10000",
                  "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "full minor not sampled" in text
        assert "200 minors" in text
        _, rows = read_rows(out / "dp_report.csv")
        assert len(rows) == 200 and all(int(r[2]) < 5 for r in rows)

    def test_normalization_target(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["dp-verify", "--scenario", "normalization", "--d", "1", "--gamma", "1",
                  "--sigma2", "1", "--trials", "20000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "consistent" in text
        # target e^{-1}(1 + 1) = 0.735759
        assert "0.735759" in text

    def test_sigma2_scales_the_covariance(self, tmp_path, capsys):
        rc = run(["dp-verify", "--scenario", "normalization", "--d", "2", "--sigma2", "2",
                  "--trials", "20000", "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        # target e^{-gamma} det(I + 2 gamma I) = 9 / e at gamma = 1
        assert f"target {9 / math.e:.6g}," in capsys.readouterr().out

    def test_fixed_law_reads_no_measure_keys(self, tmp_path, capsys):
        # rank1_scaled is a fixed law at dimension d: the row measure and
        # gamma stay out of its header, and setting one exits 1
        argv = ["dp-verify", "--scenario", "rank1_scaled", "--d", "2", "--trials", "10000"]
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 0
        header = [ln.split("=")[0] for ln in (out / "dp_report.csv").read_text().splitlines()
                  if ln.startswith("#")]
        assert header == ["# d", "# out", "# scenario", "# seed", "# trials"]
        cfg = tmp_path / "a.cfg"
        cfg.write_text("profile = diag_exp\n")
        for extra in (["--gamma", "2"], ["--sigma2", "2"], ["--kappa", "10"],
                      ["--normalize-trace-inv", "true"], ["--config", str(cfg)]):
            assert run(argv + extra + ["--out", str(tmp_path / "x")]) == 1, extra
            assert "dp-verify rank1_scaled does not read" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_measure_keys_are_recorded_and_read(self, tmp_path, capsys):
        # normalization reads the row measure and gamma: each of their keys
        # is in the header and moves the target
        base = {"--gamma": "1", "--sigma2": "1", "--profile": "diag_exp", "--kappa": "10",
                "--normalize-trace-inv": "false"}
        changed = {"--gamma": "2", "--sigma2": "2", "--profile": "diag_linear",
                   "--kappa": "100", "--normalize-trace-inv": "true"}

        def target(opts):
            out = tmp_path / "o"
            assert run(["dp-verify", "--scenario", "normalization", "--d", "3",
                        "--trials", "10000", *sum(opts.items(), ()), "--out", str(out)]) == 0
            header = {ln[2:].split("=")[0] for ln in (out / "dp_report.csv").read_text().splitlines()
                      if ln.startswith("#")}
            return re.search(r"target (\S+),", capsys.readouterr().out).group(1), header

        ref, header = target(base)
        assert {"gamma", "sigma2", "profile", "kappa", "normalize_trace_inv"} <= header
        for flag, value in changed.items():
            assert target({**base, flag: value})[0] != ref, flag

    @pytest.mark.parametrize("scenario", ["normalization", "poisson_gram"])
    @pytest.mark.parametrize("gamma", ["0", "-1", "nan", "inf"])
    def test_degenerate_gamma_exit_1(self, tmp_path, capsys, scenario, gamma):
        # gamma = 0 used to pass normalization as "estimate 1 +- 0 ...
        # consistent", and NaN or negative gamma surfaced numpy's own
        # message from the Poisson draw
        out = tmp_path / "o"
        assert run(["dp-verify", "--scenario", scenario, "--d", "2", "--gamma", gamma,
                    "--trials", "10000", "--out", str(out)]) == 1
        assert "gamma must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_exit_1(self, tmp_path):
        rc = run(["dp-verify", "--scenario", "mystery", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_no_minors_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["dp-verify", "--scenario", "gaussian_entries", "--d", "0", "--out", str(out)])
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists()

    def test_report_columns_and_rows(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(["dp-verify", "--scenario", "rank1_scaled", "--d", "2", "--trials", "10000",
             "--out", str(out)])
        cols, rows = read_rows(out / "dp_report.csv")
        assert cols == ["I", "J", "size", "mc_mean", "mc_se", "det_of_mean", "z"]
        # 4 minors of size 1 and 1 of size 2, the I and J index lists space-separated
        assert "5 minors" in capsys.readouterr().out
        assert len(rows) == 5 and rows[-1][:3] == ["0 1", "0 1", "2"]

    # sha256 prefixes of stdout and of the dp_report.csv data rows (header
    # lines and any CR dropped) at --trials 10000 --seed 5. The stdout pins
    # were recorded when the CLI still built the scenarios itself; the row
    # pins when the minor determinants moved from one LAPACK call per matrix
    # to dpcheck._minor_dets, which changed the rows' last digits only
    # (|dz| <= 4e-14, det_of_mean unchanged). A change is a change of random
    # stream, of determinant arithmetic or of output format
    PINNED = {
        "gaussian_entries": (["--d", "3"], "41530ea310a244d7", "92372159a93e3d93"),
        "rank1_scaled": (["--d", "3"], "4fde5a15832455c0", "f5aef9ed2ab7c80c"),
        "rank2_scaled_counterexample": (["--d", "3"], "3a13571cf9c38a14", "c8fba97788e2bb15"),
        "closure_sum": (["--d", "3"], "736d7ed7e4efcb49", "4828eee01b8c0c29"),
        "closure_product": (["--d", "3"], "65bf312103cc5103", "a5928fb9bcdc5983"),
        "poisson_gram": (["--d", "2", "--gamma", "3"], "3f3e38852a5f7421", "6f72711e46cbb3e9"),
        "normalization": (["--d", "2"], "36ca2a6aa67ec7dc", "d2d0149059dcc310"),
    }

    @pytest.mark.parametrize("scenario", DP_SCENARIOS)
    def test_pinned_output(self, tmp_path, capsys, scenario):
        extra, stdout_digest, rows_pin = self.PINNED[scenario]
        out = tmp_path / "o"
        rc = run(["dp-verify", "--scenario", scenario, *extra, "--trials", "10000",
                  "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert digest(capsys.readouterr().out) == stdout_digest
        assert rows_digest(out / "dp_report.csv") == rows_pin


class TestSampleCommand:
    def test_under_regime(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["sample", "--d", "4", "--n", "2", "--seed", "5", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out / "sample.csv")
        assert len(rows) <= 4
        summary = (out / "sample_summary.txt").read_text()
        assert "realized_k=" in summary and "accept_rate=" in summary
        assert sorted(p.name for p in out.iterdir()) == ["sample.csv", "sample_summary.txt"]

    def test_over_regime_row_count(self, tmp_path):
        out = tmp_path / "o"
        run(["sample", "--d", "3", "--n", "8", "--seed", "6", "--out", str(out)])
        _, rows = read_rows(out / "sample.csv")
        assert len(rows) >= 3  # d block rows always present

    def test_responses_written(self, tmp_path):
        out = tmp_path / "o"
        run(["sample", "--d", "3", "--n", "2", "--sigma2", "1", "--seed", "7",
             "--out", str(out)])
        cols, rows = read_rows(out / "sample.csv")
        assert cols == ["x_1", "x_2", "x_3", "y"]
        for r in rows:
            assert r[-1] != ""
            float(r[-1])

    def test_columns_and_row_count_with_responses(self, tmp_path):
        out = tmp_path / "o"
        run(["sample", "--d", "3", "--n", "6", "--sigma2", "1", "--seed", "9",
             "--out", str(out)])
        lines = [ln for ln in (out / "sample.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "x_1,x_2,x_3,y"
        # one line per realized row, each with d values and a y
        assert f"realized_k={len(lines) - 1}" in (out / "sample_summary.txt").read_text()
        assert len(lines) - 1 >= 3
        for ln in lines[1:]:
            fields = ln.split(",")
            assert len(fields) == 4 and all(repr(float(v)) == v for v in fields)

    def test_rows_without_responses(self, tmp_path):
        out = tmp_path / "o"
        run(["sample", "--d", "3", "--n", "5", "--seed", "7", "--out", str(out)])
        _, rows = read_rows(out / "sample.csv")
        assert rows
        for r in rows:
            # d values written as repr(float), then an empty y field
            assert len(r) == 4 and r[-1] == ""
            assert all(repr(float(v)) == v for v in r[:-1])

    # sha256 prefixes of stdout, sample.csv and sample_summary.txt, the output
    # directory written as OUT, recorded when sample.csv had its own writer;
    # the two files' pins were re-recorded when the header lost the key the
    # run does not read (chain_steps, w_star), with that line the only change;
    # rademacher_over's were re-recorded when the bounded laws' tilted blocks
    # became exact row-by-row draws
    PINNED = {
        "gaussian_under_y": (["--d", "5", "--n", "3", "--profile", "diag_exp", "--kappa", "10",
                              "--sigma2", "0.5", "--seed", "11"],
                             "b9c4c0131b598bb5", "120adb52b059519f", "1b2b506cdabc4289"),
        "rademacher_over": (["--d", "3", "--n", "6", "--entry-law", "rademacher",
                             "--seed", "12"],
                            "aadf91b946ca9df0", "7adc109eb161c32c", "162c84589b7c68a3"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_output(self, tmp_path, capsys, case):
        argv, *digests = self.PINNED[case]
        out = tmp_path / "o"
        assert run(["sample", *argv, "--out", str(out)]) == 0
        texts = [capsys.readouterr().out, (out / "sample.csv").read_text(),
                 (out / "sample_summary.txt").read_text()]
        assert [digest(t.replace(str(out), "OUT")) for t in texts] == digests

    def test_unread_keys_left_out_and_rejected(self, tmp_path, capsys):
        # without sigma2 no response is drawn: w_star stays out of both
        # headers, and setting it exits 1 before anything is written
        argv = ["sample", "--d", "3", "--n", "2", "--seed", "4"]
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 0
        for name in ("sample.csv", "sample_summary.txt"):
            keys = {ln[2:].split("=")[0] for ln in (out / name).read_text().splitlines()
                    if ln.startswith("#")}
            assert "w_star" not in keys, name
        cfg = tmp_path / "a.cfg"
        cfg.write_text("w_star = 1,2,3\n")
        for extra in (["--w-star", "1,2,3"], ["--config", str(cfg)]):
            assert run(argv + extra + ["--out", str(tmp_path / "x")]) == 1, extra
            assert "does not read w_star" in capsys.readouterr().err, extra
        assert not (tmp_path / "x").exists()

    def test_read_keys_are_recorded_and_read(self, tmp_path):
        # with sigma2 set, w_star is read: it is in the header, and changing
        # it changes the data rows
        def rows(*extra):
            out = tmp_path / "o"
            assert run(["sample", "--d", "3", "--n", "2", "--entry-law", "uniform_pm_sqrt3",
                        "--sigma2", "0", "--seed", "4", *extra, "--out", str(out)]) == 0
            text = (out / "sample.csv").read_text()
            return ({ln[2:].split("=")[0] for ln in text.splitlines() if ln.startswith("#")},
                    [ln for ln in text.splitlines() if not ln.startswith("#")])

        keys, ref = rows("--w-star", "1,0,0")
        assert {"w_star", "sigma2"} <= keys
        assert rows("--w-star", "0,1,0")[1] != ref

    def test_non_gaussian_under_runs_chain(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["sample", "--d", "4", "--n", "2", "--entry-law", "rademacher",
                  "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out / "sample.csv")
        assert len(rows) <= 4
        assert all(float(v) in (-1.0, 1.0) for r in rows for v in r[:-1])

    def test_reproducible(self, tmp_path):
        args = ["sample", "--d", "3", "--n", "2", "--seed", "8"]
        a, b = tmp_path / "a", tmp_path / "b"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert (a / "sample.csv").read_text().replace(str(a), "OUT") == \
            (b / "sample.csv").read_text().replace(str(b), "OUT")


OUTPUT_CSVS = {
    "curve": (["curve", "--no-mc", "--d", "6", "--n-values", "2,4"], "curve.csv"),
    "discrepancy": (["discrepancy", "--d-values", "8,10,12", "--trials", "200"],
                    "discrepancy.csv"),
    "sample": (["sample", "--d", "3", "--n", "2"], "sample.csv"),
    **{f"dp-verify {s}": (["dp-verify", "--scenario", s, "--d", "2", "--trials", "10000"],
                          "dp_report.csv") for s in DP_SCENARIOS},
}


@pytest.mark.parametrize("case", OUTPUT_CSVS)
def test_every_csv_starts_with_config_header(tmp_path, case):
    argv, name = OUTPUT_CSVS[case]
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 0
    raw = (out / name).read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    # the header comes first, one sorted "# key=value" line per resolved key
    assert lines[:len(header)] == header == sorted(header)
    assert all("=" in ln and ln.startswith("# ") for ln in header)
    assert f"# out={out}" in header and "# seed=1" in header


class TestMeanRealizedSize:
    def test_mean_k_matches_n(self, tmp_path):
        # harness-mode check of the expected realized size across seeds
        from ddlab.covariance import Spectrum
        from ddlab.designs import MeasureSpec, sample_surrogate_under_batch

        m = MeasureSpec(Spectrum(np.ones(4)))
        samples, _ = sample_surrogate_under_batch(m, 2, 10_000, 1, 99)
        ks = np.array([s.shape[0] for s in samples])
        se = ks.std(ddof=1) / np.sqrt(ks.size)
        assert abs(ks.mean() - 2.0) < 3 * se


def _fresh(code: str) -> list[str]:
    """Standard output lines of ``code`` run in a fresh interpreter on src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.splitlines()


def test_fresh_import_skips_scipy_stats():
    # scipy.stats adds about 0.6 s to every CLI process; the only
    # call ddlab needed from it, the normal quantile, is scipy.special.ndtri
    code = ("import importlib, pkgutil, sys, ddlab, ddlab.cli\n"
            "for mod in pkgutil.iter_modules(ddlab.__path__):\n"
            "    importlib.import_module('ddlab.' + mod.name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('ddlab.')))\n"
            "print('scipy.stats' in sys.modules)\n")
    out = _fresh(code)
    assert "'ddlab.cli'" in out[0] and "'ddlab.dpcheck'" in out[0]
    assert out[1] == "False"


def test_closed_form_run_skips_scipy_optimize(tmp_path):
    # scipy.optimize cost about 0.28 s of every CLI process while brentq
    # solved lambda_n; the solver is numpy Newton now
    code = ("import importlib, pkgutil, sys, ddlab, ddlab.cli\n"
            "for mod in pkgutil.iter_modules(ddlab.__path__):\n"
            "    importlib.import_module('ddlab.' + mod.name)\n"
            "from ddlab.covariance import make_profile\n"
            "from ddlab.surrogate import surrogate_params\n"
            "surrogate_params(make_profile('diag_exp', 10), 4)\n"
            "rc = ddlab.cli.main(['curve', '--no-mc', '--d', '20', '--n-values', '5:40:5',\n"
            f"                     '--out', {str(tmp_path / 'o')!r}])\n"
            "print(rc, 'scipy.optimize' in sys.modules)\n")
    out = _fresh(code)
    assert out[-1] == "0 False"
    assert (tmp_path / "o" / "curve.csv").exists()


def test_closed_form_run_skips_scipy_linalg_and_special(tmp_path):
    # scipy.linalg and scipy.special cost about 0.3 s of every CLI process
    # when ddlab imported them; a closed-form run calls neither, and the
    # first kernel that does loads its subpackage then
    code = ("import sys, ddlab.cli\n"
            "import numpy as np\n"
            "def loaded():\n"
            "    return ' '.join(str(m in sys.modules) for m in ('scipy.linalg', 'scipy.special'))\n"
            "rc = ddlab.cli.main(['curve', '--no-mc', '--d', '20', '--n-values', '5:40:5',\n"
            f"                     '--out', {str(tmp_path / 'o')!r}])\n"
            "print(rc, loaded())\n"
            "from ddlab.linalg import pseudo_inverse\n"
            "P = pseudo_inverse(np.arange(12.0).reshape(3, 4))\n"
            "print('scipy.linalg' in sys.modules, P.tobytes().hex())\n"
            "from ddlab.dpcheck import gaussian_entries_generator, verify_dp\n"
            "r = verify_dp(gaussian_entries_generator(3), [1, 2], 10_000, 2)\n"
            "print('scipy.special' in sys.modules, repr(r.z_threshold), repr(r.max_abs_z),\n"
            "      r.verdict)\n")
    out = _fresh(code)
    assert out[-3] == "0 False False"
    assert (tmp_path / "o" / "curve.csv").exists()
    from ddlab.dpcheck import gaussian_entries_generator, verify_dp
    from ddlab.linalg import pseudo_inverse

    P = pseudo_inverse(np.arange(12.0).reshape(3, 4))
    assert np.allclose(P, np.linalg.pinv(np.arange(12.0).reshape(3, 4)))
    assert out[-2] == f"True {P.tobytes().hex()}"
    r = verify_dp(gaussian_entries_generator(3), [1, 2], 10_000, 2)
    assert out[-1] == f"True {r.z_threshold!r} {r.max_abs_z!r} {r.verdict}"


def test_first_lapack_use_inside_worker_threads():
    # the first scipy LAPACK call of a fresh process runs in a 2-worker
    # engine run at n < d (min_norm_stats' dtrtri); its statistics must
    # equal the 1-worker ones
    code = ("import sys\n"
            "from ddlab.covariance import make_profile\n"
            "from ddlab.experiments import mse_trial_samples\n"
            "from ddlab.surrogate import RegressionProblem\n"
            "import numpy as np\n"
            "p = RegressionProblem(make_profile('diag_exp', 20), np.ones(20), 1.0)\n"
            "print('scipy.linalg' in sys.modules)\n"
            "two = mse_trial_samples(p, 'gaussian', 10, 1000, 7, threads=2)\n"
            "one = mse_trial_samples(p, 'gaussian', 10, 1000, 7, threads=1)\n"
            "print('scipy.linalg' in sys.modules, np.array_equal(one, two), two.size)\n")
    for _ in range(3):
        assert _fresh(code)[-2:] == ["False", "True True 1000"]
