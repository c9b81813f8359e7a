import numpy as np
import pytest

from ddlab.cli import main, parse_config


def run(args):
    return main(args)


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
        extra = ["--n", "12"] if flag == "--d-values" else ["--d", "20"]
        rc = run(["curve", "--no-mc", *extra, flag, values, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_reproducible_with_mc(self, tmp_path):
        args = ["curve", "--d", "8", "--n-values", "3,5", "--trials", "40", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert (a / "curve.csv").read_text().replace(str(a), "OUT") == \
            (b / "curve.csv").read_text().replace(str(b), "OUT")


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

    def test_reproducible(self, tmp_path):
        args = ["discrepancy", "--kind", "variance", "--d-values", "8,12",
                "--aspect", "0.5", "--trials", "1000", "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert (a / "discrepancy.csv").read_text().replace(str(a), "OUT") == \
            (b / "discrepancy.csv").read_text().replace(str(b), "OUT")


class TestDpVerifyCommand:
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

    def test_unknown_scenario_exit_1(self, tmp_path):
        rc = run(["dp-verify", "--scenario", "mystery", "--out", str(tmp_path / "o")])
        assert rc == 1


class TestSampleCommand:
    def test_under_regime(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["sample", "--d", "4", "--n", "2", "--chain-steps", "50",
                  "--seed", "5", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out / "sample.csv")
        assert len(rows) <= 4
        summary = (out / "sample_summary.txt").read_text()
        assert "realized_k=" in summary and "accept_rate=" in summary
        assert sorted(p.name for p in out.iterdir()) == ["sample.csv", "sample_summary.txt"]

    def test_over_regime_row_count(self, tmp_path):
        out = tmp_path / "o"
        run(["sample", "--d", "3", "--n", "8", "--chain-steps", "50", "--seed", "6",
             "--out", str(out)])
        _, rows = read_rows(out / "sample.csv")
        assert len(rows) >= 3  # d block rows always present

    def test_responses_written(self, tmp_path):
        out = tmp_path / "o"
        run(["sample", "--d", "3", "--n", "2", "--chain-steps", "30", "--sigma2", "1",
             "--seed", "7", "--out", str(out)])
        cols, rows = read_rows(out / "sample.csv")
        assert cols == ["x_1", "x_2", "x_3", "y"]
        for r in rows:
            assert r[-1] != ""
            float(r[-1])

    def test_non_gaussian_under_runs_chain(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["sample", "--d", "4", "--n", "2", "--entry-law", "rademacher",
                  "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out / "sample.csv")
        assert len(rows) <= 4
        assert all(float(v) in (-1.0, 1.0) for r in rows for v in r[:-1])

    def test_reproducible(self, tmp_path):
        args = ["sample", "--d", "3", "--n", "2", "--chain-steps", "40", "--seed", "8"]
        a, b = tmp_path / "a", tmp_path / "b"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert (a / "sample.csv").read_text().replace(str(a), "OUT") == \
            (b / "sample.csv").read_text().replace(str(b), "OUT")


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
