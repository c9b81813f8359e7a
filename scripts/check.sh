#!/usr/bin/env bash
# The test suite, then the benchmark harness's own tests: those pin names in
# ddlab's namespaces (for example designs.log_det_gram) that a deletion can
# break while the suite stays green. Last, the dp-verify suite of
# run_dp_suite.sh at verify_dp's minimum of 10^4 trials and its fixed seed
# (1), its reports written under the check's temporary directory (the last
# --trials and --out win): each of its nine verdicts must be the known
# one, violated for rank2_scaled_counterexample and consistent for every
# other scenario. It prints its elapsed seconds, which are mostly the
# start-up of its nine CLI processes. Then the figure-1 curve at 50 trials runs at 1, 2 and 3
# threads, each printing its elapsed seconds (the end-to-end time of one
# Monte Carlo curve process), and the 2- and 3-thread curve.csv files must
# match the 1-thread one byte for byte outside their "# threads=" and
# "# out=" lines: the grid crosses n = d, so both Monte Carlo paths run at
# d = 100, and all the points share one worker pool. The figure-4 bias grid at a 3200-trial
# cap gets the same comparison of its discrepancy.csv, and so does the
# figure-4 variance grid (on the d-values of criterion 7's variance slopes)
# at an 800-trial cap.
# Then a figure-scale surrogate draw (d = 100, n = 50) runs twice for each
# bounded entry law, and its sample.csv and sample_summary.txt must match
# byte for byte outside their "# out=" lines.
# Last, run_figure2.sh writes the formula-only dimension sweep with --svg:
# curve.svg must exist, and mse_surrogate in curve.csv must peak at d = n = 100.
# The first line printed is the environment the run's timings belong to,
# with both BLAS builds: numpy and scipy each bundle their own, and ddlab's
# LAPACK calls run on both. The second is the size of the library, the
# total line count of src/ddlab/*.py. The third is the start-up every CLI
# process pays: the median wall time of `import ddlab.cli` in 5 fresh
# interpreters. The fourth is the median wall time of 5 fresh closed-form
# CLI processes, `curve --no-mc` on the figure-1 problem at d = 1000
# (n = 50:1950:50), which never load scipy.linalg or scipy.special.
# The next two time `surrogate_size_pmf` at d = 10^4 and 10^5 (diag_exp,
# condition number 1e12, n = d / 2); the script stops if either pmf has a
# negative entry, or a sum or a mean off 1 and n by more than 1e-9 relative.
# -rP prints the captured output of passed tests too, so every ACCEPTANCE
# criterion line shows; pyproject's --durations=15 lists the slowest tests.
set -euo pipefail
cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - <<'PY'
import glob, os, platform, statistics, subprocess, sys, tempfile, time, numpy, scipy
def blas(pkg):
    b = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{b.get('name')} {b.get('version')}"
threads = " ".join(f"{k}={os.environ.get(k, 'unset')}"
                   for k in ("OPENBLAS_NUM_THREADS", "DDLAB_THREADS"))
print(f"env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
      f"numpy={numpy.__version__} scipy={scipy.__version__} "
      f"numpy_blas={blas(numpy)} scipy_blas={blas(scipy)} {threads}", flush=True)
lines = sum(open(f).read().count("\n") for f in glob.glob("src/ddlab/*.py"))
print(f"src/ddlab/*.py: {lines} lines", flush=True)
runs = []
for _ in range(5):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ddlab.cli"], check=True)
    runs.append(time.perf_counter() - start)
print(f"import ddlab.cli: median {statistics.median(runs):.3f} s over 5 fresh interpreters ("
      + " ".join(f"{t:.3f}" for t in runs) + ")", flush=True)
with tempfile.TemporaryDirectory() as out:
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "ddlab.cli", "curve", "--no-mc", "--d", "1000",
                        "--profile", "diag_exp", "--kappa", "10000", "--sigma2", "1",
                        "--n-values", "50:1950:50", "--out", out],
                       check=True, stdout=subprocess.DEVNULL)
        runs.append(time.perf_counter() - start)
print(f"curve --no-mc --d 1000: median {statistics.median(runs):.3f} s over 5 fresh processes ("
      + " ".join(f"{t:.3f}" for t in runs) + ")", flush=True)
from ddlab.covariance import make_profile
from ddlab.surrogate import surrogate_size_pmf
bad = False
for d in (10**4, 10**5):
    n, s = d / 2, make_profile("diag_exp", d, 1.0, 1e-12)
    start = time.perf_counter()
    pmf = surrogate_size_pmf(s, n)
    wall = time.perf_counter() - start
    total, mean = float(pmf.sum()), float(numpy.arange(d + 1) @ pmf)
    ok = bool(numpy.all(pmf >= 0)) and abs(total - 1) <= 1e-9 and abs(mean - n) <= 1e-9 * n
    bad |= not ok
    print(f"surrogate_size_pmf d={d} n={n:g}: {wall:.3f} s, sum {total!r}, mean {mean!r}"
          + ("" if ok else " FAILED"), flush=True)
sys.exit(bad)
PY
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -rP --continue-on-collection-errors "$@"
python3 -m pytest -p no:cacheprovider perfbench
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
TIMEFORMAT='run_dp_suite.sh (nine dp-verify processes): %R s'
time scripts/run_dp_suite.sh --trials 10000 --out "$tmp/dp" | tee "$tmp/dp_suite.txt"
awk 'match($0, /(verdict|->) (consistent|violated)/) {
         n++
         got = substr($0, RSTART, RLENGTH); sub(/.* /, "", got)
         want = $1 == "rank2_scaled_counterexample:" ? "violated" : "consistent"
         if (got != want) { print "dp-verify: expected " want ": " $0; bad = 1 }
     }
     END { if (n != 9) { print "dp-verify: expected 9 verdicts, got " n; bad = 1 }; exit bad }' \
    "$tmp/dp_suite.txt"
echo "dp-verify suite verdicts as expected"
for t in 1 2 3; do
    TIMEFORMAT="curve --config configs/figure1.cfg --trials 50 --threads $t: %R s"
    time PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m ddlab.cli curve \
        --config configs/figure1.cfg --trials 50 --threads "$t" --out "$tmp/t$t"
done
for t in 2 3; do
    cmp <(grep -v -e '^# threads=' -e '^# out=' "$tmp/t1/curve.csv") \
        <(grep -v -e '^# threads=' -e '^# out=' "$tmp/t$t/curve.csv")
done
echo "curve.csv identical at 1, 2 and 3 threads"
for t in 1 2; do
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m ddlab.cli discrepancy \
        --config configs/figure4_bias.cfg --trials 3200 --threads "$t" --out "$tmp/b$t"
done
cmp <(grep -v -e '^# threads=' -e '^# out=' "$tmp/b1/discrepancy.csv") \
    <(grep -v -e '^# threads=' -e '^# out=' "$tmp/b2/discrepancy.csv")
echo "bias discrepancy.csv identical at 1 and 2 threads"
for t in 1 2; do
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m ddlab.cli discrepancy \
        --config configs/figure4.cfg --trials 800 --threads "$t" --out "$tmp/v$t"
done
cmp <(grep -v -e '^# threads=' -e '^# out=' "$tmp/v1/discrepancy.csv") \
    <(grep -v -e '^# threads=' -e '^# out=' "$tmp/v2/discrepancy.csv")
echo "variance discrepancy.csv identical at 1 and 2 threads"
for law in rademacher uniform_pm_sqrt3; do
    for r in 1 2; do
        PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m ddlab.cli sample --d 100 --n 50 \
            --profile diag_exp --kappa 10000 --entry-law "$law" --out "$tmp/s$law$r"
    done
    for f in sample.csv sample_summary.txt; do
        cmp <(grep -v '^# out=' "$tmp/s${law}1/$f") <(grep -v '^# out=' "$tmp/s${law}2/$f")
    done
    echo "$law sample.csv and sample_summary.txt identical on rerun"
done
scripts/run_figure2.sh --out "$tmp/fig2"
test -s "$tmp/fig2/curve.svg" || { echo "run_figure2.sh: no curve.svg"; exit 1; }
awk -F, '/^#/ || $1 == "n" { next }
         !seen || $3 + 0 > best { seen = 1; best = $3 + 0; n = $1; d = $2 }
         END { if (n != 100 || d != 100) { print "figure 2: mse_surrogate peaks at n=" n ", d=" d; exit 1 }
               print "figure 2: curve.svg written, mse_surrogate peaks at d = n = 100" }' \
    "$tmp/fig2/curve.csv"
