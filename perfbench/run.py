"""ddlab benchmark runner.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One workload runs in one process against the sources in ``src/`` of the
checkout that holds this file. After set-up and a warm-up op it runs the
workload's steps for ``--seconds``: one whole pass, then step by step
until the time is up. It checks every output, runs the workload's
known-defect ops once, untimed, and prints the environment, the failures,
those findings and the metrics named in ``BENCHMARK.json``. The last line
of standard output is the result as one JSON object.

Times are calibrated. On a shared machine the same code runs in phases up
to 1.6x slower that last from seconds to minutes, longer than a run, so raw
times spread by 20-30 % between runs. Every timed region is bracketed by a
probe, a fixed Python loop, and its time is rescaled to the speed at which
the probe takes ``PROBE_S``. The phases slow the probe about as much as
ddlab's interpreter, BLAS and generator work; numpy scalar code slows
more, which taking each step's fastest rescaled sample absorbs. Raw
seconds and probe times are printed too. ``wall_s`` is the time of one
pass: the sum over steps of each step's fastest calibrated sample.
``setup_s`` is the median of ``IMPORTS`` imports of ddlab (the first in
this process, the others in fresh interpreters) plus the median of
``SETUPS`` set-ups, each input generation and warm-up op.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
passes alternate between untraced and traced, and the per-layer metrics
come from the traced passes, plus ``trace.overhead_frac``: the traced
pass time over the untraced one, minus 1.

``--workload all`` runs every workload, each in its own process.

BLAS and ddlab thread settings are taken from the environment as found and
recorded, never pinned.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per run; setup_s reports their median
IMPORTS = 3  # imports timed per run, the first in process; setup_s adds their median
PROBE_S = 0.002  # calibrated seconds are seconds at the speed where the probe takes this

# one untraced run of a step: calibrated and raw seconds, probe seconds, and
# the trials and effective sample size it reported
Sample = namedtuple("Sample", "cal raw probe trials ess")


def probe() -> float:
    """Seconds for a fixed Python loop, the fastest of three runs."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        s = 0
        for j in range(60_000):
            s += j
        best = min(best, time.perf_counter() - t)
    return best


def timed(fn):
    """(result, raw seconds, calibrated seconds, probe seconds) of one call."""
    r0 = probe()
    t = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t
    r = 0.5 * (r0 + probe())
    return out, dt, dt * PROBE_S / r, r


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(workers: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "DDLAB_THREADS": os.environ.get("DDLAB_THREADS"),
        "workers": workers,
        "commit": git_commit(ROOT),
    }


def import_ddlab():
    """Import ddlab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ddlab
    from ddlab import cli, covariance, designs, dpcheck, experiments, linalg, parallel, surrogate

    if Path(ddlab.__file__).resolve().parent != src / "ddlab":
        raise ImportError(f"ddlab imported from {ddlab.__file__}, not {src}")
    return argparse.Namespace(cli=cli, covariance=covariance, designs=designs, dpcheck=dpcheck,
                              experiments=experiments, linalg=linalg, parallel=parallel,
                              surrogate=surrogate)


IMPORT_CODE = """import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ddlab import cli, covariance, designs, dpcheck, experiments, linalg, parallel, surrogate
print(time.perf_counter() - t)
"""


def import_in_child() -> float:
    """Calibrated seconds a fresh interpreter takes to import ddlab from src/."""
    def child():
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        return float(proc.stdout.strip().splitlines()[-1])

    dt, _, _, r = timed(child)
    return dt * PROBE_S / r


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    dd, _, first, _ = timed(import_ddlab)
    imports = [first] + [import_in_child() for _ in range(IMPORTS - 1)]
    import_s = statistics.median(imports)
    import spans
    import workloads

    cls = workloads.WORKLOADS[name]
    tmp = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"

    def setup():
        wl = cls(dd, seed, tmp)
        wl.warmup()
        return wl

    try:
        setups = []
        for _ in range(SETUPS):
            wl, _, cal, _ = timed(setup)
            setups.append(cal)
        tracer = spans.Tracer()
        traced_counts: Counter = Counter()
        samples = defaultdict(list)  # untraced: step index -> [Sample]
        traced_passes = []           # traced: per pass, the time of each step
        outcomes = []
        start = time.perf_counter()
        k = 0
        stop = False
        while not stop:
            traced = trace and k % 2 == 1
            wl.counts.clear()
            step_times, pass_raw = [], 0.0
            with spans.instrument(tracer) if traced else contextlib.nullcontext():
                for j, step in enumerate(wl.steps(k)):
                    # after the first pass an untraced run samples step by step,
                    # stopping before the step that would overrun the time
                    if (not trace and k > 0
                            and time.perf_counter() - start + samples[j][-1].raw > seconds):
                        stop = True
                        break
                    res, raw, dt, r = timed(step)
                    step_times.append(dt)
                    pass_raw += raw
                    outcomes += res
                    if not traced:
                        samples[j].append(Sample(dt, raw, r, sum(o.trials for o in res),
                                                 sum(o.ess for o in res)))
            if traced:
                traced_passes.append(step_times)
                traced_counts.update(wl.counts)
            k += 1
            if trace and traced_passes:
                stop = time.perf_counter() - start + pass_raw > seconds
        findings = wl.findings()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()

    failures = [o for o in outcomes if o.error is not None]
    correct = not any(not o.stat for o in failures)
    steps = [samples[j] for j in sorted(samples)]
    # each step's fastest calibrated sample; its trials and ESS are the ones
    # that sample computed, so the rates come from the same executions
    best = [min(step, key=lambda s: s.cal) for step in steps]
    wall = sum(s.cal for s in best)
    if trace:
        values = spans.layer_metrics(tracer, len(traced_passes), traced_counts)
        traced_wall = sum(min(step) for step in zip(*traced_passes))
        values["trace.overhead_frac"] = traced_wall / wall - 1.0
        wanted = spec["per_layer"]
    else:
        trials, ess = sum(s.trials for s in best), sum(s.ess for s in best)
        values = {
            "wall_s": wall,
            "setup_s": import_s + statistics.median(setups),
            "trials_per_s": trials / wall,
            "ess_per_s": ess / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"env {json.dumps(environment(wl.workers))}")
    print(f"{name}: seed {seed}, ops {len(outcomes)}, failed {len(failures)}, "
          f"traced passes {len(traced_passes)}")
    print(f"{name}: calibrated imports " + " ".join(f"{t:.4f}" for t in imports) + " s, set-ups "
          + " ".join(f"{t:.4f}" for t in setups) + " s")
    for j, step in enumerate(steps):
        print(f"{name}: step {j} seconds raw/calibrated (probe ms) "
              + " ".join(f"{s.raw:.4f}/{s.cal:.4f}({1e3 * s.probe:.2f})" for s in step))
    summary: dict[tuple[str, bool], list] = {}
    for o in failures:
        summary.setdefault((o.op, o.stat), [0, o.error])[0] += 1
    for (op, stat), (n, reason) in sorted(summary.items()):
        print(f"FAIL {name}/{op} x{n}{' (statistical)' if stat else ''}: {reason}")
    for o in findings:
        print(f"FINDING {name}/{o.op}: {o.error or 'passes'}")
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']!r} {m['unit']}")
    return {"correct": correct, "attempted": len(outcomes), "failed": len(failures),
            "metrics": metrics}


def run_all(args, spec: dict) -> int:
    table = {}
    for w in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {w['name']} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        table[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(table))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ddlab" / "__init__.py").is_file():
        print(f"perfbench: no ddlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
