"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke tests run every workload for one pass in each mode, about two
minutes in all.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def at(self, t):
        self.now = float(t)
        return self


def test_self_time_same_thread():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    root = tr.enter("cli.main")                       # 0 .. 10
    clock.at(1); a = tr.enter("experiments.a")        # 1 .. 4
    clock.at(1.5); g = tr.enter("linalg.g")           # 1.5 .. 2
    clock.at(2); tr.exit(g)
    clock.at(4); tr.exit(a)
    clock.at(5); b = tr.enter("experiments.b")        # 5 .. 6
    clock.at(6); tr.exit(b)
    clock.at(10); tr.exit(root)
    s = tr.spans()
    assert s[("cli.main", None)] == (1, 10.0, 6.0)
    assert s[("experiments.a", "cli.main")] == (1, 3.0, 2.5)
    assert s[("linalg.g", "experiments.a")] == (1, 0.5, 0.5)
    assert s[("experiments.b", "cli.main")] == (1, 1.0, 1.0)


def test_self_time_worker_threads_subtract_their_union():
    """Worker spans [1, 5] and [3, 7] under a pool span [0, 10] cover 6 s."""
    clock = FakeClock()
    tr = spans.Tracer(clock)
    with ThreadPoolExecutor(1) as wa, ThreadPoolExecutor(1) as wb:
        def on(ex, fn):
            return ex.submit(fn).result(timeout=10)

        with tr.pool("parallel.run_trials"):
            clock.at(1); fa = on(wa, lambda: tr.enter("designs.trial_fn"))
            clock.at(3); fb = on(wb, lambda: tr.enter("designs.trial_fn"))
            clock.at(5); on(wa, lambda: tr.exit(fa))
            clock.at(7); on(wb, lambda: tr.exit(fb))
            clock.at(10)
    s = tr.spans()
    assert s[("parallel.run_trials", None)] == (1, 10.0, 4.0)
    assert s[("designs.trial_fn", "parallel.run_trials")] == (2, 8.0, 8.0)


def test_aggregation_is_by_call_edge():
    tr = spans.Tracer()
    f = tr.wrap(lambda x: x + 1, "linalg.f")
    outer = tr.wrap(lambda: sum(f(i) for i in range(1000)), "designs.outer")
    assert outer() == 500500
    s = tr.spans()
    assert set(s) == {("designs.outer", None), ("linalg.f", "designs.outer")}
    assert s[("linalg.f", "designs.outer")][0] == 1000


def test_instrument_restores_every_patch():
    dd = run.import_ddlab()
    before = {(m.__name__, k): v for m in spans._ddlab_modules() for k, v in vars(m).items()}
    svd, draw = np.linalg.svd, dd.dpcheck.MatrixGenerator.draw_stack
    tr = spans.Tracer()
    with spans.instrument(tr):
        assert dd.designs.log_det_gram is not before[("ddlab.designs", "log_det_gram")]
        assert dd.designs.log_det_gram is dd.linalg.log_det_gram
        dd.designs.log_det_gram(np.eye(2, 3))
    after = {(m.__name__, k): v for m in spans._ddlab_modules() for k, v in vars(m).items()}
    assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
    assert np.linalg.svd is svd and dd.dpcheck.MatrixGenerator.draw_stack is draw
    s = tr.spans()
    assert ("linalg.numpy.svd", "linalg.log_det_gram") in s


def test_raising_op_is_counted_as_failed(tmp_path, monkeypatch):
    dd = run.import_ddlab()
    wl = workloads.Samplers(dd, seed=3, tmp=tmp_path)

    def boom(*a, **k):
        raise RuntimeError("all determinant weights vanished")

    monkeypatch.setattr(dd.designs, "surrogate_expectation_oracle", boom)
    m, n, target = wl.under
    o = wl.oracle(1, "oracle_c4_d3_n2", wl.f_under, m, n, 100, target)
    assert o.error.startswith("raised RuntimeError") and not o.stat
    assert (o.trials, o.ess) == (0, 0.0)


def test_known_defects_run_as_findings_not_as_timed_ops(tmp_path, monkeypatch):
    dd = run.import_ddlab()
    wl = workloads.Samplers(dd, seed=3, tmp=tmp_path)
    assert not any("EK" in args[0] for _, args in wl.calls)

    def boom(*a, **k):
        raise RuntimeError("all determinant weights vanished")

    wl.watched[("oracle_c4_d3_n2", 14)] = [1.0, workloads.Z_MAX + 2]
    monkeypatch.setattr(dd.designs, "surrogate_expectation_oracle", boom)
    found = wl.findings()
    assert [o.op for o in found] == ([f"oracle_EK_d{d}_n{n}" for d, n in wl.EK_CASES]
                                     + ["oracle_c4_d3_n2_component14"])
    assert all(o.error.startswith("raised RuntimeError") for o in found[:-1])
    assert found[-1].error.startswith("max |z| 8.00")


def test_zero_se_with_error_fails_and_zero_se_without_error_passes():
    z = workloads.z_scores([10.0, 2.0, 1.0], [0.0, 0.0, 0.5], [12.0, 2.0, 0.0])
    assert np.isinf(z[0]) and z[1] == 0.0 and z[2] == 2.0
    o = workloads.check_estimate("x", [10.0], [0.0], [12.0], 5, 1.0)
    assert o.error and not o.stat


def _run(workload, trace, cwd):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_workload_prints_its_metrics(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace, run.ROOT)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        names = [m["name"] for m in SPEC[key]]
        assert list(result["metrics"]) == names
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(ln.startswith(f"{workload} {m['name']} = ") for ln in lines)
        assert lines[0].startswith("env ")
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("closed_form", 0, tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
