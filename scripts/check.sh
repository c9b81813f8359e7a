#!/usr/bin/env bash
# The test suite, then the benchmark harness's own tests: those pin names in
# ddlab's namespaces (for example designs.log_det_gram) that a deletion can
# break while the suite stays green. The first line printed is the
# environment the run's timings belong to. -rP prints the captured output of
# passed tests too, so every ACCEPTANCE criterion line shows.
set -euo pipefail
cd "$(dirname "$0")/.."
python - <<'PY'
import os, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = " ".join(f"{k}={os.environ.get(k, 'unset')}"
                   for k in ("OPENBLAS_NUM_THREADS", "DDLAB_THREADS"))
print(f"env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
      f"numpy={numpy.__version__} scipy={scipy.__version__} "
      f"blas={blas.get('name')} {blas.get('version')} {threads}", flush=True)
PY
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -rP --continue-on-collection-errors "$@"
python3 -m pytest -p no:cacheprovider perfbench
