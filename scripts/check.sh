#!/usr/bin/env bash
# The test suite, then the benchmark harness's own tests: those pin names in
# ddlab's namespaces (for example designs.log_det_gram) that a deletion can
# break while the suite stays green.
set -euo pipefail
cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors "$@"
python3 -m pytest -p no:cacheprovider perfbench
