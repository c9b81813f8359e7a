#!/usr/bin/env bash
# Double-descent curve with Monte Carlo verification (takes a few minutes).
set -euo pipefail
cd "$(dirname "$0")/.."
# the checkout's own ddlab, which need not be installed or on PATH
ddlab() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m ddlab.cli "$@"; }
ddlab curve --config configs/figure1.cfg --svg "$@"
