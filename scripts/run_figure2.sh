#!/usr/bin/env bash
# Formula-only dimension sweep at fixed sample size (runs in about a second).
set -euo pipefail
cd "$(dirname "$0")/.."
# the checkout's own ddlab, which need not be installed or on PATH
ddlab() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m ddlab.cli "$@"; }
ddlab curve --config configs/figure2.cfg --svg "$@"
