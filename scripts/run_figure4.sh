#!/usr/bin/env bash
# Variance and bias discrepancy decay grids (takes tens of minutes at the
# default trial caps; pass --trials to shrink them for a quick look).
set -euo pipefail
cd "$(dirname "$0")/.."
# the checkout's own ddlab, which need not be installed or on PATH
ddlab() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m ddlab.cli "$@"; }
ddlab discrepancy --config configs/figure4.cfg --svg "$@"
ddlab discrepancy --config configs/figure4_bias.cfg --svg "$@"
