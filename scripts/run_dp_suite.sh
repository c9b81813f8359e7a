#!/usr/bin/env bash
# Full determinant-preservation verification sweep.
set -euo pipefail
cd "$(dirname "$0")/.."
# the checkout's own ddlab, which need not be installed or on PATH
ddlab() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m ddlab.cli "$@"; }
for scenario in gaussian_entries rank1_scaled rank2_scaled_counterexample \
                closure_sum closure_product; do
  ddlab dp-verify --scenario "$scenario" --d 3 --trials 100000 \
    --out "out/dp/$scenario" "$@"
done
ddlab dp-verify --scenario poisson_gram --d 2 --gamma 3 --trials 100000 \
  --out out/dp/poisson_gram "$@"
for d in 1 2 3; do
  ddlab dp-verify --scenario normalization --d "$d" --gamma 1 --trials 100000 \
    --out "out/dp/normalization_d$d" "$@"
done
