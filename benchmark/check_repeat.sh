#!/bin/sh
# Runs the full set of workloads twice (or "$1" times) on one build, ten
# seeds per workload per set, and fails if any end-to-end metric's spread
# or set-to-set drift exceeds its bound. Prints the observed spread per
# metric, so the bounds in BENCHMARK.json can be revisited with data.
# Takes ~19 minutes per set on the 2-core box the sizing was done on.
# Run from the repository root.
set -eu
exec cargo run --release --offline --manifest-path "$(dirname "$0")/Cargo.toml" -- \
    --repeat "${1:-2}"
