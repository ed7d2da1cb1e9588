#!/bin/sh
# Runs every workload once, printing each one's checks and metrics, and
# exits non-zero as soon as a run fails an output check.
#   sh e2ebench/run_all.sh [seed] [seconds] [trace]
set -e
seed=${1:-1}
seconds=${2:-30}
trace=${3:-0}
for w in campaign-replay serve-mixed; do
    cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
