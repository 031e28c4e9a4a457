#!/usr/bin/env bash
# The one command: build, run every workload untraced (the end-to-end
# metrics), then traced (the per-layer ledger and the spans). Results land
# in benchmark/out/. Extra arguments go to both runs, e.g. `--seed 7`.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
exe="${CARGO_TARGET_DIR:-target}/release/bcwan-perf"
"$exe" all "$@"
"$exe" all --trace "$@"
