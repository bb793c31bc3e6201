#!/usr/bin/env bash
# Build the benchmark and run it from the repo root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the JSON result
#   benchmark/run.sh [--seed N] [--seconds S] [--runs K] [--out FILE]
#       every workload, timed pass then traced pass, each in a process of its
#       own; prints every metric and writes benchmark/out/results.json
#   benchmark/run.sh compare A.json B.json   (also benchmark/compare.sh)
#   benchmark/run.sh describe                 (the content of BENCHMARK.json)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" >&2
exec "$target/release/sycl-mlir-benchmark" "$@"
