#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — A is the parent, B the change.
# One row per (workload, end-to-end metric): both medians, B/A, the bound and
# pass / regress / unresolved; then the layer counts that are not identical.
# Exits 1 when any row regressed.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 A.json B.json" >&2; exit 2; }
# run.sh changes directory, so hand it absolute paths.
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" compare "$(realpath "$1")" "$(realpath "$2")"
