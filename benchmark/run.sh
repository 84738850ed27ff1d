#!/usr/bin/env bash
# Builds the benchmark against this checkout's crates and runs it.
#
#   bash benchmark/run.sh --workload <fleet-quiet|fleet-stimulated|check-extended> \
#       [--seed N] [--seconds S] [--trace 0|1] [--plant DEFECT]
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build). A failed build exits non-zero before any
# result is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/arfs-benchmark" "$@"
