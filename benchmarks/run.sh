#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark crate (both
# binaries, offline, release) from the sources in this checkout, then runs
# one workload:
#
#   bash benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#
# and every other form `gridbench` takes (run | trace | smoke | check).
# The last line of stdout is the result object. The build lands where
# cargo puts it: $CARGO_TARGET_DIR if set, else benchmarks/gridbench/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/gridbench/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/gridbench/target}/release/gridbench" "$@"
