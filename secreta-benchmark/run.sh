#!/usr/bin/env bash
# Build the secreta CLI and the benchmark into one target directory,
# then run the benchmark with the given arguments. Run it from the
# repository root; see secreta-benchmark/README.md for the commands.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
# the benchmark finds `secreta` next to its own executable, so both
# binaries must land in the same target directory
CARGO_TARGET_DIR=$(realpath -m "${CARGO_TARGET_DIR:-$root/.bench_build}")
export CARGO_TARGET_DIR

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p secreta-cli >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/secreta-benchmark" "$@"
