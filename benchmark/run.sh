#!/usr/bin/env bash
# The one command of the repo benchmark: build the benchmark package in
# release mode (offline; it is a package of its own and leaves the root
# manifest alone), then hand every argument to it. See README.md here.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin f90d-benchmark >&2
exec "$CARGO_TARGET_DIR/release/f90d-benchmark" "$@"
