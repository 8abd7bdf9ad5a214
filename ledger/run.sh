#!/usr/bin/env bash
# Build `cay` and the ledger from this checkout, then run the ledger.
#
#   bash ledger/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of standard output is the ledger's result. Both builds use
# $CARGO_TARGET_DIR (default: target).
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin cay >&2
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml --target-dir "$target" >&2
exec "$target/release/ledger" "$@" --cay "$target/release/cay"
