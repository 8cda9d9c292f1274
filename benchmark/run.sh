#!/usr/bin/env bash
# Build gemmd-serve (root workspace) and the ledger (this package), then
# run the ledger.  With no arguments: every workload in its own process,
# the traced pass and the layer suite.  With
#   --workload W --seed N --seconds S --trace 0|1
# one run, whose last output line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# One target directory for both builds; the PR driver sets
# CARGO_TARGET_DIR, a developer gets benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cd "$root"
# Build chatter goes to stderr so that stdout ends with the result line.
cargo build --release --offline --locked --quiet -p gemmd --bin gemmd-serve >&2
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" --bin bench >&2
exec "$target/release/bench" \
  --serve-bin "$target/release/gemmd-serve" \
  --goldens "$here/goldens" \
  --out "$here/out" \
  "$@"
