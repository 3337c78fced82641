#!/usr/bin/env bash
# One command for the whole benchmark: builds the shipped frapp-serve
# (from the root workspace, with its release profile) and the driver
# (this directory's own package), then runs the driver from the
# repository root. Arguments are passed through; see README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, outside the root's own target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

cargo build --quiet --release --offline --manifest-path Cargo.toml -p frapp-service --bin frapp-serve
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml

exec "$CARGO_TARGET_DIR/release/frapp-benchmark" "$@"
