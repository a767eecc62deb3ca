#!/usr/bin/env bash
# The one command of the benchmark: builds benchmark/ (release, offline)
# and runs it from the repository root. See README.md for the arguments;
# with `--workload W --seed N --seconds S --trace 0|1` the last line of
# standard output is the result object BENCHMARK.json's contract asks for.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Nothing from the environment may change what is measured.
unset RASC_THREADS RASC_AUDIT RUSTFLAGS CARGO_ENCODED_RUSTFLAGS
export CARGO_NET_OFFLINE=true

# Cargo's messages go to stderr, so the result stays the last stdout line.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/rasc-benchmark" "$@"
