#!/usr/bin/env bash
# The repo benchmark's one command: builds the harness (release, its own
# package, offline) and runs it. See README.md next to this file.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run; the last line of
#                                                          stdout is the result object
#   run.sh [--seed N] [--seconds S | --reps N] [--workload W] [--traced] [--agree] [--quick]
#                                                          the full set, one workload
#                                                          after another
#   run.sh --known-bad                                     the excluded known-bad scenario
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$dir/target}"
[[ "$target" = /* ]] || target="$PWD/$target"

build_start=$(date +%s.%N)
# Compilation is not part of any metric; cargo's output goes to stderr.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$dir/Cargo.toml" >&2
printf 'build_s = %.1f s (not a metric)\n' \
    "$(awk -v a="$build_start" -v b="$(date +%s.%N)" 'BEGIN { print b - a }')" >&2

exec "$target/release/cmi-benchmark" "$@"
