#!/usr/bin/env bash
# Offline verification: the workspace must build, test and format-check
# without touching the network, and must not grow external dependencies.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "==> dependency audit (path-only)"
# Any `foo = "1.2"` / `foo = { version = ... }` line in a [dependencies]
# or [dev-dependencies] section is an external dependency; only
# `.workspace = true` / `path = ...` entries are allowed.
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
        in_deps && NF && $0 !~ /^\[/ && $0 !~ /^#/ \
            && $0 !~ /workspace *= *true/ && $0 !~ /path *= */ { print }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "non-path dependency in $manifest:" >&2
        echo "$bad" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "FAIL: external dependencies found" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

# Reports, JSON artifacts and smoke-run outputs land here; CI uploads
# the directory as is.
mkdir -p "${ARTIFACT_DIR:-artifacts}"
artifact_dir=$(cd "${ARTIFACT_DIR:-artifacts}" && pwd)

echo "==> golden trace-format check (X17 lineage artifact)"
# The Chrome trace-event export and the X17 JSON artifact are consumed
# by external tooling (Perfetto, dashboards); pin their shape here so a
# field rename cannot slip through.
./target/release/exp x17 --json "$artifact_dir/bench_x17.json" > "$artifact_dir/x17.txt"
for key in '"experiment"' '"direction_latencies_ns"' '"hop_latencies_ns"' \
           '"chrome_trace_events"' '"faulted_pair"'; do
    grep -q "$key" "$artifact_dir/bench_x17.json" \
        || { echo "FAIL: $key missing from X17 JSON artifact" >&2; exit 1; }
done
grep -q 'crossings/write' "$artifact_dir/x17.txt" \
    || { echo "FAIL: X17 report lost its crossings table" >&2; exit 1; }

echo "==> runner determinism (serial vs --jobs 8 vs committed output)"
# The parallel experiment runner must be observably invisible; this also
# catches a stale experiments_output.txt after any experiment change.
cargo test --release -q -p cmi-bench --test runner_determinism -- --ignored

echo "==> baseline gates (X18-X24 vs the committed BENCH_*.json)"
# One rule for every gated experiment (crates/bench/src/gate.rs, DESIGN.md
# "Baseline gates"): the fresh artifact's structural block must agree
# with the committed one on the union of their keys. Wall time is
# benchmark/'s job; no timing is compared here.
gated=$(./target/release/exp --gated)
while read -r id baseline; do
    echo "    $id vs $baseline"
    ./target/release/exp "$id" --json "$artifact_dir/bench_$id.json" \
        --check "$baseline" > "$artifact_dir/$id.txt"
done <<< "$gated"

echo "==> live monitor smoke run (cmi-cli run --monitor on the faulty-link scenario)"
# The CLI tap must produce a clean monitor summary on the reliable
# faulted scenario: monitor block present, verdict causal, every op
# checked.
./target/release/cmi-cli run crates/cli/scenarios/faulty_link.json --monitor \
    --json "$artifact_dir/monitor_run.json" > "$artifact_dir/monitor_smoke.txt"
grep -q '^\[monitor\]' "$artifact_dir/monitor_smoke.txt" \
    || { echo "FAIL: --monitor run lost its summary block" >&2; exit 1; }
grep -q 'verdict: causal' "$artifact_dir/monitor_smoke.txt" \
    || { echo "FAIL: monitor not quiet on the reliable faulted scenario" >&2; exit 1; }
grep -q '"monitor"' "$artifact_dir/monitor_run.json" \
    || { echo "FAIL: --json artifact lost its monitor block" >&2; exit 1; }

echo "==> chaos smoke run (cmi-cli run --monitor on the churn scenario)"
# Attach a detached system, ride out a seeded partition window, and the
# surviving history must still be causal: monitor verdict causal with
# monitor.violations == 0 in the JSON artifact.
./target/release/cmi-cli run crates/cli/scenarios/chaos_churn.json --monitor \
    --json "$artifact_dir/chaos_run.json" > "$artifact_dir/chaos_smoke.txt"
grep -q 'verdict: causal' "$artifact_dir/chaos_smoke.txt" \
    || { echo "FAIL: monitor not quiet on the chaos churn scenario" >&2; exit 1; }
grep -q '"monitor.violations": 0' "$artifact_dir/chaos_run.json" \
    || { echo "FAIL: chaos run reported violations != 0" >&2; exit 1; }

echo "==> telemetry smoke run (cmi-cli run --telemetry-out on the churn scenario)"
# The flight recorder must sample the chaos churn run (>= 1 timeline
# sample behind the JSONL header) without tripping any watchdog: strict
# mode would exit 4 on a spurious alert.
./target/release/cmi-cli run crates/cli/scenarios/chaos_churn.json \
    --telemetry-every 2 --telemetry-strict \
    --telemetry-out "$artifact_dir/chaos_timeline.jsonl" > "$artifact_dir/telemetry_smoke.txt"
grep -q '^\[telemetry\]' "$artifact_dir/telemetry_smoke.txt" \
    || { echo "FAIL: --telemetry-every run lost its summary block" >&2; exit 1; }
[ "$(wc -l < "$artifact_dir/chaos_timeline.jsonl")" -ge 2 ] \
    || { echo "FAIL: telemetry timeline has no samples" >&2; exit 1; }

echo "==> sharded smoke run (cmi-cli run --shards 2, bytes vs serial)"
# The multi-core engine must be observably invisible: the islands
# scenario (4 disjoint systems -> multiple shard groups) must print the
# exact same bytes with --shards 2 as serially.
./target/release/cmi-cli run crates/cli/scenarios/islands.json \
    > "$artifact_dir/islands_serial.txt"
./target/release/cmi-cli run crates/cli/scenarios/islands.json --shards 2 \
    > "$artifact_dir/islands_shards2.txt"
diff "$artifact_dir/islands_serial.txt" "$artifact_dir/islands_shards2.txt" \
    || { echo "FAIL: --shards 2 output diverged from serial" >&2; exit 1; }

echo "==> large-m churn smoke run (cmi-cli run --monitor on the m=64 hub scenario)"
# A 64-system hub-of-hubs expanded from a topology_spec block rides out
# seeded churn with the live monitor on: verdict causal, zero recorded
# violations, and the per-frame O(1) delivery condition never fires.
./target/release/cmi-cli run crates/cli/scenarios/hub_churn.json --monitor \
    --json "$artifact_dir/hub_churn_run.json" > "$artifact_dir/hub_churn_smoke.txt"
grep -q 'verdict: causal' "$artifact_dir/hub_churn_smoke.txt" \
    || { echo "FAIL: monitor not quiet on the m=64 hub churn scenario" >&2; exit 1; }
grep -q '"monitor.violations": 0' "$artifact_dir/hub_churn_run.json" \
    || { echo "FAIL: hub churn run reported violations != 0" >&2; exit 1; }
# Untouched counters are omitted from the artifact, so the key only
# appears at all if the O(1) delivery condition ever fired.
if grep -q '"isp.meta_violations"' "$artifact_dir/hub_churn_run.json"; then
    echo "FAIL: hub churn run tripped the frame delivery condition" >&2; exit 1
fi

echo "==> repo benchmark smoke (benchmark/run.sh --quick)"
# Every workload at ~1/20 size: all oracles, the result-schema check and
# the byte-equivalence of the harness with the release cmi-cli built
# above. Timings of a --quick run are not comparable and not gated.
bash benchmark/run.sh --quick > "$artifact_dir/benchmark_quick.txt"

echo "==> full-size report digests (benchmark/run.sh vs scripts/report_digests.txt)"
# The driver judges a PR by these bytes: each committed (workload, seed)
# row must print its committed report_digest with every oracle passing.
: > "$artifact_dir/benchmark_digests.txt"
while read -r workload seed digest; do
    echo "    $workload seed $seed"
    # A failed oracle also fails run.sh; the result object says which.
    run=$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --reps 3 --trace 0) || true
    echo "$run" >> "$artifact_dir/benchmark_digests.txt"
    echo "$run" | grep -q "^# .* report_digest $digest\$" \
        || { echo "FAIL: $workload seed $seed: report_digest is not $digest" >&2; exit 1; }
    echo "$run" | tail -n 1 | grep -q '"correct":true' \
        || { echo "FAIL: $workload seed $seed: an oracle failed" >&2; exit 1; }
done < <(grep -v '^#' scripts/report_digests.txt)

echo "==> full-size rendered text (cmi-cli run benchmark/scenarios/*.json vs scripts/rendered/)"
# report_digest hashes only the JSON. The text of the same four runs —
# the "concurrency: N% ... longest causal write chain N" header and every
# "causal ✓ (N steps)" line — must equal the committed files byte for
# byte. The scenarios are read, never modified.
for scenario in benchmark/scenarios/*.json; do
    workload=$(basename "$scenario" .json)
    echo "    $workload"
    ./target/release/cmi-cli run "$scenario" > "$artifact_dir/rendered_$workload.txt"
    diff "scripts/rendered/$workload.txt" "$artifact_dir/rendered_$workload.txt" \
        || { echo "FAIL: $workload: rendered text differs from scripts/rendered/$workload.txt" >&2; exit 1; }
done

echo "OK: offline build, tests, dependency audit, golden formats, runner determinism, X18-X24 structural gates, CLI smoke runs, the benchmark smoke, the full-size report digests and the full-size rendered text all passed"
