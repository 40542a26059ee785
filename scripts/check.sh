#!/usr/bin/env bash
# CI-style gate: formatting, lints-as-errors, build, and the test suite.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> microedge-lint (determinism/robustness rules + ratchets, see LINTS.md)"
cargo run --quiet -p microedge-lint

echo "==> microedge-lint tests-report (informational, never gates)"
cargo run --quiet -p microedge-lint -- --tests-report | tail -n 1

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --quiet --workspace

# Benchmark artifacts mix deterministic simulation output with host
# measurements (events/s, wall time, RSS, worker count, speedups).
# Measurement lines carry "host_" keys on their own lines; strip them and
# the rest must be byte-identical across worker counts.
strip_host_lines() {
  grep -v '"host_' "$1"
}

# Compares one artifact produced under two MICROEDGE_WORKERS settings,
# host_ lines stripped: assert_deterministic_artifact <name> <dir_a> <dir_b>
assert_deterministic_artifact() {
  local name="$1" a="$2" b="$3"
  strip_host_lines "$a/$name" > "$a/$name.filtered"
  strip_host_lines "$b/$name" > "$b/$name.filtered"
  cmp "$a/$name.filtered" "$b/$name.filtered"
}

# Each artifact study runs at 1 and 8 workers and must match byte for byte
# once host_ lines are stripped: the scale-out tiers, the fleet front door,
# network chaos, online defragmentation, and the chaos study.
artifacts_out="$(mktemp -d)"
trap 'rm -rf "$artifacts_out"' EXIT
for study in scale fleet net defrag chaos; do
  echo "==> $study study smoke + determinism (repro --$study --quick, 1 vs 8 workers)"
  for workers in 1 8; do
    MICROEDGE_WORKERS=$workers cargo run --release -p microedge-bench --bin repro -- \
      "--$study" --quick --csv "$artifacts_out/w$workers"
  done
  assert_deterministic_artifact "BENCH_$study.json" "$artifacts_out/w1" "$artifacts_out/w8"
done

echo "All checks passed."
