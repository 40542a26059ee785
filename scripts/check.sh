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

# Every BENCH_*.json is written by microedge_bench::artifact: a
# "deterministic" section, then a "host" section with the host
# measurements (events/s, wall time, RSS, worker count, speedups). The
# writer puts the host section on its own `  "host": ` line, so the part
# before that line must be byte-identical across worker counts.
deterministic_part() {
  sed '/^  "host": /,$d' "$1"
}

# Compares the deterministic section of one artifact produced under two
# MICROEDGE_WORKERS settings: assert_deterministic_artifact <name> <dir_a> <dir_b>
assert_deterministic_artifact() {
  local name="$1" a="$2" b="$3"
  deterministic_part "$a/$name" > "$a/$name.deterministic"
  deterministic_part "$b/$name" > "$b/$name.deterministic"
  cmp "$a/$name.deterministic" "$b/$name.deterministic"
}

# Each artifact study runs at 1 and 8 workers and its deterministic
# section must match byte for byte: the scale-out tiers, the fleet front
# door, network chaos, online defragmentation, and the chaos study.
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

# The perf harness times the kernel and the admission planner; its event
# counts, sizes and labels must match across worker counts like any other
# artifact's deterministic section.
echo "==> perf harness smoke + determinism (repro --perf --quick, 1 vs 8 workers)"
for workers in 1 8; do
  MICROEDGE_WORKERS=$workers cargo run --release -p microedge-bench --bin repro -- \
    --perf --quick --csv "$artifacts_out/perf-w$workers"
done
for artifact in BENCH_kernel.json BENCH_admission.json; do
  assert_deterministic_artifact "$artifact" "$artifacts_out/perf-w1" "$artifacts_out/perf-w8"
done

echo "All checks passed."
