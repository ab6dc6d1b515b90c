#!/usr/bin/env sh
# Tier-1 verification: everything here must pass offline, with no
# dependencies outside this repository. All scratch output lands under
# target/verify/ (covered by .gitignore's /target). Every xtask step runs
# the release build the first step makes (the trace report over the
# 833 MB quick fault trace takes about 6x as long in a debug build).
set -eu

cd "$(dirname "$0")/.."

VERIFY_DIR=target/verify
rm -rf "$VERIFY_DIR"
mkdir -p "$VERIFY_DIR"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> hostbench (own package, outside the workspace): build + tests"
cargo test -q --release --offline --manifest-path hostbench/Cargo.toml

echo "==> bench smoke: fault sweep at --jobs 1 and --jobs 2 must agree"
cargo run -q --release -p anykey-bench -- fault --quick --jobs 1 \
    --out "$VERIFY_DIR/j1" --trace "$VERIFY_DIR/j1/trace.jsonl" \
    --timeline "$VERIFY_DIR/j1/timeline.jsonl"
cargo run -q --release -p anykey-bench -- fault --quick --jobs 2 \
    --out "$VERIFY_DIR/j2" --trace "$VERIFY_DIR/j2/trace.jsonl" \
    --timeline "$VERIFY_DIR/j2/timeline.jsonl"
cmp "$VERIFY_DIR/j1/fault.csv" "$VERIFY_DIR/j2/fault.csv"
cargo run -q --release -p xtask -- bench-diff \
    "$VERIFY_DIR/j1/summary.json" "$VERIFY_DIR/j2/summary.json"

echo "==> trace smoke: --jobs 1 and --jobs 2 traces must be byte-identical,"
echo "    and the trace report must match results/"
cmp "$VERIFY_DIR/j1/trace.jsonl" "$VERIFY_DIR/j2/trace.jsonl"
cargo run -q --release -p xtask -- trace "$VERIFY_DIR/j1/trace.jsonl" \
    > "$VERIFY_DIR/trace-report.txt"
cmp "$VERIFY_DIR/trace-report.txt" results/fault_quick_trace_report.txt

echo "==> timeline smoke: --jobs 1 and --jobs 2 timelines must be byte-identical,"
echo "    and the timeline report must match results/"
cmp "$VERIFY_DIR/j1/timeline.jsonl" "$VERIFY_DIR/j2/timeline.jsonl"
cargo run -q --release -p xtask -- timeline "$VERIFY_DIR/j1/timeline.jsonl" \
    > "$VERIFY_DIR/timeline-report.txt"
cmp "$VERIFY_DIR/timeline-report.txt" results/fault_quick_timeline_report.txt

echo "==> export smoke: the Chrome trace and CSV timeline writers must give"
echo "    byte-identical files at --jobs 1 and --jobs 2 (multitenant)"
for jobs in 1 2; do
    cargo run -q --release -p anykey-bench -- multitenant --quick \
        --jobs "$jobs" --out "$VERIFY_DIR/m$jobs" \
        --trace "$VERIFY_DIR/m$jobs/t.json" --timeline "$VERIFY_DIR/m$jobs/tl.csv"
done
cmp "$VERIFY_DIR/m1/t.json" "$VERIFY_DIR/m2/t.json"
cmp "$VERIFY_DIR/m1/tl.csv" "$VERIFY_DIR/m2/tl.csv"

echo "==> scan smoke: fig18 at --jobs 1 and --jobs 2 must agree"
cargo run -q --release -p anykey-bench -- fig18 --quick --jobs 1 \
    --out "$VERIFY_DIR/s1"
cargo run -q --release -p anykey-bench -- fig18 --quick --jobs 2 \
    --out "$VERIFY_DIR/s2"
cmp "$VERIFY_DIR/s1/fig18.csv" "$VERIFY_DIR/s2/fig18.csv"
cmp "$VERIFY_DIR/s1/fig18_cdf.csv" "$VERIFY_DIR/s2/fig18_cdf.csv"

echo "==> quick bytes: the whole sweep at --quick must match its summary baseline"
cargo run -q --release -p anykey-bench -- all --quick --jobs 2 --out "$VERIFY_DIR/quick"
cargo run -q --release -p xtask -- bench-diff \
    results/baseline_quick.json "$VERIFY_DIR/quick/summary.json"

echo "==> standard bytes: the whole sweep at the default scale must write"
echo "    exactly the committed results/*.csv and match its summary baseline"
cargo run -q --release -p anykey-bench -- all --jobs 2 --out "$VERIFY_DIR/std"
(cd "$VERIFY_DIR/std" && ls *.csv) > "$VERIFY_DIR/std-csvs.txt"
(cd results && ls *.csv) > "$VERIFY_DIR/committed-csvs.txt"
cmp "$VERIFY_DIR/std-csvs.txt" "$VERIFY_DIR/committed-csvs.txt"
for csv in $(cat "$VERIFY_DIR/committed-csvs.txt"); do
    cmp "$VERIFY_DIR/std/$csv" "results/$csv"
done
cargo run -q --release -p xtask -- bench-diff \
    results/baseline_standard.json "$VERIFY_DIR/std/summary.json"

echo "==> cargo clippy (lint levels; DESIGN.md §8)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> xtask deps (hermeticity)"
cargo run -q --release -p xtask -- deps

echo "verify: OK"
