#!/usr/bin/env bash
# Workspace lint gate: formatting, clippy (warnings are errors), release
# build, and the full test suite. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The simd cfg gates the crate's only unsafe code; lint it explicitly so
# the feature-flagged path cannot rot behind the default build.
echo "==> cargo clippy --features simd (tensor + bench) -- -D warnings"
cargo clippy -p hiergat-tensor -p hiergat-bench --all-targets --features simd -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The benchmark package (crates/bench/examples/perf) is a Cargo package of
# its own outside the workspace, so the workspace steps above do not cover
# it. It imports the nn internals' public surface; lint and test it here.
perf=crates/bench/examples/perf/Cargo.toml
echo "==> cargo fmt --check --manifest-path $perf"
cargo fmt --check --manifest-path "$perf"

echo "==> cargo clippy --offline --all-targets --manifest-path $perf -- -D warnings"
cargo clippy --offline --all-targets --manifest-path "$perf" -- -D warnings

echo "==> cargo test --offline --release --manifest-path $perf"
cargo test --offline --release --manifest-path "$perf"

# Golden-bits gate: session scores and one training step's loss and
# gradients must match the committed bit patterns (portable build only; the
# simd tile rounds differently) under a real 1-wide and a real 8-wide pool.
echo "==> HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test golden_bits"
HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test golden_bits

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test golden_bits"
HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test golden_bits

# Kernel-equivalence sweep: the tensor suite's bitwise serial-vs-parallel
# tests must hold under a real single-thread pool and a real 8-wide pool,
# not just the in-process width override. The sweep runs in both feature
# configs: the portable microkernel (pinned bitwise to the naive i-k-j
# reference) and the AVX2+FMA tile (pinned bitwise across widths within
# its own build).
echo "==> HIERGAT_THREADS=1 cargo test -q -p hiergat-tensor -p parallel"
HIERGAT_THREADS=1 cargo test -q -p hiergat-tensor -p parallel

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-tensor -p parallel"
HIERGAT_THREADS=8 cargo test -q -p hiergat-tensor -p parallel

echo "==> HIERGAT_THREADS=1 cargo test -q -p hiergat-tensor --features simd"
HIERGAT_THREADS=1 cargo test -q -p hiergat-tensor --features simd

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-tensor --features simd"
HIERGAT_THREADS=8 cargo test -q -p hiergat-tensor --features simd

# Arena zero-allocation gate: steady-state inference replays must make no
# heap allocation at split width 1 and allocate no tensors at width 8,
# under a real single-thread pool and a real 8-wide pool.
echo "==> HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test arena_zero_alloc"
HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test arena_zero_alloc

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test arena_zero_alloc"
HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test arena_zero_alloc

# Model-registry conformance gate: every registered model's inference
# session must reproduce eager predictions bitwise (across repeated calls
# and pool widths) and record dropout-free inference graphs that lint
# clean under eval rules — under a real 1-wide and a real 8-wide pool.
echo "==> HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test runtime_conformance"
HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test runtime_conformance

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test runtime_conformance"
HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test runtime_conformance

# The same gates under the simd microkernel tile: FMA rounds each term
# once, so the simd build's values differ from the portable build — but
# eager-vs-session and width-1-vs-width-8 must still be bitwise identical
# *within* the simd build, and replays must still allocate nothing.
echo "==> HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --features simd --test arena_zero_alloc --test runtime_conformance"
HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --features simd \
  --test arena_zero_alloc --test runtime_conformance

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --features simd --test arena_zero_alloc --test runtime_conformance"
HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --features simd \
  --test arena_zero_alloc --test runtime_conformance

# Optimiser differential gate: for every builtin model, the certified
# tape optimiser must produce graphs whose session scores are bitwise
# identical to the unoptimised eager path, with every rewrite certificate
# valid and the optimised graphs lint-clean — under a real 1-wide and a
# real 8-wide pool, and again under the simd microkernel tile (whose FMA
# values differ from the portable build, so equality must hold *within*
# each build).
echo "==> HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test optimize_differential"
HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test optimize_differential

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test optimize_differential"
HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test optimize_differential

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --features simd --test optimize_differential"
HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --features simd --test optimize_differential

# Quantisation acceptance gate: every builtin model quantised off the
# absint feasibility table must hold Magellan F1 within the configured
# delta of its f32 session, shrink the weight bytes, and score graph
# geometries unseen at quantise time bitwise-equal to eager prediction
# on the snapped weights across pool widths and optimiser settings —
# under a real 1-wide and a real 8-wide pool, and again under the simd
# build (whose FMA microkernel tile must hold the same equalities).
echo "==> HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test quantise_acceptance"
HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test quantise_acceptance

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test quantise_acceptance"
HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test quantise_acceptance

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --features simd --test quantise_acceptance"
HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --features simd --test quantise_acceptance

# Streaming resolve gate: the corpus-scale pipeline (sharded blocking →
# cosine cascade → union-find clustering) must clear its cluster-F1 floor
# and produce bitwise-identical cluster assignments at pool widths 1 and
# 8 — first in-process, then across the CLI (`hiergat resolve`) where the
# emitted CSVs for a 3k-record synthetic corpus must compare equal.
echo "==> cargo test -q -p hiergat-bench --test resolve_pipeline"
cargo test -q -p hiergat-bench --test resolve_pipeline

echo "==> hiergat resolve width determinism (HIERGAT_THREADS=1 vs 8)"
HIERGAT_THREADS=1 ./target/release/hiergat resolve \
  --entities 3000 --seed 11 --accept 0.55 --out /tmp/hiergat_resolve_w1.csv
HIERGAT_THREADS=8 ./target/release/hiergat resolve \
  --entities 3000 --seed 11 --accept 0.55 --out /tmp/hiergat_resolve_w8.csv
cmp /tmp/hiergat_resolve_w1.csv /tmp/hiergat_resolve_w8.csv
rm -f /tmp/hiergat_resolve_w1.csv /tmp/hiergat_resolve_w8.csv

# Interval-audit differential gate: for every builtin model, the abstract
# interpreter's proven per-node intervals must contain every concrete
# value an eager scoring run records, under observed and symbolic
# seeding — at both pool widths, since eager recording uses the kernel
# pool while the proven intervals must not depend on it.
echo "==> HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test absint_containment"
HIERGAT_THREADS=1 cargo test -q -p hiergat-bench --test absint_containment

echo "==> HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test absint_containment"
HIERGAT_THREADS=8 cargo test -q -p hiergat-bench --test absint_containment

# Static-analyzer gate: every builtin model's training graph, recorded on a
# deferred tape, must analyze clean (no shape violation, dead parameter,
# unused node or input-graph issue); the command exits non-zero otherwise.
echo "==> hiergat analyze"
./target/release/hiergat analyze \
  --dataset fodors-zagats --scale 0.2 --tier dbert

# Lint gate: every builtin model graph must pass the rule engine with
# warnings denied, and the kernel write-disjointness race audit must
# verify under both pool widths (the audit itself also sweeps widths
# 1/2/8 via the in-process override).
echo "==> hiergat lint --deny warn (HIERGAT_THREADS=1)"
HIERGAT_THREADS=1 ./target/release/hiergat lint \
  --dataset fodors-zagats --scale 0.2 --tier dbert --deny warn

echo "==> hiergat lint --deny warn (HIERGAT_THREADS=8)"
HIERGAT_THREADS=8 ./target/release/hiergat lint \
  --dataset fodors-zagats --scale 0.2 --tier dbert --deny warn

# Numerical-safety gate: the interval audit of every builtin model's
# inference scoring graph must report zero findings (no reachable
# overflow, underflow-to-zero, or NaN under symbolic input boxes).
echo "==> hiergat audit --deny warn"
./target/release/hiergat audit \
  --dataset fodors-zagats --scale 0.2 --tier dbert --deny warn

# Quantisation CLI gate: every builtin model must pass the F1-delta and
# weight-byte gates of `hiergat quantise` on the bundled dataset (the
# command exits non-zero when any model's gate fails).
echo "==> hiergat quantise"
./target/release/hiergat quantise \
  --dataset fodors-zagats --scale 0.2 --tier dbert

# Translation-validation gate: every builtin model graph must optimise
# with valid shape + interval certificates, and the optimised session must
# reproduce eager predictions bitwise (`--verify` runs the differential).
echo "==> hiergat optimize --verify"
./target/release/hiergat optimize \
  --dataset fodors-zagats --scale 0.2 --tier dbert --verify

echo "==> ci gate passed"
