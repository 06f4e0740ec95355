#!/bin/sh
# Runs every table/figure harness in priority order, appending to bench_output.txt.
# The machine-readable lint + race-audit report and the interval-audit
# report (proven value ranges, numerical-safety findings, quantisation
# feasibility) for the benched build are attached first so regressions in
# the audited graphs surface alongside the numbers they would taint.
set -x
cd /root/repo
: > bench_output.txt
echo "### lint report (hiergat lint --json)" >> bench_output.txt
cargo run --release -q --bin hiergat -- lint \
  --dataset fodors-zagats --scale 0.2 --tier dbert --deny warn --json \
  >> bench_output.txt 2>&1 || echo "### lint gate FAILED" >> bench_output.txt
echo "### interval audit report (hiergat audit --json)" >> bench_output.txt
cargo run --release -q --bin hiergat -- audit \
  --dataset fodors-zagats --scale 0.2 --tier dbert --deny warn --json \
  >> bench_output.txt 2>&1 || echo "### audit gate FAILED" >> bench_output.txt
echo "### optimiser report (hiergat optimize --json)" >> bench_output.txt
cargo run --release -q --bin hiergat -- optimize \
  --dataset fodors-zagats --scale 0.2 --tier dbert --json \
  >> bench_output.txt 2>&1 || echo "### optimize gate FAILED" >> bench_output.txt
# The kernels bench runs with the simd feature (the shipped configuration
# of the matmul microkernel) and is held to the acceptance floor: the
# 256^3 matmul must beat the pinned legacy scalar kernel by >= 4x with
# every pooled kernel bitwise-equal to serial.
echo "### running kernels (--features simd)" >> bench_output.txt
cargo bench -p hiergat-bench --bench kernels --features simd >> bench_output.txt 2>&1 \
  || { echo "### KERNELS BENCH FAILED" >> bench_output.txt; exit 1; }
python3 - <<'EOF' >> bench_output.txt 2>&1 || { echo "### KERNELS SPEEDUP FLOOR FAILED" >> bench_output.txt; exit 1; }
import json
d = json.load(open("BENCH_kernels.json"))
row = next(r for r in d["kernels"] if r["name"] == "matmul_256x256x256")
micro = row["micro_speedup"] or 0.0
print(f"kernels floor check: simd={d['simd']} all_bitwise_equal={d['all_bitwise_equal']} "
      f"matmul_256x256x256 micro_speedup={micro:.2f}x")
assert d["simd"], "kernels bench did not run with the simd feature"
assert d["all_bitwise_equal"], "pooled kernels diverged from serial"
assert micro >= 4.0, f"microkernel floor not met: {micro:.2f}x < 4x"
# Quantised-session floor. A quantised session replays the f32 executor
# over weights snapped onto the audited grids (DESIGN.md section 17), so
# the gates are: the weight bytes the grids need shrink, score drift stays
# small, and throughput holds most of the f32 session's.
q = d["quantised"]
print(f"quantised floor check: {q['quantised_pairs_per_s']:.0f} pairs/s "
      f"({q['speedup_vs_f32_session']:.2f}x f32 session), weights "
      f"{q['weight_bytes_f32']} -> {q['weight_bytes_quantised']} B, arena "
      f"{q['arena_bytes_quantised']} B, max drift {q['max_score_drift']:.4f}")
assert q["weight_bytes_quantised"] < q["weight_bytes_f32"], "quantised weights did not shrink"
assert q["max_score_drift"] <= 0.05, f"quantised drift too large: {q['max_score_drift']}"
assert q["speedup_vs_f32_session"] >= 0.8, (
    f"quantised throughput floor not met: {q['speedup_vs_f32_session']:.2f}x < 0.8x f32 session")
EOF
echo "### done kernels" >> bench_output.txt
# Corpus-scale streaming resolve floors: the full blocking → cascade →
# clustering pipeline must hold throughput and cluster quality on the
# synthetic corpus (10^6 records at scale 1.0), and routing the ambiguous
# cosine band through the trained session must not lose cluster F1
# against the cosine-only cascade (everything is seeded, so the
# comparison is deterministic at a given scale).
echo "### running resolve" >> bench_output.txt
cargo bench -p hiergat-bench --bench resolve >> bench_output.txt 2>&1 \
  || { echo "### RESOLVE BENCH FAILED" >> bench_output.txt; exit 1; }
python3 - <<'EOF' >> bench_output.txt 2>&1 || { echo "### RESOLVE FLOOR FAILED" >> bench_output.txt; exit 1; }
import json
d = json.load(open("BENCH_resolve.json"))
b = d["band"]
print(f"resolve floor check: {d['entities']} entities, {d['entities_per_s']:.0f} entities/s, "
      f"cluster F1 {d['cluster_f1']:.3f}, band F1 {b['band_f1']:.3f} "
      f"vs cosine-only {b['cosine_f1']:.3f}")
assert d["entities_per_s"] >= 5_000, (
    f"resolve throughput floor not met: {d['entities_per_s']:.0f} < 5000 entities/s")
assert d["cluster_f1"] >= 0.78, f"cluster F1 floor not met: {d['cluster_f1']:.3f} < 0.78"
assert b["band_f1"] >= b["cosine_f1"] - 0.005, (
    f"model band lost cluster F1: {b['band_f1']:.3f} vs cosine {b['cosine_f1']:.3f}")
EOF
echo "### done resolve" >> bench_output.txt
for b in table4_magellan table7_collective table3_lm_sizes fig10_wdc fig9_attention table9_context_ablation table10_views table11_modules table8_collective_lms fig11_training_time micro; do
  echo "### running $b" >> bench_output.txt
  cargo bench -p hiergat-bench --bench "$b" >> bench_output.txt 2>&1
  echo "### done $b" >> bench_output.txt
done
echo BENCH_SUITE_DONE >> bench_output.txt
