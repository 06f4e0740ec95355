#!/usr/bin/env bash
# Runs every workload of the repository benchmark, each in its own
# process, and prints one `workload metric value unit` line per metric.
#
#   crates/bench/examples/perf/run.sh [--seed S] [--seconds T] [--trace] [--repeat-check]
#
# --trace         also run each workload traced: per-layer metrics, and a
#                 trace in target/perf/<workload>.trace.json
# --repeat-check  run the whole set twice and print, per end-to-end metric,
#                 the difference between the two runs next to its bound in
#                 BENCHMARK.json
#
# Results go to target/perf/ (never the repo root). Exits non-zero if any
# workload fails an output check.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../../../.." && pwd)"
cd "$root"

seed=11 seconds=20 trace=0 repeat=0
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --repeat-check) repeat=1; shift ;;
    *) echo "usage: $0 [--seed S] [--seconds T] [--trace] [--repeat-check]" >&2; exit 2 ;;
  esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/perf-build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/perf"
out="$root/target/perf"
mkdir -p "$out"

nproc="$(nproc)"
echo "== environment"
echo "nproc    $nproc"
echo "threads  $(( nproc < 4 ? nproc : 4 ))  (HIERGAT_THREADS = min(nproc, 4); split width 1 except for parallel.speedup)"
echo "simd     off (default features)"
echo "cpu      $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//' || echo unknown)"
echo "rustc    $(rustc -V)"
echo "commit   $(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
echo "seed     $seed   seconds $seconds"

workloads="resolve-cosine resolve-band score-warm train-pairwise"
modes="0"
if [ "$trace" = 1 ]; then modes="0 1"; fi
failed=0

# run_set TAG: runs every workload untraced (and traced with --trace),
# keeping each result line in target/perf/<workload>[.layers].<TAG>.json.
run_set() {
  local tag="$1" w mode file start
  for w in $workloads; do
    for mode in $modes; do
      file="$out/$w.$tag.json"
      if [ "$mode" = 1 ]; then file="$out/$w.layers.$tag.json"; fi
      start=$SECONDS
      if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$mode" \
        2>"$file.log" | tail -n 1 >"$file"; then
        echo "$w: benchmark exited non-zero, see $file.log"
        failed=1
        continue
      fi
      python3 - "$w" "$file" "$((SECONDS - start))" <<'EOF' || failed=1
import json, sys
w, path, secs = sys.argv[1], sys.argv[2], sys.argv[3]
r = json.load(open(path))
for name, m in r["metrics"].items():
    print(f"{w} {name} {m['value']:.6g} {m['unit']}")
print(f"{w} attempted {r['attempted']} failed {r['failed']} correct {r['correct']} ({secs} s)")
sys.exit(0 if r["correct"] else 1)
EOF
    done
  done
}

echo "== run 1"
run_set 1
if [ "$repeat" = 1 ]; then
  echo "== run 2"
  run_set 2
  echo "== repeat check: (run 2 - run 1) / run 1 against each metric's bound"
  python3 - "$root/BENCHMARK.json" "$out" $workloads <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
out, workloads = sys.argv[2], sys.argv[3:]
for w in workloads:
    a = json.load(open(f"{out}/{w}.1.json"))["metrics"]
    b = json.load(open(f"{out}/{w}.2.json"))["metrics"]
    for m in bench["end_to_end"]:
        x, y = a[m["name"]]["value"], b[m["name"]]["value"]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        mark = "ok" if worse <= m["bound"] else "OVER"
        print(f"{w:15s} {m['name']:12s} {x:14.6g} {y:14.6g} {100 * (y - x) / x:+8.2f}%"
              f"  bound {100 * m['bound']:g}%  {mark}")
EOF
fi
exit "$failed"
