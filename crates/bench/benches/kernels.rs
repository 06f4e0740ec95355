//! Serial-vs-parallel kernel timings plus an analyzer-estimate audit.
//!
//! Emits `BENCH_kernels.json` in the working directory with, per kernel:
//! best-of-N serial and pooled wall times, the speedup, a bitwise-equality
//! verdict (the pool must not change a single ULP), and — for matmul — a
//! pinned copy of the pre-microkernel scalar kernel as the historical
//! baseline (`scalar_ms` / `micro_speedup`) next to the static analyzer's
//! FLOP estimate and the count of floating-point operations the kernel
//! contract implies. Kernels without FLOP instrumentation (the softmax
//! rows: transcendental ops are modeled, not counted) report `null` for
//! the measured fields rather than a fake zero-error match.
//!
//! Numbers are honest for the machine they ran on: on a single hardware
//! thread the pool has no workers and `speedup` hovers around 1.0; the
//! `micro_speedup` column is the one that reflects the tiled microkernel
//! (and, under `--features simd`, the AVX2+FMA tile), and the acceptance
//! floor (`>= 4x` on `matmul_256x256x256`) is asserted in the `simd`
//! build where the vector path is what is being shipped.

use hiergat_data::MagellanDataset;
use hiergat_lm::LmTier;
use hiergat_nn::{Adam, Optimizer, ParamId, ParamStore, Tape, Var};
use hiergat_runtime::{BuildContext, Example, ModelRegistry, Session};
use hiergat_tensor::{alloc_stats, cost, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const REPS: usize = 7;

/// Best-of-`REPS` wall time in seconds.
fn time_best<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("REPS > 0"))
}

/// Pinned copy of the pre-microkernel serial matmul: plain `i-k-j` loops
/// with the historical zero-skip shortcut. This is the scalar kernel the
/// tiled microkernel replaced; `micro_speedup` is measured against it so
/// the number tracks the optimization, not pool scaling.
fn legacy_scalar_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (r, k) = a.shape();
    let c = b.cols();
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; r * c];
    for (a_row, o_row) in av.chunks_exact(k).zip(out.chunks_exact_mut(c)) {
        for (p, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &bv[p * c..(p + 1) * c];
            for (o_v, &b_v) in o_row.iter_mut().zip(b_row) {
                *o_v += a_ik * b_v;
            }
        }
    }
    Tensor::from_vec(r, c, out).expect("sized")
}

/// Pinned copy of the pre-microkernel serial `A B^T`: one scalar dot
/// product per output element.
fn legacy_scalar_matmul_nt(a: &Tensor, bt: &Tensor) -> Tensor {
    let (r, k) = a.shape();
    let c = bt.rows();
    let (av, btv) = (a.as_slice(), bt.as_slice());
    let mut out = vec![0.0f32; r * c];
    for (a_row, o_row) in av.chunks_exact(k).zip(out.chunks_exact_mut(c)) {
        for (j, o_v) in o_row.iter_mut().enumerate() {
            let b_row = &btv[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&a_v, &b_v) in a_row.iter().zip(b_row) {
                acc += a_v * b_v;
            }
            *o_v = acc;
        }
    }
    Tensor::from_vec(r, c, out).expect("sized")
}

/// Counts the floating-point ops the production matmul contract implies:
/// one multiply and one add per inner-product term, **every** term
/// evaluated — the kernels no longer skip zero operands (`0.0 * inf` must
/// surface as `NaN`), so the count is data-independent. `out_cols` is the
/// output width (`b.cols()` for `A B`, `b.rows()` for `A B^T`).
fn measured_matmul_flops(a: &Tensor, out_cols: usize) -> u64 {
    let (r, k) = a.shape();
    2 * r as u64 * k as u64 * out_cols as u64
}

/// `null`-aware JSON number formatting for optional metrics.
fn json_opt_f64(v: Option<f64>, decimals: usize) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x:.decimals$}"))
}

struct KernelRow {
    name: &'static str,
    /// Pinned legacy scalar kernel wall time; `None` for kernels that had
    /// no scalar predecessor to compare against (the softmax rows).
    scalar_s: Option<f64>,
    serial_s: f64,
    parallel_s: f64,
    bitwise_equal: bool,
    analyzer_flops: u64,
    /// Instrumented FLOP count; `None` when the kernel is not covered by
    /// the instrumentation (transcendental ops are modeled, not counted).
    measured_flops: Option<u64>,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        if self.parallel_s > 0.0 {
            self.serial_s / self.parallel_s
        } else {
            0.0
        }
    }

    /// Microkernel gain over the pinned scalar baseline (serial vs serial,
    /// so pool scaling cannot inflate it). `None` without a baseline.
    fn micro_speedup(&self) -> Option<f64> {
        let scalar = self.scalar_s?;
        if self.serial_s > 0.0 {
            Some(scalar / self.serial_s)
        } else {
            None
        }
    }

    /// Analyzer-vs-measured relative error; `None` for uncovered kernels
    /// (those must be skipped, not counted as a perfect 0.0 match).
    fn flop_rel_err(&self) -> Option<f64> {
        let measured = self.measured_flops?;
        if measured == 0 {
            return None;
        }
        let (a, m) = (self.analyzer_flops as f64, measured as f64);
        Some((a - m).abs() / m)
    }

    fn json(&self) -> String {
        format!(
            "    {{\"name\": \"{}\", \"scalar_ms\": {}, \"serial_ms\": {:.3}, \
             \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \"micro_speedup\": {}, \
             \"bitwise_equal\": {}, \"analyzer_flops\": {}, \
             \"measured_flops\": {}, \"flop_rel_err\": {}}}",
            self.name,
            json_opt_f64(self.scalar_s.map(|s| s * 1e3), 3),
            self.serial_s * 1e3,
            self.parallel_s * 1e3,
            self.speedup(),
            json_opt_f64(self.micro_speedup(), 3),
            self.bitwise_equal,
            self.analyzer_flops,
            self.measured_flops.map_or_else(|| "null".to_string(), |m| m.to_string()),
            json_opt_f64(self.flop_rel_err(), 4),
        )
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn bits_f32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A two-layer classifier training graph (matmul / add_row / tanh / matmul
/// / cross-entropy) — the steady-state eager training-step workload.
fn record_train_graph(
    t: &mut Tape,
    store: &ParamStore,
    ids: &[ParamId],
    x: &Tensor,
    targets: &[usize],
) -> Var {
    let xv = t.input(x.clone());
    let w1 = t.param(store, ids[0]);
    let b1 = t.param(store, ids[1]);
    let w2 = t.param(store, ids[2]);
    let h = t.matmul(xv, w1);
    let h = t.add_row(h, b1);
    let h = t.tanh(h);
    let logits = t.matmul(h, w2);
    t.cross_entropy_logits(logits, targets)
}

fn train_store(seed: u64) -> (ParamStore, Vec<ParamId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamStore::new();
    let ids = vec![
        ps.add("w1", Tensor::rand_normal(128, 256, 0.0, 0.1, &mut rng)),
        ps.add("b1", Tensor::zeros(1, 256)),
        ps.add("w2", Tensor::rand_normal(256, 10, 0.0, 0.1, &mut rng)),
    ];
    (ps, ids)
}

struct TrainModeRow {
    ms_per_step: f64,
    allocs_per_step: f64,
    bytes_per_step: f64,
}

/// Runs `steps` training steps through `step`, timing them and diffing the
/// global tensor-allocation counters across the loop.
fn run_train_mode(steps: usize, mut step: impl FnMut() -> f32) -> TrainModeRow {
    let before = alloc_stats();
    let t0 = Instant::now();
    for _ in 0..steps {
        std::hint::black_box(step());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let d = alloc_stats().since(before);
    let n = steps as f64;
    TrainModeRow {
        ms_per_step: elapsed * 1e3 / n,
        allocs_per_step: d.count as f64 / n,
        bytes_per_step: d.bytes as f64 / n,
    }
}

fn main() {
    let threads = parallel::threads();
    let mut rng = StdRng::seed_from_u64(0x6b65);
    let mut rows = Vec::new();

    // 256^3 matmul — the acceptance workload. The scalar baseline is the
    // pinned pre-microkernel kernel; its result is checked against the
    // production output (allclose, not bitwise: the `simd` build's FMA
    // rounds each term once, and the legacy kernel skipped zeros).
    let a = Tensor::rand_normal(256, 256, 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(256, 256, 0.0, 1.0, &mut rng);
    let (scalar_s, scalar) = time_best(|| legacy_scalar_matmul(&a, &b));
    let (ser_s, ser) = time_best(|| a.matmul_serial(&b));
    let (par_s, par) = time_best(|| a.matmul(&b));
    assert!(ser.allclose(&scalar, 1e-2), "microkernel diverged from the legacy scalar kernel");
    rows.push(KernelRow {
        name: "matmul_256x256x256",
        scalar_s: Some(scalar_s),
        serial_s: ser_s,
        parallel_s: par_s,
        bitwise_equal: bits(&ser) == bits(&par),
        analyzer_flops: cost::matmul_flops(256, 256, 256),
        measured_flops: Some(measured_matmul_flops(&a, b.cols())),
    });

    // Fused A B^T (attention scoring shape: seq 128, head dim 64).
    let q = Tensor::rand_normal(128, 64, 0.0, 1.0, &mut rng);
    let k = Tensor::rand_normal(128, 64, 0.0, 1.0, &mut rng);
    let (scalar_s, scalar) = time_best(|| legacy_scalar_matmul_nt(&q, &k));
    let (ser_s, ser) = time_best(|| q.matmul_nt_serial(&k));
    let (par_s, par) = time_best(|| q.matmul_nt(&k));
    assert!(ser.allclose(&scalar, 1e-2), "nt microkernel diverged from the legacy scalar kernel");
    rows.push(KernelRow {
        name: "matmul_nt_128x64_scores",
        scalar_s: Some(scalar_s),
        serial_s: ser_s,
        parallel_s: par_s,
        bitwise_equal: bits(&ser) == bits(&par),
        analyzer_flops: cost::matmul_flops(128, 64, 128),
        measured_flops: Some(measured_matmul_flops(&q, k.rows())),
    });

    // Full attention scoring: softmax(Q K^T) — the row-parallel composite.
    let (ser_s, ser) = time_best(|| q.matmul_nt_serial(&k).softmax_rows_serial());
    let (par_s, par) = time_best(|| q.matmul_nt(&k).softmax_rows());
    rows.push(KernelRow {
        name: "attention_scores_softmax_128",
        scalar_s: None,
        serial_s: ser_s,
        parallel_s: par_s,
        bitwise_equal: bits(&ser) == bits(&par),
        analyzer_flops: cost::matmul_flops(128, 64, 128) + cost::softmax_flops(128, 128),
        measured_flops: None, // transcendental ops are modeled, not counted
    });

    // Row-wise softmax on a larger block.
    let s = Tensor::rand_normal(512, 256, 0.0, 1.0, &mut rng);
    let (ser_s, ser) = time_best(|| s.softmax_rows_serial());
    let (par_s, par) = time_best(|| s.softmax_rows());
    rows.push(KernelRow {
        name: "softmax_rows_512x256",
        scalar_s: None,
        serial_s: ser_s,
        parallel_s: par_s,
        bitwise_equal: bits(&ser) == bits(&par),
        analyzer_flops: cost::softmax_flops(512, 256),
        measured_flops: None,
    });

    let simd = cfg!(feature = "simd");
    println!("kernel timings at {threads} thread(s) (HIERGAT_THREADS to override), simd={simd}:");
    for r in &rows {
        println!(
            "  {:<30} serial {:>8.3} ms  pooled {:>8.3} ms  speedup {:>5.2}x  bitwise {}",
            r.name,
            r.serial_s * 1e3,
            r.parallel_s * 1e3,
            r.speedup(),
            if r.bitwise_equal { "ok" } else { "MISMATCH" },
        );
        if let (Some(scalar_s), Some(micro)) = (r.scalar_s, r.micro_speedup()) {
            println!(
                "  {:<30} legacy scalar {:>8.3} ms  microkernel gain {micro:>5.2}x",
                "",
                scalar_s * 1e3,
            );
        }
        if let (Some(measured), Some(err)) = (r.measured_flops, r.flop_rel_err()) {
            println!(
                "  {:<30} analyzer {} FLOPs vs measured {measured} ({:.2}% off)",
                "",
                r.analyzer_flops,
                err * 100.0,
            );
        }
    }

    let all_bitwise = rows.iter().all(|r| r.bitwise_equal);
    // Only instrumented kernels participate in the estimate audit; an
    // uncovered kernel used to masquerade as a perfect 0.0-error match.
    let covered = rows.iter().filter_map(KernelRow::flop_rel_err).collect::<Vec<f64>>();
    let max_rel_err = covered.iter().copied().fold(0.0f64, f64::max);
    assert!(all_bitwise, "pooled kernels must match serial bitwise");
    assert!(!covered.is_empty(), "no kernel was covered by FLOP instrumentation");
    assert!(max_rel_err <= 0.10, "analyzer FLOP estimate off by {:.1}%", max_rel_err * 100.0);

    // Acceptance floor for the tiled microkernel: the `simd` build must
    // beat the pinned scalar kernel by >= 4x on the 256^3 workload. The
    // portable build reports its gain but is not held to the vector floor.
    let micro = rows[0].micro_speedup().unwrap_or(0.0);
    if simd {
        assert!(
            micro >= 4.0,
            "simd microkernel must be >= 4x over the legacy scalar matmul, got {micro:.2}x"
        );
    }

    // Steady-state eager training step: re-record the tape (values
    // materialize during recording), backward, clip, Adam.
    const TRAIN_STEPS: usize = 20;
    let x = Tensor::rand_normal(64, 128, 0.0, 1.0, &mut rng);
    let targets: Vec<usize> = (0..64).map(|i| i % 10).collect();

    let (mut ps_h, ids_h) = train_store(0xa55a);
    let mut opt_h = Adam::new(1e-3);
    let mut heap_step = || {
        ps_h.zero_grad();
        let mut t = Tape::new();
        let loss = record_train_graph(&mut t, &ps_h, &ids_h, &x, &targets);
        let v = t.value(loss).item();
        t.backward(loss, &mut ps_h);
        ps_h.clip_grad_norm(5.0);
        opt_h.step(&mut ps_h);
        v
    };

    // Warm-up: Adam moment state.
    let warm = heap_step();
    assert!(warm.is_finite(), "warm-up loss {warm}");
    let heap = run_train_mode(TRAIN_STEPS, heap_step);

    println!("training step (two-layer classifier, {TRAIN_STEPS} steps, eager):");
    println!(
        "  heap  {:>8.3} ms/step  {:>7.1} tensor allocs/step  {:>12.0} bytes/step",
        heap.ms_per_step, heap.allocs_per_step, heap.bytes_per_step,
    );

    // Scoring throughput: the eager predict path (fresh eager tape per
    // pair — every parameter tensor cloned in, every node heap-allocated)
    // vs a runtime Session replaying cached forward-only arena plans.
    // Identical graphs, identical kernels, so the scores must match
    // bitwise while the session skips the per-call allocation work.
    let ds = MagellanDataset::FodorsZagats.load(0.3);
    let pairs: Vec<_> = ds.train.iter().take(24).collect();
    let registry = ModelRegistry::builtin();
    let spec = registry.get("hiergat").expect("hiergat registered");
    let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
    let mut session = Session::new(spec.build(&cx));
    // Warm the plan cache so the timed loop measures steady-state replay.
    for p in &pairs {
        session.score(Example::Pair(p));
    }
    let (eager_s, eager_scores) = time_best(|| {
        pairs.iter().map(|p| session.model().predict(Example::Pair(p))[0]).collect::<Vec<f32>>()
    });
    let (infer_s, infer_scores) = time_best(|| {
        pairs.iter().map(|p| session.score(Example::Pair(p))[0]).collect::<Vec<f32>>()
    });
    // As-recorded replay (optimiser off): the certified rewrites must not
    // cost throughput, and — being bitwise-exact — must not move a score.
    session.set_optimize(false);
    for p in &pairs {
        session.score(Example::Pair(p));
    }
    let (plain_s, plain_scores) = time_best(|| {
        pairs.iter().map(|p| session.score(Example::Pair(p))[0]).collect::<Vec<f32>>()
    });
    session.set_optimize(true);
    let scores_bitwise = bits_f32(&eager_scores) == bits_f32(&infer_scores)
        && bits_f32(&plain_scores) == bits_f32(&infer_scores);
    let n_pairs = pairs.len() as f64;
    let (eager_pps, infer_pps, plain_pps) =
        (n_pairs / eager_s, n_pairs / infer_s, n_pairs / plain_s);
    let scoring_speedup = eager_s / infer_s;
    let optimize_speedup = plain_s / infer_s;
    let first = Example::Pair(pairs[0]);
    let infer_arena = session.model().plan_inference(first).arena_bytes;

    println!("pair scoring (HierGAT pairwise, {} pairs, eager vs inference session):", pairs.len());
    println!("  eager              {eager_pps:>8.1} pairs/s");
    println!("  session (as-rec.)  {plain_pps:>8.1} pairs/s");
    println!(
        "  session (optimised) {infer_pps:>7.1} pairs/s  speedup {scoring_speedup:>5.2}x eager, \
         {optimize_speedup:.2}x as-recorded"
    );
    println!("  peak arena: inference plan {infer_arena} B");
    println!("  scores bitwise {}", if scores_bitwise { "ok" } else { "MISMATCH" });
    assert!(scores_bitwise, "session scoring must match eager predictions bitwise");
    assert!(
        scoring_speedup >= 1.3,
        "inference session must score at least 1.3x faster than eager, got {scoring_speedup:.2}x"
    );
    assert!(
        optimize_speedup >= 0.95,
        "optimised replay must not regress pairs/s vs as-recorded, got {optimize_speedup:.2}x"
    );

    // Certified optimiser deltas on the inference scoring graphs: node and
    // FLOP counts must shrink for the paper model and for a baseline.
    let mut opt_rows = Vec::new();
    for name in ["hiergat", "deepmatcher"] {
        let spec = registry.get(name).expect("registered model");
        let model = spec.build(&cx);
        let report = model.optimize_report(first, false);
        assert!(report.all_valid(), "{name}: optimiser certificates must validate");
        assert!(
            report.nodes_after < report.nodes_before,
            "{name}: optimiser must reduce node count ({} -> {})",
            report.nodes_before,
            report.nodes_after
        );
        assert!(
            report.flops_after < report.flops_before,
            "{name}: optimiser must reduce FLOPs ({} -> {})",
            report.flops_before,
            report.flops_after
        );
        println!(
            "optimiser ({name}): nodes {} -> {}, flops {} -> {}, {} certified rewrites",
            report.nodes_before,
            report.nodes_after,
            report.flops_before,
            report.flops_after,
            report.rewrites(),
        );
        opt_rows.push((name, report));
    }

    // Quantised session: the same model and pairs, with the weights
    // snapped onto the absint feasibility table's grids. Measured side by
    // side with the f32 session rows above so run_benches.sh can gate the
    // floor: throughput must hold and the weight bytes must shrink.
    let qreport = session
        .quantise(first, &hiergat_nn::QuantConfig::default())
        .expect("hiergat session must quantise");
    for p in &pairs {
        session.score(Example::Pair(p));
    }
    let (quant_s, quant_scores) = time_best(|| {
        pairs.iter().map(|p| session.score(Example::Pair(p))[0]).collect::<Vec<f32>>()
    });
    let quant_pps = n_pairs / quant_s;
    let quant_speedup = infer_s / quant_s;
    let quant_drift =
        quant_scores.iter().zip(&infer_scores).map(|(q, f)| (q - f).abs()).fold(0.0f32, f32::max);
    println!("quantised scoring (same session, weights snapped to absint int8/f16 grids):");
    println!(
        "  session (quantised) {quant_pps:>7.1} pairs/s  {quant_speedup:.2}x optimised f32 session"
    );
    println!(
        "  weights {} -> {} B  arena {} B  max score drift {quant_drift:.4}",
        qreport.weights.bytes_f32, qreport.weights.bytes_quantised, qreport.arena_bytes,
    );
    assert!(
        qreport.weights.bytes_quantised < qreport.weights.bytes_f32,
        "quantised weights must shrink"
    );
    assert!(quant_drift < 0.05, "quantised scores drifted {quant_drift} from the f32 session");

    let body: Vec<String> = rows.iter().map(KernelRow::json).collect();
    let train_json = format!(
        "  \"train_step\": {{\"graph\": \"mlp_64x128x256x10\", \"steps\": {TRAIN_STEPS}, \
         \"heap_ms_per_step\": {:.3}, \"heap_allocs_per_step\": {:.1}, \
         \"heap_bytes_per_step\": {:.0}}},",
        heap.ms_per_step, heap.allocs_per_step, heap.bytes_per_step,
    );
    let scoring_json = format!(
        "  \"scoring\": {{\"model\": \"hiergat-pairwise\", \"pairs\": {}, \
         \"eager_pairs_per_s\": {eager_pps:.1}, \"session_pairs_per_s\": {infer_pps:.1}, \
         \"unoptimized_session_pairs_per_s\": {plain_pps:.1}, \
         \"speedup\": {scoring_speedup:.3}, \"optimize_speedup\": {optimize_speedup:.3}, \
         \"bitwise_equal\": {scores_bitwise}, \
         \"infer_peak_arena_bytes\": {infer_arena}}},",
        pairs.len(),
    );
    let quantised_json = format!(
        "  \"quantised\": {{\"model\": \"hiergat-pairwise\", \"pairs\": {}, \
         \"quantised_pairs_per_s\": {quant_pps:.1}, \"f32_session_pairs_per_s\": {infer_pps:.1}, \
         \"speedup_vs_f32_session\": {quant_speedup:.3}, \
         \"weight_bytes_f32\": {}, \"weight_bytes_quantised\": {}, \
         \"arena_bytes_quantised\": {}, \"max_score_drift\": {quant_drift:.6}}},",
        pairs.len(),
        qreport.weights.bytes_f32,
        qreport.weights.bytes_quantised,
        qreport.arena_bytes,
    );
    let opt_body: Vec<String> = opt_rows
        .iter()
        .map(|(name, r)| {
            format!(
                "    {{\"model\": \"{name}\", \"nodes_before\": {}, \"nodes_after\": {}, \
                 \"flops_before\": {}, \"flops_after\": {}, \"rewrites\": {}, \
                 \"certificates_valid\": {}}}",
                r.nodes_before,
                r.nodes_after,
                r.flops_before,
                r.flops_after,
                r.rewrites(),
                r.all_valid(),
            )
        })
        .collect();
    let optimize_json = format!("  \"optimize\": [\n{}\n  ],", opt_body.join(",\n"));
    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"simd\": {simd},\n  \
         \"all_bitwise_equal\": {all_bitwise},\n  \
         \"max_flop_rel_err\": {max_rel_err:.4},\n{train_json}\n{scoring_json}\n{quantised_json}\n{optimize_json}\n  \
         \"kernels\": [\n{}\n  ]\n}}\n",
        body.join(",\n"),
    );
    // cargo runs benches with cwd = package dir; anchor at the workspace root.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&out, &json).expect("write BENCH_kernels.json");
    println!("wrote {}", out.display());
}
