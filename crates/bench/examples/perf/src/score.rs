//! `score-warm`, and the public-call mirror of a session's scoring path
//! that both session workloads use in their traced runs.

use crate::stats::{median, percentile, ratio};
use crate::trace::{self, enter, span};
use crate::{finish_trace, setup_and_peak, timed, wide, Ctx, Outcome, Tally};
use hiergat_data::{EntityPair, MagellanDataset};
use hiergat_lm::LmTier;
use hiergat_nn::{
    optimize_with_cache, ArenaExecutor, OptimizeConfig, OptimizerCache, QuantConfig, Tape,
};
use hiergat_runtime::{BuildContext, ErModel, Example, ModelRegistry, QuantReport, Session};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Distinct pairs in the warm working set.
const WARM_PAIRS: usize = 128;
/// Pairs per `score_pairs` call.
const CALL_PAIRS: usize = 8;
/// Share of the measured time spent on the f32 session; the rest goes to
/// the quantised one.
const F32_SHARE: f64 = 0.8;
/// Share of `--seconds` a traced run spends on calls at full pool width.
const WIDE_SHARE: f64 = 0.25;
/// Largest score drift the quantised session may show against f32.
const MAX_QUANT_DRIFT: f32 = 0.05;

/// Scores pairs the way `Session` does internally (`score_one`), through
/// public calls only — `ErModel::record_scores` on an inference tape,
/// `optimize_with_cache`, `ArenaExecutor::infer_into` — timing each call
/// and counting optimiser-cache and plan-cache hits.
#[derive(Default)]
pub struct Mirror {
    exec: ArenaExecutor,
    cache: OptimizerCache,
    record: Vec<f64>,
    /// Seconds per optimiser call, and whether the cache already held the
    /// graph (`OptimizerCache::len` unchanged by the call).
    optimize: Vec<(f64, bool)>,
    /// Seconds per replay, and whether the plan cache already held the
    /// graph (`plans_cached` unchanged by the call).
    replay: Vec<(f64, bool)>,
    /// Optimised-graph FLOPs and replay seconds of the calls whose FLOPs
    /// are known.
    flops: f64,
    flop_secs: f64,
}

impl Mirror {
    /// Scores one pair; returns the match probability and the seconds the
    /// three calls took. `flops` is the pair's optimised-graph FLOP count,
    /// when the caller has it.
    pub fn score(
        &mut self,
        model: &dyn ErModel,
        pair: &EntityPair,
        req: u64,
        flops: Option<u64>,
    ) -> (f32, f64) {
        let t0 = Instant::now();
        let g = enter("core.record_scores", req);
        let mut tape = Tape::inference();
        let probs = model.record_scores(&mut tape, Example::Pair(pair));
        drop(g);
        let t1 = Instant::now();
        let (cached, planned) = (self.cache.len(), self.exec.plans_cached());
        let g = enter("nn.optimize_with_cache", req);
        let opt = optimize_with_cache(
            &mut self.cache,
            tape,
            probs,
            model.params(),
            &OptimizeConfig::hot(),
        );
        drop(g);
        let t2 = Instant::now();
        let mut buf = [0.0f32; 2];
        let g = enter("nn.infer_into", req);
        self.exec.infer_into(opt.tape, opt.root, model.params(), &mut buf);
        drop(g);
        let t3 = Instant::now();
        let replay = (t3 - t2).as_secs_f64();
        self.record.push((t1 - t0).as_secs_f64());
        self.optimize.push(((t2 - t1).as_secs_f64(), self.cache.len() == cached));
        self.replay.push((replay, self.exec.plans_cached() == planned));
        if let Some(f) = flops {
            self.flops += f as f64;
            self.flop_secs += replay;
        }
        // The probability node is `1 x 2`; column 1 is P(match).
        (buf[1], (t3 - t0).as_secs_f64())
    }

    /// Forgets the samples taken so far (after a warm-up), keeping caches.
    fn clear_samples(&mut self) {
        self.record.clear();
        self.optimize.clear();
        self.replay.clear();
        (self.flops, self.flop_secs) = (0.0, 0.0);
    }

    /// The `core.*` and `nn.*` session-path metrics.
    pub fn metrics(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        let split = |xs: &[(f64, bool)], hit: bool| -> Vec<f64> {
            xs.iter().filter(|x| x.1 == hit).map(|x| x.0 * 1e6).collect()
        };
        let hits =
            |xs: &[(f64, bool)]| ratio(xs.iter().filter(|x| x.1).count() as f64, xs.len() as f64);
        let us: Vec<f64> = self.record.iter().map(|s| s * 1e6).collect();
        metrics.insert("core.record_us", median(&us));
        metrics.insert("nn.optimize_calls", self.optimize.len() as f64);
        metrics.insert("nn.optimize_hit_ratio", hits(&self.optimize));
        metrics.insert("nn.optimize_hit_us", median(&split(&self.optimize, true)));
        metrics.insert("nn.optimize_miss_us", median(&split(&self.optimize, false)));
        metrics.insert("nn.plan_hit_ratio", hits(&self.replay));
        metrics.insert("nn.replay_hit_us", median(&split(&self.replay, true)));
        metrics.insert("nn.replay_miss_us", median(&split(&self.replay, false)));
        metrics.insert("nn.replay_gflops", ratio(self.flops, self.flop_secs) / 1e9);
        metrics.insert("nn.arena_kb", self.exec.arena_capacity_bytes() as f64 / 1e3);
    }
}

/// What `score-warm` sets up.
struct Warm {
    pairs: Vec<EntityPair>,
    f32s: Session,
    quant: Session,
    /// Eager `predict` scores: what every f32 session call must reproduce
    /// bitwise.
    reference: Vec<f32>,
    /// The quantised session's first scores; later calls must repeat them.
    quant_reference: Vec<f32>,
    quant_report: QuantReport,
}

fn setup(seed: u64) -> Warm {
    let ds = MagellanDataset::FodorsZagats.load(1.0);
    let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
    // The quantiser audits one example's graph; a fixed one keeps the
    // audit's memory peak, and so `peak_rss_mb`, the same for every seed.
    let audit_example = ds.train[0].clone();
    let mut seen = HashSet::new();
    let mut pool: Vec<EntityPair> = ds
        .train
        .into_iter()
        .chain(ds.valid)
        .chain(ds.test)
        .filter(|p| seen.insert((p.left.full_text(), p.right.full_text())))
        .collect();
    assert!(pool.len() >= WARM_PAIRS, "Fodors-Zagats holds enough distinct pairs");
    // A fixed working set, evenly spaced by pair length, in a seeded call
    // order (which pairs share a call). The caches hold every pair's graph,
    // so their memory follows the set: a seeded pick per length stratum
    // still moved `peak_rss_mb` by a 4.6% quartile spread over ten seeds.
    pool.sort_by_key(|p| p.left.full_text().len() + p.right.full_text().len());
    let mut pairs: Vec<EntityPair> = (0..WARM_PAIRS)
        .map(|k| pool[(2 * k + 1) * pool.len() / (2 * WARM_PAIRS)].clone())
        .collect();
    pairs.shuffle(&mut StdRng::seed_from_u64(seed));

    let registry = ModelRegistry::builtin();
    let spec = registry.get("hiergat").expect("hiergat is a builtin model");
    let mut f32s = Session::new(spec.build(&cx));
    let reference: Vec<f32> =
        pairs.iter().map(|p| f32s.model().predict(Example::Pair(p))[0]).collect();
    // Warm with the measured call geometry, so every worker slot's caches
    // hold every pair's graph before timing starts.
    for chunk in pairs.chunks(CALL_PAIRS) {
        f32s.score_pairs(chunk);
    }
    let mut quant = Session::new(spec.build(&cx));
    let quant_report = quant
        .quantise(Example::Pair(&audit_example), &QuantConfig::default())
        .expect("the hiergat session quantises (quantise_acceptance gate)");
    let quant_reference: Vec<f32> =
        pairs.chunks(CALL_PAIRS).flat_map(|chunk| quant.score_pairs(chunk)).collect();
    Warm { pairs, f32s, quant, reference, quant_reference, quant_report }
}

/// Whether `got` equals `want` bit for bit.
pub fn bitwise(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()) {
        Ok(())
    } else {
        Err(format!("scores {got:?} differ from reference {want:?}"))
    }
}

/// Times `score_pairs` calls over the working set, one chunk after the
/// next, until `deadline` (a span each, when tracing); each call must
/// reproduce `reference` bitwise.
fn call_loop(
    tally: &mut Tally,
    session: &mut Session,
    pairs: &[EntityPair],
    reference: &[f32],
    deadline: Instant,
) -> Vec<f64> {
    let mut secs = Vec::new();
    let n_chunks = pairs.len() / CALL_PAIRS;
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        let range = (i % n_chunks) * CALL_PAIRS..(i % n_chunks + 1) * CALL_PAIRS;
        let r = tally.op("score_pairs call", || {
            let start = Instant::now();
            let scores = span("runtime.score_pairs", i as u64, || {
                session.score_pairs(&pairs[range.clone()])
            });
            let s = start.elapsed().as_secs_f64();
            bitwise(&scores, &reference[range.clone()])?;
            Ok(s)
        });
        secs.extend(r);
        i += 1;
    }
    secs
}

/// `score-warm`: repeated `score_pairs` calls over a small working set of
/// distinct pairs whose graphs every cache already holds.
pub fn warm(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    let (mut w, setup_s) = timed(|| setup(ctx.seed));

    let threshold = w.f32s.threshold();
    let f32_scores: Vec<f32> =
        w.pairs.chunks(CALL_PAIRS).flat_map(|c| w.f32s.score_pairs(c)).collect();
    tally.check("warm-up scores", bitwise(&f32_scores, &w.reference));
    let drift =
        w.quant_reference.iter().zip(&w.reference).map(|(q, f)| (q - f).abs()).fold(0.0, f32::max);
    tally.check(
        "quantised drift",
        if drift <= MAX_QUANT_DRIFT {
            Ok(())
        } else {
            Err(format!("quantised scores drift {drift} > {MAX_QUANT_DRIFT}"))
        },
    );
    let agree = w
        .quant_reference
        .iter()
        .zip(&w.reference)
        .filter(|(q, f)| (**q >= threshold) == (**f >= threshold))
        .count();

    let f32_secs =
        call_loop(&mut tally, &mut w.f32s, &w.pairs, &w.reference, ctx.deadline(F32_SHARE));
    let quant_secs = call_loop(
        &mut tally,
        &mut w.quant,
        &w.pairs,
        &w.quant_reference,
        ctx.deadline(1.0 - F32_SHARE),
    );
    setup_and_peak(ctx, &mut tally, &mut metrics, setup_s, || setup(ctx.seed));
    let pairs_per_s = |secs: &[f64]| ratio((secs.len() * CALL_PAIRS) as f64, secs.iter().sum());
    metrics.insert("items_per_s", pairs_per_s(&f32_secs));
    metrics.insert("quality", ratio(agree as f64, w.pairs.len() as f64));
    eprintln!(
        "[perf] {} f32 calls, {} quantised calls; max quantised drift {drift:.5}",
        f32_secs.len(),
        quant_secs.len()
    );

    if ctx.trace {
        metrics.insert("runtime.call_p50_ms", median(&f32_secs) * 1e3);
        metrics.insert("runtime.call_p99_ms", percentile(&f32_secs, 99.0) * 1e3);
        metrics.insert("runtime.quant_pairs_per_s", pairs_per_s(&quant_secs));
        metrics.insert("nn.quant_weight_kb", w.quant_report.weights.bytes_quantised as f64 / 1e3);
        metrics.insert("nn.quant_arena_kb", w.quant_report.arena_bytes as f64 / 1e3);
        traced(ctx, &mut tally, &mut metrics, &mut w, median(&f32_secs));
        // The same calls at full pool width, once the session's extra
        // worker slots hold every graph.
        let wide_secs = wide(|| {
            for chunk in w.pairs.chunks(CALL_PAIRS) {
                w.f32s.score_pairs(chunk);
            }
            call_loop(&mut tally, &mut w.f32s, &w.pairs, &w.reference, ctx.deadline(WIDE_SHARE))
        });
        metrics.insert("parallel.speedup", median(&f32_secs) / median(&wide_secs));
    }
    Outcome { tally, metrics }
}

/// The traced run of `score-warm`. For the first half of the time, the
/// untraced run's calls inside spans: their slowdown is the tracing
/// overhead. For the second half, pair by pair, the session's serial path
/// next to the public-call mirror, both checked against eager scores.
fn traced(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut BTreeMap<&'static str, f64>,
    w: &mut Warm,
    untraced_call_s: f64,
) {
    trace::start();
    let mut mirror = Mirror::default();
    let mut overhead_us = Vec::new();
    let mut mismatches = 0usize;
    let call_secs = span("bench.score-warm", 0, || {
        let call_secs = call_loop(tally, &mut w.f32s, &w.pairs, &w.reference, ctx.deadline(0.5));

        // Warm the session's serial executor and the mirror on every pair.
        let flops: Vec<u64> = span("bench.warm_up", 0, || {
            for (j, p) in w.pairs.iter().enumerate() {
                w.f32s.score(Example::Pair(p));
                mirror.score(w.f32s.model(), p, j as u64, None);
            }
            w.pairs
                .iter()
                .map(|p| w.f32s.model().optimize_report(Example::Pair(p), false).flops_after)
                .collect()
        });
        mirror.clear_samples();
        let deadline = ctx.deadline(0.5);
        let mut k = 0;
        while k == 0 || Instant::now() < deadline {
            let j = k % w.pairs.len();
            let p = &w.pairs[j];
            let start = Instant::now();
            let s = span("runtime.score", k as u64, || w.f32s.score(Example::Pair(p))[0]);
            let session_s = start.elapsed().as_secs_f64();
            let (m, mirror_s) = span("bench.mirror", k as u64, || {
                mirror.score(w.f32s.model(), p, k as u64, Some(flops[j]))
            });
            overhead_us.push((session_s - mirror_s) * 1e6);
            let want = w.reference[j].to_bits();
            mismatches += usize::from(s.to_bits() != want || m.to_bits() != want);
            k += 1;
        }
        call_secs
    });
    tally.check(
        "session mirror",
        if mismatches == 0 {
            Ok(())
        } else {
            Err(format!("{mismatches} serial or mirrored scores differ from eager ones"))
        },
    );
    finish_trace(ctx, tally, metrics);
    mirror.metrics(metrics);
    metrics.insert("runtime.session_overhead_us", median(&overhead_us));
    metrics.insert("trace_overhead_pct", (median(&call_secs) / untraced_call_s - 1.0) * 100.0);
}
