//! The repository benchmark: one workload per process, end-to-end metrics
//! from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! perf --workload W [--seed S] [--seconds T] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end set, with `--trace 1`
//! the per-layer set (the workload runs untraced, then again with spans,
//! and the trace goes to `target/perf/<workload>.trace.json`). Progress
//! goes to standard error. README.md describes the workloads and metrics.

mod resolve;
mod score;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 11;
/// Widest kernel pool the benchmark starts: `HIERGAT_THREADS` is
/// `min(nproc, MAX_THREADS)`.
const MAX_THREADS: usize = 4;
/// Set-ups per untraced run (at least; see [`setup_and_peak`]); `setup_s`
/// is their median.
pub const SETUP_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 50;
const SETUP_BUDGET_S: f64 = 2.0;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("items_per_s", "1/s"), ("quality", "ratio")];

/// Per-layer metrics, reported by every workload's traced run. A workload
/// that does not reach a layer reports `0` for that layer's metrics (the
/// "stays flat" side of README.md's layer table).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("blocking.fit_s", "s"),
    ("blocking.index_mb", "MB"),
    ("blocking.retrieve_s", "s"),
    ("blocking.labels_s", "s"),
    ("blocking.candidates", "count"),
    ("blocking.candidates_per_query", "count"),
    ("blocking.merge_ratio", "ratio"),
    ("text.top_n_p50_us", "us"),
    ("text.top_n_p99_us", "us"),
    ("runtime.cascade_s", "s"),
    ("runtime.band_scoring_s", "s"),
    ("runtime.band_pairs", "count"),
    ("runtime.band_skip_ratio", "ratio"),
    ("runtime.model_scored", "count"),
    ("runtime.model_accept_ratio", "ratio"),
    ("runtime.batch_peak_kb", "kB"),
    ("runtime.call_p50_ms", "ms"),
    ("runtime.call_p99_ms", "ms"),
    ("runtime.session_overhead_us", "us"),
    ("runtime.quant_pairs_per_s", "1/s"),
    ("core.record_us", "us"),
    ("nn.optimize_calls", "count"),
    ("nn.optimize_hit_ratio", "ratio"),
    ("nn.optimize_hit_us", "us"),
    ("nn.optimize_miss_us", "us"),
    ("nn.plan_hit_ratio", "ratio"),
    ("nn.replay_hit_us", "us"),
    ("nn.replay_miss_us", "us"),
    ("nn.replay_gflops", "GFLOP/s"),
    ("nn.arena_kb", "kB"),
    ("nn.quant_weight_kb", "kB"),
    ("nn.quant_arena_kb", "kB"),
    ("core.step_p50_ms", "ms"),
    ("core.step_p99_ms", "ms"),
    ("core.eval_s", "s"),
    ("core.predict_pair_us", "us"),
    ("parallel.speedup", "ratio"),
    ("bench.self_s", "s"),
    ("text.self_s", "s"),
    ("blocking.self_s", "s"),
    ("runtime.self_s", "s"),
    ("core.self_s", "s"),
    ("nn.self_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// The workloads, in the order `run.sh` runs them.
pub const WORKLOADS: &[&str] = &["resolve-cosine", "resolve-band", "score-warm", "train-pairwise"];

/// What one invocation was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// The point at which a measured loop that started now must stop.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// Attempted and failed operations. An op is one rep, call or epoch; it
/// fails if it panics or its output check fails.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Runs one op, counting it, and returns its result if it neither
    /// panicked nor failed its check.
    pub fn op<R>(&mut self, what: &str, f: impl FnOnce() -> Result<R, String>) -> Option<R> {
        self.ops(what, 1, f)
    }

    /// Like [`Self::op`] for a step that performs `n` ops at once (a
    /// training run of `n` epochs): all of them fail together.
    pub fn ops<R>(
        &mut self,
        what: &str,
        n: u64,
        f: impl FnOnce() -> Result<R, String>,
    ) -> Option<R> {
        self.attempted += n;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => Some(r),
            Ok(Err(msg)) => {
                eprintln!("[perf] {what}: output check failed: {msg}");
                self.failed += n;
                None
            }
            Err(_) => {
                eprintln!("[perf] {what}: panicked");
                self.failed += n;
                None
            }
        }
    }

    /// A check outside any timed op (set-up, traced run): it counts as a
    /// failed op if it does not hold.
    pub fn check(&mut self, what: &str, ok: Result<(), String>) {
        self.op(what, || ok);
    }
}

/// What a workload hands back: its op tally and its metrics by name.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Runs `f` once; returns its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Records `peak_rss_mb` and `setup_s` once an untraced run's measured
/// loop is done. The peak comes first, so it holds one set-up and the
/// loop, as a user's process would: freed set-ups stay resident in the
/// allocator, and repeating them beforehand made the peak wander by 3%
/// between runs of one seed. Then `setup` runs again, at least
/// [`SETUP_REPEATS`] times in all and more while the set-ups take under
/// [`SETUP_BUDGET_S`] in all (so one of milliseconds still yields a
/// steady median), each result dropped at once; `setup_s` is the median
/// of those times and `first_s`, the first set-up's.
pub fn setup_and_peak<T>(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut BTreeMap<&'static str, f64>,
    first_s: f64,
    mut setup: impl FnMut() -> T,
) {
    if ctx.trace {
        return;
    }
    match peak_rss_mb() {
        Ok(mb) => {
            metrics.insert("peak_rss_mb", mb);
        }
        Err(msg) => tally.check("peak RSS", Err(msg)),
    }
    let mut times = vec![first_s];
    while times.len() < SETUP_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        times.push(timed(&mut setup).1);
    }
    metrics.insert("setup_s", stats::median(&times));
}

/// Runs `f` with the kernel pool at its full width. Everything else runs
/// at split width 1 (see `main`); a traced run times one op through here
/// for `parallel.speedup`, so the pool's fan-out paths (`par_map` in
/// blocking and scoring, the session's worker slots, split kernels) are
/// measured too.
pub fn wide<R>(f: impl FnOnce() -> R) -> R {
    parallel::with_threads(parallel::threads(), f)
}

/// Layers whose self time a traced run reports, with the metric naming it.
const LAYER_SELF: &[(&str, &str)] = &[
    ("bench", "bench.self_s"),
    ("text", "text.self_s"),
    ("blocking", "blocking.self_s"),
    ("runtime", "runtime.self_s"),
    ("core", "core.self_s"),
    ("nn", "nn.self_s"),
];

/// Ends a traced run: checks that the spans cover its wall time, writes
/// the trace to `target/perf/<workload>.trace.json` and records each
/// layer's self time.
pub fn finish_trace(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> trace::Trace {
    let t = trace::finish();
    tally.check("trace coverage", t.check_coverage());
    let by_layer = t.self_by_layer();
    let unknown: Vec<_> =
        by_layer.keys().filter(|name| !LAYER_SELF.iter().any(|(l, _)| l == *name)).collect();
    tally.check(
        "trace layers",
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(format!("spans of unknown layers {unknown:?}"))
        },
    );
    for (layer, metric) in LAYER_SELF {
        metrics.insert(metric, by_layer.get(layer).copied().unwrap_or(0.0));
    }
    let path = std::path::Path::new("target/perf").join(format!("{}.trace.json", ctx.workload));
    let written = std::fs::create_dir_all("target/perf")
        .and_then(|()| std::fs::write(&path, t.to_json(&ctx.workload, ctx.seed)));
    tally.check("write trace", written.map_err(|e| format!("{}: {e}", path.display())));
    eprintln!("[perf] trace: {} spans over {:.3} s -> {}", t.spans.len(), t.wall_s, path.display());
    t
}

/// Peak resident set size of this process (`VmHWM`) in megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx { workload: String::new(), seed: DEFAULT_SEED, seconds: 20.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => ctx.workload = value,
            "--seed" => ctx.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                ctx.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(ctx)
}

fn run(ctx: &Ctx) -> Outcome {
    match ctx.workload.as_str() {
        "resolve-cosine" => resolve::cosine(ctx),
        "resolve-band" => resolve::band(ctx),
        "score-warm" => score::warm(ctx),
        "train-pairwise" => train::pairwise(ctx),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

/// The result line: every declared metric of the mode, in table order.
fn result_json(out: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", out.metrics[name])
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: perf --workload W [--seed S] [--seconds T] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    // Fixed before the pool starts.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    std::env::set_var("HIERGAT_THREADS", nproc.min(MAX_THREADS).to_string());
    eprintln!(
        "[perf] workload {} seed {} seconds {} trace {} | nproc {nproc} pool {} threads, \
         split 1 outside parallel.speedup | default features (simd off)",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        parallel::threads()
    );

    // Split width 1: on a shared two-vCPU host, runs that fanned out over
    // two threads varied 15-20% from run to run against ~5% at width 1,
    // because every fanned-out op waits for the slower vCPU. Results do
    // not depend on the width (the repository's determinism contract), so
    // the end-to-end numbers measure single-core cost; `wide` covers the
    // pool.
    let mut out = parallel::with_threads(1, || run(&ctx));
    for name in out.metrics.keys() {
        let declared = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name);
        assert!(declared, "undeclared metric {name}");
    }
    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    // Only a run with a failed op may lack an end-to-end metric.
    if !ctx.trace {
        for (name, _) in END_TO_END {
            let reported = out.metrics.contains_key(name) || out.tally.failed > 0;
            assert!(reported, "workload {} did not report {name}", ctx.workload);
        }
    }
    let mut not_finite = Vec::new();
    for (name, _) in table {
        let v = out.metrics.entry(name).or_insert(0.0);
        if !v.is_finite() {
            not_finite.push(*name);
            *v = 0.0;
        }
    }
    out.tally.check(
        "finite metrics",
        if not_finite.is_empty() { Ok(()) } else { Err(format!("{not_finite:?} reported as 0")) },
    );
    eprintln!("[perf] attempted {} failed {}", out.tally.attempted, out.tally.failed);
    for (name, unit) in table {
        eprintln!("[perf]   {name:<32} {:>16.6} {unit}", out.metrics[name]);
    }
    println!("{}", result_json(&out, table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the program reports is declared, with the same unit,
    /// in BENCHMARK.json at the repository root, and vice versa.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json has extra metrics"
        );
        for w in WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{w}\"")), "BENCHMARK.json lacks {w}");
        }
    }

    #[test]
    fn tally_counts_panics_and_failed_checks() {
        let mut t = Tally::default();
        assert_eq!(t.op("ok", || Ok(3)), Some(3));
        assert_eq!(t.op("bad", || Err::<(), _>("no".into())), None);
        assert_eq!(t.ops("boom", 4, || -> Result<(), String> { panic!("boom") }), None);
        assert_eq!((t.attempted, t.failed), (6, 5));
    }

    #[test]
    fn setup_time_is_the_median_of_the_repeats() {
        let mut ctx = Ctx { workload: "w".into(), seed: 1, seconds: 1.0, trace: false };
        let (mut tally, mut metrics) = (Tally::default(), BTreeMap::new());
        let mut calls = 0;
        // A slow first set-up uses up the budget: only the minimum repeats,
        // and the median is one of the fast ones.
        setup_and_peak(&ctx, &mut tally, &mut metrics, 10.0, || calls += 1);
        assert_eq!(calls, SETUP_REPEATS - 1);
        assert!(metrics["setup_s"] < 10.0);
        assert!(metrics["peak_rss_mb"] > 0.0);
        assert_eq!(tally.failed, 0);
        // Fast set-ups repeat until the budget or the cap.
        calls = 0;
        setup_and_peak(&ctx, &mut tally, &mut metrics, 0.0, || calls += 1);
        assert!((SETUP_REPEATS - 1..SETUP_MAX_REPEATS).contains(&calls));
        // A traced run reports neither metric.
        ctx.trace = true;
        let mut traced = BTreeMap::new();
        setup_and_peak(&ctx, &mut tally, &mut traced, 0.0, || calls += 1);
        assert!(traced.is_empty());
    }
}
