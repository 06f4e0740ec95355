//! `resolve-cosine` and `resolve-band`: the streaming pipeline (sharded
//! TF-IDF blocking → cosine cascade → union-find) over a synthetic
//! DI2KG-style corpus, as `hiergat resolve` runs it.

use crate::score::{bitwise, Mirror};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, span};
use crate::{finish_trace, setup_and_peak, timed, wide, Ctx, Outcome, Tally};
use hiergat::{train_pairwise, HierGat, HierGatConfig};
use hiergat_blocking::{CandidateSource, QueryCandidates, TfIdfCandidates, TfIdfSourceConfig};
use hiergat_data::{CorpusConfig, Entity, EntityPair, PairDataset, SynthCorpus};
use hiergat_lm::LmTier;
use hiergat_metrics::pairwise_cluster_metrics;
use hiergat_runtime::{resolve, Example, HierGatPairwise, ResolveConfig, ResolveStats, Session};
use hiergat_tensor::Tensor;
use hiergat_text::tokenize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Mutex;
use std::time::Instant;

/// Records in the `resolve-cosine` corpus: big enough that the fitted
/// index (~75 MB) dwarfs every cache and retrieval cost grows with the
/// postings, small enough for several reps in one run.
const COSINE_RECORDS: usize = 200_000;
/// Cosine accept for 10^4+ records (DESIGN.md §18: finite-lexicon product
/// collisions make lower cut-offs chain distinct products together).
const COSINE_ACCEPT: f32 = 0.7;
/// Records in the `resolve-band` corpus.
const BAND_RECORDS: usize = 4_000;
/// Open band pairs the band model trains on (60% train, 20% validation,
/// 20% test) and is tuned on.
const BAND_TRAIN_PAIRS: usize = 300;
const BAND_TUNE_PAIRS: usize = 1_000;
const BAND_EPOCHS: usize = 2;
/// Cosine accept of the band cascade; the model adjudicates [0.4, 0.55).
const BAND_ACCEPT: f32 = 0.55;
const BAND: (f32, f32) = (0.4, BAND_ACCEPT);
/// Precision floor the band session's threshold is tuned to: transitive
/// closure turns every false accept into a merged pair of clusters.
const BAND_PRECISION_FLOOR: f64 = 0.97;
/// Queries timed one by one against the fitted index in a traced run.
const TOP_N_PROBES: usize = 10_000;
/// Band pairs replayed through the session mirror in a traced run.
const MIRROR_PAIRS: usize = 1_024;
/// Mirrored band pairs whose optimised graph FLOPs are counted.
const FLOP_PAIRS: usize = 32;
/// Mirrored band pairs checked bitwise against the session.
const CHECK_PAIRS: usize = 64;
/// Floor on cosine-only cluster F1 (the `tests/resolve_pipeline.rs` gate).
const MIN_CLUSTER_F1: f64 = 0.80;

fn source_config() -> TfIdfSourceConfig {
    TfIdfSourceConfig {
        top_n: 8,
        min_score: 0.15,
        n_shards: 8,
        max_df: Some(0.01),
        fit_chunk: 8192,
    }
}

fn corpus(n: usize, seed: u64) -> SynthCorpus {
    SynthCorpus::new(CorpusConfig { n_records: n, copies: 3, family_size: 4, seed })
}

/// A corpus rendered into memory, as a user's table would be.
struct Table {
    records: Vec<Entity>,
    gold: Vec<u32>,
}

fn table(n: usize, seed: u64) -> Table {
    let c = corpus(n, seed);
    let ids: Vec<usize> = (0..n).collect();
    // `par_map` fills default slots, hence the `Option`.
    let records = parallel::par_map(&ids, |&i| Some(c.entity(i)));
    Table {
        records: records.into_iter().map(|e| e.expect("par_map fills every slot")).collect(),
        gold: c.gold_labels(),
    }
}

/// One rep: fit the blocker, resolve, score the clusters.
struct Rep {
    secs: f64,
    labels_hash: u64,
    f1: f64,
    stats: ResolveStats,
    index_bytes: u64,
}

/// Wraps the fitted source in a traced run so resolve's streaming loop
/// splits in two: time inside `for_each_batch` but outside its callback is
/// retrieval (blocking), time in the callback is the cascade (runtime). In
/// band mode it also keeps the band pairs in stream order, for the
/// session mirror.
struct TracedSource<'a> {
    inner: &'a TfIdfCandidates,
    req: u64,
    band: Option<(f32, f32)>,
    band_pairs: Mutex<Vec<(u32, u32)>>,
}

impl CandidateSource for TracedSource<'_> {
    fn n_queries(&self) -> usize {
        self.inner.n_queries()
    }

    fn fill_candidates(&self, query: usize, out: &mut Vec<hiergat_blocking::Candidate>) {
        self.inner.fill_candidates(query, out);
    }

    fn for_each_batch<F: FnMut(&[QueryCandidates])>(&self, batch_size: usize, mut f: F) {
        span("blocking.for_each_batch", self.req, || {
            self.inner.for_each_batch(batch_size, |batch| {
                if let Some((lo, hi)) = self.band {
                    span("bench.band_pairs", self.req, || {
                        // The same edges resolve routes to the model: in the
                        // band, normalised, deduplicated within the batch.
                        let mut edges: Vec<(u32, u32)> = batch
                            .iter()
                            .flat_map(|qc| {
                                qc.candidates
                                    .iter()
                                    .filter(|c| c.score >= lo && c.score < hi)
                                    .map(|c| (qc.query.min(c.id) as u32, qc.query.max(c.id) as u32))
                            })
                            .collect();
                        edges.sort_unstable();
                        edges.dedup();
                        self.band_pairs.lock().expect("band pair lock").extend(edges);
                    });
                }
                span("runtime.cascade", self.req, || f(batch));
            });
        });
    }
}

fn labels_hash(labels: &[u32]) -> u64 {
    let mut h = DefaultHasher::new();
    labels.hash(&mut h);
    h.finish()
}

/// Fits, resolves and scores one rep. In a traced run the source is
/// wrapped (see [`TracedSource`]) and the wrapper is returned for its band
/// pairs.
fn rep<'s>(
    t: &Table,
    src_slot: &'s mut Option<TfIdfCandidates>,
    session: Option<&mut Session>,
    cfg: &ResolveConfig,
    req: u64,
) -> (Rep, Option<TracedSource<'s>>) {
    let start = Instant::now();
    let src: &'s TfIdfCandidates = src_slot.insert(span("blocking.fit_dedup", req, || {
        TfIdfCandidates::fit_dedup(&t.records, &source_config())
    }));
    let (resolution, traced) = if trace::active() {
        let band = cfg.band.map(|(lo, hi)| (lo.min(hi), cfg.accept.min(hi)));
        let traced = TracedSource { inner: src, req, band, band_pairs: Mutex::new(Vec::new()) };
        let r = span("runtime.resolve", req, || resolve(&traced, &t.records, session, cfg));
        (r, Some(traced))
    } else {
        (resolve(src, &t.records, session, cfg), None)
    };
    let secs = start.elapsed().as_secs_f64();
    let f1 = span("bench.cluster_f1", req, || {
        pairwise_cluster_metrics(&resolution.labels, &t.gold).pr_f1().f1
    });
    let rep = Rep {
        secs,
        labels_hash: labels_hash(&resolution.labels),
        f1,
        stats: resolution.stats,
        index_bytes: src.memory_bytes(),
    };
    (rep, traced)
}

/// Checks shared by both resolve workloads: every rep of one run yields
/// the same labels.
fn same_labels(reps: &[Rep], r: &Rep) -> Result<(), String> {
    match reps.first() {
        Some(first) if first.labels_hash != r.labels_hash => {
            Err("cluster labels differ between reps of one run".into())
        }
        _ => Ok(()),
    }
}

fn median_secs(reps: &[Rep]) -> f64 {
    median(&reps.iter().map(|r| r.secs).collect::<Vec<_>>())
}

/// `parallel.speedup`: one more rep, at full pool width, against the
/// median untraced rep; its labels must equal width 1's.
fn wide_rep(
    tally: &mut Tally,
    metrics: &mut BTreeMap<&'static str, f64>,
    reps: &[Rep],
    run: impl FnOnce() -> Rep,
) {
    let r = tally.op("wide rep", || {
        let r = wide(run);
        same_labels(reps, &r)?;
        Ok(r)
    });
    if let Some(r) = r {
        metrics.insert("parallel.speedup", median_secs(reps) / r.secs);
    }
}

/// End-to-end metrics over the untraced reps.
fn e2e(metrics: &mut BTreeMap<&'static str, f64>, reps: &[Rep], records: usize) {
    let rates: Vec<f64> = reps.iter().map(|r| records as f64 / r.secs).collect();
    metrics.insert("items_per_s", median(&rates));
    metrics.insert("quality", median(&reps.iter().map(|r| r.f1).collect::<Vec<_>>()));
}

/// Per-layer metrics of one traced rep.
fn layers(
    metrics: &mut BTreeMap<&'static str, f64>,
    tr: &trace::Trace,
    rep: &Rep,
    untraced: &[Rep],
) {
    let s = &rep.stats;
    let band_pairs = (s.model_scored + s.band_skipped_connected) as f64;
    metrics.insert("blocking.fit_s", tr.total("blocking.fit_dedup"));
    metrics.insert("blocking.index_mb", rep.index_bytes as f64 / 1e6);
    metrics.insert("blocking.retrieve_s", tr.self_total("blocking.for_each_batch"));
    metrics.insert("blocking.labels_s", tr.self_total("runtime.resolve"));
    metrics.insert("blocking.candidates", s.candidates as f64);
    metrics.insert("blocking.candidates_per_query", ratio(s.candidates as f64, s.records as f64));
    metrics.insert("blocking.merge_ratio", ratio(s.merges as f64, s.candidates as f64));
    metrics.insert("runtime.cascade_s", tr.total("runtime.cascade") - s.scoring_secs);
    metrics.insert("runtime.band_scoring_s", s.scoring_secs);
    metrics.insert("runtime.band_pairs", band_pairs);
    metrics.insert("runtime.band_skip_ratio", ratio(s.band_skipped_connected as f64, band_pairs));
    metrics.insert("runtime.model_scored", s.model_scored as f64);
    metrics.insert(
        "runtime.model_accept_ratio",
        ratio(s.model_accepted as f64, s.model_scored as f64),
    );
    metrics.insert("runtime.batch_peak_kb", s.batch_peak_bytes as f64 / 1e3);
    let top_n = tr.durations("text.top_n");
    metrics.insert("text.top_n_p50_us", median(&top_n) * 1e6);
    metrics.insert("text.top_n_p99_us", percentile(&top_n, 99.0) * 1e6);
    metrics.insert("trace_overhead_pct", (rep.secs / median_secs(untraced) - 1.0) * 100.0);
}

/// Times `ShardedCosineIndex::top_n` one query at a time over a seeded
/// sample of records (spans named `text.top_n`).
fn probe_top_n(src: &TfIdfCandidates, t: &Table, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_4e);
    let fetch = source_config().top_n + 1;
    for q in 0..TOP_N_PROBES {
        let i = rng.gen_range(0..t.records.len());
        let v = src.tfidf().transform(&tokenize(&t.records[i].full_text()));
        let hits = span("text.top_n", q as u64, || src.index().top_n(&v, fetch));
        std::hint::black_box(hits);
    }
}

/// `resolve-cosine`: cosine-only cascade, no session.
pub fn cosine(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    let (t, setup_s) = timed(|| table(COSINE_RECORDS, ctx.seed));
    let cfg = ResolveConfig { batch_size: 2048, accept: COSINE_ACCEPT, ..ResolveConfig::default() };

    let mut reps: Vec<Rep> = Vec::new();
    let deadline = ctx.deadline(1.0);
    while reps.is_empty() || Instant::now() < deadline {
        let req = reps.len() as u64;
        let r = tally.op("resolve-cosine rep", || {
            let (r, _) = rep(&t, &mut None, None, &cfg, req);
            eprintln!("[perf] rep {req}: {:.3} s, cluster F1 {:.4}", r.secs, r.f1);
            if r.f1 < MIN_CLUSTER_F1 {
                return Err(format!("cluster F1 {:.4} < {MIN_CLUSTER_F1}", r.f1));
            }
            same_labels(&reps, &r)?;
            Ok(r)
        });
        match r {
            Some(r) => reps.push(r),
            None => break,
        }
    }
    setup_and_peak(ctx, &mut tally, &mut metrics, setup_s, || table(COSINE_RECORDS, ctx.seed));
    if reps.is_empty() {
        return Outcome { tally, metrics };
    }
    e2e(&mut metrics, &reps, COSINE_RECORDS);

    if ctx.trace {
        trace::start();
        let mut src = None;
        let traced = span("bench.resolve-cosine", 0, || {
            let (r, _) = rep(&t, &mut src, None, &cfg, 0);
            span("bench.top_n_probe", 0, || {
                probe_top_n(src.as_ref().expect("fitted by rep"), &t, ctx.seed);
            });
            r
        });
        tally.check("traced rep labels", same_labels(&reps, &traced));
        let tr = finish_trace(ctx, &mut tally, &mut metrics);
        layers(&mut metrics, &tr, &traced, &reps);
        wide_rep(&mut tally, &mut metrics, &reps, || rep(&t, &mut None, None, &cfg, 0).0);
    }
    Outcome { tally, metrics }
}

/// Labeled band pairs of a corpus that the cosine stage leaves open: in
/// the band, and not connected by the cosine-only clustering — the pairs
/// the session actually adjudicates at resolve time, which are mostly
/// negatives (copies of one product are usually joined above the band).
/// Gold ids supply the labels.
fn open_band_pairs(n: usize, seed: u64) -> Vec<EntityPair> {
    let t = table(n, seed);
    let src = TfIdfCandidates::fit_dedup(&t.records, &source_config());
    let cosine = ResolveConfig { accept: BAND_ACCEPT, ..ResolveConfig::default() };
    let labels = resolve(&src, &t.records, None, &cosine).labels;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    src.for_each_batch(1024, |batch| {
        for qc in batch {
            for c in qc.candidates.iter().filter(|x| x.score >= BAND.0 && x.score < BAND.1) {
                edges.push((qc.query.min(c.id), qc.query.max(c.id)));
            }
        }
    });
    edges.sort_unstable();
    edges.dedup();
    edges
        .into_iter()
        .filter(|&(a, b)| labels[a] != labels[b])
        .map(|(a, b)| {
            EntityPair::new(t.records[a].clone(), t.records[b].clone(), t.gold[a] == t.gold[b])
        })
        .collect()
}

/// The lowest threshold whose precision on `pairs` clears `floor`; just
/// above the top score ("accept nothing") if none does.
fn precision_floor_threshold(scores: &[f32], pairs: &[EntityPair], floor: f64) -> f32 {
    let mut ranked: Vec<(f32, bool)> =
        scores.iter().copied().zip(pairs.iter().map(|p| p.label)).collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut best = ranked.first().map_or(1.0, |&(s, _)| s + 1e-3);
    let (mut tp, mut fp) = (0u64, 0u64);
    for i in 0..ranked.len() {
        if ranked[i].1 {
            tp += 1;
        } else {
            fp += 1;
        }
        if i + 1 < ranked.len() && ranked[i + 1].0 == ranked[i].0 {
            continue;
        }
        if tp as f64 / (tp + fp) as f64 >= floor {
            best = ranked[i].0;
        }
    }
    best
}

/// The trained band model, kept as weights so every rep can build a fresh
/// session from it.
struct BandModel {
    cfg: HierGatConfig,
    arity: usize,
    weights: Vec<Tensor>,
    threshold: f32,
}

impl BandModel {
    fn session(&self) -> Session {
        let mut model = HierGat::new(self.cfg, self.arity);
        model.ps.restore(&self.weights);
        model.set_decision_threshold(self.threshold);
        Session::new(Box::new(HierGatPairwise(model)))
    }
}

/// Trains the band model on open band pairs of one corpus and tunes its
/// threshold to the precision floor on those of another, both disjoint
/// from the evaluation corpus and of its size (the band's make-up depends
/// on corpus size through the stop-term cut-off).
fn train_band_model(seed: u64) -> BandModel {
    let mut train = open_band_pairs(BAND_RECORDS, seed.wrapping_add(1));
    train.truncate(BAND_TRAIN_PAIRS);
    let mut tune = open_band_pairs(BAND_RECORDS, seed.wrapping_add(2));
    tune.truncate(BAND_TUNE_PAIRS);
    let ds = PairDataset::split_3_1_1("band", train, seed);
    let cfg = HierGatConfig::pairwise()
        .with_tier(LmTier::MiniDistil)
        .with_epochs(BAND_EPOCHS)
        .with_seed(seed);
    let arity = ds.arity().max(1);
    let mut model = HierGat::new(cfg, arity);
    train_pairwise(&mut model, &ds);
    let mut session = Session::new(Box::new(HierGatPairwise(model)));
    let scores = session.score_pairs(&tune);
    let threshold = precision_floor_threshold(&scores, &tune, BAND_PRECISION_FLOOR);
    BandModel { cfg, arity, weights: session.model().params().snapshot(), threshold }
}

/// `resolve-band`: the cascade with a trained HierGAT session adjudicating
/// the cosine band; a fresh session per rep, so its caches start cold.
pub fn band(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    let cfg =
        ResolveConfig { batch_size: 512, score_chunk: 128, accept: BAND_ACCEPT, band: Some(BAND) };
    let setup = || {
        let model = train_band_model(ctx.seed);
        let t = table(BAND_RECORDS, ctx.seed);
        let cosine_cfg = ResolveConfig { band: None, ..cfg.clone() };
        let (cosine, _) = rep(&t, &mut None, None, &cosine_cfg, 0);
        (t, model, cosine.f1)
    };
    let ((t, model, cosine_f1), setup_s) = timed(setup);
    eprintln!("[perf] band threshold {:.3}, cosine-only F1 {cosine_f1:.4}", model.threshold);

    let band_check = |r: &Rep| {
        if r.f1 < cosine_f1 - 0.005 {
            return Err(format!("band F1 {:.4} < cosine-only F1 {cosine_f1:.4} - 0.005", r.f1));
        }
        Ok(())
    };
    let mut reps: Vec<Rep> = Vec::new();
    let deadline = ctx.deadline(1.0);
    while reps.is_empty() || Instant::now() < deadline {
        let req = reps.len() as u64;
        let mut session = model.session();
        let r = tally.op("resolve-band rep", || {
            let (r, _) = rep(&t, &mut None, Some(&mut session), &cfg, req);
            eprintln!(
                "[perf] rep {req}: {:.3} s ({:.3} s band scoring, {} pairs), F1 {:.4}",
                r.secs, r.stats.scoring_secs, r.stats.model_scored, r.f1
            );
            band_check(&r)?;
            same_labels(&reps, &r)?;
            Ok(r)
        });
        match r {
            Some(r) => reps.push(r),
            None => break,
        }
    }
    setup_and_peak(ctx, &mut tally, &mut metrics, setup_s, setup);
    if reps.is_empty() {
        return Outcome { tally, metrics };
    }
    e2e(&mut metrics, &reps, BAND_RECORDS);

    if ctx.trace {
        let mut session = model.session();
        trace::start();
        let (traced, mirror, checked, mirrored) = span("bench.resolve-band", 0, || {
            let mut src = None;
            let (r, wrapper) = rep(&t, &mut src, Some(&mut session), &cfg, 0);
            let band_pairs = wrapper.expect("traced rep").band_pairs.into_inner().expect("lock");
            span("bench.top_n_probe", 0, || {
                probe_top_n(src.as_ref().expect("fitted by rep"), &t, ctx.seed);
            });
            // Replay the band stream through the public-call mirror of the
            // session's scoring path, on cold caches like the rep's session.
            let mut mirror = Mirror::default();
            let (mut checked, mut mirrored) = (Vec::new(), Vec::new());
            for (i, &(a, b)) in band_pairs.iter().take(MIRROR_PAIRS).enumerate() {
                let (a, b) = (&t.records[a as usize], &t.records[b as usize]);
                let pair = EntityPair::new(a.clone(), b.clone(), false);
                let flops = (i < FLOP_PAIRS).then(|| {
                    span("bench.flops", i as u64, || {
                        session.model().optimize_report(Example::Pair(&pair), false).flops_after
                    })
                });
                let score = span("bench.mirror", i as u64, || {
                    mirror.score(session.model(), &pair, i as u64, flops).0
                });
                if i < CHECK_PAIRS {
                    checked.push(pair);
                    mirrored.push(score);
                }
            }
            (r, mirror, checked, mirrored)
        });
        tally.check("traced rep", band_check(&traced).and(same_labels(&reps, &traced)));
        let tr = finish_trace(ctx, &mut tally, &mut metrics);
        layers(&mut metrics, &tr, &traced, &reps);
        mirror.metrics(&mut metrics);
        tally.check("session mirror", bitwise(&session.score_pairs(&checked), &mirrored));
        let mut session = model.session();
        wide_rep(&mut tally, &mut metrics, &reps, || {
            rep(&t, &mut None, Some(&mut session), &cfg, 0).0
        });
    }
    Outcome { tally, metrics }
}
