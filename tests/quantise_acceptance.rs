//! Quantisation acceptance gate: every model in [`ModelRegistry::builtin`]
//! must survive post-training quantisation driven by the absint feasibility
//! table.
//!
//! Per model, mirroring the `hiergat quantise` CLI gate: (a) Magellan F1 on
//! a pooled evaluation split stays within `F1_DELTA` of the f32 session;
//! (b) the audited grids need fewer weight bytes and demote at least one
//! parameter below f32; (c) a quantised session is an f32 session over
//! snapped weights — every score, including those of graph geometries
//! never seen at quantise time, is bitwise-equal to eager `predict` on
//! the snapped model, at kernel-pool widths 1 and 8, with the tape
//! optimiser off (the quantised default) and back on.
//!
//! `ci.sh` runs this suite under `HIERGAT_THREADS=1` and `=8` and again
//! under `--features simd`; the width sweep inside uses
//! `parallel::with_threads`, so every gate also exercises nested-width
//! behaviour.

use hiergat_data::{CollectiveDataset, MagellanDataset, PairDataset};
use hiergat_lm::LmTier;
use hiergat_metrics::Confusion;
use hiergat_nn::{ArenaExecutor, QuantConfig, Tape};
use hiergat_runtime::{BuildContext, Example, ModelKind, ModelRegistry, Session};

/// Graph geometries, beyond the quantise-time one, the determinism batch
/// must cover.
const UNSEEN_GEOMETRIES: usize = 32;

/// Accepted |F1(quantised) - F1(f32)|. Matches the `hiergat quantise`
/// default: one flipped decision at the pooled gate split's positive
/// count (~10 positives) moves F1 by ~0.1, so the gate absorbs a single
/// flip and fails on anything systematic.
const F1_DELTA: f64 = 0.10;

struct Fixture {
    ds: PairDataset,
    ds_c: CollectiveDataset,
    /// Larger sets for the determinism batch: the small ones hold too few
    /// distinct graph geometries (Ditto's needs ~600 pairs for 33).
    wide: PairDataset,
    wide_c: CollectiveDataset,
}

impl Fixture {
    fn load() -> Self {
        let kind = MagellanDataset::FodorsZagats;
        Self {
            ds: kind.load(0.15),
            ds_c: kind.load_collective(0.15),
            wide: kind.load(2.0),
            wide_c: kind.load_collective(1.0),
        }
    }

    fn context(&self, kind: ModelKind) -> BuildContext {
        let arity = match kind {
            ModelKind::Pairwise => self.ds.arity().max(1),
            ModelKind::Collective => {
                self.ds_c.train.first().map_or(1, |ex| ex.query.attrs.len().max(1))
            }
        };
        BuildContext { tier: LmTier::MiniDistil, arity }
    }

    /// Pooled evaluation split with ground-truth labels in output order.
    /// Every split is pooled because the gate checks the quantisation
    /// contract, not generalisation — the small Magellan test splits make
    /// F1 far too coarse on their own.
    fn eval(&self, kind: ModelKind) -> (Vec<Example<'_>>, Vec<bool>) {
        match kind {
            ModelKind::Pairwise => {
                let pool: Vec<&hiergat_data::EntityPair> =
                    [&self.ds.train, &self.ds.valid, &self.ds.test].into_iter().flatten().collect();
                let pairs = &pool[..pool.len().min(64)];
                (
                    pairs.iter().map(|p| Example::Pair(p)).collect(),
                    pairs.iter().map(|p| p.label).collect(),
                )
            }
            ModelKind::Collective => {
                let pool =
                    if self.ds_c.test.is_empty() { &self.ds_c.train } else { &self.ds_c.test };
                let exs = &pool[..pool.len().min(6)];
                (
                    exs.iter().map(Example::Collective).collect(),
                    exs.iter().flat_map(|e| e.labels.iter().copied()).collect(),
                )
            }
        }
    }

    /// The full-size pool, every split, for the determinism batch.
    fn wide_pool(&self, kind: ModelKind) -> Vec<Example<'_>> {
        match kind {
            ModelKind::Pairwise => [&self.wide.train, &self.wide.valid, &self.wide.test]
                .into_iter()
                .flatten()
                .map(Example::Pair)
                .collect(),
            ModelKind::Collective => [&self.wide_c.train, &self.wide_c.valid, &self.wide_c.test]
                .into_iter()
                .flatten()
                .map(Example::Collective)
                .collect(),
        }
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn f1(scores: &[f32], labels: &[bool], threshold: f32) -> f64 {
    let preds: Vec<bool> = scores.iter().map(|s| *s >= threshold).collect();
    Confusion::from_predictions(&preds, labels).pr_f1().f1
}

#[test]
fn every_registry_model_quantises_within_the_f1_and_storage_gates() {
    let fx = Fixture::load();
    for spec in ModelRegistry::builtin().specs() {
        let (examples, labels) = fx.eval(spec.kind());
        assert!(!examples.is_empty(), "{}: empty evaluation pool", spec.name());
        let mut session = Session::new(spec.build(&fx.context(spec.kind())));
        let threshold = session.threshold();
        let f32_scores: Vec<f32> = session.score_batch(&examples).into_iter().flatten().collect();
        assert_eq!(f32_scores.len(), labels.len(), "{}", spec.name());

        let report = session
            .quantise(examples[0], &QuantConfig::default())
            .unwrap_or_else(|e| panic!("{}: quantise failed: {e}", spec.name()));
        assert!(session.is_quantised(), "{}", spec.name());
        let q_scores: Vec<f32> = session.score_batch(&examples).into_iter().flatten().collect();

        // F1 gate: quantised decisions must track the f32 session's.
        let delta = f1(&q_scores, &labels, threshold) - f1(&f32_scores, &labels, threshold);
        assert!(
            delta.abs() <= F1_DELTA,
            "{}: quantised F1 drifted {delta:+.3} (gate {F1_DELTA})",
            spec.name()
        );

        // Storage gate: the audited grids need fewer weight bytes.
        assert!(
            report.weights.bytes_quantised < report.weights.bytes_f32,
            "{}: weight bytes did not shrink ({} vs {})",
            spec.name(),
            report.weights.bytes_quantised,
            report.weights.bytes_f32
        );
        // The audit classified at least one parameter below f32, otherwise
        // the "quantised" session is a no-op wearing the label.
        assert!(
            report.weights.int8_params + report.weights.f16_params > 0,
            "{}: feasibility table demoted nothing below f32",
            spec.name()
        );
    }
}

/// The first example of each distinct as-recorded graph geometry in
/// `pool`, up to `UNSEEN_GEOMETRIES + 1` of them.
fn distinct_geometries<'a>(session: &Session, pool: &[Example<'a>]) -> Vec<Example<'a>> {
    let mut exec = ArenaExecutor::new();
    let mut batch = Vec::new();
    for ex in pool {
        if batch.len() > UNSEEN_GEOMETRIES {
            break;
        }
        let mut t = Tape::inference();
        let probs = session.model().record_scores(&mut t, *ex);
        let planned = exec.plans_cached();
        exec.infer_report(&t, probs);
        if exec.plans_cached() > planned {
            batch.push(*ex);
        }
    }
    batch
}

#[test]
fn quantised_scoring_is_deterministic_across_widths_and_optimizer_settings() {
    let fx = Fixture::load();
    for spec in ModelRegistry::builtin().specs() {
        let pool = fx.wide_pool(spec.kind());
        let mut session = Session::new(spec.build(&fx.context(spec.kind())));
        // The session quantises on the first geometry and then scores
        // `UNSEEN_GEOMETRIES` more it has never planned.
        let batch = distinct_geometries(&session, &pool);
        assert_eq!(
            batch.len(),
            UNSEEN_GEOMETRIES + 1,
            "{}: too few distinct graph geometries in the pool",
            spec.name()
        );
        session
            .quantise(batch[0], &QuantConfig::default())
            .unwrap_or_else(|e| panic!("{}: quantise failed: {e}", spec.name()));
        assert!(!session.optimizes(), "{}: quantised sessions replay as recorded", spec.name());
        // Eager prediction over the snapped weights is the reference.
        let eager: Vec<Vec<u32>> =
            batch.iter().map(|ex| bits(&session.model().predict(*ex))).collect();
        for optimize in [false, true] {
            session.set_optimize(optimize);
            for width in [1, 8] {
                let scored: Vec<Vec<u32>> =
                    parallel::with_threads(width, || session.score_batch(&batch))
                        .iter()
                        .map(|scores| bits(scores))
                        .collect();
                assert_eq!(
                    scored,
                    eager,
                    "{}: quantised scores differ from eager predict (optimize {optimize}, \
                     width {width})",
                    spec.name()
                );
            }
        }
    }
}
