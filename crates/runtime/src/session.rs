//! [`Session`]: a model plus its tuned threshold plus cached inference
//! plans, behind a batched scoring API.
//!
//! A session records each example's eval-mode scoring graph on a
//! forward-only tape ([`Tape::inference`]) and replays it, as recorded,
//! through the arena executor's cached inference plans: parameters enter
//! as placeholders (no per-call weight cloning, unlike eager tapes) and
//! node values live in one planned arena (no per-node heap allocation).
//! The models record each value once — one leaf per parameter, one encode
//! per distinct token sequence — so there is nothing left for the tape
//! optimiser to remove (`hiergat_nn::optimize` checks this; it is not on
//! the scoring path). Scores are bitwise identical to the model's eager
//! `predict` path — same graph, same kernels, same order — so a session is
//! a drop-in, faster scorer. [`Session::quantise`] snaps the weights onto
//! the int8/f16 grids the interval audit proves, in place; scoring then
//! runs through the same executors.
//!
//! [`Session::score_batch`] fans examples out over the `parallel` pool
//! (`HIERGAT_THREADS` governs the width). Each worker slot keeps its own
//! [`ArenaExecutor`] whose plan cache persists across calls; every example
//! is scored independently, so results never depend on the chunk geometry
//! and a 1-thread and an 8-thread run are bitwise identical.

use crate::model::{ErModel, Example};
use hiergat_nn::{ArenaExecutor, QuantConfig, QuantError, QuantStore, QuantStoreReport, Tape};
use std::sync::Mutex;

/// An inference session over one model.
pub struct Session {
    model: Box<dyn ErModel>,
    threshold: f32,
    exec: ArenaExecutor,
    workers: Vec<ArenaExecutor>,
    quantised: bool,
}

/// What [`Session::quantise`] did: weight-byte accounting from the
/// rejecting quantiser plus the inference arena of the priming example's
/// graph.
#[derive(Debug, Clone, Copy)]
pub struct QuantReport {
    /// Per-parameter class counts and byte totals.
    pub weights: QuantStoreReport,
    /// Arena bytes of the f32 inference plan for the priming example's
    /// as-recorded graph.
    pub arena_bytes: u64,
}

/// Records `ex`'s scoring graph on an inference tape and replays it through
/// `exec`, returning the match probability per output.
fn score_one(model: &dyn ErModel, exec: &mut ArenaExecutor, ex: Example<'_>) -> Vec<f32> {
    let n = ex.n_outputs();
    let mut t = Tape::inference();
    let probs = model.record_scores(&mut t, ex);
    // The probability node is row-major `n x 2`; column 1 is P(match).
    let mut buf = vec![0.0f32; n * 2];
    exec.infer_into(&t, probs, model.params(), &mut buf);
    (0..n).map(|i| buf[i * 2 + 1]).collect()
}

impl Session {
    /// Wraps a model, adopting its persisted decision threshold.
    pub fn new(model: Box<dyn ErModel>) -> Self {
        let threshold = model.decision_threshold();
        Self { model, threshold, exec: ArenaExecutor::new(), workers: Vec::new(), quantised: false }
    }

    /// Quantises the session's weights post-training, driven by the absint
    /// feasibility table: the audit proves a value interval per tensor of
    /// `ex`'s scoring graph, and every parameter it classifies int8/f16 is
    /// encoded through the rejecting quantiser. Only when every check has
    /// passed are those parameters written back in place as
    /// `decode(encode(w))`; on failure the session is left un-quantised.
    ///
    /// From then on the session is an ordinary f32 session whose weights
    /// sit on the audited grids: scores are bitwise-equal to the model's
    /// eager `predict` over the snapped weights.
    pub fn quantise(
        &mut self,
        ex: Example<'_>,
        cfg: &QuantConfig,
    ) -> Result<QuantReport, QuantError> {
        let mut t = Tape::inference();
        let probs = self.model.record_scores(&mut t, ex);
        let (store, _audit) = QuantStore::build(&t, probs, self.model.params(), cfg)?;
        store.snap(self.model.params_mut());
        self.quantised = true;
        // Plans the priming graph on the serial executor, so the first
        // score of this geometry replays at once.
        let arena_bytes = self.exec.infer_report(&t, probs).arena_bytes;
        Ok(QuantReport { weights: store.report(), arena_bytes })
    }

    /// Whether [`Self::quantise`] has snapped the weights.
    pub fn is_quantised(&self) -> bool {
        self.quantised
    }

    /// The wrapped model.
    pub fn model(&self) -> &dyn ErModel {
        &*self.model
    }

    /// The session's decision threshold (`score >= threshold` ⇒ match).
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Overrides the decision threshold for this session.
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold;
    }

    /// Capacity of the serial scoring arena, in bytes (grows to the largest
    /// inference plan seen; 0 before the first call).
    pub fn arena_capacity_bytes(&self) -> u64 {
        self.exec.arena_capacity_bytes()
    }

    /// Scores one example: match probability per output. Bitwise identical
    /// to the model's eager `predict` (over the snapped weights, after
    /// [`Self::quantise`]).
    pub fn score(&mut self, ex: Example<'_>) -> Vec<f32> {
        score_one(&*self.model, &mut self.exec, ex)
    }

    /// Interval abstract-interpretation audit of the scoring graph this
    /// session executes (see [`ErModel::audit`]).
    pub fn audit(
        &self,
        ex: Example<'_>,
        cfg: &hiergat_nn::AbsintConfig,
    ) -> hiergat_nn::AuditReport {
        self.model.audit(ex, cfg)
    }

    /// Boolean decisions for one example at the session threshold.
    pub fn decide(&mut self, ex: Example<'_>) -> Vec<bool> {
        let threshold = self.threshold;
        self.score(ex).into_iter().map(|s| s >= threshold).collect()
    }

    /// Scores a batch in parallel over the shared thread pool. Output
    /// order matches input order; values are independent of the pool
    /// width (each example's graph is scored in isolation).
    pub fn score_batch(&mut self, examples: &[Example<'_>]) -> Vec<Vec<f32>> {
        let workers = parallel::current_split().max(1);
        // Small batches (or a 1-wide pool) run serially on the session's
        // own executor, keeping its plan cache warm.
        if workers == 1 || examples.len() < 2 * workers {
            let model = &*self.model;
            let exec = &mut self.exec;
            return examples.iter().map(|ex| score_one(model, exec, *ex)).collect();
        }
        while self.workers.len() < workers {
            self.workers.push(ArenaExecutor::new());
        }
        let mut out: Vec<Vec<f32>> = vec![Vec::new(); examples.len()];
        let chunk = examples.len().div_ceil(workers);
        let model = &*self.model;
        // One job per worker slot: its persistent executor plus the slice
        // of outputs/examples it owns. The Mutex hands each spawned task
        // exclusive access to its own job.
        type Job<'j, 'e> = Mutex<(&'j mut ArenaExecutor, &'j mut [Vec<f32>], &'j [Example<'e>])>;
        let jobs: Vec<Job<'_, '_>> = self
            .workers
            .iter_mut()
            .zip(out.chunks_mut(chunk))
            .zip(examples.chunks(chunk))
            .map(|((worker, slots), exs)| Mutex::new((worker, slots, exs)))
            .collect();
        parallel::run(jobs.len(), |i| {
            let mut job = jobs[i].lock().expect("session job lock");
            let (exec, slots, exs) = &mut *job;
            for (slot, ex) in slots.iter_mut().zip(exs.iter()) {
                *slot = score_one(model, exec, *ex);
            }
        });
        out
    }

    /// Convenience over [`Self::score_batch`] for pairwise models: one
    /// match probability per pair.
    pub fn score_pairs(&mut self, pairs: &[hiergat_data::EntityPair]) -> Vec<f32> {
        let examples: Vec<Example<'_>> = pairs.iter().map(Example::Pair).collect();
        self.score_batch(&examples)
            .into_iter()
            .map(|mut v| {
                debug_assert_eq!(v.len(), 1);
                v.pop().unwrap_or_default()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{BuildContext, ModelRegistry};
    use hiergat_data::MagellanDataset;
    use hiergat_lm::LmTier;

    #[test]
    fn session_scores_match_eager_predictions_bitwise() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pair = ds.train.first().expect("pair");
        let reg = ModelRegistry::builtin();
        let spec = reg.get("hiergat").expect("spec");
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let model = spec.build(&cx);
        let eager = model.predict(Example::Pair(pair));
        let mut session = Session::new(model);
        for _ in 0..2 {
            let scored = session.score(Example::Pair(pair));
            assert_eq!(scored.len(), eager.len());
            for (s, e) in scored.iter().zip(&eager) {
                assert_eq!(s.to_bits(), e.to_bits(), "session must match eager bitwise");
            }
        }
        assert!(session.arena_capacity_bytes() > 0);
    }

    #[test]
    fn batch_scores_match_serial_scores_and_preserve_order() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pairs = &ds.train[..ds.train.len().min(12)];
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let mut session = Session::new(reg.get("deepmatcher").expect("spec").build(&cx));
        let batched = session.score_pairs(pairs);
        for (pair, score) in pairs.iter().zip(&batched) {
            let serial = session.score(Example::Pair(pair));
            assert_eq!(serial[0].to_bits(), score.to_bits());
        }
    }

    #[test]
    fn session_audit_proves_probability_node_inside_unit_interval() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pair = ds.train.first().expect("pair");
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let session = Session::new(reg.get("hiergat").expect("spec").build(&cx));
        let report =
            session.audit(Example::Pair(pair), &hiergat_nn::AbsintConfig::symbolic(8.0, 4.0));
        // The scoring graph ends in a softmax: the audited root must be
        // proven finite, NaN-free, and inside [0, 1].
        let root = report.ranges.last().expect("root range");
        assert!(root.finite && root.nan_free, "softmax output must be proven safe");
        assert!(root.lo >= 0.0 && root.hi <= 1.0 + 1e-3, "probabilities in [0,1]: {root:?}");
        assert!(report.is_clean_at(hiergat_nn::Severity::Warn), "{report}");
    }

    #[test]
    fn quantised_session_shrinks_storage_and_stays_close_to_f32() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pairs = &ds.train[..ds.train.len().min(8)];
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let mut session = Session::new(reg.get("hiergat").expect("spec").build(&cx));
        let f32_scores = session.score_pairs(pairs);
        let report = session
            .quantise(Example::Pair(&pairs[0]), &QuantConfig::default())
            .expect("audit-clean model must quantise");
        assert!(session.is_quantised());
        assert!(report.arena_bytes > 0);
        assert!(
            report.weights.bytes_quantised < report.weights.bytes_f32,
            "weight bytes must shrink: {report:?}"
        );
        assert!(report.weights.int8_params + report.weights.f16_params > 0, "{report:?}");
        let q_scores = session.score_pairs(pairs);
        for ((q, f), pair) in q_scores.iter().zip(&f32_scores).zip(pairs) {
            assert!((q - f).abs() < 0.05, "quantised score {q} drifted from f32 score {f}");
            // Eager prediction over the snapped weights is the reference.
            let eager = session.model().predict(Example::Pair(pair))[0];
            assert_eq!(q.to_bits(), eager.to_bits());
        }
    }

    #[test]
    fn decide_applies_the_session_threshold() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let pair = ds.train.first().expect("pair");
        let reg = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let mut session = Session::new(reg.get("dm+").expect("spec").build(&cx));
        let score = session.score(Example::Pair(pair))[0];
        session.set_threshold(score);
        assert!(session.decide(Example::Pair(pair))[0], "score == threshold is a match");
        session.set_threshold(score + f32::EPSILON.max(score * 1e-6));
        assert!(!session.decide(Example::Pair(pair))[0]);
    }
}
