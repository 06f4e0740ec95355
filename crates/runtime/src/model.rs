//! [`ErModel`]: the unified trait over every tape-recording ER model.
//!
//! The trait subsumes the per-crate surfaces (`HierGat`'s inherent methods,
//! `hiergat_baselines::PairModel` / `CollectiveErModel`): scoring-graph
//! recording for the inference engine, eager reference prediction, the
//! static-analysis triple (analyze / lint / plan), and the decision
//! threshold. Pairwise and collective models share it; [`Example`] carries
//! the input either way and [`ModelKind`] tells callers which side a model
//! expects.

use hiergat::HierGat;
use hiergat_baselines::traits::{CollectiveErModel, PairModel};
use hiergat_baselines::{DeepMatcher, Ditto, DmPlus, GnnCollective};
use hiergat_data::{CollectiveExample, EntityPair};
use hiergat_nn::{
    audit_graph, lint_graph, optimize, AbsintConfig, AuditReport, ExecutionPlan, GraphReport,
    LintConfig, LintReport, OptimizeConfig, OptimizeReport, ParamStore, PlanReport, Tape, Var,
};

/// Whether a model scores independent pairs or whole candidate sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// One `(left, right)` entity pair per scoring call.
    Pairwise,
    /// One query plus its candidate set per scoring call (§6.3).
    Collective,
}

/// One scoring input, borrowed from the caller. Copyable so batches can be
/// fanned out across worker threads without cloning entities.
#[derive(Clone, Copy)]
pub enum Example<'a> {
    /// Input for a [`ModelKind::Pairwise`] model.
    Pair(&'a EntityPair),
    /// Input for a [`ModelKind::Collective`] model.
    Collective(&'a CollectiveExample),
}

impl<'a> Example<'a> {
    /// Number of match probabilities this example yields (1 for a pair,
    /// one per candidate for a collective example).
    pub fn n_outputs(&self) -> usize {
        match self {
            Self::Pair(_) => 1,
            Self::Collective(ex) => ex.candidates.len(),
        }
    }

    /// The pair, panicking if a collective example was routed to a
    /// pairwise model (a registry/driver wiring bug, not a data error).
    pub fn expect_pair(&self) -> &'a EntityPair {
        match self {
            Self::Pair(p) => p,
            Self::Collective(_) => panic!("pairwise model given a collective example"),
        }
    }

    /// The collective example, panicking on a pairwise input.
    pub fn expect_collective(&self) -> &'a CollectiveExample {
        match self {
            Self::Collective(ex) => ex,
            Self::Pair(_) => panic!("collective model given a pairwise example"),
        }
    }
}

/// A tape-recording ER model behind one uniform surface.
///
/// `Send + Sync` is required so `Box<dyn ErModel>` sessions can fan
/// [`record_scores`](Self::record_scores) out across the thread pool
/// (recording is `&self`; the parameter store is read-only at inference).
pub trait ErModel: Send + Sync {
    /// Which example side this model consumes.
    fn kind(&self) -> ModelKind;

    /// The parameter store (read-only at inference; the arena executor
    /// resolves placeholder parameter nodes against it).
    fn params(&self) -> &ParamStore;

    /// The mutable parameter store ([`crate::Session::quantise`] snaps
    /// weights onto their audited grids through it).
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Records the eval-mode scoring graph onto `t` and returns the
    /// `n_outputs x 2` softmax-probability node — exactly the graph the
    /// model's eager `predict_*` path evaluates (same RNG seeding, eval
    /// mode). Works on any tape kind: eager tapes compute it in place,
    /// [`Tape::inference`] tapes replay it through a forward-only arena
    /// plan bitwise-identically.
    fn record_scores(&self, t: &mut Tape, ex: Example<'_>) -> Var;

    /// Eager reference scores (match probability per output) — the values
    /// any other execution path must reproduce bitwise.
    fn predict(&self, ex: Example<'_>) -> Vec<f32>;

    /// Static shape/liveness/gradient analysis of the training graph.
    fn analyze(&self, ex: Example<'_>) -> GraphReport;

    /// Rule-engine lint of the training graph.
    fn lint_training(&self, ex: Example<'_>) -> LintReport;

    /// Validation-tuned decision threshold; 0.5 until tuned.
    fn decision_threshold(&self) -> f32 {
        0.5
    }

    /// Stores a tuned decision threshold. Models that do not persist one
    /// (the baselines) ignore it — sessions carry their own copy.
    fn set_decision_threshold(&mut self, _threshold: f32) {}

    /// Rule-engine lint of the *inference* scoring graph under eval-mode
    /// rules (`dropout-in-eval` et al.), recorded on the deferred tape mode
    /// a session replays. Scoring records in eval mode, which elides
    /// dropout, so a clean report here certifies the session graph.
    fn lint_inference(&self, ex: Example<'_>) -> LintReport {
        let mut t = Tape::inference();
        let probs = self.record_scores(&mut t, ex);
        lint_graph(&t, probs, self.params(), &LintConfig::eval())
    }

    /// Interval abstract-interpretation audit of the inference scoring
    /// graph: proven per-node value ranges, overflow/underflow/NaN-risk
    /// findings, and the quantisation feasibility table, under the given
    /// seeding (symbolic input boxes, or [`AbsintConfig::weight_aware`]
    /// to read concrete per-parameter ranges from this model's store —
    /// load a checkpoint first for weight-aware proofs). The graph is
    /// recorded on the deferred tape mode a session replays.
    fn audit(&self, ex: Example<'_>, cfg: &AbsintConfig) -> AuditReport {
        let mut t = Tape::inference();
        let probs = self.record_scores(&mut t, ex);
        audit_graph(&t, probs, self.params(), cfg)
    }

    /// Arena memory plan of the inference scoring graph (forward-only
    /// liveness: no gradient slots, no backward keep-alives), as the
    /// session replays it: the graph as recorded.
    fn plan_inference(&self, ex: Example<'_>) -> PlanReport {
        let mut t = Tape::inference();
        let probs = self.record_scores(&mut t, ex);
        ExecutionPlan::build_inference(&t, probs).report().clone()
    }

    /// Runs the certified tape optimiser over the inference scoring graph
    /// and returns its report: node/FLOP counts before and after, per-pass
    /// rewrite tallies, and one certificate per applied rewrite. With
    /// `verify`, every certificate additionally carries an interval
    /// containment proof (observed seeding) and the run falls back to an
    /// identity copy if any certificate fails to validate.
    fn optimize_report(&self, ex: Example<'_>, verify: bool) -> OptimizeReport {
        let cfg = if verify { OptimizeConfig::verified() } else { OptimizeConfig::default() };
        let mut t = Tape::inference();
        let probs = self.record_scores(&mut t, ex);
        optimize(&t, probs, self.params(), &cfg).report
    }
}

/// HierGAT in pairwise mode (the §4 architecture on entity pairs).
pub struct HierGatPairwise(pub HierGat);

impl ErModel for HierGatPairwise {
    fn kind(&self) -> ModelKind {
        ModelKind::Pairwise
    }
    fn params(&self) -> &ParamStore {
        &self.0.ps
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.0.ps
    }
    fn record_scores(&self, t: &mut Tape, ex: Example<'_>) -> Var {
        self.0.record_pair_scores(t, ex.expect_pair())
    }
    fn predict(&self, ex: Example<'_>) -> Vec<f32> {
        vec![self.0.predict_pair(ex.expect_pair())]
    }
    fn analyze(&self, ex: Example<'_>) -> GraphReport {
        self.0.analyze_pair(ex.expect_pair())
    }
    fn lint_training(&self, ex: Example<'_>) -> LintReport {
        self.0.lint_pair(ex.expect_pair())
    }
    fn decision_threshold(&self) -> f32 {
        self.0.decision_threshold()
    }
    fn set_decision_threshold(&mut self, threshold: f32) {
        self.0.set_decision_threshold(threshold);
    }
}

/// HierGAT+ in collective mode (candidate-set batches, §6.3).
pub struct HierGatCollective(pub HierGat);

impl ErModel for HierGatCollective {
    fn kind(&self) -> ModelKind {
        ModelKind::Collective
    }
    fn params(&self) -> &ParamStore {
        &self.0.ps
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.0.ps
    }
    fn record_scores(&self, t: &mut Tape, ex: Example<'_>) -> Var {
        self.0.record_collective_scores(t, ex.expect_collective())
    }
    fn predict(&self, ex: Example<'_>) -> Vec<f32> {
        self.0.predict_collective(ex.expect_collective())
    }
    fn analyze(&self, ex: Example<'_>) -> GraphReport {
        self.0.analyze_collective(ex.expect_collective())
    }
    fn lint_training(&self, ex: Example<'_>) -> LintReport {
        self.0.lint_collective(ex.expect_collective())
    }
    fn decision_threshold(&self) -> f32 {
        self.0.decision_threshold()
    }
    fn set_decision_threshold(&mut self, threshold: f32) {
        self.0.set_decision_threshold(threshold);
    }
}

impl ErModel for Ditto {
    fn kind(&self) -> ModelKind {
        ModelKind::Pairwise
    }
    fn params(&self) -> &ParamStore {
        PairModel::params(self)
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        PairModel::params_mut(self)
    }
    fn record_scores(&self, t: &mut Tape, ex: Example<'_>) -> Var {
        self.record_pair_scores(t, ex.expect_pair())
    }
    fn predict(&self, ex: Example<'_>) -> Vec<f32> {
        vec![PairModel::predict_pair(self, ex.expect_pair())]
    }
    fn analyze(&self, ex: Example<'_>) -> GraphReport {
        Ditto::analyze(self, ex.expect_pair())
    }
    fn lint_training(&self, ex: Example<'_>) -> LintReport {
        Ditto::lint(self, ex.expect_pair())
    }
}

impl ErModel for DeepMatcher {
    fn kind(&self) -> ModelKind {
        ModelKind::Pairwise
    }
    fn params(&self) -> &ParamStore {
        PairModel::params(self)
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        PairModel::params_mut(self)
    }
    fn record_scores(&self, t: &mut Tape, ex: Example<'_>) -> Var {
        self.record_pair_scores(t, ex.expect_pair())
    }
    fn predict(&self, ex: Example<'_>) -> Vec<f32> {
        vec![PairModel::predict_pair(self, ex.expect_pair())]
    }
    fn analyze(&self, ex: Example<'_>) -> GraphReport {
        DeepMatcher::analyze(self, ex.expect_pair())
    }
    fn lint_training(&self, ex: Example<'_>) -> LintReport {
        DeepMatcher::lint(self, ex.expect_pair())
    }
}

impl ErModel for DmPlus {
    fn kind(&self) -> ModelKind {
        ModelKind::Pairwise
    }
    fn params(&self) -> &ParamStore {
        PairModel::params(self)
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        PairModel::params_mut(self)
    }
    fn record_scores(&self, t: &mut Tape, ex: Example<'_>) -> Var {
        self.record_pair_scores(t, ex.expect_pair())
    }
    fn predict(&self, ex: Example<'_>) -> Vec<f32> {
        vec![PairModel::predict_pair(self, ex.expect_pair())]
    }
    fn analyze(&self, ex: Example<'_>) -> GraphReport {
        DmPlus::analyze(self, ex.expect_pair())
    }
    fn lint_training(&self, ex: Example<'_>) -> LintReport {
        DmPlus::lint(self, ex.expect_pair())
    }
}

impl ErModel for GnnCollective {
    fn kind(&self) -> ModelKind {
        ModelKind::Collective
    }
    fn params(&self) -> &ParamStore {
        CollectiveErModel::params(self)
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        CollectiveErModel::params_mut(self)
    }
    fn record_scores(&self, t: &mut Tape, ex: Example<'_>) -> Var {
        self.record_example_scores(t, ex.expect_collective())
    }
    fn predict(&self, ex: Example<'_>) -> Vec<f32> {
        CollectiveErModel::predict_example(self, ex.expect_collective())
    }
    fn analyze(&self, ex: Example<'_>) -> GraphReport {
        GnnCollective::analyze(self, ex.expect_collective())
    }
    fn lint_training(&self, ex: Example<'_>) -> LintReport {
        GnnCollective::lint(self, ex.expect_collective())
    }
}
