//! The HierGAT / HierGAT+ model (§3-§5 of the paper).

use crate::aggregate::{attribute_similarity_inputs, concat_entities, entity_embeddings};
use crate::align::AlignLayer;
use crate::compare::{AttributeComparer, EntityComparison};
use crate::config::{HierGatConfig, ViewCombiner};
use crate::context::ContextModule;
use hiergat_data::{CollectiveExample, EntityPair};
use hiergat_graph::Hhg;
use hiergat_lm::MiniLm;
use hiergat_nn::{Adam, Linear, Memo, Optimizer, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The HierGAT entity-resolution model.
///
/// One instance handles both the pairwise mode (HierGAT) and — when built
/// from [`HierGatConfig::collective`] — the collective mode (HierGAT+) with
/// entity-level context and the alignment layer.
pub struct HierGat {
    cfg: HierGatConfig,
    /// All trainable parameters (LM + HierGAT heads).
    pub ps: ParamStore,
    lm: MiniLm,
    ctx: ContextModule,
    cmp: EntityComparison,
    comparer: AttributeComparer,
    align: AlignLayer,
    cls_hidden: Linear,
    cls_out: Linear,
    opt: Adam,
    rng: StdRng,
    arity: usize,
    d: usize,
    /// Validation-tuned decision threshold (0.5 until tuning sets it);
    /// persisted in checkpoints so a restored session can emit boolean
    /// match decisions.
    decision_threshold: f32,
}

impl HierGat {
    /// Builds a model for entities with `arity` attributes.
    pub fn new(cfg: HierGatConfig, arity: usize) -> Self {
        assert!(arity > 0, "HierGat: arity must be positive");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ps = ParamStore::new();
        let lm_cfg = cfg.lm_tier.config();
        let d = lm_cfg.d_model;
        let lm = MiniLm::new(&mut ps, lm_cfg, &mut rng);
        let ctx = ContextModule::new(&mut ps, "hg.ctx", d, &mut rng);
        let cmp = EntityComparison::new(&mut ps, "hg.cmp", d, arity, cfg.combiner, &mut rng);
        let comparer = AttributeComparer::new(&mut ps, "hg.attr_cmp", d, &mut rng);
        let align = AlignLayer::new(&mut ps, "hg.align", arity * d, &mut rng);
        let cls_hidden = Linear::new(&mut ps, "hg.cls_hidden", d, d, true, &mut rng);
        let cls_out = Linear::new(&mut ps, "hg.cls_out", d, 2, true, &mut rng);
        let opt = Adam::new(cfg.lr);
        // Submodules switched off by the config never appear on a tape, so
        // their parameters can never receive gradients. Freeze them: the
        // optimizer skips them and the static analyzer counts them as
        // intentionally gradient-dead instead of flagging wiring bugs.
        if !cfg.use_token_context {
            ps.freeze_prefix("hg.ctx.gate_token");
        }
        if !cfg.use_attr_context && !cfg.use_entity_context {
            ps.freeze_prefix("hg.ctx.attr_ctx.");
            ps.freeze_prefix("hg.ctx.gate_phi");
        }
        if !cfg.use_entity_context {
            ps.freeze_prefix("hg.ctx.red_ctx.");
            ps.freeze_prefix("hg.ctx.red_rm.");
        }
        if cfg.combiner != ViewCombiner::SharedSpace {
            ps.freeze_prefix("hg.cmp.shared.");
        }
        if cfg.combiner != ViewCombiner::WeightAverage || !cfg.use_entity_summarization {
            ps.freeze_prefix("hg.cmp.attn_ctx.");
        }
        if cfg.combiner != ViewCombiner::WeightAverage || cfg.use_entity_summarization {
            ps.freeze_prefix("hg.cmp.attn_plain.");
        }
        // Alignment refines the summarized entity rows, which only the
        // weight-average combiner's entity context consumes.
        if !(cfg.use_alignment
            && cfg.use_entity_summarization
            && cfg.combiner == ViewCombiner::WeightAverage)
        {
            ps.freeze_prefix("hg.align.");
        }
        Self {
            cfg,
            ps,
            lm,
            ctx,
            cmp,
            comparer,
            align,
            cls_hidden,
            cls_out,
            opt,
            rng,
            arity,
            d,
            decision_threshold: 0.5,
        }
    }

    /// Validation-tuned decision threshold (0.5 until tuning sets it).
    pub fn decision_threshold(&self) -> f32 {
        self.decision_threshold
    }

    /// Records the validation-tuned decision threshold.
    pub fn set_decision_threshold(&mut self, threshold: f32) {
        self.decision_threshold = threshold;
    }

    /// Loads pre-trained `lm.*` weights; returns the number of tensors
    /// copied.
    pub fn load_pretrained(&mut self, pretrained: &ParamStore) -> usize {
        self.ps.load_matching(pretrained)
    }

    /// Model configuration.
    pub fn config(&self) -> &HierGatConfig {
        &self.cfg
    }

    /// Attribute count the model was built for.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Hidden width.
    pub fn d_model(&self) -> usize {
        self.d
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.ps.num_scalars()
    }

    /// Whether the forward pass feeds the summarized-entity context into the
    /// comparison layer (only the weight-average combiner consumes it).
    fn uses_entity_ctx(&self) -> bool {
        self.cfg.use_entity_summarization && self.cfg.combiner == ViewCombiner::WeightAverage
    }

    /// The attribute similarity of `(a, b)`, compared once per distinct
    /// pair of attribute embeddings in an eval-mode graph (`compared`).
    fn similarity(
        &self,
        t: &mut Tape,
        compared: &mut Memo<(Var, Var)>,
        a: Var,
        b: Var,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        compared.get_or_record((a, b), |_| {
            self.comparer.similarity(t, &self.ps, &self.lm, a, b, train, rng)
        })
    }

    fn classify(&self, t: &mut Tape, sim: Var) -> Var {
        let h = self.cls_hidden.forward(t, &self.ps, sim);
        let h = t.relu(h);
        self.cls_out.forward(t, &self.ps, h)
    }

    /// Forward pass over one pair; returns `1 x 2` match logits.
    pub fn forward_pair(&mut self, t: &mut Tape, pair: &EntityPair, train: bool) -> Var {
        let mut rng = self.rng.clone();
        let out = self.forward_pair_rng(t, pair, train, &mut rng);
        self.rng = rng;
        out
    }

    /// Forward pass with an explicit RNG (enables `&self` inference).
    pub fn forward_pair_rng(
        &self,
        t: &mut Tape,
        pair: &EntityPair,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        let g = Hhg::from_pair(pair);
        let wpc = self.ctx.wpc(t, &self.ps, &g, &self.lm, &self.cfg, train, rng);
        let attrs = entity_embeddings(t, &self.ps, &self.lm, &g, wpc, train, rng);
        let (left_attrs, right_attrs) =
            attribute_similarity_inputs(&attrs[0], &attrs[1], self.arity);
        let mut compared = Memo::new(!train);
        let sims: Vec<Var> = left_attrs
            .iter()
            .zip(&right_attrs)
            .map(|(&a, &b)| self.similarity(t, &mut compared, a, b, train, rng))
            .collect();
        let entity_ctx = if self.uses_entity_ctx() {
            let concats = concat_entities(t, &attrs);
            Some(t.concat_cols(&[concats[0], concats[1]]))
        } else {
            None
        };
        let sim = self.cmp.combine(t, &self.ps, &sims, entity_ctx);
        self.classify(t, sim)
    }

    /// Match probability for one pair (inference mode; thread-safe).
    pub fn predict_pair(&self, pair: &EntityPair) -> f32 {
        let mut t = Tape::new();
        let probs = self.record_pair_scores(&mut t, pair);
        t.value(probs).get(0, 1)
    }

    /// Records the eval-mode pairwise scoring graph onto `t` — exactly the
    /// graph [`Self::predict_pair`] evaluates (same seed, eval mode, softmax
    /// over logits) — and returns the `1 x 2` probability node. Works on any
    /// tape kind; inference tapes replay it through a forward-only arena
    /// plan bitwise-identically.
    pub fn record_pair_scores(&self, t: &mut Tape, pair: &EntityPair) -> Var {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x1f);
        let logits = self.forward_pair_rng(t, pair, false, &mut rng);
        t.softmax(logits)
    }

    /// One training step on a pair; returns the loss.
    pub fn train_pair(&mut self, pair: &EntityPair) -> f32 {
        self.train_pair_weighted(pair, 1.0)
    }

    /// Weighted training step: positive pairs can be up-weighted to counter
    /// the 9-25% positive rates of the benchmarks (DeepMatcher's
    /// `pos_neg_ratio`; the trainer derives the weight from the split).
    pub fn train_pair_weighted(&mut self, pair: &EntityPair, weight: f32) -> f32 {
        // Clearing at the start (rather than after the optimizer step) leaves
        // the step's clipped gradients observable to callers and tests.
        self.ps.zero_grad();
        let mut t = Tape::new();
        let logits = self.forward_pair(&mut t, pair, true);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[weight]);
        let loss_val = t.value(loss).item();
        t.backward(loss, &mut self.ps);
        self.ps.clip_grad_norm(5.0);
        self.opt.step(&mut self.ps);
        loss_val
    }

    /// Forward pass over a collective example; returns `N x 2` logits, one
    /// row per candidate.
    pub fn forward_collective(&mut self, t: &mut Tape, ex: &CollectiveExample, train: bool) -> Var {
        let mut rng = self.rng.clone();
        let out = self.forward_collective_rng(t, ex, train, &mut rng);
        self.rng = rng;
        out
    }

    /// Collective forward with an explicit RNG (enables `&self` inference).
    pub fn forward_collective_rng(
        &self,
        t: &mut Tape,
        ex: &CollectiveExample,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        assert!(!ex.candidates.is_empty(), "collective example without candidates");
        let mut entities = Vec::with_capacity(1 + ex.candidates.len());
        entities.push(ex.query.clone());
        entities.extend(ex.candidates.iter().cloned());
        let g = Hhg::from_entities(&entities);
        let wpc = self.ctx.wpc(t, &self.ps, &g, &self.lm, &self.cfg, train, rng);
        let attrs = entity_embeddings(t, &self.ps, &self.lm, &g, wpc, train, rng);
        // The summarized entity rows (and their aligned refinement, Eq. 5)
        // feed only the weight-average combiner's entity context; skip them
        // in the Non-Sum / other-combiner ablations so no dead nodes are
        // recorded.
        let aligned = if self.uses_entity_ctx() {
            let concats = concat_entities(t, &attrs);
            if self.cfg.use_alignment {
                self.align.align(t, &self.ps, &concats, &g.entity_edges, train)
            } else {
                concats
            }
        } else {
            Vec::new()
        };
        let mut rows = Vec::with_capacity(ex.candidates.len());
        let mut compared = Memo::new(!train);
        let (mut pair_ctx, mut classified) = (Memo::new(!train), Memo::new(!train));
        for ci in 0..ex.candidates.len() {
            let (q_attrs, c_attrs) =
                attribute_similarity_inputs(&attrs[0], &attrs[ci + 1], self.arity);
            let sims: Vec<Var> = q_attrs
                .iter()
                .zip(&c_attrs)
                .map(|(&a, &b)| self.similarity(t, &mut compared, a, b, train, rng))
                .collect();
            let entity_ctx = self.uses_entity_ctx().then(|| {
                pair_ctx
                    .get_or_record((aligned[0], aligned[ci + 1]), |&(q, c)| t.concat_cols(&[q, c]))
            });
            // Candidates equal to an earlier one (same similarity and
            // context nodes) share its logits row.
            rows.push(classified.get_or_record((sims, entity_ctx), |(sims, ctx)| {
                let sim = self.cmp.combine(t, &self.ps, sims, *ctx);
                self.classify(t, sim)
            }));
        }
        t.concat_rows(&rows)
    }

    /// Match probabilities for every candidate of a collective example
    /// (thread-safe).
    pub fn predict_collective(&self, ex: &CollectiveExample) -> Vec<f32> {
        let mut t = Tape::new();
        let probs = self.record_collective_scores(&mut t, ex);
        (0..ex.candidates.len()).map(|i| t.value(probs).get(i, 1)).collect()
    }

    /// Records the eval-mode collective scoring graph onto `t` — exactly the
    /// graph [`Self::predict_collective`] evaluates — and returns the
    /// `n_candidates x 2` probability node.
    pub fn record_collective_scores(&self, t: &mut Tape, ex: &CollectiveExample) -> Var {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x2f);
        let logits = self.forward_collective_rng(t, ex, false, &mut rng);
        t.softmax(logits)
    }

    /// One training step on a collective example (the batch is the
    /// candidate set, §6.3); returns the loss.
    pub fn train_collective(&mut self, ex: &CollectiveExample) -> f32 {
        self.train_collective_weighted(ex, 1.0)
    }

    /// Weighted collective step: positive candidates weighted by `weight`.
    pub fn train_collective_weighted(&mut self, ex: &CollectiveExample, weight: f32) -> f32 {
        // Clearing at the start (rather than after the optimizer step) leaves
        // the step's clipped gradients observable to callers and tests.
        self.ps.zero_grad();
        let mut t = Tape::new();
        let logits = self.forward_collective(&mut t, ex, true);
        let targets: Vec<usize> = ex.labels.iter().map(|&l| usize::from(l)).collect();
        let weights: Vec<f32> = ex.labels.iter().map(|&l| if l { weight } else { 1.0 }).collect();
        let loss = t.weighted_cross_entropy_logits(logits, &targets, &weights);
        let loss_val = t.value(loss).item();
        t.backward(loss, &mut self.ps);
        self.ps.clip_grad_norm(5.0);
        self.opt.step(&mut self.ps);
        loss_val
    }

    /// Statically analyzes the pairwise training graph: records the forward
    /// pass and loss on a deferred tape (no kernels execute) and runs
    /// shape inference, dead-gradient, and sentinel passes over it. Also
    /// surfaces HHG builder-invariant violations as shape violations.
    pub fn analyze_pair(&self, pair: &EntityPair) -> hiergat_nn::GraphReport {
        let mut t = Tape::inference();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let logits = self.forward_pair_rng(&mut t, pair, true, &mut rng);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[1.0]);
        let mut report = hiergat_nn::analyze_graph(&t, loss, &self.ps);
        graph_issues_into(&Hhg::from_pair(pair), &mut report);
        report
    }

    /// Collective-mode counterpart of [`Self::analyze_pair`].
    pub fn analyze_collective(&self, ex: &CollectiveExample) -> hiergat_nn::GraphReport {
        let mut t = Tape::inference();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let logits = self.forward_collective_rng(&mut t, ex, true, &mut rng);
        let targets: Vec<usize> = ex.labels.iter().map(|&l| usize::from(l)).collect();
        let weights = vec![1.0; targets.len()];
        let loss = t.weighted_cross_entropy_logits(logits, &targets, &weights);
        let mut report = hiergat_nn::analyze_graph(&t, loss, &self.ps);
        let mut entities = Vec::with_capacity(1 + ex.candidates.len());
        entities.push(ex.query.clone());
        entities.extend(ex.candidates.iter().cloned());
        graph_issues_into(&Hhg::from_entities(&entities), &mut report);
        report
    }

    /// Runs the [`hiergat_nn::lint_graph`] rule engine over the pairwise
    /// training graph (deferred tape, training mode: dropout is expected).
    pub fn lint_pair(&self, pair: &EntityPair) -> hiergat_nn::LintReport {
        let mut t = Tape::inference();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let logits = self.forward_pair_rng(&mut t, pair, true, &mut rng);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[1.0]);
        hiergat_nn::lint_graph(&t, loss, &self.ps, &hiergat_nn::LintConfig::training())
    }

    /// Collective-mode counterpart of [`Self::lint_pair`].
    pub fn lint_collective(&self, ex: &CollectiveExample) -> hiergat_nn::LintReport {
        let mut t = Tape::inference();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let logits = self.forward_collective_rng(&mut t, ex, true, &mut rng);
        let targets: Vec<usize> = ex.labels.iter().map(|&l| usize::from(l)).collect();
        let weights = vec![1.0; targets.len()];
        let loss = t.weighted_cross_entropy_logits(logits, &targets, &weights);
        hiergat_nn::lint_graph(&t, loss, &self.ps, &hiergat_nn::LintConfig::training())
    }

    /// The underlying language model (for explanation tooling).
    pub fn lm(&self) -> &MiniLm {
        &self.lm
    }

    /// Internal access for the explanation module.
    pub(crate) fn parts(
        &mut self,
    ) -> (&ContextModule, &MiniLm, &EntityComparison, &AttributeComparer, &HierGatConfig, &ParamStore)
    {
        (&self.ctx, &self.lm, &self.cmp, &self.comparer, &self.cfg, &self.ps)
    }
}

/// Copies HHG builder-invariant violations into a graph report.
fn graph_issues_into(g: &Hhg, report: &mut hiergat_nn::GraphReport) {
    report.graph_issues.extend(g.validate());
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_data::Entity;

    fn pair(label: bool) -> EntityPair {
        EntityPair::new(
            Entity::new(
                "l",
                vec![
                    ("title".into(), "apache spark cluster".into()),
                    ("price".into(), "49.99".into()),
                ],
            ),
            Entity::new(
                "r",
                vec![
                    ("title".into(), "apache spark framework".into()),
                    ("price".into(), "45.00".into()),
                ],
            ),
            label,
        )
    }

    #[test]
    fn pair_forward_shapes_and_probability() {
        let m = HierGat::new(HierGatConfig::fast_test(), 2);
        let p = m.predict_pair(&pair(true));
        assert!((0.0..=1.0).contains(&p), "probability {p}");
    }

    #[test]
    fn deferred_training_graph_holds_storage_only_for_input_leaves() {
        let m = HierGat::new(HierGatConfig::fast_test(), 2);
        let ex = pair(true);
        let record = |t: &mut Tape| {
            let mut rng = StdRng::seed_from_u64(3);
            let logits = m.forward_pair_rng(t, &ex, true, &mut rng);
            t.weighted_cross_entropy_logits(logits, &[1], &[1.0]);
        };
        let (mut t, mut eager) = (Tape::inference(), Tape::new());
        record(&mut t);
        record(&mut eager);
        assert!(t.shape_violations().is_empty());
        assert!((0..t.len()).any(|i| t.op_name(i) == "dropout"), "training dropout recorded");
        // The eager training graph node for node, with storage only in inputs.
        assert_eq!(t.len(), eager.len());
        for i in 0..t.len() {
            assert_eq!(t.op_name(i), eager.op_name(i));
            assert_eq!(t.node_value(i).shape(), eager.node_value(i).shape());
            let input = t.op_name(i) == "input";
            assert_eq!(t.node_value(i).is_empty(), !input, "op #{i} ({})", t.op_name(i));
        }
    }

    #[test]
    fn training_step_reduces_loss_on_repeated_example() {
        let mut m = HierGat::new(HierGatConfig::fast_test(), 2);
        let ex = pair(true);
        let first = m.train_pair(&ex);
        let mut last = first;
        for _ in 0..15 {
            last = m.train_pair(&ex);
        }
        assert!(last < first, "loss must decrease: {first} -> {last}");
    }

    #[test]
    fn collective_forward_outputs_one_row_per_candidate() {
        let mut m = HierGat::new(
            HierGatConfig { epochs: 1, ..HierGatConfig::collective() }
                .with_tier(hiergat_lm::LmTier::MiniDistil),
            2,
        );
        let ex = CollectiveExample::new(
            pair(true).left,
            vec![pair(true).right, pair(false).right, pair(false).left],
            vec![true, false, false],
        );
        let probs = m.predict_collective(&ex);
        assert_eq!(probs.len(), 3);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        let loss = m.train_collective(&ex);
        assert!(loss.is_finite());
    }

    #[test]
    fn pretrained_weights_change_predictions() {
        let cfg = HierGatConfig::fast_test();
        let mut a = HierGat::new(cfg, 2);
        let baseline = a.predict_pair(&pair(true));
        // A differently-seeded store stands in for a pre-trained checkpoint.
        let donor = HierGat::new(cfg.with_seed(999), 2);
        let copied = a.load_pretrained(&donor.ps);
        assert!(copied > 0);
        let after = a.predict_pair(&pair(true));
        assert_ne!(baseline, after);
    }

    #[test]
    fn parameter_count_grows_with_tier() {
        let small = HierGat::new(HierGatConfig::fast_test(), 2);
        let large =
            HierGat::new(HierGatConfig::fast_test().with_tier(hiergat_lm::LmTier::MiniLarge), 2);
        assert!(large.num_parameters() > small.num_parameters());
        assert_eq!(small.arity(), 2);
        assert_eq!(small.d_model(), 32);
    }

    #[test]
    #[should_panic(expected = "arity must be positive")]
    fn zero_arity_rejected() {
        HierGat::new(HierGatConfig::fast_test(), 0);
    }

    #[test]
    fn analyzer_accepts_pairwise_forward_graph() {
        let m = HierGat::new(HierGatConfig::fast_test(), 2);
        let report = m.analyze_pair(&pair(true));
        assert!(report.is_clean(), "pairwise graph must analyze clean:\n{report}");
        assert!(report.node_count > 0);
    }

    #[test]
    fn analyzer_accepts_collective_forward_graph() {
        let m = HierGat::new(
            HierGatConfig { epochs: 1, ..HierGatConfig::collective() }
                .with_tier(hiergat_lm::LmTier::MiniDistil),
            2,
        );
        let ex = CollectiveExample::new(
            pair(true).left,
            vec![pair(true).right, pair(false).right],
            vec![true, false],
        );
        let report = m.analyze_collective(&ex);
        assert!(report.is_clean(), "collective graph must analyze clean:\n{report}");
    }

    #[test]
    fn lint_passes_on_pairwise_and_collective_graphs() {
        use hiergat_nn::Severity;
        let m = HierGat::new(HierGatConfig::fast_test(), 2);
        let report = m.lint_pair(&pair(true));
        assert!(
            report.is_clean_at(Severity::Warn),
            "pairwise graph must lint clean at --deny warn:\n{report}"
        );
        let mc = HierGat::new(
            HierGatConfig { epochs: 1, ..HierGatConfig::collective() }
                .with_tier(hiergat_lm::LmTier::MiniDistil),
            2,
        );
        let ex = CollectiveExample::new(
            pair(true).left,
            vec![pair(true).right, pair(false).right],
            vec![true, false],
        );
        let report = mc.lint_collective(&ex);
        assert!(
            report.is_clean_at(Severity::Warn),
            "collective graph must lint clean at --deny warn:\n{report}"
        );
    }

    #[test]
    fn analyzer_flags_orphaned_parameter() {
        let mut m = HierGat::new(HierGatConfig::fast_test(), 2);
        m.ps.add("stray.w", hiergat_tensor::Tensor::ones(1, 1));
        let report = m.analyze_pair(&pair(false));
        assert!(!report.is_clean());
        assert!(
            report.dead_params.iter().any(|d| d.name == "stray.w" && !d.frozen && !d.on_tape),
            "{report}"
        );
    }

    #[test]
    fn ablation_configs_analyze_clean_via_freezing() {
        // Every Table 9-11 switch leaves some submodule off the tape; the
        // constructor must freeze exactly those so the analyzer stays clean.
        let base = HierGatConfig::fast_test();
        let configs = [
            HierGatConfig { use_token_context: false, ..base },
            HierGatConfig { use_attr_context: false, use_entity_context: false, ..base },
            HierGatConfig { use_entity_summarization: false, ..base },
            HierGatConfig { combiner: ViewCombiner::ViewAverage, ..base },
            HierGatConfig { combiner: ViewCombiner::SharedSpace, ..base },
        ];
        for cfg in configs {
            let m = HierGat::new(cfg, 2);
            let report = m.analyze_pair(&pair(true));
            assert!(report.is_clean(), "config {cfg:?} not clean:\n{report}");
        }
    }
}
