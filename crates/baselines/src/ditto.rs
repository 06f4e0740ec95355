//! The Ditto baseline (Li et al., VLDB 2021; §6.1 of the paper).
//!
//! Ditto serializes both entities into a single
//! `[CLS] [COL] k [VAL] v ... [SEP] [COL] k [VAL] v ... [SEP]` sequence and
//! fine-tunes a pre-trained LM with a binary head on the `[CLS]` embedding.
//! The paper compares against the *basic* version (no domain-knowledge
//! optimizations), which is what this reproduces.

use crate::traits::PairModel;
use hiergat_data::EntityPair;
use hiergat_lm::{LmTier, MiniLm};
use hiergat_nn::{Adam, Linear, Optimizer, ParamStore, Tape, Var};
use hiergat_text::tokenize;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ditto configuration.
#[derive(Debug, Clone, Copy)]
pub struct DittoConfig {
    /// Language-model tier.
    pub lm_tier: LmTier,
    /// Training epochs (paper: 10).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for DittoConfig {
    fn default() -> Self {
        Self { lm_tier: LmTier::MiniBase, epochs: 10, lr: 6e-4, seed: 0xd177 }
    }
}

/// The Ditto model.
pub struct Ditto {
    cfg: DittoConfig,
    /// Parameter store (LM + classification head).
    pub ps: ParamStore,
    lm: MiniLm,
    head_hidden: Linear,
    head_out: Linear,
    opt: Adam,
    rng: StdRng,
}

impl Ditto {
    /// Builds the model.
    pub fn new(cfg: DittoConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ps = ParamStore::new();
        let lm_cfg = cfg.lm_tier.config();
        let lm = MiniLm::new(&mut ps, lm_cfg, &mut rng);
        // Sentence-pair head over [CLS; u; v; |u-v|; u*v] (u, v = mean-pooled
        // segments). Full-size BERT carries comparison circuits from its
        // pre-training; the miniature LM gets the comparison primitive in
        // the head instead (see DESIGN.md).
        let head_hidden = Linear::new(
            &mut ps,
            "ditto.head_hidden",
            5 * lm_cfg.d_model,
            lm_cfg.d_model,
            true,
            &mut rng,
        );
        let head_out = Linear::new(&mut ps, "ditto.head_out", lm_cfg.d_model, 2, true, &mut rng);
        let opt = Adam::new(cfg.lr);
        Self { cfg, ps, lm, head_hidden, head_out, opt, rng }
    }

    /// Loads pre-trained `lm.*` weights.
    pub fn load_pretrained(&mut self, pretrained: &ParamStore) -> usize {
        self.ps.load_matching(pretrained)
    }

    /// Serializes a pair Ditto-style into the LM's id space.
    fn serialize(&self, pair: &EntityPair) -> Vec<usize> {
        let left = tokenize(&pair.left.serialize_ditto());
        let right = tokenize(&pair.right.serialize_ditto());
        self.lm.pair_sequence(&left, &right)
    }

    fn forward(&mut self, t: &mut Tape, pair: &EntityPair, train: bool) -> Var {
        let mut rng = self.rng.clone();
        let out = self.forward_rng(t, pair, train, &mut rng);
        self.rng = rng;
        out
    }

    fn forward_rng(&self, t: &mut Tape, pair: &EntityPair, train: bool, rng: &mut StdRng) -> Var {
        let ids = self.serialize(pair);
        let embedded = self.lm.embed_ids(t, &self.ps, &ids);
        let h = self.lm.encode_embedded(t, &self.ps, embedded, train, rng);
        let n = t.value(h).rows();
        let cls = t.row(h, 0);
        // Segment pooling over the *input* token embeddings (not the encoder
        // output): the same token then contributes the same vector to both
        // segments, so |u - v| directly measures token overlap — the
        // comparison primitive full-size BERT brings from pre-training.
        // Segment boundary: first [SEP] in [CLS] left [SEP] right [SEP].
        let sep_id = self.lm.vocab().special(hiergat_text::Special::Sep);
        let first_sep =
            ids.iter().take(n).position(|&i| i == sep_id).unwrap_or(n.saturating_sub(1)).max(1);
        // An eval-mode graph pools the encoder's own input rows; training
        // gathers them again, so the encoder and the pooling send their
        // gradients into the embedding table separately.
        let raw = if train { self.lm.embed_ids(t, &self.ps, &ids) } else { embedded };
        let d_model = self.lm.config().d_model;
        let pool = |t: &mut Tape, start: usize, len: usize| -> Var {
            if len == 0 || start >= n {
                t.fill(1, d_model, 0.0)
            } else {
                let len = len.min(n - start);
                let seg = t.slice_rows(raw, start, len);
                t.mean_rows(seg)
            }
        };
        let u = pool(t, 1, first_sep.saturating_sub(1));
        let v = pool(t, first_sep + 1, n.saturating_sub(first_sep + 2).max(1));
        // Mean-pooled raw embeddings are O(1/sqrt(d)) while the LayerNormed
        // [CLS] row is O(1); normalize the segment vectors so the comparison
        // features carry weight in the head from step one instead of being
        // drowned out.
        let ones = t.fill(1, d_model, 1.0);
        let zeros = t.fill(1, d_model, 0.0);
        let u = t.layer_norm(u, ones, zeros, 1e-5);
        let v = t.layer_norm(v, ones, zeros, 1e-5);
        let diff = {
            let d = t.sub(u, v);
            let pos = t.relu(d);
            let nd = t.scale(d, -1.0);
            let neg = t.relu(nd);
            t.add(pos, neg)
        };
        let prod = t.mul(u, v);
        let feats = t.concat_cols(&[cls, u, v, diff, prod]);
        let hh = self.head_hidden.forward(t, &self.ps, feats);
        let hh = t.relu(hh);
        self.head_out.forward(t, &self.ps, hh)
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.ps.num_scalars()
    }

    /// Statically analyzes the training graph for `pair` on a deferred
    /// tape (no kernels run): shape inference, parameter reachability, and
    /// node liveness.
    pub fn analyze(&self, pair: &EntityPair) -> hiergat_nn::GraphReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x51);
        let mut t = Tape::inference();
        let logits = self.forward_rng(&mut t, pair, true, &mut rng);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[1.0]);
        hiergat_nn::analyze_graph(&t, loss, &self.ps)
    }

    /// Runs the [`hiergat_nn::lint_graph`] rule engine over the training
    /// graph (deferred tape, training mode).
    pub fn lint(&self, pair: &EntityPair) -> hiergat_nn::LintReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x51);
        let mut t = Tape::inference();
        let logits = self.forward_rng(&mut t, pair, true, &mut rng);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[1.0]);
        hiergat_nn::lint_graph(&t, loss, &self.ps, &hiergat_nn::LintConfig::training())
    }

    /// Records the eval-mode scoring graph onto `t` — exactly the graph
    /// [`PairModel::predict_pair`] evaluates (same seed, eval mode, softmax
    /// over logits) — and returns the `1 x 2` probability node.
    pub fn record_pair_scores(&self, t: &mut Tape, pair: &EntityPair) -> Var {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x3f);
        let logits = self.forward_rng(t, pair, false, &mut rng);
        t.softmax(logits)
    }
}

impl PairModel for Ditto {
    fn train_pair(&mut self, pair: &EntityPair) -> f32 {
        self.train_pair_weighted(pair, 1.0)
    }

    fn train_pair_weighted(&mut self, pair: &EntityPair, weight: f32) -> f32 {
        // Clearing at the start (rather than after the optimizer step) leaves
        // the step's clipped gradients observable to callers and tests.
        self.ps.zero_grad();
        let mut t = Tape::new();
        let logits = self.forward(&mut t, pair, true);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[weight]);
        let val = t.value(loss).item();
        t.backward(loss, &mut self.ps);
        self.ps.clip_grad_norm(5.0);
        self.opt.step(&mut self.ps);
        val
    }

    fn predict_pair(&self, pair: &EntityPair) -> f32 {
        let mut t = Tape::new();
        let probs = self.record_pair_scores(&mut t, pair);
        t.value(probs).get(0, 1)
    }

    fn params(&self) -> &ParamStore {
        &self.ps
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.ps
    }

    fn epochs(&self) -> usize {
        self.cfg.epochs
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::train_pair_model;
    use hiergat_data::{Entity, MagellanDataset};

    fn pair(label: bool) -> EntityPair {
        EntityPair::new(
            Entity::new(
                "l",
                vec![("title".into(), "apache spark".into()), ("price".into(), "10".into())],
            ),
            Entity::new(
                "r",
                vec![
                    ("title".into(), "apache spark cluster".into()),
                    ("price".into(), "12".into()),
                ],
            ),
            label,
        )
    }

    #[test]
    fn lint_passes_at_deny_warn() {
        let m = Ditto::new(DittoConfig::default());
        let report = m.lint(&pair(true));
        assert!(
            report.is_clean_at(hiergat_nn::Severity::Warn),
            "Ditto graph must lint clean:\n{report}"
        );
    }

    #[test]
    fn serialization_reaches_the_lm() {
        let ditto = Ditto::new(DittoConfig { lm_tier: LmTier::MiniDistil, ..Default::default() });
        let p = ditto.predict_pair(&pair(true));
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn loss_decreases_on_repeated_example() {
        let mut ditto =
            Ditto::new(DittoConfig { lm_tier: LmTier::MiniDistil, ..Default::default() });
        let ex = pair(true);
        let first = ditto.train_pair(&ex);
        let mut last = first;
        for _ in 0..15 {
            last = ditto.train_pair(&ex);
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn learns_a_small_clean_dataset() {
        let ds = MagellanDataset::FodorsZagats.load(0.6);
        let mut ditto = Ditto::new(DittoConfig {
            lm_tier: LmTier::MiniDistil,
            epochs: 6,
            ..Default::default()
        });
        let report = train_pair_model(&mut ditto, &ds);
        assert!(report.test_f1 > 0.3, "F1 {}", report.test_f1);
    }

    #[test]
    fn analyzer_reports_clean_graph() {
        let ditto = Ditto::new(DittoConfig { lm_tier: LmTier::MiniDistil, ..Default::default() });
        let report = ditto.analyze(&pair(true));
        assert!(report.is_clean(), "{report}");
        assert!(report.node_count > 0);
    }

    #[test]
    fn tier_changes_parameter_count() {
        let small = Ditto::new(DittoConfig { lm_tier: LmTier::MiniDistil, ..Default::default() });
        let large = Ditto::new(DittoConfig { lm_tier: LmTier::MiniLarge, ..Default::default() });
        assert!(large.num_parameters() > small.num_parameters());
    }
}
