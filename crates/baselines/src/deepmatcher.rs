//! The DeepMatcher baseline (Mudgal et al., SIGMOD 2018; §6.1 of the paper).
//!
//! RNN-based attribute summarization: each attribute value is encoded by a
//! GRU over frozen FastText-style hash embeddings; the per-attribute
//! comparison vector is the classic `[h_l, h_r, |h_l - h_r|, h_l ⊙ h_r]`
//! and a two-layer MLP classifies the concatenation. Word embeddings are
//! fixed, matching DeepMatcher's use of pre-trained FastText vectors.

use crate::traits::PairModel;
use hiergat_data::EntityPair;
use hiergat_nn::{Adam, GruCell, Linear, Optimizer, ParamStore, Tape, Var};
use hiergat_tensor::Tensor;
use hiergat_text::{tokenize, StaticHashEmbedding};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DeepMatcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct DeepMatcherConfig {
    /// Word-embedding dimension (DeepMatcher uses 300-d FastText; scaled).
    pub d_emb: usize,
    /// GRU hidden width.
    pub d_hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
    /// Maximum tokens per attribute (RNN cost is linear in this).
    pub max_tokens: usize,
}

impl Default for DeepMatcherConfig {
    fn default() -> Self {
        Self { d_emb: 32, d_hidden: 32, epochs: 10, lr: 1e-3, seed: 0xd33b, max_tokens: 24 }
    }
}

/// The DeepMatcher model.
pub struct DeepMatcher {
    cfg: DeepMatcherConfig,
    ps: ParamStore,
    emb: StaticHashEmbedding,
    gru: GruCell,
    cls_hidden: Linear,
    cls_out: Linear,
    opt: Adam,
    arity: usize,
}

impl DeepMatcher {
    /// Builds a model for entities with `arity` attributes.
    pub fn new(cfg: DeepMatcherConfig, arity: usize) -> Self {
        assert!(arity > 0);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ps = ParamStore::new();
        let gru = GruCell::new(&mut ps, "dm.gru", cfg.d_emb, cfg.d_hidden, &mut rng);
        let cls_hidden = Linear::new(
            &mut ps,
            "dm.cls_hidden",
            4 * cfg.d_hidden * arity,
            cfg.d_hidden,
            true,
            &mut rng,
        );
        let cls_out = Linear::new(&mut ps, "dm.cls_out", cfg.d_hidden, 2, true, &mut rng);
        let emb = StaticHashEmbedding::new(cfg.d_emb, 4096, 2048, cfg.seed ^ 0xfa57);
        let opt = Adam::new(cfg.lr);
        Self { cfg, ps, emb, gru, cls_hidden, cls_out, opt, arity }
    }

    fn encode_value(&self, t: &mut Tape, value: &str) -> Var {
        let mut tokens = tokenize(value);
        tokens.truncate(self.cfg.max_tokens);
        if tokens.is_empty() {
            return t.input(Tensor::zeros(1, self.cfg.d_hidden));
        }
        let seq = t.input(self.emb.embed_sequence(&tokens));
        let states = self.gru.run(t, &self.ps, seq);
        let n = t.value(states).rows();
        t.slice_rows(states, n - 1, 1) // final hidden state
    }

    fn forward(&self, t: &mut Tape, pair: &EntityPair) -> Var {
        let mut comparisons = Vec::with_capacity(self.arity);
        for k in 0..self.arity {
            let lv = pair.left.attrs.get(k).map_or("", |(_, v)| v.as_str());
            let key = pair.left.attrs.get(k).map_or("", |(k, _)| k.as_str());
            let rv = pair.right.attr(key).unwrap_or("");
            let hl = self.encode_value(t, lv);
            let hr = self.encode_value(t, rv);
            let diff = {
                let d = t.sub(hl, hr);
                let pos = t.relu(d);
                let neg = {
                    let nd = t.scale(d, -1.0);
                    t.relu(nd)
                };
                t.add(pos, neg) // |hl - hr|
            };
            let prod = t.mul(hl, hr);
            comparisons.push(t.concat_cols(&[hl, hr, diff, prod]));
        }
        let features = t.concat_cols(&comparisons);
        let h = self.cls_hidden.forward(t, &self.ps, features);
        let h = t.relu(h);
        self.cls_out.forward(t, &self.ps, h)
    }

    /// Statically analyzes the training graph for `pair` on a deferred
    /// tape (no kernels run): shape inference, parameter reachability, and
    /// node liveness.
    pub fn analyze(&self, pair: &EntityPair) -> hiergat_nn::GraphReport {
        let mut t = Tape::inference();
        let logits = self.forward(&mut t, pair);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[1.0]);
        hiergat_nn::analyze_graph(&t, loss, &self.ps)
    }

    /// Runs the [`hiergat_nn::lint_graph`] rule engine over the training
    /// graph (deferred tape, training mode).
    pub fn lint(&self, pair: &EntityPair) -> hiergat_nn::LintReport {
        let mut t = Tape::inference();
        let logits = self.forward(&mut t, pair);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[1.0]);
        hiergat_nn::lint_graph(&t, loss, &self.ps, &hiergat_nn::LintConfig::training())
    }

    /// Records the eval-mode scoring graph onto `t` — exactly the graph
    /// [`PairModel::predict_pair`] evaluates (DeepMatcher has no dropout, so
    /// eval and train graphs coincide) — and returns the `1 x 2` probability
    /// node.
    pub fn record_pair_scores(&self, t: &mut Tape, pair: &EntityPair) -> Var {
        let logits = self.forward(t, pair);
        t.softmax(logits)
    }
}

impl PairModel for DeepMatcher {
    fn train_pair(&mut self, pair: &EntityPair) -> f32 {
        self.train_pair_weighted(pair, 1.0)
    }

    fn train_pair_weighted(&mut self, pair: &EntityPair, weight: f32) -> f32 {
        // Clearing at the start (rather than after the optimizer step) leaves
        // the step's clipped gradients observable to callers and tests.
        self.ps.zero_grad();
        let mut t = Tape::new();
        let logits = self.forward(&mut t, pair);
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
            Entity::new("l", vec![("title".into(), "canon eos camera".into())]),
            Entity::new("r", vec![("title".into(), "canon eos camera kit".into())]),
            label,
        )
    }

    #[test]
    fn lint_passes_at_deny_warn() {
        let dm = DeepMatcher::new(DeepMatcherConfig::default(), 1);
        let report = dm.lint(&pair(true));
        assert!(
            report.is_clean_at(hiergat_nn::Severity::Warn),
            "DeepMatcher graph must lint clean:\n{report}"
        );
    }

    #[test]
    fn predicts_probabilities() {
        let dm = DeepMatcher::new(DeepMatcherConfig::default(), 1);
        let p = dm.predict_pair(&pair(true));
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn loss_decreases_on_repeated_example() {
        let mut dm = DeepMatcher::new(DeepMatcherConfig::default(), 1);
        let ex = pair(true);
        let first = dm.train_pair(&ex);
        let mut last = first;
        for _ in 0..20 {
            last = dm.train_pair(&ex);
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn learns_a_small_clean_dataset() {
        let ds = MagellanDataset::FodorsZagats.load(0.3);
        let mut dm =
            DeepMatcher::new(DeepMatcherConfig { epochs: 4, ..Default::default() }, ds.arity());
        let report = train_pair_model(&mut dm, &ds);
        assert!(report.test_f1 > 0.3, "F1 {}", report.test_f1);
    }

    #[test]
    fn analyzer_reports_clean_graph() {
        let dm = DeepMatcher::new(DeepMatcherConfig::default(), 1);
        let report = dm.analyze(&pair(true));
        assert!(report.is_clean(), "{report}");
        assert!(report.node_count > 0);
    }

    #[test]
    fn missing_attributes_are_handled() {
        let l = Entity::new("l", vec![("title".into(), "".into())]);
        let r = Entity::new("r", vec![("title".into(), "x".into())]);
        let dm = DeepMatcher::new(DeepMatcherConfig::default(), 1);
        let p = dm.predict_pair(&EntityPair::new(l, r, false));
        assert!(p.is_finite());
    }
}
