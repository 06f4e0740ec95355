//! GNN baselines for collective ER (Table 7): GCN, GAT, and HGAT.
//!
//! GCN and GAT treat the HHG as a homogeneous graph (tokens, attributes,
//! and entities all alike) and propagate two layers. HGAT respects the
//! hierarchy: one graph-attention hop tokens -> attribute, a second
//! attributes -> entity — the ablation the paper uses to show the value of
//! hierarchical modeling (§6.4).

use crate::traits::CollectiveErModel;
use hiergat_data::CollectiveExample;
use hiergat_graph::{GatLayer, GcnLayer, GraphAttn, Hhg};
use hiergat_nn::{Adam, Linear, Optimizer, ParamStore, Tape, Var};
use hiergat_tensor::Tensor;
use hiergat_text::HashVocab;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which GNN architecture to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnnKind {
    /// Spectral graph convolution over the homogeneous HHG.
    Gcn,
    /// Neighbor attention over the homogeneous HHG.
    Gat,
    /// Hierarchical GAT: tokens -> attributes -> entities.
    Hgat,
}

impl GnnKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Gcn => "GCN",
            Self::Gat => "GAT",
            Self::Hgat => "HGAT",
        }
    }
}

/// GNN baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct GnnConfig {
    /// Embedding / hidden width.
    pub d: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for GnnConfig {
    fn default() -> Self {
        Self { d: 32, epochs: 10, lr: 1e-3, seed: 0x6e47 }
    }
}

enum Layers {
    Gcn(GcnLayer, GcnLayer),
    Gat(GatLayer, GatLayer),
    Hgat(GraphAttn, GraphAttn),
}

/// A collective GNN baseline model.
pub struct GnnCollective {
    cfg: GnnConfig,
    kind: GnnKind,
    ps: ParamStore,
    vocab: HashVocab,
    emb: hiergat_nn::ParamId,
    layers: Layers,
    cls_hidden: Linear,
    cls_out: Linear,
    opt: Adam,
}

impl GnnCollective {
    /// Builds a GCN / GAT / HGAT collective model.
    pub fn new(kind: GnnKind, cfg: GnnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ps = ParamStore::new();
        let vocab = HashVocab::new(2048);
        let emb = ps.add("gnn.emb", Tensor::rand_normal(2048, cfg.d, 0.0, 0.1, &mut rng));
        let layers = match kind {
            GnnKind::Gcn => Layers::Gcn(
                GcnLayer::new(&mut ps, "gnn.l1", cfg.d, cfg.d, &mut rng),
                GcnLayer::new(&mut ps, "gnn.l2", cfg.d, cfg.d, &mut rng),
            ),
            GnnKind::Gat => Layers::Gat(
                GatLayer::new(&mut ps, "gnn.l1", cfg.d, cfg.d, &mut rng),
                GatLayer::new(&mut ps, "gnn.l2", cfg.d, cfg.d, &mut rng),
            ),
            GnnKind::Hgat => Layers::Hgat(
                GraphAttn::new(&mut ps, "gnn.tok2attr", cfg.d, cfg.d, &mut rng),
                GraphAttn::new(&mut ps, "gnn.attr2ent", cfg.d, cfg.d, &mut rng),
            ),
        };
        let cls_hidden = Linear::new(&mut ps, "gnn.cls_hidden", 3 * cfg.d, cfg.d, true, &mut rng);
        let cls_out = Linear::new(&mut ps, "gnn.cls_out", cfg.d, 2, true, &mut rng);
        let opt = Adam::new(cfg.lr);
        Self { cfg, kind, ps, vocab, emb, layers, cls_hidden, cls_out, opt }
    }

    /// Architecture kind.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Mean of gathered rows (helper for node-feature initialization).
    fn mean_rows_of(&self, t: &mut Tape, src: Var, idx: &[usize]) -> Var {
        if idx.is_empty() {
            return t.input(Tensor::zeros(1, self.cfg.d));
        }
        let rows = t.gather_rows(src, idx);
        let sum = t.sum_rows(rows);
        t.scale(sum, 1.0 / idx.len() as f32)
    }

    /// Computes entity representations (one `1 x d` row per entity).
    fn entity_reprs(&self, t: &mut Tape, g: &Hhg) -> Vec<Var> {
        let ids: Vec<usize> = g.tokens.iter().map(|tok| self.vocab.id(tok)).collect();
        let table = t.param(&self.ps, self.emb);
        let tok_feats = t.gather_rows(table, &ids);

        match &self.layers {
            Layers::Hgat(tok2attr, attr2ent) => {
                // Hierarchical: attribute embeddings, then entity embeddings.
                let attr_embs: Vec<Var> = g
                    .attributes
                    .iter()
                    .map(|a| {
                        if a.token_seq.is_empty() {
                            t.input(Tensor::zeros(1, self.cfg.d))
                        } else {
                            let v = t.gather_rows(tok_feats, &a.token_seq);
                            tok2attr.forward(t, &self.ps, v)
                        }
                    })
                    .collect();
                g.entities
                    .iter()
                    .map(|e| {
                        let rows: Vec<Var> = e.attr_nodes.iter().map(|&ai| attr_embs[ai]).collect();
                        let stacked = t.concat_rows(&rows);
                        attr2ent.forward(t, &self.ps, stacked)
                    })
                    .collect()
            }
            _ => {
                // Homogeneous: initialize attr/entity node features as means
                // of their children, then run two layers.
                let adj = g.homogeneous_adjacency();
                let attr_rows: Vec<Var> = g
                    .attributes
                    .iter()
                    .map(|a| self.mean_rows_of(t, tok_feats, &a.token_seq))
                    .collect();
                let nt = g.n_tokens();
                let entity_rows: Vec<Var> = g
                    .entities
                    .iter()
                    .map(|e| {
                        let idx: Vec<usize> = (0..e.attr_nodes.len()).collect();
                        let rows: Vec<Var> =
                            idx.iter().map(|&i| attr_rows[e.attr_nodes[i]]).collect();
                        let stacked = t.concat_rows(&rows);
                        let sum = t.sum_rows(stacked);
                        t.scale(sum, 1.0 / rows.len().max(1) as f32)
                    })
                    .collect();
                let mut parts: Vec<Var> = vec![tok_feats];
                parts.extend(attr_rows);
                parts.extend(entity_rows);
                let x = t.concat_rows(&parts);
                let h = match &self.layers {
                    Layers::Gcn(l1, l2) => {
                        let na = GcnLayer::normalized_adjacency(&adj);
                        let h = l1.forward(t, &self.ps, x, &na);
                        l2.forward(t, &self.ps, h, &na)
                    }
                    Layers::Gat(l1, l2) => {
                        let h = l1.forward(t, &self.ps, x, &adj);
                        l2.forward(t, &self.ps, h, &adj)
                    }
                    Layers::Hgat(..) => unreachable!("handled above"),
                };
                let base = nt + g.n_attributes();
                (0..g.n_entities()).map(|i| t.row(h, base + i)).collect()
            }
        }
    }

    fn forward(&self, t: &mut Tape, ex: &CollectiveExample) -> Var {
        let mut entities = Vec::with_capacity(1 + ex.candidates.len());
        entities.push(ex.query.clone());
        entities.extend(ex.candidates.iter().cloned());
        let g = Hhg::from_entities(&entities);
        let reprs = self.entity_reprs(t, &g);
        let q = reprs[0];
        let mut rows = Vec::with_capacity(ex.candidates.len());
        for ci in 0..ex.candidates.len() {
            let c = reprs[ci + 1];
            let diff = {
                let d = t.sub(q, c);
                let pos = t.relu(d);
                let nd = t.scale(d, -1.0);
                let neg = t.relu(nd);
                t.add(pos, neg)
            };
            let feats = t.concat_cols(&[q, c, diff]);
            let h = self.cls_hidden.forward(t, &self.ps, feats);
            let h = t.relu(h);
            rows.push(self.cls_out.forward(t, &self.ps, h));
        }
        t.concat_rows(&rows)
    }

    /// Statically analyzes the training graph for `ex` on a deferred tape
    /// (no kernels run): shape inference, parameter reachability, node
    /// liveness, plus HHG builder validation.
    pub fn analyze(&self, ex: &CollectiveExample) -> hiergat_nn::GraphReport {
        let mut t = Tape::inference();
        let logits = self.forward(&mut t, ex);
        let targets: Vec<usize> = ex.labels.iter().map(|&l| usize::from(l)).collect();
        let weights = vec![1.0; targets.len()];
        let loss = t.weighted_cross_entropy_logits(logits, &targets, &weights);
        let mut report = hiergat_nn::analyze_graph(&t, loss, &self.ps);
        let mut entities = Vec::with_capacity(1 + ex.candidates.len());
        entities.push(ex.query.clone());
        entities.extend(ex.candidates.iter().cloned());
        report.graph_issues.extend(Hhg::from_entities(&entities).validate());
        report
    }

    /// Runs the [`hiergat_nn::lint_graph`] rule engine over the training
    /// graph (deferred tape, training mode).
    pub fn lint(&self, ex: &CollectiveExample) -> hiergat_nn::LintReport {
        let mut t = Tape::inference();
        let logits = self.forward(&mut t, ex);
        let targets: Vec<usize> = ex.labels.iter().map(|&l| usize::from(l)).collect();
        let weights = vec![1.0; targets.len()];
        let loss = t.weighted_cross_entropy_logits(logits, &targets, &weights);
        hiergat_nn::lint_graph(&t, loss, &self.ps, &hiergat_nn::LintConfig::training())
    }

    /// Records the eval-mode scoring graph onto `t` — exactly the graph
    /// [`CollectiveErModel::predict_example`] evaluates (the GNN baselines
    /// have no dropout, so eval and train graphs coincide) — and returns the
    /// `n_candidates x 2` probability node.
    pub fn record_example_scores(&self, t: &mut Tape, ex: &CollectiveExample) -> Var {
        let logits = self.forward(t, ex);
        t.softmax(logits)
    }
}

impl CollectiveErModel for GnnCollective {
    fn train_example(&mut self, ex: &CollectiveExample) -> f32 {
        self.train_example_weighted(ex, 1.0)
    }

    fn train_example_weighted(&mut self, ex: &CollectiveExample, weight: f32) -> f32 {
        // Clearing at the start (rather than after the optimizer step) leaves
        // the step's clipped gradients observable to callers and tests.
        self.ps.zero_grad();
        let mut t = Tape::new();
        let logits = self.forward(&mut t, ex);
        let targets: Vec<usize> = ex.labels.iter().map(|&l| usize::from(l)).collect();
        let weights: Vec<f32> = ex.labels.iter().map(|&l| if l { weight } else { 1.0 }).collect();
        let loss = t.weighted_cross_entropy_logits(logits, &targets, &weights);
        let val = t.value(loss).item();
        t.backward(loss, &mut self.ps);
        self.ps.clip_grad_norm(5.0);
        self.opt.step(&mut self.ps);
        val
    }

    fn predict_example(&self, ex: &CollectiveExample) -> Vec<f32> {
        let mut t = Tape::new();
        let probs = self.record_example_scores(&mut t, ex);
        (0..ex.candidates.len()).map(|i| t.value(probs).get(i, 1)).collect()
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

    fn example() -> CollectiveExample {
        let q = Entity::new("q", vec![("t".into(), "canon eos camera".into())]);
        let c1 = Entity::new("c1", vec![("t".into(), "canon eos camera body".into())]);
        let c2 = Entity::new("c2", vec![("t".into(), "leather watch band".into())]);
        CollectiveExample::new(q, vec![c1, c2], vec![true, false])
    }

    #[test]
    fn lint_passes_at_deny_warn_for_all_kinds() {
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Hgat] {
            let m = GnnCollective::new(kind, GnnConfig::default());
            let report = m.lint(&example());
            assert!(
                report.is_clean_at(hiergat_nn::Severity::Warn),
                "{} graph must lint clean:\n{report}",
                kind.name()
            );
        }
    }

    #[test]
    fn all_kinds_predict_probabilities() {
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Hgat] {
            let m = GnnCollective::new(kind, GnnConfig::default());
            let probs = m.predict_example(&example());
            assert_eq!(probs.len(), 2, "{}", kind.name());
            assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
            assert_eq!(m.kind(), kind);
        }
    }

    #[test]
    fn training_reduces_loss() {
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Hgat] {
            let mut m = GnnCollective::new(kind, GnnConfig::default());
            let ex = example();
            let first = m.train_example(&ex);
            let mut last = first;
            for _ in 0..20 {
                last = m.train_example(&ex);
            }
            assert!(last < first, "{}: {first} -> {last}", kind.name());
        }
    }

    #[test]
    fn analyzer_reports_clean_graph_for_all_kinds() {
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Hgat] {
            let m = GnnCollective::new(kind, GnnConfig::default());
            let report = m.analyze(&example());
            assert!(report.is_clean(), "{}: {report}", kind.name());
            assert!(report.node_count > 0);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(GnnKind::Gcn.name(), "GCN");
        assert_eq!(GnnKind::Gat.name(), "GAT");
        assert_eq!(GnnKind::Hgat.name(), "HGAT");
    }
}
