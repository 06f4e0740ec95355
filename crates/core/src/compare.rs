//! Hierarchical comparison (§5.2): attribute comparison and entity
//! comparison with the three multi-view combiners of Table 10.

use crate::config::ViewCombiner;
use hiergat_graph::GraphAttn;
use hiergat_lm::MiniLm;
use hiergat_nn::{Linear, ParamStore, Tape, Var};
use hiergat_text::Special;
use rand::Rng;

/// Attribute comparison layer (§5.2.1).
///
/// Encodes `[CLS] e1.v_k [SEP] e2.v_k [SEP]` with the pre-trained
/// Transformer and combines the `[CLS]` row with explicit elementwise
/// comparison features `|a1 - a2|` and `a1 ⊙ a2` through a learned
/// projection. Full-size BERT models carry comparison circuits from massive
/// pre-training; the miniature LMs cannot learn them from hundreds of
/// labeled pairs, so the comparison primitive is supplied in the head — a
/// standard sentence-pair head design (InferSent/SBERT) documented in
/// DESIGN.md.
pub struct AttributeComparer {
    proj: Linear,
}

impl AttributeComparer {
    /// Registers the comparison projection (`3d -> d`).
    pub fn new(ps: &mut ParamStore, prefix: &str, d_model: usize, rng: &mut impl Rng) -> Self {
        Self { proj: Linear::new(ps, &format!("{prefix}.proj"), 3 * d_model, d_model, true, rng) }
    }

    /// Computes the attribute similarity embedding `S_k` (`1 x d`).
    pub fn similarity(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        lm: &MiniLm,
        a1: Var,
        a2: Var,
        train: bool,
        rng: &mut impl Rng,
    ) -> Var {
        let cls = lm.special_embedding(t, ps, Special::Cls, train);
        let sep = lm.special_embedding(t, ps, Special::Sep, train);
        let seq = t.concat_rows(&[cls, a1, sep, a2, sep]);
        let encoded = lm.encode_embedded(t, ps, seq, train, rng);
        let cls_row = t.row(encoded, 0);
        let diff = abs_diff(t, a1, a2);
        let prod = t.mul(a1, a2);
        let feats = t.concat_cols(&[cls_row, diff, prod]);
        self.proj.forward(t, ps, feats)
    }
}

/// `|a - b|` built from ReLU primitives.
pub fn abs_diff(t: &mut Tape, a: Var, b: Var) -> Var {
    let d = t.sub(a, b);
    let pos = t.relu(d);
    let nd = t.scale(d, -1.0);
    let neg = t.relu(nd);
    t.add(pos, neg)
}

/// Free-function form of the attribute comparison used by tests and the
/// explanation module; equivalent to [`AttributeComparer::similarity`] with
/// the model's registered comparer.
pub fn attribute_similarity(
    t: &mut Tape,
    ps: &ParamStore,
    lm: &MiniLm,
    comparer: &AttributeComparer,
    a1: Var,
    a2: Var,
    train: bool,
    rng: &mut impl Rng,
) -> Var {
    comparer.similarity(t, ps, lm, a1, a2, train, rng)
}

/// Entity comparison layer (§5.2.2): combines the per-attribute similarity
/// embeddings into one entity similarity embedding.
pub struct EntityComparison {
    combiner: ViewCombiner,
    /// Structural attention of Eq. 4 (features `(v_l || v_r || S_k)`).
    attn_with_ctx: GraphAttn,
    /// Variant used when entity summarization context is ablated
    /// (Table 11 "Non-Sum"): attention over `S_k` alone.
    attn_no_ctx: GraphAttn,
    /// Shared latent projection for the SharedSpace combiner.
    shared: Linear,
    d_model: usize,
}

impl EntityComparison {
    /// Registers parameters. `arity` is the number of compared attributes
    /// (the entity embedding width is `arity x d`).
    pub fn new(
        ps: &mut ParamStore,
        prefix: &str,
        d_model: usize,
        arity: usize,
        combiner: ViewCombiner,
        rng: &mut impl Rng,
    ) -> Self {
        let ctx_dim = 2 * arity * d_model + d_model;
        Self {
            combiner,
            attn_with_ctx: GraphAttn::new(ps, &format!("{prefix}.attn_ctx"), ctx_dim, d_model, rng),
            attn_no_ctx: GraphAttn::new(ps, &format!("{prefix}.attn_plain"), d_model, d_model, rng),
            shared: Linear::new(ps, &format!("{prefix}.shared"), d_model, d_model, true, rng),
            d_model,
        }
    }

    /// Combines attribute similarity rows `sims` (each `1 x d`) into the
    /// entity similarity embedding (`1 x d`).
    ///
    /// `entity_ctx` is the concatenated pair embedding `(v_l || v_r)`
    /// (`1 x 2 arity d`); pass `None` for the Non-Sum ablation.
    pub fn combine(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        sims: &[Var],
        entity_ctx: Option<Var>,
    ) -> Var {
        assert!(!sims.is_empty(), "combine: no attribute similarities");
        let stacked = t.concat_rows(sims); // K x d
        match self.combiner {
            ViewCombiner::ViewAverage => t.mean_rows(stacked),
            ViewCombiner::SharedSpace => {
                let mapped = self.shared.forward(t, ps, stacked);
                let mapped = t.tanh(mapped);
                t.mean_rows(mapped)
            }
            ViewCombiner::WeightAverage => match entity_ctx {
                Some(ctx) => {
                    let k = sims.len();
                    let ones = t.fill(k, 1, 1.0);
                    let ctx_rows = t.matmul(ones, ctx); // K x 2Ad
                    let features = t.concat_cols(&[ctx_rows, stacked]); // K x (2Ad + d)
                    self.attn_with_ctx.forward_ctx(t, ps, features, stacked)
                }
                None => self.attn_no_ctx.forward_ctx(t, ps, stacked, stacked),
            },
        }
    }

    /// The structural-attention weights over attributes (for Figure 9).
    pub fn attribute_weights(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        sims: &[Var],
        entity_ctx: Option<Var>,
    ) -> Vec<f32> {
        let stacked = t.concat_rows(sims);
        let att = match entity_ctx {
            Some(ctx) => {
                let k = sims.len();
                let ones = t.fill(k, 1, 1.0);
                let ctx_rows = t.matmul(ones, ctx);
                let features = t.concat_cols(&[ctx_rows, stacked]);
                self.attn_with_ctx.attention(t, ps, features)
            }
            None => self.attn_no_ctx.attention(t, ps, stacked),
        };
        t.value(att).as_slice().to_vec()
    }

    /// Output width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ViewCombiner;
    use hiergat_lm::LmTier;
    use hiergat_nn::Tape;
    use hiergat_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(combiner: ViewCombiner) -> (ParamStore, MiniLm, EntityComparison, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lm = MiniLm::new(&mut ps, LmTier::MiniDistil.config(), &mut rng);
        let cmp = EntityComparison::new(&mut ps, "cmp", 32, 3, combiner, &mut rng);
        (ps, lm, cmp, rng)
    }

    #[test]
    fn attribute_similarity_shape() {
        let (mut ps, lm, _, mut rng) = setup(ViewCombiner::WeightAverage);
        let comparer = AttributeComparer::new(&mut ps, "ac", 32, &mut rng);
        let mut t = Tape::new();
        let a1 = t.input(Tensor::rand_normal(1, 32, 0.0, 1.0, &mut rng));
        let a2 = t.input(Tensor::rand_normal(1, 32, 0.0, 1.0, &mut rng));
        let s = attribute_similarity(&mut t, &ps, &lm, &comparer, a1, a2, false, &mut rng);
        assert_eq!(t.value(s).shape(), (1, 32));
    }

    #[test]
    fn identical_attributes_zero_the_diff_features() {
        let (mut ps, lm, _, mut rng) = setup(ViewCombiner::WeightAverage);
        let comparer = AttributeComparer::new(&mut ps, "ac", 32, &mut rng);
        let mut t = Tape::new();
        let a = t.input(Tensor::rand_normal(1, 32, 0.0, 1.0, &mut rng));
        let d = abs_diff(&mut t, a, a);
        assert!(t.value(d).allclose(&Tensor::zeros(1, 32), 1e-7));
        let s = comparer.similarity(&mut t, &ps, &lm, a, a, false, &mut rng);
        assert!(!t.value(s).has_non_finite());
    }

    #[test]
    fn all_combiners_produce_same_shape() {
        for combiner in
            [ViewCombiner::ViewAverage, ViewCombiner::SharedSpace, ViewCombiner::WeightAverage]
        {
            let (ps, _, cmp, mut rng) = setup(combiner);
            let mut t = Tape::new();
            let sims: Vec<_> =
                (0..3).map(|_| t.input(Tensor::rand_normal(1, 32, 0.0, 1.0, &mut rng))).collect();
            let ctx = t.input(Tensor::rand_normal(1, 2 * 3 * 32, 0.0, 1.0, &mut rng));
            let out = cmp.combine(&mut t, &ps, &sims, Some(ctx));
            assert_eq!(t.value(out).shape(), (1, 32), "{combiner:?}");
        }
    }

    #[test]
    fn view_average_is_exact_mean() {
        let (ps, _, cmp, _) = setup(ViewCombiner::ViewAverage);
        let mut t = Tape::new();
        let a = t.input(Tensor::full(1, 32, 1.0));
        let b = t.input(Tensor::full(1, 32, 3.0));
        let out = cmp.combine(&mut t, &ps, &[a, b], None);
        assert!(t.value(out).allclose(&Tensor::full(1, 32, 2.0), 1e-6));
    }

    #[test]
    fn weight_average_without_ctx_uses_plain_attention() {
        let (ps, _, cmp, mut rng) = setup(ViewCombiner::WeightAverage);
        let mut t = Tape::new();
        let sims: Vec<_> =
            (0..4).map(|_| t.input(Tensor::rand_normal(1, 32, 0.0, 1.0, &mut rng))).collect();
        let out = cmp.combine(&mut t, &ps, &sims, None);
        assert_eq!(t.value(out).shape(), (1, 32));
        let weights = cmp.attribute_weights(&mut t, &ps, &sims, None);
        assert_eq!(weights.len(), 4);
        assert!((weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "no attribute similarities")]
    fn empty_sims_panics() {
        let (ps, _, cmp, _) = setup(ViewCombiner::ViewAverage);
        let mut t = Tape::new();
        cmp.combine(&mut t, &ps, &[], None);
    }
}
