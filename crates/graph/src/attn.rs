//! The `GraphAttn` operator of the paper (Eq. 1-3).
//!
//! `GraphAttn(c, W, V) · V` computes attention weights
//! `h = softmax(LeakyReLU((V W) c))` over the rows of `V` and returns the
//! weighted sum `h^T V` — the vanilla graph-attention aggregation the paper
//! uses for attribute-level and entity-level context.

use hiergat_nn::{Linear, ParamId, ParamStore, Tape, Var};
use hiergat_tensor::Tensor;
use rand::Rng;

/// The LeakyReLU slope used by GAT-style attention.
pub const GAT_SLOPE: f32 = 0.2;

/// One graph-attention aggregator with learnable `W` (projection) and `c`
/// (attention vector).
pub struct GraphAttn {
    w: Linear,
    c: ParamId,
}

impl GraphAttn {
    /// Registers parameters. `d_in` is the feature width of the attended
    /// rows; attention logits are computed in the projected `d_out` space.
    pub fn new(
        ps: &mut ParamStore,
        prefix: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = Linear::new(ps, &format!("{prefix}.w"), d_in, d_out, false, rng);
        let c = ps.add(format!("{prefix}.c"), Tensor::rand_normal(d_out, 1, 0.0, 0.3, rng));
        Self { w, c }
    }

    /// Attention weights over the rows of `features` (an `n x 1` column).
    pub fn attention(&self, t: &mut Tape, ps: &ParamStore, features: Var) -> Var {
        let projected = self.w.forward(t, ps, features);
        // The nonlinearity must sit between the projection and the scalar
        // collapse: `c^T tanh(W f)`. With the affine form `LeakyReLU(c^T W f)`
        // a feature component that is constant across rows (the replicated
        // entity context of Eq. 3) shifts every logit equally and cancels in
        // the softmax, silencing the context input entirely.
        let projected = t.tanh(projected);
        let cv = t.param(ps, self.c);
        let scores = t.matmul(projected, cv); // n x 1
        let scores = t.leaky_relu(scores, GAT_SLOPE);
        // Softmax over the n rows: transpose to 1 x n, row-softmax, back.
        let row = t.transpose(scores);
        let sm = t.softmax(row);
        t.transpose(sm)
    }

    /// Aggregates `values` with attention computed from the same rows:
    /// returns `h^T values` (`1 x F`). This is Eq. 1 / Eq. 2.
    pub fn forward(&self, t: &mut Tape, ps: &ParamStore, values: Var) -> Var {
        self.forward_ctx(t, ps, values, values)
    }

    /// Aggregates `values` with attention computed from separate `features`
    /// rows (Eq. 3, where attention features are `(\bar{V^a} || C_j^a)` but
    /// the aggregated values are `\bar{V^a}`). `features` and `values` must
    /// have the same number of rows.
    pub fn forward_ctx(&self, t: &mut Tape, ps: &ParamStore, features: Var, values: Var) -> Var {
        assert_eq!(
            t.value(features).rows(),
            t.value(values).rows(),
            "GraphAttn: features/values row mismatch"
        );
        let h = self.attention(t, ps, features); // n x 1
        t.matmul_tn(h, values) // h^T values, 1 x F
    }

    /// Like [`Self::forward`], but also returns a detached copy of the
    /// attention weights for visualization (Figure 9).
    pub fn forward_with_weights(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        values: Var,
    ) -> (Var, Tensor) {
        let h = self.attention(t, ps, values);
        let weights = t.value(h).clone();
        (t.matmul_tn(h, values), weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_nn::gradcheck::assert_gradients_ok;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_convex_combination_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let ga = GraphAttn::new(&mut ps, "ga", 4, 4, &mut rng);
        let mut t = Tape::new();
        let v = t.input(Tensor::rand_normal(5, 4, 0.0, 1.0, &mut rng));
        let out = ga.forward(&mut t, &ps, v);
        assert_eq!(t.value(out).shape(), (1, 4));
        // Output lies within the row-wise min/max envelope (convexity).
        let vals = t.value(v);
        for j in 0..4 {
            let col: Vec<f32> = (0..5).map(|i| vals.get(i, j)).collect();
            let (lo, hi) = col.iter().fold((f32::MAX, f32::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            let o = t.value(out).get(0, j);
            assert!(o >= lo - 1e-5 && o <= hi + 1e-5, "col {j}: {o} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let ga = GraphAttn::new(&mut ps, "ga", 3, 3, &mut rng);
        let mut t = Tape::new();
        let v = t.input(Tensor::rand_normal(7, 3, 0.0, 1.0, &mut rng));
        let (_, w) = ga.forward_with_weights(&mut t, &ps, v);
        assert_eq!(w.shape(), (7, 1));
        assert!((w.sum() - 1.0).abs() < 1e-5);
        assert!(w.as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn ctx_variant_uses_feature_rows_for_attention() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let ga = GraphAttn::new(&mut ps, "ga", 6, 4, &mut rng);
        let mut t = Tape::new();
        let features = t.input(Tensor::rand_normal(3, 6, 0.0, 1.0, &mut rng));
        let values = t.input(Tensor::rand_normal(3, 4, 0.0, 1.0, &mut rng));
        let out = ga.forward_ctx(&mut t, &ps, features, values);
        assert_eq!(t.value(out).shape(), (1, 4));
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn ctx_variant_checks_row_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let ga = GraphAttn::new(&mut ps, "ga", 2, 2, &mut rng);
        let mut t = Tape::new();
        let features = t.input(Tensor::zeros(3, 2));
        let values = t.input(Tensor::zeros(4, 2));
        ga.forward_ctx(&mut t, &ps, features, values);
    }

    #[test]
    fn gradients_flow_through_graph_attention() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParamStore::new();
        let ga = GraphAttn::new(&mut ps, "ga", 3, 3, &mut rng);
        let v = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let vv = t.input(v.clone());
                let out = ga.forward(t, ps, vv);
                t.mean_all(out)
            },
            1e-3,
            3e-2,
        );
    }

    #[test]
    fn single_row_gets_weight_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamStore::new();
        let ga = GraphAttn::new(&mut ps, "ga", 3, 3, &mut rng);
        let mut t = Tape::new();
        let v = t.input(Tensor::rand_normal(1, 3, 0.0, 1.0, &mut rng));
        let (out, w) = ga.forward_with_weights(&mut t, &ps, v);
        assert!((w.get(0, 0) - 1.0).abs() < 1e-6);
        assert!(t.value(out).allclose(t.value(v), 1e-5));
    }
}
