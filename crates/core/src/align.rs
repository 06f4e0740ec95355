//! Entity alignment layer (§5.2.3, Eq. 5) for collective ER.
//!
//! Linking a query with N candidates in one HHG lets common, unimportant
//! tokens inflate similarity. The alignment layer learns attention over the
//! related entities and subtracts the attended (projected) embeddings as a
//! residual correction:
//!
//! `h_j = softmax(LeakyReLU(c^T W (v_i || v_j)))`,
//! `v̂_i = v_i - W_v Σ_j h_j v_j`.

use hiergat_graph::GAT_SLOPE;
use hiergat_nn::{Linear, Memo, ParamId, ParamStore, Tape, Var};
use hiergat_tensor::Tensor;
use rand::Rng;

/// The entity alignment layer.
pub struct AlignLayer {
    /// Projection of the pair feature `(v_i || v_j)` for attention logits.
    w_att: Linear,
    /// Attention vector `c`.
    c: ParamId,
    /// Projection applied to the attended neighbor sum before subtraction.
    w_val: Linear,
    d_entity: usize,
}

impl AlignLayer {
    /// Registers parameters. `d_entity` is the entity embedding width
    /// (`arity x d_model`).
    pub fn new(ps: &mut ParamStore, prefix: &str, d_entity: usize, rng: &mut impl Rng) -> Self {
        let hidden = d_entity.clamp(8, 64);
        Self {
            w_att: Linear::new(ps, &format!("{prefix}.w_att"), 2 * d_entity, hidden, false, rng),
            c: ps.add(format!("{prefix}.c"), Tensor::rand_normal(hidden, 1, 0.0, 0.3, rng)),
            w_val: Linear::new(ps, &format!("{prefix}.w_val"), d_entity, d_entity, false, rng),
            d_entity,
        }
    }

    /// Applies Eq. 5 to every entity given the entity-entity edges of the
    /// HHG. Entities without neighbors pass through unchanged. In an
    /// eval-mode graph (`train == false`), entities with the same embedding
    /// and neighbour nodes share one aligned row.
    pub fn align(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        entity_embs: &[Var],
        edges: &[(usize, usize)],
        train: bool,
    ) -> Vec<Var> {
        let n = entity_embs.len();
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
        let (mut stacked, mut aligned) = (Memo::new(!train), Memo::new(!train));
        (0..n)
            .map(|i| {
                if neighbors[i].is_empty() {
                    return entity_embs[i];
                }
                let v_i = entity_embs[i];
                // Stack neighbor embeddings and the pair features.
                let nbr_rows: Vec<Var> = neighbors[i].iter().map(|&j| entity_embs[j]).collect();
                let nbrs = stacked.get_or_record(nbr_rows, |rows| t.concat_rows(rows)); // k x D
                aligned.get_or_record((v_i, nbrs), |_| self.align_one(t, ps, v_i, nbrs))
            })
            .collect()
    }

    /// Eq. 5 for one entity `v_i` over its stacked neighbours `nbrs`.
    fn align_one(&self, t: &mut Tape, ps: &ParamStore, v_i: Var, nbrs: Var) -> Var {
        let k = t.value(nbrs).rows();
        let ones = t.fill(k, 1, 1.0);
        let vi_rows = t.matmul(ones, v_i); // k x D
        let feats = t.concat_cols(&[vi_rows, nbrs]); // k x 2D
        let proj = self.w_att.forward(t, ps, feats); // k x hidden
        let cv = t.param(ps, self.c);
        let logits = t.matmul(proj, cv); // k x 1
        let logits = t.leaky_relu(logits, GAT_SLOPE);
        let lt = t.transpose(logits); // 1 x k
        let h = t.softmax(lt); // 1 x k
        let attended = t.matmul(h, nbrs); // 1 x D
        let projected = self.w_val.forward(t, ps, attended);
        t.sub(v_i, projected)
    }

    /// Entity embedding width.
    pub fn d_entity(&self) -> usize {
        self.d_entity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, AlignLayer, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let layer = AlignLayer::new(&mut ps, "align", 16, &mut rng);
        (ps, layer, rng)
    }

    #[test]
    fn preserves_shapes_and_count() {
        let (ps, layer, mut rng) = setup();
        let mut t = Tape::new();
        let embs: Vec<Var> =
            (0..4).map(|_| t.input(Tensor::rand_normal(1, 16, 0.0, 1.0, &mut rng))).collect();
        let edges = vec![(0, 1), (0, 2), (0, 3)];
        let aligned = layer.align(&mut t, &ps, &embs, &edges, false);
        assert_eq!(aligned.len(), 4);
        for a in &aligned {
            assert_eq!(t.value(*a).shape(), (1, 16));
        }
        assert_eq!(layer.d_entity(), 16);
    }

    #[test]
    fn isolated_entities_pass_through() {
        let (ps, layer, mut rng) = setup();
        let mut t = Tape::new();
        let embs: Vec<Var> =
            (0..3).map(|_| t.input(Tensor::rand_normal(1, 16, 0.0, 1.0, &mut rng))).collect();
        let aligned = layer.align(&mut t, &ps, &embs, &[(0, 1)], false);
        // Entity 2 has no edges: unchanged.
        assert!(t.value(aligned[2]).allclose(t.value(embs[2]), 0.0));
        // Entities 0 and 1 are modified.
        assert!(!t.value(aligned[0]).allclose(t.value(embs[0]), 1e-6));
    }

    #[test]
    fn alignment_subtracts_shared_component() {
        // Two identical embeddings linked together: alignment must move
        // them apart from the original (removing redundant information).
        let (ps, layer, _) = setup();
        let mut t = Tape::new();
        let shared = Tensor::full(1, 16, 1.0);
        let a = t.input(shared.clone());
        let b = t.input(shared.clone());
        let aligned = layer.align(&mut t, &ps, &[a, b], &[(0, 1)], false);
        let diff = t.value(aligned[0]).sub(&shared);
        assert!(diff.norm() > 0.0, "alignment must change the embedding");
        // Symmetric inputs yield symmetric outputs.
        assert!(t.value(aligned[0]).allclose(t.value(aligned[1]), 1e-5));
    }

    #[test]
    fn gradients_flow_through_alignment() {
        let (mut ps, layer, mut rng) = setup();
        let x0 = Tensor::rand_normal(1, 16, 0.0, 1.0, &mut rng);
        let x1 = Tensor::rand_normal(1, 16, 0.0, 1.0, &mut rng);
        hiergat_nn::gradcheck::assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let a = t.input(x0.clone());
                let b = t.input(x1.clone());
                let aligned = layer.align(t, ps, &[a, b], &[(0, 1)], true);
                let cat = t.concat_rows(&aligned);
                t.mean_all(cat)
            },
            1e-3,
            4e-2,
        );
    }
}
