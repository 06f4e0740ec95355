//! Whole-graph GNN layers over neighbor lists (used by the GCN / GAT / HGAT
//! baselines of Table 7).

use crate::attn::GAT_SLOPE;
use hiergat_nn::{Linear, ParamId, ParamStore, Tape, Var};
use hiergat_tensor::Tensor;
use rand::Rng;

/// A GCN layer: `H' = act(D^{-1/2} (A + I) D^{-1/2} H W)` with the
/// normalized adjacency built once per graph.
pub struct GcnLayer {
    w: Linear,
}

impl GcnLayer {
    /// Registers the layer's projection.
    pub fn new(
        ps: &mut ParamStore,
        prefix: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self { w: Linear::new(ps, &format!("{prefix}.w"), d_in, d_out, true, rng) }
    }

    /// Builds the dense symmetric-normalized adjacency with self-loops.
    pub fn normalized_adjacency(adj: &[Vec<usize>]) -> Tensor {
        let n = adj.len();
        let mut a = Tensor::zeros(n, n);
        for (u, nbrs) in adj.iter().enumerate() {
            a.set(u, u, 1.0);
            for &v in nbrs {
                a.set(u, v, 1.0);
            }
        }
        let mut deg = vec![0.0f32; n];
        for (u, d) in deg.iter_mut().enumerate() {
            *d = a.row(u).iter().sum::<f32>().max(1.0);
        }
        for u in 0..n {
            for v in 0..n {
                let val = a.get(u, v);
                if val != 0.0 {
                    a.set(u, v, val / (deg[u].sqrt() * deg[v].sqrt()));
                }
            }
        }
        a
    }

    /// Applies the layer. `norm_adj` is the recorded output of
    /// [`Self::normalized_adjacency`]; layers over one graph share it.
    pub fn forward(&self, t: &mut Tape, ps: &ParamStore, x: Var, norm_adj: Var) -> Var {
        let agg = t.matmul(norm_adj, x);
        let h = self.w.forward(t, ps, agg);
        t.relu(h)
    }
}

/// A (single-head) GAT layer over neighbor lists.
///
/// For each node `i`, attention logits over `j in N(i) ∪ {i}` are
/// `LeakyReLU(a^T [W h_i || W h_j])`; the output is the attention-weighted
/// sum of projected neighbors.
pub struct GatLayer {
    w: Linear,
    a_src: ParamId,
    a_dst: ParamId,
    d_out: usize,
}

impl GatLayer {
    /// Registers the layer parameters.
    pub fn new(
        ps: &mut ParamStore,
        prefix: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = Linear::new(ps, &format!("{prefix}.w"), d_in, d_out, false, rng);
        let a_src = ps.add(format!("{prefix}.a_src"), Tensor::rand_normal(d_out, 1, 0.0, 0.3, rng));
        let a_dst = ps.add(format!("{prefix}.a_dst"), Tensor::rand_normal(d_out, 1, 0.0, 0.3, rng));
        Self { w, a_src, a_dst, d_out }
    }

    /// Applies the layer to node features `x` (`n x d_in`) over `adj`.
    pub fn forward(&self, t: &mut Tape, ps: &ParamStore, x: Var, adj: &[Vec<usize>]) -> Var {
        let n = t.value(x).rows();
        assert_eq!(n, adj.len(), "GatLayer: node count mismatch");
        let wh = self.w.forward(t, ps, x); // n x d_out
        let a_src = t.param(ps, self.a_src);
        let a_dst = t.param(ps, self.a_dst);
        // Per-node scalar scores: s_i = (W h_i) a_src, d_j = (W h_j) a_dst.
        let s = t.matmul(wh, a_src); // n x 1
        let d = t.matmul(wh, a_dst); // n x 1
        let mut out_rows = Vec::with_capacity(n);
        for (i, adj_i) in adj.iter().enumerate().take(n) {
            // Neighborhood incl. self.
            let mut nbrs = vec![i];
            nbrs.extend(adj_i.iter().copied());
            let si = t.row(s, i); // 1 x 1
            let dj = t.gather_rows(d, &nbrs); // k x 1
                                              // logits_j = LeakyReLU(s_i + d_j)
            let si_broadcast = {
                let ones = t.fill(nbrs.len(), 1, 1.0);
                t.matmul(ones, si)
            };
            let logits = t.add(si_broadcast, dj);
            let logits = t.leaky_relu(logits, GAT_SLOPE);
            let lt = t.transpose(logits); // 1 x k
            let att = t.softmax(lt); // 1 x k
            let nh = t.gather_rows(wh, &nbrs); // k x d_out
            out_rows.push(t.matmul(att, nh)); // 1 x d_out
        }
        let merged = t.concat_rows(&out_rows);
        t.relu(merged)
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.d_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_nn::gradcheck::assert_gradients_ok;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_graph(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect()
    }

    #[test]
    fn gcn_normalized_adjacency_rows() {
        let a = GcnLayer::normalized_adjacency(&path_graph(3));
        assert_eq!(a.shape(), (3, 3));
        // Symmetric.
        for i in 0..3 {
            for j in 0..3 {
                assert!((a.get(i, j) - a.get(j, i)).abs() < 1e-6);
            }
        }
        // Self-loops present.
        assert!(a.get(0, 0) > 0.0);
        // Non-edges stay zero.
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn gcn_forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let layer = GcnLayer::new(&mut ps, "gcn", 4, 6, &mut rng);
        let adj = path_graph(5);
        let mut t = Tape::new();
        let na = t.input(GcnLayer::normalized_adjacency(&adj));
        let x = t.input(Tensor::rand_normal(5, 4, 0.0, 1.0, &mut rng));
        let y = layer.forward(&mut t, &ps, x, na);
        assert_eq!(t.value(y).shape(), (5, 6));
    }

    #[test]
    fn gat_forward_shape_and_isolated_nodes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let layer = GatLayer::new(&mut ps, "gat", 4, 5, &mut rng);
        // Graph with an isolated node (only self-loop in attention).
        let adj = vec![vec![1], vec![0], vec![]];
        let mut t = Tape::new();
        let x = t.input(Tensor::rand_normal(3, 4, 0.0, 1.0, &mut rng));
        let y = layer.forward(&mut t, &ps, x, &adj);
        assert_eq!(t.value(y).shape(), (3, 5));
        assert_eq!(layer.d_out(), 5);
    }

    #[test]
    fn gcn_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let layer = GcnLayer::new(&mut ps, "gcn", 3, 3, &mut rng);
        let adj = path_graph(4);
        let na = GcnLayer::normalized_adjacency(&adj);
        let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let xv = t.input(x.clone());
                let na = t.input(na.clone());
                let y = layer.forward(t, ps, xv, na);
                t.mean_all(y)
            },
            1e-3,
            3e-2,
        );
    }

    #[test]
    fn gat_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let layer = GatLayer::new(&mut ps, "gat", 3, 3, &mut rng);
        let adj = path_graph(3);
        let x = Tensor::rand_normal(3, 3, 0.0, 1.0, &mut rng);
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let xv = t.input(x.clone());
                let y = layer.forward(t, ps, xv, &adj);
                t.mean_all(y)
            },
            1e-3,
            4e-2,
        );
    }
}
