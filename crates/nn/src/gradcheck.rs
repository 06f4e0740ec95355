//! Finite-difference gradient checking.
//!
//! Every backward rule in this workspace is validated by comparing analytic
//! gradients against central finite differences. The checker is exported so
//! downstream crates (`hiergat-graph`, `hiergat`, `hiergat-baselines`) can
//! verify their composite models too.

use crate::params::ParamStore;
use crate::tape::{Tape, Var};

/// Result of a gradient check for a single parameter scalar.
#[derive(Debug, Clone)]
pub struct GradMismatch {
    /// Parameter name.
    pub param: String,
    /// Flat element index inside the parameter tensor.
    pub index: usize,
    /// Analytic gradient from backprop.
    pub analytic: f32,
    /// Central finite-difference estimate.
    pub numeric: f32,
}

/// Compares backprop gradients against central finite differences.
///
/// `build` must construct the full forward computation on the given tape,
/// returning the scalar loss node. It is invoked many times (twice per
/// parameter scalar plus once for the analytic pass), so keep the model
/// small in tests.
///
/// Returns all mismatches where the relative error
/// `|a - n| / max(1, |a|, |n|)` exceeds `tol`.
pub fn check_gradients(
    store: &mut ParamStore,
    mut build: impl FnMut(&mut Tape, &ParamStore) -> Var,
    eps: f32,
    tol: f32,
) -> Vec<GradMismatch> {
    // Analytic pass.
    store.zero_grad();
    let mut tape = Tape::new();
    let loss = build(&mut tape, store);
    tape.backward(loss, store);

    let ids: Vec<_> = store.ids().collect();
    let analytic: Vec<Vec<f32>> =
        ids.iter().map(|&id| store.grad(id).as_slice().to_vec()).collect();

    let mut mismatches = Vec::new();
    for (pi, &id) in ids.iter().enumerate() {
        let n = store.value(id).len();
        for (j, &a) in analytic[pi].iter().enumerate().take(n) {
            let orig = store.value(id).as_slice()[j];

            store.value_mut(id).as_mut_slice()[j] = orig + eps;
            let mut t_plus = Tape::new();
            let l_plus = build(&mut t_plus, store);
            let f_plus = t_plus.value(l_plus).item();

            store.value_mut(id).as_mut_slice()[j] = orig - eps;
            let mut t_minus = Tape::new();
            let l_minus = build(&mut t_minus, store);
            let f_minus = t_minus.value(l_minus).item();

            store.value_mut(id).as_mut_slice()[j] = orig;

            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            if (a - numeric).abs() / denom > tol {
                mismatches.push(GradMismatch {
                    param: store.name(id).to_string(),
                    index: j,
                    analytic: a,
                    numeric,
                });
            }
        }
    }
    mismatches
}

/// Panics with a readable report if any gradient mismatches are found.
pub fn assert_gradients_ok(
    store: &mut ParamStore,
    build: impl FnMut(&mut Tape, &ParamStore) -> Var,
    eps: f32,
    tol: f32,
) {
    let mismatches = check_gradients(store, build, eps, tol);
    assert!(
        mismatches.is_empty(),
        "gradient check failed for {} scalars; first: {:?}",
        mismatches.len(),
        mismatches.first()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seeded(rng_seed: u64) -> StdRng {
        StdRng::seed_from_u64(rng_seed)
    }

    #[test]
    fn linear_chain_passes() {
        let mut rng = seeded(1);
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::rand_normal(3, 2, 0.0, 0.5, &mut rng));
        let b = ps.add("b", Tensor::rand_normal(1, 2, 0.0, 0.5, &mut rng));
        let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let xv = t.input(x.clone());
                let wv = t.param(ps, w);
                let bv = t.param(ps, b);
                let y = t.matmul(xv, wv);
                let y = t.add_row(y, bv);
                let y = t.tanh(y);
                t.mean_all(y)
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn softmax_cross_entropy_passes() {
        let mut rng = seeded(2);
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::rand_normal(4, 3, 0.0, 0.7, &mut rng));
        let x = Tensor::rand_normal(5, 4, 0.0, 1.0, &mut rng);
        let targets = vec![0usize, 2, 1, 2, 0];
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let xv = t.input(x.clone());
                let wv = t.param(ps, w);
                let logits = t.matmul(xv, wv);
                t.cross_entropy_logits(logits, &targets)
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn layer_norm_passes() {
        let mut rng = seeded(3);
        let mut ps = ParamStore::new();
        let gamma = ps.add("gamma", Tensor::rand_normal(1, 4, 1.0, 0.2, &mut rng));
        let beta = ps.add("beta", Tensor::rand_normal(1, 4, 0.0, 0.2, &mut rng));
        let w = ps.add("w", Tensor::rand_normal(4, 4, 0.0, 0.5, &mut rng));
        let x = Tensor::rand_normal(3, 4, 0.0, 1.5, &mut rng);
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let xv = t.input(x.clone());
                let wv = t.param(ps, w);
                let gv = t.param(ps, gamma);
                let bv = t.param(ps, beta);
                let h = t.matmul(xv, wv);
                let h = t.layer_norm(h, gv, bv, 1e-5);
                let h = t.gelu(h);
                t.mean_all(h)
            },
            1e-3,
            3e-2,
        );
    }

    #[test]
    fn attention_like_composition_passes() {
        // softmax(Q K^T) V with all three projected from a parameter.
        let mut rng = seeded(4);
        let mut ps = ParamStore::new();
        let wq = ps.add("wq", Tensor::rand_normal(3, 3, 0.0, 0.5, &mut rng));
        let wk = ps.add("wk", Tensor::rand_normal(3, 3, 0.0, 0.5, &mut rng));
        let wv_p = ps.add("wv", Tensor::rand_normal(3, 3, 0.0, 0.5, &mut rng));
        let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let xv = t.input(x.clone());
                let q = {
                    let w = t.param(ps, wq);
                    t.matmul(xv, w)
                };
                let k = {
                    let w = t.param(ps, wk);
                    t.matmul(xv, w)
                };
                let v = {
                    let w = t.param(ps, wv_p);
                    t.matmul(xv, w)
                };
                let kt = t.transpose(k);
                let scores = t.matmul(q, kt);
                let scores = t.scale(scores, 1.0 / (3.0f32).sqrt());
                let att = t.softmax(scores);
                let out = t.matmul(att, v);
                t.mean_all(out)
            },
            1e-3,
            3e-2,
        );
    }

    #[test]
    fn matmul_nt_passes() {
        // Dedicated check for the fused `A B^T` op used by attention scoring:
        // both operands are parameters so dA = G B and dB = G^T A are exercised.
        let mut rng = seeded(6);
        let mut ps = ParamStore::new();
        let qa = ps.add("q", Tensor::rand_normal(4, 3, 0.0, 0.6, &mut rng));
        let ka = ps.add("k", Tensor::rand_normal(5, 3, 0.0, 0.6, &mut rng));
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let q = t.param(ps, qa);
                let k = t.param(ps, ka);
                let scores = t.matmul_nt(q, k); // 4 x 5
                let att = t.softmax(scores);
                t.mean_all(att)
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn matmul_tn_passes() {
        // Fused `A^T B` (context pooling): dA = B G^T and dB = A G.
        let mut rng = seeded(8);
        let mut ps = ParamStore::new();
        let aa = ps.add("a", Tensor::rand_normal(5, 3, 0.0, 0.6, &mut rng));
        let ba = ps.add("b", Tensor::rand_normal(5, 4, 0.0, 0.6, &mut rng));
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let a = t.param(ps, aa);
                let b = t.param(ps, ba);
                let ctx = t.matmul_tn(a, b); // 3 x 4
                let h = t.tanh(ctx);
                t.mean_all(h)
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn stable_log_sum_exp_chain_passes() {
        // exp / ln / max_cols / div / sqrt composed as a hand-written
        // log-sum-exp with max-subtraction — the exact shape the stability
        // lints push models toward, so its gradients must be right.
        let mut rng = seeded(9);
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::rand_normal(3, 4, 0.0, 0.8, &mut rng));
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let wv = t.param(ps, w);
                let m = t.max_cols(wv); // 3 x 1
                let neg_m = t.scale(m, -1.0);
                let shifted = t.add_col(wv, neg_m);
                let e = t.exp(shifted);
                let z = t.sum_cols(e); // 3 x 1
                let lse = t.ln(z);
                let lse = t.add(lse, m);
                let denom = t.add_scalar(z, 1.0);
                let ratio = t.div(lse, denom);
                let ratio = t.add_scalar(ratio, 4.0); // keep sqrt away from 0
                let r = t.sqrt(ratio);
                t.mean_all(r)
            },
            1e-3,
            3e-2,
        );
    }

    #[test]
    fn log_softmax_matches_fused_backward() {
        let mut rng = seeded(10);
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::rand_normal(4, 3, 0.0, 0.7, &mut rng));
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let wv = t.param(ps, w);
                let lp = t.log_softmax(wv);
                let picked = t.slice_cols(lp, 1, 1);
                let s = t.sum_all(picked);
                let m = t.mul(s, s);
                t.mean_all(m)
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn structural_ops_pass() {
        let mut rng = seeded(5);
        let mut ps = ParamStore::new();
        let emb = ps.add("emb", Tensor::rand_normal(6, 4, 0.0, 0.8, &mut rng));
        let w = ps.add("w", Tensor::rand_normal(8, 1, 0.0, 0.5, &mut rng));
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let table = t.param(ps, emb);
                let a = t.gather_rows(table, &[0, 2, 2, 5]);
                let b = t.gather_rows(table, &[1, 3, 4, 0]);
                let cat = t.concat_cols(&[a, b]); // 4 x 8
                let wv = t.param(ps, w);
                let y = t.matmul(cat, wv); // 4 x 1
                let top = t.slice_rows(y, 0, 2);
                let bot = t.slice_rows(y, 2, 2);
                let s = t.add(top, bot);
                let s = t.leaky_relu(s, 0.2);
                t.sum_all(s)
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn broadcast_and_bce_pass() {
        let mut rng = seeded(6);
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::rand_normal(3, 1, 0.0, 0.6, &mut rng));
        let col = ps.add("col", Tensor::rand_normal(4, 1, 0.0, 0.6, &mut rng));
        let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        let targets = vec![1.0, 0.0, 1.0, 0.0];
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let xv = t.input(x.clone());
                let cv = t.param(ps, col);
                let xs = t.mul_col(xv, cv);
                let xs = t.add_col(xs, cv);
                let wv = t.param(ps, w);
                let logits = t.matmul(xs, wv);
                t.bce_with_logits(logits, &targets)
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn sigmoid_sum_ops_pass() {
        let mut rng = seeded(7);
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::rand_normal(2, 5, 0.0, 0.7, &mut rng));
        assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let wv = t.param(ps, w);
                let s = t.sigmoid(wv);
                let rows = t.sum_rows(s); // 1 x 5
                let cols = t.sum_cols(s); // 2 x 1
                let a = t.sum_all(rows);
                let b = t.sum_all(cols);
                let sum = t.add(a, b);
                let m = t.mul(sum, sum);
                t.mean_all(m)
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn mismatch_is_reported_for_wrong_loss() {
        // Sanity: deliberately non-differentiable-ish check isn't possible,
        // but we can verify the checker catches an inconsistent build closure
        // (different loss per invocation => numeric != analytic).
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::scalar(1.0));
        let mut flip = 0u32;
        let mismatches = check_gradients(
            &mut ps,
            move |t, ps| {
                flip += 1;
                let wv = t.param(ps, w);
                // Alternate the loss function between calls.
                let k = if flip.is_multiple_of(2) { 1.0 } else { 5.0 };
                let y = t.scale(wv, k);
                let m = t.mul(y, y);
                t.sum_all(m)
            },
            1e-3,
            1e-3,
        );
        assert!(!mismatches.is_empty());
    }
}
