//! Fully connected layer.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use hiergat_tensor::Tensor;
use rand::Rng;

/// `y = x W + b` with Xavier-initialized weights.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    d_in: usize,
    d_out: usize,
}

impl Linear {
    /// Registers a linear layer's parameters under `prefix`.
    pub fn new(
        ps: &mut ParamStore,
        prefix: &str,
        d_in: usize,
        d_out: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let w = ps.add(format!("{prefix}.w"), Tensor::xavier_uniform(d_in, d_out, rng));
        let b = bias.then(|| ps.add(format!("{prefix}.b"), Tensor::zeros(1, d_out)));
        Self { w, b, d_in, d_out }
    }

    /// Applies the layer to an `n x d_in` input. A wrong input width is a
    /// matmul shape violation: an eager tape panics with it, a deferred tape
    /// collects it.
    pub fn forward(&self, t: &mut Tape, ps: &ParamStore, x: Var) -> Var {
        let w = t.param(ps, self.w);
        let y = t.matmul(x, w);
        match self.b {
            Some(b) => {
                let bv = t.param(ps, b);
                t.add_row(y, bv)
            }
            None => y,
        }
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.d_out
    }

    /// The weight parameter id.
    pub fn weight(&self) -> ParamId {
        self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 4, 3, true, &mut rng);
        assert_eq!(ps.len(), 2);
        let mut t = Tape::new();
        let x = t.input(Tensor::zeros(5, 4));
        let y = lin.forward(&mut t, &ps, x);
        assert_eq!(t.value(y).shape(), (5, 3));
        // With zero input the output equals the (zero-initialized) bias.
        assert!(t.value(y).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn no_bias_variant_registers_one_param() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 2, 2, false, &mut rng);
        assert_eq!(ps.len(), 1);
        assert_eq!(lin.d_in(), 2);
        assert_eq!(lin.d_out(), 2);
    }

    #[test]
    fn gradients_flow_through_layer() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 3, 2, true, &mut rng);
        let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
        crate::gradcheck::assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let xv = t.input(x.clone());
                let y = lin.forward(t, ps, xv);
                let y = t.relu(y);
                t.mean_all(y)
            },
            1e-3,
            2e-2,
        );
    }
}
