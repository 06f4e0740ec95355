//! GRU recurrent cell (used by the DeepMatcher baseline).

use crate::layers::linear::Linear;
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use rand::Rng;

/// The input projections of one step (see [`GruCell::project`]).
#[derive(Debug, Clone, Copy)]
pub struct GruInput {
    z: Var,
    r: Var,
    h: Var,
}

/// A hidden state with its recurrent projections (see [`GruCell::state`]).
#[derive(Debug, Clone, Copy)]
pub struct GruState {
    h: Var,
    uz: Var,
    ur: Var,
}

/// A gated recurrent unit cell.
///
/// DeepMatcher's attribute summarization uses a (bi)GRU over the attribute's
/// word embeddings; this cell is the building block.
pub struct GruCell {
    wz: Linear,
    uz: Linear,
    wr: Linear,
    ur: Linear,
    wh: Linear,
    uh: Linear,
    d_hidden: usize,
}

impl GruCell {
    /// Registers the six projections of a GRU cell.
    pub fn new(
        ps: &mut ParamStore,
        prefix: &str,
        d_in: usize,
        d_hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            wz: Linear::new(ps, &format!("{prefix}.wz"), d_in, d_hidden, true, rng),
            uz: Linear::new(ps, &format!("{prefix}.uz"), d_hidden, d_hidden, false, rng),
            wr: Linear::new(ps, &format!("{prefix}.wr"), d_in, d_hidden, true, rng),
            ur: Linear::new(ps, &format!("{prefix}.ur"), d_hidden, d_hidden, false, rng),
            wh: Linear::new(ps, &format!("{prefix}.wh"), d_in, d_hidden, true, rng),
            uh: Linear::new(ps, &format!("{prefix}.uh"), d_hidden, d_hidden, false, rng),
            d_hidden,
        }
    }

    /// The input half of a step, `x W + b` for each gate: it reads the input
    /// row alone, so an eval-mode graph can project each distinct row once.
    pub fn project(&self, t: &mut Tape, ps: &ParamStore, x: Var) -> GruInput {
        let z = self.wz.forward(t, ps, x);
        let r = self.wr.forward(t, ps, x);
        let h = self.wh.forward(t, ps, x);
        GruInput { z, r, h }
    }

    /// State `h` with its recurrent projections `h Uz` and `h Ur`: they
    /// read the state alone, so an eval-mode graph can record them once per
    /// state however many inputs step from it.
    pub fn state(&self, t: &mut Tape, ps: &ParamStore, h: Var) -> GruState {
        let uz = self.uz.forward(t, ps, h);
        let ur = self.ur.forward(t, ps, h);
        GruState { h, uz, ur }
    }

    /// The zero initial state.
    pub fn zero_state(&self, t: &mut Tape) -> Var {
        t.fill(1, self.d_hidden, 0.0)
    }

    /// One step from state `from` on the projected input `x`: returns the
    /// next hidden state.
    pub fn step_from(&self, t: &mut Tape, ps: &ParamStore, x: GruInput, from: GruState) -> Var {
        let GruState { h, uz, ur } = from;
        let z = {
            let s = t.add(x.z, uz);
            t.sigmoid(s)
        };
        let r = {
            let s = t.add(x.r, ur);
            t.sigmoid(s)
        };
        let h_tilde = {
            let rh = t.mul(r, h);
            let b = self.uh.forward(t, ps, rh);
            let s = t.add(x.h, b);
            t.tanh(s)
        };
        // h' = (1 - z) * h + z * h_tilde
        let one_minus_z = t.one_minus(z);
        let keep = t.mul(one_minus_z, h);
        let update = t.mul(z, h_tilde);
        t.add(keep, update)
    }

    /// Hidden width.
    pub fn d_hidden(&self) -> usize {
        self.d_hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Steps `gru` over the rows of `seq` in `order` from the zero state,
    /// returning the hidden state after each step.
    fn step_rows(
        gru: &GruCell,
        t: &mut Tape,
        ps: &ParamStore,
        seq: Var,
        order: impl Iterator<Item = usize>,
    ) -> Vec<Var> {
        let mut h = gru.zero_state(t);
        order
            .map(|i| {
                let x = t.row(seq, i);
                let x = gru.project(t, ps, x);
                let from = gru.state(t, ps, h);
                h = gru.step_from(t, ps, x, from);
                h
            })
            .collect()
    }

    #[test]
    fn run_produces_one_state_per_token() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let gru = GruCell::new(&mut ps, "gru", 3, 5, &mut rng);
        let mut t = Tape::new();
        let seq = t.input(Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng));
        let states = step_rows(&gru, &mut t, &ps, seq, 0..4);
        assert_eq!(states.len(), 4);
        assert!(states.iter().all(|&h| t.value(h).shape() == (1, 5)));
    }

    #[test]
    fn states_stay_bounded() {
        // GRU state is a convex mix of tanh outputs, so |h| <= 1 elementwise.
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let gru = GruCell::new(&mut ps, "gru", 2, 3, &mut rng);
        let mut t = Tape::new();
        let seq = t.input(Tensor::rand_normal(20, 2, 0.0, 5.0, &mut rng));
        let states = step_rows(&gru, &mut t, &ps, seq, 0..20);
        for h in states {
            assert!(t.value(h).as_slice().iter().all(|v| v.abs() <= 1.0 + 1e-5));
        }
    }

    #[test]
    fn reversed_run_differs_from_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let gru = GruCell::new(&mut ps, "gru", 2, 3, &mut rng);
        let mut t = Tape::new();
        let seq = t.input(Tensor::rand_normal(5, 2, 0.0, 1.0, &mut rng));
        let fwd = step_rows(&gru, &mut t, &ps, seq, 0..5);
        let bwd = step_rows(&gru, &mut t, &ps, seq, (0..5).rev());
        assert_eq!(t.value(bwd[4]).shape(), (1, 3));
        assert!(!t.value(fwd[4]).allclose(t.value(bwd[4]), 1e-6));
    }

    #[test]
    fn gradients_flow_through_time() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let gru = GruCell::new(&mut ps, "gru", 2, 2, &mut rng);
        let seq = Tensor::rand_normal(3, 2, 0.0, 1.0, &mut rng);
        crate::gradcheck::assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let s = t.input(seq.clone());
                let states = step_rows(&gru, t, ps, s, 0..3);
                let states = t.concat_rows(&states);
                t.mean_all(states)
            },
            1e-3,
            4e-2,
        );
    }
}
