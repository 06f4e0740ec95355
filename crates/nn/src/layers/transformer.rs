//! Transformer encoder blocks (post-norm, BERT-style).

use crate::layers::attention::MultiHeadSelfAttention;
use crate::layers::linear::Linear;
use crate::layers::norm::LayerNorm;
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use hiergat_tensor::Tensor;
use rand::Rng;

/// One encoder block: self-attention + feed-forward, each with a residual
/// connection and layer norm (post-norm, as in BERT).
pub struct TransformerEncoderLayer {
    mha: MultiHeadSelfAttention,
    ln1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    ln2: LayerNorm,
    dropout: f32,
}

impl TransformerEncoderLayer {
    /// Registers one block. `d_ff` is the feed-forward hidden width.
    pub fn new(
        ps: &mut ParamStore,
        prefix: &str,
        d_model: usize,
        heads: usize,
        d_ff: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            mha: MultiHeadSelfAttention::new(ps, &format!("{prefix}.mha"), d_model, heads, rng),
            ln1: LayerNorm::new(ps, &format!("{prefix}.ln1"), d_model),
            ff1: Linear::new(ps, &format!("{prefix}.ff1"), d_model, d_ff, true, rng),
            ff2: Linear::new(ps, &format!("{prefix}.ff2"), d_ff, d_model, true, rng),
            ln2: LayerNorm::new(ps, &format!("{prefix}.ln2"), d_model),
            dropout,
        }
    }

    /// Applies the block to an `n x d` sequence.
    pub fn forward(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        x: Var,
        train: bool,
        rng: &mut impl Rng,
    ) -> Var {
        self.forward_impl(t, ps, x, train, rng, None)
    }

    /// Forward capturing per-head attention maps.
    pub fn forward_with_attn(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        x: Var,
        train: bool,
        rng: &mut impl Rng,
        attn_out: &mut Vec<Tensor>,
    ) -> Var {
        self.forward_impl(t, ps, x, train, rng, Some(attn_out))
    }

    fn forward_impl(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        x: Var,
        train: bool,
        rng: &mut impl Rng,
        attn_out: Option<&mut Vec<Tensor>>,
    ) -> Var {
        let att = match attn_out {
            Some(out) => self.mha.forward_with_attn(t, ps, x, out),
            None => self.mha.forward(t, ps, x),
        };
        let att = t.dropout(att, self.dropout, train, rng);
        let x = {
            let sum = t.add(x, att);
            self.ln1.forward(t, ps, sum)
        };
        let h = self.ff1.forward(t, ps, x);
        let h = t.gelu(h);
        let h = self.ff2.forward(t, ps, h);
        let h = t.dropout(h, self.dropout, train, rng);
        let sum = t.add(x, h);
        self.ln2.forward(t, ps, sum)
    }
}

/// A stack of encoder blocks with a learned positional embedding table.
pub struct TransformerEncoder {
    layers: Vec<TransformerEncoderLayer>,
    pos: crate::params::ParamId,
    max_len: usize,
    d_model: usize,
}

impl TransformerEncoder {
    /// Registers `n_layers` blocks plus a `max_len x d_model` positional table.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamStore,
        prefix: &str,
        n_layers: usize,
        d_model: usize,
        heads: usize,
        d_ff: usize,
        max_len: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let layers = (0..n_layers)
            .map(|i| {
                TransformerEncoderLayer::new(
                    ps,
                    &format!("{prefix}.layer{i}"),
                    d_model,
                    heads,
                    d_ff,
                    dropout,
                    rng,
                )
            })
            .collect();
        let pos =
            ps.add(format!("{prefix}.pos"), Tensor::rand_normal(max_len, d_model, 0.0, 0.02, rng));
        Self { layers, pos, max_len, d_model }
    }

    /// Adds positional embeddings and applies every block.
    ///
    /// # Panics
    /// Panics if the sequence is longer than `max_len`.
    pub fn forward(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        x: Var,
        train: bool,
        rng: &mut impl Rng,
    ) -> Var {
        let n = t.value(x).rows();
        assert!(n <= self.max_len, "sequence length {n} exceeds max_len {}", self.max_len);
        let pos = self.positions(t, ps, n, train);
        let mut h = t.add(x, pos);
        for layer in &self.layers {
            h = layer.forward(t, ps, h, train, rng);
        }
        h
    }

    /// Forward capturing attention maps from every layer (layer-major order).
    pub fn forward_with_attn(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        x: Var,
        train: bool,
        rng: &mut impl Rng,
        attn_out: &mut Vec<Tensor>,
    ) -> Var {
        let n = t.value(x).rows();
        assert!(n <= self.max_len, "sequence length {n} exceeds max_len {}", self.max_len);
        let pos = self.positions(t, ps, n, train);
        let mut h = t.add(x, pos);
        for layer in &self.layers {
            h = layer.forward_with_attn(t, ps, h, train, rng, attn_out);
        }
        h
    }

    /// The positional rows `0..n`. An eval-mode graph gathers them once per
    /// length and every encode of that length reads the same node.
    fn positions(&self, t: &mut Tape, ps: &ParamStore, n: usize, train: bool) -> Var {
        let table = t.param(ps, self.pos);
        let indices: Vec<usize> = (0..n).collect();
        if train {
            t.gather_rows(table, &indices)
        } else {
            t.gather_rows_shared(table, &indices)
        }
    }

    /// Number of blocks.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Maximum sequence length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encoder_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let enc = TransformerEncoder::new(&mut ps, "enc", 2, 8, 2, 16, 32, 0.1, &mut rng);
        let mut t = Tape::new();
        let x = t.input(Tensor::rand_normal(6, 8, 0.0, 1.0, &mut rng));
        let y = enc.forward(&mut t, &ps, x, false, &mut rng);
        assert_eq!(t.value(y).shape(), (6, 8));
        assert_eq!(enc.n_layers(), 2);
        assert_eq!(enc.d_model(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn rejects_overlong_sequences() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let enc = TransformerEncoder::new(&mut ps, "enc", 1, 4, 1, 8, 3, 0.0, &mut rng);
        let mut t = Tape::new();
        let x = t.input(Tensor::zeros(4, 4));
        enc.forward(&mut t, &ps, x, false, &mut rng);
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let enc = TransformerEncoder::new(&mut ps, "enc", 1, 4, 2, 8, 8, 0.5, &mut rng);
        let x = Tensor::rand_normal(4, 4, 0.0, 1.0, &mut rng);
        let run = |rng: &mut StdRng| {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let y = enc.forward(&mut t, &ps, xv, false, rng);
            t.value(y).clone()
        };
        let a = run(&mut StdRng::seed_from_u64(10));
        let b = run(&mut StdRng::seed_from_u64(99));
        assert!(a.allclose(&b, 0.0), "dropout must be inactive in eval mode");
    }

    #[test]
    fn encoder_layer_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParamStore::new();
        let layer = TransformerEncoderLayer::new(&mut ps, "l", 4, 2, 6, 0.0, &mut rng);
        let x = Tensor::rand_normal(3, 4, 0.0, 1.0, &mut rng);
        crate::gradcheck::assert_gradients_ok(
            &mut ps,
            |t, ps| {
                let xv = t.input(x.clone());
                let mut rng2 = StdRng::seed_from_u64(0);
                let y = layer.forward(t, ps, xv, false, &mut rng2);
                t.mean_all(y)
            },
            1e-2,
            8e-2,
        );
    }

    #[test]
    fn attention_capture_counts_layers_times_heads() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamStore::new();
        let enc = TransformerEncoder::new(&mut ps, "enc", 2, 4, 2, 8, 16, 0.0, &mut rng);
        let mut t = Tape::new();
        let x = t.input(Tensor::rand_normal(5, 4, 0.0, 1.0, &mut rng));
        let mut attn = Vec::new();
        let _ = enc.forward_with_attn(&mut t, &ps, x, false, &mut rng, &mut attn);
        assert_eq!(attn.len(), 4); // 2 layers x 2 heads
    }
}
