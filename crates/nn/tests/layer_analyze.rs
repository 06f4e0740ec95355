//! Analyzer acceptance for every layer in `hiergat_nn::layers`.
//!
//! Each test drives the same forward builder through two harnesses:
//!
//! 1. finite-difference gradient checking on an eager tape, proving the
//!    graph the layer records is differentiable and correct;
//! 2. the static analyzer on a deferred tape, proving the same graph
//!    passes shape inference with no dead parameters or unused nodes.
//!
//! Together they pin down the contract the analyzer assumes: any graph a
//! layer builds is analyzable without running kernels.

use hiergat_nn::gradcheck::assert_gradients_ok;
use hiergat_nn::{
    analyze_graph, GruCell, LayerNorm, Linear, MultiHeadSelfAttention, ParamStore, Tape,
    TransformerEncoder, TransformerEncoderLayer, Var,
};
use hiergat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_analyzer_clean(ps: &ParamStore, build: impl FnOnce(&mut Tape, &ParamStore) -> Var) {
    let mut t = Tape::inference();
    let loss = build(&mut t, ps);
    let report = analyze_graph(&t, loss, ps);
    assert!(report.is_clean(), "{report}");
    assert!(report.node_count > 0);
}

#[test]
fn linear_layer_gradchecks_and_analyzes_clean() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut ps = ParamStore::new();
    let layer = Linear::new(&mut ps, "lin", 3, 2, true, &mut rng);
    let x = Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng);
    let build = |t: &mut Tape, ps: &ParamStore| {
        let xv = t.input(x.clone());
        let h = layer.forward(t, ps, xv);
        t.mean_all(h)
    };
    assert_gradients_ok(&mut ps, build, 1e-3, 2e-2);
    assert_analyzer_clean(&ps, build);
}

#[test]
fn layer_norm_gradchecks_and_analyzes_clean() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut ps = ParamStore::new();
    let ln = LayerNorm::new(&mut ps, "ln", 4);
    let x = Tensor::rand_normal(3, 4, 0.0, 1.5, &mut rng);
    let build = |t: &mut Tape, ps: &ParamStore| {
        let xv = t.input(x.clone());
        let h = ln.forward(t, ps, xv);
        let h = t.tanh(h);
        t.mean_all(h)
    };
    assert_gradients_ok(&mut ps, build, 1e-3, 3e-2);
    assert_analyzer_clean(&ps, build);
}

#[test]
fn gru_cell_gradchecks_and_analyzes_clean() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut ps = ParamStore::new();
    let gru = GruCell::new(&mut ps, "gru", 3, 3, &mut rng);
    let seq = Tensor::rand_normal(3, 3, 0.0, 0.8, &mut rng);
    let build = |t: &mut Tape, ps: &ParamStore| {
        let sv = t.input(seq.clone());
        let states = gru.run(t, ps, sv);
        t.mean_all(states)
    };
    assert_gradients_ok(&mut ps, build, 1e-3, 3e-2);
    assert_analyzer_clean(&ps, build);
}

#[test]
fn multi_head_attention_gradchecks_and_analyzes_clean() {
    let mut rng = StdRng::seed_from_u64(14);
    let mut ps = ParamStore::new();
    let mha = MultiHeadSelfAttention::new(&mut ps, "mha", 4, 2, &mut rng);
    let x = Tensor::rand_normal(3, 4, 0.0, 0.7, &mut rng);
    let build = |t: &mut Tape, ps: &ParamStore| {
        let xv = t.input(x.clone());
        let h = mha.forward(t, ps, xv);
        t.mean_all(h)
    };
    assert_gradients_ok(&mut ps, build, 1e-3, 3e-2);
    assert_analyzer_clean(&ps, build);
}

#[test]
fn transformer_layer_gradchecks_and_analyzes_clean() {
    let mut rng = StdRng::seed_from_u64(15);
    let mut ps = ParamStore::new();
    let block = TransformerEncoderLayer::new(&mut ps, "blk", 4, 2, 8, 0.0, &mut rng);
    let x = Tensor::rand_normal(3, 4, 0.0, 0.7, &mut rng);
    let build = |t: &mut Tape, ps: &ParamStore| {
        let xv = t.input(x.clone());
        let mut fwd_rng = StdRng::seed_from_u64(99);
        let h = block.forward(t, ps, xv, false, &mut fwd_rng);
        t.mean_all(h)
    };
    assert_gradients_ok(&mut ps, build, 1e-3, 4e-2);
    assert_analyzer_clean(&ps, build);
}

#[test]
fn transformer_encoder_gradchecks_and_analyzes_clean() {
    let mut rng = StdRng::seed_from_u64(16);
    let mut ps = ParamStore::new();
    let enc = TransformerEncoder::new(&mut ps, "enc", 1, 4, 2, 8, 8, 0.0, &mut rng);
    let x = Tensor::rand_normal(3, 4, 0.0, 0.7, &mut rng);
    let build = |t: &mut Tape, ps: &ParamStore| {
        let xv = t.input(x.clone());
        let mut fwd_rng = StdRng::seed_from_u64(99);
        let h = enc.forward(t, ps, xv, false, &mut fwd_rng);
        t.mean_all(h)
    };
    assert_gradients_ok(&mut ps, build, 1e-3, 4e-2);
    assert_analyzer_clean(&ps, build);
}
