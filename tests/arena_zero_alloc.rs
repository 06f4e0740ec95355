//! Steady-state allocation audit of the arena executor.
//!
//! After one warm-up replay (plan construction, arena and moments growth),
//! replaying an inference tape through [`ArenaExecutor::infer_into`] must
//! record **zero** tensor allocations. The counters in
//! [`hiergat_tensor::alloc_stats`] are process-global, so this assertion
//! lives in its own test binary with a single `#[test]` (see
//! `crates/bench/Cargo.toml`); sharing a harness with concurrently running
//! tests would make the "zero" reading racy.

use hiergat_nn::{ArenaExecutor, ParamStore, Tape, Var};
use hiergat_tensor::{alloc_stats, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small two-layer scoring graph on an inference tape: matmul, bias,
/// layer norm, tanh, matmul, softmax.
fn record(store: &ParamStore, ids: &[hiergat_nn::ParamId]) -> (Tape, Var) {
    let mut t = Tape::inference();
    let x = t.input(Tensor::rand_normal(8, 16, 0.0, 1.0, &mut StdRng::seed_from_u64(7)));
    let w1 = t.param(store, ids[0]);
    let b1 = t.param(store, ids[1]);
    let gamma = t.param(store, ids[2]);
    let beta = t.param(store, ids[3]);
    let w2 = t.param(store, ids[4]);
    let h = t.matmul(x, w1);
    let h = t.add_row(h, b1);
    let h = t.layer_norm(h, gamma, beta, 1e-5);
    let h = t.tanh(h);
    let logits = t.matmul(h, w2);
    let probs = t.softmax(logits);
    (t, probs)
}

#[test]
fn steady_state_infer_into_allocates_no_tensors() {
    let mut rng = StdRng::seed_from_u64(0xa3e1);
    let mut store = ParamStore::new();
    let ids = vec![
        store.add("w1", Tensor::rand_normal(16, 32, 0.0, 0.1, &mut rng)),
        store.add("b1", Tensor::zeros(1, 32)),
        store.add("gamma", Tensor::ones(1, 32)),
        store.add("beta", Tensor::zeros(1, 32)),
        store.add("w2", Tensor::rand_normal(32, 4, 0.0, 0.1, &mut rng)),
    ];
    let (tape, probs) = record(&store, &ids);
    let mut exec = ArenaExecutor::new();
    let mut out = vec![0.0f32; 8 * 4];

    // Warm-up: builds the plan and grows the arena and moments buffer.
    exec.infer_into(&tape, probs, &store, &mut out);
    let warm = out.clone();
    assert!(warm.iter().all(|p| p.is_finite()), "warm-up scores {warm:?}");
    assert_eq!(exec.plans_cached(), 1, "warm-up must cache exactly one plan");

    let before = alloc_stats();
    for _ in 0..5 {
        exec.infer_into(&tape, probs, &store, &mut out);
    }
    let delta = alloc_stats().since(before);
    assert_eq!(
        delta.count, 0,
        "steady-state arena replays must allocate no tensors, saw {} allocations ({} bytes)",
        delta.count, delta.bytes
    );
    assert_eq!(exec.plans_cached(), 1, "replays must reuse the cached plan");
    let same = out.iter().zip(&warm).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "replays must reproduce the warm-up scores bitwise");
}
