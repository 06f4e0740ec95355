//! Steady-state allocation audit of the arena executor.
//!
//! After one warm-up replay (plan construction, arena, moments and
//! signature-buffer growth), replaying an inference tape through
//! [`ArenaExecutor::infer_into`] must allocate nothing:
//!
//! - at split width 1, no heap allocation of any kind, counted by this
//!   binary's global allocator on the replaying thread;
//! - at split width 8, no tensor allocation
//!   ([`hiergat_tensor::alloc_stats`]). The heap count is not gated there:
//!   the pool allocates one job record per call it splits across workers.
//!
//! The tensor counters are process-global, so this check lives in its own
//! test binary with a single `#[test]` (see `crates/bench/Cargo.toml`);
//! sharing a harness with concurrently running tests would make the "zero"
//! reading racy.

use hiergat_nn::{ArenaExecutor, ParamStore, Tape, Var};
use hiergat_tensor::{alloc_stats, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    static HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = HEAP_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn heap_allocs() -> u64 {
    HEAP_ALLOCS.with(Cell::get)
}

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

    // Warm-up: builds the plan and grows the executor's buffers.
    exec.infer_into(&tape, probs, &store, &mut out);
    let warm = out.clone();
    assert!(warm.iter().all(|p| p.is_finite()), "warm-up scores {warm:?}");
    assert_eq!(exec.plans_cached(), 1, "warm-up must cache exactly one plan");

    for width in [1, 8] {
        let tensors_before = alloc_stats();
        let heap_before = heap_allocs();
        parallel::with_threads(width, || {
            for _ in 0..5 {
                exec.infer_into(&tape, probs, &store, &mut out);
            }
        });
        let tensors = alloc_stats().since(tensors_before);
        let heap = heap_allocs() - heap_before;
        assert_eq!(
            tensors.count, 0,
            "width {width}: steady-state replays must allocate no tensors, saw {} ({} bytes)",
            tensors.count, tensors.bytes
        );
        if width == 1 {
            assert_eq!(heap, 0, "width 1: steady-state replays made {heap} heap allocations");
        }
        assert_eq!(exec.plans_cached(), 1, "replays must reuse the cached plan");
        let same = out.iter().zip(&warm).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "width {width}: replays must reproduce the warm-up scores bitwise");
    }
}
