//! Property-based tests over the tensor kernels.

use crate::Tensor;
use proptest::prelude::*;

/// Naive `i-k-j` reference matmul: one separately-rounded multiply and add
/// per term, contraction index ascending, no packing, no skipping. This is
/// the semantic ground truth the microkernel is pinned against.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (r, k, c) = (a.rows(), a.cols(), b.cols());
    let mut out = Tensor::zeros(r, c);
    for i in 0..r {
        for p in 0..k {
            let a_ik = a.get(i, p);
            for j in 0..c {
                out.set(i, j, out.get(i, j) + a_ik * b.get(p, j));
            }
        }
    }
    out
}

/// Portable builds must match the naive reference **bitwise** (identical
/// per-element operation order). The `simd` build fuses each
/// multiply-add, so every term is rounded once instead of twice; the
/// result stays within ordinary accumulated-rounding distance of the
/// reference (inputs here are bounded by the strategies).
fn matches_naive(out: &Tensor, reference: &Tensor) -> bool {
    if cfg!(feature = "simd") {
        out.shape() == reference.shape()
            && out
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(x, y)| (x - y).abs() <= 1e-2 + 1e-4 * y.abs())
    } else {
        bits_eq(out, reference)
    }
}

/// Strategy: a tensor with dims in `[1, max_dim]` and values in [-10, 10].
fn arb_tensor(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(r, c, data).expect("sized"))
    })
}

/// `true` when `a` and `b` match element-for-element at the bit level (the
/// determinism guarantee of the parallel kernels, stronger than `allclose`).
fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Strategy: a matmul pair whose FLOP count straddles the parallel
/// threshold (`k` is large while `r`/`c` stay small and odd-ish), so the
/// equivalence properties exercise both the serial branch and genuine
/// multi-piece pool splits, including 1xn and nx1 outputs.
fn arb_wide_matmul_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..8, 64usize..257, 1usize..8).prop_flat_map(|(r, k, c)| {
        (
            proptest::collection::vec(-5.0f32..5.0, r * k),
            proptest::collection::vec(-5.0f32..5.0, k * c),
        )
            .prop_map(move |(a, b)| {
                (
                    Tensor::from_vec(r, k, a).expect("sized"),
                    Tensor::from_vec(k, c, b).expect("sized"),
                )
            })
    })
}

/// Strategy: a matmul pair at adversarial shapes for the tiled path —
/// row/column counts straddling the `MR`/`NR` tile sizes (including exact
/// multiples and off-by-one ragged tails), tall/skinny outputs, and `k`
/// down to 0. Values include exact zeros so the no-zero-skip semantics are
/// exercised, not just generic floats.
fn arb_tiled_matmul_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    // Element strategy mixes exact zeros in with generic floats so the
    // no-zero-skip semantics get real coverage, not just generic data.
    fn val() -> impl Strategy<Value = f32> {
        prop_oneof![Just(0.0f32), -4.0f32..4.0]
    }
    let dim_r = prop_oneof![Just(1usize), Just(5), Just(6), Just(7), Just(12), 1usize..40];
    let dim_c = prop_oneof![Just(1usize), Just(8), Just(15), Just(16), Just(17), 1usize..40];
    let dim_k = prop_oneof![Just(0usize), Just(1), 1usize..128];
    (dim_r, dim_k, dim_c).prop_flat_map(move |(r, k, c)| {
        (proptest::collection::vec(val(), r * k), proptest::collection::vec(val(), k * c)).prop_map(
            move |(a, b)| {
                (
                    Tensor::from_vec(r, k, a).expect("sized"),
                    Tensor::from_vec(k, c, b).expect("sized"),
                )
            },
        )
    })
}

/// Strategy: a pair of tensors with matching inner dims for matmul.
fn arb_matmul_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..6, 1usize..6, 1usize..6).prop_flat_map(|(r, k, c)| {
        (
            proptest::collection::vec(-5.0f32..5.0, r * k),
            proptest::collection::vec(-5.0f32..5.0, k * c),
        )
            .prop_map(move |(a, b)| {
                (
                    Tensor::from_vec(r, k, a).expect("sized"),
                    Tensor::from_vec(k, c, b).expect("sized"),
                )
            })
    })
}

proptest! {
    #[test]
    fn add_commutes(t in arb_tensor(6)) {
        let u = t.map(|v| v * 0.5 - 1.0);
        prop_assert!(t.add(&u).allclose(&u.add(&t), 1e-6));
    }

    #[test]
    fn add_zero_is_identity(t in arb_tensor(6)) {
        let z = Tensor::zeros(t.rows(), t.cols());
        prop_assert!(t.add(&z).allclose(&t, 0.0));
    }

    #[test]
    fn scale_distributes_over_add(t in arb_tensor(5)) {
        let u = t.map(|v| v + 1.0);
        let lhs = t.add(&u).scale(2.0);
        let rhs = t.scale(2.0).add(&u.scale(2.0));
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    #[test]
    fn transpose_is_involution(t in arb_tensor(6)) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn matmul_transpose_identity((a, b) in arb_matmul_pair()) {
        // (A B)^T = B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn matmul_tn_nt_agree_with_naive((a, b) in arb_matmul_pair()) {
        // a: r x k, b: k x c.
        let tn = a.transpose().matmul_tn(&b); // (k x r)^T b = a b... sanity below
        let naive = a.matmul(&b);
        prop_assert!(tn.allclose(&naive, 1e-3));
        let nt = a.matmul_nt(&b.transpose());
        prop_assert!(nt.allclose(&naive, 1e-3));
    }

    #[test]
    fn softmax_rows_are_distributions(t in arb_tensor(6)) {
        let s = t.softmax_rows();
        for i in 0..s.rows() {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn softmax_invariant_to_shift(t in arb_tensor(5)) {
        let shifted = t.add_scalar(3.7);
        prop_assert!(t.softmax_rows().allclose(&shifted.softmax_rows(), 1e-4));
    }

    #[test]
    fn sum_rows_then_sum_equals_sum(t in arb_tensor(6)) {
        prop_assert!((t.sum_rows().sum() - t.sum()).abs() < 1e-3);
        prop_assert!((t.sum_cols().sum() - t.sum()).abs() < 1e-3);
    }

    #[test]
    fn parallel_matmul_family_is_bitwise_serial((a, b) in arb_wide_matmul_pair()) {
        let mm_ref = a.matmul_serial(&b);
        let at = a.transpose();
        let bt = b.transpose();
        let tn_ref = at.matmul_tn_serial(&b);
        let nt_ref = a.matmul_nt_serial(&bt);
        for width in [1usize, 2, 8] {
            let (mm, tn, nt) = parallel::with_threads(width, || {
                (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt))
            });
            prop_assert!(bits_eq(&mm, &mm_ref), "matmul at width {width}");
            prop_assert!(bits_eq(&tn, &tn_ref), "matmul_tn at width {width}");
            prop_assert!(bits_eq(&nt, &nt_ref), "matmul_nt at width {width}");
        }
    }

    #[test]
    fn microkernel_matches_naive_reference((a, b) in arb_tiled_matmul_pair()) {
        let reference = naive_matmul(&a, &b);
        prop_assert!(matches_naive(&a.matmul(&b), &reference), "matmul vs naive i-k-j");
        let at = a.transpose();
        let bt = b.transpose();
        prop_assert!(matches_naive(&at.matmul_tn(&b), &reference), "matmul_tn vs naive i-k-j");
        prop_assert!(matches_naive(&a.matmul_nt(&bt), &reference), "matmul_nt vs naive i-k-j");
    }

    #[test]
    fn microkernel_bitwise_across_widths((a, b) in arb_tiled_matmul_pair()) {
        let mm_ref = a.matmul_serial(&b);
        let at = a.transpose();
        let bt = b.transpose();
        let tn_ref = at.matmul_tn_serial(&b);
        let nt_ref = a.matmul_nt_serial(&bt);
        for width in [1usize, 2, 8] {
            let (mm, tn, nt) = parallel::with_threads(width, || {
                (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt))
            });
            prop_assert!(bits_eq(&mm, &mm_ref), "tiled matmul at width {width}");
            prop_assert!(bits_eq(&tn, &tn_ref), "tiled matmul_tn at width {width}");
            prop_assert!(bits_eq(&nt, &nt_ref), "tiled matmul_nt at width {width}");
        }
    }

    #[test]
    fn parallel_rowwise_kernels_are_bitwise_serial(t in arb_tensor(48)) {
        let sm_ref = t.softmax_rows_serial();
        let lsm_ref = t.log_softmax_rows_serial();
        let (m_ref, v_ref) = t.row_moments_serial();
        for width in [1usize, 2, 8] {
            let (sm, lsm, m, v) = parallel::with_threads(width, || {
                let (m, v) = t.row_moments();
                (t.softmax_rows(), t.log_softmax_rows(), m, v)
            });
            prop_assert!(bits_eq(&sm, &sm_ref), "softmax at width {width}");
            prop_assert!(bits_eq(&lsm, &lsm_ref), "log_softmax at width {width}");
            prop_assert!(bits_eq(&m, &m_ref) && bits_eq(&v, &v_ref), "moments at width {width}");
        }
    }
}

/// Pinned adversarial shapes (deterministic complement to the proptest
/// strategies): degenerate outputs, exact tile multiples, ragged tails on
/// both tile axes, tall/skinny products, and a product big enough to
/// genuinely split the tile grid at parallel widths.
#[test]
fn microkernel_adversarial_shapes_match_naive_at_all_widths() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0x7113);
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 0, 4),    // k = 0: all-zero output
        (1, 300, 64), // single row, wide contraction
        (13, 300, 1), // single column
        (6, 32, 16),  // exactly one band of full tiles
        (12, 48, 32), // exact multiples of MR x NR
        (7, 64, 17),  // ragged on both tile axes
        (5, 128, 33), // fewer rows than one tile
        (300, 16, 9), // tall and skinny
        (37, 96, 80), // splits the tile grid at widths > 1
    ];
    for &(r, k, c) in shapes {
        // rand_normal can't produce 0-dim tensors, so build from raw vecs
        // (with a sprinkling of exact zeros for the no-skip semantics).
        let mut draw = |n: usize| -> Vec<f32> {
            use rand::Rng;
            (0..n).map(|i| if i % 11 == 3 { 0.0 } else { rng.gen_range(-2.0..2.0) }).collect()
        };
        let a = Tensor::from_vec(r, k, draw(r * k)).expect("sized");
        let b = Tensor::from_vec(k, c, draw(k * c)).expect("sized");
        let reference = naive_matmul(&a, &b);
        let (at, bt) = (a.transpose(), b.transpose());
        for width in [1usize, 2, 8] {
            parallel::with_threads(width, || {
                assert!(
                    matches_naive(&a.matmul(&b), &reference),
                    "matmul {r}x{k}x{c} at width {width}"
                );
                assert!(
                    matches_naive(&at.matmul_tn(&b), &reference),
                    "matmul_tn {r}x{k}x{c} at width {width}"
                );
                assert!(
                    matches_naive(&a.matmul_nt(&bt), &reference),
                    "matmul_nt {r}x{k}x{c} at width {width}"
                );
            });
        }
    }
}
