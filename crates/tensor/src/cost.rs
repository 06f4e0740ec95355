//! Op-level FLOP and memory cost model.
//!
//! One set of formulas serves two consumers that must agree:
//!
//! * the kernels in this crate, which consult [`plan_pieces`] to decide
//!   per call whether a parallel row split pays for its scheduling
//!   overhead, and
//! * the static tape analyzer in `hiergat-nn`, which sums the same
//!   estimates over a deferred (value-free) graph to report per-model cost budgets
//!   (`hiergat analyze`, training preflight, bench harnesses).
//!
//! Conventions: one fused multiply-add counts as 2 FLOPs; transcendental
//! calls (`exp`, `tanh`, `ln`) count as [`TRANSCENDENTAL_FLOPS`] each;
//! pure data movement (transpose, concat, slice, gather) counts as 0 FLOPs
//! but still contributes output bytes. All byte counts assume `f32`.

/// FLOPs charged per transcendental call (`exp`, `ln`, `tanh`, `sqrt`).
pub const TRANSCENDENTAL_FLOPS: u64 = 8;

/// Minimum FLOPs before a kernel considers a parallel split. Below this the
/// fixed cost of publishing a pool job (~a few microseconds) exceeds the
/// kernel runtime.
pub const PAR_FLOP_THRESHOLD: u64 = 64 * 1024;

/// Minimum FLOPs before the **packed microkernel** matmul path considers a
/// parallel tile split. The tiled kernel retires arithmetic several times
/// faster than the row loops the generic [`PAR_FLOP_THRESHOLD`] was
/// calibrated for (~60 vs ~15 GFLOP/s on an AVX2 core), so the same
/// few-microsecond job-publishing cost only amortizes at a proportionally
/// larger product.
pub const MATMUL_PAR_FLOP_THRESHOLD: u64 = 512 * 1024;

/// FLOPs of an `r x k` by `k x c` matrix product (also `matmul_tn` /
/// `matmul_nt` after mapping their operand shapes to the same triple).
pub fn matmul_flops(r: usize, k: usize, c: usize) -> u64 {
    2 * r as u64 * k as u64 * c as u64
}

/// Bytes touched by a matmul: both operands plus the output, one pass each.
pub fn matmul_bytes(r: usize, k: usize, c: usize) -> u64 {
    4 * (r as u64 * k as u64 + k as u64 * c as u64 + r as u64 * c as u64)
}

/// FLOPs of one elementwise pass over `len` values at `per_elem` FLOPs.
pub fn elementwise_flops(len: usize, per_elem: u64) -> u64 {
    len as u64 * per_elem
}

/// FLOPs of a row-wise softmax over an `r x c` tensor: max, subtract,
/// `exp`, sum, divide per element.
pub fn softmax_flops(r: usize, c: usize) -> u64 {
    r as u64 * c as u64 * (4 + TRANSCENDENTAL_FLOPS)
}

/// FLOPs of per-row mean/variance statistics over an `r x c` tensor.
pub fn row_moments_flops(r: usize, c: usize) -> u64 {
    // mean: c adds; variance: subtract, square, add per element.
    r as u64 * (4 * c as u64 + 2)
}

/// FLOPs of a fused layer-norm forward over an `r x c` tensor (statistics
/// plus the normalize-scale-shift pass).
pub fn layer_norm_flops(r: usize, c: usize) -> u64 {
    row_moments_flops(r, c) + r as u64 * (TRANSCENDENTAL_FLOPS + 4 * c as u64)
}

/// `true` when `flops` is large enough that a parallel split is expected to
/// win over the serial loop.
pub fn worth_parallelizing(flops: u64) -> bool {
    flops >= PAR_FLOP_THRESHOLD
}

/// Number of row-granular pieces a kernel should split into, given the
/// op's FLOP estimate, its row count, and the caller's split width
/// (`parallel::current_split()`). Returns 1 for "stay serial".
///
/// The decision depends only on shape and requested width — never on pool
/// availability — so task geometry (and therefore bitwise output) is
/// reproducible run-to-run.
pub fn plan_pieces(flops: u64, rows: usize, split: usize) -> usize {
    if split <= 1 || rows <= 1 || !worth_parallelizing(flops) {
        1
    } else {
        split.min(rows)
    }
}

/// Number of row-**band** pieces the tiled matmul path should split its
/// `MR`-tile grid into, given the product's FLOP estimate, its tile count
/// (`ceil(rows / MR)`), and the caller's split width. Returns 1 for "stay
/// serial".
///
/// Same reproducibility rule as [`plan_pieces`] — the decision depends
/// only on shape and requested width — but gated on the stricter
/// [`MATMUL_PAR_FLOP_THRESHOLD`], because the microkernel finishes small
/// products before a pool job would even launch.
pub fn plan_matmul_pieces(flops: u64, tiles: usize, split: usize) -> usize {
    if split <= 1 || tiles <= 1 || flops < MATMUL_PAR_FLOP_THRESHOLD {
        1
    } else {
        split.min(tiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_is_two_mnk() {
        assert_eq!(matmul_flops(256, 256, 256), 2 * 256 * 256 * 256);
        assert_eq!(matmul_flops(1, 5, 7), 70);
        assert_eq!(matmul_flops(0, 5, 7), 0);
    }

    #[test]
    fn small_ops_stay_serial() {
        assert_eq!(plan_pieces(matmul_flops(4, 4, 4), 4, 8), 1);
        assert_eq!(plan_pieces(matmul_flops(256, 256, 256), 256, 1), 1);
        assert_eq!(plan_pieces(matmul_flops(256, 256, 256), 1, 8), 1);
    }

    #[test]
    fn big_ops_split_to_min_of_rows_and_width() {
        assert_eq!(plan_pieces(matmul_flops(256, 256, 256), 256, 8), 8);
        assert_eq!(plan_pieces(matmul_flops(3, 4096, 64), 3, 8), 3);
    }

    #[test]
    fn tiled_matmul_needs_a_bigger_product_to_split() {
        // 156K FLOPs splits under the generic threshold but stays serial
        // on the tiled path; 256^3 splits on both.
        let small = matmul_flops(37, 64, 33);
        assert!(worth_parallelizing(small));
        assert_eq!(plan_matmul_pieces(small, 7, 8), 1);
        let big = matmul_flops(256, 256, 256);
        assert_eq!(plan_matmul_pieces(big, 43, 8), 8);
        assert_eq!(plan_matmul_pieces(big, 3, 8), 3);
        assert_eq!(plan_matmul_pieces(big, 43, 1), 1);
        assert_eq!(plan_matmul_pieces(big, 1, 8), 1);
    }

    #[test]
    fn byte_model_counts_all_three_operands() {
        assert_eq!(matmul_bytes(2, 3, 4), 4 * (6 + 12 + 8));
    }
}
