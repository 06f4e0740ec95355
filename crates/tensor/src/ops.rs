//! Elementwise arithmetic, broadcasting, matrix products, and nonlinearities.
//!
//! # Parallel execution and determinism
//!
//! The heavy kernels (`matmul` family, row-wise softmax/log-softmax) split
//! their output into contiguous row blocks and run the blocks on the
//! vendored `parallel` pool when the [`crate::cost`] model says the op is
//! big enough to amortize the scheduling overhead. Non-degenerate matrix
//! products route through the register-blocked, cache-tiled microkernel in
//! [`crate::microkernel`], whose parallel split carves the `MR`-tile grid
//! into `MR`-aligned row bands; skinny or tiny products keep the plain row
//! loops below. On either path each output element is accumulated by
//! exactly one task with the contraction index ascending over the full
//! depth, so results are **bitwise identical** across thread counts and
//! run-to-run. The `*_serial` variants force a single block and exist as
//! the reference point for the equivalence suite and benches.
//!
//! # IEEE semantics
//!
//! The matmul kernels evaluate every `a_ik * b_kj` term — there is no
//! zero-skipping shortcut — so non-finite operands propagate exactly as
//! the mathematical definition (and the `nn::absint` transfer functions)
//! demand: `0.0 * inf` contributes `NaN`, never silently `0`.

use crate::microkernel::{self, Lhs, Rhs};
use crate::{cost, Tensor};

/// Splits the `r`-row output buffer `out` (row width `w` elements) into
/// [`cost::plan_pieces`] contiguous row blocks and runs `f(first_row,
/// block)` for each, on the pool when more than one piece is planned.
///
/// Block geometry depends only on `(r, w, flops)` and the caller's split
/// width — never on pool availability — so outputs are reproducible.
/// Callers must guarantee `r > 0`, `w > 0`, and `out.len() == r * w`.
pub(crate) fn par_row_blocks(
    r: usize,
    w: usize,
    flops: u64,
    out: &mut [f32],
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let pieces = cost::plan_pieces(flops, r, parallel::current_split());
    if pieces <= 1 {
        f(0, out);
    } else {
        let rows_per = r.div_ceil(pieces);
        parallel::par_chunks_mut(out, rows_per * w, |ci, block| f(ci * rows_per, block));
    }
}

/// `o_block += a_block * b` for a block of output rows; `a_block` holds the
/// matching rows of `a`. Cache-friendly `i-k-j` order, every term evaluated
/// (no zero-skip — `0.0 * inf` must surface as `NaN`). Fallback path for
/// products too skinny or small for the packed microkernel.
fn matmul_rows(a_block: &[f32], b: &[f32], o_block: &mut [f32], k: usize, c: usize) {
    for (a_row, o_row) in a_block.chunks_exact(k).zip(o_block.chunks_exact_mut(c)) {
        for (p, &a_ik) in a_row.iter().enumerate() {
            let b_row = &b[p * c..(p + 1) * c];
            for (o_v, &b_v) in o_row.iter_mut().zip(b_row) {
                *o_v += a_ik * b_v;
            }
        }
    }
}

/// `matmul_tn` rows `[i0, i0 + block_rows)` of the output, fallback path.
/// For each output row the contraction index `p` ascends over the full
/// depth — the same per-element order as the microkernel's generic tile,
/// with every term evaluated.
fn matmul_tn_rows(
    a: &[f32],
    b: &[f32],
    o_block: &mut [f32],
    i0: usize,
    k: usize,
    r: usize,
    c: usize,
) {
    for (di, o_row) in o_block.chunks_exact_mut(c).enumerate() {
        let i = i0 + di;
        for p in 0..k {
            let a_pi = a[p * r + i];
            let b_row = &b[p * c..(p + 1) * c];
            for (o_v, &b_v) in o_row.iter_mut().zip(b_row) {
                *o_v += a_pi * b_v;
            }
        }
    }
}

/// `matmul_nt` for a block of output rows: dot products written straight
/// into the output row slice (no per-element bounds-checked `set`).
fn matmul_nt_rows(a_block: &[f32], b: &[f32], o_block: &mut [f32], k: usize, c: usize) {
    for (a_row, o_row) in a_block.chunks_exact(k).zip(o_block.chunks_exact_mut(c)) {
        for (j, o_v) in o_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&a_v, &b_v) in a_row.iter().zip(b_row) {
                acc += a_v * b_v;
            }
            *o_v = acc;
        }
    }
}

/// In-place softmax of one row. See [`Tensor::softmax_rows`] for the
/// fully-masked-row contract.
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        // Fully masked row: no finite logit to normalize against.
        if cfg!(debug_assertions) {
            panic!("softmax_rows: fully masked row (every logit is -inf)");
        }
        row.fill(0.0);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// In-place log-softmax of one row. See [`Tensor::log_softmax_rows`] for
/// the fully-masked-row contract (mirrors [`Tensor::softmax_rows`]).
fn log_softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        // Fully masked row: `v - max` would be `-inf - -inf = NaN` for
        // every entry. Mirror softmax_row's contract instead of emitting
        // an all-NaN row.
        if cfg!(debug_assertions) {
            panic!("log_softmax_rows: fully masked row (every logit is -inf)");
        }
        row.fill(f32::NEG_INFINITY);
        return;
    }
    let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
    for v in row.iter_mut() {
        *v -= log_sum;
    }
}

/// `out = a (r x k) * b (k x c)` over raw row-major buffers. Zero-fills
/// `out` first, then runs the exact block geometry of [`Tensor::matmul`],
/// so results are bitwise identical to the tensor method. This is the entry
/// point the arena executor uses to run matmuls into planned spans.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k, "matmul_into: lhs buffer");
    debug_assert_eq!(b.len(), k * c, "matmul_into: rhs buffer");
    debug_assert_eq!(out.len(), r * c, "matmul_into: out buffer");
    out.fill(0.0);
    if r == 0 || k == 0 || c == 0 {
        return;
    }
    if microkernel::takes_micro_path(r, k, c) {
        microkernel::matmul_tiled(Lhs::RowMajor(a), Rhs::RowMajor(b), out, r, k, c);
        return;
    }
    par_row_blocks(r, c, cost::matmul_flops(r, k, c), out, |row0, block| {
        let rows = block.len() / c;
        matmul_rows(&a[row0 * k..(row0 + rows) * k], b, block, k, c);
    });
}

/// `out = a^T (k x r) * b (k x c)` over raw buffers; bitwise identical to
/// [`Tensor::matmul_tn`]. Zero-fills `out` first.
pub fn matmul_tn_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, r: usize, c: usize) {
    debug_assert_eq!(a.len(), k * r, "matmul_tn_into: lhs buffer");
    debug_assert_eq!(b.len(), k * c, "matmul_tn_into: rhs buffer");
    debug_assert_eq!(out.len(), r * c, "matmul_tn_into: out buffer");
    out.fill(0.0);
    if r == 0 || k == 0 || c == 0 {
        return;
    }
    if microkernel::takes_micro_path(r, k, c) {
        microkernel::matmul_tiled(Lhs::Transposed(a), Rhs::RowMajor(b), out, r, k, c);
        return;
    }
    par_row_blocks(r, c, cost::matmul_flops(r, k, c), out, |row0, block| {
        matmul_tn_rows(a, b, block, row0, k, r, c);
    });
}

/// `out = a (r x k) * b^T (c x k)` over raw buffers; bitwise identical to
/// [`Tensor::matmul_nt`]. Zero-fills `out` first.
pub fn matmul_nt_into(a: &[f32], b: &[f32], out: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k, "matmul_nt_into: lhs buffer");
    debug_assert_eq!(b.len(), c * k, "matmul_nt_into: rhs buffer");
    debug_assert_eq!(out.len(), r * c, "matmul_nt_into: out buffer");
    out.fill(0.0);
    if r == 0 || k == 0 || c == 0 {
        return;
    }
    if microkernel::takes_micro_path(r, k, c) {
        microkernel::matmul_tiled(Lhs::RowMajor(a), Rhs::Transposed(b), out, r, k, c);
        return;
    }
    par_row_blocks(r, c, cost::matmul_flops(r, k, c), out, |row0, block| {
        let rows = block.len() / c;
        matmul_nt_rows(&a[row0 * k..(row0 + rows) * k], b, block, k, c);
    });
}

/// Row-wise softmax over a raw `r x c` buffer, in place; bitwise identical
/// to [`Tensor::softmax_rows`] (same block geometry, same per-row kernel).
pub fn softmax_rows_inplace(data: &mut [f32], r: usize, c: usize) {
    debug_assert_eq!(data.len(), r * c, "softmax_rows_inplace: buffer");
    if r == 0 || c == 0 {
        return;
    }
    par_row_blocks(r, c, cost::softmax_flops(r, c), data, |_, block| {
        for row in block.chunks_exact_mut(c) {
            softmax_row(row);
        }
    });
}

/// Row-wise log-softmax over a raw `r x c` buffer, in place; bitwise
/// identical to [`Tensor::log_softmax_rows`].
pub fn log_softmax_rows_inplace(data: &mut [f32], r: usize, c: usize) {
    debug_assert_eq!(data.len(), r * c, "log_softmax_rows_inplace: buffer");
    if r == 0 || c == 0 {
        return;
    }
    par_row_blocks(r, c, cost::softmax_flops(r, c), data, |_, block| {
        for row in block.chunks_exact_mut(c) {
            log_softmax_row(row);
        }
    });
}

impl Tensor {
    /// Elementwise sum `self + other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, "add", |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, "mul", |a, b| a * b)
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, "div", |a, b| a / b)
    }

    /// In-place elementwise sum.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// In-place scaled accumulate: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|v| v * k)
    }

    /// Adds `k` to every element.
    pub fn add_scalar(&self, k: f32) -> Tensor {
        self.map(|v| v + k)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.as_slice().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(self.rows(), self.cols(), data).expect("map preserves length")
    }

    /// Applies `f` elementwise over two same-shaped tensors.
    pub fn zip_map(&self, other: &Tensor, opname: &str, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{opname}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self.as_slice().iter().zip(other.as_slice()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::from_vec(self.rows(), self.cols(), data).expect("zip_map preserves length")
    }

    /// Adds a `1 x c` row vector to every row of an `r x c` tensor.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rows(), 1, "add_row_broadcast: rhs must be a row vector");
        assert_eq!(self.cols(), row.cols(), "add_row_broadcast: column mismatch");
        let mut out = self.clone();
        let r = row.as_slice();
        for i in 0..out.rows() {
            for (o, b) in out.row_mut(i).iter_mut().zip(r) {
                *o += b;
            }
        }
        out
    }

    /// Adds an `r x 1` column vector to every column of an `r x c` tensor.
    pub fn add_col_broadcast(&self, col: &Tensor) -> Tensor {
        assert_eq!(col.cols(), 1, "add_col_broadcast: rhs must be a column vector");
        assert_eq!(self.rows(), col.rows(), "add_col_broadcast: row mismatch");
        let mut out = self.clone();
        for i in 0..out.rows() {
            let b = col.get(i, 0);
            for o in out.row_mut(i) {
                *o += b;
            }
        }
        out
    }

    /// Multiplies every row `i` of an `r x c` tensor by scalar `col[i]`.
    pub fn mul_col_broadcast(&self, col: &Tensor) -> Tensor {
        assert_eq!(col.cols(), 1, "mul_col_broadcast: rhs must be a column vector");
        assert_eq!(self.rows(), col.rows(), "mul_col_broadcast: row mismatch");
        let mut out = self.clone();
        for i in 0..out.rows() {
            let b = col.get(i, 0);
            for o in out.row_mut(i) {
                *o *= b;
            }
        }
        out
    }

    /// Matrix product `self (r x k) * other (k x c) -> r x c`.
    ///
    /// Non-degenerate products run the packed, register-blocked
    /// microkernel ([`crate::microkernel`]); skinny or tiny ones use the
    /// cache-friendly `i-k-j` loop over contiguous rows. Large products
    /// split their tile grid across the `parallel` pool (bitwise
    /// identical to [`Tensor::matmul_serial`], see the module docs).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (r, k, c) = (self.rows(), self.cols(), other.cols());
        let mut out = Tensor::zeros(r, c);
        matmul_into(self.as_slice(), other.as_slice(), out.as_mut_slice(), r, k, c);
        out
    }

    /// Single-block reference for [`Tensor::matmul`] (the equivalence suite
    /// and benches compare the pool path against this).
    pub fn matmul_serial(&self, other: &Tensor) -> Tensor {
        parallel::with_threads(1, || self.matmul(other))
    }

    /// `self^T * other`: `(k x r)^T=(r x k)` is avoided by reading columns.
    ///
    /// Computes `transpose(self).matmul(other)` without materializing the
    /// transpose. `self` is `k x r`, `other` is `k x c`, result is `r x c`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows(), other.rows(), "matmul_tn: leading dims differ");
        let (k, r, c) = (self.rows(), self.cols(), other.cols());
        let mut out = Tensor::zeros(r, c);
        matmul_tn_into(self.as_slice(), other.as_slice(), out.as_mut_slice(), k, r, c);
        out
    }

    /// Single-block reference for [`Tensor::matmul_tn`].
    pub fn matmul_tn_serial(&self, other: &Tensor) -> Tensor {
        parallel::with_threads(1, || self.matmul_tn(other))
    }

    /// `self * other^T`: `self` is `r x k`, `other` is `c x k`, result `r x c`.
    ///
    /// Accumulates each dot product directly into the output row (exactly
    /// the element order of `self.matmul(&other.transpose())`).
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols(), other.cols(), "matmul_nt: trailing dims differ");
        let (r, k, c) = (self.rows(), self.cols(), other.rows());
        let mut out = Tensor::zeros(r, c);
        matmul_nt_into(self.as_slice(), other.as_slice(), out.as_mut_slice(), r, k, c);
        out
    }

    /// Single-block reference for [`Tensor::matmul_nt`].
    pub fn matmul_nt_serial(&self, other: &Tensor) -> Tensor {
        parallel::with_threads(1, || self.matmul_nt(other))
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = self.shape();
        let mut out = Tensor::zeros(c, r);
        for i in 0..r {
            for j in 0..c {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Dot product of two tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.as_slice().iter().zip(other.as_slice()).map(|(a, b)| a * b).sum()
    }

    /// Frobenius / L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Row-wise softmax: each row is normalized to a probability vector.
    ///
    /// Numerically stabilized by subtracting the row max. Rows may contain
    /// `-inf` entries (masked attention slots), which get probability 0.
    ///
    /// # Contract: fully masked rows
    /// A row whose entries are **all** `-inf` has no valid distribution and
    /// is a caller bug (an attention row where every candidate was masked
    /// out). Debug builds panic on such a row; release builds define the
    /// result as an all-zero row — callers must mask *before* reaching a
    /// state where nothing can be attended to.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        let (r, c) = self.shape();
        softmax_rows_inplace(out.as_mut_slice(), r, c);
        out
    }

    /// Single-block reference for [`Tensor::softmax_rows`].
    pub fn softmax_rows_serial(&self) -> Tensor {
        parallel::with_threads(1, || self.softmax_rows())
    }

    /// Row-wise log-softmax.
    ///
    /// # Contract: fully masked rows
    /// Same contract as [`Tensor::softmax_rows`]: a row whose entries are
    /// **all** `-inf` is a caller bug. Debug builds panic on such a row;
    /// release builds define the result as all `-inf` (the log of the
    /// all-zero distribution `softmax_rows` defines for that case) rather
    /// than the all-NaN row the naive `v - max` rewrite would produce.
    pub fn log_softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        let (r, c) = self.shape();
        log_softmax_rows_inplace(out.as_mut_slice(), r, c);
        out
    }

    /// Single-block reference for [`Tensor::log_softmax_rows`].
    pub fn log_softmax_rows_serial(&self) -> Tensor {
        parallel::with_threads(1, || self.log_softmax_rows())
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }
}

/// Scalar GELU (tanh approximation).
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of the scalar GELU (tanh approximation).
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let u = SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x);
    let t = u.tanh();
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(rows: &[Vec<f32>]) -> Tensor {
        Tensor::from_rows(rows)
    }

    #[test]
    fn add_sub_mul_div() {
        let a = t(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = t(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        assert_eq!(a.add(&b).as_slice(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).as_slice(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.mul(&b).as_slice(), &[5.0, 12.0, 21.0, 32.0]);
        assert_eq!(b.div(&a).as_slice(), &[5.0, 3.0, 7.0 / 3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        Tensor::zeros(2, 2).add(&Tensor::zeros(2, 3));
    }

    #[test]
    fn matmul_known_values() {
        let a = t(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = t(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = t(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]); // 3x2
        let b = t(&[vec![1.0, 0.5, 2.0], vec![0.0, 1.0, 3.0], vec![2.0, 2.0, 1.0]]); // 3x3
        let expected = a.transpose().matmul(&b);
        assert!(a.matmul_tn(&b).allclose(&expected, 1e-6));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = t(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]); // 2x3
        let b = t(&[vec![1.0, 0.5, 2.0], vec![0.0, 1.0, 3.0]]); // 2x3
        let expected = a.matmul(&b.transpose());
        assert!(a.matmul_nt(&b).allclose(&expected, 1e-6));
    }

    #[test]
    fn broadcast_add_row() {
        let a = Tensor::zeros(2, 3);
        let row = Tensor::row_vector(&[1.0, 2.0, 3.0]);
        let out = a.add_row_broadcast(&row);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn broadcast_add_col() {
        let a = Tensor::zeros(2, 2);
        let col = Tensor::col_vector(&[1.0, -1.0]);
        let out = a.add_col_broadcast(&col);
        assert_eq!(out.row(0), &[1.0, 1.0]);
        assert_eq!(out.row(1), &[-1.0, -1.0]);
    }

    #[test]
    fn broadcast_mul_col() {
        let a = Tensor::ones(2, 2);
        let col = Tensor::col_vector(&[2.0, 3.0]);
        let out = a.mul_col_broadcast(&col);
        assert_eq!(out.row(0), &[2.0, 2.0]);
        assert_eq!(out.row(1), &[3.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = t(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone: larger logits get larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let a = Tensor::row_vector(&[1000.0, 1000.0]);
        let s = a.softmax_rows();
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
        assert!(!s.has_non_finite());
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let a = Tensor::row_vector(&[0.3, -1.2, 2.0]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows();
        for j in 0..3 {
            assert!((ls.get(0, j).exp() - s.get(0, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh approximation.
        assert!((gelu_scalar(0.0)).abs() < 1e-6);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 1.9] {
            let eps = 1e-3;
            let num = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad_scalar(x) - num).abs() < 1e-3,
                "gelu'({x}) analytic {} vs numeric {num}",
                gelu_grad_scalar(x)
            );
        }
    }

    #[test]
    fn norm_and_dot() {
        let a = Tensor::row_vector(&[3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        let b = Tensor::row_vector(&[1.0, 2.0]);
        assert_eq!(a.dot(&b), 11.0);
    }

    #[test]
    fn transpose_involution() {
        let a = t(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(1, 3);
        let b = Tensor::row_vector(&[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn matmul_nt_is_exactly_matmul_of_transpose() {
        // Same contraction order (p ascending) on both paths, so the
        // cross-check holds with zero tolerance, not just approximately.
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::rand_normal(13, 9, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(11, 9, 0.0, 1.0, &mut rng);
        assert!(a.matmul_nt(&b).allclose(&a.matmul(&b.transpose()), 0.0));
    }

    #[test]
    fn softmax_keeps_masked_entries_at_zero() {
        let a = Tensor::row_vector(&[2.0, f32::NEG_INFINITY, 0.5]);
        let s = a.softmax_rows();
        assert_eq!(s.get(0, 1), 0.0);
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(!s.has_non_finite());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fully masked row")]
    fn softmax_panics_on_fully_masked_row_in_debug() {
        Tensor::row_vector(&[f32::NEG_INFINITY, f32::NEG_INFINITY]).softmax_rows();
    }

    fn assert_bitwise_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// Shapes chosen so the kernels actually take the pool path with row
    /// counts that do not divide evenly by the split width, plus
    /// degenerate 1xn / nx1 outputs. (37, 96, 80) clears the tiled-path
    /// `MATMUL_PAR_FLOP_THRESHOLD` with a ragged tile grid; (65, 512, 1)
    /// splits on the skinny fallback path; (37, 64, 33) and (8, 64, 64)
    /// run the microkernel serially; (1, 4096, 17) stays on the row loop.
    #[test]
    fn parallel_kernels_bitwise_match_serial_across_widths() {
        let mut rng = StdRng::seed_from_u64(42);
        let cases =
            [(37usize, 96usize, 80usize), (37, 64, 33), (1, 4096, 17), (65, 512, 1), (8, 64, 64)];
        for &(r, k, c) in &cases {
            let a = Tensor::rand_normal(r, k, 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(k, c, 0.0, 1.0, &mut rng);
            let at = a.transpose(); // k x r for matmul_tn
            let bt = b.transpose(); // c x k for matmul_nt
            let logits = Tensor::rand_normal(r, k, 0.0, 1.0, &mut rng);
            for width in [1usize, 2, 8] {
                parallel::with_threads(width, || {
                    assert_bitwise_eq(&a.matmul(&b), &a.matmul_serial(&b), "matmul");
                    assert_bitwise_eq(&at.matmul_tn(&b), &at.matmul_tn_serial(&b), "matmul_tn");
                    assert_bitwise_eq(&a.matmul_nt(&bt), &a.matmul_nt_serial(&bt), "matmul_nt");
                    assert_bitwise_eq(
                        &logits.softmax_rows(),
                        &logits.softmax_rows_serial(),
                        "softmax_rows",
                    );
                    assert_bitwise_eq(
                        &logits.log_softmax_rows(),
                        &logits.log_softmax_rows_serial(),
                        "log_softmax_rows",
                    );
                });
            }
        }
    }

    #[test]
    fn restructured_matmul_tn_matches_historical_p_outer_kernel() {
        // The pre-parallel kernel iterated p in the outer loop; keep a
        // copy here to pin the restructured row-of-output kernel to it
        // bitwise. (The historical kernel's zero-skip was dropped along
        // with the production one's — on IEEE semantics skipping `a == 0`
        // silently loses `0 * inf -> NaN`; this data is zero-free, so the
        // pin covers the arithmetic order either way.)
        fn historical_tn(a: &Tensor, b: &Tensor) -> Tensor {
            let (k, r, c) = (a.rows(), a.cols(), b.cols());
            let mut out = Tensor::zeros(r, c);
            for p in 0..k {
                for i in 0..r {
                    let a_pi = a.get(p, i);
                    for j in 0..c {
                        out.set(i, j, out.get(i, j) + a_pi * b.get(p, j));
                    }
                }
            }
            out
        }
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_normal(19, 7, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(19, 11, 0.0, 1.0, &mut rng);
        assert_bitwise_eq(&a.matmul_tn(&b), &historical_tn(&a, &b), "matmul_tn vs historical");
    }

    /// Regression for the zero-skip bugfix: a zero left operand times a
    /// non-finite right operand must produce `NaN` (`0 * inf` is `NaN` in
    /// IEEE 754), on the fallback row loops and the packed microkernel
    /// alike. The old kernels skipped `a_ik == 0.0` and silently reported
    /// finite results that disagreed with the mathematical definition.
    #[test]
    fn matmul_family_propagates_zero_times_inf_as_nan() {
        // Small shapes: fallback row-loop path.
        let a = t(&[vec![0.0, 1.0], vec![2.0, 3.0]]);
        let b = t(&[vec![f32::INFINITY, 1.0], vec![1.0, 1.0]]);
        let out = a.matmul(&b);
        assert!(out.get(0, 0).is_nan(), "0 * inf must propagate NaN, got {}", out.get(0, 0));
        assert_eq!(out.get(1, 1), 5.0, "finite lanes stay exact");
        let tn = a.transpose().matmul_tn(&b);
        assert!(tn.get(0, 0).is_nan(), "matmul_tn dropped 0 * inf");
        let nt = a.matmul_nt(&b.transpose());
        assert!(nt.get(0, 0).is_nan(), "matmul_nt dropped 0 * inf");

        // NaN operands poison their whole output row/column too.
        let a_nan = t(&[vec![f32::NAN, 0.0], vec![1.0, 1.0]]);
        let ones = Tensor::ones(2, 2);
        assert!(a_nan.matmul(&ones).get(0, 1).is_nan());

        // Micro-path shape (8 x 32 x 16, over MICRO_MIN_FLOPS): an all-zero
        // lhs against a rhs with one inf must put NaN in that column.
        let az = Tensor::zeros(8, 32);
        let mut bz = Tensor::ones(32, 16);
        bz.set(5, 3, f32::INFINITY);
        let mz = az.matmul(&bz);
        for i in 0..8 {
            assert!(mz.get(i, 3).is_nan(), "micro path dropped 0 * inf at row {i}");
            assert_eq!(mz.get(i, 0), 0.0, "finite columns stay zero");
        }
        let mz_tn = az.transpose().matmul_tn(&bz);
        for i in 0..8 {
            assert!(mz_tn.get(i, 3).is_nan(), "tiled matmul_tn dropped 0 * inf at row {i}");
        }
        let mz_nt = az.matmul_nt(&bz.transpose());
        for i in 0..8 {
            assert!(mz_nt.get(i, 3).is_nan(), "tiled matmul_nt dropped 0 * inf at row {i}");
        }
    }

    #[test]
    fn matmul_with_zero_inner_dim_is_zero() {
        let a = Tensor::zeros(3, 0);
        let b = Tensor::zeros(0, 4);
        let out = a.matmul(&b);
        assert_eq!(out.shape(), (3, 4));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fully masked row")]
    fn log_softmax_panics_on_fully_masked_row_in_debug() {
        Tensor::row_vector(&[f32::NEG_INFINITY, f32::NEG_INFINITY]).log_softmax_rows();
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn log_softmax_defines_fully_masked_row_in_release() {
        let out = Tensor::row_vector(&[f32::NEG_INFINITY, f32::NEG_INFINITY]).log_softmax_rows();
        // log of the all-zero distribution softmax_rows defines: all -inf,
        // never NaN.
        assert!(out.as_slice().iter().all(|&v| v == f32::NEG_INFINITY), "{out:?}");
    }

    #[test]
    fn log_softmax_handles_partially_masked_rows() {
        // A partial mask is legal: masked slots get -inf log-probability,
        // live slots normalize over the unmasked set.
        let out = Tensor::row_vector(&[2.0, f32::NEG_INFINITY, 2.0]).log_softmax_rows();
        assert_eq!(out.get(0, 1), f32::NEG_INFINITY);
        assert!((out.get(0, 0) - 0.5f32.ln()).abs() < 1e-6);
        assert!(!out.get(0, 0).is_nan() && !out.get(0, 2).is_nan());
    }
}
