//! Reductions: sums, means, argmax, and row statistics.

use crate::Tensor;

/// Interleaved per-row `[mean, variance]` statistics of a raw `r x c`
/// row-major buffer, written into `stats` (`r x 2`), with the same block
/// geometry as [`Tensor::row_moments`] — bitwise identical to the tensor
/// method. This is the entry point the arena executor uses for the fused
/// layer-norm forward/backward.
pub fn row_moments_into(src: &[f32], stats: &mut [f32], r: usize, c: usize) {
    debug_assert_eq!(src.len(), r * c, "row_moments_into: src buffer");
    debug_assert_eq!(stats.len(), r * 2, "row_moments_into: stats buffer");
    if r == 0 || c == 0 {
        return;
    }
    let cf = c as f32;
    crate::ops::par_row_blocks(r, 2, crate::cost::row_moments_flops(r, c), stats, |row0, block| {
        for (di, s) in block.chunks_exact_mut(2).enumerate() {
            let i = row0 + di;
            let row = &src[i * c..(i + 1) * c];
            let m = row.iter().sum::<f32>() / cf;
            let v = row.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / cf;
            s[0] = m;
            s[1] = v;
        }
    });
}

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Sums over rows, producing a `1 x cols` row vector.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols());
        for i in 0..self.rows() {
            let src = self.row(i);
            for (o, v) in out.row_mut(0).iter_mut().zip(src) {
                *o += v;
            }
        }
        out
    }

    /// Sums over columns, producing a `rows x 1` column vector.
    pub fn sum_cols(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows(), 1);
        for i in 0..self.rows() {
            out.set(i, 0, self.row(i).iter().sum());
        }
        out
    }

    /// Means over rows, producing a `1 x cols` row vector.
    pub fn mean_rows(&self) -> Tensor {
        assert!(self.rows() > 0, "mean_rows: empty tensor");
        self.sum_rows().scale(1.0 / self.rows() as f32)
    }

    /// Index of the maximum element in row `r` (first on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    }

    /// Maximum element of the whole tensor.
    pub fn max(&self) -> f32 {
        self.as_slice().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element of the whole tensor.
    pub fn min(&self) -> f32 {
        self.as_slice().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Per-row mean and (biased) variance; returned as two `rows x 1` vectors.
    ///
    /// Used by the fused layer-norm forward/backward in `hiergat-nn`. Large
    /// inputs compute their statistics into an interleaved `rows x 2` block
    /// in parallel (each row's reduction stays within one task, so results
    /// are bitwise identical across thread counts), then unzip serially.
    pub fn row_moments(&self) -> (Tensor, Tensor) {
        let (r, c) = self.shape();
        let mut mean = Tensor::zeros(r, 1);
        let mut var = Tensor::zeros(r, 1);
        if r == 0 || c == 0 {
            return (mean, var);
        }
        let mut stats = Tensor::zeros(r, 2);
        row_moments_into(self.as_slice(), stats.as_mut_slice(), r, c);
        for i in 0..r {
            mean.set(i, 0, stats.get(i, 0));
            var.set(i, 0, stats.get(i, 1));
        }
        (mean, var)
    }

    /// Single-block reference for [`Tensor::row_moments`].
    pub fn row_moments_serial(&self) -> (Tensor, Tensor) {
        parallel::with_threads(1, || self.row_moments())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tensor {
        Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn sums() {
        assert_eq!(t().sum(), 21.0);
        assert_eq!(t().sum_rows().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(t().sum_cols().as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn means() {
        assert_eq!(t().mean(), 3.5);
        assert_eq!(t().mean_rows().as_slice(), &[2.5, 3.5, 4.5]);
        assert_eq!(Tensor::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        let a = Tensor::from_rows(&[vec![1.0, 3.0, 3.0]]);
        assert_eq!(a.argmax_row(0), 1);
    }

    #[test]
    fn min_max() {
        assert_eq!(t().max(), 6.0);
        assert_eq!(t().min(), 1.0);
    }

    #[test]
    fn moments() {
        let (m, v) = t().row_moments();
        assert_eq!(m.as_slice(), &[2.0, 5.0]);
        // var of [1,2,3] = 2/3
        assert!((v.get(0, 0) - 2.0 / 3.0).abs() < 1e-6);
        assert!((v.get(1, 0) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn row_moments_bitwise_match_serial_across_widths() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // 67 x 300 puts the FLOP estimate over the parallel threshold with a
        // row count that does not divide evenly by the split width.
        let a = Tensor::rand_normal(67, 300, 0.0, 1.0, &mut StdRng::seed_from_u64(9));
        let (m_ref, v_ref) = a.row_moments_serial();
        for width in [1usize, 2, 8] {
            parallel::with_threads(width, || {
                let (m, v) = a.row_moments();
                for (x, y) in m.as_slice().iter().zip(m_ref.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "mean at width {width}");
                }
                for (x, y) in v.as_slice().iter().zip(v_ref.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "var at width {width}");
                }
            });
        }
    }
}
