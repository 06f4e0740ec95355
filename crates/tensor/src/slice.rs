//! Structural operations: slicing, row scattering and stacking.

use crate::Tensor;

impl Tensor {
    /// Copies columns `[start, start + len)` into a new tensor.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        assert!(
            start + len <= self.cols(),
            "slice_cols: [{start}, {}) out of 0..{}",
            start + len,
            self.cols()
        );
        let mut out = Tensor::zeros(self.rows(), len);
        for i in 0..self.rows() {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..start + len]);
        }
        out
    }

    /// Copies rows `[start, start + len)` into a new tensor.
    pub fn slice_rows(&self, start: usize, len: usize) -> Tensor {
        assert!(
            start + len <= self.rows(),
            "slice_rows: [{start}, {}) out of 0..{}",
            start + len,
            self.rows()
        );
        let mut out = Tensor::zeros(len, self.cols());
        for i in 0..len {
            out.row_mut(i).copy_from_slice(self.row(start + i));
        }
        out
    }

    /// Scatter-add: `self[indices[i]] += src[i]` for every row of `src`.
    ///
    /// Duplicated indices accumulate, which is exactly the gradient rule for
    /// embedding lookups (the tape's `gather_rows`) with repeated tokens.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Tensor) {
        assert_eq!(indices.len(), src.rows(), "scatter_add_rows: index count mismatch");
        assert_eq!(self.cols(), src.cols(), "scatter_add_rows: column mismatch");
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows(), "scatter_add_rows: index {idx} out of range");
            let s = src.row(i);
            for (d, v) in self.row_mut(idx).iter_mut().zip(s) {
                *d += v;
            }
        }
    }

    /// Builds a tensor by stacking row vectors produced by `f(i)`.
    pub fn stack_rows(n: usize, cols: usize, mut f: impl FnMut(usize) -> Vec<f32>) -> Tensor {
        let mut out = Tensor::zeros(n, cols);
        for i in 0..n {
            let row = f(i);
            assert_eq!(row.len(), cols, "stack_rows: row {i} wrong length");
            out.row_mut(i).copy_from_slice(&row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> (Tensor, Tensor) {
        (
            Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
            Tensor::from_rows(&[vec![5.0], vec![6.0]]),
        )
    }

    #[test]
    fn slices_are_views_copied() {
        let (a, _) = ab();
        assert_eq!(a.slice_cols(1, 1).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.slice_rows(1, 1).as_slice(), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "slice_cols")]
    fn slice_cols_bounds() {
        ab().0.slice_cols(1, 2);
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        // The gather itself is a tape op (its layout test lives in `nn`);
        // here rows are picked by hand and scattered back.
        let idx = [2, 0, 2];
        let table = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 2.0]]);
        let picked = Tensor::stack_rows(3, 2, |i| table.row(idx[i]).to_vec());
        assert_eq!(picked.row(0), &[2.0, 2.0]);
        assert_eq!(picked.row(1), &[1.0, 0.0]);

        let mut grad = Tensor::zeros(3, 2);
        grad.scatter_add_rows(&idx, &Tensor::ones(3, 2));
        assert_eq!(grad.row(0), &[1.0, 1.0]);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
        assert_eq!(grad.row(2), &[2.0, 2.0]); // duplicate index accumulated
    }

    #[test]
    fn stack_rows_builder() {
        let t = Tensor::stack_rows(3, 2, |i| vec![i as f32, 2.0 * i as f32]);
        assert_eq!(t.row(2), &[2.0, 4.0]);
    }
}
