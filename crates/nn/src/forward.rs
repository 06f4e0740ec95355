//! The forward kernel of every tape op, written once.
//!
//! [`eval`] computes one op's value into an output slice. Both executors
//! call it: the eager [`Tape`](crate::Tape) allocates each node's tensor and
//! evaluates it at record time, and the arena executor
//! ([`crate::ArenaExecutor`]) evaluates each planned node into its arena
//! span. Inputs arrive through a value accessor and a shape accessor, so
//! the kernel never knows where a value lives. The golden-bits suite
//! (`tests/golden_bits.rs`) pins the arithmetic below to committed bit
//! patterns.
//!
//! Loops run over whole rows (broadcasts, transpose, layer norm) so they
//! vectorise and never divide per element. The matmuls and softmaxes call
//! the `hiergat_tensor` `*_into` kernels, whose block geometry is what keeps
//! results bitwise identical across pool widths.

use crate::tape::{Op, Var};
use hiergat_tensor::{
    gelu_scalar, log_softmax_rows_inplace, matmul_into, matmul_nt_into, matmul_tn_into,
    row_moments_into, softmax_rows_inplace,
};

fn unary(out: &mut [f32], a: &[f32], f: impl Fn(f32) -> f32) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

fn binary(out: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// Row-wise log-softmax of `logits` (`r x c`) into a fresh buffer.
fn log_probs(logits: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut lp = logits.to_vec();
    log_softmax_rows_inplace(&mut lp, r, c);
    lp
}

/// Writes the value of tape node `i` (op `op`, shape `(yr, yc)`) into
/// `out`. `val` and `shape` read an input's values and shape; `moments` is
/// layer-norm scratch, grown on first use and reused afterwards.
///
/// The caller has checked the op's shape rule (`crate::analyze::op_rule`),
/// so the kernels index without re-validating shapes: eager recording
/// panics on a violation, and the arena executor refuses a deferred tape
/// that recorded one.
///
/// # Panics
/// Panics on a leaf op (leaves carry their own values). Debug builds also
/// panic when the op produced a non-finite value, naming the node.
#[allow(clippy::too_many_lines)]
pub(crate) fn eval<'a>(
    i: usize,
    op: &Op,
    (yr, yc): (usize, usize),
    out: &mut [f32],
    val: impl Fn(Var) -> &'a [f32],
    shape: impl Fn(Var) -> (usize, usize),
    moments: &mut Vec<f32>,
) {
    if out.is_empty() {
        return;
    }
    match op {
        Op::Input | Op::Param(_) => unreachable!("leaf ops carry their own values"),
        Op::Add(a, b) => binary(out, val(*a), val(*b), |x, y| x + y),
        Op::Sub(a, b) => binary(out, val(*a), val(*b), |x, y| x - y),
        Op::Mul(a, b) => binary(out, val(*a), val(*b), |x, y| x * y),
        Op::Div(a, b) => binary(out, val(*a), val(*b), |x, y| x / y),
        Op::Scale(a, k) => unary(out, val(*a), |x| x * k),
        Op::AddScalar(a, k) => unary(out, val(*a), |x| x + k),
        Op::AddRow(a, row) => {
            let rv = val(*row);
            for (o_row, a_row) in out.chunks_exact_mut(yc).zip(val(*a).chunks_exact(yc)) {
                binary(o_row, a_row, rv, |x, b| x + b);
            }
        }
        Op::AddCol(a, col) => {
            let cv = val(*col);
            for ((o_row, a_row), &b) in
                out.chunks_exact_mut(yc).zip(val(*a).chunks_exact(yc)).zip(cv)
            {
                unary(o_row, a_row, |x| x + b);
            }
        }
        Op::MulCol(a, col) => {
            let cv = val(*col);
            for ((o_row, a_row), &b) in
                out.chunks_exact_mut(yc).zip(val(*a).chunks_exact(yc)).zip(cv)
            {
                unary(o_row, a_row, |x| x * b);
            }
        }
        Op::Matmul(a, b) => matmul_into(val(*a), val(*b), out, yr, shape(*a).1, yc),
        Op::MatmulNt(a, b) => matmul_nt_into(val(*a), val(*b), out, yr, shape(*a).1, yc),
        Op::MatmulTn(a, b) => matmul_tn_into(val(*a), val(*b), out, shape(*a).0, yr, yc),
        Op::Transpose(a) => {
            // Output row j is input column j.
            let av = val(*a);
            let (ar, ac) = (yc, yr);
            for (j, o_row) in out.chunks_exact_mut(ar).enumerate() {
                for (r, o) in o_row.iter_mut().enumerate() {
                    *o = av[r * ac + j];
                }
            }
        }
        Op::SumAll(a) => out[0] = val(*a).iter().sum(),
        Op::MeanAll(a) => {
            let av = val(*a);
            out[0] = if av.is_empty() { 0.0 } else { av.iter().sum::<f32>() / av.len() as f32 };
        }
        Op::SumRows(a) => {
            out.fill(0.0);
            for a_row in val(*a).chunks_exact(yc) {
                for (o, &x) in out.iter_mut().zip(a_row) {
                    *o += x;
                }
            }
        }
        Op::SumCols(a) => {
            let (av, ac) = (val(*a), shape(*a).1);
            for (r, o) in out.iter_mut().enumerate() {
                *o = av[r * ac..(r + 1) * ac].iter().sum();
            }
        }
        Op::MaxCols(a) => {
            let (av, ac) = (val(*a), shape(*a).1);
            for (r, o) in out.iter_mut().enumerate() {
                *o = av[r * ac..(r + 1) * ac].iter().copied().fold(f32::NEG_INFINITY, f32::max);
            }
        }
        Op::Softmax(a) => {
            out.copy_from_slice(val(*a));
            softmax_rows_inplace(out, yr, yc);
        }
        Op::LogSoftmax(a) => {
            out.copy_from_slice(val(*a));
            log_softmax_rows_inplace(out, yr, yc);
        }
        Op::Exp(a) => unary(out, val(*a), f32::exp),
        Op::Ln(a) => unary(out, val(*a), f32::ln),
        Op::Sqrt(a) => unary(out, val(*a), f32::sqrt),
        Op::Relu(a) => unary(out, val(*a), |x| x.max(0.0)),
        Op::LeakyRelu(a, alpha) => unary(out, val(*a), |x| if x >= 0.0 { x } else { alpha * x }),
        Op::Tanh(a) => unary(out, val(*a), f32::tanh),
        Op::Sigmoid(a) => unary(out, val(*a), |x| 1.0 / (1.0 + (-x).exp())),
        Op::Gelu(a) => unary(out, val(*a), gelu_scalar),
        Op::LayerNorm { x, gamma, beta, eps } => {
            let xv = val(*x);
            if moments.len() < 2 * yr {
                moments.resize(2 * yr, 0.0);
            }
            let stats = &mut moments[..2 * yr];
            row_moments_into(xv, stats, yr, yc);
            let (gv, bv) = (val(*gamma), val(*beta));
            let rows = out.chunks_exact_mut(yc).zip(xv.chunks_exact(yc)).zip(stats.chunks_exact(2));
            for ((o_row, x_row), s) in rows {
                let (m, inv) = (s[0], 1.0 / (s[1] + eps).sqrt());
                for (((o, &xj), &g), &b) in o_row.iter_mut().zip(x_row).zip(gv).zip(bv) {
                    *o = (xj - m) * inv * g + b;
                }
            }
        }
        Op::ConcatCols(parts) => {
            let mut off = 0;
            for &p in parts {
                let pc = shape(p).1;
                if pc > 0 {
                    for (o_row, p_row) in out.chunks_exact_mut(yc).zip(val(p).chunks_exact(pc)) {
                        o_row[off..off + pc].copy_from_slice(p_row);
                    }
                }
                off += pc;
            }
        }
        Op::ConcatRows(parts) => {
            let mut off = 0;
            for &p in parts {
                let pv = val(p);
                out[off..off + pv.len()].copy_from_slice(pv);
                off += pv.len();
            }
        }
        Op::SliceCols { x, start, len } => {
            let xc = shape(*x).1;
            for (o_row, x_row) in out.chunks_exact_mut(*len).zip(val(*x).chunks_exact(xc)) {
                o_row.copy_from_slice(&x_row[*start..start + len]);
            }
        }
        Op::SliceRows { x, start, .. } => {
            out.copy_from_slice(&val(*x)[start * yc..(start + yr) * yc]);
        }
        Op::GatherRows { table, indices } => {
            let tv = val(*table);
            for (o_row, &idx) in out.chunks_exact_mut(yc).zip(indices) {
                o_row.copy_from_slice(&tv[idx * yc..(idx + 1) * yc]);
            }
        }
        Op::Dropout { x, mask } => binary(out, val(*x), mask.as_slice(), |a, m| a * m),
        Op::CrossEntropyLogits { logits, targets } => {
            let (r, c) = shape(*logits);
            let lp = log_probs(val(*logits), r, c);
            let mut loss = 0.0;
            for (row, &t) in targets.iter().enumerate() {
                loss -= lp[row * c + t];
            }
            out[0] = loss / targets.len() as f32;
        }
        Op::WeightedCrossEntropyLogits { logits, targets, weights } => {
            let (r, c) = shape(*logits);
            let lp = log_probs(val(*logits), r, c);
            let w_sum: f32 = weights.iter().sum();
            let mut loss = 0.0;
            for (row, (&t, &w)) in targets.iter().zip(weights).enumerate() {
                loss -= w * lp[row * c + t];
            }
            out[0] = loss / w_sum;
        }
        Op::BceWithLogits { logits, targets } => {
            let mut loss = 0.0;
            for (&z, &y) in val(*logits).iter().zip(targets) {
                // Numerically stable: max(z,0) - z*y + ln(1 + e^{-|z|}).
                loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
            }
            out[0] = loss / targets.len() as f32;
        }
        Op::MseLoss { pred, target } => {
            let pv = val(*pred);
            let sq: f32 = pv
                .iter()
                .zip(target.as_slice())
                .map(|(p, t)| {
                    let d = p - t;
                    d * d
                })
                .sum();
            out[0] = sq / pv.len() as f32;
        }
    }
    if cfg!(debug_assertions) && out.iter().any(|v| !v.is_finite()) {
        panic!(
            "tape op #{i} ({}) produced non-finite values; \
             run hiergat_nn::analyze::finite_audit on the tape for a report",
            op.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::tape::Tape;
    use hiergat_tensor::Tensor;

    /// Records `f` of a constant on an eager tape and returns its value.
    fn eager(x: Tensor, f: impl FnOnce(&mut Tape, crate::Var) -> crate::Var) -> Tensor {
        let mut t = Tape::new();
        let x = t.input(x);
        let y = f(&mut t, x);
        t.value(y).clone()
    }

    #[test]
    fn activations() {
        let a = Tensor::row_vector(&[-2.0, 0.0, 2.0]);
        assert_eq!(eager(a.clone(), Tape::relu).as_slice(), &[0.0, 0.0, 2.0]);
        assert_eq!(eager(a.clone(), |t, x| t.leaky_relu(x, 0.1)).as_slice(), &[-0.2, 0.0, 2.0]);
        let s = eager(a, Tape::sigmoid);
        assert!((s.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(s.get(0, 0) < 0.5 && s.get(0, 2) > 0.5);
    }

    #[test]
    fn exp_ln_sqrt_elementwise() {
        let a = Tensor::row_vector(&[0.0, 1.0, 4.0]);
        assert_eq!(eager(a.clone(), Tape::exp).as_slice(), &[1.0, 1.0f32.exp(), 4.0f32.exp()]);
        assert_eq!(eager(a.clone(), Tape::sqrt).as_slice(), &[0.0, 1.0, 2.0]);
        let e = eager(a.clone(), |t, x| {
            let y = t.exp(x);
            t.ln(y)
        });
        assert!(e.allclose(&a, 1e-6), "ln(exp(x)) must round-trip");
        // Debug builds reject the non-finite result at the sentinel instead.
        if !cfg!(debug_assertions) {
            assert_eq!(eager(Tensor::row_vector(&[0.0]), Tape::ln).get(0, 0), f32::NEG_INFINITY);
        }
    }

    #[test]
    fn max_cols_per_row() {
        let x = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let m = eager(x, Tape::max_cols);
        assert_eq!(m.shape(), (2, 1));
        assert_eq!(m.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "max_cols of a zero-column tensor")]
    fn max_cols_panics_on_zero_width() {
        eager(Tensor::zeros(2, 0), Tape::max_cols);
    }

    #[test]
    fn concat_cols_layout() {
        let mut t = Tape::new();
        let a = t.input(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = t.input(Tensor::from_rows(&[vec![5.0], vec![6.0]]));
        let c = t.concat_cols(&[a, b]);
        assert_eq!(t.value(c).shape(), (2, 3));
        assert_eq!(t.value(c).row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(t.value(c).row(1), &[3.0, 4.0, 6.0]);
    }

    #[test]
    fn concat_rows_layout() {
        let mut t = Tape::new();
        let a = t.input(Tensor::from_rows(&[vec![1.0, 2.0]]));
        let b = t.input(Tensor::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]));
        let c = t.concat_rows(&[a, b]);
        assert_eq!(t.value(c).shape(), (3, 2));
        assert_eq!(t.value(c).row(2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_rows_layout() {
        let table = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 2.0]]);
        let picked = eager(table, |t, x| t.gather_rows(x, &[2, 0, 2]));
        assert_eq!(picked.shape(), (3, 2));
        assert_eq!(picked.row(0), &[2.0, 2.0]);
        assert_eq!(picked.row(1), &[1.0, 0.0]);
        assert_eq!(picked.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn broadcast_row_loops_match_per_element_reference() {
        // The row loops must produce exactly what the per-element
        // definitions give, including on non-square shapes.
        let a = Tensor::from_rows(&[vec![1.0, -2.0, 3.5], vec![0.25, 4.0, -1.0]]);
        let row = Tensor::row_vector(&[0.5, 1.5, -2.0]);
        let col = Tensor::col_vector(&[3.0, -0.5]);
        let mut t = Tape::new();
        let (x, r, c) = (t.input(a.clone()), t.input(row.clone()), t.input(col.clone()));
        let ar = t.add_row(x, r);
        let ac = t.add_col(x, c);
        let mc = t.mul_col(x, c);
        let tr = t.transpose(x);
        for i in 0..2 {
            for j in 0..3 {
                let v = a.get(i, j);
                assert_eq!(t.value(ar).get(i, j).to_bits(), (v + row.get(0, j)).to_bits());
                assert_eq!(t.value(ac).get(i, j).to_bits(), (v + col.get(i, 0)).to_bits());
                assert_eq!(t.value(mc).get(i, j).to_bits(), (v * col.get(i, 0)).to_bits());
                assert_eq!(t.value(tr).get(j, i).to_bits(), v.to_bits());
            }
        }
    }
}
