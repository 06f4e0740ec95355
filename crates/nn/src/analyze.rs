//! Static analysis over the autograd tape.
//!
//! Four passes, none of which execute kernels:
//!
//! 1. **Symbolic shape inference** — a tape recorded in deferred mode
//!    ([`Tape::inference`](crate::Tape::inference)) derives every node's
//!    shape from one per-op rule (`op_rule`, which also carries the op's
//!    FLOP cost) instead of running the kernels. Shape constraint failures
//!    are collected as [`ShapeViolation`]s (op index, op name, offending
//!    shapes) rather than panicking mid-forward, so one pre-flight pass
//!    reports *all* wiring mistakes at once.
//! 2. **Dead-gradient / reachability analysis** — [`analyze_graph`] walks
//!    the recorded graph backwards from the loss node and reports
//!    parameters that are registered in the [`ParamStore`] but can never
//!    receive a gradient, plus nodes that were computed but do not
//!    contribute to the loss.
//! 3. **NaN/Inf sentinel** — [`finite_audit`] scans every recorded forward
//!    value and names the first op that produced a non-finite tensor; the
//!    tape's own `debug_assertions`-gated checks (in `push` and in
//!    `backward`) use the same op naming for forward values and backward
//!    adjoints.
//! 4. **Cost model** — [`cost_analysis`] estimates per-op forward FLOPs and
//!    liveness-based peak value memory using the same formulas
//!    (`hiergat_tensor::cost`) the kernels consult to pick serial-vs-pool
//!    execution, so the report states which ops will actually go parallel
//!    at the configured thread count.

use crate::params::ParamStore;
use crate::tape::{Op, Tape, Var};
use hiergat_tensor::cost as kcost;
use std::fmt;

/// A shape-constraint failure discovered while recording a deferred tape.
#[derive(Debug, Clone)]
pub struct ShapeViolation {
    /// Index of the offending op on the tape.
    pub op_index: usize,
    /// The op's name (e.g. `"matmul"`).
    pub op_name: &'static str,
    /// Human-readable description including the offending shapes.
    pub message: String,
}

impl fmt::Display for ShapeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op #{} ({}): {}", self.op_index, self.op_name, self.message)
    }
}

/// A parameter that can never receive a gradient from the analyzed loss.
#[derive(Debug, Clone)]
pub struct DeadParam {
    /// The parameter's registered name.
    pub name: String,
    /// Whether the parameter is frozen (expected to be gradient-dead).
    pub frozen: bool,
    /// Whether the parameter was read onto the tape at all.
    pub on_tape: bool,
}

/// A non-leaf node that was computed but does not contribute to the loss.
#[derive(Debug, Clone)]
pub struct UnusedNode {
    /// Index of the node on the tape.
    pub op_index: usize,
    /// The op's name.
    pub op_name: &'static str,
}

/// A tensor with non-finite entries found by [`finite_audit`].
#[derive(Debug, Clone)]
pub struct SentinelHit {
    /// Index of the node holding the non-finite value.
    pub op_index: usize,
    /// The op's name.
    pub op_name: &'static str,
    /// Number of NaN entries.
    pub nan: usize,
    /// Number of +/- infinity entries.
    pub inf: usize,
}

impl fmt::Display for SentinelHit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op #{} ({}): {} NaN, {} Inf entries",
            self.op_index, self.op_name, self.nan, self.inf
        )
    }
}

/// Estimated cost of one recorded op (forward pass only).
#[derive(Debug, Clone)]
pub struct OpCost {
    /// Index of the node on the tape.
    pub op_index: usize,
    /// The op's name.
    pub op_name: &'static str,
    /// Estimated forward FLOPs (see `hiergat_tensor::cost` conventions).
    pub flops: u64,
    /// Bytes of the op's output value (`f32` elements).
    pub out_bytes: u64,
    /// `true` when the op's kernel will take the thread-pool path at the
    /// split width the report was computed for (same `plan_pieces` decision
    /// the kernel itself makes).
    pub parallel: bool,
}

/// Per-graph cost budget: FLOP totals and liveness-based peak memory.
#[derive(Debug, Default)]
pub struct CostReport {
    /// One entry per tape node, in recording order.
    pub per_op: Vec<OpCost>,
    /// Sum of all per-op FLOP estimates.
    pub total_flops: u64,
    /// FLOPs in ops whose kernels run on the pool (at `split`).
    pub parallel_flops: u64,
    /// Peak of the total live node-value bytes, assuming each value is
    /// freed right after its last consumer runs (parameters and gradients
    /// are owned elsewhere and not counted).
    pub peak_bytes: u64,
    /// Split width the serial-vs-parallel decisions were evaluated at.
    pub split: usize,
}

impl CostReport {
    /// The `n` costliest ops, descending by FLOPs (ties: earlier op first).
    pub fn top_ops(&self, n: usize) -> Vec<&OpCost> {
        let mut ranked: Vec<&OpCost> = self.per_op.iter().filter(|o| o.flops > 0).collect();
        ranked.sort_by(|x, y| y.flops.cmp(&x.flops).then(x.op_index.cmp(&y.op_index)));
        ranked.truncate(n);
        ranked
    }
}

/// Formats a FLOP count with a metric prefix (e.g. `33.55 MFLOP`).
pub fn fmt_flops(n: u64) -> String {
    let f = n as f64;
    if f >= 1e9 {
        format!("{:.2} GFLOP", f / 1e9)
    } else if f >= 1e6 {
        format!("{:.2} MFLOP", f / 1e6)
    } else if f >= 1e3 {
        format!("{:.2} kFLOP", f / 1e3)
    } else {
        format!("{n} FLOP")
    }
}

/// Formats a byte count with a binary prefix (e.g. `1.4 MiB`).
pub fn fmt_bytes(n: u64) -> String {
    let f = n as f64;
    if f >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", f / (1024.0 * 1024.0 * 1024.0))
    } else if f >= 1024.0 * 1024.0 {
        format!("{:.2} MiB", f / (1024.0 * 1024.0))
    } else if f >= 1024.0 {
        format!("{:.2} KiB", f / 1024.0)
    } else {
        format!("{n} B")
    }
}

/// The combined result of the analysis passes over one recorded graph.
#[derive(Debug, Default)]
pub struct GraphReport {
    /// Total recorded nodes.
    pub node_count: usize,
    /// Total registered parameters.
    pub param_count: usize,
    /// Shape-inference violations (only populated for deferred tapes).
    pub shape_violations: Vec<ShapeViolation>,
    /// Registered parameters unreachable from the loss.
    pub dead_params: Vec<DeadParam>,
    /// Computed nodes that do not feed the loss.
    pub unused_nodes: Vec<UnusedNode>,
    /// Non-finite values found on the tape (on a deferred tape only its
    /// `Input` leaves hold values).
    pub sentinel_hits: Vec<SentinelHit>,
    /// Structural problems in the model's *input* graph (e.g. HHG builder
    /// invariant violations), filled in by callers that own such a graph.
    pub graph_issues: Vec<String>,
    /// Per-op FLOP / peak-memory budget (see [`cost_analysis`]).
    pub cost: CostReport,
}

impl GraphReport {
    /// `true` when every pass came back empty (ignoring frozen dead params,
    /// which are expected to be gradient-dead).
    pub fn is_clean(&self) -> bool {
        self.shape_violations.is_empty()
            && self.dead_params.iter().all(|d| d.frozen)
            && self.unused_nodes.is_empty()
            && self.sentinel_hits.is_empty()
            && self.graph_issues.is_empty()
    }
}

impl fmt::Display for GraphReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph analysis: {} nodes, {} params", self.node_count, self.param_count)?;
        if self.shape_violations.is_empty() {
            writeln!(f, "  shapes: OK")?;
        } else {
            writeln!(f, "  shapes: {} violation(s)", self.shape_violations.len())?;
            for v in &self.shape_violations {
                writeln!(f, "    {v}")?;
            }
        }
        let live_dead: Vec<&DeadParam> = self.dead_params.iter().filter(|d| !d.frozen).collect();
        let frozen_dead = self.dead_params.len() - live_dead.len();
        if live_dead.is_empty() {
            writeln!(f, "  reachability: all trainable params receive gradients")?;
        } else {
            writeln!(f, "  reachability: {} dead param(s)", live_dead.len())?;
            for d in &live_dead {
                let how = if d.on_tape {
                    "on tape but not connected to the loss"
                } else {
                    "never read onto the tape"
                };
                writeln!(f, "    {} ({how})", d.name)?;
            }
        }
        if frozen_dead > 0 {
            writeln!(f, "  ({frozen_dead} frozen param(s) without gradients, as expected)")?;
        }
        if self.unused_nodes.is_empty() {
            writeln!(f, "  liveness: every computed node feeds the loss")?;
        } else {
            writeln!(f, "  liveness: {} unused node(s)", self.unused_nodes.len())?;
            for (i, n) in self.unused_nodes.iter().enumerate() {
                if i >= 8 {
                    writeln!(f, "    ... and {} more", self.unused_nodes.len() - i)?;
                    break;
                }
                writeln!(f, "    op #{} ({})", n.op_index, n.op_name)?;
            }
        }
        if !self.sentinel_hits.is_empty() {
            writeln!(f, "  sentinel: {} non-finite tensor(s)", self.sentinel_hits.len())?;
            for h in &self.sentinel_hits {
                writeln!(f, "    {h}")?;
            }
        }
        if !self.graph_issues.is_empty() {
            writeln!(f, "  input graph: {} issue(s)", self.graph_issues.len())?;
            for g in &self.graph_issues {
                writeln!(f, "    {g}")?;
            }
        }
        let cost = &self.cost;
        if !cost.per_op.is_empty() {
            let pct = if cost.total_flops > 0 {
                100.0 * cost.parallel_flops as f64 / cost.total_flops as f64
            } else {
                0.0
            };
            writeln!(
                f,
                "  cost: {} forward ({pct:.0}% on the pool at {} thread(s)), peak live {}",
                fmt_flops(cost.total_flops),
                cost.split,
                fmt_bytes(cost.peak_bytes)
            )?;
            for o in cost.top_ops(3) {
                writeln!(
                    f,
                    "    op #{} ({}): {}{}",
                    o.op_index,
                    o.op_name,
                    fmt_flops(o.flops),
                    if o.parallel { ", parallel" } else { "" }
                )?;
            }
        }
        Ok(())
    }
}

/// What one op's rule says, read off the shapes already on the tape: the
/// output shape, a constraint violation if any, the estimated forward
/// FLOPs, and the row count the kernel splits on (0 for ops that never take
/// the pool path). [`Tape::record`](crate::Tape) and [`cost_analysis`] both
/// read it, so an op's shape rule and its cost sit in one match arm.
pub(crate) struct OpRule {
    /// The output shape. On a violation this is a best-effort fallback, so
    /// recording can continue and later ops are still checked.
    pub(crate) shape: (usize, usize),
    /// A human-readable constraint failure naming the offending shapes.
    pub(crate) violation: Option<String>,
    /// Estimated forward FLOPs (see `hiergat_tensor::cost` conventions).
    pub(crate) flops: u64,
    /// Rows the kernel splits across the pool (0: never parallel).
    pub(crate) split_rows: usize,
}

/// The one shape-and-cost rule per op (see [`OpRule`]).
pub(crate) fn op_rule(tape: &Tape, op: &Op) -> OpRule {
    let s = |v: Var| tape.value(v).shape();
    // Elementwise FLOPs over operand `v` at `per` FLOPs per element.
    let ew = |v: Var, per: u64| {
        let (r, c) = s(v);
        kcost::elementwise_flops(r * c, per)
    };
    let same = |a: Var, b: Var, what: &str| {
        let (sa, sb) = (s(a), s(b));
        let bad = (sa != sb).then(|| format!("{what} requires equal shapes, got {sa:?} vs {sb:?}"));
        (sa, bad, ew(a, 1), 0)
    };
    // Row-count and class-index checks of the cross-entropy losses.
    let classes = |(r, c): (usize, usize), targets: &[usize]| {
        if targets.len() == r {
            targets
                .iter()
                .find(|&&t| t >= c)
                .map(|t| format!("class {t} out of range for {c} columns"))
        } else {
            Some(format!("{} targets for {r} logit rows", targets.len()))
        }
    };
    // log-softmax plus the per-row pick/scale.
    let ce_flops = |(r, c): (usize, usize)| kcost::softmax_flops(r, c) + 2 * r as u64;
    let (shape, violation, flops, split_rows) = match op {
        // Leaves carry their own tensors (`Tape::record` never sees one);
        // their cost is zero.
        Op::Input | Op::Param(_) => ((0, 0), None, 0, 0),
        Op::Add(a, b) => same(*a, *b, "add"),
        Op::Sub(a, b) => same(*a, *b, "sub"),
        Op::Mul(a, b) => same(*a, *b, "mul"),
        Op::Div(a, b) => same(*a, *b, "div"),
        Op::Scale(a, _)
        | Op::AddScalar(a, _)
        | Op::Relu(a)
        | Op::LeakyRelu(a, _)
        | Op::Dropout { x: a, .. } => (s(*a), None, ew(*a, 1), 0),
        Op::Tanh(a) | Op::Sigmoid(a) | Op::Gelu(a) | Op::Exp(a) | Op::Ln(a) | Op::Sqrt(a) => {
            (s(*a), None, ew(*a, kcost::TRANSCENDENTAL_FLOPS), 0)
        }
        Op::AddRow(a, row) => {
            let (sa, sr) = (s(*a), s(*row));
            let bad = (sr != (1, sa.1)).then(|| {
                format!("add_row requires a (1, {}) row for lhs {sa:?}, got {sr:?}", sa.1)
            });
            (sa, bad, ew(*a, 1), 0)
        }
        Op::AddCol(a, col) | Op::MulCol(a, col) => {
            let (sa, sc) = (s(*a), s(*col));
            let bad = (sc != (sa.0, 1))
                .then(|| format!("requires a ({}, 1) column for lhs {sa:?}, got {sc:?}", sa.0));
            (sa, bad, ew(*a, 1), 0)
        }
        Op::Matmul(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            let bad = (sa.1 != sb.0).then(|| format!("inner dimensions differ: {sa:?} x {sb:?}"));
            ((sa.0, sb.1), bad, kcost::matmul_flops(sa.0, sa.1, sb.1), sa.0)
        }
        Op::MatmulNt(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            let bad =
                (sa.1 != sb.1).then(|| format!("trailing dimensions differ: {sa:?} x {sb:?}^T"));
            ((sa.0, sb.0), bad, kcost::matmul_flops(sa.0, sa.1, sb.0), sa.0)
        }
        Op::MatmulTn(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            let bad =
                (sa.0 != sb.0).then(|| format!("leading dimensions differ: {sa:?}^T x {sb:?}"));
            ((sa.1, sb.1), bad, kcost::matmul_flops(sa.1, sa.0, sb.1), sa.1)
        }
        Op::Transpose(a) => ((s(*a).1, s(*a).0), None, 0, 0),
        Op::SumAll(a) | Op::MeanAll(a) => ((1, 1), None, ew(*a, 1), 0),
        Op::SumRows(a) => ((1, s(*a).1), None, ew(*a, 1), 0),
        Op::SumCols(a) => ((s(*a).0, 1), None, ew(*a, 1), 0),
        Op::MaxCols(a) => {
            let bad = (s(*a).1 == 0).then(|| "max_cols of a zero-column tensor".into());
            ((s(*a).0, 1), bad, ew(*a, 1), 0)
        }
        Op::Softmax(a) | Op::LogSoftmax(a) => {
            let (r, c) = s(*a);
            ((r, c), None, kcost::softmax_flops(r, c), r)
        }
        Op::LayerNorm { x, gamma, beta, .. } => {
            let (sx, sg, sb) = (s(*x), s(*gamma), s(*beta));
            let want = (1, sx.1);
            let bad = if sg != want {
                Some(format!("gamma must be {want:?} for input {sx:?}, got {sg:?}"))
            } else {
                (sb != want).then(|| format!("beta must be {want:?} for input {sx:?}, got {sb:?}"))
            };
            (sx, bad, kcost::layer_norm_flops(sx.0, sx.1), sx.0)
        }
        Op::ConcatCols(parts) => {
            let shapes: Vec<(usize, usize)> = parts.iter().map(|&p| s(p)).collect();
            let rows = shapes.first().map_or(0, |sh| sh.0);
            let bad = shapes
                .iter()
                .any(|sh| sh.0 != rows)
                .then(|| format!("row counts differ across parts: {shapes:?}"));
            ((rows, shapes.iter().map(|sh| sh.1).sum()), bad, 0, 0)
        }
        Op::ConcatRows(parts) => {
            let shapes: Vec<(usize, usize)> = parts.iter().map(|&p| s(p)).collect();
            let cols = shapes.first().map_or(0, |sh| sh.1);
            let bad = shapes
                .iter()
                .any(|sh| sh.1 != cols)
                .then(|| format!("column counts differ across parts: {shapes:?}"));
            ((shapes.iter().map(|sh| sh.0).sum(), cols), bad, 0, 0)
        }
        Op::SliceCols { x, start, len } => {
            let sx = s(*x);
            let end = start + len;
            let bad =
                (end > sx.1).then(|| format!("columns [{start}, {end}) out of range for {sx:?}"));
            ((sx.0, *len), bad, 0, 0)
        }
        Op::SliceRows { x, start, len } => {
            let sx = s(*x);
            let end = start + len;
            let bad =
                (end > sx.0).then(|| format!("rows [{start}, {end}) out of range for {sx:?}"));
            ((*len, sx.1), bad, 0, 0)
        }
        Op::GatherRows { table, indices } => {
            let st = s(*table);
            let bad = indices
                .iter()
                .find(|&&i| i >= st.0)
                .map(|i| format!("index {i} out of range for table {st:?}"));
            ((indices.len(), st.1), bad, 0, 0)
        }
        Op::CrossEntropyLogits { logits, targets } => {
            let sl = s(*logits);
            ((1, 1), classes(sl, targets), ce_flops(sl), sl.0)
        }
        Op::WeightedCrossEntropyLogits { logits, targets, weights } => {
            let sl = s(*logits);
            let bad = if targets.len() != sl.0 {
                classes(sl, targets)
            } else if weights.len() != targets.len() {
                Some(format!("{} weights for {} targets", weights.len(), targets.len()))
            } else if weights.iter().sum::<f32>() <= 0.0 {
                Some("weights must have a positive sum".into())
            } else {
                classes(sl, targets)
            };
            ((1, 1), bad, ce_flops(sl), sl.0)
        }
        Op::BceWithLogits { logits, targets } => {
            let sl = s(*logits);
            let bad = if sl.1 == 1 {
                (targets.len() != sl.0)
                    .then(|| format!("{} targets for {} logit rows", targets.len(), sl.0))
            } else {
                Some(format!("logits must be a column vector, got {sl:?}"))
            };
            ((1, 1), bad, sl.0 as u64 * (2 * kcost::TRANSCENDENTAL_FLOPS + 4), 0)
        }
        Op::MseLoss { pred, target } => {
            let (sp, st) = (s(*pred), target.shape());
            let bad = (sp != st).then(|| format!("prediction {sp:?} vs target {st:?}"));
            ((1, 1), bad, ew(*pred, 3), 0)
        }
    };
    OpRule { shape, violation, flops, split_rows }
}

/// Runs reachability and liveness analysis from `loss` and combines it with
/// the tape's recorded shape violations and the finite-value sentinel into
/// one [`GraphReport`].
pub fn analyze_graph(tape: &Tape, loss: Var, ps: &ParamStore) -> GraphReport {
    let n = tape.len();
    let reachable = tape.ancestors(loss);

    // Parameters reached through a live Op::Param leaf.
    let mut param_reached = vec![false; ps.len()];
    let mut param_on_tape = vec![false; ps.len()];
    for (i, &live) in reachable.iter().enumerate() {
        if let Op::Param(pid) = tape.op_at(i) {
            param_on_tape[pid.index()] = true;
            if live {
                param_reached[pid.index()] = true;
            }
        }
    }
    let dead_params: Vec<DeadParam> = ps
        .iter()
        .filter(|(id, _, _)| !param_reached[id.index()])
        .map(|(id, name, _)| DeadParam {
            name: name.to_string(),
            frozen: ps.is_frozen(id),
            on_tape: param_on_tape[id.index()],
        })
        .collect();

    // Computed-but-unconsumed: non-leaf nodes that are not ancestors of the
    // loss. Leaves are covered by the parameter pass (Param) or are plain
    // constants (Input) whose liveness is not interesting.
    let unused_nodes: Vec<UnusedNode> = (0..n)
        .filter(|&i| !reachable[i] && !matches!(tape.op_at(i), Op::Input | Op::Param(_)))
        .map(|i| UnusedNode { op_index: i, op_name: tape.op_at(i).name() })
        .collect();

    GraphReport {
        node_count: n,
        param_count: ps.len(),
        shape_violations: tape.shape_violations().to_vec(),
        dead_params,
        unused_nodes,
        sentinel_hits: finite_audit(tape),
        graph_issues: Vec::new(),
        cost: cost_analysis(tape, parallel::configured_threads()),
    }
}

/// Per-op FLOP and memory estimates over any recorded tape (deferred tapes
/// included — only shapes are read, never values).
///
/// `split` is the thread count the serial-vs-parallel decision is evaluated
/// at; pass [`parallel::configured_threads`] to predict the real run. Peak
/// memory assumes each node's value dies right after its last consumer, the
/// same liveness rule a freeing executor would use — but it models the
/// **forward pass only** (backward adjoints and parameter storage are not
/// counted).
pub fn cost_analysis(tape: &Tape, split: usize) -> CostReport {
    let n = tape.len();
    let mut per_op = Vec::with_capacity(n);
    let mut total_flops = 0u64;
    let mut parallel_flops = 0u64;
    for i in 0..n {
        let op = tape.op_at(i);
        let OpRule { flops, split_rows, .. } = op_rule(tape, op);
        let is_parallel = kcost::plan_pieces(flops, split_rows, split) > 1;
        let (r, c) = tape.value(Var::from_index(i)).shape();
        total_flops += flops;
        if is_parallel {
            parallel_flops += flops;
        }
        per_op.push(OpCost {
            op_index: i,
            op_name: op.name(),
            flops,
            out_bytes: 4 * (r * c) as u64,
            parallel: is_parallel,
        });
    }

    // Liveness: node `v` stays live from its creation step through the last
    // step that reads it (at least its own step; the final node — usually
    // the loss — is freed immediately after, which cannot lower the peak).
    let mut last_use: Vec<usize> = (0..n).collect();
    for i in 0..n {
        tape.op_at(i).for_each_input(|v| last_use[v.index()] = i);
    }
    let mut free_at: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (node, &lu) in last_use.iter().enumerate() {
        free_at[lu].push(node);
    }
    let mut live = 0u64;
    let mut peak_bytes = 0u64;
    for i in 0..n {
        live += per_op[i].out_bytes;
        peak_bytes = peak_bytes.max(live);
        for &node in &free_at[i] {
            live -= per_op[node].out_bytes;
        }
    }

    CostReport { per_op, total_flops, parallel_flops, peak_bytes, split }
}

/// Scans every recorded forward value and reports non-finite tensors, in
/// tape order (the first entry is the op where trouble started).
pub fn finite_audit(tape: &Tape) -> Vec<SentinelHit> {
    (0..tape.len())
        .filter_map(|i| {
            let v = tape.value(Var::from_index(i));
            if !v.has_non_finite() {
                return None;
            }
            let mut nan = 0;
            let mut inf = 0;
            for x in v.as_slice() {
                if x.is_nan() {
                    nan += 1;
                } else if x.is_infinite() {
                    inf += 1;
                }
            }
            Some(SentinelHit { op_index: i, op_name: tape.op_at(i).name(), nan, inf })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_tensor::Tensor;

    #[test]
    fn shape_only_matmul_mismatch_is_reported_not_panicked() {
        let mut t = Tape::inference();
        let a = t.input(Tensor::zeros(2, 3));
        let b = t.input(Tensor::zeros(4, 5));
        let c = t.matmul(a, b); // 3 != 4: violation, fallback (2, 5)
        assert_eq!(t.value(c).shape(), (2, 5));
        let v = t.shape_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].op_name, "matmul");
        assert_eq!(v[0].op_index, 2);
        assert!(
            v[0].message.contains("(2, 3)") && v[0].message.contains("(4, 5)"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn shape_only_collects_multiple_violations() {
        let mut t = Tape::inference();
        let a = t.input(Tensor::zeros(2, 3));
        let b = t.input(Tensor::zeros(2, 4));
        let bad_sum = t.add(a, b); // shapes differ
        let row = t.input(Tensor::zeros(1, 7));
        let bad_row = t.add_row(bad_sum, row); // wrong row width
        let sliced = t.slice_cols(bad_row, 2, 9); // out of range
        assert_eq!(t.shape_violations().len(), 3);
        // Recording went on past each violation with the fallback shape.
        let later = t.tanh(sliced);
        assert_eq!(t.value(later).shape(), (2, 9));
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn shape_only_valid_graph_is_clean_and_shapes_propagate() {
        let mut t = Tape::inference();
        let x = t.input(Tensor::zeros(5, 8));
        let w = t.input(Tensor::zeros(8, 3));
        let y = t.matmul(x, w);
        let y = t.softmax(y);
        let s = t.sum_rows(y);
        assert_eq!(t.value(y).shape(), (5, 3));
        assert_eq!(t.value(s).shape(), (1, 3));
        assert!(t.shape_violations().is_empty());
    }

    #[test]
    fn dead_param_and_unused_node_are_reported() {
        let mut ps = ParamStore::new();
        let used = ps.add("used.w", Tensor::ones(1, 1));
        let orphan = ps.add("orphan.w", Tensor::ones(1, 1));
        let _ = orphan;
        let mut t = Tape::new();
        let w = t.param(&ps, used);
        let x = t.input(Tensor::ones(1, 1));
        let y = t.mul(w, x);
        let dead_branch = t.scale(y, 2.0); // computed, never consumed
        let _ = dead_branch;
        let loss = t.sum_all(y);
        let report = analyze_graph(&t, loss, &ps);
        assert!(!report.is_clean());
        assert_eq!(report.dead_params.len(), 1);
        assert_eq!(report.dead_params[0].name, "orphan.w");
        assert!(!report.dead_params[0].on_tape);
        assert_eq!(report.unused_nodes.len(), 1);
        assert_eq!(report.unused_nodes[0].op_name, "scale");
    }

    #[test]
    fn frozen_dead_param_keeps_report_clean() {
        let mut ps = ParamStore::new();
        let used = ps.add("used.w", Tensor::ones(1, 1));
        let frozen = ps.add("frozen.w", Tensor::ones(1, 1));
        ps.freeze(frozen);
        let mut t = Tape::new();
        let w = t.param(&ps, used);
        let loss = t.sum_all(w);
        let report = analyze_graph(&t, loss, &ps);
        assert_eq!(report.dead_params.len(), 1);
        assert!(report.dead_params[0].frozen);
        assert!(report.is_clean());
    }

    #[test]
    fn param_on_tape_but_disconnected_is_distinguished() {
        let mut ps = ParamStore::new();
        let a = ps.add("a", Tensor::ones(1, 1));
        let b = ps.add("b", Tensor::ones(1, 1));
        let mut t = Tape::new();
        let av = t.param(&ps, a);
        let bv = t.param(&ps, b); // read, but never feeds the loss
        let _ = bv;
        let loss = t.sum_all(av);
        let report = analyze_graph(&t, loss, &ps);
        assert_eq!(report.dead_params.len(), 1);
        assert_eq!(report.dead_params[0].name, "b");
        assert!(report.dead_params[0].on_tape);
    }

    #[test]
    fn finite_audit_names_the_offending_input() {
        let mut t = Tape::new();
        let _ok = t.input(Tensor::ones(2, 2));
        let mut bad = Tensor::ones(2, 2);
        bad.set(1, 0, f32::NAN);
        bad.set(0, 1, f32::INFINITY);
        let _bad = t.input(bad);
        let hits = finite_audit(&t);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].op_index, 1);
        assert_eq!(hits[0].op_name, "input");
        assert_eq!(hits[0].nan, 1);
        assert_eq!(hits[0].inf, 1);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "sentinel is debug-gated")]
    #[should_panic(expected = "(add) produced non-finite values")]
    fn eager_op_panics_with_op_name_on_non_finite_result() {
        let mut t = Tape::new();
        let big = t.input(Tensor::full(1, 1, f32::MAX));
        let _ = t.add(big, big); // overflows to +inf
    }

    #[test]
    fn cost_analysis_counts_matmul_flops_exactly() {
        let mut t = Tape::inference();
        let a = t.input(Tensor::zeros(64, 128));
        let b = t.input(Tensor::zeros(128, 32));
        let y = t.matmul(a, b);
        let _ = t.softmax(y);
        let cost = cost_analysis(&t, 8);
        let mm = &cost.per_op[2];
        assert_eq!(mm.op_name, "matmul");
        assert_eq!(mm.flops, 2 * 64 * 128 * 32);
        assert_eq!(mm.out_bytes, 4 * 64 * 32);
        assert!(mm.parallel, "a 512K-FLOP matmul should take the pool path at 8 threads");
        assert_eq!(cost.total_flops, cost.per_op.iter().map(|o| o.flops).sum::<u64>());
    }

    #[test]
    fn cost_analysis_serial_split_marks_nothing_parallel() {
        let mut t = Tape::inference();
        let a = t.input(Tensor::zeros(64, 128));
        let b = t.input(Tensor::zeros(128, 32));
        let _ = t.matmul(a, b);
        let cost = cost_analysis(&t, 1);
        assert_eq!(cost.parallel_flops, 0);
        assert!(cost.per_op.iter().all(|o| !o.parallel));
    }

    #[test]
    fn cost_analysis_peak_tracks_liveness_not_sum() {
        // `x` is consumed again by the residual add, so the peak moment is
        // x + a + b live at once; afterwards x and a are freed, so the naive
        // sum over all outputs overstates the real footprint.
        let mut t = Tape::inference();
        let x = t.input(Tensor::zeros(100, 100)); // 40_000 B
        let a = t.tanh(x); // 40_000 B
        let b = t.add(x, a); // 40_000 B, frees x and a
        let _loss = t.sum_all(b); // 4 B, frees b
        let cost = cost_analysis(&t, 1);
        assert_eq!(cost.peak_bytes, 3 * 40_000);
        let total: u64 = cost.per_op.iter().map(|o| o.out_bytes).sum();
        assert!(cost.peak_bytes < total);
    }

    #[test]
    fn matmul_nt_shape_rule_and_cost_match_matmul_of_transpose() {
        let mut t = Tape::inference();
        let q = t.input(Tensor::zeros(7, 16));
        let k = t.input(Tensor::zeros(9, 16));
        let s1 = t.matmul_nt(q, k);
        let kt = t.transpose(k);
        let s2 = t.matmul(q, kt);
        assert_eq!(t.value(s1).shape(), (7, 9));
        assert_eq!(t.value(s1).shape(), t.value(s2).shape());
        assert!(t.shape_violations().is_empty());
        let cost = cost_analysis(&t, 1);
        assert_eq!(cost.per_op[2].flops, cost.per_op[4].flops);

        // Mismatched trailing dims are a violation, not a panic.
        let bad = t.input(Tensor::zeros(3, 5));
        let _ = t.matmul_nt(q, bad);
        assert_eq!(t.shape_violations().len(), 1);
    }

    #[test]
    fn report_display_includes_cost_summary() {
        let ps = ParamStore::new();
        let mut t = Tape::inference();
        let a = t.input(Tensor::zeros(64, 128));
        let b = t.input(Tensor::zeros(128, 32));
        let y = t.matmul(a, b);
        let loss = t.sum_all(y);
        let report = analyze_graph(&t, loss, &ps);
        let text = report.to_string();
        assert!(text.contains("cost:"), "{text}");
        assert!(text.contains("peak live"), "{text}");
        assert!(text.contains("matmul"), "{text}");
    }

    #[test]
    fn report_display_mentions_each_section() {
        let mut ps = ParamStore::new();
        let orphan = ps.add("layer.orphan", Tensor::ones(1, 1));
        let _ = orphan;
        let mut t = Tape::inference();
        let a = t.input(Tensor::zeros(2, 3));
        let b = t.input(Tensor::zeros(4, 5));
        let y = t.matmul(a, b);
        let loss = t.sum_all(y);
        let report = analyze_graph(&t, loss, &ps);
        let text = report.to_string();
        assert!(text.contains("violation"), "{text}");
        assert!(text.contains("layer.orphan"), "{text}");
    }
}
