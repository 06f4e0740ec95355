//! Static analysis over the autograd tape.
//!
//! Three passes, none of which execute kernels:
//!
//! 1. **Symbolic shape inference** — a tape recorded in
//!    [`Tape::shape_only`](crate::Tape::shape_only) mode derives every
//!    node's shape from pure per-op rules instead of running the kernels.
//!    Shape constraint failures are collected as [`ShapeViolation`]s (op
//!    index, op name, offending shapes) rather than panicking mid-forward,
//!    so one pre-flight pass reports *all* wiring mistakes at once.
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

/// A shape-constraint failure discovered during shape-only recording.
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
    /// Shape-inference violations (only populated for shape-only tapes).
    pub shape_violations: Vec<ShapeViolation>,
    /// Registered parameters unreachable from the loss.
    pub dead_params: Vec<DeadParam>,
    /// Computed nodes that do not feed the loss.
    pub unused_nodes: Vec<UnusedNode>,
    /// Non-finite values found on the tape (empty for shape-only tapes,
    /// whose placeholders are all zeros).
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

/// Pure shape rule for one op given the shapes already on the tape.
///
/// Returns the output shape plus an optional constraint-violation message.
/// On violation the returned shape is a best-effort fallback so recording
/// can continue and later ops are still checked.
pub(crate) fn infer_shape(tape: &Tape, op: &Op) -> ((usize, usize), Option<String>) {
    let s = |v: Var| tape.value(v).shape();
    let same = |a: Var, b: Var, what: &str| {
        let (sa, sb) = (s(a), s(b));
        if sa == sb {
            (sa, None)
        } else {
            (sa, Some(format!("{what} requires equal shapes, got {sa:?} vs {sb:?}")))
        }
    };
    match op {
        // Leaves carry their own tensors and never route through inference.
        Op::Input | Op::Param(_) => ((0, 0), Some("leaf ops carry explicit values".into())),
        Op::Add(a, b) => same(*a, *b, "add"),
        Op::Sub(a, b) => same(*a, *b, "sub"),
        Op::Mul(a, b) => same(*a, *b, "mul"),
        Op::Div(a, b) => same(*a, *b, "div"),
        Op::Scale(a, _) | Op::AddScalar(a, _) => (s(*a), None),
        Op::AddRow(a, row) => {
            let (sa, sr) = (s(*a), s(*row));
            if sr == (1, sa.1) {
                (sa, None)
            } else {
                (
                    sa,
                    Some(format!(
                        "add_row requires a (1, {}) row for lhs {sa:?}, got {sr:?}",
                        sa.1
                    )),
                )
            }
        }
        Op::AddCol(a, col) | Op::MulCol(a, col) => {
            let (sa, sc) = (s(*a), s(*col));
            if sc == (sa.0, 1) {
                (sa, None)
            } else {
                (sa, Some(format!("requires a ({}, 1) column for lhs {sa:?}, got {sc:?}", sa.0)))
            }
        }
        Op::Matmul(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            let out = (sa.0, sb.1);
            if sa.1 == sb.0 {
                (out, None)
            } else {
                (out, Some(format!("inner dimensions differ: {sa:?} x {sb:?}")))
            }
        }
        Op::MatmulNt(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            let out = (sa.0, sb.0);
            if sa.1 == sb.1 {
                (out, None)
            } else {
                (out, Some(format!("trailing dimensions differ: {sa:?} x {sb:?}^T")))
            }
        }
        Op::MatmulTn(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            let out = (sa.1, sb.1);
            if sa.0 == sb.0 {
                (out, None)
            } else {
                (out, Some(format!("leading dimensions differ: {sa:?}^T x {sb:?}")))
            }
        }
        Op::Transpose(a) => {
            let (r, c) = s(*a);
            ((c, r), None)
        }
        Op::SumAll(_) | Op::MeanAll(_) => ((1, 1), None),
        Op::SumRows(a) => ((1, s(*a).1), None),
        Op::SumCols(a) => ((s(*a).0, 1), None),
        Op::MaxCols(a) => {
            let sa = s(*a);
            if sa.1 == 0 {
                ((sa.0, 1), Some("max_cols of a zero-column tensor".into()))
            } else {
                ((sa.0, 1), None)
            }
        }
        Op::Softmax(a)
        | Op::LogSoftmax(a)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Sqrt(a)
        | Op::Relu(a)
        | Op::LeakyRelu(a, _)
        | Op::Tanh(a)
        | Op::Sigmoid(a)
        | Op::Gelu(a) => (s(*a), None),
        Op::LayerNorm { x, gamma, beta, .. } => {
            let (sx, sg, sb) = (s(*x), s(*gamma), s(*beta));
            let want = (1, sx.1);
            if sg != want {
                (sx, Some(format!("gamma must be {want:?} for input {sx:?}, got {sg:?}")))
            } else if sb != want {
                (sx, Some(format!("beta must be {want:?} for input {sx:?}, got {sb:?}")))
            } else {
                (sx, None)
            }
        }
        Op::ConcatCols(parts) => {
            let shapes: Vec<(usize, usize)> = parts.iter().map(|&p| s(p)).collect();
            let rows = shapes.first().map_or(0, |sh| sh.0);
            let cols = shapes.iter().map(|sh| sh.1).sum();
            if shapes.iter().any(|sh| sh.0 != rows) {
                ((rows, cols), Some(format!("row counts differ across parts: {shapes:?}")))
            } else {
                ((rows, cols), None)
            }
        }
        Op::ConcatRows(parts) => {
            let shapes: Vec<(usize, usize)> = parts.iter().map(|&p| s(p)).collect();
            let cols = shapes.first().map_or(0, |sh| sh.1);
            let rows = shapes.iter().map(|sh| sh.0).sum();
            if shapes.iter().any(|sh| sh.1 != cols) {
                ((rows, cols), Some(format!("column counts differ across parts: {shapes:?}")))
            } else {
                ((rows, cols), None)
            }
        }
        Op::SliceCols { x, start, len } => {
            let sx = s(*x);
            let out = (sx.0, *len);
            if start + len <= sx.1 {
                (out, None)
            } else {
                (out, Some(format!("columns [{start}, {}) out of range for {sx:?}", start + len)))
            }
        }
        Op::SliceRows { x, start, len } => {
            let sx = s(*x);
            let out = (*len, sx.1);
            if start + len <= sx.0 {
                (out, None)
            } else {
                (out, Some(format!("rows [{start}, {}) out of range for {sx:?}", start + len)))
            }
        }
        Op::GatherRows { table, indices } => {
            let st = s(*table);
            let out = (indices.len(), st.1);
            match indices.iter().find(|&&i| i >= st.0) {
                Some(&bad) => (out, Some(format!("index {bad} out of range for table {st:?}"))),
                None => (out, None),
            }
        }
        Op::Dropout { x, .. } => (s(*x), None),
        Op::CrossEntropyLogits { logits, targets } => {
            let sl = s(*logits);
            if targets.len() != sl.0 {
                ((1, 1), Some(format!("{} targets for {} logit rows", targets.len(), sl.0)))
            } else if let Some(&bad) = targets.iter().find(|&&t| t >= sl.1) {
                ((1, 1), Some(format!("class {bad} out of range for {} columns", sl.1)))
            } else {
                ((1, 1), None)
            }
        }
        Op::WeightedCrossEntropyLogits { logits, targets, weights } => {
            let sl = s(*logits);
            if targets.len() != sl.0 {
                ((1, 1), Some(format!("{} targets for {} logit rows", targets.len(), sl.0)))
            } else if weights.len() != targets.len() {
                ((1, 1), Some(format!("{} weights for {} targets", weights.len(), targets.len())))
            } else if weights.iter().sum::<f32>() <= 0.0 {
                ((1, 1), Some("weights must have a positive sum".into()))
            } else if let Some(&bad) = targets.iter().find(|&&t| t >= sl.1) {
                ((1, 1), Some(format!("class {bad} out of range for {} columns", sl.1)))
            } else {
                ((1, 1), None)
            }
        }
        Op::BceWithLogits { logits, targets } => {
            let sl = s(*logits);
            if sl.1 != 1 {
                ((1, 1), Some(format!("logits must be a column vector, got {sl:?}")))
            } else if targets.len() != sl.0 {
                ((1, 1), Some(format!("{} targets for {} logit rows", targets.len(), sl.0)))
            } else {
                ((1, 1), None)
            }
        }
        Op::MseLoss { pred, target } => {
            let sp = s(*pred);
            if sp == target.shape() {
                ((1, 1), None)
            } else {
                ((1, 1), Some(format!("prediction {sp:?} vs target {:?}", target.shape())))
            }
        }
    }
}

/// Runs reachability and liveness analysis from `loss` and combines it with
/// the tape's recorded shape violations and the finite-value sentinel into
/// one [`GraphReport`].
pub fn analyze_graph(tape: &Tape, loss: Var, ps: &ParamStore) -> GraphReport {
    let n = tape.len();
    // Ancestors of the loss: every node whose value influences it.
    let mut reachable = vec![false; n];
    if loss.index() < n {
        let mut stack = vec![loss.index()];
        reachable[loss.index()] = true;
        while let Some(i) = stack.pop() {
            for v in tape.op_at(i).inputs() {
                if !reachable[v.index()] {
                    reachable[v.index()] = true;
                    stack.push(v.index());
                }
            }
        }
    }

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

/// Estimated forward FLOPs of the op plus the row count its kernel splits
/// on (0 for ops that never take the pool path).
fn op_flops_and_rows(tape: &Tape, op: &Op) -> (u64, usize) {
    let s = |v: Var| tape.value(v).shape();
    let elems = |v: Var| {
        let (r, c) = s(v);
        r * c
    };
    match op {
        Op::Input
        | Op::Param(_)
        | Op::Transpose(_)
        | Op::ConcatCols(_)
        | Op::ConcatRows(_)
        | Op::SliceCols { .. }
        | Op::SliceRows { .. }
        | Op::GatherRows { .. } => (0, 0),
        Op::Add(a, _)
        | Op::Sub(a, _)
        | Op::Mul(a, _)
        | Op::Div(a, _)
        | Op::AddRow(a, _)
        | Op::AddCol(a, _)
        | Op::MulCol(a, _)
        | Op::Scale(a, _)
        | Op::AddScalar(a, _)
        | Op::Relu(a)
        | Op::LeakyRelu(a, _)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::SumRows(a)
        | Op::SumCols(a)
        | Op::MaxCols(a) => (kcost::elementwise_flops(elems(*a), 1), 0),
        Op::Tanh(a) | Op::Sigmoid(a) | Op::Gelu(a) | Op::Exp(a) | Op::Ln(a) | Op::Sqrt(a) => {
            (kcost::elementwise_flops(elems(*a), kcost::TRANSCENDENTAL_FLOPS), 0)
        }
        Op::Dropout { x, .. } => (kcost::elementwise_flops(elems(*x), 1), 0),
        Op::Matmul(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            (kcost::matmul_flops(sa.0, sa.1, sb.1), sa.0)
        }
        Op::MatmulNt(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            (kcost::matmul_flops(sa.0, sa.1, sb.0), sa.0)
        }
        Op::MatmulTn(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            (kcost::matmul_flops(sa.1, sa.0, sb.1), sa.1)
        }
        Op::Softmax(a) | Op::LogSoftmax(a) => {
            let (r, c) = s(*a);
            (kcost::softmax_flops(r, c), r)
        }
        Op::LayerNorm { x, .. } => {
            let (r, c) = s(*x);
            (kcost::layer_norm_flops(r, c), r)
        }
        Op::CrossEntropyLogits { logits, .. } | Op::WeightedCrossEntropyLogits { logits, .. } => {
            // log-softmax plus the per-row pick/scale.
            let (r, c) = s(*logits);
            (kcost::softmax_flops(r, c) + 2 * r as u64, r)
        }
        Op::BceWithLogits { logits, .. } => {
            let (r, _) = s(*logits);
            (r as u64 * (2 * kcost::TRANSCENDENTAL_FLOPS + 4), 0)
        }
        Op::MseLoss { pred, .. } => (kcost::elementwise_flops(elems(*pred), 3), 0),
    }
}

/// Per-op FLOP and memory estimates over any recorded tape (shape-only
/// tapes included — only shapes are read, never values).
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
        let (flops, rows) = op_flops_and_rows(tape, op);
        let is_parallel = kcost::plan_pieces(flops, rows, split) > 1;
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
        for v in tape.op_at(i).inputs() {
            last_use[v.index()] = i;
        }
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
        let mut t = Tape::shape_only();
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
        let mut t = Tape::shape_only();
        let a = t.input(Tensor::zeros(2, 3));
        let b = t.input(Tensor::zeros(2, 4));
        let bad_sum = t.add(a, b); // shapes differ
        let row = t.input(Tensor::zeros(1, 7));
        let bad_row = t.add_row(bad_sum, row); // wrong row width
        let _ = t.slice_cols(bad_row, 2, 9); // out of range
        assert_eq!(t.shape_violations().len(), 3);
    }

    #[test]
    fn shape_only_valid_graph_is_clean_and_shapes_propagate() {
        let mut t = Tape::shape_only();
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
        let mut t = Tape::shape_only();
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
        let mut t = Tape::shape_only();
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
        let mut t = Tape::shape_only();
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
        let mut t = Tape::shape_only();
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
        let mut t = Tape::shape_only();
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
        let mut t = Tape::shape_only();
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
