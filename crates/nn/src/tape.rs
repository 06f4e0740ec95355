//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records one forward pass as a topologically ordered list of
//! nodes (the order of creation). Values are computed eagerly when each op
//! is recorded; [`Tape::backward`] then walks the tape in reverse,
//! propagating adjoints and accumulating parameter gradients into the
//! [`ParamStore`].
//!
//! A tape can also be created with [`Tape::inference`] (deferred mode):
//! recording then skips every kernel, derives output shapes from the one
//! per-op rule in [`crate::analyze`], and collects shape-constraint
//! failures as diagnostics instead of panicking. The same deferred tape is
//! the substrate for static analysis of a model's graph and, once it is
//! free of violations, what the arena executor replays.
//!
//! Every op's backward rule is validated against finite differences by the
//! `gradcheck` test module.

use crate::analyze::{self, ShapeViolation};
use crate::forward;
use crate::params::{ParamId, ParamStore};
use hiergat_tensor::{gelu_grad_scalar, Tensor};
use rand::Rng;
use std::collections::HashMap;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Position of this node on its tape (diagnostics / analysis).
    pub fn index(self) -> usize {
        self.0
    }

    pub(crate) fn from_index(i: usize) -> Self {
        Self(i)
    }
}

#[derive(Clone)]
pub(crate) enum Op {
    /// Constant input (no gradient flows past it).
    Input,
    /// Leaf reading a parameter from the store; backward accumulates there.
    Param(ParamId),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    /// Adds constant `k` to every element. Carrying `k` on the node lets the
    /// lint rules recognize epsilon guards (`var + eps` before division) and
    /// positivity shifts; backward ignores it (identity gradient).
    AddScalar(Var, f32),
    /// Elementwise quotient `a / b`.
    Div(Var, Var),
    /// `(r x c) + broadcast (1 x c)`.
    AddRow(Var, Var),
    /// `(r x c) + broadcast (r x 1)`.
    AddCol(Var, Var),
    /// Row `i` of lhs scaled by `col[i]`.
    MulCol(Var, Var),
    Matmul(Var, Var),
    /// `a * b^T` without materializing the transpose (attention scoring).
    MatmulNt(Var, Var),
    /// `a^T * b` without materializing the transpose (context pooling).
    MatmulTn(Var, Var),
    Transpose(Var),
    SumAll(Var),
    MeanAll(Var),
    SumRows(Var),
    SumCols(Var),
    /// Per-row maximum as an `r x 1` column (softmax stabilizer).
    MaxCols(Var),
    Softmax(Var),
    /// Fused row-wise log-softmax (stable; never materializes probabilities).
    LogSoftmax(Var),
    /// Elementwise `e^x` (unbounded — the `naked-exp` lint watches this).
    Exp(Var),
    /// Elementwise natural log (`-inf` at zero — watched by lint).
    Ln(Var),
    /// Elementwise square root.
    Sqrt(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Tanh(Var),
    Sigmoid(Var),
    Gelu(Var),
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    },
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    SliceCols {
        x: Var,
        start: usize,
        len: usize,
    },
    SliceRows {
        x: Var,
        start: usize,
        len: usize,
    },
    GatherRows {
        table: Var,
        indices: Vec<usize>,
    },
    Dropout {
        x: Var,
        mask: Tensor,
    },
    CrossEntropyLogits {
        logits: Var,
        targets: Vec<usize>,
    },
    WeightedCrossEntropyLogits {
        logits: Var,
        targets: Vec<usize>,
        weights: Vec<f32>,
    },
    BceWithLogits {
        logits: Var,
        targets: Vec<f32>,
    },
    MseLoss {
        pred: Var,
        target: Tensor,
    },
}

/// Calls `$f` on each input operand of `$op`, in order. Expanded once over
/// `&Op` (visit) and once over `&mut Op` (remap), so the two walks cannot
/// disagree about an op's operands.
macro_rules! walk_inputs {
    ($op:expr, $f:ident) => {
        match $op {
            Op::Input | Op::Param(_) => {}
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Transpose(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SumRows(a)
            | Op::SumCols(a)
            | Op::MaxCols(a)
            | Op::Softmax(a)
            | Op::LogSoftmax(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Sqrt(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Gelu(a)
            | Op::SliceCols { x: a, .. }
            | Op::SliceRows { x: a, .. }
            | Op::Dropout { x: a, .. }
            | Op::GatherRows { table: a, .. }
            | Op::CrossEntropyLogits { logits: a, .. }
            | Op::WeightedCrossEntropyLogits { logits: a, .. }
            | Op::BceWithLogits { logits: a, .. }
            | Op::MseLoss { pred: a, .. } => $f(a),
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::AddRow(a, b)
            | Op::AddCol(a, b)
            | Op::MulCol(a, b)
            | Op::Matmul(a, b)
            | Op::MatmulNt(a, b)
            | Op::MatmulTn(a, b) => {
                $f(a);
                $f(b);
            }
            Op::LayerNorm { x, gamma, beta, .. } => {
                $f(x);
                $f(gamma);
                $f(beta);
            }
            Op::ConcatCols(parts) | Op::ConcatRows(parts) => {
                for p in parts {
                    $f(p);
                }
            }
        }
    };
}

impl Op {
    /// The op's `(tag, name)` — the one table both [`Self::tag`] and
    /// [`Self::name`] read.
    fn tag_and_name(&self) -> (u64, &'static str) {
        match self {
            Self::Input => (0, "input"),
            Self::Param(_) => (1, "param"),
            Self::Add(..) => (2, "add"),
            Self::Sub(..) => (3, "sub"),
            Self::Mul(..) => (4, "mul"),
            Self::Scale(..) => (5, "scale"),
            Self::AddScalar(..) => (6, "add_scalar"),
            Self::Div(..) => (7, "div"),
            Self::AddRow(..) => (8, "add_row"),
            Self::AddCol(..) => (9, "add_col"),
            Self::MulCol(..) => (10, "mul_col"),
            Self::Matmul(..) => (11, "matmul"),
            Self::MatmulNt(..) => (12, "matmul_nt"),
            Self::MatmulTn(..) => (13, "matmul_tn"),
            Self::Transpose(_) => (14, "transpose"),
            Self::SumAll(_) => (15, "sum_all"),
            Self::MeanAll(_) => (16, "mean_all"),
            Self::SumRows(_) => (17, "sum_rows"),
            Self::SumCols(_) => (18, "sum_cols"),
            Self::MaxCols(_) => (19, "max_cols"),
            Self::Softmax(_) => (20, "softmax"),
            Self::LogSoftmax(_) => (21, "log_softmax"),
            Self::Exp(_) => (22, "exp"),
            Self::Ln(_) => (23, "ln"),
            Self::Sqrt(_) => (24, "sqrt"),
            Self::Relu(_) => (25, "relu"),
            Self::LeakyRelu(..) => (26, "leaky_relu"),
            Self::Tanh(_) => (27, "tanh"),
            Self::Sigmoid(_) => (28, "sigmoid"),
            Self::Gelu(_) => (29, "gelu"),
            Self::LayerNorm { .. } => (30, "layer_norm"),
            Self::ConcatCols(_) => (31, "concat_cols"),
            Self::ConcatRows(_) => (32, "concat_rows"),
            Self::SliceCols { .. } => (33, "slice_cols"),
            Self::SliceRows { .. } => (34, "slice_rows"),
            Self::GatherRows { .. } => (35, "gather_rows"),
            Self::Dropout { .. } => (36, "dropout"),
            Self::CrossEntropyLogits { .. } => (37, "cross_entropy_logits"),
            Self::WeightedCrossEntropyLogits { .. } => (38, "weighted_cross_entropy_logits"),
            Self::BceWithLogits { .. } => (39, "bce_with_logits"),
            Self::MseLoss { .. } => (40, "mse_loss"),
        }
    }

    /// Short stable name used in diagnostics.
    pub(crate) fn name(&self) -> &'static str {
        self.tag_and_name().1
    }

    /// Dense numeric variant tag for structural keys (CSE buckets, plan
    /// signatures) — variant identity without hashing the diagnostic name
    /// on hot paths. The values are part of those keys: never renumber.
    pub(crate) fn tag(&self) -> u64 {
        self.tag_and_name().0
    }

    /// Calls `f` with each input operand in order — the allocation-free
    /// sibling of [`Self::inputs`] for per-node hot loops.
    pub(crate) fn for_each_input(&self, mut f: impl FnMut(Var)) {
        let mut visit = |v: &Var| f(*v);
        walk_inputs!(self, visit);
    }

    /// The upstream tape nodes this op reads (graph edges for reachability).
    pub(crate) fn inputs(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.for_each_input(|v| out.push(v));
        out
    }

    /// This op with every input operand replaced by `f(operand)`; payloads
    /// (constants, indices, masks, targets) are copied unchanged.
    pub(crate) fn map_inputs(&self, f: impl Fn(Var) -> Var) -> Op {
        let mut op = self.clone();
        let remap = |v: &mut Var| *v = f(*v);
        walk_inputs!(&mut op, remap);
        op
    }
}

struct Node {
    value: Tensor,
    op: Op,
}

/// One recorded forward pass.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    inference: bool,
    /// `params[id]`: the one leaf [`Self::param`] recorded for that id.
    params: Vec<Option<Var>>,
    /// Leaves recorded by [`Self::fill`], by shape and value bits.
    fills: HashMap<(usize, usize, u32), Var>,
    /// Nodes recorded by [`Self::gather_rows_shared`], by table and indices.
    gathers: HashMap<(Var, Vec<usize>), Var>,
    violations: Vec<ShapeViolation>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a deferred tape: ops record **true** shapes but no values.
    ///
    /// Non-leaf nodes hold storage-free [`Tensor::placeholder`]s; `Input`
    /// leaves keep their real data and parameters are read from the
    /// [`ParamStore`] when the graph executes, later, through an arena plan
    /// ([`crate::ExecutionPlan::build_inference`]). A shape violation is
    /// collected (see [`Self::shape_violations`]) instead of panicking, and
    /// recording continues with the rule's best-effort fallback shape so
    /// one pass surfaces every wiring mistake; every consumer that executes
    /// a deferred tape refuses one with a violation. Dropout in training
    /// mode records its op with a placeholder mask and consumes no RNG;
    /// [`Self::backward`] is rejected.
    pub fn inference() -> Self {
        Self { inference: true, ..Self::default() }
    }

    /// `true` if this tape defers its values (see [`Self::inference`]).
    pub fn is_inference(&self) -> bool {
        self.inference
    }

    /// An empty tape in the same recording mode as `self` (the rewrite
    /// engine re-emits surviving ops into one of these).
    pub(crate) fn mode_like(&self) -> Self {
        Self { inference: self.inference, ..Self::default() }
    }

    /// Shape-constraint failures collected while recording a deferred
    /// tape (always empty on eager tapes, which panic instead).
    pub fn shape_violations(&self) -> &[ShapeViolation] {
        &self.violations
    }

    /// Refuses to execute a tape that recorded a shape violation.
    ///
    /// # Panics
    /// Panics with the first violation's message, prefixed by `who`.
    pub(crate) fn assert_no_violations(&self, who: &str) {
        if let Some(v) = self.violations.first() {
            panic!("{who}: deferred tape has a shape violation at {v}");
        }
    }

    /// `reached[i]` is `true` when node `i` is `root` or one of its
    /// ancestors, i.e. its value can influence `root`'s. A `root` past the
    /// end of the tape reaches nothing.
    pub(crate) fn ancestors(&self, root: Var) -> Vec<bool> {
        let mut reached = vec![false; self.nodes.len()];
        if root.0 < self.nodes.len() {
            reached[root.0] = true;
            let mut stack = vec![root.0];
            while let Some(i) = stack.pop() {
                self.nodes[i].op.for_each_input(|v| {
                    if !reached[v.0] {
                        reached[v.0] = true;
                        stack.push(v.0);
                    }
                });
            }
        }
        reached
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `v` (a storage-free placeholder for non-`Input`
    /// nodes of a deferred tape).
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The forward value at tape index `i` — the by-index sibling of
    /// [`Self::value`] for analyses that walk the whole tape (the absint
    /// containment tests compare every recorded value against its proven
    /// interval), or `None` if `i` is past the end of the tape.
    pub fn try_node_value(&self, i: usize) -> Option<&Tensor> {
        self.nodes.get(i).map(|n| &n.value)
    }

    /// Panicking sibling of [`Self::try_node_value`] for callers holding an
    /// index they already know is on the tape.
    ///
    /// # Panics
    /// Panics with the tape length if `i` is out of range.
    pub fn node_value(&self, i: usize) -> &Tensor {
        debug_assert!(
            i < self.nodes.len(),
            "node_value: index {i} out of range for tape of {} nodes",
            self.len()
        );
        match self.try_node_value(i) {
            Some(v) => v,
            None => panic!("node_value: index {i} out of range for tape of {} nodes", self.len()),
        }
    }

    pub(crate) fn op_at(&self, i: usize) -> &Op {
        &self.nodes[i].op
    }

    /// Diagnostic name of the op at tape index `i` (e.g. `"matmul"`), or
    /// `None` if `i` is past the end of the tape.
    pub fn try_op_name(&self, i: usize) -> Option<&'static str> {
        self.nodes.get(i).map(|n| n.op.name())
    }

    /// Panicking sibling of [`Self::try_op_name`].
    ///
    /// # Panics
    /// Panics with the tape length if `i` is out of range.
    pub fn op_name(&self, i: usize) -> &'static str {
        debug_assert!(
            i < self.nodes.len(),
            "op_name: index {i} out of range for tape of {} nodes",
            self.len()
        );
        match self.try_op_name(i) {
            Some(name) => name,
            None => panic!("op_name: index {i} out of range for tape of {} nodes", self.len()),
        }
    }

    /// Tape indices of the inputs of the op at index `i`, or `None` if `i`
    /// is past the end of the tape.
    pub fn try_op_inputs(&self, i: usize) -> Option<Vec<usize>> {
        self.nodes.get(i).map(|n| n.op.inputs().into_iter().map(Var::index).collect())
    }

    /// Panicking sibling of [`Self::try_op_inputs`].
    ///
    /// # Panics
    /// Panics with the tape length if `i` is out of range.
    pub fn op_inputs(&self, i: usize) -> Vec<usize> {
        debug_assert!(
            i < self.nodes.len(),
            "op_inputs: index {i} out of range for tape of {} nodes",
            self.len()
        );
        match self.try_op_inputs(i) {
            Some(inputs) => inputs,
            None => panic!("op_inputs: index {i} out of range for tape of {} nodes", self.len()),
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Records `op`. Its output shape comes from [`analyze::op_rule`], the
    /// one shape rule both recording modes share. Then, by mode:
    /// - **eager**: the shared forward kernel ([`crate::forward::eval`])
    ///   computes the value now;
    /// - **deferred**: a storage-free placeholder of the exact shape; the
    ///   arena executor computes the value later with the same kernel.
    ///
    /// # Panics
    /// A shape violation panics on an eager tape (an invalid graph cannot be
    /// evaluated); a deferred tape collects it (see
    /// [`Self::shape_violations`]) and keeps recording.
    pub(crate) fn record(&mut self, op: Op) -> Var {
        let rule = analyze::op_rule(self, &op);
        let (rows, cols) = rule.shape;
        let index = self.nodes.len();
        if let Some(message) = rule.violation {
            assert!(self.inference, "eager tape op #{index} ({}): {message}", op.name());
            self.violations.push(ShapeViolation { op_index: index, op_name: op.name(), message });
        }
        let value = if self.inference {
            Tensor::placeholder(rows, cols)
        } else {
            let mut value = Tensor::zeros(rows, cols);
            forward::eval(
                index,
                &op,
                (rows, cols),
                value.as_mut_slice(),
                |v| self.value(v).as_slice(),
                |v| self.value(v).shape(),
                &mut Vec::new(),
            );
            value
        };
        self.push(value, op)
    }

    /// Records a constant input tensor.
    ///
    /// Inputs keep their real data even on deferred tapes: the arena
    /// executor reads leaf values straight from the tape.
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Input)
    }

    /// Records a constant `rows x cols` input with every element `value`,
    /// once per tape: a later call with the same shape and value bits
    /// returns the first leaf. Inputs receive no gradient, so sharing one
    /// changes nothing in training either.
    pub fn fill(&mut self, rows: usize, cols: usize, value: f32) -> Var {
        let key = (rows, cols, value.to_bits());
        if let Some(&v) = self.fills.get(&key) {
            return v;
        }
        let v = self.input(Tensor::full(rows, cols, value));
        self.fills.insert(key, v);
        v
    }

    /// Records a scalar constant.
    pub fn constant(&mut self, value: f32) -> Var {
        self.input(Tensor::scalar(value))
    }

    /// Records a parameter leaf; gradients will accumulate in the store.
    ///
    /// A tape holds one leaf per parameter: every later call with the same
    /// id returns the first call's [`Var`], so a layer applied many times
    /// reads (and, on an eager tape, clones) its weights once. Backward sums
    /// the consumers' adjoints on that leaf, in reverse recording order, and
    /// adds the sum to the store once.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(Some(v)) = self.params.get(id.index()) {
            return *v;
        }
        let value = if self.inference {
            // The executor reads the live parameter from the store at
            // execution time; cloning the value here would be both a wasted
            // allocation and a staleness hazard across optimizer steps.
            let (rows, cols) = store.value(id).shape();
            Tensor::placeholder(rows, cols)
        } else {
            store.value(id).clone()
        };
        let v = self.push(value, Op::Param(id));
        if self.params.len() <= id.index() {
            self.params.resize(id.index() + 1, None);
        }
        self.params[id.index()] = Some(v);
        v
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        self.record(Op::Scale(a, k))
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: Var, k: f32) -> Var {
        self.record(Op::AddScalar(a, k))
    }

    /// Elementwise quotient `a / b`.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Div(a, b))
    }

    /// Elementwise `e^x`. Overflows for unbounded inputs — subtract the row
    /// max first ([`Self::max_cols`]) or the `naked-exp` lint will flag it.
    pub fn exp(&mut self, a: Var) -> Var {
        self.record(Op::Exp(a))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&mut self, a: Var) -> Var {
        self.record(Op::Ln(a))
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.record(Op::Sqrt(a))
    }

    /// `1 - a`, elementwise (GRU gating convenience).
    pub fn one_minus(&mut self, a: Var) -> Var {
        let neg = self.scale(a, -1.0);
        self.add_scalar(neg, 1.0)
    }

    /// Broadcast-adds a `1 x c` row vector to each row of `a`.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        self.record(Op::AddRow(a, row))
    }

    /// Broadcast-adds an `r x 1` column vector to each column of `a`.
    pub fn add_col(&mut self, a: Var, col: Var) -> Var {
        self.record(Op::AddCol(a, col))
    }

    /// Scales row `i` of `a` by `col[i]` (attention-weighted rows).
    pub fn mul_col(&mut self, a: Var, col: Var) -> Var {
        self.record(Op::MulCol(a, col))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Matmul(a, b))
    }

    /// `a (r x k) * b^T (c x k) -> r x c` without materializing the
    /// transpose — the attention-scoring hot path (`Q K^T`).
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::MatmulNt(a, b))
    }

    /// `a^T (k x r) * b (k x c) -> r x c` without materializing the
    /// transpose — attention context pooling (`alpha^T V`).
    pub fn matmul_tn(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::MatmulTn(a, b))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        self.record(Op::Transpose(a))
    }

    /// Sum of all elements (`1 x 1`).
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.record(Op::SumAll(a))
    }

    /// Mean of all elements (`1 x 1`).
    pub fn mean_all(&mut self, a: Var) -> Var {
        self.record(Op::MeanAll(a))
    }

    /// Sums over rows, producing a `1 x c` vector.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        self.record(Op::SumRows(a))
    }

    /// Sums over columns, producing an `r x 1` vector.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        self.record(Op::SumCols(a))
    }

    /// Mean over rows (`1 x c`).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let rows = self.value(a).rows();
        let s = self.sum_rows(a);
        // Scaling by 1 is the identity, bit for bit: record no node for it.
        if rows == 1 {
            return s;
        }
        self.scale(s, 1.0 / rows as f32)
    }

    /// Per-row maximum (`r x 1`), the softmax/log-sum-exp stabilizer.
    pub fn max_cols(&mut self, a: Var) -> Var {
        self.record(Op::MaxCols(a))
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: Var) -> Var {
        self.record(Op::Softmax(a))
    }

    /// Fused row-wise log-softmax (use instead of `ln(softmax(x))`).
    pub fn log_softmax(&mut self, a: Var) -> Var {
        self.record(Op::LogSoftmax(a))
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        self.record(Op::Relu(a))
    }

    /// Leaky ReLU with slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        self.record(Op::LeakyRelu(a, alpha))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.record(Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.record(Op::Sigmoid(a))
    }

    /// GELU (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        self.record(Op::Gelu(a))
    }

    /// Fused layer normalization over each row, with learnable `gamma`/`beta`
    /// (`1 x c` parameters).
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        self.record(Op::LayerNorm { x, gamma, beta, eps })
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        self.record(Op::ConcatCols(parts.to_vec()))
    }

    /// Vertical concatenation.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        self.record(Op::ConcatRows(parts.to_vec()))
    }

    /// Copies columns `[start, start + len)`.
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        self.record(Op::SliceCols { x, start, len })
    }

    /// Copies rows `[start, start + len)`.
    pub fn slice_rows(&mut self, x: Var, start: usize, len: usize) -> Var {
        self.record(Op::SliceRows { x, start, len })
    }

    /// Row `r` of `x` as a `1 x c` vector.
    pub fn row(&mut self, x: Var, r: usize) -> Var {
        self.slice_rows(x, r, 1)
    }

    /// Embedding lookup: `out[i] = table[indices[i]]`.
    pub fn gather_rows(&mut self, table: Var, indices: &[usize]) -> Var {
        self.record(Op::GatherRows { table, indices: indices.to_vec() })
    }

    /// [`Self::gather_rows`], recorded once per `(table, indices)` on this
    /// tape: a later call with the same arguments returns the first node.
    /// For eval-mode graphs; a training graph keeps one gather per use (see
    /// [`crate::Memo`]).
    pub fn gather_rows_shared(&mut self, table: Var, indices: &[usize]) -> Var {
        let key = (table, indices.to_vec());
        if let Some(&v) = self.gathers.get(&key) {
            return v;
        }
        let v = self.gather_rows(table, indices);
        self.gathers.insert(key, v);
        v
    }

    /// Inverted dropout. Identity when `train` is false or `p == 0` (no op
    /// is recorded and no RNG is consumed). On a deferred tape in training
    /// mode the op is recorded with a placeholder mask and no RNG is
    /// consumed either: deferred training graphs are analysed, never
    /// executed (the arena planner rejects dropout as a training op).
    pub fn dropout(&mut self, x: Var, p: f32, train: bool, rng: &mut impl Rng) -> Var {
        if !train || p <= 0.0 {
            return x;
        }
        assert!(p < 1.0, "dropout: p must be < 1");
        let (rows, cols) = self.value(x).shape();
        if self.inference {
            return self.record(Op::Dropout { x, mask: Tensor::placeholder(rows, cols) });
        }
        let keep = 1.0 - p;
        let mut mask = Tensor::zeros(rows, cols);
        for m in mask.as_mut_slice() {
            if rng.gen::<f32>() < keep {
                *m = 1.0 / keep;
            }
        }
        self.record(Op::Dropout { x, mask })
    }

    /// Mean cross-entropy of row-wise logits against class indices.
    pub fn cross_entropy_logits(&mut self, logits: Var, targets: &[usize]) -> Var {
        self.record(Op::CrossEntropyLogits { logits, targets: targets.to_vec() })
    }

    /// Weighted cross-entropy: per-row weights, normalized by the weight
    /// sum. Used to up-weight the rare positive class (9-25% in the
    /// benchmarks).
    pub fn weighted_cross_entropy_logits(
        &mut self,
        logits: Var,
        targets: &[usize],
        weights: &[f32],
    ) -> Var {
        self.record(Op::WeightedCrossEntropyLogits {
            logits,
            targets: targets.to_vec(),
            weights: weights.to_vec(),
        })
    }

    /// Mean binary cross-entropy with logits (`r x 1` logits, `targets` in `[0,1]`).
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        self.record(Op::BceWithLogits { logits, targets: targets.to_vec() })
    }

    /// Mean squared error against a constant target.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        self.record(Op::MseLoss { pred, target: target.clone() })
    }

    /// Runs reverse-mode differentiation from the scalar `loss` node,
    /// accumulating parameter gradients into `store`.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`, or if called on a deferred tape
    /// (placeholder values have no gradients).
    pub fn backward(&self, loss: Var, store: &mut ParamStore) {
        assert!(!self.inference, "backward: deferred tapes record no values");
        assert!(self.value(loss).is_scalar(), "backward: loss must be scalar");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            #[cfg(debug_assertions)]
            if g.has_non_finite() {
                panic!("backward adjoint of op #{i} ({}) is non-finite", self.nodes[i].op.name());
            }
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(pid) => store.accumulate_grad(*pid, &g),
                Op::Add(a, b) => {
                    accum(&mut grads, *a, g.clone());
                    accum(&mut grads, *b, g);
                }
                Op::Sub(a, b) => {
                    accum(&mut grads, *a, g.clone());
                    accum(&mut grads, *b, g.scale(-1.0));
                }
                Op::Mul(a, b) => {
                    let da = g.mul(self.value(*b));
                    let db = g.mul(self.value(*a));
                    accum(&mut grads, *a, da);
                    accum(&mut grads, *b, db);
                }
                Op::Scale(a, k) => accum(&mut grads, *a, g.scale(*k)),
                Op::AddScalar(a, _) => accum(&mut grads, *a, g),
                Op::Div(a, b) => {
                    // y = a/b : da = g/b ; db = -g*y/b
                    let y = &self.nodes[i].value;
                    let da = g.div(self.value(*b));
                    let db = g.mul(y).div(self.value(*b)).scale(-1.0);
                    accum(&mut grads, *a, da);
                    accum(&mut grads, *b, db);
                }
                Op::AddRow(a, row) => {
                    accum(&mut grads, *row, g.sum_rows());
                    accum(&mut grads, *a, g);
                }
                Op::AddCol(a, col) => {
                    accum(&mut grads, *col, g.sum_cols());
                    accum(&mut grads, *a, g);
                }
                Op::MulCol(a, col) => {
                    let da = g.mul_col_broadcast(self.value(*col));
                    let dcol = g.mul(self.value(*a)).sum_cols();
                    accum(&mut grads, *a, da);
                    accum(&mut grads, *col, dcol);
                }
                Op::Matmul(a, b) => {
                    // dA = G B^T ; dB = A^T G
                    let da = g.matmul_nt(self.value(*b));
                    let db = self.value(*a).matmul_tn(&g);
                    accum(&mut grads, *a, da);
                    accum(&mut grads, *b, db);
                }
                Op::MatmulNt(a, b) => {
                    // out = A B^T : dA = G B ; dB = G^T A
                    let da = g.matmul(self.value(*b));
                    let db = g.matmul_tn(self.value(*a));
                    accum(&mut grads, *a, da);
                    accum(&mut grads, *b, db);
                }
                Op::MatmulTn(a, b) => {
                    // out = A^T B (A is k x r, B is k x c, G is r x c):
                    // dA = B G^T ; dB = A G
                    let da = self.value(*b).matmul_nt(&g);
                    let db = self.value(*a).matmul(&g);
                    accum(&mut grads, *a, da);
                    accum(&mut grads, *b, db);
                }
                Op::Transpose(a) => accum(&mut grads, *a, g.transpose()),
                Op::SumAll(a) => {
                    let (r, c) = self.value(*a).shape();
                    accum(&mut grads, *a, Tensor::full(r, c, g.item()));
                }
                Op::MeanAll(a) => {
                    let (r, c) = self.value(*a).shape();
                    let k = g.item() / (r * c) as f32;
                    accum(&mut grads, *a, Tensor::full(r, c, k));
                }
                Op::SumRows(a) => {
                    let rows = self.value(*a).rows();
                    let da = Tensor::zeros(rows, g.cols()).add_row_broadcast(&g);
                    accum(&mut grads, *a, da);
                }
                Op::SumCols(a) => {
                    let cols = self.value(*a).cols();
                    let da = Tensor::zeros(g.rows(), cols).add_col_broadcast(&g);
                    accum(&mut grads, *a, da);
                }
                Op::MaxCols(a) => {
                    // Subgradient: route each row's adjoint to the first
                    // argmax (matching the kernel's first-on-ties argmax).
                    let x = self.value(*a);
                    let mut dx = Tensor::zeros(x.rows(), x.cols());
                    for r in 0..x.rows() {
                        dx.set(r, x.argmax_row(r), g.get(r, 0));
                    }
                    accum(&mut grads, *a, dx);
                }
                Op::LogSoftmax(a) => {
                    // dx = g - exp(y) * rowsum(g)
                    let y = &self.nodes[i].value;
                    let row_sum = g.sum_cols(); // r x 1
                    let mut da = g.clone();
                    for r in 0..da.rows() {
                        let s = row_sum.get(r, 0);
                        for (j, v) in da.row_mut(r).iter_mut().enumerate() {
                            *v -= y.get(r, j).exp() * s;
                        }
                    }
                    accum(&mut grads, *a, da);
                }
                Op::Exp(a) => {
                    let y = &self.nodes[i].value;
                    accum(&mut grads, *a, g.mul(y));
                }
                Op::Ln(a) => {
                    let da = g.div(self.value(*a));
                    accum(&mut grads, *a, da);
                }
                Op::Sqrt(a) => {
                    // dx = g / (2 * sqrt(x)) = 0.5 * g / y
                    let y = &self.nodes[i].value;
                    let da = g.div(y).scale(0.5);
                    accum(&mut grads, *a, da);
                }
                Op::Softmax(a) => {
                    // dx = y * (g - rowsum(g * y))
                    let y = &self.nodes[i].value;
                    let gy = g.mul(y);
                    let row_dot = gy.sum_cols(); // r x 1
                    let mut da = g.clone();
                    for r in 0..da.rows() {
                        let d = row_dot.get(r, 0);
                        for (j, v) in da.row_mut(r).iter_mut().enumerate() {
                            *v = y.get(r, j) * (*v - d);
                        }
                    }
                    accum(&mut grads, *a, da);
                }
                Op::Relu(a) => {
                    let x = self.value(*a);
                    let da = g.zip_map(x, "relu_bwd", |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                    accum(&mut grads, *a, da);
                }
                Op::LeakyRelu(a, alpha) => {
                    let x = self.value(*a);
                    let al = *alpha;
                    let da =
                        g.zip_map(x, "lrelu_bwd", |gv, xv| if xv > 0.0 { gv } else { al * gv });
                    accum(&mut grads, *a, da);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let da = g.zip_map(y, "tanh_bwd", |gv, yv| gv * (1.0 - yv * yv));
                    accum(&mut grads, *a, da);
                }
                Op::Sigmoid(a) => {
                    let y = &self.nodes[i].value;
                    let da = g.zip_map(y, "sigmoid_bwd", |gv, yv| gv * yv * (1.0 - yv));
                    accum(&mut grads, *a, da);
                }
                Op::Gelu(a) => {
                    let x = self.value(*a);
                    let da = g.zip_map(x, "gelu_bwd", |gv, xv| gv * gelu_grad_scalar(xv));
                    accum(&mut grads, *a, da);
                }
                Op::LayerNorm { x, gamma, beta, eps } => {
                    let (dx, dgamma, dbeta) =
                        layer_norm_backward(self.value(*x), self.value(*gamma), &g, *eps);
                    accum(&mut grads, *x, dx);
                    accum(&mut grads, *gamma, dgamma);
                    accum(&mut grads, *beta, dbeta);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let w = self.value(p).cols();
                        accum(&mut grads, p, g.slice_cols(off, w));
                        off += w;
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let h = self.value(p).rows();
                        accum(&mut grads, p, g.slice_rows(off, h));
                        off += h;
                    }
                }
                Op::SliceCols { x, start, .. } => {
                    let (r, c) = self.value(*x).shape();
                    let mut dx = Tensor::zeros(r, c);
                    for row in 0..r {
                        let src = g.row(row);
                        dx.row_mut(row)[*start..*start + src.len()].copy_from_slice(src);
                    }
                    accum(&mut grads, *x, dx);
                }
                Op::SliceRows { x, start, .. } => {
                    let (r, c) = self.value(*x).shape();
                    let mut dx = Tensor::zeros(r, c);
                    for row in 0..g.rows() {
                        dx.row_mut(start + row).copy_from_slice(g.row(row));
                    }
                    accum(&mut grads, *x, dx);
                }
                Op::GatherRows { table, indices } => {
                    let (r, c) = self.value(*table).shape();
                    let mut dt = Tensor::zeros(r, c);
                    dt.scatter_add_rows(indices, &g);
                    accum(&mut grads, *table, dt);
                }
                Op::Dropout { x, mask } => {
                    accum(&mut grads, *x, g.mul(mask));
                }
                Op::CrossEntropyLogits { logits, targets } => {
                    // d logits = (softmax - onehot) * g / n
                    let lv = self.value(*logits);
                    let mut dl = lv.softmax_rows();
                    let k = g.item() / targets.len() as f32;
                    for (r, &t) in targets.iter().enumerate() {
                        let cur = dl.get(r, t);
                        dl.set(r, t, cur - 1.0);
                    }
                    accum(&mut grads, *logits, dl.scale(k));
                }
                Op::WeightedCrossEntropyLogits { logits, targets, weights } => {
                    let lv = self.value(*logits);
                    let mut dl = lv.softmax_rows();
                    let w_sum: f32 = weights.iter().sum();
                    let k = g.item() / w_sum;
                    for (r, (&t, &w)) in targets.iter().zip(weights).enumerate() {
                        let cur = dl.get(r, t);
                        dl.set(r, t, cur - 1.0);
                        for v in dl.row_mut(r) {
                            *v *= k * w;
                        }
                    }
                    accum(&mut grads, *logits, dl);
                }
                Op::BceWithLogits { logits, targets } => {
                    let lv = self.value(*logits);
                    let k = g.item() / targets.len() as f32;
                    let mut dl = Tensor::zeros(lv.rows(), 1);
                    for (r, &y) in targets.iter().enumerate() {
                        let z = lv.get(r, 0);
                        let s = 1.0 / (1.0 + (-z).exp());
                        dl.set(r, 0, (s - y) * k);
                    }
                    accum(&mut grads, *logits, dl);
                }
                Op::MseLoss { pred, target } => {
                    let pv = self.value(*pred);
                    let k = 2.0 * g.item() / pv.len() as f32;
                    accum(&mut grads, *pred, pv.sub(target).scale(k));
                }
            }
        }
    }
}

fn accum(grads: &mut [Option<Tensor>], v: Var, delta: Tensor) {
    match &mut grads[v.0] {
        Some(existing) => existing.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// Closed-form layer-norm backward for one batch of rows.
fn layer_norm_backward(
    x: &Tensor,
    gamma: &Tensor,
    g: &Tensor,
    eps: f32,
) -> (Tensor, Tensor, Tensor) {
    let (rows, cols) = x.shape();
    let c = cols as f32;
    let (mean, var) = x.row_moments();
    let mut dx = Tensor::zeros(rows, cols);
    let mut dgamma = Tensor::zeros(1, cols);
    let mut dbeta = Tensor::zeros(1, cols);
    for r in 0..rows {
        let m = mean.get(r, 0);
        let inv = 1.0 / (var.get(r, 0) + eps).sqrt();
        // x_hat and intermediate sums.
        let mut sum_dxhat = 0.0;
        let mut sum_dxhat_xhat = 0.0;
        let mut xhat = vec![0.0f32; cols];
        let mut dxhat = vec![0.0f32; cols];
        for j in 0..cols {
            xhat[j] = (x.get(r, j) - m) * inv;
            dxhat[j] = g.get(r, j) * gamma.get(0, j);
            sum_dxhat += dxhat[j];
            sum_dxhat_xhat += dxhat[j] * xhat[j];
            dgamma.set(0, j, dgamma.get(0, j) + g.get(r, j) * xhat[j]);
            dbeta.set(0, j, dbeta.get(0, j) + g.get(r, j));
        }
        for j in 0..cols {
            let v = inv * (dxhat[j] - sum_dxhat / c - xhat[j] * sum_dxhat_xhat / c);
            dx.set(r, j, v);
        }
    }
    (dx, dgamma, dbeta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_chain_gradient() {
        // loss = sum((w * 3)^2-ish): check a simple chain by hand.
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::scalar(2.0));
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        let y = t.scale(wv, 3.0); // y = 6
        let loss = t.mul(y, y); // loss = 36, dloss/dw = 2*y*3 = 36
        let loss = t.sum_all(loss);
        assert!((t.value(loss).item() - 36.0).abs() < 1e-5);
        t.backward(loss, &mut ps);
        assert!((ps.grad(w).item() - 36.0).abs() < 1e-4);
    }

    #[test]
    fn matmul_gradient_manual() {
        // loss = sum(A W), dW = A^T 1, dA = 1 W^T
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let mut t = Tape::new();
        let a = t.input(Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]));
        let wv = t.param(&ps, w);
        let y = t.matmul(a, wv);
        let loss = t.sum_all(y);
        t.backward(loss, &mut ps);
        // dW = A^T @ ones(3,2) = [[2,2],[2,2]]
        assert_eq!(ps.grad(w).as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn param_used_twice_accumulates() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::scalar(5.0));
        let x = Tensor::scalar(3.0);
        // Two calls of one layer `y = w * x + w`: three consumers of `w`.
        let layer = |t: &mut Tape, ps: &ParamStore, x: Var| {
            let wv = t.param(ps, w);
            let wx = t.mul(wv, x);
            t.add(wx, wv)
        };
        for mut t in [Tape::new(), Tape::inference()] {
            let xv = t.input(x.clone());
            let h = layer(&mut t, &ps, xv);
            let y = layer(&mut t, &ps, h);
            let params = (0..t.len()).filter(|&i| t.op_name(i) == "param").count();
            assert_eq!(params, 1, "one param leaf per id, whatever the recording mode");
            if !t.is_inference() {
                // y = w (w x + w) + w, so dy/dw = 2 w x + 2 w + 1.
                ps.zero_grad();
                t.backward(y, &mut ps);
                assert_eq!(ps.grad(w).item(), 2.0 * 5.0 * 3.0 + 2.0 * 5.0 + 1.0);
            }
        }
    }

    #[test]
    fn cross_entropy_forward_value() {
        let mut t = Tape::new();
        let logits = t.input(Tensor::from_rows(&[vec![0.0, 0.0]]));
        let loss = t.cross_entropy_logits(logits, &[0]);
        assert!((t.value(loss).item() - (2.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn bce_forward_value() {
        let mut t = Tape::new();
        let logits = t.input(Tensor::col_vector(&[0.0]));
        let loss = t.bce_with_logits(logits, &[1.0]);
        assert!((t.value(loss).item() - (2.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let x = t.input(Tensor::ones(2, 4));
        let y = t.dropout(x, 0.5, false, &mut rng);
        assert_eq!(y, x); // same var: identity shortcut
    }

    #[test]
    fn inference_tape_elides_dropout_without_consuming_rng() {
        let mut t = Tape::inference();
        assert!(t.is_inference());
        let mut rng = StdRng::seed_from_u64(7);
        let x = t.input(Tensor::ones(2, 4));
        // In eval mode a deferred tape records no dropout node...
        let y = t.dropout(x, 0.5, false, &mut rng);
        assert_eq!(y, x);
        assert_eq!(t.len(), 1);
        // ...and leaves the RNG stream untouched (matches eager eval mode).
        let mut fresh = StdRng::seed_from_u64(7);
        assert_eq!(rng.gen::<f32>().to_bits(), fresh.gen::<f32>().to_bits());
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut kept = 0.0;
        let n = 200;
        for _ in 0..n {
            let mut t = Tape::new();
            let x = t.input(Tensor::ones(1, 50));
            let y = t.dropout(x, 0.3, true, &mut rng);
            kept += t.value(y).mean();
        }
        let avg = kept / n as f32;
        assert!((avg - 1.0).abs() < 0.05, "dropout expectation {avg}");
    }

    #[test]
    fn softmax_rows_grad_sums_to_zero() {
        // Because softmax output sums to 1, gradient wrt logits of any
        // function through softmax has zero row-sum when upstream grad is
        // uniform in that row only through the softmax path.
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::row_vector(&[0.2, -0.4, 0.9]));
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        let s = t.softmax(wv);
        let picked = t.slice_cols(s, 1, 1); // prob of class 1
        let loss = t.sum_all(picked);
        t.backward(loss, &mut ps);
        let grad_sum: f32 = ps.grad(w).as_slice().iter().sum();
        assert!(grad_sum.abs() < 1e-5, "softmax grad row-sum {grad_sum}");
    }

    #[test]
    fn gather_rows_duplicate_indices_accumulate() {
        let mut ps = ParamStore::new();
        let table = ps.add("emb", Tensor::ones(3, 2));
        let mut t = Tape::new();
        let tv = t.param(&ps, table);
        let picked = t.gather_rows(tv, &[1, 1, 2]);
        let loss = t.sum_all(picked);
        t.backward(loss, &mut ps);
        assert_eq!(ps.grad(table).row(0), &[0.0, 0.0]);
        assert_eq!(ps.grad(table).row(1), &[2.0, 2.0]);
        assert_eq!(ps.grad(table).row(2), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar() {
        let mut ps = ParamStore::new();
        let mut t = Tape::new();
        let x = t.input(Tensor::zeros(2, 2));
        t.backward(x, &mut ps);
    }

    #[test]
    fn deferred_training_dropout_keeps_shape_and_rng_stream() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = Tape::inference();
        let x = t.input(Tensor::zeros(4, 6));
        let before = rng.clone();
        let y = t.dropout(x, 0.5, true, &mut rng);
        assert_ne!(y, x, "training-mode dropout is recorded for analysis");
        assert_eq!(t.op_name(y.index()), "dropout");
        assert_eq!(t.value(y).shape(), (4, 6));
        assert!(t.value(y).is_placeholder());
        assert_eq!(rng, before, "deferred dropout must not consume the RNG");
    }

    #[test]
    fn deferred_records_true_shapes_without_values() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::ones(3, 2));
        let mut t = Tape::inference();
        assert!(t.is_inference());
        let x = t.input(Tensor::ones(4, 3));
        let wv = t.param(&ps, w);
        let y = t.matmul(x, wv);
        let loss = t.sum_all(y);
        // Inputs keep real data; everything else is a storage-free placeholder.
        assert!(!t.value(x).is_placeholder());
        assert!(t.value(wv).is_placeholder());
        assert!(t.value(y).is_placeholder());
        assert_eq!(t.value(wv).shape(), (3, 2));
        assert_eq!(t.value(y).shape(), (4, 2));
        assert_eq!(t.value(loss).shape(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "op #2 (matmul): inner dimensions differ: (2, 3) x (4, 5)")]
    fn deferred_shape_violation_panics() {
        // Recording collects the violation; planning the tape refuses it.
        let mut t = Tape::inference();
        let a = t.input(Tensor::ones(2, 3));
        let b = t.input(Tensor::ones(4, 5));
        let y = t.matmul(a, b);
        assert_eq!(t.shape_violations().len(), 1);
        crate::ExecutionPlan::build_inference(&t, y);
    }

    #[test]
    #[should_panic(expected = "deferred tapes record no values")]
    fn backward_rejects_deferred_tapes() {
        let mut ps = ParamStore::new();
        let mut t = Tape::inference();
        let x = t.input(Tensor::zeros(1, 1));
        let loss = t.sum_all(x);
        t.backward(loss, &mut ps);
    }

    #[test]
    fn try_accessors_return_none_past_the_end() {
        let mut t = Tape::new();
        let x = t.input(Tensor::ones(2, 3));
        t.sum_all(x);
        assert_eq!(t.try_node_value(1).map(Tensor::shape), Some((1, 1)));
        assert_eq!(t.try_op_name(1), Some("sum_all"));
        assert_eq!(t.try_op_inputs(1), Some(vec![0]));
        assert!(t.try_node_value(2).is_none());
        assert!(t.try_op_name(2).is_none());
        assert!(t.try_op_inputs(2).is_none());
        assert!(Tape::new().try_op_name(0).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range for tape of 1 nodes")]
    fn node_value_reports_tape_length_on_bad_index() {
        let mut t = Tape::new();
        t.input(Tensor::ones(1, 1));
        t.node_value(5);
    }

    #[test]
    #[should_panic(expected = "out of range for tape of 0 nodes")]
    fn op_inputs_reports_tape_length_on_bad_index() {
        Tape::new().op_inputs(0);
    }

    #[test]
    fn dropout_with_mask_replays_the_given_mask() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Tape::new();
        let x = t.input(Tensor::ones(3, 4));
        let y = t.dropout(x, 0.5, true, &mut rng);
        let Op::Dropout { mask, .. } = t.op_at(y.index()) else {
            panic!("expected dropout node");
        };
        let mask = mask.clone();

        let mut t2 = Tape::new();
        let x2 = t2.input(Tensor::ones(3, 4));
        let y2 = t2.record(Op::Dropout { x: x2, mask });
        for (a, b) in t.value(y).as_slice().iter().zip(t2.value(y2).as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mode_like_copies_recording_mode_not_contents() {
        let mut t = Tape::inference();
        t.input(Tensor::ones(1, 1));
        let fresh = t.mode_like();
        assert!(fresh.is_inference());
        assert!(fresh.is_empty());
    }
}
