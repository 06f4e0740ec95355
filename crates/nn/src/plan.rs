//! Ahead-of-time arena memory planning and allocation-free tape execution.
//!
//! [`ExecutionPlan::build`] takes a tape recorded with [`Tape::deferred`]
//! (true shapes, no computed values) and a scalar loss node, runs a liveness
//! analysis over the **combined forward + backward timeline**, and assigns
//! every live buffer — intermediate values *and* gradient adjoints — an
//! offset inside one contiguous [`Arena`]. [`ArenaExecutor`] then replays
//! the plan each training step: forward kernels write into planned spans,
//! backward accumulates adjoints in place, and parameter gradients flow into
//! the [`ParamStore`] exactly as `Tape::backward` would — bitwise, because
//! every op arm below reproduces the heap path's arithmetic (same kernels,
//! same element order, same accumulation order).
//!
//! # Liveness model
//! With `L = loss.index()`, forward op `i` executes at time `i` and its
//! backward adjoint at `t_bwd(i) = 2L + 1 - i`. A node's **value** lives
//! from its definition until its last reader: the latest forward consumer,
//! or — for inputs whose data the backward rule re-reads (e.g. both matmul
//! operands) and ops whose backward reads their own output (e.g. softmax) —
//! into the backward sweep. A node's **gradient** lives from the first
//! consumer adjoint that accumulates into it (`t_bwd` of its latest
//! consumer) until its own backward time. Leaf (input/parameter) values are
//! read from the tape/store and never occupy the arena.
//!
//! # Aliasing invariant
//! Two requests whose live intervals overlap are never assigned overlapping
//! spans; the greedy best-fit allocator only recycles a block after its
//! interval ends. The executor routes every read through
//! [`hiergat_tensor::SpanReader`], which panics on a read that overlaps the
//! span being written, so a planner bug is a loud failure, not corruption.

use crate::analyze;
use crate::params::ParamStore;
use crate::tape::{Op, Tape, Var};
use hiergat_tensor::{
    gelu_grad_scalar, log_softmax_rows_inplace, matmul_into, matmul_nt_into, matmul_tn_into,
    row_moments_into, softmax_rows_inplace, Arena, Span, SpanReader, Tensor,
};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Which of an op's *inputs* have their *values* re-read by the backward
/// rule in `Tape::backward`. Everything else can release its value at its
/// last forward consumer — this is what lets the planner overlap most of
/// the forward activations with the backward adjoints.
fn backward_value_reads(op: &Op) -> Vec<Var> {
    match op {
        Op::Mul(a, b) | Op::Matmul(a, b) | Op::MatmulNt(a, b) | Op::MatmulTn(a, b) => {
            vec![*a, *b]
        }
        Op::Div(_, b) => vec![*b],
        Op::MulCol(a, col) => vec![*a, *col],
        Op::MaxCols(a) | Op::Ln(a) | Op::Relu(a) | Op::LeakyRelu(a, _) | Op::Gelu(a) => vec![*a],
        Op::LayerNorm { x, gamma, .. } => vec![*x, *gamma],
        Op::CrossEntropyLogits { logits, .. }
        | Op::WeightedCrossEntropyLogits { logits, .. }
        | Op::BceWithLogits { logits, .. } => vec![*logits],
        Op::MseLoss { pred, .. } => vec![*pred],
        _ => Vec::new(),
    }
}

/// Whether the backward rule reads the op's own *output* value (`y`).
fn backward_reads_output(op: &Op) -> bool {
    matches!(
        op,
        Op::Div(..)
            | Op::Softmax(_)
            | Op::LogSoftmax(_)
            | Op::Exp(_)
            | Op::Sqrt(_)
            | Op::Tanh(_)
            | Op::Sigmoid(_)
    )
}

/// Shape/topology fingerprint of `tape[0..=loss]`. Two tapes with equal
/// signatures produce identical plans (payloads like scale factors, slice
/// starts, dropout masks, and loss targets are read from the *current* tape
/// at execution time and never baked into the plan). The mode tag keeps
/// training and inference plans for the same graph distinct in the plan
/// cache — their liveness (and therefore their spans) differ.
fn signature(tape: &Tape, loss: Var, inference: bool) -> Vec<u64> {
    let mut sig = Vec::new();
    signature_into(tape, loss, inference, &mut sig);
    sig
}

/// [`signature`] written into a caller-owned buffer, so per-call code (the
/// optimiser's decisions cache) can fingerprint a tape without allocating.
pub(crate) fn signature_into(tape: &Tape, loss: Var, inference: bool, sig: &mut Vec<u64>) {
    // The optimiser bit keeps an optimised graph's plan distinct from the
    // as-recorded graph's even when their shapes coincide.
    sig.extend([loss.index() as u64, u64::from(inference), u64::from(tape.is_optimized())]);
    for i in 0..=loss.index() {
        let v = Var::from_index(i);
        let op = tape.op_at(i);
        let (rows, cols) = tape.value(v).shape();
        // `Op::tag` is deliberately explicit (not `mem::discriminant`
        // hashing): the code feeds the plan-cache signature, and op
        // identity changes liveness even when shapes match.
        sig.push(op.tag());
        sig.push(rows as u64);
        sig.push(cols as u64);
        let arity_at = sig.len();
        sig.push(0);
        op.for_each_input(|x| sig.push(x.index() as u64));
        sig[arity_at] = (sig.len() - arity_at - 1) as u64;
    }
}

/// Allocation-free check that `tape[0..=loss]`'s fingerprint equals a
/// previously captured [`signature_into`] buffer. The optimiser's replay
/// cache confirms structural identity with this walk — mirroring
/// `signature_into` word for word, aborting on the first mismatch —
/// instead of materialising a fresh signature vector per call.
pub(crate) fn sig_matches(tape: &Tape, loss: Var, inference: bool, sig: &[u64]) -> bool {
    if sig.len() < 3
        || sig[0] != loss.index() as u64
        || sig[1] != u64::from(inference)
        || sig[2] != u64::from(tape.is_optimized())
    {
        return false;
    }
    let mut pos = 3;
    for i in 0..=loss.index() {
        let op = tape.op_at(i);
        let (rows, cols) = tape.value(Var::from_index(i)).shape();
        if pos + 4 > sig.len()
            || sig[pos] != op.tag()
            || sig[pos + 1] != rows as u64
            || sig[pos + 2] != cols as u64
        {
            return false;
        }
        let declared_arity = sig[pos + 3];
        pos += 4;
        let mut arity = 0u64;
        let mut inputs_ok = true;
        op.for_each_input(|x| {
            if pos < sig.len() && sig[pos] == x.index() as u64 {
                pos += 1;
            } else {
                inputs_ok = false;
            }
            arity += 1;
        });
        if !inputs_ok || arity != declared_arity {
            return false;
        }
    }
    pos == sig.len()
}

fn hash_signature(sig: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    sig.hash(&mut h);
    h.finish()
}

/// One planned buffer: a node's value or gradient, its live interval on the
/// combined timeline, and the arena span it was assigned. Exposed so tests
/// (and the planner proptest) can verify the aliasing invariant directly.
#[derive(Debug, Clone, Copy)]
pub struct PlannedSlot {
    /// Tape node index.
    pub node: usize,
    /// `false` = forward value, `true` = gradient adjoint.
    pub grad: bool,
    /// First timeline step at which the buffer is written.
    pub start_time: usize,
    /// Last timeline step at which the buffer is read (inclusive).
    pub end_time: usize,
    /// Assigned storage.
    pub span: Span,
}

/// Summary of a plan: how much arena the greedy assignment needs versus the
/// no-reuse baseline and the liveness-theoretic lower bound.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Reachable tape nodes.
    pub nodes: usize,
    /// Planned buffers (values + gradients).
    pub slots: usize,
    /// Bytes of arena the plan actually uses.
    pub arena_bytes: u64,
    /// Bytes if every buffer got private storage (the heap path's footprint).
    pub naive_bytes: u64,
    /// Peak of simultaneously-live bytes — no allocator can do better.
    pub lower_bound_bytes: u64,
    /// `true` when greedy best-fit needed more than the lower bound
    /// (fragmentation); reported so regressions in packing quality surface.
    pub exceeds_lower_bound: bool,
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} slots: arena {} (naive {}, lower bound {}{})",
            self.nodes,
            self.slots,
            analyze::fmt_bytes(self.arena_bytes),
            analyze::fmt_bytes(self.naive_bytes),
            analyze::fmt_bytes(self.lower_bound_bytes),
            if self.exceeds_lower_bound { ", fragmented above bound" } else { ", tight" }
        )
    }
}

/// A request for storage over a closed interval of timeline steps.
struct Request {
    node: usize,
    grad: bool,
    start: usize,
    end: usize,
    elems: usize,
}

/// Offset-sorted free list with coalescing, used by the greedy assignment.
#[derive(Default)]
struct FreeList {
    /// `(offset, len)`, sorted by offset, no two blocks adjacent.
    blocks: Vec<(usize, usize)>,
}

impl FreeList {
    fn insert(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let idx = self.blocks.partition_point(|&(o, _)| o < off);
        self.blocks.insert(idx, (off, len));
        if idx + 1 < self.blocks.len()
            && self.blocks[idx].0 + self.blocks[idx].1 == self.blocks[idx + 1].0
        {
            self.blocks[idx].1 += self.blocks[idx + 1].1;
            self.blocks.remove(idx + 1);
        }
        if idx > 0 && self.blocks[idx - 1].0 + self.blocks[idx - 1].1 == self.blocks[idx].0 {
            self.blocks[idx - 1].1 += self.blocks[idx].1;
            self.blocks.remove(idx);
        }
    }

    /// Smallest block that fits `len` (ties: lowest offset). Splits it.
    fn best_fit(&mut self, len: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (idx, &(_, blen)) in self.blocks.iter().enumerate() {
            if blen >= len {
                let better = match best {
                    None => true,
                    Some((_, cur)) => blen < cur,
                };
                if better {
                    best = Some((idx, blen));
                }
            }
        }
        let (idx, blen) = best?;
        let (off, _) = self.blocks[idx];
        if blen == len {
            self.blocks.remove(idx);
        } else {
            self.blocks[idx] = (off + len, blen - len);
        }
        Some(off)
    }

    /// Removes and returns the free block touching the arena's current end,
    /// if any — growing the arena from there wastes nothing.
    fn take_tail(&mut self, arena_end: usize) -> Option<(usize, usize)> {
        match self.blocks.last() {
            Some(&(o, l)) if o + l == arena_end => self.blocks.pop(),
            _ => None,
        }
    }
}

/// An ahead-of-time memory plan for one `(graph shape, loss)` pair.
pub struct ExecutionPlan {
    loss: Var,
    inference: bool,
    reachable: Vec<bool>,
    value_span: Vec<Span>,
    grad_span: Vec<Span>,
    arena_elems: usize,
    max_node_elems: usize,
    max_rows: usize,
    max_cols: usize,
    report: PlanReport,
    signature: Vec<u64>,
    slots: Vec<PlannedSlot>,
}

impl ExecutionPlan {
    /// Plans arena storage for executing `tape` up to `loss` and running the
    /// full backward sweep.
    ///
    /// # Panics
    /// Panics if `loss` is not on the tape, is not scalar, or if the tape was
    /// recorded shape-only (clamped shapes would corrupt the plan; use
    /// [`Tape::deferred`], which records true shapes).
    pub fn build(tape: &Tape, loss: Var) -> ExecutionPlan {
        assert!(tape.value(loss).is_scalar(), "plan: loss must be 1x1");
        Self::build_with_mode(tape, loss, false)
    }

    /// Plans arena storage for a **forward-only** evaluation of `tape` up to
    /// `output` (any shape — inference outputs are logit/probability
    /// matrices, not scalar losses).
    ///
    /// There is no adjoint timeline: gradients are never requested, and a
    /// node's value span is recycled as soon as its last *forward* consumer
    /// has run — none of the keep-alive extensions the backward sweep forces
    /// (`backward_value_reads`, output re-reads) apply. Peak arena bytes are
    /// therefore at most, and in practice well below, the training plan's.
    ///
    /// # Panics
    /// Panics if `output` is not on the tape or the tape was recorded
    /// shape-only (use [`Tape::inference`], which records true shapes).
    pub fn build_inference(tape: &Tape, output: Var) -> ExecutionPlan {
        Self::build_with_mode(tape, output, true)
    }

    fn build_with_mode(tape: &Tape, loss: Var, inference: bool) -> ExecutionPlan {
        assert!(loss.index() < tape.len(), "plan: loss is not a node of this tape");
        assert!(
            !tape.is_shape_only(),
            "plan: shape-only tapes clamp shapes; record with Tape::deferred"
        );
        let l = loss.index();
        let n = l + 1;
        let t_bwd = |i: usize| 2 * l + 1 - i;

        // Reachability: ancestors of the loss through op inputs.
        let mut reachable = vec![false; tape.len()];
        let mut stack = vec![l];
        reachable[l] = true;
        while let Some(i) = stack.pop() {
            for v in tape.op_at(i).inputs() {
                if !reachable[v.index()] {
                    reachable[v.index()] = true;
                    stack.push(v.index());
                }
            }
        }

        let is_leaf = |i: usize| matches!(tape.op_at(i), Op::Input | Op::Param(_));

        // Liveness on the combined timeline (see module docs). Inference
        // plans stop at the forward sweep: no adjoint times, no backward
        // keep-alives — a value dies at its last forward consumer.
        let mut value_last: Vec<usize> = (0..n).collect();
        let mut grad_first: Vec<usize> = (0..n).map(t_bwd).collect();
        for j in 0..n {
            if !reachable[j] {
                continue;
            }
            let op = tape.op_at(j);
            for v in op.inputs() {
                let vi = v.index();
                if !is_leaf(vi) {
                    value_last[vi] = value_last[vi].max(j);
                }
                grad_first[vi] = grad_first[vi].min(t_bwd(j));
            }
            if inference {
                continue;
            }
            for v in backward_value_reads(op) {
                let vi = v.index();
                if !is_leaf(vi) {
                    value_last[vi] = value_last[vi].max(t_bwd(j));
                }
            }
            if backward_reads_output(op) {
                value_last[j] = value_last[j].max(t_bwd(j));
            }
        }

        // Storage requests: values for non-leaf reachable nodes, and — on
        // training plans only — gradients for every reachable node (the heap
        // path accumulates adjoints for leaves too; parameters flush to the
        // store at their backward time).
        let mut requests: Vec<Request> = Vec::new();
        let mut max_node_elems = 0;
        let mut max_rows = 0;
        let mut max_cols = 0;
        let mut nodes = 0;
        for i in 0..n {
            if !reachable[i] {
                continue;
            }
            nodes += 1;
            let (rows, cols) = tape.value(Var::from_index(i)).shape();
            let elems = rows * cols;
            max_node_elems = max_node_elems.max(elems);
            max_rows = max_rows.max(rows);
            max_cols = max_cols.max(cols);
            if elems == 0 {
                continue;
            }
            if !is_leaf(i) {
                requests.push(Request {
                    node: i,
                    grad: false,
                    start: i,
                    end: value_last[i],
                    elems,
                });
            }
            if !inference {
                requests.push(Request {
                    node: i,
                    grad: true,
                    start: grad_first[i],
                    end: t_bwd(i),
                    elems,
                });
            }
        }
        requests.sort_by_key(|r| (r.start, r.node, r.grad));

        // Liveness-theoretic lower bound: peak of simultaneously-live elems.
        let mut delta = vec![0i64; if inference { n + 1 } else { 2 * l + 3 }];
        let mut naive_elems = 0u64;
        for r in &requests {
            delta[r.start] += r.elems as i64;
            delta[r.end + 1] -= r.elems as i64;
            naive_elems += r.elems as u64;
        }
        let mut live = 0i64;
        let mut peak = 0i64;
        for d in &delta {
            live += d;
            peak = peak.max(live);
        }

        // Greedy best-fit over the interval-sorted requests.
        let mut value_span = vec![Span::EMPTY; tape.len()];
        // Only `run_backward` reads gradient spans; inference plans have none.
        let mut grad_span = vec![Span::EMPTY; if inference { 0 } else { tape.len() }];
        let mut free = FreeList::default();
        let mut active: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
        let mut arena_elems = 0usize;
        let mut slots = Vec::with_capacity(requests.len());
        for r in &requests {
            while let Some(&Reverse((end, off, len))) = active.peek() {
                if end < r.start {
                    active.pop();
                    free.insert(off, len);
                } else {
                    break;
                }
            }
            let off = match free.best_fit(r.elems) {
                Some(o) => o,
                None => match free.take_tail(arena_elems) {
                    Some((o, _)) => {
                        arena_elems = o + r.elems;
                        o
                    }
                    None => {
                        let o = arena_elems;
                        arena_elems += r.elems;
                        o
                    }
                },
            };
            let span = Span { start: off, len: r.elems };
            active.push(Reverse((r.end, off, r.elems)));
            if r.grad {
                grad_span[r.node] = span;
            } else {
                value_span[r.node] = span;
            }
            slots.push(PlannedSlot {
                node: r.node,
                grad: r.grad,
                start_time: r.start,
                end_time: r.end,
                span,
            });
        }

        let bytes = |elems: u64| elems * size_of::<f32>() as u64;
        let arena_bytes = bytes(arena_elems as u64);
        let lower_bound_bytes = bytes(peak as u64);
        let report = PlanReport {
            nodes,
            slots: slots.len(),
            arena_bytes,
            naive_bytes: bytes(naive_elems),
            lower_bound_bytes,
            exceeds_lower_bound: arena_bytes > lower_bound_bytes,
        };
        let sig = signature(tape, loss, inference);
        ExecutionPlan {
            loss,
            inference,
            reachable,
            value_span,
            grad_span,
            arena_elems,
            max_node_elems,
            max_rows,
            max_cols,
            report,
            signature: sig,
            slots,
        }
    }

    /// The loss node this plan executes to.
    pub fn loss(&self) -> Var {
        self.loss
    }

    /// `true` if this is a forward-only inference plan (no gradient spans).
    pub fn is_inference(&self) -> bool {
        self.inference
    }

    /// Total arena elements the plan requires.
    pub fn arena_elems(&self) -> usize {
        self.arena_elems
    }

    /// Size / reuse summary.
    pub fn report(&self) -> &PlanReport {
        &self.report
    }

    /// Every planned buffer with its live interval and span.
    pub fn slots(&self) -> &[PlannedSlot] {
        &self.slots
    }
}

/// Reusable scratch buffers for op arms that need a staging area (matmul
/// adjoints, row statistics, layer-norm partials). Sized once per plan;
/// bundled in one struct so the executor's helpers stay borrow-friendly.
#[derive(Default)]
struct Scratch {
    /// Node-sized staging (largest reachable node, leaves included — e.g. a
    /// gather's table delta is table-sized).
    a: Vec<f32>,
    /// Row statistics: `2 * max_rows` (interleaved layer-norm moments).
    b: Vec<f32>,
    /// Column partials: `4 * max_cols` (layer-norm dgamma/dbeta/xhat/dxhat).
    c: Vec<f32>,
}

fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Executes deferred tapes through cached [`ExecutionPlan`]s with zero
/// tensor allocations in steady state.
///
/// The arena, scratch buffers, and plan cache persist across steps: once a
/// graph shape has been planned, replaying the same-shape step allocates
/// nothing — forward values, backward adjoints, and gradient accumulation
/// all live inside the arena (`hiergat_tensor::alloc_stats` proves this in
/// the differential suite and benches).
#[derive(Default)]
pub struct ArenaExecutor {
    arena: Arena,
    scratch: Scratch,
    grad_written: Vec<bool>,
    plans: HashMap<u64, ExecutionPlan>,
}

impl ArenaExecutor {
    /// An executor with no cached plans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct graph shapes planned so far.
    pub fn plans_cached(&self) -> usize {
        self.plans.len()
    }

    /// Looks up (or builds) the plan for this tape's shape signature.
    /// Associated function over the `plans` field so callers can borrow the
    /// arena and scratch fields independently.
    fn cached_plan<'p>(
        plans: &'p mut HashMap<u64, ExecutionPlan>,
        tape: &Tape,
        loss: Var,
        inference: bool,
    ) -> &'p ExecutionPlan {
        let sig = signature(tape, loss, inference);
        let key = hash_signature(&sig);
        if plans.len() > 512 && !plans.contains_key(&key) {
            // Runaway shape diversity (e.g. per-pair graph sizes): cap the
            // cache rather than grow without bound.
            plans.clear();
        }
        let build = || ExecutionPlan::build_with_mode(tape, loss, inference);
        let entry = plans.entry(key).or_insert_with(build);
        if entry.signature != sig {
            // Hash collision between distinct shapes: rebuild for the
            // current tape (correctness first; collisions are ~never).
            *entry = build();
        }
        entry
    }

    /// Plans (or reuses a cached plan for) `tape` and returns its report.
    pub fn plan_report(&mut self, tape: &Tape, loss: Var) -> PlanReport {
        Self::cached_plan(&mut self.plans, tape, loss, false).report.clone()
    }

    /// Plans (or reuses a cached **inference** plan for) `tape` up to
    /// `output` and returns its report.
    pub fn infer_report(&mut self, tape: &Tape, output: Var) -> PlanReport {
        Self::cached_plan(&mut self.plans, tape, output, true).report.clone()
    }

    /// Runs forward only, returning the loss value.
    pub fn forward(&mut self, tape: &Tape, loss: Var, store: &ParamStore) -> f32 {
        let plan = Self::cached_plan(&mut self.plans, tape, loss, false);
        self.arena.ensure_len(plan.arena_elems);
        grow(&mut self.scratch.a, plan.max_node_elems);
        grow(&mut self.scratch.b, 2 * plan.max_rows);
        grow(&mut self.scratch.c, 4 * plan.max_cols);
        run_forward(plan, tape, store, &mut self.arena, &mut self.scratch);
        read_loss(plan, tape, store, &self.arena, loss)
    }

    /// Executes an inference tape through its forward-only plan and copies
    /// the values of `output` (row-major) into `out`.
    ///
    /// Zero allocations in steady state: once the graph shape is planned and
    /// the arena/scratch are grown, replaying a same-shape tape touches only
    /// pre-owned buffers. Bitwise identical to recording the same graph
    /// eagerly — every forward arm reproduces the eager kernels exactly.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the element count of `output`.
    pub fn infer_into(&mut self, tape: &Tape, output: Var, store: &ParamStore, out: &mut [f32]) {
        let plan = Self::cached_plan(&mut self.plans, tape, output, true);
        self.arena.ensure_len(plan.arena_elems);
        grow(&mut self.scratch.a, plan.max_node_elems);
        grow(&mut self.scratch.b, 2 * plan.max_rows);
        grow(&mut self.scratch.c, 4 * plan.max_cols);
        run_forward(plan, tape, store, &mut self.arena, &mut self.scratch);
        let vals = value_slice_in(&self.arena, plan, tape, store, output);
        assert_eq!(out.len(), vals.len(), "infer_into: output buffer size mismatch");
        out.copy_from_slice(vals);
    }

    /// Convenience wrapper over [`Self::infer_into`] that allocates the
    /// output tensor.
    pub fn infer(&mut self, tape: &Tape, output: Var, store: &ParamStore) -> Tensor {
        let (rows, cols) = tape.value(output).shape();
        let mut t = Tensor::zeros(rows, cols);
        self.infer_into(tape, output, store, t.as_mut_slice());
        t
    }

    /// Bytes of arena storage this executor currently owns (peak across all
    /// plans it has replayed).
    pub fn arena_capacity_bytes(&self) -> u64 {
        self.arena.capacity_bytes()
    }

    /// Runs one full forward + backward step, accumulating parameter
    /// gradients into `store` (bitwise identical to recording the same graph
    /// eagerly and calling `Tape::backward`). Returns the loss value.
    pub fn step(&mut self, tape: &Tape, loss: Var, store: &mut ParamStore) -> f32 {
        let plan = Self::cached_plan(&mut self.plans, tape, loss, false);
        self.arena.ensure_len(plan.arena_elems);
        grow(&mut self.scratch.a, plan.max_node_elems);
        grow(&mut self.scratch.b, 2 * plan.max_rows);
        grow(&mut self.scratch.c, 4 * plan.max_cols);
        if self.grad_written.len() < tape.len() {
            self.grad_written.resize(tape.len(), false);
        }
        run_forward(plan, tape, store, &mut self.arena, &mut self.scratch);
        // Read the loss before backward: its value span may be recycled for
        // an adjoint during the sweep.
        let loss_value = read_loss(plan, tape, store, &self.arena, loss);
        run_backward(plan, tape, store, &mut self.arena, &mut self.scratch, &mut self.grad_written);
        loss_value
    }
}

fn read_loss(
    plan: &ExecutionPlan,
    tape: &Tape,
    store: &ParamStore,
    arena: &Arena,
    loss: Var,
) -> f32 {
    match tape.op_at(loss.index()) {
        Op::Input => tape.value(loss).item(),
        Op::Param(pid) => store.value(*pid).item(),
        _ => arena.read(plan.value_span[loss.index()])[0],
    }
}

/// Value buffer of `v` during execution: leaves live on the tape / in the
/// store, everything else in its planned span.
fn value_slice<'s>(
    rd: SpanReader<'s>,
    plan: &ExecutionPlan,
    tape: &'s Tape,
    store: &'s ParamStore,
    v: Var,
) -> &'s [f32] {
    match tape.op_at(v.index()) {
        Op::Input => tape.value(v).as_slice(),
        Op::Param(pid) => store.value(*pid).as_slice(),
        _ => rd.read(plan.value_span[v.index()]),
    }
}

/// Same routing for phases that read the arena without holding a write span.
fn value_slice_in<'s>(
    arena: &'s Arena,
    plan: &ExecutionPlan,
    tape: &'s Tape,
    store: &'s ParamStore,
    v: Var,
) -> &'s [f32] {
    match tape.op_at(v.index()) {
        Op::Input => tape.value(v).as_slice(),
        Op::Param(pid) => store.value(*pid).as_slice(),
        _ => arena.read(plan.value_span[v.index()]),
    }
}

fn shape_of(tape: &Tape, v: Var) -> (usize, usize) {
    tape.value(v).shape()
}

/// Writes `f(k)` over `out` — assigning when the destination is fresh
/// (mirroring the heap path's move into an empty gradient slot), adding
/// otherwise (mirroring `add_assign`).
fn apply(out: &mut [f32], fresh: bool, mut f: impl FnMut(usize) -> f32) {
    if fresh {
        for (k, d) in out.iter_mut().enumerate() {
            *d = f(k);
        }
    } else {
        for (k, d) in out.iter_mut().enumerate() {
            *d += f(k);
        }
    }
}

/// Replays the forward pass into planned spans. Every arm reproduces the
/// eager kernel bitwise: shared `*_into` kernels where the heap path uses
/// them (identical block geometry), identical scalar expressions elsewhere.
#[allow(clippy::needless_range_loop, clippy::too_many_lines)]
fn run_forward(
    plan: &ExecutionPlan,
    tape: &Tape,
    store: &ParamStore,
    arena: &mut Arena,
    scratch: &mut Scratch,
) {
    let l = plan.loss.index();
    for i in 0..=l {
        if !plan.reachable[i] {
            continue;
        }
        let op = tape.op_at(i);
        if matches!(op, Op::Input | Op::Param(_)) {
            continue;
        }
        let w = plan.value_span[i];
        let (yr, yc) = shape_of(tape, Var::from_index(i));
        if w.len == 0 {
            continue;
        }
        match op {
            Op::Input | Op::Param(_) => unreachable!("leaves skipped above"),
            Op::Add(a, b) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let bv = value_slice(rd, plan, tape, store, *b);
                apply(out, true, |k| av[k] + bv[k]);
            }
            Op::Sub(a, b) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let bv = value_slice(rd, plan, tape, store, *b);
                apply(out, true, |k| av[k] - bv[k]);
            }
            Op::Mul(a, b) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let bv = value_slice(rd, plan, tape, store, *b);
                apply(out, true, |k| av[k] * bv[k]);
            }
            Op::Scale(a, k0) => {
                let k0 = *k0;
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| av[k] * k0);
            }
            Op::AddScalar(a, k0) => {
                let k0 = *k0;
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| av[k] + k0);
            }
            Op::Div(a, b) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let bv = value_slice(rd, plan, tape, store, *b);
                apply(out, true, |k| av[k] / bv[k]);
            }
            Op::AddRow(a, row) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let rv = value_slice(rd, plan, tape, store, *row);
                apply(out, true, |k| av[k] + rv[k % yc]);
            }
            Op::AddCol(a, col) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let cv = value_slice(rd, plan, tape, store, *col);
                apply(out, true, |k| av[k] + cv[k / yc]);
            }
            Op::MulCol(a, col) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let cv = value_slice(rd, plan, tape, store, *col);
                apply(out, true, |k| av[k] * cv[k / yc]);
            }
            Op::Matmul(a, b) => {
                let (_, ac) = shape_of(tape, *a);
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let bv = value_slice(rd, plan, tape, store, *b);
                matmul_into(av, bv, out, yr, ac, yc);
            }
            Op::MatmulNt(a, b) => {
                let (_, ac) = shape_of(tape, *a);
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let bv = value_slice(rd, plan, tape, store, *b);
                matmul_nt_into(av, bv, out, yr, ac, yc);
            }
            Op::MatmulTn(a, b) => {
                let (ar, _) = shape_of(tape, *a);
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                let bv = value_slice(rd, plan, tape, store, *b);
                matmul_tn_into(av, bv, out, ar, yr, yc);
            }
            Op::Transpose(a) => {
                let (ar, ac) = shape_of(tape, *a);
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| av[(k % ar) * ac + k / ar]);
            }
            Op::SumAll(a) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                out[0] = av.iter().sum();
            }
            Op::MeanAll(a) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                out[0] = if av.is_empty() { 0.0 } else { av.iter().sum::<f32>() / av.len() as f32 };
            }
            Op::SumRows(a) => {
                let (ar, _) = shape_of(tape, *a);
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                out.fill(0.0);
                for r in 0..ar {
                    for j in 0..yc {
                        out[j] += av[r * yc + j];
                    }
                }
            }
            Op::SumCols(a) => {
                let (_, ac) = shape_of(tape, *a);
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                for r in 0..yr {
                    out[r] = av[r * ac..(r + 1) * ac].iter().sum();
                }
            }
            Op::MaxCols(a) => {
                let (_, ac) = shape_of(tape, *a);
                assert!(ac > 0, "max_cols: tensor has no columns");
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                for r in 0..yr {
                    out[r] =
                        av[r * ac..(r + 1) * ac].iter().copied().fold(f32::NEG_INFINITY, f32::max);
                }
            }
            Op::Softmax(a) => {
                {
                    let (out, rd) = arena.view_mut(w).split();
                    out.copy_from_slice(value_slice(rd, plan, tape, store, *a));
                }
                softmax_rows_inplace(arena.write(w), yr, yc);
            }
            Op::LogSoftmax(a) => {
                {
                    let (out, rd) = arena.view_mut(w).split();
                    out.copy_from_slice(value_slice(rd, plan, tape, store, *a));
                }
                log_softmax_rows_inplace(arena.write(w), yr, yc);
            }
            Op::Exp(a) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| av[k].exp());
            }
            Op::Ln(a) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| av[k].ln());
            }
            Op::Sqrt(a) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| av[k].sqrt());
            }
            Op::Relu(a) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| av[k].max(0.0));
            }
            Op::LeakyRelu(a, alpha) => {
                let al = *alpha;
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| if av[k] >= 0.0 { av[k] } else { al * av[k] });
            }
            Op::Tanh(a) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| av[k].tanh());
            }
            Op::Sigmoid(a) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| 1.0 / (1.0 + (-av[k]).exp()));
            }
            Op::Gelu(a) => {
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, true, |k| hiergat_tensor::gelu_scalar(av[k]));
            }
            Op::LayerNorm { x, gamma, beta, eps } => {
                let eps = *eps;
                {
                    let xs = value_slice_in(arena, plan, tape, store, *x);
                    row_moments_into(xs, &mut scratch.b[..2 * yr], yr, yc);
                }
                let sb = &scratch.b;
                let (out, rd) = arena.view_mut(w).split();
                let xs = value_slice(rd, plan, tape, store, *x);
                let gs = value_slice(rd, plan, tape, store, *gamma);
                let bs = value_slice(rd, plan, tape, store, *beta);
                apply(out, true, |k| {
                    let r = k / yc;
                    let j = k % yc;
                    let m = sb[2 * r];
                    let inv = 1.0 / (sb[2 * r + 1] + eps).sqrt();
                    (xs[k] - m) * inv * gs[j] + bs[j]
                });
            }
            Op::ConcatCols(parts) => {
                let (out, rd) = arena.view_mut(w).split();
                let mut off = 0;
                for &p in parts {
                    let (_, pc) = shape_of(tape, p);
                    let pv = value_slice(rd, plan, tape, store, p);
                    for r in 0..yr {
                        out[r * yc + off..r * yc + off + pc]
                            .copy_from_slice(&pv[r * pc..(r + 1) * pc]);
                    }
                    off += pc;
                }
            }
            Op::ConcatRows(parts) => {
                let (out, rd) = arena.view_mut(w).split();
                let mut off = 0;
                for &p in parts {
                    let (pr, pc) = shape_of(tape, p);
                    let pv = value_slice(rd, plan, tape, store, p);
                    out[off..off + pr * pc].copy_from_slice(pv);
                    off += pr * pc;
                }
            }
            Op::SliceCols { x, start, len } => {
                let (start, len) = (*start, *len);
                let (_, ac) = shape_of(tape, *x);
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *x);
                for r in 0..yr {
                    out[r * len..(r + 1) * len]
                        .copy_from_slice(&av[r * ac + start..r * ac + start + len]);
                }
            }
            Op::SliceRows { x, start, .. } => {
                let start = *start;
                let (_, ac) = shape_of(tape, *x);
                let (out, rd) = arena.view_mut(w).split();
                let av = value_slice(rd, plan, tape, store, *x);
                out.copy_from_slice(&av[start * ac..start * ac + yr * ac]);
            }
            Op::GatherRows { table, indices } => {
                let (_, tc) = shape_of(tape, *table);
                let (out, rd) = arena.view_mut(w).split();
                let tv = value_slice(rd, plan, tape, store, *table);
                for (r, &idx) in indices.iter().enumerate() {
                    out[r * tc..(r + 1) * tc].copy_from_slice(&tv[idx * tc..(idx + 1) * tc]);
                }
            }
            Op::Dropout { x, mask } => {
                let ms = mask.as_slice();
                let (out, rd) = arena.view_mut(w).split();
                let xs = value_slice(rd, plan, tape, store, *x);
                apply(out, true, |k| xs[k] * ms[k]);
            }
            Op::CrossEntropyLogits { logits, targets } => {
                let (lr, lc) = shape_of(tape, *logits);
                assert_eq!(lr, targets.len(), "cross_entropy: target count mismatch");
                {
                    let lv = value_slice_in(arena, plan, tape, store, *logits);
                    scratch.a[..lr * lc].copy_from_slice(lv);
                }
                log_softmax_rows_inplace(&mut scratch.a[..lr * lc], lr, lc);
                let mut loss = 0.0;
                for (r, &tc) in targets.iter().enumerate() {
                    assert!(tc < lc, "cross_entropy: class {tc} out of range");
                    loss -= scratch.a[r * lc + tc];
                }
                loss /= targets.len() as f32;
                arena.write(w)[0] = loss;
            }
            Op::WeightedCrossEntropyLogits { logits, targets, weights } => {
                let (lr, lc) = shape_of(tape, *logits);
                assert_eq!(lr, targets.len(), "wce: target count mismatch");
                assert_eq!(targets.len(), weights.len(), "wce: weight count mismatch");
                let w_sum: f32 = weights.iter().sum();
                assert!(w_sum > 0.0, "wce: weights must be positive");
                {
                    let lv = value_slice_in(arena, plan, tape, store, *logits);
                    scratch.a[..lr * lc].copy_from_slice(lv);
                }
                log_softmax_rows_inplace(&mut scratch.a[..lr * lc], lr, lc);
                let mut loss = 0.0;
                for (r, (&tc, &wt)) in targets.iter().zip(weights).enumerate() {
                    assert!(tc < lc, "wce: class {tc} out of range");
                    loss -= wt * scratch.a[r * lc + tc];
                }
                loss /= w_sum;
                arena.write(w)[0] = loss;
            }
            Op::BceWithLogits { logits, targets } => {
                let (lr, _) = shape_of(tape, *logits);
                assert_eq!(lr, targets.len(), "bce: target count mismatch");
                let mut loss = 0.0;
                {
                    let lv = value_slice_in(arena, plan, tape, store, *logits);
                    for (r, &y) in targets.iter().enumerate() {
                        let z = lv[r];
                        loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
                    }
                }
                loss /= targets.len() as f32;
                arena.write(w)[0] = loss;
            }
            Op::MseLoss { pred, target } => {
                let mut loss = 0.0;
                {
                    let pv = value_slice_in(arena, plan, tape, store, *pred);
                    let tv = target.as_slice();
                    for (p, t) in pv.iter().zip(tv) {
                        let d = p - t;
                        loss += d * d;
                    }
                    loss /= pv.len() as f32;
                }
                arena.write(w)[0] = loss;
            }
        }
        #[cfg(debug_assertions)]
        if arena.read(w).iter().any(|v| !v.is_finite()) {
            panic!("arena op #{i} ({}) produced non-finite values", op.name());
        }
    }
}

/// Heap-path `accum` move/add semantics: `true` means the destination slot
/// is fresh (assign), `false` means accumulate. Flips the flag to written.
fn take_fresh(gw: &mut [bool], v: Var) -> bool {
    let fresh = !gw[v.index()];
    gw[v.index()] = true;
    fresh
}

/// Assign-or-add a scratch-staged delta into a planned span. Staging through
/// scratch (zero-fill + sparse writes, then a *full-buffer* accumulate)
/// reproduces the heap path's `zeros + add_assign` exactly — including the
/// `-0.0 + 0.0 = 0.0` normalization the heap's explicit zeros perform.
fn accum_slice(arena: &mut Arena, span: Span, fresh: bool, src: &[f32]) {
    apply(arena.write(span), fresh, |k| src[k]);
}

/// Replays `Tape::backward` over the planned arena: reverse sweep from the
/// loss, adjoints accumulated span-to-span in the heap path's order, and
/// parameter gradients flushed into `store` at each `Param` node's backward
/// time (identical arithmetic to `ParamStore::accumulate_grad`).
#[allow(clippy::needless_range_loop, clippy::too_many_lines)]
fn run_backward(
    plan: &ExecutionPlan,
    tape: &Tape,
    store: &mut ParamStore,
    arena: &mut Arena,
    scratch: &mut Scratch,
    gw: &mut [bool],
) {
    let l = plan.loss.index();
    gw.fill(false);
    arena.write(plan.grad_span[l])[0] = 1.0;
    gw[l] = true;
    for i in (0..=l).rev() {
        if !plan.reachable[i] || !gw[i] {
            continue;
        }
        let gsp = plan.grad_span[i];
        let op = tape.op_at(i);
        #[cfg(debug_assertions)]
        if arena.read(gsp).iter().any(|v| !v.is_finite()) {
            panic!("backward adjoint of op #{i} ({}) is non-finite", op.name());
        }
        let (yr, yc) = shape_of(tape, Var::from_index(i));
        let gs_of = |v: Var| plan.grad_span[v.index()];
        match op {
            Op::Input => {}
            Op::Param(pid) => {
                let g = arena.read(gsp);
                store.accumulate_grad_slice(*pid, g);
            }
            Op::Add(a, b) => {
                for v in [a, b] {
                    let fresh = take_fresh(gw, *v);
                    let (out, rd) = arena.view_mut(gs_of(*v)).split();
                    let gs = rd.read(gsp);
                    apply(out, fresh, |k| gs[k]);
                }
            }
            Op::Sub(a, b) => {
                {
                    let fresh = take_fresh(gw, *a);
                    let (out, rd) = arena.view_mut(gs_of(*a)).split();
                    let gs = rd.read(gsp);
                    apply(out, fresh, |k| gs[k]);
                }
                let fresh = take_fresh(gw, *b);
                let (out, rd) = arena.view_mut(gs_of(*b)).split();
                let gs = rd.read(gsp);
                apply(out, fresh, |k| -gs[k]);
            }
            Op::Mul(a, b) => {
                {
                    let fresh = take_fresh(gw, *a);
                    let (out, rd) = arena.view_mut(gs_of(*a)).split();
                    let gs = rd.read(gsp);
                    let bv = value_slice(rd, plan, tape, store, *b);
                    apply(out, fresh, |k| gs[k] * bv[k]);
                }
                let fresh = take_fresh(gw, *b);
                let (out, rd) = arena.view_mut(gs_of(*b)).split();
                let gs = rd.read(gsp);
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, fresh, |k| gs[k] * av[k]);
            }
            Op::Scale(a, k0) => {
                let k0 = *k0;
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                apply(out, fresh, |k| gs[k] * k0);
            }
            Op::AddScalar(a, _) => {
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                apply(out, fresh, |k| gs[k]);
            }
            Op::Div(a, b) => {
                {
                    let fresh = take_fresh(gw, *a);
                    let (out, rd) = arena.view_mut(gs_of(*a)).split();
                    let gs = rd.read(gsp);
                    let bv = value_slice(rd, plan, tape, store, *b);
                    apply(out, fresh, |k| gs[k] / bv[k]);
                }
                let fresh = take_fresh(gw, *b);
                let (out, rd) = arena.view_mut(gs_of(*b)).split();
                let gs = rd.read(gsp);
                let ys = rd.read(plan.value_span[i]);
                let bv = value_slice(rd, plan, tape, store, *b);
                apply(out, fresh, |k| -((gs[k] * ys[k]) / bv[k]));
            }
            Op::AddRow(a, row) => {
                {
                    let gs = arena.read(gsp);
                    let sc = &mut scratch.c[..yc];
                    sc.fill(0.0);
                    for r in 0..yr {
                        for j in 0..yc {
                            sc[j] += gs[r * yc + j];
                        }
                    }
                }
                {
                    let fresh = take_fresh(gw, *row);
                    accum_slice(arena, gs_of(*row), fresh, &scratch.c[..yc]);
                }
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                apply(out, fresh, |k| gs[k]);
            }
            Op::AddCol(a, col) => {
                {
                    let gs = arena.read(gsp);
                    for r in 0..yr {
                        scratch.b[r] = gs[r * yc..(r + 1) * yc].iter().sum();
                    }
                }
                {
                    let fresh = take_fresh(gw, *col);
                    accum_slice(arena, gs_of(*col), fresh, &scratch.b[..yr]);
                }
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                apply(out, fresh, |k| gs[k]);
            }
            Op::MulCol(a, col) => {
                {
                    let fresh = take_fresh(gw, *a);
                    let (out, rd) = arena.view_mut(gs_of(*a)).split();
                    let gs = rd.read(gsp);
                    let cv = value_slice(rd, plan, tape, store, *col);
                    apply(out, fresh, |k| gs[k] * cv[k / yc]);
                }
                {
                    let gs = arena.read(gsp);
                    let av = value_slice_in(arena, plan, tape, store, *a);
                    for k in 0..yr * yc {
                        scratch.a[k] = gs[k] * av[k];
                    }
                }
                for r in 0..yr {
                    scratch.b[r] = scratch.a[r * yc..(r + 1) * yc].iter().sum();
                }
                let fresh = take_fresh(gw, *col);
                accum_slice(arena, gs_of(*col), fresh, &scratch.b[..yr]);
            }
            Op::Matmul(a, b) => {
                let (ar, ac) = shape_of(tape, *a);
                let (_, bc) = shape_of(tape, *b);
                {
                    let gs = arena.read(gsp);
                    let bv = value_slice_in(arena, plan, tape, store, *b);
                    matmul_nt_into(gs, bv, &mut scratch.a[..ar * ac], ar, bc, ac);
                }
                {
                    let fresh = take_fresh(gw, *a);
                    accum_slice(arena, gs_of(*a), fresh, &scratch.a[..ar * ac]);
                }
                {
                    let gs = arena.read(gsp);
                    let av = value_slice_in(arena, plan, tape, store, *a);
                    matmul_tn_into(av, gs, &mut scratch.a[..ac * bc], ar, ac, bc);
                }
                let fresh = take_fresh(gw, *b);
                accum_slice(arena, gs_of(*b), fresh, &scratch.a[..ac * bc]);
            }
            Op::MatmulNt(a, b) => {
                let (ar, ac) = shape_of(tape, *a);
                let (br, _) = shape_of(tape, *b);
                {
                    let gs = arena.read(gsp);
                    let bv = value_slice_in(arena, plan, tape, store, *b);
                    matmul_into(gs, bv, &mut scratch.a[..ar * ac], ar, br, ac);
                }
                {
                    let fresh = take_fresh(gw, *a);
                    accum_slice(arena, gs_of(*a), fresh, &scratch.a[..ar * ac]);
                }
                {
                    let gs = arena.read(gsp);
                    let av = value_slice_in(arena, plan, tape, store, *a);
                    matmul_tn_into(gs, av, &mut scratch.a[..br * ac], ar, br, ac);
                }
                let fresh = take_fresh(gw, *b);
                accum_slice(arena, gs_of(*b), fresh, &scratch.a[..br * ac]);
            }
            Op::MatmulTn(a, b) => {
                let (ar, ac) = shape_of(tape, *a);
                let (_, bc) = shape_of(tape, *b);
                {
                    let gs = arena.read(gsp);
                    let bv = value_slice_in(arena, plan, tape, store, *b);
                    matmul_nt_into(bv, gs, &mut scratch.a[..ar * ac], ar, bc, ac);
                }
                {
                    let fresh = take_fresh(gw, *a);
                    accum_slice(arena, gs_of(*a), fresh, &scratch.a[..ar * ac]);
                }
                {
                    let gs = arena.read(gsp);
                    let av = value_slice_in(arena, plan, tape, store, *a);
                    matmul_into(av, gs, &mut scratch.a[..ar * bc], ar, ac, bc);
                }
                let fresh = take_fresh(gw, *b);
                accum_slice(arena, gs_of(*b), fresh, &scratch.a[..ar * bc]);
            }
            Op::Transpose(a) => {
                let (_, ac) = shape_of(tape, *a);
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                // `g` is `ac x ar`; its transpose back to `a`'s shape.
                let ar = yc;
                let _ = ar;
                apply(out, fresh, |k| gs[(k % ac) * yc + k / ac]);
            }
            Op::SumAll(a) => {
                let g0 = arena.read(gsp)[0];
                let fresh = take_fresh(gw, *a);
                apply(arena.write(gs_of(*a)), fresh, |_| g0);
            }
            Op::MeanAll(a) => {
                let (ar, ac) = shape_of(tape, *a);
                let g0 = arena.read(gsp)[0];
                let kk = g0 / (ar * ac) as f32;
                let fresh = take_fresh(gw, *a);
                apply(arena.write(gs_of(*a)), fresh, |_| kk);
            }
            Op::SumRows(a) => {
                let (_, ac) = shape_of(tape, *a);
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                apply(out, fresh, |k| 0.0 + gs[k % ac]);
            }
            Op::SumCols(a) => {
                let (_, ac) = shape_of(tape, *a);
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                apply(out, fresh, |k| 0.0 + gs[k / ac]);
            }
            Op::MaxCols(a) => {
                let (ar, ac) = shape_of(tape, *a);
                {
                    let gs = arena.read(gsp);
                    let av = value_slice_in(arena, plan, tape, store, *a);
                    let sa = &mut scratch.a[..ar * ac];
                    sa.fill(0.0);
                    for r in 0..ar {
                        let row = &av[r * ac..(r + 1) * ac];
                        let mut best = 0;
                        for (j, &v) in row.iter().enumerate() {
                            if v > row[best] {
                                best = j;
                            }
                        }
                        sa[r * ac + best] = gs[r];
                    }
                }
                let fresh = take_fresh(gw, *a);
                accum_slice(arena, gs_of(*a), fresh, &scratch.a[..ar * ac]);
            }
            Op::LogSoftmax(a) => {
                {
                    let gs = arena.read(gsp);
                    for r in 0..yr {
                        scratch.b[r] = gs[r * yc..(r + 1) * yc].iter().sum();
                    }
                }
                let sb = &scratch.b;
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let ys = rd.read(plan.value_span[i]);
                apply(out, fresh, |k| gs[k] - ys[k].exp() * sb[k / yc]);
            }
            Op::Exp(a) => {
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let ys = rd.read(plan.value_span[i]);
                apply(out, fresh, |k| gs[k] * ys[k]);
            }
            Op::Ln(a) => {
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, fresh, |k| gs[k] / av[k]);
            }
            Op::Sqrt(a) => {
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let ys = rd.read(plan.value_span[i]);
                apply(out, fresh, |k| (gs[k] / ys[k]) * 0.5);
            }
            Op::Softmax(a) => {
                {
                    let gs = arena.read(gsp);
                    let ys = arena.read(plan.value_span[i]);
                    for r in 0..yr {
                        let mut s = 0.0;
                        for j in 0..yc {
                            s += gs[r * yc + j] * ys[r * yc + j];
                        }
                        scratch.b[r] = s;
                    }
                }
                let sb = &scratch.b;
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let ys = rd.read(plan.value_span[i]);
                apply(out, fresh, |k| ys[k] * (gs[k] - sb[k / yc]));
            }
            Op::Relu(a) => {
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, fresh, |k| if av[k] > 0.0 { gs[k] } else { 0.0 });
            }
            Op::LeakyRelu(a, alpha) => {
                let al = *alpha;
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, fresh, |k| if av[k] > 0.0 { gs[k] } else { al * gs[k] });
            }
            Op::Tanh(a) => {
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let ys = rd.read(plan.value_span[i]);
                apply(out, fresh, |k| gs[k] * (1.0 - ys[k] * ys[k]));
            }
            Op::Sigmoid(a) => {
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let ys = rd.read(plan.value_span[i]);
                apply(out, fresh, |k| gs[k] * ys[k] * (1.0 - ys[k]));
            }
            Op::Gelu(a) => {
                let fresh = take_fresh(gw, *a);
                let (out, rd) = arena.view_mut(gs_of(*a)).split();
                let gs = rd.read(gsp);
                let av = value_slice(rd, plan, tape, store, *a);
                apply(out, fresh, |k| gs[k] * gelu_grad_scalar(av[k]));
            }
            Op::LayerNorm { x, gamma, eps, beta } => {
                let eps = *eps;
                let (xr, xc) = shape_of(tape, *x);
                let c = xc as f32;
                {
                    let xs = value_slice_in(arena, plan, tape, store, *x);
                    row_moments_into(xs, &mut scratch.b[..2 * xr], xr, xc);
                }
                {
                    let gs = arena.read(gsp);
                    let xs = value_slice_in(arena, plan, tape, store, *x);
                    let gv = value_slice_in(arena, plan, tape, store, *gamma);
                    let sb = &scratch.b;
                    let sa = &mut scratch.a[..xr * xc];
                    let (dgamma, rest) = scratch.c.split_at_mut(xc);
                    let (dbeta, rest) = rest.split_at_mut(xc);
                    let (xhat, rest) = rest.split_at_mut(xc);
                    let dxhat = &mut rest[..xc];
                    dgamma.fill(0.0);
                    dbeta.fill(0.0);
                    for r in 0..xr {
                        let m = sb[2 * r];
                        let inv = 1.0 / (sb[2 * r + 1] + eps).sqrt();
                        let mut sum_dxhat = 0.0;
                        let mut sum_dxhat_xhat = 0.0;
                        for j in 0..xc {
                            xhat[j] = (xs[r * xc + j] - m) * inv;
                            dxhat[j] = gs[r * xc + j] * gv[j];
                            sum_dxhat += dxhat[j];
                            sum_dxhat_xhat += dxhat[j] * xhat[j];
                            dgamma[j] += gs[r * xc + j] * xhat[j];
                            dbeta[j] += gs[r * xc + j];
                        }
                        for j in 0..xc {
                            sa[r * xc + j] =
                                inv * (dxhat[j] - sum_dxhat / c - xhat[j] * sum_dxhat_xhat / c);
                        }
                    }
                }
                {
                    let fresh = take_fresh(gw, *x);
                    accum_slice(arena, gs_of(*x), fresh, &scratch.a[..xr * xc]);
                }
                {
                    let fresh = take_fresh(gw, *gamma);
                    accum_slice(arena, gs_of(*gamma), fresh, &scratch.c[..xc]);
                }
                let fresh = take_fresh(gw, *beta);
                accum_slice(arena, gs_of(*beta), fresh, &scratch.c[xc..2 * xc]);
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let (_, pc) = shape_of(tape, p);
                    let fresh = take_fresh(gw, p);
                    let (out, rd) = arena.view_mut(gs_of(p)).split();
                    let gs = rd.read(gsp);
                    apply(out, fresh, |k| gs[(k / pc) * yc + off + (k % pc)]);
                    off += pc;
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let (pr, _) = shape_of(tape, p);
                    let fresh = take_fresh(gw, p);
                    let (out, rd) = arena.view_mut(gs_of(p)).split();
                    let gs = rd.read(gsp);
                    apply(out, fresh, |k| gs[off * yc + k]);
                    off += pr;
                }
            }
            Op::SliceCols { x, start, .. } => {
                let start = *start;
                let (xr, xc) = shape_of(tape, *x);
                {
                    let gs = arena.read(gsp);
                    let sa = &mut scratch.a[..xr * xc];
                    sa.fill(0.0);
                    for row in 0..xr {
                        sa[row * xc + start..row * xc + start + yc]
                            .copy_from_slice(&gs[row * yc..(row + 1) * yc]);
                    }
                }
                let fresh = take_fresh(gw, *x);
                accum_slice(arena, gs_of(*x), fresh, &scratch.a[..xr * xc]);
            }
            Op::SliceRows { x, start, .. } => {
                let start = *start;
                let (xr, xc) = shape_of(tape, *x);
                {
                    let gs = arena.read(gsp);
                    let sa = &mut scratch.a[..xr * xc];
                    sa.fill(0.0);
                    sa[start * xc..start * xc + yr * xc].copy_from_slice(&gs[..yr * xc]);
                }
                let fresh = take_fresh(gw, *x);
                accum_slice(arena, gs_of(*x), fresh, &scratch.a[..xr * xc]);
            }
            Op::GatherRows { table, indices } => {
                let (tr, tc) = shape_of(tape, *table);
                {
                    let gs = arena.read(gsp);
                    let sa = &mut scratch.a[..tr * tc];
                    sa.fill(0.0);
                    for (r, &idx) in indices.iter().enumerate() {
                        for j in 0..tc {
                            sa[idx * tc + j] += gs[r * tc + j];
                        }
                    }
                }
                let fresh = take_fresh(gw, *table);
                accum_slice(arena, gs_of(*table), fresh, &scratch.a[..tr * tc]);
            }
            Op::Dropout { x, mask } => {
                let ms = mask.as_slice();
                let fresh = take_fresh(gw, *x);
                let (out, rd) = arena.view_mut(gs_of(*x)).split();
                let gs = rd.read(gsp);
                apply(out, fresh, |k| gs[k] * ms[k]);
            }
            Op::CrossEntropyLogits { logits, targets } => {
                let (lr, lc) = shape_of(tape, *logits);
                let g0 = arena.read(gsp)[0];
                {
                    let lv = value_slice_in(arena, plan, tape, store, *logits);
                    scratch.a[..lr * lc].copy_from_slice(lv);
                }
                softmax_rows_inplace(&mut scratch.a[..lr * lc], lr, lc);
                let kk = g0 / targets.len() as f32;
                for (r, &t) in targets.iter().enumerate() {
                    scratch.a[r * lc + t] -= 1.0;
                }
                let sa = &scratch.a;
                let fresh = take_fresh(gw, *logits);
                apply(arena.write(gs_of(*logits)), fresh, |k| sa[k] * kk);
            }
            Op::WeightedCrossEntropyLogits { logits, targets, weights } => {
                let (lr, lc) = shape_of(tape, *logits);
                let g0 = arena.read(gsp)[0];
                {
                    let lv = value_slice_in(arena, plan, tape, store, *logits);
                    scratch.a[..lr * lc].copy_from_slice(lv);
                }
                softmax_rows_inplace(&mut scratch.a[..lr * lc], lr, lc);
                let w_sum: f32 = weights.iter().sum();
                let kk = g0 / w_sum;
                for (r, (&t, &wt)) in targets.iter().zip(weights).enumerate() {
                    scratch.a[r * lc + t] -= 1.0;
                    for v in &mut scratch.a[r * lc..(r + 1) * lc] {
                        *v *= kk * wt;
                    }
                }
                let fresh = take_fresh(gw, *logits);
                accum_slice(arena, gs_of(*logits), fresh, &scratch.a[..lr * lc]);
            }
            Op::BceWithLogits { logits, targets } => {
                let g0 = arena.read(gsp)[0];
                let kk = g0 / targets.len() as f32;
                let tg = targets.as_slice();
                let fresh = take_fresh(gw, *logits);
                let (out, rd) = arena.view_mut(gs_of(*logits)).split();
                let lv = value_slice(rd, plan, tape, store, *logits);
                apply(out, fresh, |k| {
                    let z = lv[k];
                    let s = 1.0 / (1.0 + (-z).exp());
                    (s - tg[k]) * kk
                });
            }
            Op::MseLoss { pred, target } => {
                let g0 = arena.read(gsp)[0];
                let tv = target.as_slice();
                let kk = 2.0 * g0 / tv.len() as f32;
                let fresh = take_fresh(gw, *pred);
                let (out, rd) = arena.view_mut(gs_of(*pred)).split();
                let pv = value_slice(rd, plan, tape, store, *pred);
                apply(out, fresh, |k| (pv[k] - tv[k]) * kk);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamId;
    use hiergat_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_store(seed: u64) -> ParamStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamStore::new();
        ps.add("emb", Tensor::rand_normal(5, 4, 0.0, 0.5, &mut rng));
        ps.add("w1", Tensor::rand_normal(4, 8, 0.0, 0.5, &mut rng));
        ps.add("b1", Tensor::rand_normal(1, 8, 0.0, 0.1, &mut rng));
        ps.add("gamma", Tensor::ones(1, 8));
        ps.add("beta", Tensor::zeros(1, 8));
        ps.add("w2", Tensor::rand_normal(10, 3, 0.0, 0.5, &mut rng));
        ps
    }

    fn pid(ps: &ParamStore, name: &str) -> ParamId {
        ps.id_of(name).expect("test parameter registered")
    }

    /// A graph exercising attention-style ops: gather, matmul, broadcast,
    /// layer-norm, dropout, softmax attention, concat/slice, cross-entropy.
    fn record_attention_graph(t: &mut Tape, ps: &ParamStore, rng: &mut StdRng) -> Var {
        let emb = t.param(ps, pid(ps, "emb"));
        let x = t.gather_rows(emb, &[0, 2, 1, 4, 3, 2]);
        let w1 = t.param(ps, pid(ps, "w1"));
        let h = t.matmul(x, w1);
        let b1 = t.param(ps, pid(ps, "b1"));
        let h = t.add_row(h, b1);
        let gamma = t.param(ps, pid(ps, "gamma"));
        let beta = t.param(ps, pid(ps, "beta"));
        let h = t.layer_norm(h, gamma, beta, 1e-5);
        let h = t.leaky_relu(h, 0.2);
        let h = t.dropout(h, 0.25, true, rng);
        let att = t.matmul_nt(h, h);
        let att = t.softmax(att);
        let ctx = t.matmul(att, h);
        let cat = t.concat_cols(&[h, ctx]);
        let s = t.slice_cols(cat, 4, 10);
        let w2 = t.param(ps, pid(ps, "w2"));
        let logits = t.matmul(s, w2);
        t.cross_entropy_logits(logits, &[0, 1, 2, 0, 1, 2])
    }

    /// A graph covering the remaining op arms: scalar reductions, pointwise
    /// nonlinearities, transpose/slice_rows/concat_rows, max/mul_col, and
    /// the other three losses.
    fn record_mixed_graph(t: &mut Tape, _ps: &ParamStore, w: Tensor, a: Tensor) -> Var {
        let a = t.input(a);
        let w = t.input(w);
        let h = t.matmul(a, w); // 3x4
        let s1 = t.sigmoid(h);
        let e0 = t.scale(h, 0.1);
        let e = t.exp(e0);
        let l0 = t.add_scalar(e, 1.0);
        let _l = t.ln(l0);
        let hh = t.mul(h, h);
        let q0 = t.add_scalar(hh, 1e-3);
        let q = t.sqrt(q0);
        let d = t.div(s1, q); // 3x4
        let mx = t.max_cols(d); // 3x1
        let mc = t.mul_col(d, mx); // 3x4
        let sr = t.slice_rows(mc, 1, 2); // 2x4
        let tr = t.transpose(sr); // 4x2
        let g = t.gelu(tr);
        let th = t.tanh(g); // 4x2
        let cr = t.concat_rows(&[th, th]); // 8x2
        let sc = t.sum_cols(cr); // 8x1
        let rl = t.relu(cr);
        let sm = t.sum_rows(rl); // 1x2
        let lsm = t.log_softmax(sm);
        let neg = t.sub(sm, lsm);
        let ac0 = t.add_col(cr, sc);
        let m1 = t.mean_all(ac0);
        let s2 = t.sum_all(neg);
        let wce_logits = t.matmul_nt(d, d); // 3x3
        let wce = t.weighted_cross_entropy_logits(wce_logits, &[0, 2, 1], &[1.0, 2.0, 0.5]);
        let bce = t.bce_with_logits(sc, &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let mse = t.mse_loss(th, &Tensor::full(4, 2, 0.25));
        let t1 = t.add(m1, s2);
        let t2 = t.add(wce, bce);
        let t3 = t.add(t1, t2);
        t.add(t3, mse)
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {k}: {x} vs {y}");
        }
    }

    fn assert_stores_grad_bits_eq(heap: &ParamStore, arena: &ParamStore) {
        for (id, name, _) in heap.iter() {
            assert_bits_eq(
                heap.grad(id).as_slice(),
                arena.grad(id).as_slice(),
                &format!("grad of {name}"),
            );
        }
    }

    #[test]
    fn heap_vs_arena_attention_graph_bitwise() {
        let mut ps_heap = build_store(11);
        let mut ps_arena = build_store(11);
        let mut exec = ArenaExecutor::new();
        let mut rng_heap = StdRng::seed_from_u64(99);
        let mut rng_arena = StdRng::seed_from_u64(99);
        for step in 0..3 {
            let mut th = Tape::new();
            let loss_h = record_attention_graph(&mut th, &ps_heap, &mut rng_heap);
            let heap_loss = th.value(loss_h).item();
            th.backward(loss_h, &mut ps_heap);

            let mut ta = Tape::deferred();
            let loss_a = record_attention_graph(&mut ta, &ps_arena, &mut rng_arena);
            let arena_loss = exec.step(&ta, loss_a, &mut ps_arena);

            assert_eq!(
                heap_loss.to_bits(),
                arena_loss.to_bits(),
                "step {step}: loss {heap_loss} vs {arena_loss}"
            );
            assert_stores_grad_bits_eq(&ps_heap, &ps_arena);
        }
        assert_eq!(exec.plans_cached(), 1, "same-shape steps reuse one plan");
    }

    #[test]
    fn heap_vs_arena_mixed_ops_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Tensor::rand_normal(5, 4, 0.0, 0.6, &mut rng);
        let a = Tensor::rand_normal(3, 5, 0.0, 0.6, &mut rng);
        let mut ps_heap = ParamStore::new();
        let mut ps_arena = ParamStore::new();
        let mut th = Tape::new();
        let loss_h = record_mixed_graph(&mut th, &ps_heap, w.clone(), a.clone());
        let heap_loss = th.value(loss_h).item();
        th.backward(loss_h, &mut ps_heap);

        let mut exec = ArenaExecutor::new();
        let mut ta = Tape::deferred();
        let loss_a = record_mixed_graph(&mut ta, &ps_arena, w, a);
        let arena_loss = exec.step(&ta, loss_a, &mut ps_arena);
        assert_eq!(heap_loss.to_bits(), arena_loss.to_bits(), "{heap_loss} vs {arena_loss}");
    }

    #[test]
    fn forward_only_matches_eager_value() {
        let ps = build_store(3);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut th = Tape::new();
        let loss_h = record_attention_graph(&mut th, &ps, &mut rng_a);
        let mut ta = Tape::deferred();
        let loss_a = record_attention_graph(&mut ta, &ps, &mut rng_b);
        let mut exec = ArenaExecutor::new();
        let fwd = exec.forward(&ta, loss_a, &ps);
        assert_eq!(th.value(loss_h).item().to_bits(), fwd.to_bits());
    }

    #[test]
    fn overlapping_intervals_get_disjoint_spans() {
        let ps = build_store(17);
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = Tape::deferred();
        let loss = record_attention_graph(&mut t, &ps, &mut rng);
        let plan = ExecutionPlan::build(&t, loss);
        let slots = plan.slots();
        for (x, sa) in slots.iter().enumerate() {
            for sb in &slots[x + 1..] {
                let time_overlap = sa.start_time <= sb.end_time && sb.start_time <= sa.end_time;
                if time_overlap {
                    assert!(
                        !sa.span.overlaps(sb.span),
                        "live-interval overlap shares storage: {sa:?} vs {sb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn report_is_bounded_and_smaller_than_naive() {
        let ps = build_store(23);
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = Tape::deferred();
        let loss = record_attention_graph(&mut t, &ps, &mut rng);
        let plan = ExecutionPlan::build(&t, loss);
        let r = plan.report();
        assert!(r.lower_bound_bytes > 0);
        assert!(r.arena_bytes >= r.lower_bound_bytes, "{r}");
        assert!(r.arena_bytes < r.naive_bytes, "liveness reuse must beat no-reuse: {r}");
        assert_eq!(r.exceeds_lower_bound, r.arena_bytes > r.lower_bound_bytes);
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn plan_cache_keyed_by_shape_signature() {
        let ps = build_store(29);
        let mut exec = ArenaExecutor::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut t1 = Tape::deferred();
        let l1 = record_attention_graph(&mut t1, &ps, &mut rng);
        exec.plan_report(&t1, l1);
        let mut t2 = Tape::deferred();
        let l2 = record_attention_graph(&mut t2, &ps, &mut rng);
        exec.plan_report(&t2, l2);
        assert_eq!(exec.plans_cached(), 1, "identical shapes share a plan");
        // A different gather width changes shapes throughout: new plan.
        let mut t3 = Tape::deferred();
        let emb = t3.param(&ps, pid(&ps, "emb"));
        let x = t3.gather_rows(emb, &[0, 1]);
        let s = t3.sum_all(x);
        exec.plan_report(&t3, s);
        assert_eq!(exec.plans_cached(), 2);
    }

    #[test]
    #[should_panic(expected = "shape-only tapes clamp shapes")]
    fn planning_a_shape_only_tape_panics() {
        let mut t = Tape::shape_only();
        let a = t.input(Tensor::zeros(2, 2));
        let s = t.sum_all(a);
        ExecutionPlan::build(&t, s);
    }

    /// The attention graph in eval mode (dropout elided), ending at the
    /// softmax probabilities instead of a loss — an inference output.
    fn record_attention_eval_graph(t: &mut Tape, ps: &ParamStore) -> Var {
        let mut rng = StdRng::seed_from_u64(0); // never consumed: eval mode
        let emb = t.param(ps, pid(ps, "emb"));
        let x = t.gather_rows(emb, &[0, 2, 1, 4, 3, 2]);
        let w1 = t.param(ps, pid(ps, "w1"));
        let h = t.matmul(x, w1);
        let b1 = t.param(ps, pid(ps, "b1"));
        let h = t.add_row(h, b1);
        let gamma = t.param(ps, pid(ps, "gamma"));
        let beta = t.param(ps, pid(ps, "beta"));
        let h = t.layer_norm(h, gamma, beta, 1e-5);
        let h = t.leaky_relu(h, 0.2);
        let h = t.dropout(h, 0.25, false, &mut rng);
        let att = t.matmul_nt(h, h);
        let att = t.softmax(att);
        let ctx = t.matmul(att, h);
        let cat = t.concat_cols(&[h, ctx]);
        let s = t.slice_cols(cat, 4, 10);
        let w2 = t.param(ps, pid(ps, "w2"));
        let logits = t.matmul(s, w2);
        t.softmax(logits)
    }

    #[test]
    fn inference_matches_eager_eval_bitwise() {
        let ps = build_store(31);
        let mut th = Tape::new();
        let probs_h = record_attention_eval_graph(&mut th, &ps);

        let mut exec = ArenaExecutor::new();
        for round in 0..2 {
            let mut ti = Tape::inference();
            let probs_i = record_attention_eval_graph(&mut ti, &ps);
            let out = exec.infer(&ti, probs_i, &ps);
            assert_bits_eq(
                th.value(probs_h).as_slice(),
                out.as_slice(),
                &format!("round {round} inference probs"),
            );
        }
        assert_eq!(exec.plans_cached(), 1, "same-shape inference reuses one plan");
    }

    #[test]
    fn inference_plan_needs_less_arena_than_training_plan() {
        let ps = build_store(37);
        let mut rng = StdRng::seed_from_u64(9);
        let mut tt = Tape::deferred();
        let loss = record_attention_graph(&mut tt, &ps, &mut rng);
        let training = ExecutionPlan::build(&tt, loss).report().clone();

        let mut ti = Tape::inference();
        let probs = record_attention_eval_graph(&mut ti, &ps);
        let plan = ExecutionPlan::build_inference(&ti, probs);
        assert!(plan.is_inference());
        let inference = plan.report().clone();
        assert!(
            inference.arena_bytes < training.arena_bytes,
            "forward-only liveness must shrink the arena: inference {inference} vs training {training}"
        );
        // No gradient slots on an inference plan.
        assert!(plan.slots().iter().all(|s| !s.grad));
    }

    #[test]
    fn inference_slots_respect_aliasing_invariant() {
        let ps = build_store(41);
        let mut t = Tape::inference();
        let probs = record_attention_eval_graph(&mut t, &ps);
        let plan = ExecutionPlan::build_inference(&t, probs);
        let slots = plan.slots();
        for (x, sa) in slots.iter().enumerate() {
            for sb in &slots[x + 1..] {
                let time_overlap = sa.start_time <= sb.end_time && sb.start_time <= sa.end_time;
                if time_overlap {
                    assert!(
                        !sa.span.overlaps(sb.span),
                        "live-interval overlap shares storage: {sa:?} vs {sb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn training_and_inference_plans_cached_separately() {
        let ps = build_store(43);
        let mut exec = ArenaExecutor::new();
        let mut rng = StdRng::seed_from_u64(6);
        let mut t = Tape::deferred();
        let loss = record_attention_graph(&mut t, &ps, &mut rng);
        let training = exec.plan_report(&t, loss);
        // Same tape, same root: the forward-only plan is a distinct cache
        // entry with a strictly smaller footprint.
        let inference = exec.infer_report(&t, loss);
        assert_eq!(exec.plans_cached(), 2, "mode tag must split the cache");
        assert!(inference.arena_bytes < training.arena_bytes);
    }
}
