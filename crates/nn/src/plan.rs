//! Ahead-of-time arena memory planning and allocation-free inference replay.
//!
//! [`ExecutionPlan::build_inference`] takes a tape recorded with
//! [`Tape::inference`] (true shapes, no computed values) and an output node,
//! runs a liveness analysis over the forward timeline, and assigns every
//! intermediate value an offset inside one contiguous [`Arena`]. Deferred
//! recording collects shape violations instead of panicking, so the planner
//! and the executor refuse a tape that recorded one.
//! [`ArenaExecutor`] then replays the plan per call: each op's value is
//! written into its planned span by the same forward kernel the eager tape
//! records with (`forward::eval`, one kernel per op), so a replay is
//! bitwise identical to recording the same graph eagerly. The golden-bits
//! suite (`tests/golden_bits.rs`) pins that kernel's arithmetic.
//!
//! Training does not run here: it records on an eager tape and
//! differentiates with `Tape::backward`, which is also the reference every
//! gradient check compares against.
//!
//! # Liveness model
//! Op `i` executes at time `i`. A node's value lives from its definition
//! until its last forward consumer, after which its span is recycled. Leaf
//! (input/parameter) values are read from the tape/store and never occupy
//! the arena.
//!
//! # Aliasing invariant
//! Two requests whose live intervals overlap are never assigned overlapping
//! spans; the greedy best-fit allocator only recycles a block after its
//! interval ends. The executor routes every read through
//! [`hiergat_tensor::SpanReader`], which panics on a read that overlaps the
//! span being written, so a planner bug is a loud failure, not corruption.

use crate::analyze;
use crate::forward;
use crate::params::ParamStore;
use crate::tape::{Op, Tape, Var};
use hiergat_tensor::{Arena, Span, Tensor};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Appends the shape/topology fingerprint of `tape[0..=output]` to `sig`.
/// Two tapes with equal signatures produce identical plans (payloads like
/// scale factors and slice starts are read from the *current* tape at
/// execution time and never baked into the plan). The buffer is the
/// caller's, so per-call code (the executor's plan lookup, the optimiser's
/// decisions cache) fingerprints a tape without allocating.
pub(crate) fn signature_into(tape: &Tape, output: Var, sig: &mut Vec<u64>) {
    // The optimiser bit keeps an optimised graph's plan distinct from the
    // as-recorded graph's even when their shapes coincide.
    sig.extend([output.index() as u64, u64::from(tape.is_optimized())]);
    for i in 0..=output.index() {
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

/// Allocation-free check that `tape[0..=output]`'s fingerprint equals a
/// previously captured [`signature_into`] buffer. The optimiser's replay
/// cache confirms structural identity with this walk — mirroring
/// `signature_into` word for word, aborting on the first mismatch —
/// instead of materialising a fresh signature vector per call.
pub(crate) fn sig_matches(tape: &Tape, output: Var, sig: &[u64]) -> bool {
    if sig.len() < 2 || sig[0] != output.index() as u64 || sig[1] != u64::from(tape.is_optimized())
    {
        return false;
    }
    let mut pos = 2;
    for i in 0..=output.index() {
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

/// One planned buffer: a node's value, its live interval on the forward
/// timeline, and the arena span it was assigned. Exposed so tests (and the
/// planner proptest) can verify the aliasing invariant directly.
#[derive(Debug, Clone, Copy)]
pub struct PlannedSlot {
    /// Tape node index.
    pub node: usize,
    /// Timeline step at which the value is written.
    pub start_time: usize,
    /// Last timeline step at which the value is read (inclusive).
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
    /// Planned value buffers.
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

/// An ahead-of-time, forward-only memory plan for one `(graph shape,
/// output)` pair.
pub struct ExecutionPlan {
    output: Var,
    reachable: Vec<bool>,
    value_span: Vec<Span>,
    arena_elems: usize,
    report: PlanReport,
    signature: Vec<u64>,
    slots: Vec<PlannedSlot>,
}

impl ExecutionPlan {
    /// Plans arena storage for a forward-only evaluation of `tape` up to
    /// `output` (any shape — inference outputs are logit/probability
    /// matrices). A node's value span is recycled as soon as its last
    /// consumer has run.
    ///
    /// # Panics
    /// Panics if `output` is not on the tape, if the tape was not recorded
    /// with [`Tape::inference`] (eager tapes already hold their values and
    /// train through `Tape::backward`), or if it recorded a shape
    /// violation (with the first violation's message).
    pub fn build_inference(tape: &Tape, output: Var) -> ExecutionPlan {
        assert!(output.index() < tape.len(), "plan: output is not a node of this tape");
        assert!(
            tape.is_inference(),
            "plan: only inference tapes can be planned; record with Tape::inference"
        );
        tape.assert_no_violations("plan");
        let n = output.index() + 1;
        let reachable = tape.ancestors(output);

        let is_leaf = |i: usize| matches!(tape.op_at(i), Op::Input | Op::Param(_));

        // Liveness (see module docs): a value dies at its last consumer.
        let mut value_last: Vec<usize> = (0..n).collect();
        for j in (0..n).filter(|&j| reachable[j]) {
            for v in tape.op_at(j).inputs() {
                let vi = v.index();
                if !is_leaf(vi) {
                    value_last[vi] = value_last[vi].max(j);
                }
            }
        }

        // Storage requests: one value per non-leaf reachable node.
        let mut requests: Vec<Request> = Vec::new();
        let mut nodes = 0;
        for i in 0..n {
            if !reachable[i] {
                continue;
            }
            nodes += 1;
            let (rows, cols) = tape.value(Var::from_index(i)).shape();
            let elems = rows * cols;
            if elems == 0 || is_leaf(i) {
                continue;
            }
            requests.push(Request { node: i, start: i, end: value_last[i], elems });
        }

        // Liveness-theoretic lower bound: peak of simultaneously-live elems.
        let mut delta = vec![0i64; n + 1];
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

        // Greedy best-fit over the requests, already in start order.
        let mut value_span = vec![Span::EMPTY; tape.len()];
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
            value_span[r.node] = span;
            slots.push(PlannedSlot { node: r.node, start_time: r.start, end_time: r.end, span });
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
        let mut signature = Vec::new();
        signature_into(tape, output, &mut signature);
        ExecutionPlan { output, reachable, value_span, arena_elems, report, signature, slots }
    }

    /// The node this plan executes to.
    pub fn output(&self) -> Var {
        self.output
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

/// Executes inference tapes through cached [`ExecutionPlan`]s with zero
/// heap allocations in steady state.
///
/// The arena, the layer-norm moments buffer, the signature buffer and the
/// plan cache persist across calls: once a graph shape has been planned,
/// replaying a same-shape tape allocates nothing
/// (`tests/arena_zero_alloc.rs` pins this with a counting allocator).
#[derive(Default)]
pub struct ArenaExecutor {
    arena: Arena,
    /// Interleaved per-row (mean, variance) scratch for layer norm, grown
    /// by the kernel to fit the layer norm with the most rows replayed.
    moments: Vec<f32>,
    /// Scratch for the plan-cache key of the tape being replayed.
    sig: Vec<u64>,
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

    /// Looks up (or builds) the plan for this tape's shape signature,
    /// fingerprinting into the reused `sig` buffer. Associated function
    /// over the `plans` and `sig` fields so callers can borrow the arena and
    /// moments fields independently.
    fn cached_plan<'p>(
        plans: &'p mut HashMap<u64, ExecutionPlan>,
        sig: &mut Vec<u64>,
        tape: &Tape,
        output: Var,
    ) -> &'p ExecutionPlan {
        sig.clear();
        signature_into(tape, output, sig);
        let key = hash_signature(sig);
        if plans.len() > 512 && !plans.contains_key(&key) {
            // Runaway shape diversity (e.g. per-pair graph sizes): cap the
            // cache rather than grow without bound.
            plans.clear();
        }
        let build = || ExecutionPlan::build_inference(tape, output);
        let entry = plans.entry(key).or_insert_with(build);
        if entry.signature != *sig {
            // Hash collision between distinct shapes: rebuild for the
            // current tape (correctness first; collisions are ~never).
            *entry = build();
        }
        entry
    }

    /// Plans (or reuses a cached **inference** plan for) `tape` up to
    /// `output` and returns its report.
    pub fn infer_report(&mut self, tape: &Tape, output: Var) -> PlanReport {
        Self::cached_plan(&mut self.plans, &mut self.sig, tape, output).report.clone()
    }

    /// Executes an inference tape through its forward-only plan and copies
    /// the values of `output` (row-major) into `out`.
    ///
    /// Zero allocations in steady state: once the graph shape is planned and
    /// the arena and moments buffer are grown, replaying a same-shape tape
    /// touches only pre-owned buffers. Bitwise identical to recording the
    /// same graph eagerly: both run each op through the one shared forward
    /// kernel.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the element count of `output`, or
    /// if the tape recorded a shape violation — checked on plan-cache hits
    /// too, since a violation need not change the tape's shape signature
    /// (an out-of-range `gather_rows` index keeps its output shape).
    pub fn infer_into(&mut self, tape: &Tape, output: Var, store: &ParamStore, out: &mut [f32]) {
        tape.assert_no_violations("infer_into");
        let plan = Self::cached_plan(&mut self.plans, &mut self.sig, tape, output);
        self.arena.ensure_len(plan.arena_elems);
        run_forward(plan, tape, store, &mut self.arena, &mut self.moments);
        let vals = value_slice(|s| self.arena.read(s), plan, tape, store, output);
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
}

/// Value buffer of `v` during execution: leaves live on the tape / in the
/// store, everything else in its planned span, fetched with `read`.
fn value_slice<'s>(
    read: impl FnOnce(Span) -> &'s [f32],
    plan: &ExecutionPlan,
    tape: &'s Tape,
    store: &'s ParamStore,
    v: Var,
) -> &'s [f32] {
    match tape.op_at(v.index()) {
        Op::Input => tape.value(v).as_slice(),
        Op::Param(pid) => store.value(*pid).as_slice(),
        _ => read(plan.value_span[v.index()]),
    }
}

/// Replays the forward pass into planned spans: each reachable non-leaf
/// node is evaluated by the shared forward kernel into its span, reading
/// its inputs through a [`hiergat_tensor::SpanReader`] that panics on any
/// read overlapping the span being written.
fn run_forward(
    plan: &ExecutionPlan,
    tape: &Tape,
    store: &ParamStore,
    arena: &mut Arena,
    moments: &mut Vec<f32>,
) {
    for i in 0..=plan.output.index() {
        let op = tape.op_at(i);
        if !plan.reachable[i] || matches!(op, Op::Input | Op::Param(_)) {
            continue;
        }
        if matches!(
            op,
            Op::Dropout { .. }
                | Op::CrossEntropyLogits { .. }
                | Op::WeightedCrossEntropyLogits { .. }
                | Op::BceWithLogits { .. }
                | Op::MseLoss { .. }
        ) {
            panic!("arena executor: {} is a training op; train on an eager tape", op.name());
        }
        let (out, rd) = arena.view_mut(plan.value_span[i]).split();
        forward::eval(
            i,
            op,
            tape.value(Var::from_index(i)).shape(),
            out,
            |v| value_slice(|s| rd.read(s), plan, tape, store, v),
            |v| tape.value(v).shape(),
            moments,
        );
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

    /// An eval-mode graph exercising attention-style ops: gather, matmul,
    /// broadcast, layer-norm, (elided) dropout, softmax attention,
    /// concat/slice, ending at softmax probabilities — an inference output.
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

    /// A graph covering the remaining forward ops: scalar reductions,
    /// pointwise nonlinearities, transpose/slice_rows/concat_rows and
    /// max/mul_col/add_col, ending at a scalar.
    fn record_mixed_graph(t: &mut Tape, w: Tensor, a: Tensor) -> Var {
        let a = t.input(a);
        let w = t.input(w);
        let h = t.matmul(a, w); // 3x4
        let s1 = t.sigmoid(h);
        let e0 = t.scale(h, 0.1);
        let e = t.exp(e0);
        let l0 = t.add_scalar(e, 1.0);
        let l = t.ln(l0);
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
        let dd = t.matmul_nt(d, d); // 3x3
        let ee = t.matmul_tn(d, l); // 4x4
        let s3 = t.sum_all(dd);
        let s4 = t.mean_all(ee);
        let t1 = t.add(m1, s2);
        let t2 = t.add(s3, s4);
        t.add(t1, t2)
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {k}: {x} vs {y}");
        }
    }

    /// Any two slots whose live intervals overlap own disjoint spans.
    fn assert_aliasing_invariant(plan: &ExecutionPlan) {
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
    fn heap_vs_arena_attention_graph_bitwise() {
        // The cached plan reads parameters live from the store, so replays
        // after a weight update must track the updated eager values.
        let mut ps = build_store(11);
        let mut exec = ArenaExecutor::new();
        for round in 0..3 {
            let mut th = Tape::new();
            let probs_h = record_attention_eval_graph(&mut th, &ps);
            let mut ti = Tape::inference();
            let probs_i = record_attention_eval_graph(&mut ti, &ps);
            let out = exec.infer(&ti, probs_i, &ps);
            assert_bits_eq(th.value(probs_h).as_slice(), out.as_slice(), &format!("round {round}"));
            for id in ps.ids().collect::<Vec<_>>() {
                for x in ps.value_mut(id).as_mut_slice() {
                    *x *= 0.9;
                }
            }
        }
        assert_eq!(exec.plans_cached(), 1, "same-shape replays reuse one plan");
    }

    #[test]
    fn heap_vs_arena_mixed_ops_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Tensor::rand_normal(5, 4, 0.0, 0.6, &mut rng);
        let a = Tensor::rand_normal(3, 5, 0.0, 0.6, &mut rng);
        let ps = ParamStore::new();
        let mut th = Tape::new();
        let out_h = record_mixed_graph(&mut th, w.clone(), a.clone());
        let mut ti = Tape::inference();
        let out_i = record_mixed_graph(&mut ti, w, a);
        let out = ArenaExecutor::new().infer(&ti, out_i, &ps);
        assert_bits_eq(th.value(out_h).as_slice(), out.as_slice(), "mixed graph");
    }

    #[test]
    fn forward_only_matches_eager_value() {
        // Replaying to an interior node runs only its ancestors and reads
        // the value back before anything downstream could recycle it.
        let ps = build_store(3);
        let mut th = Tape::new();
        let probs_h = record_attention_eval_graph(&mut th, &ps);
        let mean_h = th.mean_all(probs_h);
        let mut ti = Tape::inference();
        let probs_i = record_attention_eval_graph(&mut ti, &ps);
        let mean_i = ti.mean_all(probs_i);
        let mut exec = ArenaExecutor::new();
        let probs = exec.infer(&ti, probs_i, &ps);
        assert_bits_eq(th.value(probs_h).as_slice(), probs.as_slice(), "interior output");
        let mean = exec.infer(&ti, mean_i, &ps);
        assert_eq!(th.value(mean_h).item().to_bits(), mean.item().to_bits());
        assert_eq!(exec.plans_cached(), 2, "each output node gets its own plan");
    }

    #[test]
    fn overlapping_intervals_get_disjoint_spans() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Tensor::rand_normal(5, 4, 0.0, 0.6, &mut rng);
        let a = Tensor::rand_normal(3, 5, 0.0, 0.6, &mut rng);
        let mut t = Tape::inference();
        let out = record_mixed_graph(&mut t, w, a);
        assert_aliasing_invariant(&ExecutionPlan::build_inference(&t, out));
    }

    #[test]
    fn report_is_bounded_and_smaller_than_naive() {
        let ps = build_store(23);
        let mut t = Tape::inference();
        let probs = record_attention_eval_graph(&mut t, &ps);
        let plan = ExecutionPlan::build_inference(&t, probs);
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
        let mut t1 = Tape::inference();
        let p1 = record_attention_eval_graph(&mut t1, &ps);
        exec.infer_report(&t1, p1);
        let mut t2 = Tape::inference();
        let p2 = record_attention_eval_graph(&mut t2, &ps);
        exec.infer_report(&t2, p2);
        assert_eq!(exec.plans_cached(), 1, "identical shapes share a plan");
        // A different gather width changes shapes throughout: new plan.
        let mut t3 = Tape::inference();
        let emb = t3.param(&ps, pid(&ps, "emb"));
        let x = t3.gather_rows(emb, &[0, 1]);
        let s = t3.sum_all(x);
        exec.infer_report(&t3, s);
        assert_eq!(exec.plans_cached(), 2);
    }

    #[test]
    #[should_panic(expected = "infer_into: deferred tape has a shape violation at op #1 \
                               (gather_rows): index 9 out of range for table (5, 4)")]
    fn replaying_a_violating_deferred_tape_panics_on_a_plan_cache_hit() {
        // An out-of-range gather index keeps the output shape, so the
        // violating tape finds the valid tape's plan in the cache.
        let ps = build_store(47);
        let record = |indices: &[usize]| {
            let mut t = Tape::inference();
            let emb = t.param(&ps, pid(&ps, "emb"));
            let x = t.gather_rows(emb, indices);
            let s = t.sum_all(x);
            (t, s)
        };
        let mut exec = ArenaExecutor::new();
        let (valid, s) = record(&[0, 4]);
        exec.infer(&valid, s, &ps);
        let (bad, s) = record(&[0, 9]);
        assert!(sig_matches(&bad, s, &exec.plans.values().next().expect("one plan").signature));
        exec.infer(&bad, s, &ps);
    }

    #[test]
    #[should_panic(expected = "only inference tapes can be planned")]
    fn planning_an_eager_tape_panics() {
        let mut t = Tape::new();
        let a = t.input(Tensor::zeros(2, 2));
        let s = t.sum_all(a);
        ExecutionPlan::build_inference(&t, s);
    }

    #[test]
    #[should_panic(expected = "is a training op")]
    fn replaying_a_loss_panics() {
        let mut t = Tape::inference();
        let logits = t.input(Tensor::zeros(2, 3));
        let loss = t.cross_entropy_logits(logits, &[0, 2]);
        ArenaExecutor::new().infer(&t, loss, &ParamStore::new());
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
    fn inference_slots_respect_aliasing_invariant() {
        let ps = build_store(41);
        let mut t = Tape::inference();
        let probs = record_attention_eval_graph(&mut t, &ps);
        assert_aliasing_invariant(&ExecutionPlan::build_inference(&t, probs));
    }
}
