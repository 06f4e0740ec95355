//! Certified tape-to-tape optimiser: DCE, CSE, constant folding, and
//! algebraic/fusion rewrites with translation validation.
//!
//! [`optimize`] re-emits a recorded graph onto a fresh tape of the same
//! recording mode, applying four passes in one emission sweep:
//!
//! 1. **Dead-code elimination** — reachability from the root over the
//!    *post-rewrite* edges (a transpose whose only consumer fuses away is
//!    dead too), reusing the same ancestor walk `analyze`/`plan` do.
//! 2. **Common-subexpression elimination** — structural hashing of
//!    (op, mapped inputs, constant payload); two nodes with identical keys
//!    compute identical values, so the second becomes an alias of the
//!    first. Dropout never merges (each node carries its own sampled
//!    mask); `Input` leaves merge only when small and bitwise-equal.
//! 3. **Constant folding** — a non-leaf node whose transitive support is
//!    `Input` leaves is evaluated once and re-emitted as an `Input`.
//!    Parameters are *never* constants (the executor reads them live from
//!    the store). On deferred tapes the subgraph is evaluated through a
//!    scratch eager tape — the exact kernels the arena plan would run —
//!    gated by an `absint` proof (observed input seeding) that every
//!    folded intermediate is finite and NaN-free, so the scratch
//!    evaluation cannot trip the eager tape's non-finite sentinels.
//! 4. **Algebraic/fusion rewrites** — `matmul(transpose(a), b)` →
//!    `matmul_tn`, `matmul(a, transpose(b))` → `matmul_nt`,
//!    `ln(softmax(x))` → `log_softmax`, and exact identity elisions
//!    (`scale(x, 1)`, `x + (-0.0)`, `x - 0.0`, `x * 1`, `x / 1` — the
//!    `±0.0` gating keeps every elision bitwise: `x + 0.0` is *not*
//!    elided because `-0.0 + 0.0 = +0.0`).
//!
//! Every applied rewrite emits a [`Certificate`]: the rewritten node's
//! inferred shape must equal the original's (always checked), and under
//! [`OptimizeConfig::verified`] its `absint` interval must be contained in
//! the original's (translation validation — the optimiser proves each
//! rewrite sound rather than trusting it). A failing certificate
//! suppresses that rewrite and re-plans; if verification still fails the
//! result falls back to an identity copy of the input graph.
//!
//! Except for the log-softmax fusion (which genuinely changes the
//! floating-point evaluation and only appears in hand-written graphs —
//! the models all record the fused op directly), every rewrite above is
//! bitwise-exact.
//!
//! The optimiser is a checker, not a stage of scoring: `runtime::Session`
//! replays each graph as recorded, and the models record every value
//! once, so each registry model's inference graph is a fixed point here
//! (`tests/optimize_differential.rs` pins that). `hiergat optimize` and
//! `ErModel::optimize_report` run it to show that nothing is left to
//! rewrite.

use crate::absint::{propagate, AbsintConfig, Interval, SeedMode};
use crate::analyze::cost_analysis;
use crate::params::ParamStore;
use crate::tape::{Op, Tape, Var};
use hiergat_tensor::Tensor;
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// `Input` leaves larger than this never participate in CSE or carry their
/// value bits in a structural key — comparing big embeddings element-wise
/// would cost more than the merge saves.
const CSE_LEAF_ELEMS: usize = 256;

/// Which passes run, and whether rewrites are interval-verified.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeConfig {
    /// Drop nodes unreachable from the root (post-rewrite edges).
    pub dce: bool,
    /// Merge structurally identical nodes.
    pub cse: bool,
    /// Evaluate input-only subgraphs at optimise time.
    pub fold: bool,
    /// Fuse transpose+matmul / ln∘softmax and elide exact identities.
    pub fuse: bool,
    /// Run the `absint` interval containment check on every rewrite
    /// (translation validation). Off by default: the always-on shape
    /// certificates are cheap; interval proofs are for `--verify`, tests,
    /// and reports.
    pub verify: bool,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        Self { dce: true, cse: true, fold: true, fuse: true, verify: false }
    }
}

impl OptimizeConfig {
    /// All passes on, every rewrite interval-verified.
    pub fn verified() -> Self {
        Self { verify: true, ..Self::default() }
    }

    /// Equal to [`Self::default`]. Scoring no longer optimises per call,
    /// so there is no separate hot-path configuration; the name stays
    /// because the benchmark package's session mirror calls it.
    pub fn hot() -> Self {
        Self::default()
    }

    /// No passes at all: [`optimize`] produces an identity copy. This is
    /// the last-resort fallback when verification rejects a re-plan.
    pub fn disabled() -> Self {
        Self { dce: false, cse: false, fold: false, fuse: false, verify: false }
    }
}

/// Translation-validation evidence for one applied rewrite.
///
/// `shape_ok` is always populated; the interval fields are populated only
/// when the run verifies ([`OptimizeConfig::verified`]). `new_index` is
/// `None` for pure removals (DCE), where there is no new subgraph to
/// validate.
#[derive(Debug, Clone, Serialize)]
pub struct Certificate {
    /// Which rewrite fired: `dce`, `cse`, `constant-fold`,
    /// `fuse-matmul-tn`, `fuse-matmul-nt`, `fuse-log-softmax`, or
    /// `elide-identity`.
    pub rule: String,
    /// Index of the rewritten node on the original tape.
    pub old_index: usize,
    /// Index of the replacement node on the optimised tape (`None` for
    /// removals).
    pub new_index: Option<usize>,
    /// Op name on the original tape.
    pub old_op: String,
    /// Op name of the replacement node.
    pub new_op: Option<String>,
    /// Inferred shape on the original tape.
    pub old_shape: (usize, usize),
    /// Inferred shape of the replacement node.
    pub new_shape: Option<(usize, usize)>,
    /// The replacement's shape equals the original's.
    pub shape_ok: bool,
    /// Proven interval of the original node (verify runs only).
    pub old_interval: Option<Interval>,
    /// Proven interval of the replacement node (verify runs only).
    pub new_interval: Option<Interval>,
    /// The replacement's interval is contained in the original's (verify
    /// runs only).
    pub interval_ok: Option<bool>,
}

impl Certificate {
    /// `true` when every populated check passed.
    pub fn valid(&self) -> bool {
        self.shape_ok && self.interval_ok.unwrap_or(true)
    }
}

/// Summary of one [`optimize`] run.
#[derive(Debug, Clone, Serialize)]
pub struct OptimizeReport {
    /// Node count of the original tape.
    pub nodes_before: usize,
    /// Node count of the optimised tape.
    pub nodes_after: usize,
    /// Estimated forward FLOPs of the original tape.
    pub flops_before: u64,
    /// Estimated forward FLOPs of the optimised tape.
    pub flops_after: u64,
    /// Nodes dropped as unreachable.
    pub removed_dead: usize,
    /// Nodes merged into an earlier structural twin.
    pub merged_cse: usize,
    /// Nodes folded to constants.
    pub folded: usize,
    /// Fusion rewrites applied.
    pub fused: usize,
    /// Identity elisions applied.
    pub elided: usize,
    /// Mapped nodes whose optimised shape differs from the original
    /// (always 0 on a valid graph; non-zero trips the verify fallback).
    pub shape_mismatches: usize,
    /// Whether interval verification ran.
    pub verified: bool,
    /// Whether verification forced the identity fallback.
    pub fallback: bool,
    /// One certificate per applied rewrite.
    pub certificates: Vec<Certificate>,
}

impl OptimizeReport {
    /// Total rewrites applied (excluding pure removals).
    pub fn rewrites(&self) -> usize {
        self.merged_cse + self.folded + self.fused + self.elided
    }

    /// `true` when every certificate's populated checks passed.
    pub fn all_valid(&self) -> bool {
        self.shape_mismatches == 0 && self.certificates.iter().all(Certificate::valid)
    }

    /// Pretty JSON via the vendored serializer.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("optimize report serializes infallibly")
    }
}

impl fmt::Display for OptimizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  nodes {} -> {}, flops {} -> {}",
            self.nodes_before, self.nodes_after, self.flops_before, self.flops_after
        )?;
        writeln!(
            f,
            "  dce {}, cse {}, folded {}, fused {}, elided {}",
            self.removed_dead, self.merged_cse, self.folded, self.fused, self.elided
        )?;
        let status = if self.fallback {
            "identity fallback (verification rejected a re-plan)"
        } else if !self.all_valid() {
            "INVALID certificate present"
        } else if self.verified {
            "all certificates valid (shape + interval)"
        } else {
            "shape certificates valid (interval check not run)"
        };
        writeln!(f, "  certificates: {} rewrites, {status}", self.certificates.len())
    }
}

/// An optimised graph: the rewritten tape, the root's new handle, and the
/// evidence.
pub struct Optimized {
    /// The rewritten tape (same recording mode as the input).
    pub tape: Tape,
    /// The root node's position on the rewritten tape.
    pub root: Var,
    /// Pass counts and per-rewrite certificates.
    pub report: OptimizeReport,
}

/// Rewrites the graph rooted at `root` onto a fresh tape.
///
/// See the module docs for the pass catalogue. The returned tape is in the
/// same recording mode as `tape` (eager values are recomputed with the
/// same kernels; inference tapes stay deferred and execute
/// through the arena planner as usual).
///
/// # Panics
/// Panics if `root` is not a node of `tape`.
pub fn optimize(tape: &Tape, root: Var, ps: &ParamStore, cfg: &OptimizeConfig) -> Optimized {
    assert!(root.index() < tape.len(), "optimize: root is not a node of this tape");
    let nodes_before = tape.len();
    let flops_before = cost_analysis(tape, 1).total_flops;

    let mut fallback = false;
    let mut out = run_passes(tape, root, ps, cfg, &HashSet::new());
    if cfg.verify {
        let ok = verify_intervals(tape, ps, &mut out);
        if !ok || out.shape_mismatches > 0 {
            // Reject, don't trust: suppress exactly the rewrites whose
            // certificates failed and re-plan.
            let blacklist: HashSet<usize> =
                out.certificates.iter().filter(|c| !c.valid()).map(|c| c.old_index).collect();
            out = run_passes(tape, root, ps, cfg, &blacklist);
            let ok = verify_intervals(tape, ps, &mut out);
            if !ok || out.shape_mismatches > 0 {
                fallback = true;
                out = run_passes(tape, root, ps, &OptimizeConfig::disabled(), &HashSet::new());
                verify_intervals(tape, ps, &mut out);
            }
        }
    }
    let PassOutput {
        tape: new_tape,
        root: new_root,
        certificates,
        removed_dead,
        merged_cse,
        folded,
        fused,
        elided,
        shape_mismatches,
    } = out;
    let report = OptimizeReport {
        nodes_before,
        nodes_after: new_tape.len(),
        flops_before,
        flops_after: cost_analysis(&new_tape, 1).total_flops,
        removed_dead,
        merged_cse,
        folded,
        fused,
        elided,
        shape_mismatches,
        verified: cfg.verify,
        fallback,
        certificates,
    };
    Optimized { tape: new_tape, root: new_root, report }
}

/// Counts the graphs [`optimize_with_cache`] has optimised, and holds the
/// last result so the call can hand it back borrowed.
///
/// Nothing is reused between calls: every call runs [`optimize`] afresh.
/// Scoring sessions replay their graphs as recorded, so no production path
/// optimises per call; this type and [`optimize_with_cache`] keep the call
/// shape that the benchmark package's traced session mirror
/// (`crates/bench/examples/perf`) is written against.
#[derive(Default)]
pub struct OptimizerCache {
    count: usize,
    last: Option<Optimized>,
}

impl OptimizerCache {
    /// Number of graphs optimised through this cache (every call is a
    /// miss, so this counts the calls).
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` before the first call.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// An optimised graph borrowed from an [`OptimizerCache`].
pub struct CachedOptimized<'c> {
    /// The optimised tape.
    pub tape: &'c Tape,
    /// The root node's position on the optimised tape.
    pub root: Var,
    /// Pass counts and certificates of the run.
    pub report: &'c OptimizeReport,
}

/// [`optimize`] with the result parked in `cache`: an uncached run per
/// call (see [`OptimizerCache`]).
///
/// # Panics
/// Panics if `root` is not a node of `tape`, or if the tape recorded a
/// shape violation (with the first violation's message), as
/// [`crate::ArenaExecutor::infer_into`] does: the optimised tape would be
/// refused there anyway.
pub fn optimize_with_cache<'c>(
    cache: &'c mut OptimizerCache,
    tape: Tape,
    root: Var,
    ps: &ParamStore,
    cfg: &OptimizeConfig,
) -> CachedOptimized<'c> {
    tape.assert_no_violations("optimize_with_cache");
    cache.count += 1;
    let o = cache.last.insert(optimize(&tape, root, ps, cfg));
    CachedOptimized { tape: &o.tape, root: o.root, report: &o.report }
}

struct PassOutput {
    tape: Tape,
    root: Var,
    certificates: Vec<Certificate>,
    removed_dead: usize,
    merged_cse: usize,
    folded: usize,
    fused: usize,
    elided: usize,
    shape_mismatches: usize,
}

/// Follows elision chains to the node that actually produces the value.
fn resolve(alias: &[Option<usize>], mut i: usize) -> usize {
    while let Some(j) = alias[i] {
        i = j;
    }
    i
}

/// `true` when the node holds a value and every element has exactly the
/// bit pattern `bits` (elisions key on bits, not numeric equality, so
/// `-0.0` and `+0.0` stay distinct). Values exist for every node of an
/// eager tape and for `Input` leaves everywhere; a deferred tape's other
/// nodes are storage-free placeholders, whose empty buffer never matches.
fn all_bits(tape: &Tape, i: usize, bits: u32) -> bool {
    let v = tape.node_value(i).as_slice();
    !v.is_empty() && v.iter().all(|x| x.to_bits() == bits)
}

fn same_shape(tape: &Tape, i: usize, j: usize) -> bool {
    tape.node_value(i).shape() == tape.node_value(j).shape()
}

/// FNV-1a over the key words: a cheap, deterministic bucket hash. A
/// collision can never merge distinct computations — bucket hits are
/// confirmed by recomputing and comparing the full key.
fn hash_key(k: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &w in k {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pass-through hasher for the CSE bucket map: its keys are already
/// [`hash_key`] digests, so re-hashing them through SipHash per lookup
/// would only burn hot-path cycles.
#[derive(Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Unused for u64 keys, but stay correct for any key type.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type BucketMap = HashMap<u64, Vec<(usize, Var)>, std::hash::BuildHasherDefault<IdHasher>>;

const NEG_ZERO: u32 = 0x8000_0000; // (-0.0f32).to_bits()
const POS_ZERO: u32 = 0x0000_0000;
const ONE: u32 = 0x3F80_0000; // 1.0f32.to_bits()

/// The effective op at node `i`: the planned fusion replacement if one
/// exists, the recorded op otherwise.
fn eff<'a>(fused: &'a [Option<Op>], tape: &'a Tape, i: usize) -> &'a Op {
    match &fused[i] {
        Some(op) => op,
        None => tape.op_at(i),
    }
}

fn run_passes(
    tape: &Tape,
    root: Var,
    ps: &ParamStore,
    cfg: &OptimizeConfig,
    blacklist: &HashSet<usize>,
) -> PassOutput {
    let n = tape.len();
    let eager = !tape.is_inference();

    // ---- Planning ---------------------------------------------------------
    let plan = plan_passes(tape, root, ps, cfg, blacklist);
    let (fused, alias, fold_ok, live) = (&plan.fused, &plan.alias, &plan.fold_ok, &plan.live);
    let mut folded_vals = scratch_fold_values(tape, &plan, ps);

    // ---- Emission ---------------------------------------------------------
    let mut out = tape.mode_like();
    let mut map: Vec<Option<Var>> = vec![None; n];
    // CSE buckets by key hash; on a bucket hit the candidate's key is
    // recomputed into a reused scratch buffer and compared in full, so a
    // hash collision can never merge distinct computations — and the
    // common miss path allocates nothing per node.
    let mut cse = BucketMap::default();
    let (mut key_a, mut key_b): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    let mut certificates = Vec::new();
    let (mut removed_dead, mut merged_cse, mut folded, mut fused_count, mut elided) =
        (0, 0, 0, 0, 0);

    for i in 0..n {
        if alias[i].is_some() {
            let j = resolve(alias, i);
            if let Some(mv) = map[j] {
                map[i] = Some(mv);
                elided += 1;
                certificates.push(make_cert(tape, "elide-identity", i, Some((&out, mv))));
            } else {
                removed_dead += 1;
                certificates.push(make_cert(tape, "dce", i, None));
            }
            continue;
        }
        if !live[i] {
            removed_dead += 1;
            certificates.push(make_cert(tape, "dce", i, None));
            continue;
        }
        if fold_ok[i] {
            let value = if eager {
                tape.node_value(i).clone()
            } else {
                folded_vals[i].take().expect("live fold root was evaluated")
            };
            let v = out.input(value);
            map[i] = Some(v);
            folded += 1;
            certificates.push(make_cert(tape, "constant-fold", i, Some((&out, v))));
            continue;
        }
        let mut hit = None;
        let mut key_hash = None;
        if cfg.cse && !blacklist.contains(&i) {
            key_a.clear();
            if cse_key(tape, i, eff(fused, tape, i), &map, alias, &mut key_a) {
                let h = hash_key(&key_a);
                key_hash = Some(h);
                if let Some(bucket) = cse.get(&h) {
                    for &(j, jv) in bucket {
                        key_b.clear();
                        if cse_key(tape, j, eff(fused, tape, j), &map, alias, &mut key_b)
                            && key_a == key_b
                        {
                            hit = Some(jv);
                            break;
                        }
                    }
                }
            }
        }
        if let Some(mv) = hit {
            map[i] = Some(mv);
            merged_cse += 1;
            certificates.push(make_cert(tape, "cse", i, Some((&out, mv))));
            continue;
        }
        let m = |v: Var| {
            map[resolve(alias, v.index())].expect("inputs are emitted before their consumers")
        };
        let v = emit_op(&mut out, tape, i, eff(fused, tape, i), &m, ps);
        map[i] = Some(v);
        if let Some(h) = key_hash {
            cse.entry(h).or_default().push((i, v));
        }
        if fused[i].is_some() {
            fused_count += 1;
            let rule = match &fused[i] {
                Some(Op::MatmulTn(..)) => "fuse-matmul-tn",
                Some(Op::MatmulNt(..)) => "fuse-matmul-nt",
                _ => "fuse-log-softmax",
            };
            certificates.push(make_cert(tape, rule, i, Some((&out, v))));
        }
    }

    // Always-on shape certification: every surviving node's inferred shape
    // on the optimised tape must equal the original's, and re-emission must
    // not have introduced shape violations the original didn't have.
    let mut shape_mismatches = certificates.iter().filter(|c| !c.shape_ok).count();
    for (i, mv) in map.iter().enumerate() {
        if let Some(v) = mv {
            if out.value(*v).shape() != tape.node_value(i).shape() {
                shape_mismatches += 1;
            }
        }
    }
    shape_mismatches += out.shape_violations().len().saturating_sub(tape.shape_violations().len());

    let new_root = map[resolve(alias, root.index())].expect("the root is always live and mapped");
    PassOutput {
        tape: out,
        root: new_root,
        certificates,
        removed_dead,
        merged_cse,
        folded,
        fused: fused_count,
        elided,
        shape_mismatches,
    }
}

/// Builds the shape half of a rewrite certificate.
fn make_cert(tape: &Tape, rule: &str, old_index: usize, new: Option<(&Tape, Var)>) -> Certificate {
    let old_shape = tape.node_value(old_index).shape();
    let (new_index, new_op, new_shape) = match new {
        Some((t, v)) => {
            (Some(v.index()), Some(t.op_name(v.index()).to_string()), Some(t.value(v).shape()))
        }
        None => (None, None, None),
    };
    Certificate {
        rule: rule.to_string(),
        old_index,
        new_index,
        old_op: tape.op_name(old_index).to_string(),
        new_op,
        old_shape,
        new_shape,
        shape_ok: new_shape.is_none_or(|s| s == old_shape),
        old_interval: None,
        new_interval: None,
        interval_ok: None,
    }
}

/// Planned rewrites in old-index space: `fused[i]` is a replacement op
/// (with old-tape operands) for node `i`; `alias[i]` marks node `i` as an
/// exact identity of old node `alias[i]`; `fold_ok` / `live` gate the
/// emission sweep.
struct PlanData {
    fused: Vec<Option<Op>>,
    alias: Vec<Option<usize>>,
    fold_ok: Vec<bool>,
    live: Vec<bool>,
}

fn plan_passes(
    tape: &Tape,
    root: Var,
    ps: &ParamStore,
    cfg: &OptimizeConfig,
    blacklist: &HashSet<usize>,
) -> PlanData {
    let n = tape.len();
    let eager = !tape.is_inference();

    // ---- Rewrite planning (old-index space) -------------------------------
    let mut fused: Vec<Option<Op>> = (0..n).map(|_| None).collect();
    let mut alias: Vec<Option<usize>> = vec![None; n];
    if cfg.fuse {
        for i in 0..n {
            if blacklist.contains(&i) {
                continue;
            }
            match tape.op_at(i) {
                Op::Matmul(a, b) => {
                    if let Op::Transpose(x) = tape.op_at(a.index()) {
                        fused[i] = Some(Op::MatmulTn(*x, *b));
                    } else if let Op::Transpose(y) = tape.op_at(b.index()) {
                        fused[i] = Some(Op::MatmulNt(*a, *y));
                    }
                }
                Op::Ln(s) => {
                    if let Op::Softmax(x) = tape.op_at(s.index()) {
                        fused[i] = Some(Op::LogSoftmax(*x));
                    }
                }
                // Exact identity elisions; `elision_target` carries the
                // ±0.0 sign gating that keeps every one of them bitwise.
                _ => alias[i] = elision_target(tape, i),
            }
        }
    }

    let eff_op = |i: usize| -> &Op {
        match &fused[i] {
            Some(op) => op,
            None => tape.op_at(i),
        }
    };

    // ---- Constant-fold planning ------------------------------------------
    // Structurally foldable: non-leaf, every (alias-resolved) input is an
    // Input leaf or itself foldable. Never Param (live store reads), never
    // Dropout, and nothing on a tape with a shape violation (its kernels
    // cannot run).
    let mut fold_ok = vec![false; n];
    if cfg.fold && tape.shape_violations().is_empty() {
        let mut structural = vec![false; n];
        let mut any = false;
        for i in 0..n {
            if alias[i].is_some() || blacklist.contains(&i) {
                continue;
            }
            let op = eff_op(i);
            if matches!(op, Op::Input | Op::Param(_) | Op::Dropout { .. }) {
                continue;
            }
            let (mut has_inputs, mut ok) = (false, true);
            op.for_each_input(|v| {
                has_inputs = true;
                let j = resolve(&alias, v.index());
                ok &= matches!(tape.op_at(j), Op::Input) || structural[j];
            });
            if has_inputs && ok {
                structural[i] = true;
                any = true;
            }
        }
        if any {
            // Gate: every folded intermediate must be provably finite and
            // NaN-free before eager kernels touch it (the scratch tape's
            // debug sentinels panic on non-finite values). Eager tapes
            // already hold the recorded value, so the proof is the value
            // itself. Params are irrelevant to input-only subgraphs, so
            // they seed as unbounded — no store scan.
            let gate: Vec<bool> = if eager {
                (0..n).map(|i| structural[i] && !tape.node_value(i).has_non_finite()).collect()
            } else {
                let cfg_iv = AbsintConfig {
                    inputs: SeedMode::Observed,
                    params: SeedMode::Box(f64::INFINITY),
                };
                let iv = propagate(tape, ps, &cfg_iv);
                (0..n).map(|i| structural[i] && iv[i].finite && iv[i].nan_free).collect()
            };
            for i in 0..n {
                if !gate[i] {
                    continue;
                }
                let mut ok = true;
                eff_op(i).for_each_input(|v| {
                    let j = resolve(&alias, v.index());
                    ok &= matches!(tape.op_at(j), Op::Input) || fold_ok[j];
                });
                fold_ok[i] = ok;
            }
        }
    }

    // ---- Liveness over post-rewrite edges --------------------------------
    let mut live = vec![false; n];
    if cfg.dce {
        let r = resolve(&alias, root.index());
        live[r] = true;
        let mut stack = vec![r];
        while let Some(i) = stack.pop() {
            if fold_ok[i] {
                continue; // a folded node's support is consumed at optimise time
            }
            eff_op(i).for_each_input(|v| {
                let j = resolve(&alias, v.index());
                if !live[j] {
                    live[j] = true;
                    stack.push(j);
                }
            });
        }
    } else {
        live.fill(true);
    }

    PlanData { fused, alias, fold_ok, live }
}

/// The operand node `i` is an exact bitwise identity of, if any.
/// `x + (-0.0) = x` and `x - (+0.0) = x` hold bitwise for every x
/// (including ±0.0); the same with the zero signs swapped does NOT
/// (`-0.0 + 0.0 = +0.0`), so those never elide.
fn elision_target(tape: &Tape, i: usize) -> Option<usize> {
    match tape.op_at(i) {
        Op::Scale(a, k) if k.to_bits() == ONE => Some(a.index()),
        Op::AddScalar(a, k) if k.to_bits() == NEG_ZERO => Some(a.index()),
        Op::Add(a, b) => {
            if all_bits(tape, b.index(), NEG_ZERO) && same_shape(tape, i, a.index()) {
                Some(a.index())
            } else if all_bits(tape, a.index(), NEG_ZERO) && same_shape(tape, i, b.index()) {
                Some(b.index())
            } else {
                None
            }
        }
        Op::Sub(a, b) if all_bits(tape, b.index(), POS_ZERO) && same_shape(tape, i, a.index()) => {
            Some(a.index())
        }
        Op::Mul(a, b) => {
            if all_bits(tape, b.index(), ONE) && same_shape(tape, i, a.index()) {
                Some(a.index())
            } else if all_bits(tape, a.index(), ONE) && same_shape(tape, i, b.index()) {
                Some(b.index())
            } else {
                None
            }
        }
        Op::Div(a, b) if all_bits(tape, b.index(), ONE) && same_shape(tape, i, a.index()) => {
            Some(a.index())
        }
        _ => None,
    }
}

/// Scratch-evaluates the live fold roots of a deferred tape: the needed
/// support runs through an eager scratch tape — the same kernels, in the
/// same order, the arena plan would have run. Eager tapes already carry
/// every folded value, so they (and plans with no folds) return an empty
/// vector.
fn scratch_fold_values(tape: &Tape, plan: &PlanData, ps: &ParamStore) -> Vec<Option<Tensor>> {
    let n = tape.len();
    let PlanData { fused, alias, fold_ok, live } = plan;
    if !tape.is_inference() || !fold_ok.iter().any(|&f| f) {
        return Vec::new();
    }
    let mut needed = vec![false; n];
    for i in (0..n).rev() {
        if fold_ok[i] && (live[i] || needed[i]) {
            needed[i] = true;
            eff(fused, tape, i).for_each_input(|v| {
                needed[resolve(alias, v.index())] = true;
            });
        }
    }
    let mut folded_vals: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
    let mut scratch = Tape::new();
    let mut smap: Vec<Option<Var>> = vec![None; n];
    for i in 0..n {
        if !needed[i] {
            continue;
        }
        if matches!(tape.op_at(i), Op::Input) {
            smap[i] = Some(scratch.input(tape.node_value(i).clone()));
        } else if fold_ok[i] {
            let sv = {
                let m = |v: Var| {
                    smap[resolve(alias, v.index())]
                        .expect("fold support is evaluated in topological order")
                };
                emit_op(&mut scratch, tape, i, eff(fused, tape, i), &m, ps)
            };
            smap[i] = Some(sv);
            if live[i] {
                folded_vals[i] = Some(scratch.value(sv).clone());
            }
        }
    }
    folded_vals
}

/// Interval half of translation validation: propagate both tapes under the
/// same seeding and require every rewrite's replacement interval to be
/// contained in the original's. Returns `true` when all certificates pass.
/// Inputs hold real data on every tape, so observed seeding always applies.
fn verify_intervals(old: &Tape, ps: &ParamStore, out: &mut PassOutput) -> bool {
    let cfg = AbsintConfig::observed();
    let old_iv = propagate(old, ps, &cfg);
    let new_iv = propagate(&out.tape, ps, &cfg);
    let mut all_ok = true;
    for c in &mut out.certificates {
        let Some(ni) = c.new_index else { continue };
        let o = old_iv[c.old_index];
        let nv = new_iv[ni];
        let ok = contained(&nv, &o);
        c.old_interval = Some(o);
        c.new_interval = Some(nv);
        c.interval_ok = Some(ok);
        all_ok &= ok;
    }
    all_ok
}

/// `new ⊆ old`: tighter-or-equal bounds, and every element fact the old
/// interval proves must still be proven.
fn contained(new: &Interval, old: &Interval) -> bool {
    new.lo >= old.lo
        && new.hi <= old.hi
        && (!old.finite || new.finite)
        && (!old.nan_free || new.nan_free)
}

/// Structural hash key for CSE, written into the caller's reused buffer
/// `k`: op code, constant payload, and the mapped (new-tape) input
/// indices. Returns `false` — leaving `k` in an unspecified state — when
/// the node must never merge (dropout, oversized or already-vacated
/// `Input` leaves, unmapped inputs).
fn cse_key(
    tape: &Tape,
    i: usize,
    op: &Op,
    map: &[Option<Var>],
    alias: &[Option<usize>],
    k: &mut Vec<u64>,
) -> bool {
    k.push(op.tag());
    match op {
        // Each dropout node carries its own sampled mask; merging would
        // change the RNG semantics of the graph.
        Op::Dropout { .. } => return false,
        Op::Input => {
            let v = tape.node_value(i);
            if v.is_placeholder() || v.is_empty() || v.len() > CSE_LEAF_ELEMS {
                return false;
            }
            k.push(v.rows() as u64);
            k.push(v.cols() as u64);
            k.extend(v.as_slice().iter().map(|x| u64::from(x.to_bits())));
            return true;
        }
        Op::Param(id) => {
            k.push(id.index() as u64);
            return true;
        }
        Op::Scale(_, c) | Op::AddScalar(_, c) | Op::LeakyRelu(_, c) => {
            k.push(u64::from(c.to_bits()));
        }
        Op::LayerNorm { eps, .. } => k.push(u64::from(eps.to_bits())),
        Op::SliceCols { start, len, .. } | Op::SliceRows { start, len, .. } => {
            k.push(*start as u64);
            k.push(*len as u64);
        }
        Op::GatherRows { indices, .. } => {
            k.push(indices.len() as u64);
            k.extend(indices.iter().map(|&ix| ix as u64));
        }
        Op::CrossEntropyLogits { targets, .. } => {
            k.push(targets.len() as u64);
            k.extend(targets.iter().map(|&t| t as u64));
        }
        Op::WeightedCrossEntropyLogits { targets, weights, .. } => {
            k.push(targets.len() as u64);
            k.extend(targets.iter().map(|&t| t as u64));
            k.extend(weights.iter().map(|w| u64::from(w.to_bits())));
        }
        Op::BceWithLogits { targets, .. } => {
            k.push(targets.len() as u64);
            k.extend(targets.iter().map(|t| u64::from(t.to_bits())));
        }
        Op::MseLoss { target, .. } => {
            if target.len() > CSE_LEAF_ELEMS {
                return false;
            }
            k.push(target.rows() as u64);
            k.push(target.cols() as u64);
            k.extend(target.as_slice().iter().map(|x| u64::from(x.to_bits())));
        }
        _ => {}
    }
    let mut mapped = true;
    op.for_each_input(|v| {
        let j = resolve(alias, v.index());
        match map[j] {
            Some(mv) => k.push(mv.index() as u64),
            None => mapped = false,
        }
    });
    mapped
}

/// Re-records `op` (originally at `src` index `i`) onto `dst`, with inputs
/// remapped through `m`. Leaves copy their value (inputs) or re-read the
/// store (params); every other op goes through [`Tape::record`], so eager
/// re-emission recomputes with the same forward kernel and deferred
/// re-emission re-derives the same shape.
fn emit_op(
    dst: &mut Tape,
    src: &Tape,
    i: usize,
    op: &Op,
    m: &dyn Fn(Var) -> Var,
    ps: &ParamStore,
) -> Var {
    match op {
        Op::Input => dst.input(src.node_value(i).clone()),
        Op::Param(id) => dst.param(ps, *id),
        _ => dst.record(op.map_inputs(m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ArenaExecutor;

    fn assert_bitwise(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape(), "shape mismatch");
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "bitwise mismatch: {x} vs {y}");
        }
    }

    fn op_names(t: &Tape) -> Vec<&'static str> {
        (0..t.len()).map(|i| t.op_name(i)).collect()
    }

    #[test]
    fn dce_drops_unreachable_nodes_bitwise() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::from_rows(&[vec![0.5, -1.0], vec![2.0, 0.25]]));
        let mut t = Tape::new();
        let x = t.input(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let wv = t.param(&ps, w);
        let y = t.matmul(x, wv);
        let _dead = t.exp(y);
        let root = t.sum_all(y);

        let opt = optimize(&t, root, &ps, &OptimizeConfig::default());
        assert!(opt.report.removed_dead >= 1, "exp branch should be dead");
        assert!(opt.report.nodes_after < opt.report.nodes_before);
        assert!(!op_names(&opt.tape).contains(&"exp"));
        assert_bitwise(t.value(root), opt.tape.value(opt.root));
    }

    #[test]
    fn cse_merges_twin_ops() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::from_rows(&[vec![0.3, -0.7]]));
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        let a = t.add(wv, wv);
        let s1 = t.sigmoid(a);
        let s2 = t.sigmoid(a);
        let prod = t.mul(s1, s2);
        let root = t.sum_all(prod);

        let opt = optimize(&t, root, &ps, &OptimizeConfig::default());
        assert_eq!(opt.report.merged_cse, 1, "the twin sigmoid should merge");
        let names = op_names(&opt.tape);
        assert_eq!(names.iter().filter(|n| **n == "sigmoid").count(), 1);
        assert_bitwise(t.value(root), opt.tape.value(opt.root));
    }

    #[test]
    fn transpose_matmul_fuses_both_sides_bitwise() {
        let ps = ParamStore::new();
        let mut t = Tape::new();
        let a = t.input(Tensor::from_rows(&[
            vec![1.0, 2.0, -1.5, 0.25],
            vec![0.5, -3.0, 2.0, 1.0],
            vec![-0.75, 1.25, 0.0, 4.0],
        ]));
        let b = t.input(Tensor::from_rows(&[
            vec![2.0, 0.5, -1.0, 3.0, 0.125],
            vec![-0.5, 1.5, 2.5, -2.0, 1.0],
            vec![1.0, -1.0, 0.5, 0.75, -0.25],
        ]));
        let c = t.input(Tensor::from_rows(&[
            vec![0.5, 1.0, -2.0, 0.25, 3.0],
            vec![1.5, -0.5, 0.75, 2.0, -1.0],
        ]));
        let at = t.transpose(a); // 4x3
        let tn = t.matmul(at, b); // 4x5 == a^T b
        let ct = t.transpose(c); // 5x2
        let nt = t.matmul(tn, ct); // 4x2 == tn c^T
        let root = t.sum_all(nt);

        // fold is off: this graph is input-only, and folding it away would
        // leave nothing to fuse.
        let opt = optimize(&t, root, &ps, &OptimizeConfig { fold: false, ..Default::default() });
        assert_eq!(opt.report.fused, 2);
        let names = op_names(&opt.tape);
        assert!(names.contains(&"matmul_tn"));
        assert!(names.contains(&"matmul_nt"));
        assert!(!names.contains(&"transpose"), "fused transposes should be dead");
        assert!(!names.contains(&"matmul"));
        assert_bitwise(t.value(root), opt.tape.value(opt.root));
    }

    #[test]
    fn identity_elisions_respect_zero_signs() {
        let ps = ParamStore::new();
        let mut t = Tape::new();
        // -0.0 in the data: the elision decisions must preserve its bits.
        let x = t.input(Tensor::from_rows(&[vec![-0.0, 1.5], vec![-2.0, 0.0]]));
        let ones = t.input(Tensor::ones(2, 2));
        let m = t.mul(x, ones); // elided: x * 1 == x bitwise
        let neg_zeros = t.input(Tensor::from_rows(&[vec![-0.0, -0.0], vec![-0.0, -0.0]]));
        let m2 = t.add(m, neg_zeros); // elided: x + (-0.0) == x bitwise
        let pos_zeros = t.input(Tensor::zeros(2, 2));
        let s = t.add(m2, pos_zeros); // NOT elided: -0.0 + 0.0 == +0.0
        let sc = t.scale(s, 1.0); // elided
        let root = t.sum_all(sc);

        let opt = optimize(&t, root, &ps, &OptimizeConfig { fold: false, ..Default::default() });
        assert_eq!(opt.report.elided, 3, "mul-by-one, add-neg-zero, scale-by-one");
        let names = op_names(&opt.tape);
        assert!(!names.contains(&"mul"));
        assert!(!names.contains(&"scale"));
        assert_eq!(
            names.iter().filter(|n| **n == "add").count(),
            1,
            "the +0.0 add must survive (it flips -0.0 to +0.0)"
        );
        assert_bitwise(t.value(root), opt.tape.value(opt.root));
        // The surviving add's output really differs bitwise from its input.
        assert_ne!((-0.0f32 + 0.0f32).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn eager_constant_folding_reuses_recorded_values() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::from_rows(&[vec![1.0, -2.0], vec![0.5, 0.25]]));
        let mut t = Tape::new();
        let a = t.input(Tensor::from_rows(&[vec![0.1, 0.2], vec![0.3, 0.4]]));
        let b = t.input(Tensor::from_rows(&[vec![1.0, -1.0], vec![2.0, -2.0]]));
        let s = t.add(a, b);
        let e = t.tanh(s); // fold root: input-only support
        let wv = t.param(&ps, w);
        let y = t.matmul(e, wv);
        let root = t.sum_all(y);

        let opt = optimize(&t, root, &ps, &OptimizeConfig::default());
        assert_eq!(opt.report.folded, 1, "only the live fold root becomes an input");
        assert!(opt.report.removed_dead >= 3, "a, b, and the add are folded away");
        let names = op_names(&opt.tape);
        assert!(!names.contains(&"tanh"));
        assert!(!names.contains(&"add"));
        assert_bitwise(t.value(root), opt.tape.value(opt.root));
        assert!(opt.report.flops_after < opt.report.flops_before);
    }

    #[test]
    fn deferred_folding_is_bitwise_through_the_arena() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::from_rows(&[vec![1.0, -2.0], vec![0.5, 0.25]]));
        let build = |t: &mut Tape| {
            let a = t.input(Tensor::from_rows(&[vec![0.1, 0.2], vec![0.3, 0.4]]));
            let b = t.input(Tensor::from_rows(&[vec![1.0, -1.0], vec![2.0, -2.0]]));
            let s = t.add(a, b);
            let e = t.tanh(s);
            let wv = t.param(&ps, w);
            let y = t.matmul(e, wv);
            t.softmax(y)
        };
        let mut eager = Tape::new();
        let eager_root = build(&mut eager);

        let mut inf = Tape::inference();
        let inf_root = build(&mut inf);
        let opt = optimize(&inf, inf_root, &ps, &OptimizeConfig::default());
        assert!(opt.tape.is_inference());
        assert_eq!(opt.report.folded, 1);

        let mut exec = ArenaExecutor::new();
        let got = exec.infer(&opt.tape, opt.root, &ps);
        assert_bitwise(eager.value(eager_root), &got);
    }

    #[test]
    fn deferred_folding_skips_non_finite_subgraphs() {
        let ps = ParamStore::new();
        let mut t = Tape::inference();
        let a = t.input(Tensor::from_rows(&[vec![f32::INFINITY, 1.0]]));
        let s = t.tanh(a); // support is non-finite: must not fold (nor panic)
        let b = t.input(Tensor::from_rows(&[vec![0.5, 0.25]]));
        let y = t.mul(s, b);
        let root = t.sum_all(y);

        let opt = optimize(&t, root, &ps, &OptimizeConfig::default());
        assert_eq!(opt.report.folded, 0, "non-finite support must suppress folding");
        assert!(op_names(&opt.tape).contains(&"tanh"));
    }

    #[test]
    fn log_softmax_fusion_is_allclose() {
        let ps = ParamStore::new();
        let mut t = Tape::new();
        let x = t.input(Tensor::from_rows(&[vec![0.5, -1.0, 2.0], vec![3.0, 0.0, -2.5]]));
        let sm = t.softmax(x);
        let l = t.ln(sm);
        let root = t.sum_all(l);

        let opt = optimize(&t, root, &ps, &OptimizeConfig { fold: false, ..Default::default() });
        assert_eq!(opt.report.fused, 1);
        let names = op_names(&opt.tape);
        assert!(names.contains(&"log_softmax"));
        assert!(!names.contains(&"softmax"));
        let (a, b) = (t.value(root).item(), opt.tape.value(opt.root).item());
        assert!((a - b).abs() < 1e-5, "ln∘softmax vs log_softmax: {a} vs {b}");
    }

    #[test]
    fn verified_run_certifies_every_rewrite() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::from_rows(&[vec![0.5, -1.0], vec![2.0, 0.25]]));
        let mut t = Tape::new();
        let a = t.input(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let at = t.transpose(a);
        let wv = t.param(&ps, w);
        let wv2 = t.param(&ps, w);
        let y = t.matmul(at, wv);
        let y2 = t.mul(y, y);
        let _dead = t.exp(wv2);
        let folded_in = t.input(Tensor::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]));
        let fold = t.sqrt(folded_in);
        let z = t.mul(y2, fold);
        let root = t.sum_all(z);

        let opt = optimize(&t, root, &ps, &OptimizeConfig::verified());
        assert!(opt.report.verified);
        assert!(!opt.report.fallback);
        assert!(opt.report.all_valid(), "verified run must certify every rewrite");
        assert!(opt.report.rewrites() > 0);
        for c in &opt.report.certificates {
            if c.new_index.is_some() {
                assert!(c.interval_ok == Some(true), "interval cert missing for {}", c.rule);
            }
        }
        assert_bitwise(t.value(root), opt.tape.value(opt.root));
    }

    #[test]
    fn verified_ln_softmax_never_returns_invalid_certificates() {
        let ps = ParamStore::new();
        let mut t = Tape::new();
        let x = t.input(Tensor::from_rows(&[vec![0.5, -1.0, 2.0]]));
        let sm = t.softmax(x);
        let l = t.ln(sm);
        let root = t.sum_all(l);

        let opt = optimize(&t, root, &ps, &OptimizeConfig::verified());
        // The fusion either certifies (and stays) or is suppressed on the
        // re-plan — the report must come back valid either way.
        assert!(opt.report.all_valid());
        let (a, b) = (t.value(root).item(), opt.tape.value(opt.root).item());
        assert!((a - b).abs() < 1e-5);
    }

    #[test]
    fn disabled_config_is_an_identity_copy() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::from_rows(&[vec![0.5, -1.0]]));
        let mut t = Tape::new();
        let w1 = t.param(&ps, w);
        let w2 = t.param(&ps, w);
        let a = t.add(w1, w2);
        let _dead = t.exp(a);
        let root = t.sum_all(a);

        let opt = optimize(&t, root, &ps, &OptimizeConfig::disabled());
        assert_eq!(opt.report.nodes_after, opt.report.nodes_before);
        assert_eq!(opt.report.rewrites(), 0);
        assert_eq!(opt.report.removed_dead, 0);
        assert_eq!(op_names(&t), op_names(&opt.tape));
        assert_bitwise(t.value(root), opt.tape.value(opt.root));
    }

    #[test]
    fn deferred_tapes_optimize_in_mode_and_fold_only_input_subgraphs() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::ones(3, 4));
        let mut t = Tape::inference();
        let a = t.param(&ps, w);
        let b = t.input(Tensor::ones(3, 5));
        let at = t.transpose(a);
        let y = t.matmul(at, b);
        let _dead = t.exp(y);
        let c = t.input(Tensor::full(1, 1, 2.0));
        let c2 = t.scale(c, 3.0); // input-only: folds to a constant
        let yc = t.sum_all(y);
        let root = t.mul(yc, c2);

        let opt = optimize(&t, root, &ps, &OptimizeConfig::verified());
        assert!(opt.tape.is_inference());
        assert_eq!(opt.report.folded, 1, "only the input-only scale folds");
        assert_eq!(opt.report.fused, 1);
        assert!(opt.report.removed_dead >= 1);
        assert!(opt.report.all_valid(), "{}", opt.report);
        assert!(opt.tape.shape_violations().is_empty());
        assert_eq!(opt.tape.value(opt.root).shape(), t.value(root).shape());
    }

    #[test]
    fn violating_deferred_tapes_optimize_without_folding() {
        let ps = ParamStore::new();
        let mut t = Tape::inference();
        let a = t.input(Tensor::ones(2, 3));
        let b = t.input(Tensor::ones(4, 5));
        let y = t.matmul(a, b); // input-only, but its kernel cannot run
        let root = t.sum_all(y);
        let opt = optimize(&t, root, &ps, &OptimizeConfig::default());
        assert_eq!(opt.report.folded, 0);
        assert_eq!(opt.tape.shape_violations().len(), 1);
    }

    #[test]
    #[should_panic(expected = "optimize_with_cache: deferred tape has a shape violation at \
                               op #1 (gather_rows): index 7 out of range for table (3, 2)")]
    fn optimize_with_cache_refuses_a_violating_tape() {
        let mut ps = ParamStore::new();
        let emb = ps.add("emb", Tensor::ones(3, 2));
        let record = |indices: &[usize]| {
            let mut t = Tape::inference();
            let e = t.param(&ps, emb);
            let x = t.gather_rows(e, indices);
            let root = t.sum_all(x);
            (t, root)
        };
        let mut cache = OptimizerCache::default();
        let (valid, root) = record(&[0, 2]);
        optimize_with_cache(&mut cache, valid, root, &ps, &OptimizeConfig::hot());
        assert_eq!(cache.len(), 1);
        // Same shapes as the valid tape: only the refusal catches the bad
        // index before anything replays it.
        let (bad, root) = record(&[0, 7]);
        optimize_with_cache(&mut cache, bad, root, &ps, &OptimizeConfig::hot());
    }

    #[test]
    fn report_json_roundtrips_key_fields() {
        let ps = ParamStore::new();
        let mut t = Tape::new();
        let x = t.input(Tensor::ones(1, 2));
        let root = t.sum_all(x);
        let opt = optimize(&t, root, &ps, &OptimizeConfig::verified());
        let json = opt.report.to_json();
        assert!(json.contains("\"nodes_before\""));
        assert!(json.contains("\"certificates\""));
    }
}
