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
//! bitwise-exact, which is why `runtime::Session` can run the optimiser
//! on its hot scoring path while the conformance suite pins
//! session == eager equality.

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
/// on the scoring hot path would cost more than the merge saves.
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
    /// (translation validation). Off by default: the scoring hot path
    /// relies on the always-on shape certificates plus the differential
    /// conformance gates; interval proofs are for `--verify`, tests, and
    /// reports.
    pub verify: bool,
    /// Materialise one [`Certificate`] record per rewrite in the report,
    /// and estimate before/after FLOPs. Off, every shape check still runs
    /// and gates exactly as before and the pass counters stay exact — the
    /// optimiser just skips allocating the per-rewrite evidence and the
    /// cost walk (the FLOP fields report zero). The scoring hot path turns
    /// this off ([`OptimizeConfig::hot`]); `verify` implies collection.
    pub certificates: bool,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        Self { dce: true, cse: true, fold: true, fuse: true, verify: false, certificates: true }
    }
}

impl OptimizeConfig {
    /// All passes on, every rewrite interval-verified.
    pub fn verified() -> Self {
        Self { verify: true, ..Self::default() }
    }

    /// The scoring hot path: all rewrites on, no interval verification,
    /// no per-rewrite certificate records (shape checks still run).
    pub fn hot() -> Self {
        Self { certificates: false, ..Self::default() }
    }

    /// No passes at all: [`optimize`] produces an identity copy. This is
    /// the last-resort fallback when verification rejects a re-plan.
    pub fn disabled() -> Self {
        Self { dce: false, cse: false, fold: false, fuse: false, verify: false, certificates: true }
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
    /// The rewritten tape (same recording mode as the input, marked
    /// [`Tape::is_optimized`] so plan caches keep it distinct).
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
    optimize_impl(&mut Borrowed(tape), root, ps, cfg)
}

/// Like [`optimize`] but consumes the tape, letting the emission sweep
/// **move** `Input` leaf tensors onto the optimised tape instead of
/// deep-copying them. On the `Session` scoring hot path, where the
/// recorded tape is discarded right after optimisation anyway, this is
/// the difference between the optimiser paying for itself and not.
///
/// Semantics are identical to the borrowing path with one exception:
/// `Input` leaves no longer CSE-merge (the first twin's bits have already
/// moved out by the time the second is keyed, so the bitwise-equality
/// check conservatively fails). Param-read merges — the bulk of CSE wins
/// on model graphs — are unaffected. Under `cfg.verify` this delegates to
/// the borrowing path: verification re-plans over the original graph,
/// which must keep its values.
///
/// # Panics
/// Panics if `root` is not a node of `tape`.
pub fn optimize_owned(tape: Tape, root: Var, ps: &ParamStore, cfg: &OptimizeConfig) -> Optimized {
    if cfg.verify {
        return optimize(&tape, root, ps, cfg);
    }
    optimize_impl(&mut Owned(tape), root, ps, cfg)
}

/// One cached optimiser run: every planning decision, in old-index space.
struct Decisions {
    plan: PlanData,
    /// `merge_with[i] = Some(j)`: CSE merged node `i` into its earlier
    /// structural twin `j`.
    merge_with: Vec<Option<usize>>,
}

/// Old-index → optimised-index pairs for everything a fresh example
/// changes on an otherwise structurally identical graph.
struct PatchMaps {
    /// Pass-through `Input` leaves: fresh values move straight across.
    inputs: Vec<(u32, u32)>,
    /// Constant-fold roots: re-evaluated per call, then written across.
    folds: Vec<(u32, u32)>,
    /// Surviving ops whose `Op` carries payload the executor reads at run
    /// time (scale constants, gather indices, loss targets, …).
    payloads: Vec<(u32, u32)>,
}

struct CacheEntry {
    /// Full plan signature; hits confirm against it word-for-word
    /// (`sig_matches`), so two distinct structures can never share an
    /// entry.
    sig: Vec<u64>,
    /// Pass-selection flags the decisions were computed under.
    flags: u8,
    dec: Decisions,
    /// The optimised tape itself, patched in place on every replay.
    tape: Tape,
    root: Var,
    report: OptimizeReport,
    maps: PatchMaps,
}

/// Entry cap across all buckets; mirrors the arena executor's plan-cache
/// cap (a session only ever meets a bounded family of graph shapes).
const CACHE_CAP: usize = 256;

/// Memoised optimiser output keyed by graph structure, for callers that
/// optimise a stream of same-shaped deferred tapes
/// ([`optimize_with_cache`]).
///
/// Planning — fusion scanning, the absint fold proof, liveness, and above
/// all CSE keying — dominates the optimiser's cost, and even re-emitting
/// the optimised tape costs more than replaying it saves. Yet on a
/// deferred tape every non-leaf value is a storage-free placeholder: two
/// tapes with equal plan signatures differ only in their `Input` bits and
/// op payloads. So the cache keeps the *optimised tape itself* per
/// signature and, on a hit, revalidates the few value-dependent decisions
/// and patches fresh inputs/payloads/fold results into the cached tape —
/// no planning, no emission, no allocation. The patched tape's structure
/// never changes, so the arena executor's plan cache keeps hitting too.
#[derive(Default)]
pub struct OptimizerCache {
    /// Buckets by [`cheap_key`]; entries within a bucket are confirmed by
    /// full signature walk.
    entries: HashMap<u64, Vec<CacheEntry>>,
    scratch: Vec<u64>,
    count: usize,
    /// Holding slot for delegated (verify / non-deferred) runs, so the
    /// borrowed return type is uniform across all paths.
    uncached: Option<Optimized>,
}

impl OptimizerCache {
    /// Number of distinct graph structures cached.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when no optimised graphs have been cached yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// An optimised graph borrowed from an [`OptimizerCache`] entry.
pub struct CachedOptimized<'c> {
    /// The optimised tape (owned by the cache; patched per call).
    pub tape: &'c Tape,
    /// The root node's position on the optimised tape.
    pub root: Var,
    /// Pass counts from the run that filled this entry (replays apply the
    /// identical rewrites, so the counters hold for every hit).
    pub report: &'c OptimizeReport,
}

fn pass_flags(cfg: &OptimizeConfig) -> u8 {
    u8::from(cfg.dce) | u8::from(cfg.cse) << 1 | u8::from(cfg.fold) << 2 | u8::from(cfg.fuse) << 3
}

/// Cheap bucket key: structure is confirmed by `sig_matches` afterwards,
/// so this only needs to spread genuinely different geometries.
fn cheap_key(tape: &Tape, root: Var) -> u64 {
    ((root.index() as u64) << 32) ^ (tape.len() as u64)
}

/// [`optimize_owned`] behind a decisions-and-tape cache: a deferred tape
/// whose plan signature (and pass selection) matches a prior call reuses
/// that call's optimised tape wholesale — fresh `Input` values, op
/// payloads, and re-evaluated fold constants are patched in place, and
/// planning/emission are skipped entirely.
///
/// Soundness of a replay rests on the signature walk plus three checks
/// over the *fresh* tape (`decisions_valid`): every cached CSE merge's
/// payload must still compare bitwise-equal, every cached identity
/// elision must still derive from the current operand values, and the
/// constant-fold gate (the absint finiteness proof) must still hold.
/// Everything else the decisions encode — fusions, liveness, DCE, all
/// wiring — is purely structural and pinned by signature equality. Any
/// failed check falls back to a full planning run, which refreshes the
/// cache. Eager tapes delegate to [`optimize_owned`] (their recorded
/// values would go stale inside a patched cache), and `cfg.verify`
/// delegates to [`optimize`]; both still return through the cache's
/// holding slot so the borrowed result type is uniform.
///
/// # Panics
/// Panics if `root` is not a node of `tape`, or if the tape recorded a
/// shape violation (with the first violation's message): a violation need
/// not change the plan signature (an out-of-range `gather_rows` index
/// keeps its output shape), so a violating tape must never reach a cached
/// entry's patch path.
pub fn optimize_with_cache<'c>(
    cache: &'c mut OptimizerCache,
    mut tape: Tape,
    root: Var,
    ps: &ParamStore,
    cfg: &OptimizeConfig,
) -> CachedOptimized<'c> {
    tape.assert_no_violations("optimize_with_cache");
    if cfg.verify || !tape.is_inference() {
        let opt = if cfg.verify {
            optimize(&tape, root, ps, cfg)
        } else {
            optimize_owned(tape, root, ps, cfg)
        };
        let o = cache.uncached.insert(opt);
        return CachedOptimized { tape: &o.tape, root: o.root, report: &o.report };
    }
    assert!(root.index() < tape.len(), "optimize: root is not a node of this tape");
    let key = cheap_key(&tape, root);
    let flags = pass_flags(cfg);
    let pos = cache.entries.get(&key).and_then(|bucket| {
        bucket.iter().position(|e| {
            e.flags == flags
                && crate::plan::sig_matches(&tape, root, &e.sig)
                && decisions_valid(&e.dec, &tape, ps)
        })
    });
    match pos {
        Some(ix) => {
            // Replay: re-prove the value-dependent facts held (done above),
            // then refresh only what a new example changes — `Input`
            // bits, op payloads, fold results. Structure, wiring, and the
            // executor's plan signature are untouched.
            let folded = {
                let e = &cache.entries[&key][ix];
                scratch_fold_values(&tape, &e.dec.plan, ps)
            };
            let e = &mut cache.entries.get_mut(&key).expect("bucket located above")[ix];
            patch_entry(e, &mut tape, folded);
            CachedOptimized { tape: &e.tape, root: e.root, report: &e.report }
        }
        None => {
            let nodes_before = tape.len();
            let flops_before =
                if cfg.certificates { cost_analysis(&tape, 1).total_flops } else { 0 };
            cache.scratch.clear();
            crate::plan::signature_into(&tape, root, &mut cache.scratch);
            let mut src = Owned(tape);
            let mut out = run_passes(&mut src, root, ps, cfg, &HashSet::new());
            let plan = std::mem::take(&mut out.plan);
            let merge_with = std::mem::take(&mut out.merge_with);
            let maps = patch_maps(src.tape(), &plan, &merge_with, &out.map);
            let opt = finish(out, nodes_before, flops_before, cfg.certificates, false, false);
            if cache.count >= CACHE_CAP {
                // Runaway shape diversity: reset rather than grow without
                // bound (mirrors the arena executor's plan-cache cap).
                cache.entries.clear();
                cache.count = 0;
            }
            cache.count += 1;
            let bucket = cache.entries.entry(key).or_default();
            bucket.push(CacheEntry {
                sig: std::mem::take(&mut cache.scratch),
                flags,
                dec: Decisions { plan, merge_with },
                tape: opt.tape,
                root: opt.root,
                report: opt.report,
                maps,
            });
            let e = bucket.last().expect("entry just pushed");
            CachedOptimized { tape: &e.tape, root: e.root, report: &e.report }
        }
    }
}

/// Revalidates cached decisions against a fresh tape whose plan signature
/// already matched: only the value-dependent facts need rechecking (see
/// [`optimize_with_cache`]).
fn decisions_valid(d: &Decisions, tape: &Tape, ps: &ParamStore) -> bool {
    let n = tape.len();
    if d.plan.alias.len() != n || d.merge_with.len() != n {
        return false;
    }
    for i in 0..n {
        if let Some(j) = d.plan.alias[i] {
            if elision_target(tape, i) != Some(j) {
                return false;
            }
        }
        if let Some(j) = d.merge_with[i] {
            if !payload_eq(tape, i, j) {
                return false;
            }
        }
    }
    if d.plan.fold_ok.iter().any(|&f| f) {
        // Only deferred tapes reach here, so this is the same proof
        // obligation as deferred fold planning: every node the scratch
        // evaluation will run an eager kernel for is itself fold_ok (fold
        // support closes over fold_ok nodes and Input leaves, and a
        // non-finite Input poisons its consumers' observed intervals), so
        // proving the fold_ok set finite and NaN-free re-arms the
        // sentinel-safety argument per call.
        let cfg_iv =
            AbsintConfig { inputs: SeedMode::Observed, params: SeedMode::Box(f64::INFINITY) };
        let iv = propagate(tape, ps, &cfg_iv);
        for (ok, range) in d.plan.fold_ok.iter().zip(&iv) {
            if *ok && !(range.finite && range.nan_free) {
                return false;
            }
        }
    }
    true
}

/// `true` when nodes `i` and `j` — same op tag and shape, both pinned by
/// the plan signature — carry bitwise-identical payloads: the exact
/// condition under which a cached CSE merge of `i` into `j` is still
/// value-preserving on a fresh tape. Mirrors the payload words of
/// [`cse_key`], including its refuse-to-merge cases.
fn payload_eq(tape: &Tape, i: usize, j: usize) -> bool {
    let bits_eq = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    let (a, b) = (tape.op_at(i), tape.op_at(j));
    match (a, b) {
        (Op::Dropout { .. }, _) | (_, Op::Dropout { .. }) => false,
        (Op::Input, Op::Input) => {
            let (x, y) = (tape.node_value(i), tape.node_value(j));
            !x.is_placeholder()
                && !y.is_placeholder()
                && !x.is_empty()
                && x.len() <= CSE_LEAF_ELEMS
                && x.shape() == y.shape()
                && bits_eq(x.as_slice(), y.as_slice())
        }
        (Op::Param(p), Op::Param(q)) => p.index() == q.index(),
        (Op::Scale(_, p), Op::Scale(_, q))
        | (Op::AddScalar(_, p), Op::AddScalar(_, q))
        | (Op::LeakyRelu(_, p), Op::LeakyRelu(_, q)) => p.to_bits() == q.to_bits(),
        (Op::LayerNorm { eps: p, .. }, Op::LayerNorm { eps: q, .. }) => p.to_bits() == q.to_bits(),
        (Op::SliceCols { start: s1, len: l1, .. }, Op::SliceCols { start: s2, len: l2, .. })
        | (Op::SliceRows { start: s1, len: l1, .. }, Op::SliceRows { start: s2, len: l2, .. }) => {
            s1 == s2 && l1 == l2
        }
        (Op::GatherRows { indices: p, .. }, Op::GatherRows { indices: q, .. }) => p == q,
        (Op::CrossEntropyLogits { targets: p, .. }, Op::CrossEntropyLogits { targets: q, .. }) => {
            p == q
        }
        (
            Op::WeightedCrossEntropyLogits { targets: tp, weights: wp, .. },
            Op::WeightedCrossEntropyLogits { targets: tq, weights: wq, .. },
        ) => tp == tq && bits_eq(wp, wq),
        (Op::BceWithLogits { targets: p, .. }, Op::BceWithLogits { targets: q, .. }) => {
            bits_eq(p, q)
        }
        (Op::MseLoss { target: p, .. }, Op::MseLoss { target: q, .. }) => {
            p.len() <= CSE_LEAF_ELEMS
                && p.shape() == q.shape()
                && bits_eq(p.as_slice(), q.as_slice())
        }
        // Payload-free ops merge on structure alone; the tag guard keeps
        // this arm honest should the signature contract ever loosen.
        _ => a.tag() == b.tag(),
    }
}

/// Derives the patch maps for a freshly cached entry: which old-tape slots
/// the next structurally identical example must refresh on the cached
/// optimised tape, and where they landed.
fn patch_maps(
    tape: &Tape,
    plan: &PlanData,
    merge_with: &[Option<usize>],
    map: &[Option<Var>],
) -> PatchMaps {
    let mut maps = PatchMaps { inputs: Vec::new(), folds: Vec::new(), payloads: Vec::new() };
    for i in 0..tape.len() {
        // Elided/merged nodes borrow their surviving twin's slot (the
        // twin's own map entry covers the patch); dead nodes have none.
        if plan.alias[i].is_some() || merge_with[i].is_some() {
            continue;
        }
        let Some(v) = map[i] else { continue };
        let new = v.index() as u32;
        if plan.fold_ok[i] {
            maps.folds.push((i as u32, new));
            continue;
        }
        if plan.fused[i].is_some() {
            // Fusion replacements (matmul-tn/nt, log-softmax) carry no
            // payload.
            continue;
        }
        match tape.op_at(i) {
            Op::Input => maps.inputs.push((i as u32, new)),
            Op::Param(_)
            | Op::Scale(..)
            | Op::AddScalar(..)
            | Op::LeakyRelu(..)
            | Op::LayerNorm { .. }
            | Op::SliceCols { .. }
            | Op::SliceRows { .. }
            | Op::GatherRows { .. }
            | Op::Dropout { .. }
            | Op::CrossEntropyLogits { .. }
            | Op::WeightedCrossEntropyLogits { .. }
            | Op::BceWithLogits { .. }
            | Op::MseLoss { .. } => maps.payloads.push((i as u32, new)),
            _ => {}
        }
    }
    maps
}

/// Refreshes a cached optimised tape in place from a fresh, structurally
/// identical source tape: `Input` values move across, op payloads are
/// copied, and the re-evaluated fold constants are written into their
/// slots. Wiring and shapes never change, so the arena executor's plan
/// signature for the cached tape stays stable across patches.
fn patch_entry(e: &mut CacheEntry, tape: &mut Tape, mut folded: Vec<Option<Tensor>>) {
    for &(old, new) in &e.maps.inputs {
        e.tape.put_node_value(new as usize, tape.take_node_value(old as usize));
    }
    for &(old, new) in &e.maps.folds {
        let v = folded[old as usize].take().expect("fold roots are re-evaluated on every replay");
        e.tape.put_node_value(new as usize, v);
    }
    for &(old, new) in &e.maps.payloads {
        patch_payload(e.tape.op_at_mut(new as usize), tape.op_at(old as usize));
    }
}

/// Copies the payload words of `src` into `dst`. Only payloads move — the
/// wiring stays put, which is the whole point of patching a cached tape
/// instead of re-emitting one. `clone_from` reuses the destination's
/// buffers (signature-matched payload vectors have equal lengths), so the
/// hot path stays allocation-free.
fn patch_payload(dst: &mut Op, src: &Op) {
    debug_assert_eq!(dst.tag(), src.tag(), "the signature match pins op tags");
    match (dst, src) {
        (Op::Param(p), Op::Param(q)) => *p = *q,
        (Op::Scale(_, p), Op::Scale(_, q))
        | (Op::AddScalar(_, p), Op::AddScalar(_, q))
        | (Op::LeakyRelu(_, p), Op::LeakyRelu(_, q)) => *p = *q,
        (Op::LayerNorm { eps: p, .. }, Op::LayerNorm { eps: q, .. }) => *p = *q,
        (Op::SliceCols { start: s1, len: l1, .. }, Op::SliceCols { start: s2, len: l2, .. })
        | (Op::SliceRows { start: s1, len: l1, .. }, Op::SliceRows { start: s2, len: l2, .. }) => {
            *s1 = *s2;
            *l1 = *l2;
        }
        (Op::GatherRows { indices: p, .. }, Op::GatherRows { indices: q, .. }) => p.clone_from(q),
        (Op::Dropout { mask: p, .. }, Op::Dropout { mask: q, .. }) => p.clone_from(q),
        (Op::CrossEntropyLogits { targets: p, .. }, Op::CrossEntropyLogits { targets: q, .. }) => {
            p.clone_from(q);
        }
        (
            Op::WeightedCrossEntropyLogits { targets: tp, weights: wp, .. },
            Op::WeightedCrossEntropyLogits { targets: tq, weights: wq, .. },
        ) => {
            tp.clone_from(tq);
            wp.clone_from(wq);
        }
        (Op::BceWithLogits { targets: p, .. }, Op::BceWithLogits { targets: q, .. }) => {
            p.clone_from(q);
        }
        (Op::MseLoss { target: p, .. }, Op::MseLoss { target: q, .. }) => p.clone_from(q),
        _ => {}
    }
}

/// Where re-emission gets leaf values from: borrowed sources clone them,
/// owned sources move them out (leaving same-shape placeholders, so the
/// post-emission shape certification still reads the original geometry).
trait TapeSource {
    fn tape(&self) -> &Tape;
    fn grab(&mut self, i: usize) -> Tensor;
}

struct Borrowed<'a>(&'a Tape);

impl TapeSource for Borrowed<'_> {
    fn tape(&self) -> &Tape {
        self.0
    }
    fn grab(&mut self, i: usize) -> Tensor {
        self.0.node_value(i).clone()
    }
}

struct Owned(Tape);

impl TapeSource for Owned {
    fn tape(&self) -> &Tape {
        &self.0
    }
    fn grab(&mut self, i: usize) -> Tensor {
        self.0.take_node_value(i)
    }
}

fn optimize_impl<S: TapeSource>(
    src: &mut S,
    root: Var,
    ps: &ParamStore,
    cfg: &OptimizeConfig,
) -> Optimized {
    assert!(root.index() < src.tape().len(), "optimize: root is not a node of this tape");
    let nodes_before = src.tape().len();
    let track_cost = cfg.certificates || cfg.verify;
    let flops_before = if track_cost { cost_analysis(src.tape(), 1).total_flops } else { 0 };

    let mut fallback = false;
    let mut out = run_passes(src, root, ps, cfg, &HashSet::new());
    if cfg.verify {
        let ok = verify_intervals(src.tape(), ps, &mut out);
        if !ok || out.shape_mismatches > 0 {
            // Reject, don't trust: suppress exactly the rewrites whose
            // certificates failed and re-plan.
            let blacklist: HashSet<usize> =
                out.certificates.iter().filter(|c| !c.valid()).map(|c| c.old_index).collect();
            out = run_passes(src, root, ps, cfg, &blacklist);
            let ok = verify_intervals(src.tape(), ps, &mut out);
            if !ok || out.shape_mismatches > 0 {
                fallback = true;
                out = run_passes(src, root, ps, &OptimizeConfig::disabled(), &HashSet::new());
                verify_intervals(src.tape(), ps, &mut out);
            }
        }
    }
    finish(out, nodes_before, flops_before, track_cost, cfg.verify, fallback)
}

/// Assembles the final [`Optimized`] from one emission sweep's output.
fn finish(
    out: PassOutput,
    nodes_before: usize,
    flops_before: u64,
    track_cost: bool,
    verified: bool,
    fallback: bool,
) -> Optimized {
    let PassOutput {
        tape: mut new_tape,
        root: new_root,
        certificates,
        removed_dead,
        merged_cse,
        folded,
        fused,
        elided,
        shape_mismatches,
        plan: _,
        merge_with: _,
        map: _,
    } = out;
    new_tape.mark_optimized();
    let flops_after = if track_cost { cost_analysis(&new_tape, 1).total_flops } else { 0 };
    let report = OptimizeReport {
        nodes_before,
        nodes_after: new_tape.len(),
        flops_before,
        flops_after,
        removed_dead,
        merged_cse,
        folded,
        fused,
        elided,
        shape_mismatches,
        verified,
        fallback,
        certificates,
    };
    Optimized { tape: new_tape, root: new_root, report }
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
    /// The planning result — harvested by [`optimize_with_cache`] to seed
    /// its decisions cache.
    plan: PlanData,
    /// `merge_with[i] = Some(j)`: CSE merged node `i` into its earlier
    /// structural twin `j`.
    merge_with: Vec<Option<usize>>,
    /// Old-index → optimised-index for every surviving node.
    map: Vec<Option<Var>>,
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

fn run_passes<S: TapeSource>(
    src: &mut S,
    root: Var,
    ps: &ParamStore,
    cfg: &OptimizeConfig,
    blacklist: &HashSet<usize>,
) -> PassOutput {
    let n = src.tape().len();
    let eager = !src.tape().is_inference();

    // ---- Planning (borrows the source tape immutably throughout) ----------
    let planned = plan_passes(src.tape(), root, ps, cfg, blacklist);
    let plan = &planned;
    let (fused, alias, fold_ok, live) = (&plan.fused, &plan.alias, &plan.fold_ok, &plan.live);
    let mut folded_vals = scratch_fold_values(src.tape(), plan, ps);
    let mut merge_with: Vec<Option<usize>> = vec![None; n];

    // ---- Emission ---------------------------------------------------------
    let mut out = src.tape().mode_like();
    let mut map: Vec<Option<Var>> = vec![None; n];
    // CSE buckets by key hash; on a bucket hit the candidate's key is
    // recomputed into a reused scratch buffer and compared in full, so a
    // hash collision can never merge distinct computations — and the
    // common miss path allocates nothing per node.
    let mut cse = BucketMap::default();
    let (mut key_a, mut key_b): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    let collect = cfg.certificates || cfg.verify;
    let mut certificates = Vec::new();
    let (mut removed_dead, mut merged_cse, mut folded, mut fused_count, mut elided) =
        (0, 0, 0, 0, 0);

    for i in 0..n {
        if alias[i].is_some() {
            let j = resolve(alias, i);
            if let Some(mv) = map[j] {
                map[i] = Some(mv);
                elided += 1;
                if collect {
                    certificates.push(make_cert(src.tape(), "elide-identity", i, Some((&out, mv))));
                }
            } else {
                removed_dead += 1;
                if collect {
                    certificates.push(make_cert(src.tape(), "dce", i, None));
                }
            }
            continue;
        }
        if !live[i] {
            removed_dead += 1;
            if collect {
                certificates.push(make_cert(src.tape(), "dce", i, None));
            }
            continue;
        }
        if fold_ok[i] {
            let value = if eager {
                src.grab(i)
            } else {
                folded_vals[i].take().expect("live fold root was evaluated")
            };
            let v = out.input(value);
            map[i] = Some(v);
            folded += 1;
            if collect {
                certificates.push(make_cert(src.tape(), "constant-fold", i, Some((&out, v))));
            }
            continue;
        }
        let mut hit = None;
        let mut hit_src = None;
        let mut key_hash = None;
        if cfg.cse && !blacklist.contains(&i) {
            let tape = src.tape();
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
                            hit_src = Some(j);
                            break;
                        }
                    }
                }
            }
        }
        if let Some(mv) = hit {
            map[i] = Some(mv);
            if let Some(j) = hit_src {
                merge_with[i] = Some(j);
            }
            merged_cse += 1;
            if collect {
                certificates.push(make_cert(src.tape(), "cse", i, Some((&out, mv))));
            }
            continue;
        }
        // `Input` leaves carry the only values that survive onto the new
        // tape; grab them through the source (clone or move) instead of
        // the always-cloning `emit_op` dispatch.
        let v = if fused[i].is_none() && matches!(src.tape().op_at(i), Op::Input) {
            let value = src.grab(i);
            out.input(value)
        } else {
            let tape = src.tape();
            let m = |v: Var| {
                map[resolve(alias, v.index())].expect("inputs are emitted before their consumers")
            };
            emit_op(&mut out, tape, i, eff(fused, tape, i), &m, ps)
        };
        map[i] = Some(v);
        if let Some(h) = key_hash {
            cse.entry(h).or_default().push((i, v));
        }
        if fused[i].is_some() {
            fused_count += 1;
            if collect {
                let rule = match &fused[i] {
                    Some(Op::MatmulTn(..)) => "fuse-matmul-tn",
                    Some(Op::MatmulNt(..)) => "fuse-matmul-nt",
                    _ => "fuse-log-softmax",
                };
                certificates.push(make_cert(src.tape(), rule, i, Some((&out, v))));
            }
        }
    }

    // Always-on shape certification: every surviving node's inferred shape
    // on the optimised tape must equal the original's, and re-emission must
    // not have introduced shape violations the original didn't have.
    // Vacated owned-source slots keep their shape, so this holds after
    // moves too; it also subsumes the per-certificate shape checks (every
    // rewrite target is a mapped node), keeping the gate exact when
    // certificate records are off.
    let mut shape_mismatches = certificates.iter().filter(|c| !c.shape_ok).count();
    for (i, mv) in map.iter().enumerate() {
        if let Some(v) = mv {
            if out.value(*v).shape() != src.tape().node_value(i).shape() {
                shape_mismatches += 1;
            }
        }
    }
    shape_mismatches +=
        out.shape_violations().len().saturating_sub(src.tape().shape_violations().len());

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
        plan: planned,
        merge_with,
        map,
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
#[derive(Default)]
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
            // they seed as unbounded — no store scan on the hot path.
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

/// The operand node `i` is an exact bitwise identity of, if any — the one
/// oracle behind elision planning *and* decisions-cache revalidation.
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
/// vector and the hot path allocates nothing.
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
    fn cse_merges_param_reads_and_twin_ops() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::from_rows(&[vec![0.3, -0.7]]));
        let mut t = Tape::new();
        let w1 = t.param(&ps, w);
        let w2 = t.param(&ps, w);
        let a = t.add(w1, w2);
        let s1 = t.sigmoid(a);
        let s2 = t.sigmoid(a);
        let prod = t.mul(s1, s2);
        let root = t.sum_all(prod);

        let opt = optimize(&t, root, &ps, &OptimizeConfig::default());
        assert!(opt.report.merged_cse >= 2, "param re-read and twin sigmoid should merge");
        let names = op_names(&opt.tape);
        assert_eq!(names.iter().filter(|n| **n == "param").count(), 1);
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
        assert!(opt.tape.is_optimized());
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
        // Same plan signature as the cached entry: only the refusal keeps
        // the bad index off the patch path.
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
