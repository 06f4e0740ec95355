//! Interval abstract interpretation over tapes: per-node value-range
//! proofs, numerical-safety findings, and quantisation feasibility.
//!
//! [`propagate`] runs one forward pass over a [`Tape`] in a non-relational
//! interval domain: every node gets an [`Interval`] — real bounds
//! `[lo, hi]` plus two element facts, `finite` (no `±inf` element) and
//! `nan_free` (no NaN element). Transfer functions are **sound for the
//! `f32` kernels**: all arithmetic runs in `f64`, bounds are rounded
//! outward to cover `f32` rounding (per-op relative slack for single
//! correctly-rounded kernels; magnitude-scaled slack for `k`-term
//! accumulations, where cancellation error scales with the largest term,
//! not the result), results past `f32::MAX` become attainable infinities,
//! and positive lower bounds inside the subnormal flush region collapse to
//! zero (a tensor "proven positive" must stay positive *as executed*).
//! The per-op soundness proptest and the whole-model containment test
//! (`tests/absint_containment.rs`) pin this discipline down empirically.
//!
//! The pass reads only shapes, `Input` leaf values and the store, so it
//! runs on deferred tapes ([`Tape::inference`]) whose other nodes are
//! storage-free placeholders: term counts come from shapes, never from a
//! value's length.
//!
//! Two seeding modes cover the two audit questions ([`AbsintConfig`]):
//! symbolic boxes (`inputs in [-B, B]`: proofs that hold for every input in
//! the box) and *observed* seeds that read concrete per-tensor min/max
//! from the recorded input values and the [`ParamStore`] — point a
//! checkpoint's store at the pass and the proofs are weight-aware.
//!
//! [`audit_graph`] turns the intervals into an [`AuditReport`]: per-node
//! proven ranges, overflow / underflow / NaN-risk findings attributed to
//! the op that *introduces* the risk (an `exp` whose proven input upper
//! bound exceeds ~88.7 fires once, not at every downstream consumer), and
//! a quantisation feasibility table classifying every tensor reachable
//! from the root as int8 (affine scale/zero-point from the proven range),
//! f16 (bounded, but too wide for an 8-bit grid), or f32-required
//! (unbounded or NaN-risky). The lint engine's stability rules
//! ([`crate::lint`]) run on these same intervals — one bounds engine.

use crate::lint::Severity;
use crate::params::ParamStore;
use crate::tape::{Op, Tape, Var};
use hiergat_tensor::Tensor;
use serde::Serialize;
use std::fmt;

/// Largest finite `f32`, in `f64`.
const F32_MAX: f64 = f32::MAX as f64;
/// Positive values below this may flush to zero in `f32` (subnormal floor
/// with margin): a proven-positive bound cannot survive the flush.
const F32_TINY: f64 = 1.0e-44;
/// `f32` machine epsilon, in `f64`.
const EPS32: f64 = f32::EPSILON as f64;
/// `exp` overflows `f32` once its input exceeds `ln(f32::MAX)` ≈ 88.72;
/// the audit (and the `naked-exp` lint) use this with a safety margin.
pub const EXP_OVERFLOW_BOUND: f64 = 88.0;
/// Largest finite `f16` magnitude.
const F16_MAX: f64 = 65504.0;
/// A tensor is int8-eligible when its affine scale `(hi-lo)/255` stays
/// below this: worst-case rounding error `scale/2` ≤ 1/16, tight enough
/// for embeddings, attention weights, and probabilities.
const INT8_MAX_SCALE: f64 = 0.125;

/// Proven facts about one tensor: real bounds on its non-NaN elements plus
/// element-level finiteness/NaN freedom.
///
/// `lo`/`hi` bound every non-NaN element; `lo = -inf` / `hi = +inf` mean
/// "unbounded in that direction". `finite` asserts no element is `±inf`
/// even when the *bounds* are infinite (an unbounded-but-finite seed);
/// `nan_free` asserts no element is NaN (NaN carries no order, so it lives
/// outside the bounds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Interval {
    /// Greatest proven lower bound on every non-NaN element.
    pub lo: f64,
    /// Least proven upper bound on every non-NaN element.
    pub hi: f64,
    /// No element is `+inf` or `-inf`.
    pub finite: bool,
    /// No element is NaN.
    pub nan_free: bool,
}

impl Interval {
    /// Bounds with clean element facts (the caller asserts finiteness).
    pub fn bounded(lo: f64, hi: f64) -> Self {
        debug_assert!(lo <= hi, "interval bounds inverted: [{lo}, {hi}]");
        Self { lo, hi, finite: true, nan_free: true }
    }

    /// A single known value.
    pub fn point(v: f64) -> Self {
        Self::bounded(v, v)
    }

    /// Any finite `f32` — no magnitude bound, but no `±inf`/NaN either
    /// (the seed for inputs nothing is known about).
    pub fn unbounded() -> Self {
        Self { lo: f64::NEG_INFINITY, hi: f64::INFINITY, finite: true, nan_free: true }
    }

    /// Nothing proven at all: any value including `±inf` and NaN.
    pub fn top() -> Self {
        Self { lo: f64::NEG_INFINITY, hi: f64::INFINITY, finite: false, nan_free: false }
    }

    /// Smallest interval containing both operands (concat join).
    pub fn hull(&self, other: &Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            finite: self.finite && other.finite,
            nan_free: self.nan_free && other.nan_free,
        }
    }

    /// Both bounds are finite numbers.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Every element is provably `> 0` (requires NaN freedom: NaN is not
    /// positive).
    pub fn proven_positive(&self) -> bool {
        self.nan_free && self.lo > 0.0
    }

    /// Largest absolute bound (`inf` when unbounded).
    pub fn mag(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// `true` when the concrete value `v` is covered by this abstraction —
    /// the containment predicate the differential tests check.
    pub fn contains(&self, v: f32) -> bool {
        if v.is_nan() {
            return !self.nan_free;
        }
        if v.is_infinite() && self.finite {
            return false;
        }
        self.lo <= f64::from(v) && f64::from(v) <= self.hi
    }

    fn may_pos_inf(&self) -> bool {
        !self.finite && self.hi == f64::INFINITY
    }

    fn may_neg_inf(&self) -> bool {
        !self.finite && self.lo == f64::NEG_INFINITY
    }

    fn may_inf(&self) -> bool {
        !self.finite
    }

    fn may_zero(&self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }
}

/// How leaf tensors (inputs or parameters) are seeded.
#[derive(Debug, Clone, Copy)]
pub enum SeedMode {
    /// Symbolic box `[-b, b]` (`b = inf` seeds "any finite f32").
    Box(f64),
    /// Concrete per-tensor min/max read from the recorded value (inputs)
    /// or the [`ParamStore`] (parameters) — the weight-aware mode.
    Observed,
}

impl SeedMode {
    fn seed(self, value: &Tensor) -> Interval {
        match self {
            Self::Box(b) if b.is_finite() => Interval::bounded(-b.abs(), b.abs()),
            Self::Box(_) => Interval::unbounded(),
            Self::Observed => {
                if value.is_placeholder() || value.is_empty() {
                    return Interval::unbounded();
                }
                if value.has_non_finite() {
                    return Interval::top();
                }
                Interval::bounded(f64::from(value.min()), f64::from(value.max()))
            }
        }
    }

    fn describe(self, what: &str) -> String {
        match self {
            Self::Box(b) if b.is_finite() => format!("{what} in [-{b}, {b}]"),
            Self::Box(_) => format!("{what} unbounded"),
            Self::Observed => format!("{what} observed"),
        }
    }
}

/// One abstract-interpretation run: how inputs and parameters are seeded.
#[derive(Debug, Clone, Copy)]
pub struct AbsintConfig {
    /// Seed for [`Op::Input`] leaves.
    pub inputs: SeedMode,
    /// Seed for [`Op::Param`] leaves.
    pub params: SeedMode,
}

impl AbsintConfig {
    /// Symbolic boxes on both leaf kinds: inputs in `[-input_bound,
    /// input_bound]`, parameters in `[-param_bound, param_bound]`.
    pub fn symbolic(input_bound: f64, param_bound: f64) -> Self {
        Self { inputs: SeedMode::Box(input_bound), params: SeedMode::Box(param_bound) }
    }

    /// Weight-aware: symbolic input box, concrete per-parameter min/max
    /// from the store the pass is given (load a checkpoint into it first).
    pub fn weight_aware(input_bound: f64) -> Self {
        Self { inputs: SeedMode::Box(input_bound), params: SeedMode::Observed }
    }

    /// Concrete min/max on both leaf kinds (differential testing against
    /// an eager tape whose inputs carry real data).
    pub fn observed() -> Self {
        Self { inputs: SeedMode::Observed, params: SeedMode::Observed }
    }

    /// No assumptions at all: every leaf is any finite `f32`. This is what
    /// the lint rules run under — a proof that survives it holds for every
    /// input the graph could ever see.
    pub fn unbounded() -> Self {
        Self { inputs: SeedMode::Box(f64::INFINITY), params: SeedMode::Box(f64::INFINITY) }
    }

    /// Human-readable seed description for report headers.
    pub fn describe(&self) -> String {
        format!("{}, {}", self.inputs.describe("inputs"), self.params.describe("params"))
    }
}

// ---------------------------------------------------------------------------
// Outward rounding

/// Relative slack covering `terms` dependent `f32` rounding steps (with a
/// safety factor; the soundness proptest is the empirical check).
fn rel(terms: usize) -> f64 {
    (terms as f64 + 4.0) * 4.0 * EPS32
}

fn widen_down(x: f64, r: f64) -> f64 {
    if x.is_finite() {
        x - (r * x.abs() + F32_TINY)
    } else {
        x
    }
}

fn widen_up(x: f64, r: f64) -> f64 {
    if x.is_finite() {
        x + (r * x.abs() + F32_TINY)
    } else {
        x
    }
}

/// Final clamp into the `f32` value domain. Bounds past `f32::MAX` become
/// attainable infinities (clearing `finite`); a positive lower bound in
/// the subnormal flush region collapses to 0 and is reported as `flushed`
/// (exact-math positivity that `f32` execution cannot guarantee).
fn seal(mut lo: f64, mut hi: f64, finite_in: bool, nan_free: bool) -> (Interval, bool) {
    debug_assert!(!lo.is_nan() && !hi.is_nan(), "sealed bounds must not be NaN");
    let mut finite = finite_in;
    if hi > F32_MAX {
        hi = f64::INFINITY;
        finite = false;
    }
    if lo < -F32_MAX {
        lo = f64::NEG_INFINITY;
        finite = false;
    }
    let flushed = lo > 0.0 && lo < F32_TINY;
    if flushed {
        lo = 0.0;
    }
    if hi < 0.0 && hi > -F32_TINY {
        hi = 0.0;
    }
    (Interval { lo: lo.min(hi), hi, finite, nan_free }, flushed)
}

/// Seals an elementwise result whose kernel is one correctly-rounded op
/// (error relative to the true result, so per-endpoint slack is sound).
fn seal_elem(lo: f64, hi: f64, terms: usize, finite_in: bool, nan_free: bool) -> (Interval, bool) {
    let r = rel(terms);
    seal(widen_down(lo, r), widen_up(hi, r), finite_in, nan_free)
}

/// Seals a `k`-term `f32` accumulation of elements in `[elem_lo, elem_hi]`.
///
/// Cancellation error scales with the largest *element* magnitude, not the
/// result: sign-indefinite unbounded elements lose both bounds, while
/// sign-definite sums keep a relative bound (partials cannot cancel). A
/// mixed-sign sum whose partials can overflow may produce `inf - inf`
/// NaN, so NaN freedom also requires staying inside `f32` range.
fn seal_accum(
    elem_lo: f64,
    elem_hi: f64,
    k: usize,
    finite_in: bool,
    nan_free: bool,
) -> (Interval, bool) {
    let kf = k.max(1) as f64;
    let g = rel(k.max(1));
    let mag = elem_lo.abs().max(elem_hi.abs());
    let lo = if elem_lo >= 0.0 {
        widen_down(kf * elem_lo, g)
    } else if mag.is_finite() {
        kf * elem_lo - g * kf * mag - F32_TINY
    } else {
        f64::NEG_INFINITY
    };
    let hi = if elem_hi <= 0.0 {
        widen_up(kf * elem_hi, g)
    } else if mag.is_finite() {
        kf * elem_hi + g * kf * mag + F32_TINY
    } else {
        f64::INFINITY
    };
    let one_signed = elem_lo >= 0.0 || elem_hi <= 0.0;
    let in_range = mag.is_finite() && kf * mag <= F32_MAX;
    seal(lo, hi, finite_in, nan_free && (one_signed || in_range))
}

// ---------------------------------------------------------------------------
// Interval arithmetic

fn add_iv(a: &Interval, b: &Interval, terms: usize) -> (Interval, bool) {
    let nan = a.nan_free
        && b.nan_free
        && !(a.may_pos_inf() && b.may_neg_inf())
        && !(a.may_neg_inf() && b.may_pos_inf());
    seal_elem(a.lo + b.lo, a.hi + b.hi, terms, a.finite && b.finite, nan)
}

fn sub_iv(a: &Interval, b: &Interval) -> (Interval, bool) {
    let nan = a.nan_free
        && b.nan_free
        && !(a.may_pos_inf() && b.may_pos_inf())
        && !(a.may_neg_inf() && b.may_neg_inf());
    seal_elem(a.lo - b.hi, a.hi - b.lo, 1, a.finite && b.finite, nan)
}

/// Endpoint product with the `0 * inf` corner defined as 0: sound for
/// bound search because any corner pairing an infinite endpoint with a
/// *nonzero* endpoint still contributes the infinity.
fn pmul(x: f64, y: f64) -> f64 {
    if x == 0.0 || y == 0.0 {
        0.0
    } else {
        x * y
    }
}

/// Raw product bounds (no rounding/sealing).
fn mul_bounds(a: &Interval, b: &Interval) -> (f64, f64) {
    let c = [pmul(a.lo, b.lo), pmul(a.lo, b.hi), pmul(a.hi, b.lo), pmul(a.hi, b.hi)];
    let lo = c.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

fn mul_nan_free(a: &Interval, b: &Interval) -> bool {
    a.nan_free && b.nan_free && !(a.may_inf() && b.may_zero()) && !(b.may_inf() && a.may_zero())
}

fn mul_iv(a: &Interval, b: &Interval) -> (Interval, bool) {
    let (lo, hi) = mul_bounds(a, b);
    seal_elem(lo, hi, 1, a.finite && b.finite, mul_nan_free(a, b))
}

/// `x * x` with the same tape node on both sides: never negative.
fn square_iv(a: &Interval) -> (Interval, bool) {
    let (lo, hi) = if a.lo >= 0.0 {
        (pmul(a.lo, a.lo), pmul(a.hi, a.hi))
    } else if a.hi <= 0.0 {
        (pmul(a.hi, a.hi), pmul(a.lo, a.lo))
    } else {
        (0.0, pmul(a.mag(), a.mag()))
    };
    seal_elem(lo, hi, 1, a.finite, a.nan_free)
}

fn div_iv(num: &Interval, den: &Interval) -> (Interval, bool) {
    if den.may_zero() || !den.nan_free {
        // x / 0 is ±inf in f32 (NaN at 0/0): no bound survives.
        return (Interval::top(), false);
    }
    // Sign-definite denominator: reciprocal is the monotone image
    // [1/hi, 1/lo] (1/±inf → ±0), then a product.
    let recip = Interval { lo: 1.0 / den.hi, hi: 1.0 / den.lo, finite: true, nan_free: true };
    let (lo, hi) = mul_bounds(num, &recip);
    // inf/inf NaN needs an infinite numerator; infinite *bounds* with
    // finite elements stay safe (huge/huge is finite).
    let nan = num.nan_free && (den.finite || !num.may_inf());
    seal_elem(lo, hi, 2, num.finite, nan)
}

// ---------------------------------------------------------------------------
// The forward pass

struct AbsState {
    iv: Vec<Interval>,
    /// Positivity lost to the f32 subnormal flush at this node.
    flushed: Vec<bool>,
}

/// Proven interval for every tape node, in tape order.
pub fn propagate(tape: &Tape, ps: &ParamStore, cfg: &AbsintConfig) -> Vec<Interval> {
    propagate_state(tape, ps, cfg).iv
}

#[allow(clippy::too_many_lines)] // one arm per tape op, by design
fn propagate_state(tape: &Tape, ps: &ParamStore, cfg: &AbsintConfig) -> AbsState {
    let n = tape.len();
    let mut iv: Vec<Interval> = Vec::with_capacity(n);
    let mut flushed: Vec<bool> = Vec::with_capacity(n);
    for i in 0..n {
        let g = |v: &Var| iv[v.index()];
        let gf = |v: &Var| flushed[v.index()];
        let shape = tape.value(Var::from_index(i)).shape();
        let (out, fl): (Interval, bool) = match tape.op_at(i) {
            Op::Input => (cfg.inputs.seed(tape.value(Var::from_index(i))), false),
            Op::Param(pid) => (cfg.params.seed(ps.value(*pid)), false),
            Op::Add(a, b) | Op::AddRow(a, b) => add_iv(&g(a), &g(b), 1),
            Op::AddCol(a, b) => {
                let (mut out, fl) = add_iv(&g(a), &g(b), 1);
                // Max-subtraction: add_col(x, scale(max_cols(x), -1)) is
                // x - max(x) computed in one correctly-rounded subtraction
                // per element — exactly ≤ 0. A non-relational domain
                // cannot see this (x and max(x) are independent
                // intervals), so the stabilizer pattern is matched
                // syntactically and intersected in.
                if let Op::Scale(m, k) = tape.op_at(b.index()) {
                    if *k == -1.0 {
                        if let Op::MaxCols(src) = tape.op_at(m.index()) {
                            if src.index() == a.index() {
                                out.hi = out.hi.min(0.0);
                                out.lo = out.lo.min(out.hi);
                            }
                        }
                    }
                }
                (out, fl)
            }
            Op::Sub(a, b) => sub_iv(&g(a), &g(b)),
            Op::Mul(a, b) | Op::MulCol(a, b) => {
                if a.index() == b.index() {
                    square_iv(&g(a))
                } else {
                    mul_iv(&g(a), &g(b))
                }
            }
            Op::Div(a, b) => div_iv(&g(a), &g(b)),
            Op::Scale(a, k) => {
                let x = g(a);
                let k = f64::from(*k);
                let (lo, hi) = mul_bounds(&x, &Interval::point(k));
                let nan = x.nan_free && !(k == 0.0 && x.may_inf());
                seal_elem(lo, hi, 1, x.finite, nan)
            }
            Op::AddScalar(a, k) => add_iv(&g(a), &Interval::point(f64::from(*k)), 1),
            // The tensor kernels evaluate every `a_ik * b_kj` term (no
            // zero-skipping), so `inf` meeting a possibly-zero operand
            // really can produce NaN at runtime — exactly what
            // `mul_nan_free` assumes.
            Op::Matmul(a, b) | Op::MatmulNt(a, b) | Op::MatmulTn(a, b) => {
                let (xa, xb) = (g(a), g(b));
                let k = match tape.op_at(i) {
                    Op::MatmulTn(..) => tape.value(*a).shape().0,
                    _ => tape.value(*a).shape().1,
                }
                .max(1);
                let (plo, phi) = mul_bounds(&xa, &xb);
                let fin = xa.finite && xb.finite;
                seal_accum(plo, phi, k, fin, mul_nan_free(&xa, &xb) && fin)
            }
            Op::SumAll(a) => {
                let x = g(a);
                let (r, c) = tape.value(*a).shape();
                let k = (r * c).max(1);
                seal_accum(x.lo, x.hi, k, x.finite, x.nan_free && x.finite)
            }
            Op::MeanAll(a) => {
                let x = g(a);
                let (r, c) = tape.value(*a).shape();
                let k = (r * c).max(1);
                let (sum, fl) = seal_accum(x.lo, x.hi, k, x.finite, x.nan_free && x.finite);
                let kf = k as f64;
                let (out, fl2) = seal_elem(sum.lo / kf, sum.hi / kf, 1, sum.finite, sum.nan_free);
                (out, fl || fl2)
            }
            Op::SumRows(a) => {
                let x = g(a);
                let k = tape.value(*a).shape().0.max(1);
                seal_accum(x.lo, x.hi, k, x.finite, x.nan_free && x.finite)
            }
            Op::SumCols(a) => {
                let x = g(a);
                let k = tape.value(*a).shape().1.max(1);
                seal_accum(x.lo, x.hi, k, x.finite, x.nan_free && x.finite)
            }
            Op::MaxCols(a) => {
                let x = g(a);
                if x.nan_free {
                    (x, gf(a))
                } else {
                    // The max fold skips NaN; a fully-NaN row yields the
                    // -inf init value, never NaN itself.
                    (
                        Interval { lo: f64::NEG_INFINITY, hi: x.hi, finite: false, nan_free: true },
                        false,
                    )
                }
            }
            Op::Softmax(a) => softmax_iv(&g(a), tape.value(*a).shape().1.max(1)),
            Op::LogSoftmax(a) => log_softmax_iv(&g(a), tape.value(*a).shape().1.max(1)),
            Op::Exp(a) => {
                let x = g(a);
                // exp never creates NaN from non-NaN input (exp(-inf)=0,
                // exp(inf)=inf); relative error grows with |x|.
                let r = rel(8 + x.mag().min(200.0) as usize);
                let raw_lo = x.lo.exp();
                let lo = widen_down(raw_lo, r).max(0.0);
                let hi = widen_up(x.hi.exp(), r);
                let (out, fl) = seal(lo, hi, hi <= F32_MAX, x.nan_free);
                (out, fl || (raw_lo > 0.0 && out.lo == 0.0))
            }
            Op::Ln(a) => ln_iv(&g(a)),
            Op::Sqrt(a) => {
                let x = g(a);
                if x.hi < 0.0 {
                    // Entirely negative: every element is NaN.
                    (Interval { lo: 0.0, hi: 0.0, finite: true, nan_free: false }, false)
                } else {
                    let lo = widen_down(x.lo.max(0.0).sqrt(), rel(1)).max(0.0);
                    let hi = widen_up(x.hi.sqrt(), rel(1));
                    seal(lo, hi, x.finite || x.hi.is_finite(), x.nan_free && x.lo >= 0.0)
                }
            }
            Op::Relu(a) => {
                let x = g(a);
                // The kernel is v.max(0.0): f32::max returns the other
                // operand on NaN, so relu *launders* NaN to 0 and the
                // output is always NaN-free.
                let lo = if x.nan_free { x.lo.max(0.0) } else { 0.0 };
                seal(lo, x.hi.max(0.0), x.hi <= F32_MAX, true)
            }
            Op::LeakyRelu(a, alpha) => {
                let x = g(a);
                let al = f64::from(*alpha);
                let mut c = vec![x.lo.max(0.0).min(x.hi), pmul(al, x.lo), pmul(al, x.hi)];
                if x.hi > 0.0 {
                    c.push(x.hi);
                }
                if x.lo > 0.0 {
                    c.push(x.lo);
                }
                let lo = c.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                seal_elem(lo, hi, 1, x.finite, x.nan_free)
            }
            Op::Tanh(a) => {
                let x = g(a);
                let lo = widen_down(x.lo.tanh(), rel(2)).max(-1.0);
                let hi = widen_up(x.hi.tanh(), rel(2)).min(1.0);
                (Interval { lo, hi, finite: true, nan_free: x.nan_free }, false)
            }
            Op::Sigmoid(a) => {
                let x = g(a);
                // sigmoid(±inf) is exactly 0/1 — no NaN even off-range.
                let raw_lo = sigmoid64(x.lo);
                let lo = widen_down(raw_lo, rel(4)).max(0.0);
                let hi = widen_up(sigmoid64(x.hi), rel(4)).min(1.0);
                let (out, fl) = seal(lo, hi, true, x.nan_free);
                // Exact-math positivity that f32 cannot hold: sigmoid
                // saturates to exactly 0 once exp(-x) overflows.
                (out, fl || (raw_lo > 0.0 && out.lo == 0.0))
            }
            Op::Gelu(a) => gelu_iv(&g(a)),
            Op::LayerNorm { x, gamma, beta, .. } => {
                let c = tape.value(*x).shape().1.max(1);
                layer_norm_iv(&g(x), &g(gamma), &g(beta), c)
            }
            Op::ConcatCols(parts) | Op::ConcatRows(parts) => {
                let mut out: Option<Interval> = None;
                let mut fl = false;
                for p in parts {
                    let pv = iv[p.index()];
                    fl = fl || flushed[p.index()];
                    out = Some(out.map_or(pv, |o| o.hull(&pv)));
                }
                (out.unwrap_or_else(Interval::top), fl)
            }
            Op::Transpose(a)
            | Op::SliceCols { x: a, .. }
            | Op::SliceRows { x: a, .. }
            | Op::GatherRows { table: a, .. } => (g(a), gf(a)),
            Op::Dropout { x, mask } => {
                let xv = g(x);
                let factor = if mask.is_empty() {
                    // No mask sampled: the keep-probability (and so the
                    // 1/keep scale) is unknown — any non-negative factor.
                    Interval { lo: 0.0, hi: f64::INFINITY, finite: true, nan_free: true }
                } else {
                    Interval::bounded(f64::from(mask.min()), f64::from(mask.max()))
                };
                let (lo, hi) = mul_bounds(&xv, &factor);
                seal_elem(lo, hi, 1, xv.finite, mul_nan_free(&xv, &factor))
            }
            Op::CrossEntropyLogits { logits, targets } => {
                ce_iv(&g(logits), tape.value(*logits).shape().1.max(1), targets.len(), 1.0)
            }
            Op::WeightedCrossEntropyLogits { logits, targets, weights } => {
                let wsum: f64 = weights.iter().map(|&w| f64::from(w)).sum();
                let wabs: f64 = weights.iter().map(|&w| f64::from(w).abs()).sum();
                let skew = if wsum > 0.0 { wabs / wsum } else { f64::INFINITY };
                ce_iv(&g(logits), tape.value(*logits).shape().1.max(1), targets.len(), skew)
            }
            Op::BceWithLogits { logits, targets } => bce_iv(&g(logits), targets),
            Op::MseLoss { pred, target } => {
                let p = g(pred);
                let t = SeedMode::Observed.seed(target);
                let (d, _) = sub_iv(&p, &t);
                let (sq, _) = square_iv(&d);
                let k = target.len().max(1);
                let (sum, fl) = seal_accum(sq.lo, sq.hi, k, sq.finite, sq.nan_free && sq.finite);
                let kf = k as f64;
                let (out, fl2) = seal_elem(sum.lo / kf, sum.hi / kf, 1, sum.finite, sum.nan_free);
                (out, fl || fl2)
            }
        };
        debug_assert!(
            out.lo <= out.hi,
            "inverted interval [{}, {}] at op #{i} ({}) of shape {shape:?}",
            out.lo,
            out.hi,
            tape.op_name(i)
        );
        iv.push(out);
        flushed.push(fl);
    }
    AbsState { iv, flushed }
}

fn sigmoid64(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Softmax rows: outputs in `[p_min, 1]`. The minimum probability is the
/// one-logit-at-`lo`, rest-at-`hi` configuration, `1/(1+(c-1)e^w)`; it
/// only survives narrow input widths (past ~80 the f32 numerator
/// underflows to exactly 0).
fn softmax_iv(x: &Interval, c: usize) -> (Interval, bool) {
    let nan = x.nan_free && x.finite;
    let w = x.hi - x.lo;
    let (lo, clamped) = if x.is_bounded() && w <= 80.0 {
        let p_min = 1.0 / (1.0 + (c.saturating_sub(1)) as f64 * w.exp());
        let lo = widen_down(p_min, rel(c + w as usize + 8)).max(0.0);
        (lo, lo == 0.0)
    } else {
        // Wide inputs: the shifted numerator exp(x - max) underflows to
        // exactly 0 in f32 — the zero probability is attainable.
        (0.0, x.is_bounded())
    };
    let (out, fl) = seal(lo, 1.0, true, nan);
    (out, fl || clamped)
}

/// Log-softmax rows: `[-(w + ln(c-1+e^-w)), 0]` for bounded inputs (the
/// exact worst case: one logit at `lo`, the rest at `hi`), with slack for
/// the kernel's shifted exp-sum-log pipeline.
fn log_softmax_iv(x: &Interval, c: usize) -> (Interval, bool) {
    let nan = x.nan_free && x.finite;
    if !x.is_bounded() {
        return (Interval { lo: f64::NEG_INFINITY, hi: 0.0, finite: false, nan_free: nan }, false);
    }
    let w = x.hi - x.lo;
    let lo_raw = -(w + ((c.saturating_sub(1)) as f64 + (-w).exp()).ln());
    let r = rel(c + 8) + rel(1) * x.mag();
    let lo = if lo_raw.is_finite() {
        lo_raw - (r * lo_raw.abs() + r * x.mag() + F32_TINY)
    } else {
        lo_raw
    };
    let hi = r * x.mag() + F32_TINY;
    seal(lo, hi, lo.is_finite(), nan)
}

fn ln_iv(x: &Interval) -> (Interval, bool) {
    if x.hi <= 0.0 {
        // ln(0) = -inf, ln(negative) = NaN: nothing bounded survives.
        let nan = x.nan_free && x.lo >= 0.0 && x.hi >= 0.0;
        return (
            Interval { lo: f64::NEG_INFINITY, hi: f64::NEG_INFINITY, finite: false, nan_free: nan },
            false,
        );
    }
    // ln is insensitive to relative input error (ln(x(1+e)) = ln x + e):
    // absolute eps-scale slack plus output-relative kernel slack.
    let abs = 16.0 * EPS32;
    let lo = if x.lo > 0.0 { widen_down(x.lo.ln(), rel(8)) - abs } else { f64::NEG_INFINITY };
    let hi = widen_up(x.hi.ln(), rel(8)) + abs;
    let finite = lo.is_finite() && x.finite;
    (Interval { lo, hi: hi.min(F32_MAX), finite, nan_free: x.nan_free && x.lo >= 0.0 }, false)
}

/// GELU (tanh approximation): endpoints are the only extrema candidates
/// except the interior dip (min ≈ -0.17 near x ≈ -0.75, covered by -0.2).
fn gelu_iv(x: &Interval) -> (Interval, bool) {
    let g64 = |v: f64| -> f64 {
        if v == f64::NEG_INFINITY {
            return 0.0; // limit; the interior-dip candidate covers the rest
        }
        let u = 0.797_884_6 * (v + 0.044_715 * v * v * v);
        0.5 * v * (1.0 + u.tanh())
    };
    let (a, b) = (g64(x.lo), g64(x.hi));
    let mut lo = a.min(b);
    let mut hi = a.max(b);
    if x.lo < 0.0 {
        lo = lo.min(-0.2);
        hi = hi.max(0.0);
    }
    // f32 gelu(-inf) evaluates 0.5 * -inf * 0 = NaN.
    let nan = x.nan_free && !x.may_neg_inf();
    seal_elem(lo, hi, 8, x.finite, nan)
}

/// LayerNorm: `|x̂| ≤ sqrt(c)` for the biased row variance (each squared
/// deviation is at most `c` times their mean), then the affine map by
/// gamma/beta intervals. Needs the row statistics themselves to stay in
/// f32 range: `c * mag²` within `f32::MAX`.
fn layer_norm_iv(x: &Interval, gamma: &Interval, beta: &Interval, c: usize) -> (Interval, bool) {
    let cf = c as f64;
    let stats_ok = x.nan_free && x.finite && x.is_bounded() && cf * x.mag() * x.mag() <= F32_MAX;
    if !stats_ok {
        return (Interval::top(), false);
    }
    let s = widen_up(cf.sqrt(), rel(c + 4));
    let xhat = Interval::bounded(-s, s);
    let (scaled, _) = mul_iv(&xhat, gamma);
    add_iv(&scaled, beta, 2)
}

/// Cross-entropy family: mean of per-row `-log p(target)`, each in
/// `[0, -ls_lo]` where `ls_lo` is the log-softmax lower bound. `skew` is
/// `Σ|w|/Σw` (1 for the unweighted mean); negative weights widen the
/// bounds symmetrically.
fn ce_iv(logits: &Interval, c: usize, rows: usize, skew: f64) -> (Interval, bool) {
    let (ls, _) = log_softmax_iv(logits, c);
    let nan = ls.nan_free && skew.is_finite();
    if ls.lo == f64::NEG_INFINITY || !skew.is_finite() {
        return (
            Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY, finite: false, nan_free: nan },
            false,
        );
    }
    let v = -ls.lo; // largest per-row contribution
    let hi = widen_up(skew * v, rel(rows + c + 8));
    let lo = if skew <= 1.0 { -F32_TINY } else { -hi };
    seal(lo, hi, true, nan)
}

/// Stable BCE-with-logits: per-row `max(z,0) - z*y + ln(1+e^-|z|)`, which
/// for `y in [0, 1]` lies in `[0, |z| + ln 2]`.
fn bce_iv(logits: &Interval, targets: &[f32]) -> (Interval, bool) {
    let tmax = targets.iter().map(|&t| f64::from(t).abs()).fold(0.0f64, f64::max);
    let in_range = targets.iter().all(|&t| (0.0..=1.0).contains(&t));
    let nan = logits.nan_free && logits.finite;
    if !logits.is_bounded() {
        let lo = if in_range { 0.0 } else { f64::NEG_INFINITY };
        return (Interval { lo, hi: f64::INFINITY, finite: false, nan_free: nan }, false);
    }
    let m = logits.mag();
    let hi = widen_up(m * (1.0 + tmax) + std::f64::consts::LN_2, rel(targets.len() + 8));
    let lo = if in_range { -F32_TINY } else { -hi };
    seal(lo, hi, true, nan)
}

// ---------------------------------------------------------------------------
// Audit report

/// Proven range of one tape node.
#[derive(Debug, Clone, Serialize)]
pub struct NodeRange {
    /// Tape index.
    pub op_index: usize,
    /// Diagnostic op name.
    pub op_name: String,
    /// Output shape.
    pub shape: (usize, usize),
    /// Proven lower bound (serialized as `null` when `-inf`).
    pub lo: f64,
    /// Proven upper bound (serialized as `null` when `+inf`).
    pub hi: f64,
    /// No element can be `±inf`.
    pub finite: bool,
    /// No element can be NaN.
    pub nan_free: bool,
}

/// One numerical-safety finding, attributed to the op introducing it.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Finding kind: `nan-risk`, `overflow-risk`, or `underflow-risk`.
    pub kind: String,
    /// Gate severity (NaN/overflow deny; underflow warns).
    pub severity: Severity,
    /// Tape index of the responsible op.
    pub op_index: usize,
    /// Diagnostic op name.
    pub op_name: String,
    /// Output shape of the responsible op.
    pub shape: (usize, usize),
    /// What can go wrong, in one sentence.
    pub message: String,
}

/// Quantisation feasibility of one tensor reachable from the audit root.
#[derive(Debug, Clone, Serialize)]
pub struct QuantEntry {
    /// Tape index.
    pub op_index: usize,
    /// Diagnostic op name.
    pub op_name: String,
    /// `int8`, `f16`, or `f32` (required).
    pub class: String,
    /// Affine scale `(max(hi, 0) - min(lo, 0)) / 255` — the proven
    /// interval extended to include zero so the `u8` zero point is always
    /// representable (0 unless int8).
    pub scale: f64,
    /// Affine zero point in `[0, 255]` (0 unless int8).
    pub zero_point: u8,
}

/// Per-class tensor counts over the reachable graph.
#[derive(Debug, Clone, Default, Serialize)]
pub struct QuantSummary {
    /// Tensors representable on an 8-bit affine grid.
    pub int8: usize,
    /// Bounded tensors too wide for int8 but within f16 range.
    pub f16: usize,
    /// Unbounded or NaN-risky tensors that must stay f32.
    pub f32_required: usize,
}

/// Everything one abstract-interpretation audit proves about a graph.
#[derive(Debug, Clone, Serialize)]
pub struct AuditReport {
    /// Nodes on the audited tape.
    pub node_count: usize,
    /// Human-readable seed description.
    pub seed: String,
    /// Nodes with both bounds finite.
    pub bounded_nodes: usize,
    /// Per-node proven ranges, in tape order.
    pub ranges: Vec<NodeRange>,
    /// Numerical-safety findings, in tape order.
    pub findings: Vec<Finding>,
    /// Quantisation feasibility per reachable tensor, in tape order.
    pub quant: Vec<QuantEntry>,
    /// Per-class counts over `quant`.
    pub quant_summary: QuantSummary,
}

impl AuditReport {
    /// Count of findings at exactly `severity`.
    pub fn count_at(&self, severity: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == severity).count()
    }

    /// `true` when no finding is at or above `gate` (`--deny` semantics,
    /// matching [`crate::lint::LintReport::is_clean_at`]).
    pub fn is_clean_at(&self, gate: Severity) -> bool {
        !self.findings.iter().any(|f| f.severity >= gate)
    }

    /// Pretty JSON via the vendored serializer (infinite bounds serialize
    /// as `null`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("audit report serializes infallibly")
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {} nodes, {} bounded; seed: {}",
            self.node_count, self.bounded_nodes, self.seed
        )?;
        writeln!(
            f,
            "  quant: {} int8, {} f16, {} f32-required (of {} reachable tensors)",
            self.quant_summary.int8,
            self.quant_summary.f16,
            self.quant_summary.f32_required,
            self.quant.len()
        )?;
        if self.findings.is_empty() {
            writeln!(f, "  findings: none")?;
        } else {
            for d in &self.findings {
                writeln!(
                    f,
                    "  {}[{}] op #{} ({}, {}x{}): {}",
                    d.kind,
                    d.severity.name(),
                    d.op_index,
                    d.op_name,
                    d.shape.0,
                    d.shape.1,
                    d.message
                )?;
            }
        }
        Ok(())
    }
}

/// Runs the interval pass and assembles the [`AuditReport`] for the graph
/// rooted at `root` (quantisation classifies only tensors reachable from
/// it — what a quantised session would materialize).
pub fn audit_graph(tape: &Tape, root: Var, ps: &ParamStore, cfg: &AbsintConfig) -> AuditReport {
    let n = tape.len();
    let state = propagate_state(tape, ps, cfg);
    let shape = |i: usize| tape.value(Var::from_index(i)).shape();

    let ranges: Vec<NodeRange> = (0..n)
        .map(|i| NodeRange {
            op_index: i,
            op_name: tape.op_name(i).to_string(),
            shape: shape(i),
            lo: state.iv[i].lo,
            hi: state.iv[i].hi,
            finite: state.iv[i].finite,
            nan_free: state.iv[i].nan_free,
        })
        .collect();

    let mut findings = Vec::new();
    for i in 0..n {
        let out = &state.iv[i];
        let ins = tape.op_at(i).inputs();
        let ins_nan = ins.iter().all(|v| state.iv[v.index()].nan_free);
        let ins_fin = ins.iter().all(|v| state.iv[v.index()].finite);
        let mut push = |kind: &str, severity: Severity, message: String| {
            findings.push(Finding {
                kind: kind.to_string(),
                severity,
                op_index: i,
                op_name: tape.op_name(i).to_string(),
                shape: shape(i),
                message,
            });
        };
        if !out.nan_free && ins_nan {
            let msg = match tape.op_at(i) {
                Op::Div(_, d) => format!(
                    "denominator range [{:.3e}, {:.3e}] contains 0: 0/0 is NaN",
                    state.iv[d.index()].lo,
                    state.iv[d.index()].hi
                ),
                Op::Ln(a) => format!(
                    "input lower bound {:.3e} is negative: ln of a negative value is NaN",
                    state.iv[a.index()].lo
                ),
                Op::Sqrt(a) => format!(
                    "input lower bound {:.3e} is negative: sqrt of a negative value is NaN",
                    state.iv[a.index()].lo
                ),
                _ => "op can produce NaN although every input is proven NaN-free".to_string(),
            };
            push("nan-risk", Severity::Deny, msg);
        } else if !out.finite && ins_fin {
            let msg = match tape.op_at(i) {
                Op::Exp(a) => format!(
                    "proven input upper bound {:.1} exceeds ln(f32::MAX) ≈ 88.7: \
                     exp overflows to +inf",
                    state.iv[a.index()].hi
                ),
                Op::Ln(a) => format!(
                    "input lower bound {:.3e} reaches 0: ln underflows to -inf",
                    state.iv[a.index()].lo
                ),
                Op::Div(..) => "denominator can reach 0: quotient overflows to ±inf".to_string(),
                Op::Input | Op::Param(_) => "seed tensor contains non-finite values".to_string(),
                _ => format!(
                    "proven bounds [{:.3e}, {:.3e}] exceed f32 range: result overflows to ±inf",
                    out.lo, out.hi
                ),
            };
            push("overflow-risk", Severity::Deny, msg);
        }
        // Positivity lost to the f32 subnormal flush only matters where a
        // consumer needs it.
        let needs_pos = match tape.op_at(i) {
            Op::Ln(a) => Some(a),
            Op::Div(_, d) => Some(d),
            _ => None,
        };
        if let Some(a) = needs_pos {
            let av = &state.iv[a.index()];
            if av.lo == 0.0 && state.flushed[a.index()] {
                push(
                    "underflow-risk",
                    Severity::Warn,
                    "input is positive in exact arithmetic but its lower bound \
                     flushes to zero in f32 subnormals"
                        .to_string(),
                );
            }
        }
    }

    // Quantisation table over the subgraph the root actually consumes.
    let reachable = tape.ancestors(root);
    let mut quant = Vec::new();
    let mut summary = QuantSummary::default();
    for (i, _) in reachable.iter().enumerate().take(n).filter(|&(_, r)| *r) {
        let (class, scale, zero_point) = classify(&state.iv[i]);
        match class {
            "int8" => summary.int8 += 1,
            "f16" => summary.f16 += 1,
            _ => summary.f32_required += 1,
        }
        quant.push(QuantEntry {
            op_index: i,
            op_name: tape.op_name(i).to_string(),
            class: class.to_string(),
            scale,
            zero_point,
        });
    }

    let bounded_nodes = state.iv.iter().filter(|v| v.is_bounded()).count();
    AuditReport {
        node_count: n,
        seed: cfg.describe(),
        bounded_nodes,
        ranges,
        findings,
        quant,
        quant_summary: summary,
    }
}

/// int8 / f16 / f32 classification with the affine int8 parameters.
///
/// The int8 grid is derived from the proven interval *extended to include
/// zero*: a `u8` zero point can only represent zero exactly when
/// `lo <= 0 <= hi`, and without the extension an interval like `[2, 5]`
/// would clamp its zero point to 0 and leave the grid covering `[0, 3]` —
/// values near `hi` would saturate with error far beyond `scale / 2`. With
/// the extension every in-interval value round-trips within half a grid
/// step (the executor's quantiser relies on this bound).
fn classify(iv: &Interval) -> (&'static str, f64, u8) {
    if !iv.finite || !iv.nan_free || !iv.is_bounded() {
        return ("f32", 0.0, 0);
    }
    let lo = iv.lo.min(0.0);
    let hi = iv.hi.max(0.0);
    let width = hi - lo;
    let scale = width / 255.0;
    if scale <= INT8_MAX_SCALE {
        let zp = if scale > 0.0 { (-lo / scale).round().clamp(0.0, 255.0) as u8 } else { 0 };
        return ("int8", scale, zp);
    }
    if iv.mag() <= F16_MAX {
        return ("f16", 0.0, 0);
    }
    ("f32", 0.0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(bound: f64) -> (Tape, ParamStore, Var, AbsintConfig) {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0xAB51);
        let w = ps.add("w", Tensor::rand_normal(3, 4, 0.0, 1.0, &mut rng));
        let mut t = Tape::inference();
        let wv = t.param(&ps, w);
        (t, ps, wv, AbsintConfig::symbolic(bound, bound))
    }

    #[test]
    fn sum_and_mean_term_counts_come_from_shapes_on_deferred_tapes() {
        // A deferred tape's relu is a storage-free placeholder: the term
        // count must come from its 4x4 shape, not its empty buffer.
        let record = |t: &mut Tape| {
            let x = t.input(Tensor::ones(4, 4));
            let r = t.relu(x);
            (t.sum_all(r), t.mean_all(r))
        };
        let ps = ParamStore::new();
        let mut eager = Tape::new();
        let (sum_e, mean_e) = record(&mut eager);
        let mut deferred = Tape::inference();
        let (sum_d, mean_d) = record(&mut deferred);
        let cfg = AbsintConfig::observed();
        let (ive, ivd) = (propagate(&eager, &ps, &cfg), propagate(&deferred, &ps, &cfg));
        assert!(ivd[sum_d.index()].contains(16.0), "{:?}", ivd[sum_d.index()]);
        assert_eq!(ivd[sum_d.index()], ive[sum_e.index()]);
        assert_eq!(ivd[mean_d.index()], ive[mean_e.index()]);
    }

    #[test]
    fn bounded_seed_flows_through_elementwise_chain() {
        let (mut t, ps, wv, cfg) = fixture(2.0);
        let h = t.tanh(wv);
        let s = t.add_scalar(h, 3.0);
        let iv = propagate(&t, &ps, &cfg);
        let out = iv[s.index()];
        // tanh([-2, 2]) = [-0.964, 0.964], shifted by 3.
        assert!(out.lo > 2.0 && out.lo < 2.1, "lo {}", out.lo);
        assert!(out.hi > 3.9 && out.hi < 4.0, "hi {}", out.hi);
        assert!(out.finite && out.nan_free);
        assert!(out.proven_positive());
    }

    #[test]
    fn exp_of_wide_box_loses_finiteness_but_not_nan_freedom() {
        let (mut t, ps, wv, cfg) = fixture(100.0);
        let e = t.exp(wv);
        let iv = propagate(&t, &ps, &cfg);
        let out = iv[e.index()];
        assert!(!out.finite, "exp(100) overflows f32");
        assert!(out.nan_free, "exp never creates NaN");
        assert!(out.lo >= 0.0);
    }

    #[test]
    fn max_subtraction_caps_unbounded_input_at_zero() {
        let (mut t, ps, wv, _) = fixture(2.0);
        let m = t.max_cols(wv);
        let neg = t.scale(m, -1.0);
        let shifted = t.add_col(wv, neg);
        let e = t.exp(shifted);
        let iv = propagate(&t, &ps, &AbsintConfig::unbounded());
        assert!(iv[shifted.index()].hi <= 0.0, "x - max(x) must cap at 0");
        let eo = iv[e.index()];
        assert!(eo.finite && eo.nan_free && eo.hi <= 1.001, "exp in ~[0,1]: {eo:?}");
    }

    #[test]
    fn division_by_interval_spanning_zero_is_top() {
        let (mut t, ps, wv, cfg) = fixture(2.0);
        let q = t.div(wv, wv); // same node: still spans zero as an interval
        let iv = propagate(&t, &ps, &cfg);
        assert!(!iv[q.index()].nan_free, "0/0 risk must clear nan_free");
    }

    #[test]
    fn division_by_proven_positive_denominator_stays_bounded() {
        let (mut t, ps, wv, cfg) = fixture(2.0);
        let sq = t.mul(wv, wv);
        let den = t.add_scalar(sq, 1.0); // [1, 5]
        let q = t.div(wv, den);
        let iv = propagate(&t, &ps, &cfg);
        let out = iv[q.index()];
        assert!(out.finite && out.nan_free, "{out:?}");
        assert!(out.lo >= -2.1 && out.hi <= 2.1, "{out:?}");
    }

    #[test]
    fn softmax_of_narrow_box_is_proven_positive() {
        let (mut t, ps, wv, cfg) = fixture(4.0);
        let s = t.softmax(wv);
        let iv = propagate(&t, &ps, &cfg);
        let out = iv[s.index()];
        assert!(out.proven_positive(), "narrow softmax min prob must survive: {out:?}");
        assert!(out.hi <= 1.0);
    }

    #[test]
    fn softmax_of_unbounded_input_keeps_probability_range() {
        let (mut t, ps, wv, _) = fixture(1.0);
        let s = t.softmax(wv);
        let iv = propagate(&t, &ps, &AbsintConfig::unbounded());
        let out = iv[s.index()];
        assert_eq!(out.lo, 0.0);
        assert!(out.hi <= 1.0 && out.finite);
    }

    #[test]
    fn layer_norm_bound_scales_with_row_width() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let w = ps.add("x", Tensor::rand_normal(2, 16, 0.0, 1.0, &mut rng));
        let gamma = ps.add("g", Tensor::ones(1, 16));
        let beta = ps.add("b", Tensor::zeros(1, 16));
        let mut t = Tape::inference();
        let (xv, gv, bv) = (t.param(&ps, w), t.param(&ps, gamma), t.param(&ps, beta));
        let lnv = t.layer_norm(xv, gv, bv, 1e-5);
        let iv = propagate(&t, &ps, &AbsintConfig::symbolic(8.0, 1.0));
        let out = iv[lnv.index()];
        assert!(out.finite && out.nan_free, "{out:?}");
        // |x̂| ≤ sqrt(16) = 4, times γ in [-1, 1], plus β in [-1, 1].
        assert!(out.hi <= 5.1 && out.lo >= -5.1, "{out:?}");
        assert!(out.hi >= 4.0, "bound must not be tighter than attainable: {out:?}");
    }

    #[test]
    fn sigmoid_of_very_negative_range_flushes_and_ln_reports_underflow() {
        let (mut t, ps, wv, _) = fixture(1.0);
        let shifted = t.add_scalar(wv, -150.0); // [-151, -149]
        let s = t.sigmoid(shifted);
        let l = t.ln(s);
        let cfg = AbsintConfig::symbolic(1.0, 1.0);
        let report = audit_graph(&t, l, &ps, &cfg);
        assert!(
            report.findings.iter().any(|f| f.kind == "underflow-risk"),
            "flushed positive bound feeding ln must warn: {report}"
        );
    }

    #[test]
    fn audit_flags_exp_overflow_with_input_bound_in_message() {
        let (mut t, ps, wv, cfg) = fixture(100.0);
        let e = t.exp(wv);
        let loss = t.mean_all(e);
        let report = audit_graph(&t, loss, &ps, &cfg);
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == "overflow-risk" && f.op_name == "exp")
            .expect("exp overflow finding");
        assert!(f.message.contains("88.7"), "{}", f.message);
        assert_eq!(f.severity, Severity::Deny);
        assert!(!report.is_clean_at(Severity::Deny));
    }

    #[test]
    fn clean_bounded_graph_audits_clean_and_classifies_int8() {
        let (mut t, ps, wv, cfg) = fixture(8.0);
        let h = t.tanh(wv);
        let s = t.softmax(h);
        let report = audit_graph(&t, s, &ps, &cfg);
        assert!(report.is_clean_at(Severity::Warn), "{report}");
        assert_eq!(report.quant_summary.f32_required, 0, "{report}");
        let sm = report.quant.iter().find(|q| q.op_name == "softmax").expect("softmax entry");
        assert_eq!(sm.class, "int8");
        assert!(sm.scale > 0.0 && sm.scale <= 1.0 / 255.0 + 1e-6);
    }

    #[test]
    fn wide_but_bounded_tensors_classify_f16_and_unbounded_f32() {
        let (mut t, ps, wv, _) = fixture(8.0);
        let wide = t.scale(wv, 4096.0); // [-32768, 32768]: too wide for int8
        let loss = t.mean_all(wide);
        let cfg = AbsintConfig::symbolic(8.0, 8.0);
        let report = audit_graph(&t, loss, &ps, &cfg);
        let w = report.quant.iter().find(|q| q.op_name == "scale").expect("scale entry");
        assert_eq!(w.class, "f16");
        let unbounded = audit_graph(&t, loss, &ps, &AbsintConfig::unbounded());
        assert!(unbounded.quant.iter().all(|q| q.class == "f32"));
    }

    #[test]
    fn weight_aware_seeding_reads_concrete_parameter_ranges() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::from_vec(1, 3, vec![-0.25, 0.5, 0.125]).expect("1x3 literal"));
        let mut t = Tape::inference();
        let wv = t.param(&ps, w);
        let iv = propagate(&t, &ps, &AbsintConfig::weight_aware(8.0));
        let out = iv[wv.index()];
        assert_eq!(out.lo, -0.25);
        assert_eq!(out.hi, 0.5);
        let sym = propagate(&t, &ps, &AbsintConfig::symbolic(8.0, 4.0));
        assert_eq!(sym[wv.index()].lo, -4.0);
    }

    #[test]
    fn quant_table_covers_only_reachable_nodes() {
        let (mut t, ps, wv, cfg) = fixture(2.0);
        let _dead = t.tanh(wv);
        let live = t.sigmoid(wv);
        let report = audit_graph(&t, live, &ps, &cfg);
        assert_eq!(report.node_count, 3);
        assert_eq!(report.quant.len(), 2, "param + sigmoid only");
        assert!(report.quant.iter().all(|q| q.op_name != "tanh"));
    }

    #[test]
    fn report_json_roundtrips_and_serializes_infinite_bounds_as_null() {
        let (mut t, ps, wv, _) = fixture(1.0);
        let e = t.exp(wv);
        let report = audit_graph(&t, e, &ps, &AbsintConfig::unbounded());
        let json = report.to_json();
        assert!(json.contains("\"quant_summary\""), "{json}");
        assert!(json.contains("\"findings\""), "{json}");
        assert!(json.contains("null"), "unbounded lo/hi must serialize as null: {json}");
    }

    #[test]
    fn contains_covers_nan_and_infinity_semantics() {
        let iv = Interval::bounded(-1.0, 1.0);
        assert!(iv.contains(0.5));
        assert!(!iv.contains(2.0));
        assert!(!iv.contains(f32::NAN));
        assert!(!iv.contains(f32::INFINITY));
        let top = Interval::top();
        assert!(top.contains(f32::NAN));
        assert!(top.contains(f32::NEG_INFINITY));
        let unb = Interval::unbounded();
        assert!(unb.contains(1e30));
        assert!(!unb.contains(f32::INFINITY));
    }
}
