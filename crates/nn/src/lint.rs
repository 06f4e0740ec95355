//! Graph lint engine: wiring-level rules over deferred tapes.
//!
//! [`crate::analyze`] proves shapes, gradient reachability, and cost. This
//! module answers the next question — *is the graph wired in a numerically
//! dangerous or wasteful way?* — with a pluggable rule engine producing
//! structured [`Diagnostic`]s: stable rule id, effective [`Severity`]
//! (deny/warn/allow with per-rule overrides), an op span (index, name,
//! shapes), a human message, and a fix-it hint. Reports render as text or
//! machine-readable JSON for the CLI gate and bench harnesses.
//!
//! # Rule catalogue
//!
//! Value facts (upper bounds, positivity) come from the interval abstract
//! interpreter ([`crate::absint`]) run with unbounded leaf seeds, so a
//! property proven here holds for *every* input the graph could see:
//! `tanh`/`sigmoid`/`softmax` outputs, max-subtracted rows
//! (`x - max_cols(x)`), epsilon shifts, and their compositions all carry
//! real proven ranges, not boolean flags.
//!
//! Numerical stability (deny by default):
//! * `naked-exp` — `exp` of an input whose proven upper bound exceeds
//!   ~88.7 (`exp` overflows `f32` to `+inf` past `ln(f32::MAX)`).
//! * `log-of-possibly-zero` — `ln` of a value not provably positive
//!   (`-inf` at zero, NaN below). An epsilon shift (`add_scalar` with a
//!   positive constant on a non-negative value) proves positivity, as does
//!   any interval the domain can bound away from zero.
//! * `log-softmax-unfused` — `ln(softmax(x))`: underflows for any row
//!   where one logit dominates; the fused `log_softmax` is exact.
//! * `div-missing-eps` — division whose denominator is not provably
//!   positive (the LayerNorm-by-variance failure mode).
//! * `dropout-in-eval` — dropout ops recorded on a tape linted as
//!   eval-mode; inference must never drop activations.
//!
//! Efficiency (warn by default):
//! * `unfused-transpose-matmul` — a materialized `transpose` consumed only
//!   by a `matmul` when the fused `matmul_tn`/`matmul_nt` kernel computes
//!   the same product without the copy.
//! * `concat-growth` — a deep chain of same-kind concats (each link
//!   recopies every earlier part, quadratic in the chain length).
//!
//! Gradient hygiene (warn by default):
//! * `frozen-param-reachable` — a frozen parameter still reachable from
//!   the loss: backward does full gradient work the optimizer then
//!   discards.
//! * `unused-subgraph` — computed-but-unconsumed subgraphs, grouped and
//!   reported once per sink (the per-node list lives in
//!   [`crate::analyze::GraphReport::unused_nodes`]).

use crate::params::ParamStore;
use crate::tape::{Op, Tape, Var};
use serde::Serialize;
use std::fmt;

/// How a triggered rule is treated by gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Rule disabled; no diagnostic is emitted.
    Allow,
    /// Reported; fails gates running with `--deny warn`.
    Warn,
    /// Reported; fails every gate.
    Deny,
}

impl Severity {
    /// Stable lowercase name (matches the CLI `--deny` argument).
    pub fn name(self) -> &'static str {
        match self {
            Self::Allow => "allow",
            Self::Warn => "warn",
            Self::Deny => "deny",
        }
    }

    /// Parses a CLI severity name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "allow" => Some(Self::Allow),
            "warn" => Some(Self::Warn),
            "deny" => Some(Self::Deny),
            _ => None,
        }
    }
}

/// Static description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable kebab-case identifier.
    pub id: &'static str,
    /// Severity when no override is configured.
    pub default_severity: Severity,
    /// One-line summary for `hiergat lint --rules`.
    pub summary: &'static str,
}

/// The builtin rule catalogue.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "naked-exp",
        default_severity: Severity::Deny,
        summary: "exp of an input with no proven upper bound (f32 overflow past ~88.7)",
    },
    RuleInfo {
        id: "log-of-possibly-zero",
        default_severity: Severity::Deny,
        summary: "ln of a value that may be zero or negative (-inf / NaN)",
    },
    RuleInfo {
        id: "log-softmax-unfused",
        default_severity: Severity::Deny,
        summary: "ln(softmax(x)) instead of the fused, underflow-free log_softmax",
    },
    RuleInfo {
        id: "div-missing-eps",
        default_severity: Severity::Deny,
        summary: "division by a denominator that is not provably positive (no epsilon)",
    },
    RuleInfo {
        id: "dropout-in-eval",
        default_severity: Severity::Deny,
        summary: "dropout active on an eval-mode tape",
    },
    RuleInfo {
        id: "unfused-transpose-matmul",
        default_severity: Severity::Warn,
        summary: "materialized transpose feeding only a matmul (fused matmul_tn/nt exists)",
    },
    RuleInfo {
        id: "concat-growth",
        default_severity: Severity::Warn,
        summary: "deep same-kind concat chain (quadratic recopying; concat once instead)",
    },
    RuleInfo {
        id: "frozen-param-reachable",
        default_severity: Severity::Warn,
        summary: "frozen parameter reachable from the loss (wasted backward work)",
    },
    RuleInfo {
        id: "unused-subgraph",
        default_severity: Severity::Warn,
        summary: "computed-but-unconsumed subgraph (dead forward work)",
    },
];

fn default_severity(id: &str) -> Severity {
    RULES.iter().find(|r| r.id == id).map_or(Severity::Warn, |r| r.default_severity)
}

/// Lint run configuration: tape mode plus per-rule severity overrides.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// `true` when the tape was recorded in training mode (dropout is
    /// legitimate there); `false` lints as an inference graph.
    pub training: bool,
    overrides: Vec<(String, Severity)>,
}

impl LintConfig {
    /// Config for a training-mode tape.
    pub fn training() -> Self {
        Self { training: true, overrides: Vec::new() }
    }

    /// Config for an eval/inference tape (dropout ops become diagnostics).
    pub fn eval() -> Self {
        Self { training: false, overrides: Vec::new() }
    }

    /// Overrides one rule's severity (e.g. downgrade to `Allow`).
    pub fn with_rule(mut self, id: &str, severity: Severity) -> Self {
        self.overrides.retain(|(r, _)| r != id);
        self.overrides.push((id.to_string(), severity));
        self
    }

    /// Effective severity of `id` under this config.
    pub fn severity_of(&self, id: &str) -> Severity {
        self.overrides
            .iter()
            .find(|(r, _)| r == id)
            .map_or_else(|| default_severity(id), |&(_, s)| s)
    }
}

/// One triggered rule, anchored to an op on the tape.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostic {
    /// Rule id (stable, kebab-case).
    pub rule: String,
    /// Effective severity after config overrides.
    pub severity: Severity,
    /// Tape index of the offending op.
    pub op_index: usize,
    /// Diagnostic name of the op (e.g. `"exp"`).
    pub op_name: String,
    /// Output shape of the offending op.
    pub out_shape: (usize, usize),
    /// Shapes of the op's tape inputs, in order.
    pub in_shapes: Vec<(usize, usize)>,
    /// What is wrong, in one sentence.
    pub message: String,
    /// How to fix it, in one sentence.
    pub fix: String,
}

/// Every diagnostic from one lint pass over one graph.
#[derive(Debug, Clone, Serialize)]
pub struct LintReport {
    /// Nodes on the linted tape.
    pub node_count: usize,
    /// Triggered rules, in tape order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Count of diagnostics at exactly `severity`.
    pub fn count_at(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// `true` when no diagnostic is at or above `gate` (so `gate = Warn`
    /// is the strict `--deny warn` mode).
    pub fn is_clean_at(&self, gate: Severity) -> bool {
        !self.diagnostics.iter().any(|d| d.severity >= gate)
    }

    /// Pretty JSON via the vendored serializer.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("lint report serializes infallibly")
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "  clean ({} nodes)", self.node_count);
        }
        for d in &self.diagnostics {
            writeln!(
                f,
                "  {}[{}] op #{} ({}, {}x{}): {}",
                d.rule,
                d.severity.name(),
                d.op_index,
                d.op_name,
                d.out_shape.0,
                d.out_shape.1,
                d.message
            )?;
            writeln!(f, "      fix: {}", d.fix)?;
        }
        Ok(())
    }
}

/// Lints the graph rooted at `loss` on any tape; callers record a deferred
/// one ([`crate::Tape::inference`]), since the rules read shapes and
/// proven intervals, never computed values.
pub fn lint_graph(tape: &Tape, loss: Var, ps: &ParamStore, cfg: &LintConfig) -> LintReport {
    let n = tape.len();
    let shape = |i: usize| tape.value(Var::from_index(i)).shape();

    // Consumer lists and loss reachability.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for v in tape.op_at(i).inputs() {
            consumers[v.index()].push(i);
        }
    }
    let reachable = tape.ancestors(loss);
    // Value facts come from the interval abstract interpreter under its
    // strongest assumption — every leaf is any finite f32 — so a property
    // proven here holds for every input the graph could ever see. The
    // rules read proven ranges instead of boolean flags: `naked-exp`
    // compares the proven input upper bound against the actual f32
    // overflow threshold, and the positivity rules accept any proof the
    // domain can make (epsilon shifts, squares-plus-eps, sigmoid/softmax
    // outputs with narrow inputs, bounded-activation compositions).
    let iv = crate::absint::propagate(tape, ps, &crate::absint::AbsintConfig::unbounded());

    let mut diagnostics = Vec::new();
    let mut emit = |rule: &str, i: usize, message: String, fix: String| {
        let severity = cfg.severity_of(rule);
        if severity == Severity::Allow {
            return;
        }
        diagnostics.push(Diagnostic {
            rule: rule.to_string(),
            severity,
            op_index: i,
            op_name: tape.op_name(i).to_string(),
            out_shape: shape(i),
            in_shapes: tape.op_inputs(i).into_iter().map(shape).collect(),
            message,
            fix,
        });
    };

    // Same-kind concat chain depth (for concat-growth).
    let mut concat_depth = vec![0usize; n];
    for i in 0..n {
        let same_kind = |p: &Var| -> usize {
            match (tape.op_at(i), tape.op_at(p.index())) {
                (Op::ConcatCols(_), Op::ConcatCols(_)) | (Op::ConcatRows(_), Op::ConcatRows(_)) => {
                    concat_depth[p.index()]
                }
                _ => 0,
            }
        };
        if let Op::ConcatCols(parts) | Op::ConcatRows(parts) = tape.op_at(i) {
            concat_depth[i] = 1 + parts.iter().map(same_kind).max().unwrap_or(0);
        }
    }

    for i in 0..n {
        match tape.op_at(i) {
            Op::Exp(a) if iv[a.index()].hi > crate::absint::EXP_OVERFLOW_BOUND => {
                emit(
                    "naked-exp",
                    i,
                    format!(
                        "exp of an input whose proven upper bound ({}) exceeds ~88.7 \
                         overflows f32 to +inf",
                        if iv[a.index()].hi.is_finite() {
                            format!("{:.1}", iv[a.index()].hi)
                        } else {
                            "unbounded".to_string()
                        }
                    ),
                    "subtract the per-row max first (max_cols + scale(-1) + add_col), \
                     or use softmax/log_softmax which stabilize internally"
                        .to_string(),
                );
            }
            Op::Ln(a) => {
                if matches!(tape.op_at(a.index()), Op::Softmax(_)) {
                    emit(
                        "log-softmax-unfused",
                        i,
                        "ln(softmax(x)) underflows to -inf whenever one logit dominates \
                         a row; the fused form never materializes the probabilities"
                            .to_string(),
                        "replace softmax followed by ln with the single log_softmax op \
                         (`hiergat optimize` applies this rewrite with a certificate)"
                            .to_string(),
                    );
                } else if !iv[a.index()].proven_positive() {
                    emit(
                        "log-of-possibly-zero",
                        i,
                        "ln of a value that is not provably positive produces -inf at \
                         zero and NaN below"
                            .to_string(),
                        "shift by a small epsilon (add_scalar(x, 1e-12)) after proving \
                         x is non-negative, or restructure to a fused log-domain op"
                            .to_string(),
                    );
                }
            }
            Op::Div(_, d) if !iv[d.index()].proven_positive() => {
                emit(
                    "div-missing-eps",
                    i,
                    "division by a denominator that is not provably positive; a \
                     zero variance or collapsed activation makes this inf/NaN"
                        .to_string(),
                    "add an epsilon to the denominator (add_scalar(d, 1e-5)) before \
                     dividing, as fused layer_norm does internally"
                        .to_string(),
                );
            }
            Op::Dropout { .. } if !cfg.training => {
                emit(
                    "dropout-in-eval",
                    i,
                    "dropout is active on an eval-mode tape: inference randomly \
                     zeroes activations and is no longer deterministic"
                        .to_string(),
                    "thread the train flag into this forward pass (dropout is an \
                     identity when train=false)"
                        .to_string(),
                );
            }
            Op::Transpose(a) => {
                let cons = &consumers[i];
                if !cons.is_empty() && cons.iter().all(|&c| matches!(tape.op_at(c), Op::Matmul(..)))
                {
                    // Which side of the (first) matmul the transpose feeds
                    // decides the fused replacement.
                    let fix = match tape.op_at(cons[0]) {
                        Op::Matmul(x, _) if x.index() == i => {
                            "replace matmul(transpose(a), b) with the fused matmul_tn(a, b) \
                             (`hiergat optimize` applies this rewrite with a certificate)"
                        }
                        _ => {
                            "replace matmul(a, transpose(b)) with the fused matmul_nt(a, b) \
                             (`hiergat optimize` applies this rewrite with a certificate)"
                        }
                    };
                    let (r, c) = shape(a.index());
                    emit(
                        "unfused-transpose-matmul",
                        i,
                        format!(
                            "transpose materializes a {c}x{r} copy that is consumed \
                             only by matmul; the fused kernel reads the original \
                             layout directly"
                        ),
                        fix.to_string(),
                    );
                }
            }
            Op::ConcatCols(_) | Op::ConcatRows(_) => {
                let head = !consumers[i].iter().any(|&c| {
                    matches!(
                        (tape.op_at(i), tape.op_at(c)),
                        (Op::ConcatCols(_), Op::ConcatCols(_))
                            | (Op::ConcatRows(_), Op::ConcatRows(_))
                    )
                });
                if concat_depth[i] >= 3 && head {
                    emit(
                        "concat-growth",
                        i,
                        format!(
                            "{}-deep chain of {}: every link recopies all earlier \
                             parts, quadratic in the chain length",
                            concat_depth[i],
                            tape.op_name(i)
                        ),
                        "collect the parts into a slice and concatenate once".to_string(),
                    );
                }
            }
            Op::Param(pid) if reachable[i] && ps.is_frozen(*pid) => {
                emit(
                    "frozen-param-reachable",
                    i,
                    format!(
                        "frozen parameter '{}' is reachable from the loss: backward \
                         computes and accumulates a gradient the optimizer discards",
                        ps.name(*pid)
                    ),
                    "detach the frozen prefix from the differentiated graph (record \
                     it as an input), or unfreeze the parameter"
                        .to_string(),
                );
            }
            _ => {}
        }
    }

    // Unused subgraphs: unreachable non-leaf nodes, reported once per sink
    // (a node none of whose consumers are themselves unused).
    let unused = |i: usize| !reachable[i] && !matches!(tape.op_at(i), Op::Input | Op::Param(_));
    for i in 0..n {
        if !unused(i) || consumers[i].iter().any(|&c| unused(c)) {
            continue;
        }
        // Size of the subgraph feeding only this sink: walk unused inputs.
        let mut seen = vec![false; n];
        let mut stack = vec![i];
        seen[i] = true;
        let mut count = 0usize;
        while let Some(j) = stack.pop() {
            count += 1;
            for v in tape.op_at(j).inputs() {
                if unused(v.index()) && !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v.index());
                }
            }
        }
        emit(
            "unused-subgraph",
            i,
            format!(
                "subgraph of {count} op(s) ending here is computed but never \
                 reaches the loss"
            ),
            "delete the dead computation, or wire its result into the loss if it \
             was meant to contribute"
                .to_string(),
        );
    }

    LintReport { node_count: n, diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One deferred tape + store, pre-loaded with a 3x4 parameter.
    fn fixture() -> (Tape, ParamStore, Var) {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0xF1C5);
        let w = ps.add("w", Tensor::rand_normal(3, 4, 0.0, 1.0, &mut rng));
        let mut t = Tape::inference();
        let wv = t.param(&ps, w);
        (t, ps, wv)
    }

    fn only_rule<'r>(report: &'r LintReport, rule: &str) -> &'r Diagnostic {
        assert_eq!(report.diagnostics.len(), 1, "expected exactly one diagnostic, got: {report}");
        let d = &report.diagnostics[0];
        assert_eq!(d.rule, rule, "wrong rule fired: {report}");
        d
    }

    #[test]
    fn naked_exp_fires_on_unbounded_input() {
        let (mut t, ps, wv) = fixture();
        let e = t.exp(wv);
        let loss = t.mean_all(e);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let d = only_rule(&report, "naked-exp");
        assert_eq!(d.op_index, e.index());
        assert_eq!(d.op_name, "exp");
        assert_eq!(d.out_shape, (3, 4));
        assert_eq!(d.severity, Severity::Deny);
    }

    #[test]
    fn naked_exp_is_silent_after_max_subtraction() {
        let (mut t, ps, wv) = fixture();
        let m = t.max_cols(wv);
        let neg = t.scale(m, -1.0);
        let shifted = t.add_col(wv, neg);
        let e = t.exp(shifted);
        let loss = t.mean_all(e);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "stabilized exp flagged: {report}");
    }

    #[test]
    fn log_of_possibly_zero_fires_on_relu_input() {
        let (mut t, ps, wv) = fixture();
        let r = t.relu(wv); // non-negative but not positive
        let l = t.ln(r);
        let loss = t.mean_all(l);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let d = only_rule(&report, "log-of-possibly-zero");
        assert_eq!(d.op_index, l.index());
        assert_eq!(d.op_name, "ln");
    }

    #[test]
    fn log_of_possibly_zero_is_silent_with_epsilon() {
        let (mut t, ps, wv) = fixture();
        let r = t.relu(wv);
        let shifted = t.add_scalar(r, 1e-12);
        let l = t.ln(shifted);
        let loss = t.mean_all(l);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "epsilon-guarded ln flagged: {report}");
    }

    #[test]
    fn log_of_proven_positive_interval_is_silent_without_epsilon() {
        // The boolean lattice could not prove tanh(x) + 2 > 0 (only an
        // epsilon shift on a non-negative value counted) and fired a false
        // positive here; the interval domain proves [1, 3] directly.
        let (mut t, ps, wv) = fixture();
        let h = t.tanh(wv);
        let shifted = t.add_scalar(h, 2.0);
        let l = t.ln(shifted);
        let loss = t.mean_all(l);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "ln of proven-positive interval flagged: {report}");
    }

    #[test]
    fn log_softmax_unfused_fires_on_ln_of_softmax() {
        let (mut t, ps, wv) = fixture();
        let s = t.softmax(wv);
        let l = t.ln(s);
        let loss = t.mean_all(l);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let d = only_rule(&report, "log-softmax-unfused");
        assert_eq!(d.op_index, l.index());
        assert!(d.fix.contains("log_softmax"));
    }

    #[test]
    fn fused_log_softmax_is_clean() {
        let (mut t, ps, wv) = fixture();
        let l = t.log_softmax(wv);
        let loss = t.mean_all(l);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "fused log_softmax flagged: {report}");
    }

    #[test]
    fn div_missing_eps_fires_on_variance_like_denominator() {
        let (mut t, ps, wv) = fixture();
        let sq = t.mul(wv, wv); // x^2: non-negative, can be zero
        let q = t.div(wv, sq);
        let loss = t.mean_all(q);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let d = only_rule(&report, "div-missing-eps");
        assert_eq!(d.op_index, q.index());
        assert_eq!(d.op_name, "div");
    }

    #[test]
    fn div_with_epsilon_is_clean() {
        let (mut t, ps, wv) = fixture();
        let sq = t.mul(wv, wv);
        let denom = t.add_scalar(sq, 1e-5);
        let q = t.div(wv, denom);
        let loss = t.mean_all(q);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "epsilon-guarded div flagged: {report}");
    }

    #[test]
    fn div_by_proven_positive_interval_is_silent_without_epsilon() {
        // Same false-positive fix for division: tanh(x) + 2 lies in
        // [1, 3], so the denominator needs no epsilon to be provably
        // positive — the old lattice flagged this.
        let (mut t, ps, wv) = fixture();
        let h = t.tanh(wv);
        let denom = t.add_scalar(h, 2.0);
        let q = t.div(wv, denom);
        let loss = t.mean_all(q);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "div by proven-positive interval flagged: {report}");
    }

    #[test]
    fn dropout_in_eval_fires_only_in_eval_mode() {
        let build = || {
            let (mut t, ps, wv) = fixture();
            let mut rng = StdRng::seed_from_u64(1);
            let d = t.dropout(wv, 0.5, true, &mut rng);
            let loss = t.mean_all(d);
            (t, ps, d, loss)
        };
        let (t, ps, d, loss) = build();
        let report = lint_graph(&t, loss, &ps, &LintConfig::eval());
        let diag = only_rule(&report, "dropout-in-eval");
        assert_eq!(diag.op_index, d.index());
        // The same tape linted as training-mode is clean.
        let (t, ps, _, loss) = build();
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "training dropout flagged: {report}");
    }

    #[test]
    fn unfused_transpose_matmul_fires_and_names_the_fused_kernel() {
        let (mut t, ps, wv) = fixture();
        let q = t.tanh(wv); // 3 x 4
        let kt = t.transpose(wv); // 4 x 3
        let scores = t.matmul(q, kt); // 3 x 3
        let loss = t.mean_all(scores);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let d = only_rule(&report, "unfused-transpose-matmul");
        assert_eq!(d.op_index, kt.index());
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.fix.contains("matmul_nt"), "rhs transpose should suggest nt: {}", d.fix);
    }

    #[test]
    fn transpose_on_lhs_suggests_matmul_tn() {
        let (mut t, ps, wv) = fixture();
        let at = t.transpose(wv); // 4 x 3
        let prod = t.matmul(at, wv); // 4 x 4
        let loss = t.mean_all(prod);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let d = only_rule(&report, "unfused-transpose-matmul");
        assert!(d.fix.contains("matmul_tn"), "lhs transpose should suggest tn: {}", d.fix);
    }

    #[test]
    fn transpose_feeding_non_matmul_is_clean() {
        let (mut t, ps, wv) = fixture();
        let at = t.transpose(wv);
        let s = t.softmax(at);
        let loss = t.mean_all(s);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "softmax-bound transpose flagged: {report}");
    }

    #[test]
    fn concat_growth_fires_on_deep_chain_only_at_the_head() {
        let (mut t, ps, wv) = fixture();
        let c1 = t.concat_cols(&[wv, wv]);
        let c2 = t.concat_cols(&[c1, wv]);
        let c3 = t.concat_cols(&[c2, wv]);
        let loss = t.mean_all(c3);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let d = only_rule(&report, "concat-growth");
        assert_eq!(d.op_index, c3.index(), "must report once, at the chain head");
    }

    #[test]
    fn flat_concat_is_clean() {
        let (mut t, ps, wv) = fixture();
        let flat = t.concat_cols(&[wv, wv, wv, wv]);
        let loss = t.mean_all(flat);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "single concat flagged: {report}");
    }

    #[test]
    fn frozen_param_reachable_fires() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0xF2);
        let w = ps.add("enc.w", Tensor::rand_normal(3, 3, 0.0, 1.0, &mut rng));
        ps.freeze(w);
        let mut t = Tape::inference();
        let wv = t.param(&ps, w);
        let h = t.tanh(wv);
        let loss = t.mean_all(h);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let d = only_rule(&report, "frozen-param-reachable");
        assert_eq!(d.op_index, wv.index());
        assert!(d.message.contains("enc.w"));
    }

    #[test]
    fn frozen_param_off_tape_is_clean() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0xF3);
        let used = ps.add("used", Tensor::rand_normal(2, 2, 0.0, 1.0, &mut rng));
        let frozen = ps.add("frozen.w", Tensor::rand_normal(2, 2, 0.0, 1.0, &mut rng));
        ps.freeze(frozen);
        let mut t = Tape::inference();
        let wv = t.param(&ps, used);
        let h = t.sigmoid(wv);
        let loss = t.mean_all(h);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "off-tape frozen param flagged: {report}");
    }

    #[test]
    fn unused_subgraph_reported_once_per_sink_with_size() {
        let (mut t, ps, wv) = fixture();
        // Dead three-op branch: tanh -> sigmoid, never consumed.
        let dead1 = t.tanh(wv);
        let dead2 = t.sigmoid(dead1);
        let live = t.gelu(wv);
        let loss = t.mean_all(live);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let d = only_rule(&report, "unused-subgraph");
        assert_eq!(d.op_index, dead2.index(), "reported at the sink of the dead branch");
        assert!(d.message.contains("2 op(s)"), "size miscounted: {}", d.message);
    }

    #[test]
    fn severity_overrides_apply_and_allow_suppresses() {
        let (mut t, ps, wv) = fixture();
        let e = t.exp(wv);
        let kt = t.transpose(wv);
        let scores = t.matmul(e, kt);
        let loss = t.mean_all(scores);
        // Default: naked-exp deny + unfused warn.
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert_eq!(report.count_at(Severity::Deny), 1);
        assert_eq!(report.count_at(Severity::Warn), 1);
        assert!(!report.is_clean_at(Severity::Deny));
        // Downgrade the deny, suppress the warn.
        let cfg = LintConfig::training()
            .with_rule("naked-exp", Severity::Warn)
            .with_rule("unfused-transpose-matmul", Severity::Allow);
        let report = lint_graph(&t, loss, &ps, &cfg);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].severity, Severity::Warn);
        assert!(report.is_clean_at(Severity::Deny));
        assert!(!report.is_clean_at(Severity::Warn));
    }

    #[test]
    fn json_output_carries_rule_ids_and_spans() {
        let (mut t, ps, wv) = fixture();
        let e = t.exp(wv);
        let loss = t.mean_all(e);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        let json = report.to_json();
        assert!(json.contains("\"naked-exp\""), "{json}");
        assert!(json.contains("\"op_index\""), "{json}");
        // Round-trips through the vendored parser.
        serde_json::from_str::<serde::Value>(&json).expect("lint JSON must parse");
    }

    #[test]
    fn rule_catalogue_ids_are_unique_and_kebab_case() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(
                r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id {} not kebab-case",
                r.id
            );
            assert!(RULES[i + 1..].iter().all(|o| o.id != r.id), "duplicate rule id {}", r.id);
        }
        assert_eq!(RULES.len(), 9);
    }

    #[test]
    fn attention_softmax_chain_is_fully_clean() {
        // The canonical HierGAT attention wiring: scores via fused nt,
        // softmax, context via fused tn — must produce zero diagnostics.
        let (mut t, ps, wv) = fixture();
        let scores = t.matmul_nt(wv, wv); // 3 x 3
        let att = t.softmax(scores);
        let ctx = t.matmul_tn(att, wv); // 3 x 4
        let loss = t.mean_all(ctx);
        let report = lint_graph(&t, loss, &ps, &LintConfig::training());
        assert!(report.diagnostics.is_empty(), "clean attention flagged: {report}");
    }
}
