//! Tape-based reverse-mode autograd, layers, optimizers, and checkpointing.
//!
//! This crate is the stand-in for PyTorch in the HierGAT reproduction: it
//! provides exactly the functionality the paper's models need — eager
//! forward execution recorded on a [`Tape`], reverse-mode [`Tape::backward`]
//! into a [`ParamStore`], [`optim`] optimizers (Adam is what the paper uses,
//! §6.1), Transformer / GRU / attention [`layers`], and binary/JSON
//! [`checkpoint`]s for the pre-trained language models.
//!
//! Every backward rule is validated against central finite differences; the
//! checker itself is exported in [`gradcheck`] so downstream crates can
//! verify composite models.

pub mod absint;
pub mod analyze;
pub mod checkpoint;
mod forward;
pub mod gradcheck;
mod layers;
pub mod lint;
mod memo;
mod optim;
pub mod optimize;
mod params;
pub mod plan;
pub mod quant;
mod tape;

#[cfg(test)]
mod proptests;

pub use absint::{
    audit_graph, propagate, AbsintConfig, AuditReport, Finding, Interval, NodeRange, QuantEntry,
    QuantSummary, SeedMode,
};
pub use analyze::{
    analyze_graph, cost_analysis, finite_audit, CostReport, DeadParam, GraphReport, OpCost,
    SentinelHit, ShapeViolation, UnusedNode,
};
pub use layers::{
    GruCell, GruInput, GruState, LayerNorm, Linear, MultiHeadSelfAttention, TransformerEncoder,
    TransformerEncoderLayer,
};
pub use lint::{lint_graph, Diagnostic, LintConfig, LintReport, Severity};
pub use memo::Memo;
pub use optim::{Adam, Optimizer, Sgd};
pub use optimize::{
    optimize, optimize_with_cache, CachedOptimized, Certificate, OptimizeConfig, OptimizeReport,
    Optimized, OptimizerCache,
};
pub use params::{ParamId, ParamStore};
pub use plan::{ArenaExecutor, ExecutionPlan, PlanReport, PlannedSlot};
pub use quant::{
    encode_checked, Codec, QuantClass, QuantConfig, QuantData, QuantError, QuantStore,
    QuantStoreReport,
};
pub use tape::{Tape, Var};
