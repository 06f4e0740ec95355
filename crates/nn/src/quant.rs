//! Post-training weight quantisation, driven by the absint feasibility
//! table.
//!
//! [`crate::absint::audit_graph`] proves a value interval for every
//! reachable tensor and classifies each one `int8` / `f16` / `f32`
//! (scale and zero point included). [`QuantStore`] applies that table to
//! the parameters: every parameter the audit classifies below f32 is
//! encoded through the *rejecting* quantiser ([`encode_checked`]) — a
//! value outside its audit-proven interval is an error, never a silent
//! clamp, because the interval is the proof that the grid covers the
//! tensor.
//!
//! A quantised session does not run a separate executor. Once every
//! parameter has passed the checks, [`QuantStore::snap`] writes each
//! quantised tensor back into the `ParamStore` in place, as
//! `decode(encode(w))`: the resident weights stay f32, but every value
//! sits on its audited grid. From then on the ordinary f32 executors
//! score the snapped model, so a quantised session is bitwise-equal to
//! eager prediction over the same snapped weights, at every
//! `HIERGAT_THREADS` width, under the existing f32 contracts.
//! [`QuantStoreReport::bytes_quantised`] is the size the grids need, not
//! resident memory.

use crate::absint::{audit_graph, AbsintConfig, AuditReport, QuantEntry};
use crate::lint::Severity;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Op, Tape, Var};
use hiergat_tensor::quant::{
    f16_decode_slice, f16_encode_slice, u8_decode_slice, u8_encode_slice, F16_MAX,
};
use std::fmt;

/// Storage class the audit proved feasible for one tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantClass {
    /// u8 affine codes, 1 byte per element.
    Int8,
    /// IEEE 754 binary16 bits, 2 bytes per element.
    F16,
    /// Plain f32 fallback, 4 bytes per element.
    F32,
}

impl QuantClass {
    /// Class name as the audit table spells it.
    pub fn name(self) -> &'static str {
        match self {
            QuantClass::Int8 => "int8",
            QuantClass::F16 => "f16",
            QuantClass::F32 => "f32",
        }
    }
}

/// Why quantisation was refused. Rejection is the contract: a tensor that
/// escapes its audit-proven interval must fail loudly, not clamp.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// A value fell outside the interval the audit proved for its tensor.
    OutOfInterval {
        /// Which tensor (parameter name or node label).
        tensor: String,
        /// The offending value.
        value: f32,
        /// Proven lower bound.
        lo: f64,
        /// Proven upper bound.
        hi: f64,
    },
    /// A value classified f16 does not fit finite binary16.
    NotF16 {
        /// Which tensor.
        tensor: String,
        /// The offending value.
        value: f32,
    },
    /// The audit reported numerical-safety findings at or above Warn;
    /// quantising a graph the interval pass cannot prove safe is refused.
    Unsafe {
        /// Finding count at or above the gate.
        findings: usize,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::OutOfInterval { tensor, value, lo, hi } => write!(
                f,
                "quantise {tensor}: value {value} outside the proven interval [{lo}, {hi}] \
                 (rejected, not clamped)"
            ),
            QuantError::NotF16 { tensor, value } => {
                write!(f, "quantise {tensor}: value {value} does not fit finite binary16")
            }
            QuantError::Unsafe { findings } => {
                write!(f, "quantise: audit reported {findings} numerical-safety finding(s)")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Configuration for `Session::quantise`: how the feasibility audit seeds
/// the interval pass.
#[derive(Debug, Clone)]
pub struct QuantConfig {
    /// Symbolic bound for graph inputs (`inputs in [-B, B]`); parameters
    /// are always seeded from their observed values (weight-aware).
    pub input_bound: f64,
}

impl Default for QuantConfig {
    fn default() -> Self {
        // The same default box as the `hiergat audit` CLI gate.
        QuantConfig { input_bound: 8.0 }
    }
}

impl QuantConfig {
    /// The absint seeding this config audits with.
    pub fn audit_config(&self) -> AbsintConfig {
        AbsintConfig::weight_aware(self.input_bound)
    }
}

/// One tensor's storage codec: class plus the affine grid (int8 only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Codec {
    /// Storage class.
    pub class: QuantClass,
    /// Affine scale (0 unless int8).
    pub scale: f32,
    /// Affine zero point (0 unless int8).
    pub zero_point: u8,
}

impl Codec {
    /// Builds the codec a feasibility-table entry prescribes.
    pub fn from_entry(e: &QuantEntry) -> Codec {
        let class = match e.class.as_str() {
            "int8" => QuantClass::Int8,
            "f16" => QuantClass::F16,
            _ => QuantClass::F32,
        };
        Codec { class, scale: e.scale as f32, zero_point: e.zero_point }
    }

    /// Worst-case `|decode(encode(v)) - v|` for an in-interval value `v`:
    /// half a grid step for int8 (plus f32 arithmetic slack), one
    /// round-to-nearest-even ulp for f16, zero for f32.
    pub fn roundtrip_bound(&self, v: f32) -> f32 {
        match self.class {
            QuantClass::Int8 => 0.501 * self.scale + 1e-5 * v.abs(),
            QuantClass::F16 => 2f32.powi(-11) * v.abs() + 2f32.powi(-25),
            QuantClass::F32 => 0.0,
        }
    }
}

/// Quantised storage for one tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantData {
    /// u8 affine codes.
    Int8(Vec<u8>),
    /// binary16 bit patterns.
    F16(Vec<u16>),
    /// Plain copy (f32 fallback).
    F32(Vec<f32>),
}

impl QuantData {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            QuantData::Int8(v) => v.len(),
            QuantData::F16(v) => v.len(),
            QuantData::F32(v) => v.len(),
        }
    }

    /// `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage bytes.
    pub fn bytes(&self) -> u64 {
        match self {
            QuantData::Int8(v) => v.len() as u64,
            QuantData::F16(v) => 2 * v.len() as u64,
            QuantData::F32(v) => 4 * v.len() as u64,
        }
    }

    /// Decodes into `out`, which must hold exactly [`Self::len`] values.
    pub fn decode_into(&self, codec: &Codec, out: &mut [f32]) {
        match self {
            QuantData::Int8(q) => u8_decode_slice(q, codec.scale, codec.zero_point, out),
            QuantData::F16(bits) => f16_decode_slice(bits, out),
            QuantData::F32(v) => out.copy_from_slice(v),
        }
    }
}

/// The rejecting quantiser: encodes `vals` with `codec` **iff** every
/// value lies inside the proven interval `[lo, hi]` (and, for f16, fits
/// finite binary16). Out-of-interval values — including NaN — are an
/// error, never a clamp: the interval is the audit's proof that the grid
/// covers the tensor, and silently clamping would convert a soundness
/// bug into a numerics bug.
pub fn encode_checked(
    vals: &[f32],
    lo: f64,
    hi: f64,
    codec: &Codec,
    tensor: &str,
) -> Result<QuantData, QuantError> {
    for &v in vals {
        if !(f64::from(v) >= lo && f64::from(v) <= hi) {
            return Err(QuantError::OutOfInterval { tensor: tensor.to_string(), value: v, lo, hi });
        }
    }
    match codec.class {
        QuantClass::Int8 => {
            let mut q = vec![0u8; vals.len()];
            u8_encode_slice(vals, codec.scale, codec.zero_point, &mut q);
            Ok(QuantData::Int8(q))
        }
        QuantClass::F16 => {
            for &v in vals {
                if !v.is_finite() || v.abs() > F16_MAX {
                    return Err(QuantError::NotF16 { tensor: tensor.to_string(), value: v });
                }
            }
            let mut bits = vec![0u16; vals.len()];
            f16_encode_slice(vals, &mut bits);
            Ok(QuantData::F16(bits))
        }
        QuantClass::F32 => Ok(QuantData::F32(vals.to_vec())),
    }
}

/// Weight-byte accounting for a quantised parameter set.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantStoreReport {
    /// Parameters on an int8 grid.
    pub int8_params: usize,
    /// Parameters on the f16 grid.
    pub f16_params: usize,
    /// Parameters left f32 (classified f32, or unreached by the audit).
    pub f32_params: usize,
    /// Bytes the same parameters occupy in f32.
    pub bytes_f32: u64,
    /// Bytes the audited grids need (f32 parameters counted at 4 bytes).
    /// The snapped weights stay resident as f32, so this is the size a
    /// grid-encoded copy would take, not resident memory.
    pub bytes_quantised: u64,
}

/// The audited, grid-encoded copy of every parameter the feasibility
/// table classifies below f32, built by the rejecting quantiser. Nothing
/// about the model changes until [`Self::snap`] writes it back.
#[derive(Debug, Clone)]
pub struct QuantStore {
    quantised: Vec<(ParamId, Codec, QuantData)>,
    report: QuantStoreReport,
}

impl QuantStore {
    /// Audits the graph rooted at `root` with weight-aware seeding and
    /// quantises every parameter the feasibility table classifies below
    /// f32. Fails if the audit has findings at or above Warn, or if any
    /// parameter value escapes its proven interval (impossible for
    /// observed seeding unless the audit is unsound — which is exactly
    /// why it must be an error).
    pub fn build(
        tape: &Tape,
        root: Var,
        store: &ParamStore,
        cfg: &QuantConfig,
    ) -> Result<(QuantStore, AuditReport), QuantError> {
        let audit = audit_graph(tape, root, store, &cfg.audit_config());
        let findings = audit.findings.iter().filter(|f| f.severity >= Severity::Warn).count();
        if findings > 0 {
            return Err(QuantError::Unsafe { findings });
        }
        let mut seen = vec![false; store.len()];
        let mut quantised = Vec::new();
        for e in &audit.quant {
            let Op::Param(pid) = tape.op_at(e.op_index) else { continue };
            let codec = Codec::from_entry(e);
            if codec.class == QuantClass::F32 || std::mem::replace(&mut seen[pid.index()], true) {
                continue;
            }
            let range = &audit.ranges[e.op_index];
            let vals = store.value(*pid).as_slice();
            let data = encode_checked(vals, range.lo, range.hi, &codec, store.name(*pid))?;
            quantised.push((*pid, codec, data));
        }
        let bytes_f32 = 4 * store.num_scalars() as u64;
        let mut report =
            QuantStoreReport { bytes_f32, bytes_quantised: bytes_f32, ..Default::default() };
        for (_, codec, data) in &quantised {
            report.bytes_quantised -= 4 * data.len() as u64 - data.bytes();
            match codec.class {
                QuantClass::Int8 => report.int8_params += 1,
                QuantClass::F16 => report.f16_params += 1,
                QuantClass::F32 => {}
            }
        }
        report.f32_params = store.len() - quantised.len();
        Ok((QuantStore { quantised, report }, audit))
    }

    /// Weight-byte accounting.
    pub fn report(&self) -> QuantStoreReport {
        self.report
    }

    /// Writes every quantised parameter back into `store` in place, as
    /// `decode(encode(w))`: the values stay f32 but land on their audited
    /// grids. `store` must be the one [`Self::build`] read.
    pub fn snap(&self, store: &mut ParamStore) {
        for (pid, codec, data) in &self.quantised {
            data.decode_into(codec, store.value_mut(*pid).as_mut_slice());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;
    use hiergat_tensor::Tensor;

    /// Small fixed-weights model: `softmax(tanh(x·W + b))` with W `4x3`,
    /// b `1x3`, every value deterministic. Weight magnitudes keep the
    /// parameters and activations int8-feasible while the pre-activation
    /// matmul output lands in f16 territory under the default `[-8, 8]`
    /// input box.
    fn fixture_store() -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let w = Tensor::from_rows(&[
            vec![0.81, -0.33, 0.12],
            vec![-0.77, 0.38, -0.45],
            vec![0.69, -0.18, 0.31],
            vec![-0.94, 0.22, -0.06],
        ]);
        let b = Tensor::from_rows(&[vec![-0.13, 0.07, 0.19]]);
        let wid = store.add("fixture.w", w);
        let bid = store.add("fixture.b", b);
        (store, wid, bid)
    }

    fn record_fixture(tape: &mut Tape, store: &ParamStore, wid: ParamId, bid: ParamId) -> Var {
        let x = tape.input(Tensor::from_rows(&[vec![1.5, -2.25, 0.75, 3.0]]));
        let w = tape.param(store, wid);
        let b = tape.param(store, bid);
        let z = tape.matmul(x, w);
        let z = tape.add_row(z, b);
        let h = tape.tanh(z);
        tape.softmax(h)
    }

    #[test]
    fn golden_feasibility_table_is_pinned() {
        // Round-trip the fixed weights through the binary checkpoint codec
        // first: the pinned table below is a property of the *checkpoint*,
        // so codec regressions fail here too.
        let (store, wid, bid) = fixture_store();
        let bytes = checkpoint::to_bytes(&store);
        let store = checkpoint::from_bytes(&bytes).expect("fixture checkpoint roundtrip");
        let wid2 = store.id_of("fixture.w").expect("w id");
        let bid2 = store.id_of("fixture.b").expect("b id");
        assert_eq!((wid.index(), bid.index()), (wid2.index(), bid2.index()));

        let mut tape = Tape::new();
        let root = record_fixture(&mut tape, &store, wid, bid);
        let cfg = QuantConfig::default();
        let audit = audit_graph(&tape, root, &store, &cfg.audit_config());
        // The pinned feasibility table. Classes and zero points are exact;
        // scales are (hi - lo) / 255 in f64, compared to 1e-9.
        let expected: &[(&str, &str, f64, u8)] = &[
            ("input", "int8", 16.0 / 255.0, 128),
            ("param", "int8", 1.75 / 255.0, 137),
            ("param", "int8", 0.32 / 255.0, 104),
            ("matmul", "f16", 0.0, 0),
            ("add_row", "f16", 0.0, 0),
            ("tanh", "int8", 2.0 / 255.0, 128),
            // Softmax proves [~0.063, 1.0]; the grid is derived from the
            // zero-extended interval [0, 1].
            ("softmax", "int8", 1.0 / 255.0, 0),
        ];
        assert_eq!(audit.quant.len(), expected.len(), "table row count shifted");
        for (e, (name, class, scale, zp)) in audit.quant.iter().zip(expected) {
            assert_eq!(e.op_name, *name, "op order shifted at node {}", e.op_index);
            assert_eq!(e.class, *class, "class regressed for {name}");
            assert!(
                (e.scale - scale).abs() < 1e-9,
                "scale regressed for {name}: {} vs pinned {scale}",
                e.scale
            );
            assert_eq!(e.zero_point, *zp, "zero point regressed for {name}");
        }
    }

    #[test]
    fn quantised_forward_matches_f32_reference() {
        let (mut store, wid, bid) = fixture_store();
        let mut tape = Tape::new();
        let root = record_fixture(&mut tape, &store, wid, bid);
        let reference = tape.value(root).as_slice().to_vec();
        let original = [store.value(wid).clone(), store.value(bid).clone()];

        let cfg = QuantConfig::default();
        let (qstore, audit) =
            QuantStore::build(&tape, root, &store, &cfg).expect("quantise fixture");
        qstore.snap(&mut store);
        // Every weight moved by at most its codec's round-trip bound.
        for e in audit.quant.iter().filter(|e| e.op_name == "param") {
            let Op::Param(id) = *tape.op_at(e.op_index) else { panic!("param entry") };
            let codec = Codec::from_entry(e);
            let before = original[id.index()].as_slice();
            for (v, s) in before.iter().zip(store.value(id).as_slice()) {
                assert!((v - s).abs() <= codec.roundtrip_bound(*v), "{v} snapped to {s}");
            }
        }
        let mut tape = Tape::new();
        let root = record_fixture(&mut tape, &store, wid, bid);
        let out = tape.value(root).as_slice();
        for (q, f) in out.iter().zip(&reference) {
            assert!((q - f).abs() < 0.05, "quantised output {q} drifted from f32 reference {f}");
        }
    }

    #[test]
    fn out_of_interval_values_are_rejected_not_clamped() {
        let codec = Codec { class: QuantClass::Int8, scale: 0.01, zero_point: 128 };
        let err =
            encode_checked(&[0.5, 1.51], -1.0, 1.0, &codec, "t").expect_err("out of interval");
        assert!(
            matches!(err, QuantError::OutOfInterval { value, .. } if value == 1.51),
            "expected rejection, got {err:?}"
        );
        // NaN never satisfies the interval check.
        let err = encode_checked(&[f32::NAN], -1.0, 1.0, &codec, "t").expect_err("NaN rejected");
        assert!(matches!(err, QuantError::OutOfInterval { .. }));
        // In-interval values encode fine and land on the affine grid.
        let data = encode_checked(&[0.5], -1.0, 1.0, &codec, "t").expect("in-interval");
        let mut back = [0.0];
        data.decode_into(&codec, &mut back);
        assert!((back[0] - 0.5).abs() <= codec.roundtrip_bound(0.5));
    }

    #[test]
    fn store_report_accounts_for_quantised_bytes() {
        let (store, wid, bid) = fixture_store();
        let mut tape = Tape::new();
        let root = record_fixture(&mut tape, &store, wid, bid);
        let cfg = QuantConfig::default();
        let (qstore, _) = QuantStore::build(&tape, root, &store, &cfg).expect("quantise");
        let r = qstore.report();
        assert_eq!(r.int8_params + r.f16_params + r.f32_params, 2);
        assert!(r.bytes_quantised < r.bytes_f32, "{} !< {}", r.bytes_quantised, r.bytes_f32);
        assert_eq!(r.bytes_f32, 4 * (12 + 3));
    }
}
