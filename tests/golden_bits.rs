//! Golden bits: committed f32 bit patterns that pin the arithmetic of every
//! forward and backward kernel against a fixed earlier build.
//!
//! `runtime_conformance` and `optimize_differential` compare the session
//! executor against the eager tape. Both executors evaluate each op through
//! the same forward kernel, so those suites check planning, span aliasing,
//! leaf routing and the caches, but they cannot see a kernel whose
//! arithmetic changed on both paths at once. This suite can:
//!
//! - session scores of all 8 registry models on a fixed set of
//!   Fodors-Zagats examples;
//! - the loss and a hash of every parameter gradient after one eager
//!   training step of HierGAT (pairwise), HierGAT+ (collective), Ditto and
//!   DeepMatcher.
//!
//! The expected values live in `tests/fixtures/golden_bits.txt`. `exp`,
//! `tanh` and `ln` come from the platform libm, so the fixture pins this
//! toolchain and libc as well as the kernels. Only re-record it (run the
//! ignored `record_golden_fixture` test) for a deliberate change of
//! arithmetic, and say so in the change log.
//!
//! The suite compiles for the portable build only: the `simd` feature's
//! AVX2+FMA matmul tile rounds each multiply-add once, so its bits differ
//! from the portable tile by design.
#![cfg(not(feature = "simd"))]

use hiergat::{HierGat, HierGatConfig};
use hiergat_baselines::{DeepMatcher, DeepMatcherConfig, Ditto, DittoConfig, PairModel};
use hiergat_data::{CollectiveDataset, MagellanDataset, PairDataset};
use hiergat_lm::LmTier;
use hiergat_nn::ParamStore;
use hiergat_runtime::{BuildContext, Example, ModelKind, ModelRegistry, Session};
use std::fmt::Write as _;
use std::path::PathBuf;

const PAIRS: usize = 4;
const COLLECTIVE: usize = 2;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden_bits.txt")
}

struct Data {
    ds: PairDataset,
    ds_c: CollectiveDataset,
}

impl Data {
    fn load() -> Self {
        let kind = MagellanDataset::FodorsZagats;
        Self { ds: kind.load(0.15), ds_c: kind.load_collective(0.15) }
    }

    fn pair_arity(&self) -> usize {
        self.ds.arity().max(1)
    }

    fn collective_arity(&self) -> usize {
        self.ds_c.train.first().map_or(1, |ex| ex.query.attrs.len().max(1))
    }
}

/// FNV-1a over the bit patterns of `xs`.
fn hash_bits(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn push_step(lines: &mut Vec<String>, model: &str, loss: f32, ps: &ParamStore) {
    lines.push(format!("loss {model} {:08x}", loss.to_bits()));
    for (id, name, _) in ps.iter() {
        lines.push(format!("grad {model} {name} {:016x}", hash_bits(ps.grad(id).as_slice())));
    }
}

/// Every golden line this build produces, in fixture order.
fn compute() -> Vec<String> {
    let data = Data::load();
    let mut lines = Vec::new();

    // Session scores for every registry model.
    let pairs: Vec<Example<'_>> = data.ds.train.iter().take(PAIRS).map(Example::Pair).collect();
    let colls: Vec<Example<'_>> =
        data.ds_c.train.iter().take(COLLECTIVE).map(Example::Collective).collect();
    for spec in ModelRegistry::builtin().specs() {
        let (arity, examples) = match spec.kind() {
            ModelKind::Pairwise => (data.pair_arity(), &pairs),
            ModelKind::Collective => (data.collective_arity(), &colls),
        };
        let mut session =
            Session::new(spec.build(&BuildContext { tier: LmTier::MiniDistil, arity }));
        for (k, &ex) in examples.iter().enumerate() {
            let mut line = format!("score {} {k}", spec.name());
            for s in session.score(ex) {
                write!(line, " {:08x}", s.to_bits()).expect("write to String");
            }
            lines.push(line);
        }
    }

    // One eager training step per model: loss plus every clipped gradient.
    let pair = data.ds.train.first().expect("a training pair");
    let ex_c = data.ds_c.train.first().expect("a collective training example");

    let mut hg =
        HierGat::new(HierGatConfig::pairwise().with_tier(LmTier::MiniDistil), data.pair_arity());
    let loss = hg.train_pair(pair);
    push_step(&mut lines, "hiergat", loss, &hg.ps);

    let mut hgc = HierGat::new(
        HierGatConfig::collective().with_tier(LmTier::MiniDistil),
        data.collective_arity(),
    );
    let loss = hgc.train_collective(ex_c);
    push_step(&mut lines, "hiergat+", loss, &hgc.ps);

    let mut ditto = Ditto::new(DittoConfig { lm_tier: LmTier::MiniDistil, ..Default::default() });
    let loss = ditto.train_pair(pair);
    push_step(&mut lines, "ditto", loss, ditto.params());

    let mut dm = DeepMatcher::new(DeepMatcherConfig::default(), data.pair_arity());
    let loss = dm.train_pair(pair);
    push_step(&mut lines, "deepmatcher", loss, dm.params());

    lines
}

#[test]
fn scores_losses_and_gradients_match_the_golden_fixture() {
    let path = fixture_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let expected: Vec<&str> =
        text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let got = compute();
    for (k, (want, have)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(*want, have, "golden line {k} differs");
    }
    assert_eq!(expected.len(), got.len(), "golden line count differs");
}

/// Rewrites the fixture from this build. Run with
/// `cargo test -p hiergat-bench --test golden_bits -- --ignored`, only for
/// a deliberate change of arithmetic.
#[test]
#[ignore = "rewrites the committed fixture"]
fn record_golden_fixture() {
    let mut text = String::from(
        "# Golden bits (portable build). Written by tests/golden_bits.rs\n\
         # record_golden_fixture; see that file before editing.\n",
    );
    for line in compute() {
        text.push_str(&line);
        text.push('\n');
    }
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
    std::fs::write(&path, text).expect("write fixture");
}
