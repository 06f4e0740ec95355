//! `train-pairwise`: HierGAT fine-tuning, the one workload that runs
//! backward, gradient clipping and Adam.

use crate::stats::{median, percentile};
use crate::trace::{self, span};
use crate::{finish_trace, setup_and_peak, timed, wide, Ctx, Outcome, Tally, DEFAULT_SEED};
use hiergat::train::pos_weight_of;
use hiergat::{train_pairwise, HierGat, HierGatConfig, TrainReport};
use hiergat_data::{Entity, MagellanDataset, PairDataset};
use hiergat_lm::{corpus_from_entities, pretrain, LmTier, PretrainConfig};
use hiergat_nn::ParamStore;
use std::collections::BTreeMap;
use std::time::Instant;

const EPOCHS: usize = 6;
/// Fodors-Zagats at ten times its default size, trimmed to the default
/// train and validation sizes; the test split keeps all 600 pairs (78
/// matches), so one flipped decision moves test F1 by about 1%. (On
/// Amazon-Google, HierGAT reached test F1 0.0-0.38 in six epochs, with or
/// without the pre-training below: too low to guard quality.)
const DATA_SCALE: f64 = 10.0;
const TRAIN_PAIRS: usize = 180;
const VALID_PAIRS: usize = 180;
/// Model initialisation and shuffling seed, the same for every `--seed`.
/// Test F1 over seeds 1-10 had a 4% quartile spread, which the quality
/// bound would have to allow; from one initialisation it is one number,
/// so any change in it comes from the code.
const MODEL_SEED: u64 = DEFAULT_SEED;
/// Floor on test F1 (0.90 from `MODEL_SEED`).
const MIN_TEST_F1: f64 = 0.80;

/// What `train-pairwise` sets up: the data, the model config, and the
/// miniature LM pre-trained on the train split's text (one masked-token
/// and one sentence-pair pass, where the default does 2 and 3, so that
/// set-up can be repeated within a run).
struct Setup {
    ds: PairDataset,
    cfg: HierGatConfig,
    pretrained: ParamStore,
}

fn setup() -> Setup {
    let mut ds = MagellanDataset::FodorsZagats.load(DATA_SCALE).with_train_budget(TRAIN_PAIRS);
    ds.valid.truncate(VALID_PAIRS);
    let cfg = HierGatConfig::pairwise()
        .with_tier(LmTier::MiniDistil)
        .with_epochs(EPOCHS)
        .with_seed(MODEL_SEED);
    let entities: Vec<Entity> =
        ds.train.iter().flat_map(|p| [p.left.clone(), p.right.clone()]).collect();
    let pcfg = PretrainConfig { epochs: 1, pair_epochs: 1, ..PretrainConfig::default() };
    let pretrained =
        pretrain(LmTier::MiniDistil.config(), &corpus_from_entities(entities.iter()), &pcfg).store;
    Setup { ds, cfg, pretrained }
}

/// A fresh model with the pre-trained LM loaded.
fn model(s: &Setup) -> HierGat {
    let mut model = HierGat::new(s.cfg, s.ds.arity().max(1));
    model.load_pretrained(&s.pretrained);
    model
}

struct Rep {
    secs: f64,
    report: TrainReport,
}

/// One `train_pairwise` on a fresh model, checked: every loss finite,
/// test F1 above the floor.
fn rep(s: &Setup) -> Result<Rep, String> {
    let mut model = model(s);
    let start = Instant::now();
    let report = train_pairwise(&mut model, &s.ds);
    let secs = start.elapsed().as_secs_f64();
    if report.per_epoch_loss.len() != EPOCHS || !report.per_epoch_loss.iter().all(|l| l.is_finite())
    {
        return Err(format!("losses {:?}", report.per_epoch_loss));
    }
    if report.test_f1 < MIN_TEST_F1 {
        return Err(format!("test F1 {:.4} < {MIN_TEST_F1}", report.test_f1));
    }
    Ok(Rep { secs, report })
}

/// `train-pairwise`: `train_pairwise` on a fresh model per rep.
pub fn pairwise(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    let (s, setup_s) = timed(setup);
    let items = (s.ds.train.len() * EPOCHS) as f64;

    let mut reps: Vec<Rep> = Vec::new();
    let deadline = ctx.deadline(1.0);
    while reps.is_empty() || Instant::now() < deadline {
        let r = tally.ops("train_pairwise", EPOCHS as u64, || {
            let r = rep(&s)?;
            eprintln!(
                "[perf] rep {}: {:.3} s, test F1 {:.4}",
                reps.len(),
                r.secs,
                r.report.test_f1
            );
            Ok(r)
        });
        match r {
            Some(r) => reps.push(r),
            None => break,
        }
    }
    setup_and_peak(ctx, &mut tally, &mut metrics, setup_s, setup);
    let Some(first) = reps.first() else {
        return Outcome { tally, metrics };
    };
    let walls: Vec<f64> = reps.iter().map(|r| r.secs).collect();
    metrics.insert("items_per_s", median(&walls.iter().map(|s| items / s).collect::<Vec<_>>()));
    metrics.insert("quality", median(&reps.iter().map(|r| r.report.test_f1).collect::<Vec<_>>()));

    if ctx.trace {
        let eval: Vec<f64> = reps.iter().map(|r| r.secs - r.report.total_seconds()).collect();
        metrics.insert("core.eval_s", median(&eval));
        traced(ctx, &mut tally, &mut metrics, &s);

        let wide_rep = tally.op("wide train_pairwise", || {
            let r = wide(|| rep(&s))?;
            let bits = |r: &Rep| -> Vec<u32> {
                r.report.per_epoch_loss.iter().map(|l| l.to_bits()).collect()
            };
            if bits(&r) != bits(first) || r.report.test_f1 != first.report.test_f1 {
                return Err("training at full pool width differs from width 1".into());
            }
            Ok(r)
        });
        if let Some(r) = wide_rep {
            metrics.insert("parallel.speedup", median(&walls) / r.secs);
        }
    }
    Outcome { tally, metrics }
}

/// `EPOCHS` passes of `train_pair_weighted` over the train split on a
/// fresh model, a span per step when tracing. Returns the seconds the
/// steps took, whether every loss was finite, and the trained model.
fn step_loop(s: &Setup) -> (f64, bool, HierGat) {
    let mut model = model(s);
    let pos_weight = pos_weight_of(s.ds.train.iter().map(|p| p.label));
    let start = Instant::now();
    let mut finite = true;
    for epoch in 0..EPOCHS as u64 {
        for p in &s.ds.train {
            let w = if p.label { pos_weight } else { 1.0 };
            let loss = span("core.train_pair_weighted", epoch, || model.train_pair_weighted(p, w));
            finite &= loss.is_finite();
        }
    }
    (start.elapsed().as_secs_f64(), finite, model)
}

/// The traced run: the step loop untraced, then traced, which gives the
/// tracing overhead; then `predict_pair` on each test pair.
fn traced(ctx: &Ctx, tally: &mut Tally, metrics: &mut BTreeMap<&'static str, f64>, s: &Setup) {
    let (untraced_s, _, _) = step_loop(s);
    trace::start();
    let (steps_s, finite) = span("bench.train-pairwise", 0, || {
        let (steps_s, finite, model) = step_loop(s);
        for (k, p) in s.ds.test.iter().enumerate() {
            std::hint::black_box(span("core.predict_pair", k as u64, || model.predict_pair(p)));
        }
        (steps_s, finite)
    });
    tally.check(
        "traced training losses",
        if finite { Ok(()) } else { Err("a traced step's loss is not finite".into()) },
    );
    let tr = finish_trace(ctx, tally, metrics);
    let steps = tr.durations("core.train_pair_weighted");
    metrics.insert("core.step_p50_ms", median(&steps) * 1e3);
    metrics.insert("core.step_p99_ms", percentile(&steps, 99.0) * 1e3);
    metrics.insert("core.predict_pair_us", median(&tr.durations("core.predict_pair")) * 1e6);
    metrics.insert("trace_overhead_pct", (steps_s / untraced_s - 1.0) * 100.0);
}
