//! Training loops and evaluation (§5.3 / §6.1 protocol).
//!
//! Per-epoch validation selects the best parameters (the paper verifies
//! every epoch on the validation set, §6.1); the decision threshold is tuned
//! on validation scores and applied unchanged to the test split.

use crate::model::HierGat;
use hiergat_data::{CollectiveDataset, CollectiveExample, EntityPair, PairDataset};
use hiergat_metrics::{best_threshold, evaluate_at_threshold, Confusion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Best validation F1 observed (model-selection criterion).
    pub best_valid_f1: f64,
    /// Test F1 of the selected model at the validation-tuned threshold.
    pub test_f1: f64,
    /// Test precision/recall at the same operating point.
    pub test_confusion: Confusion,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Wall-clock seconds per epoch (Figure 11 reports training time).
    pub per_epoch_seconds: Vec<f64>,
    /// Mean training loss per epoch.
    pub per_epoch_loss: Vec<f32>,
}

impl TrainReport {
    /// Total training seconds.
    pub fn total_seconds(&self) -> f64 {
        self.per_epoch_seconds.iter().sum()
    }
}

/// Scores every pair with the model, fanning out over worker threads
/// (inference is `&self` and the parameter store is read-only here).
pub fn score_pairs(model: &HierGat, pairs: &[EntityPair]) -> (Vec<f32>, Vec<bool>) {
    let scores = parallel::par_map(pairs, |p| model.predict_pair(p));
    let labels: Vec<bool> = pairs.iter().map(|p| p.label).collect();
    (scores, labels)
}

/// Pre-flight static analysis: records one training example's graph in
/// deferred mode and reports wiring problems (shape violations, dead
/// parameters, unused nodes) to stderr before any kernel runs. Also prints
/// the analyzer's per-example cost budget (forward FLOPs, share eligible
/// for the thread pool, peak live bytes) so epoch-time surprises surface
/// before the first kernel. Returns the report so callers (CLI `--analyze`,
/// tests) can inspect it.
pub fn preflight_pairwise(model: &HierGat, ds: &PairDataset) -> Option<hiergat_nn::GraphReport> {
    let pair = ds.train.first()?;
    let report = model.analyze_pair(pair);
    report_preflight(&ds.name, ds.train.len(), &report);
    Some(report)
}

/// Collective-mode counterpart of [`preflight_pairwise`].
pub fn preflight_collective(
    model: &HierGat,
    ds: &CollectiveDataset,
) -> Option<hiergat_nn::GraphReport> {
    let ex = ds.train.first()?;
    let report = model.analyze_collective(ex);
    report_preflight(&ds.name, ds.train.len(), &report);
    Some(report)
}

fn report_preflight(name: &str, train_len: usize, report: &hiergat_nn::GraphReport) {
    let cost = &report.cost;
    eprintln!(
        "[preflight] {name}: {}/example forward ({} pool-eligible at {} thread(s)), \
         peak live {}, ~{} per epoch over {train_len} examples",
        hiergat_nn::analyze::fmt_flops(cost.total_flops),
        hiergat_nn::analyze::fmt_flops(cost.parallel_flops),
        cost.split,
        hiergat_nn::analyze::fmt_bytes(cost.peak_bytes),
        hiergat_nn::analyze::fmt_flops(cost.total_flops.saturating_mul(train_len as u64)),
    );
    if !report.is_clean() {
        eprintln!("[preflight] {name}: static analysis found issues\n{report}");
    }
}

/// Positive-class weight derived from a split's label balance
/// (`n_neg / n_pos`, clamped to `[1, 8]`).
pub fn pos_weight_of(labels: impl Iterator<Item = bool>) -> f32 {
    let mut pos = 0usize;
    let mut neg = 0usize;
    for l in labels {
        if l {
            pos += 1;
        } else {
            neg += 1;
        }
    }
    if pos == 0 {
        1.0
    } else {
        (neg as f32 / pos as f32).clamp(1.0, 8.0)
    }
}

/// Trains HierGAT on a pairwise dataset with validation-based selection.
pub fn train_pairwise(model: &mut HierGat, ds: &PairDataset) -> TrainReport {
    let epochs = model.config().epochs;
    preflight_pairwise(model, ds);
    let pos_weight = pos_weight_of(ds.train.iter().map(|p| p.label));
    let mut shuffle_rng = StdRng::seed_from_u64(model.config().seed ^ 0x7261);
    let mut order: Vec<usize> = (0..ds.train.len()).collect();
    let mut best_valid = -1.0f64;
    let mut best_snapshot = model.ps.snapshot();
    let mut per_epoch_seconds = Vec::with_capacity(epochs);
    let mut per_epoch_loss = Vec::with_capacity(epochs);

    for _ in 0..epochs {
        let start = Instant::now();
        order.shuffle(&mut shuffle_rng);
        let mut loss_sum = 0.0f32;
        for &i in &order {
            let p = &ds.train[i];
            let w = if p.label { pos_weight } else { 1.0 };
            loss_sum += model.train_pair_weighted(p, w);
        }
        per_epoch_seconds.push(start.elapsed().as_secs_f64());
        per_epoch_loss.push(if order.is_empty() { 0.0 } else { loss_sum / order.len() as f32 });

        let (scores, labels) = score_pairs(model, &ds.valid);
        let (_, valid_f1) = best_threshold(&scores, &labels);
        if valid_f1 > best_valid {
            best_valid = valid_f1;
            best_snapshot = model.ps.snapshot();
        }
    }
    model.ps.restore(&best_snapshot);

    // Tune the threshold on validation, evaluate once on test. The tuned
    // operating point is kept on the model so checkpoints persist it and a
    // restored session can emit boolean decisions.
    let (v_scores, v_labels) = score_pairs(model, &ds.valid);
    let (threshold, _) = best_threshold(&v_scores, &v_labels);
    model.set_decision_threshold(threshold);
    let (t_scores, t_labels) = score_pairs(model, &ds.test);
    let confusion = evaluate_at_threshold(&t_scores, &t_labels, threshold);
    TrainReport {
        best_valid_f1: best_valid.max(0.0),
        test_f1: confusion.pr_f1().f1,
        test_confusion: confusion,
        epochs_run: epochs,
        per_epoch_seconds,
        per_epoch_loss,
    }
}

/// Scores every candidate pair of a collective split (parallel).
pub fn score_collective(model: &HierGat, examples: &[CollectiveExample]) -> (Vec<f32>, Vec<bool>) {
    let per_example = parallel::par_map(examples, |ex| model.predict_collective(ex));
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for (ex, s) in examples.iter().zip(per_example) {
        scores.extend(s);
        labels.extend(ex.labels.iter().copied());
    }
    (scores, labels)
}

/// Trains HierGAT+ on a collective dataset (batch = candidate set, §6.3).
pub fn train_collective(model: &mut HierGat, ds: &CollectiveDataset) -> TrainReport {
    let epochs = model.config().epochs;
    preflight_collective(model, ds);
    let pos_weight = pos_weight_of(ds.train.iter().flat_map(|ex| ex.labels.iter().copied()));
    let mut shuffle_rng = StdRng::seed_from_u64(model.config().seed ^ 0x7262);
    let mut order: Vec<usize> = (0..ds.train.len()).collect();
    let mut best_valid = -1.0f64;
    let mut best_snapshot = model.ps.snapshot();
    let mut per_epoch_seconds = Vec::with_capacity(epochs);
    let mut per_epoch_loss = Vec::with_capacity(epochs);

    for _ in 0..epochs {
        let start = Instant::now();
        order.shuffle(&mut shuffle_rng);
        let mut loss_sum = 0.0f32;
        for &i in &order {
            loss_sum += model.train_collective_weighted(&ds.train[i], pos_weight);
        }
        per_epoch_seconds.push(start.elapsed().as_secs_f64());
        per_epoch_loss.push(if order.is_empty() { 0.0 } else { loss_sum / order.len() as f32 });

        let (scores, labels) = score_collective(model, &ds.valid);
        let (_, valid_f1) = best_threshold(&scores, &labels);
        if valid_f1 > best_valid {
            best_valid = valid_f1;
            best_snapshot = model.ps.snapshot();
        }
    }
    model.ps.restore(&best_snapshot);

    let (v_scores, v_labels) = score_collective(model, &ds.valid);
    let (threshold, _) = best_threshold(&v_scores, &v_labels);
    model.set_decision_threshold(threshold);
    let (t_scores, t_labels) = score_collective(model, &ds.test);
    let confusion = evaluate_at_threshold(&t_scores, &t_labels, threshold);
    TrainReport {
        best_valid_f1: best_valid.max(0.0),
        test_f1: confusion.pr_f1().f1,
        test_confusion: confusion,
        epochs_run: epochs,
        per_epoch_seconds,
        per_epoch_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierGatConfig;
    use hiergat_data::{MagellanDataset, PairGenConfig};

    #[test]
    fn pairwise_training_learns_an_easy_dataset() {
        // A clean, tiny dataset must be learnable well above chance.
        let world =
            hiergat_data::synth::World::generate(&hiergat_data::lexicon::SOFTWARE, 40, 2, 3);
        let schema = MagellanDataset::AmazonGoogle.schema();
        let cfg = PairGenConfig {
            n_pairs: 60,
            pos_rate: 0.4,
            hard_negative_frac: 0.2,
            noise_a: hiergat_data::synth::NoiseConfig::clean(),
            noise_b: hiergat_data::synth::NoiseConfig::clean(),
            seed: 5,
        };
        let ds = hiergat_data::generate_pair_dataset("easy", &world, schema, &cfg);
        let mut model = HierGat::new(HierGatConfig::fast_test().with_epochs(4), 3);
        let report = train_pairwise(&mut model, &ds);
        assert!(report.test_f1 > 0.6, "clean data must be learnable, got F1 {}", report.test_f1);
        assert_eq!(report.epochs_run, 4);
        assert_eq!(report.per_epoch_seconds.len(), 4);
        assert!(report.total_seconds() > 0.0);
    }

    #[test]
    fn loss_generally_decreases() {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let mut model = HierGat::new(HierGatConfig::fast_test().with_epochs(3), 6);
        let report = train_pairwise(&mut model, &ds);
        let first = report.per_epoch_loss[0];
        let last = *report.per_epoch_loss.last().expect("epochs");
        assert!(last <= first * 1.2, "loss exploded: {first} -> {last}");
    }
}
