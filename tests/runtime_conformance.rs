//! Registry conformance suite: contracts every model in
//! [`ModelRegistry::builtin`] must honour, so the registry stays the single
//! trustworthy index of the workspace's models.
//!
//! Per model: (a) session inference reproduces the eager `predict` path
//! bitwise, across repeated calls and across kernel-pool widths (1 vs 8
//! workers); (b) the recorded inference graph lints clean under eval-mode
//! rules — in particular `dropout-in-eval` never fires, because inference
//! tapes elide dropout at record time.
//!
//! `ci.sh` runs this suite under `HIERGAT_THREADS=1` and `=8`; the width
//! sweep inside uses `parallel::with_threads`, so both gates also exercise
//! nested-width behaviour.

use hiergat_data::{CollectiveDataset, MagellanDataset, PairDataset};
use hiergat_lm::LmTier;
use hiergat_nn::Severity;
use hiergat_runtime::{BuildContext, Example, ModelKind, ModelRegistry, Session};

struct Fixture {
    ds: PairDataset,
    ds_c: CollectiveDataset,
}

impl Fixture {
    fn load() -> Self {
        let kind = MagellanDataset::FodorsZagats;
        Self { ds: kind.load(0.15), ds_c: kind.load_collective(0.15) }
    }

    fn context(&self, kind: ModelKind) -> BuildContext {
        let arity = match kind {
            ModelKind::Pairwise => self.ds.arity().max(1),
            ModelKind::Collective => {
                self.ds_c.train.first().map_or(1, |ex| ex.query.attrs.len().max(1))
            }
        };
        BuildContext { tier: LmTier::MiniDistil, arity }
    }

    fn example(&self, kind: ModelKind) -> Example<'_> {
        match kind {
            ModelKind::Pairwise => Example::Pair(self.ds.train.first().expect("pair")),
            ModelKind::Collective => Example::Collective(self.ds_c.train.first().expect("example")),
        }
    }

    /// A small scoring batch of the model's example side.
    fn batch(&self, kind: ModelKind) -> Vec<Example<'_>> {
        match kind {
            ModelKind::Pairwise => self.ds.train.iter().take(8).map(Example::Pair).collect(),
            ModelKind::Collective => {
                self.ds_c.train.iter().take(3).map(Example::Collective).collect()
            }
        }
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn session_scores_match_eager_predict_bitwise_for_every_model() {
    let fx = Fixture::load();
    for spec in ModelRegistry::builtin().specs() {
        let model = spec.build(&fx.context(spec.kind()));
        let ex = fx.example(spec.kind());
        let eager = model.predict(ex);
        assert_eq!(eager.len(), ex.n_outputs(), "{}", spec.name());
        let mut session = Session::new(model);
        // Two rounds: the second replays the cached inference plan.
        for round in 0..2 {
            let scored = session.score(ex);
            assert_eq!(
                bits(&scored),
                bits(&eager),
                "{} session round {round} diverged from eager predict",
                spec.name()
            );
        }
    }
}

#[test]
fn session_batches_are_deterministic_across_pool_widths() {
    let fx = Fixture::load();
    for spec in ModelRegistry::builtin().specs() {
        let batch = fx.batch(spec.kind());
        let at_width = |w: usize| -> Vec<Vec<u32>> {
            let mut session = Session::new(spec.build(&fx.context(spec.kind())));
            parallel::with_threads(w, || session.score_batch(&batch))
                .iter()
                .map(|scores| bits(scores))
                .collect()
        };
        let narrow = at_width(1);
        let wide = at_width(8);
        assert_eq!(narrow, wide, "{}: scores depend on pool width", spec.name());
        let again = at_width(8);
        assert_eq!(wide, again, "{}: repeated batch scoring diverged", spec.name());
    }
}

#[test]
fn inference_graphs_lint_clean_under_eval_rules() {
    let fx = Fixture::load();
    for spec in ModelRegistry::builtin().specs() {
        let model = spec.build(&fx.context(spec.kind()));
        let report = model.lint_inference(fx.example(spec.kind()));
        assert!(
            report.diagnostics.iter().all(|d| d.rule != "dropout-in-eval"),
            "{}: inference tape recorded dropout ops",
            spec.name()
        );
        assert!(
            report.is_clean_at(Severity::Warn),
            "{}: inference graph lints dirty:\n{report}",
            spec.name()
        );
    }
}
