//! Differential proof of the certified tape optimiser.
//!
//! Every builtin model's inference scoring graph is optimised under the
//! verified configuration — every applied rewrite must carry a validated
//! shape + interval certificate and the run must not fall back — and the
//! optimised [`Session`] replay must score **bitwise** identically to the
//! model's eager `predict` path. The optimised graph must also stay
//! lint-clean at `--deny warn` (the fix-it hints the optimiser implements
//! must not themselves introduce diagnostics). The whole suite runs at
//! kernel split widths 1 and 8: optimised replay must not perturb the
//! deterministic task geometry the thread pool pins.

use hiergat_data::MagellanDataset;
use hiergat_lm::LmTier;
use hiergat_nn::{lint_graph, optimize, LintConfig, OptimizeConfig, Severity, Tape};
use hiergat_runtime::{BuildContext, Example, ModelKind, ModelRegistry, Session};

/// Every builtin model, eager vs optimised session, at one split width.
fn run_all(width: usize) {
    parallel::with_threads(width, || {
        let ds = MagellanDataset::FodorsZagats.load(0.15);
        let ds_c = MagellanDataset::FodorsZagats.load_collective(0.15);
        let pair = ds.train.first().expect("pair");
        let ex_c = ds_c.train.first().expect("collective example");
        let pair_cx = BuildContext { tier: LmTier::MiniDistil, arity: ds.arity().max(1) };
        let coll_cx =
            BuildContext { tier: LmTier::MiniDistil, arity: ex_c.query.attrs.len().max(1) };
        for spec in ModelRegistry::builtin().specs() {
            let (cx, example) = match spec.kind() {
                ModelKind::Pairwise => (&pair_cx, Example::Pair(pair)),
                ModelKind::Collective => (&coll_cx, Example::Collective(ex_c)),
            };
            let model = spec.build(cx);
            let tag = spec.display();

            // Translation validation: every rewrite certified, shape and
            // interval checks green, no identity fallback.
            let report = model.optimize_report(example, true);
            assert!(!report.fallback, "{tag}: verified optimisation fell back");
            assert!(report.all_valid(), "{tag}: invalid certificates\n{report}");
            assert!(
                report.nodes_after <= report.nodes_before,
                "{tag}: optimiser grew the graph ({} -> {} nodes)",
                report.nodes_before,
                report.nodes_after
            );

            // The optimised graph stays lint-clean at deny-warn: applying
            // the linter's own fix-it rewrites cannot re-introduce
            // diagnostics.
            let mut t = Tape::inference();
            let probs = model.record_scores(&mut t, example);
            let opt = optimize(&t, probs, model.params(), &OptimizeConfig::default());
            let lint = lint_graph(&opt.tape, opt.root, model.params(), &LintConfig::eval());
            assert!(
                lint.is_clean_at(Severity::Warn),
                "{tag}: optimised tape lints dirty at --deny warn\n{lint}"
            );

            // The optimised session replay is bitwise-equal to eager
            // prediction, on the first call (plan build) and on cache hits.
            let eager = model.predict(example);
            let mut session = Session::new(model);
            assert!(session.optimizes(), "{tag}: sessions must optimise by default");
            for round in 0..2 {
                let scored = session.score(example);
                assert_eq!(scored.len(), eager.len(), "{tag} round {round}: output count");
                for (k, (e, s)) in eager.iter().zip(&scored).enumerate() {
                    assert_eq!(
                        e.to_bits(),
                        s.to_bits(),
                        "{tag} round {round}: output {k} eager {e} vs optimised session {s}"
                    );
                }
            }
        }
    });
}

#[test]
fn optimised_sessions_match_eager_bitwise_at_width_1() {
    run_all(1);
}

#[test]
fn optimised_sessions_match_eager_bitwise_at_width_8() {
    run_all(8);
}
