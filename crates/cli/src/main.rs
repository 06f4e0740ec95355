//! `hiergat` — command-line entity resolution.
//!
//! Subcommands:
//!
//! * `train   --train train.csv --valid valid.csv --test test.csv --model DIR`
//!   trains HierGAT on DeepMatcher-style labeled CSV pair files (columns
//!   `label,ltable_*,rtable_*`) and saves the checkpoint.
//! * `predict --model DIR --pairs pairs.csv [--threshold T]`
//!   scores a pair file with a saved model through a forward-only
//!   inference [`Session`] (cached arena plans, thread-pool batching;
//!   bitwise identical to eager scoring) and prints `score,prediction`
//!   rows as CSV. The decision threshold defaults to the checkpoint's
//!   validation-tuned value; `--threshold` overrides it.
//! * `block   --left tableA.csv --right tableB.csv [--top 16]`
//!   TF-IDF top-N candidate generation between two entity tables.
//! * `demo    [--dataset amazon-google] [--scale 0.5]`
//!   trains on a bundled synthetic benchmark (no files needed).
//! * `analyze [--dataset amazon-google] [--scale 0.5]`
//!   runs the static tape analyzer (shape inference, gradient
//!   reachability, node liveness, HHG validation) over the training
//!   graphs of HierGAT, HierGAT+, and every baseline — no kernels run.
//!
//! `analyze`, `lint`, `plan`, and `audit` resolve the model set through
//! [`ModelRegistry`] — no per-model code here; adding a model to the
//! registry adds it to all four subcommands.
//! * `lint    [--dataset amazon-google] [--scale 0.5] [--deny warn] [--json]`
//!   runs the numerical-stability / efficiency / gradient-hygiene rule
//!   engine over the same model graphs plus the kernel write-disjointness
//!   race audit, failing (deny-by-default) on any diagnostic at or above
//!   the gate severity.
//! * `plan    [--dataset amazon-google] [--scale 0.5]`
//!   builds the forward-only arena memory plan each model's scoring
//!   session uses and prints its budget (planned arena bytes vs the naive
//!   sum of buffer sizes vs the liveness lower bound).
//! * `audit   [--dataset amazon-google] [--scale 0.5] [--deny warn] [--json]
//!   [--weights DIR] [--input-bound B] [--param-bound W]`
//!   runs the interval abstract interpreter over each model's inference
//!   scoring graph: proven per-node value ranges, overflow/underflow/NaN
//!   findings, and the int8/f16/f32 quantisation feasibility table.
//!   Symbolic by default (inputs in `[-B, B]`, parameters in `[-W, W]`);
//!   `--weights DIR` audits a saved HierGAT checkpoint with concrete
//!   per-parameter ranges instead (weight-aware seeding).
//! * `optimize [--dataset amazon-google] [--scale 0.5] [--json] [--verify]`
//!   runs the certified tape optimiser (DCE / CSE / constant folding /
//!   fusion) over each model's inference scoring graph and prints the
//!   node / FLOP / arena-byte deltas plus per-rewrite certificate tallies.
//!   `--verify` additionally proves interval containment for every rewrite
//!   and differentially checks the optimised session against eager
//!   prediction (bitwise), failing if either check does.
//! * `quantise [--dataset amazon-google] [--scale 0.5] [--delta 0.05]
//!   [--input-bound B] [--report] [--json]`
//!   quantises every registry model's scoring session post-training,
//!   driven by the absint feasibility table (int8 / f16 / f32 per tensor),
//!   and gates the result: evaluation F1 must stay within `--delta` of the
//!   f32 session and the audited grids must need fewer weight bytes.
//!   `--report` adds the per-class parameter breakdown.
//! * `resolve (--entities N | --table FILE) [--top 8] [--accept 0.85]
//!   [--band LO:HI --model DIR] [--shards 8] [--out FILE] [--json]`
//!   end-to-end streaming entity resolution: sharded TF-IDF top-N
//!   blocking → cosine cascade (auto-accept above `--accept`; the
//!   ambiguous `--band` adjudicated by a saved HierGAT session) →
//!   union-find clustering with canonical labels. Synthetic mode
//!   (`--entities`) scores pairwise cluster P/R/F1 against the corpus's
//!   gold ids. Cluster output is bitwise-identical at any
//!   `HIERGAT_THREADS` width.
//!
//! `train` and `demo` also accept `--analyze` to run the same static
//! check on the model being trained before epoch 0.

use hiergat::{load_model, save_model, train_pairwise, HierGat, HierGatConfig};
use hiergat_data::io::{read_entity_table, read_pairs};
use hiergat_data::{CollectiveDataset, MagellanDataset, PairDataset};
use hiergat_lm::{corpus_from_entities, pretrain, LmTier, PretrainConfig};
use hiergat_runtime::{
    BuildContext, ErModel, Example, HierGatPairwise, ModelKind, ModelRegistry, ModelSpec, Session,
};
use std::collections::HashMap;
use std::process::ExitCode;

mod args;

use args::Args;

fn main() -> ExitCode {
    // `std::env::args()` panics on non-UTF-8 argv entries (easy to hit with
    // byte-string paths on Unix); collect OsStrings and reject them cleanly.
    let mut argv = Vec::new();
    for (i, arg) in std::env::args_os().skip(1).enumerate() {
        match arg.into_string() {
            Ok(s) => argv.push(s),
            Err(bad) => {
                eprintln!("error: argument {} is not valid UTF-8: {bad:?}", i + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  hiergat train   --train FILE --valid FILE --test FILE --model DIR
                  [--tier dbert|roberta|lroberta] [--epochs N] [--no-pretrain]
                  [--analyze]
  hiergat predict --model DIR --pairs FILE [--threshold T]
  hiergat block   --left FILE --right FILE [--top N]
  hiergat demo    [--dataset NAME] [--scale S] [--epochs N]
  hiergat analyze [--dataset NAME] [--scale S]
  hiergat lint    [--dataset NAME] [--scale S] [--deny warn|deny] [--json]
  hiergat plan    [--dataset NAME] [--scale S]
  hiergat audit   [--dataset NAME] [--scale S] [--deny warn|deny] [--json]
                  [--weights DIR] [--input-bound B] [--param-bound W]
  hiergat optimize [--dataset NAME] [--scale S] [--json] [--verify]
  hiergat quantise [--dataset NAME] [--scale S] [--delta D] [--input-bound B]
                  [--report] [--json]
  hiergat resolve (--entities N | --table FILE) [--copies K] [--family-size F]
                  [--seed S] [--top N] [--min-cosine C] [--accept A]
                  [--band LO:HI --model DIR] [--shards K] [--max-df R]
                  [--batch B] [--chunk C] [--out FILE] [--json]";

fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "train" => cmd_train(&args),
        "predict" => cmd_predict(&args),
        "block" => cmd_block(&args),
        "demo" => cmd_demo(&args),
        "analyze" => cmd_analyze(&args),
        "lint" => cmd_lint(&args),
        "plan" => cmd_plan(&args),
        "audit" => cmd_audit(&args),
        "optimize" => cmd_optimize(&args),
        "quantise" => cmd_quantise(&args),
        "resolve" => cmd_resolve(&args),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn tier_of(args: &Args) -> Result<LmTier, String> {
    match args.get("tier").unwrap_or("roberta") {
        "dbert" => Ok(LmTier::MiniDistil),
        "roberta" => Ok(LmTier::MiniBase),
        "lroberta" => Ok(LmTier::MiniLarge),
        other => Err(format!("unknown tier '{other}' (dbert|roberta|lroberta)")),
    }
}

fn train_on(ds: &PairDataset, args: &Args) -> Result<HierGat, String> {
    let tier = tier_of(args)?;
    let epochs: usize = args.get_parsed("epochs").unwrap_or(Ok(8))?;
    let mut model = HierGat::new(
        HierGatConfig::pairwise().with_tier(tier).with_epochs(epochs),
        ds.arity().max(1),
    );
    if args.has_flag("analyze") {
        let pair = ds.train.first().ok_or("dataset has no training pairs")?;
        let report = model.analyze_pair(pair);
        eprintln!("static analysis of the training graph:\n{report}");
        if !report.is_clean() {
            return Err("static analysis found issues; aborting before training".into());
        }
    }
    if !args.has_flag("no-pretrain") {
        let entities: Vec<_> =
            ds.train.iter().flat_map(|p| [p.left.clone(), p.right.clone()]).collect();
        let corpus = corpus_from_entities(entities.iter());
        eprintln!("pre-training {} LM on {} sentences...", tier.name(), corpus.len());
        let pre = pretrain(tier.config(), &corpus, &PretrainConfig::default());
        model.load_pretrained(&pre.store);
    }
    eprintln!(
        "training HierGAT ({} parameters, {} epochs) on {} train pairs...",
        model.num_parameters(),
        epochs,
        ds.train.len()
    );
    let report = train_pairwise(&mut model, ds);
    let m = report.test_confusion.pr_f1();
    eprintln!(
        "test F1 {:.1}  precision {:.1}  recall {:.1}  ({:.1}s)",
        m.f1 * 100.0,
        m.precision * 100.0,
        m.recall * 100.0,
        report.total_seconds()
    );
    Ok(model)
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let train = read_pairs(args.require("train")?).map_err(|e| e.to_string())?;
    let valid = read_pairs(args.require("valid")?).map_err(|e| e.to_string())?;
    let test = read_pairs(args.require("test")?).map_err(|e| e.to_string())?;
    if train.is_empty() {
        return Err("training file has no pairs".into());
    }
    let ds = PairDataset { name: "cli".into(), train, valid, test };
    let model = train_on(&ds, args)?;
    let dir = args.require("model")?;
    save_model(&model, dir).map_err(|e| e.to_string())?;
    eprintln!("saved model to {dir}");
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let model = load_model(args.require("model")?).map_err(|e| e.to_string())?;
    let pairs = read_pairs(args.require("pairs")?).map_err(|e| e.to_string())?;
    // The session scores through cached forward-only arena plans (bitwise
    // identical to the eager path) and carries the checkpoint's
    // validation-tuned threshold; `--threshold` overrides it.
    let mut session = Session::new(Box::new(HierGatPairwise(model)));
    if let Some(threshold) = args.get_parsed("threshold") {
        session.set_threshold(unit_bound("--threshold", threshold?)?);
    }
    let threshold = session.threshold();
    let scores = session.score_pairs(&pairs);
    println!("score,prediction");
    for score in scores {
        println!("{score:.4},{}", u8::from(score >= threshold));
    }
    Ok(())
}

fn cmd_block(args: &Args) -> Result<(), String> {
    let left = read_entity_table(args.require("left")?).map_err(|e| e.to_string())?;
    let right = read_entity_table(args.require("right")?).map_err(|e| e.to_string())?;
    let top: usize = args.get_parsed("top").unwrap_or(Ok(16))?;
    let blocker = hiergat_blocking::TfIdfBlocker::fit(&right);
    println!("left_id,right_id,cosine");
    for l in &left {
        for (idx, score) in blocker.top_n(l, top) {
            println!("{},{},{score:.4}", l.id, right[idx].id);
        }
    }
    Ok(())
}

/// Machine-readable summary of a `hiergat resolve` run (`--json`).
#[derive(serde::Serialize)]
struct ResolveSummary {
    records: usize,
    clusters: usize,
    candidates: u64,
    cosine_accepted: u64,
    model_scored: u64,
    model_accepted: u64,
    merges: u64,
    index_bytes: u64,
    batch_peak_bytes: u64,
    pruned_terms: usize,
    fit_secs: f64,
    resolve_secs: f64,
    scoring_secs: f64,
    entities_per_s: f64,
    candidates_per_s: f64,
    cluster_precision: Option<f64>,
    cluster_recall: Option<f64>,
    cluster_f1: Option<f64>,
}

/// End-to-end streaming resolution: sharded TF-IDF blocking → cosine
/// cascade (optional HierGAT session for the ambiguous band) → union-find
/// clustering. Synthetic mode (`--entities N`) also scores the clustering
/// against the corpus's gold cluster ids.
/// Checks a score cut-off: scores are probabilities or cosines, so a
/// bound outside [0, 1] (or NaN) would accept everything or nothing.
fn unit_bound(flag: &str, v: f32) -> Result<f32, String> {
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(format!("{flag} must be a number in [0, 1], got {v}"))
    }
}

fn cmd_resolve(args: &Args) -> Result<(), String> {
    use hiergat_blocking::{EntityStore, TfIdfCandidates, TfIdfSourceConfig};
    use hiergat_data::{CorpusConfig, SynthCorpus};
    use hiergat_metrics::pairwise_cluster_metrics;
    use hiergat_runtime::{resolve, ResolveConfig};
    use std::time::Instant;

    let top: usize = args.get_parsed("top").unwrap_or(Ok(8))?;
    let min_cosine =
        unit_bound("--min-cosine", args.get_parsed("min-cosine").unwrap_or(Ok(0.15))?)?;
    let accept = unit_bound("--accept", args.get_parsed("accept").unwrap_or(Ok(0.85))?)?;
    let threshold = match args.get_parsed("threshold") {
        Some(t) => Some(unit_bound("--threshold", t?)?),
        None => None,
    };
    let shards: usize = args.get_parsed("shards").unwrap_or(Ok(8))?;
    let max_df: f64 = args.get_parsed("max-df").unwrap_or(Ok(0.01))?;
    let batch: usize = args.get_parsed("batch").unwrap_or(Ok(1024))?;
    let chunk: usize = args.get_parsed("chunk").unwrap_or(Ok(128))?;
    if shards == 0 || chunk == 0 {
        return Err("--shards and --chunk must be at least 1".into());
    }

    let band = match args.get("band") {
        Some(spec) => {
            let (lo, hi) = spec.split_once(':').ok_or("--band expects LO:HI (e.g. 0.5:0.85)")?;
            let lo = lo.parse().map_err(|e| format!("--band low bound: {e}"))?;
            let hi = hi.parse().map_err(|e| format!("--band high bound: {e}"))?;
            let (lo, hi) = (unit_bound("--band LO", lo)?, unit_bound("--band HI", hi)?);
            if lo > hi {
                return Err(format!("--band LO:HI needs LO <= HI, got {lo}:{hi}"));
            }
            Some((lo, hi))
        }
        None => None,
    };
    let mut session = match args.get("model") {
        Some(dir) => {
            let model = load_model(dir).map_err(|e| e.to_string())?;
            Some(Session::new(Box::new(HierGatPairwise(model))))
        }
        None => None,
    };
    if band.is_some() && session.is_none() {
        return Err("--band routes pairs through a model; pass --model DIR".into());
    }
    if let (Some(session), Some(t)) = (session.as_mut(), threshold) {
        session.set_threshold(t);
    }

    let (store, gold): (Box<dyn EntityStore>, Option<Vec<u32>>) = match args.get("entities") {
        Some(_) => {
            let n: usize = args.get_parsed("entities").unwrap_or(Ok(0))?;
            let corpus = SynthCorpus::new(CorpusConfig {
                n_records: n,
                copies: args.get_parsed("copies").unwrap_or(Ok(3))?,
                family_size: args.get_parsed("family-size").unwrap_or(Ok(4))?,
                seed: args.get_parsed("seed").unwrap_or(Ok(0xC0FFEE))?,
            });
            let gold = corpus.gold_labels();
            (Box::new(corpus), Some(gold))
        }
        None => {
            let path = args
                .get("table")
                .ok_or("resolve needs a corpus: --entities N (synthetic) or --table FILE")?;
            let table = read_entity_table(path).map_err(|e| e.to_string())?;
            (Box::new(table), None)
        }
    };
    if store.is_empty() {
        return Err("corpus is empty".into());
    }

    let src_cfg = TfIdfSourceConfig {
        top_n: top,
        min_score: min_cosine,
        n_shards: shards,
        max_df: if max_df > 0.0 { Some(max_df) } else { None },
        fit_chunk: 4096,
    };
    let fit_start = Instant::now();
    let source = TfIdfCandidates::fit_dedup(store.as_ref(), &src_cfg);
    let fit_secs = fit_start.elapsed().as_secs_f64();
    eprintln!(
        "fitted sharded index: {} records, {} shards, {} postings ({} terms pruned), {:.1} MB, {fit_secs:.1}s",
        store.len(),
        shards,
        source.index().n_postings(),
        source.index().pruned_terms(),
        source.memory_bytes() as f64 / 1e6,
    );

    let cfg = ResolveConfig { batch_size: batch, score_chunk: chunk, accept, band };
    let resolution = resolve(&source, store.as_ref(), session.as_mut(), &cfg);
    let stats = &resolution.stats;

    let cluster_scores =
        gold.as_deref().map(|gold| pairwise_cluster_metrics(&resolution.labels, gold).pr_f1());
    let summary = ResolveSummary {
        records: stats.records,
        clusters: stats.clusters,
        candidates: stats.candidates,
        cosine_accepted: stats.cosine_accepted,
        model_scored: stats.model_scored,
        model_accepted: stats.model_accepted,
        merges: stats.merges,
        index_bytes: source.memory_bytes(),
        batch_peak_bytes: stats.batch_peak_bytes,
        pruned_terms: source.index().pruned_terms(),
        fit_secs,
        resolve_secs: stats.total_secs,
        scoring_secs: stats.scoring_secs,
        entities_per_s: stats.records as f64 / (fit_secs + stats.total_secs).max(1e-9),
        candidates_per_s: stats.candidates as f64 / stats.total_secs.max(1e-9),
        cluster_precision: cluster_scores.map(|s| s.precision),
        cluster_recall: cluster_scores.map(|s| s.recall),
        cluster_f1: cluster_scores.map(|s| s.f1),
    };

    eprintln!(
        "resolved {} records into {} clusters in {:.1}s ({:.0} entities/s): \
         {} candidates, {} cosine-accepted, {} model-scored, {} model-accepted",
        summary.records,
        summary.clusters,
        fit_secs + stats.total_secs,
        summary.entities_per_s,
        summary.candidates,
        summary.cosine_accepted,
        summary.model_scored,
        summary.model_accepted,
    );
    if let Some(s) = cluster_scores {
        eprintln!(
            "cluster pairwise vs gold: precision {:.1} recall {:.1} F1 {:.1}",
            s.precision * 100.0,
            s.recall * 100.0,
            s.f1 * 100.0
        );
    }

    // Cluster assignment CSV: canonical labels, so the bytes are identical
    // at any pool width.
    let mut csv = String::with_capacity(16 * resolution.labels.len() + 16);
    csv.push_str("record,cluster\n");
    for (i, label) in resolution.labels.iter().enumerate() {
        csv.push_str(&format!("{i},{label}\n"));
    }
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} cluster assignments to {path}", resolution.labels.len());
        }
        None if !args.has_flag("json") => print!("{csv}"),
        None => {}
    }
    if args.has_flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| format!("serializing: {e}"))?
        );
    }
    Ok(())
}

fn dataset_of(args: &Args) -> Result<MagellanDataset, String> {
    let name = args.get("dataset").unwrap_or("amazon-google");
    let by_name: HashMap<String, MagellanDataset> =
        MagellanDataset::all().into_iter().map(|d| (d.name().to_lowercase(), d)).collect();
    by_name.get(&name.to_lowercase()).copied().ok_or_else(|| {
        format!(
            "unknown dataset '{name}'; one of: {}",
            MagellanDataset::all().map(|d| d.name().to_lowercase()).join(", ")
        )
    })
}

fn cmd_demo(args: &Args) -> Result<(), String> {
    let kind = dataset_of(args)?;
    let scale: f64 = args.get_parsed("scale").unwrap_or(Ok(0.5))?;
    let ds = kind.load(scale);
    eprintln!("demo on {} ({} pairs)", ds.name, ds.len());
    let model = train_on(&ds, args)?;
    if let Some(dir) = args.get("model") {
        save_model(&model, dir).map_err(|e| e.to_string())?;
        eprintln!("saved model to {dir}");
    }
    Ok(())
}

/// Loads the pairwise + collective views of the selected dataset along with
/// the LM tier — the shared inputs of the registry-driven subcommands.
fn registry_inputs(args: &Args) -> Result<(PairDataset, CollectiveDataset, LmTier), String> {
    let kind = dataset_of(args)?;
    let scale: f64 = args.get_parsed("scale").unwrap_or(Ok(0.5))?;
    Ok((kind.load(scale), kind.load_collective(scale), tier_of(args)?))
}

/// Builds every registered model with the context its kind requires and
/// hands it to `f` together with the matching first training example.
fn for_each_model(
    tier: LmTier,
    ds: &PairDataset,
    ds_c: &CollectiveDataset,
    mut f: impl FnMut(&ModelSpec, &dyn ErModel, Example<'_>),
) -> Result<(), String> {
    let pair = ds.train.first().ok_or("dataset has no training pairs")?;
    let ex = ds_c.train.first().ok_or("collective dataset has no training examples")?;
    let pair_cx = BuildContext { tier, arity: ds.arity().max(1) };
    let coll_cx = BuildContext { tier, arity: ex.query.attrs.len().max(1) };
    for spec in ModelRegistry::builtin().specs() {
        let (cx, example) = match spec.kind() {
            ModelKind::Pairwise => (&pair_cx, Example::Pair(pair)),
            ModelKind::Collective => (&coll_cx, Example::Collective(ex)),
        };
        f(spec, &*spec.build(cx), example);
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let (ds, ds_c, tier) = registry_inputs(args)?;
    let mut dirty = 0usize;
    for_each_model(tier, &ds, &ds_c, |spec, model, example| {
        let report = model.analyze(example);
        println!("== {} ==", spec.display());
        println!("{report}");
        if !report.is_clean() {
            dirty += 1;
        }
    })?;
    if dirty > 0 {
        Err(format!("{dirty} model graph(s) reported static-analysis issues"))
    } else {
        println!("all model graphs analyze clean");
        Ok(())
    }
}

/// One linted model graph in the `lint --json` document.
#[derive(serde::Serialize)]
struct ModelLint {
    model: String,
    clean: bool,
    report: hiergat_nn::LintReport,
}

/// The full `lint --json` document: per-model rule-engine reports plus the
/// kernel write-disjointness race audit.
#[derive(serde::Serialize)]
struct LintOutput {
    gate: String,
    models: Vec<ModelLint>,
    race_audit: hiergat_tensor::RaceAuditReport,
    skipped: Vec<String>,
    failed: bool,
}

/// Parses the `--deny` gate severity shared by `lint` and `audit`.
fn deny_gate(args: &Args) -> Result<hiergat_nn::Severity, String> {
    match args.get("deny").unwrap_or("deny") {
        "warn" => Ok(hiergat_nn::Severity::Warn),
        "deny" => Ok(hiergat_nn::Severity::Deny),
        other => Err(format!("unknown --deny level '{other}' (warn|deny)")),
    }
}

fn cmd_lint(args: &Args) -> Result<(), String> {
    let gate = deny_gate(args)?;
    let (ds, ds_c, tier) = registry_inputs(args)?;

    let mut models = Vec::new();
    for_each_model(tier, &ds, &ds_c, |spec, model, example| {
        let report = model.lint_training(example);
        models.push(ModelLint {
            model: spec.display().to_string(),
            clean: report.is_clean_at(gate),
            report,
        });
    })?;

    let race_audit = hiergat_tensor::race_audit();
    let out = LintOutput {
        gate: format!("{gate:?}").to_lowercase(),
        skipped: ModelRegistry::builtin().tapeless_notes(),
        failed: models.iter().any(|m| !m.clean) || !race_audit.is_clean(),
        models,
        race_audit,
    };

    if args.has_flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| format!("serializing report: {e}"))?
        );
    } else {
        for m in &out.models {
            println!("== {} ==", m.model);
            println!("{}", m.report);
        }
        println!("== race audit (write disjointness) ==");
        print!("{}", out.race_audit);
        for note in &out.skipped {
            println!("note: {note}");
        }
    }
    if out.failed {
        let dirty = out.models.iter().filter(|m| !m.clean).count();
        let races = out.race_audit.failures().len();
        Err(format!(
            "lint gate failed: {dirty} model graph(s) at or above --deny {}, \
             {races} race-audit violation(s)",
            out.gate
        ))
    } else {
        if !args.has_flag("json") {
            println!("all model graphs lint clean at --deny {}", out.gate);
        }
        Ok(())
    }
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let (ds, ds_c, tier) = registry_inputs(args)?;
    for_each_model(tier, &ds, &ds_c, |spec, model, example| {
        println!("{:32} {}", spec.display(), model.plan_inference(example));
    })?;
    Ok(())
}

/// One audited model graph in the `audit --json` document.
#[derive(serde::Serialize)]
struct ModelAudit {
    model: String,
    clean: bool,
    report: hiergat_nn::AuditReport,
}

/// The full `audit --json` document: per-model interval-audit reports
/// (proven ranges, findings, quantisation table) under one seeding.
#[derive(serde::Serialize)]
struct AuditOutput {
    gate: String,
    seed: String,
    models: Vec<ModelAudit>,
    skipped: Vec<String>,
    failed: bool,
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    let gate = deny_gate(args)?;
    let input_bound: f64 = args.get_parsed("input-bound").unwrap_or(Ok(8.0))?;
    let param_bound: f64 = args.get_parsed("param-bound").unwrap_or(Ok(4.0))?;
    if input_bound <= 0.0 || param_bound <= 0.0 {
        return Err("--input-bound and --param-bound must be positive".into());
    }
    let (ds, ds_c, tier) = registry_inputs(args)?;

    let mut models = Vec::new();
    let cfg;
    if let Some(dir) = args.get("weights") {
        // Weight-aware: audit the saved HierGAT checkpoint with concrete
        // per-parameter ranges read from its store.
        cfg = hiergat_nn::AbsintConfig::weight_aware(input_bound);
        let pair = ds.train.first().ok_or("dataset has no training pairs")?;
        let model = HierGatPairwise(load_model(dir).map_err(|e| e.to_string())?);
        let report = model.audit(Example::Pair(pair), &cfg);
        models.push(ModelAudit {
            model: format!("hiergat [checkpoint {dir}]"),
            clean: report.is_clean_at(gate),
            report,
        });
    } else {
        cfg = hiergat_nn::AbsintConfig::symbolic(input_bound, param_bound);
        for_each_model(tier, &ds, &ds_c, |spec, model, example| {
            let report = model.audit(example, &cfg);
            models.push(ModelAudit {
                model: spec.display().to_string(),
                clean: report.is_clean_at(gate),
                report,
            });
        })?;
    }

    let out = AuditOutput {
        gate: format!("{gate:?}").to_lowercase(),
        seed: cfg.describe(),
        skipped: ModelRegistry::builtin().tapeless_notes(),
        failed: models.iter().any(|m| !m.clean),
        models,
    };

    if args.has_flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| format!("serializing report: {e}"))?
        );
    } else {
        for m in &out.models {
            println!("== {} ==", m.model);
            println!("{}", m.report);
        }
        for note in &out.skipped {
            println!("note: {note}");
        }
    }
    if out.failed {
        let dirty = out.models.iter().filter(|m| !m.clean).count();
        Err(format!(
            "audit gate failed: {dirty} model graph(s) with findings at or above --deny {}",
            out.gate
        ))
    } else {
        if !args.has_flag("json") {
            println!("all model graphs audit clean at --deny {} ({})", out.gate, out.seed);
        }
        Ok(())
    }
}

/// One optimised model graph in the `optimize --json` document.
#[derive(serde::Serialize)]
struct ModelOptimize {
    model: String,
    arena_bytes_before: u64,
    arena_bytes_after: u64,
    certificates_valid: bool,
    /// Eager predict vs optimised session, bitwise; always `true` when
    /// `--verify` is off (the check is skipped).
    differential_ok: bool,
    report: hiergat_nn::OptimizeReport,
}

/// The full `optimize --json` document: per-model optimiser reports plus
/// the arena deltas of the session plans they feed.
#[derive(serde::Serialize)]
struct OptimizeOutput {
    verify: bool,
    models: Vec<ModelOptimize>,
    skipped: Vec<String>,
    failed: bool,
}

fn cmd_optimize(args: &Args) -> Result<(), String> {
    let verify = args.has_flag("verify");
    let (ds, ds_c, tier) = registry_inputs(args)?;
    let pair = ds.train.first().ok_or("dataset has no training pairs")?;
    let ex_c = ds_c.train.first().ok_or("collective dataset has no training examples")?;
    let pair_cx = BuildContext { tier, arity: ds.arity().max(1) };
    let coll_cx = BuildContext { tier, arity: ex_c.query.attrs.len().max(1) };

    // Builds boxed models directly (rather than via `for_each_model`)
    // because the `--verify` differential consumes each model into a
    // scoring `Session`.
    let mut models = Vec::new();
    for spec in ModelRegistry::builtin().specs() {
        let (cx, example) = match spec.kind() {
            ModelKind::Pairwise => (&pair_cx, Example::Pair(pair)),
            ModelKind::Collective => (&coll_cx, Example::Collective(ex_c)),
        };
        let model = spec.build(cx);
        let report = model.optimize_report(example, verify);
        // Arena budget of the as-recorded inference plan vs the optimised
        // one the session actually replays.
        let mut t = hiergat_nn::Tape::inference();
        let probs = model.record_scores(&mut t, example);
        let arena_bytes_before =
            hiergat_nn::ExecutionPlan::build_inference(&t, probs).report().arena_bytes;
        let arena_bytes_after = model.plan_inference(example).arena_bytes;
        let differential_ok = if verify {
            let eager = model.predict(example);
            let mut session = Session::new(model);
            let scored = session.score(example);
            eager.len() == scored.len()
                && eager.iter().zip(&scored).all(|(e, s)| e.to_bits() == s.to_bits())
        } else {
            true
        };
        models.push(ModelOptimize {
            model: spec.display().to_string(),
            arena_bytes_before,
            arena_bytes_after,
            certificates_valid: report.all_valid(),
            differential_ok,
            report,
        });
    }

    let out = OptimizeOutput {
        verify,
        skipped: ModelRegistry::builtin().tapeless_notes(),
        failed: models.iter().any(|m| !m.certificates_valid || !m.differential_ok),
        models,
    };

    if args.has_flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| format!("serializing report: {e}"))?
        );
    } else {
        for m in &out.models {
            println!("== {} ==", m.model);
            println!("{}", m.report);
            println!(
                "arena {} -> {} bytes{}",
                m.arena_bytes_before,
                m.arena_bytes_after,
                if out.verify {
                    if m.differential_ok {
                        "  [differential: bitwise ok]"
                    } else {
                        "  [differential: MISMATCH]"
                    }
                } else {
                    ""
                }
            );
        }
        for note in &out.skipped {
            println!("note: {note}");
        }
    }
    if out.failed {
        let bad = out.models.iter().filter(|m| !m.certificates_valid || !m.differential_ok).count();
        Err(format!("optimize gate failed: {bad} model graph(s) with invalid certificates or differential mismatches"))
    } else {
        if !args.has_flag("json") {
            println!(
                "all model graphs optimize with valid certificates{}",
                if out.verify { " and bitwise differentials" } else { "" }
            );
        }
        Ok(())
    }
}

/// One quantised model in the `quantise --json` document.
#[derive(serde::Serialize)]
struct ModelQuantise {
    model: String,
    f1_f32: f64,
    f1_quantised: f64,
    f1_delta: f64,
    weight_bytes_f32: u64,
    weight_bytes_quantised: u64,
    int8_params: usize,
    f16_params: usize,
    f32_params: usize,
    ok: bool,
}

/// The full `quantise --json` document: per-model F1 deltas and weight
/// bytes, f32 vs the audited grids.
#[derive(serde::Serialize)]
struct QuantiseOutput {
    delta: f64,
    input_bound: f64,
    models: Vec<ModelQuantise>,
    skipped: Vec<String>,
    failed: bool,
}

fn cmd_quantise(args: &Args) -> Result<(), String> {
    // The default F1 delta absorbs a single flipped decision at the
    // bundled gate datasets' positive counts (one flip on ~10 positive
    // pairs moves F1 by ~0.1); larger eval sets should tighten it.
    let delta: f64 = args.get_parsed("delta").unwrap_or(Ok(0.10))?;
    let input_bound: f64 = args.get_parsed("input-bound").unwrap_or(Ok(8.0))?;
    if delta <= 0.0 || input_bound <= 0.0 {
        return Err("--delta and --input-bound must be positive".into());
    }
    let (ds, ds_c, tier) = registry_inputs(args)?;
    let pair_cx = BuildContext { tier, arity: ds.arity().max(1) };
    let cfg = hiergat_nn::QuantConfig { input_bound };

    let mut models = Vec::new();
    for spec in ModelRegistry::builtin().specs() {
        // Evaluation set: every split pooled (the gate checks the storage
        // contract, not generalisation, and small Magellan test splits
        // make F1 far too coarse on their own), with the flattened
        // ground-truth labels in matching output order.
        let (cx, examples, labels): (_, Vec<Example<'_>>, Vec<bool>) = match spec.kind() {
            ModelKind::Pairwise => {
                let pool: Vec<&hiergat_data::EntityPair> =
                    [&ds.train, &ds.valid, &ds.test].into_iter().flatten().collect();
                let pairs = &pool[..pool.len().min(128)];
                (
                    pair_cx,
                    pairs.iter().map(|p| Example::Pair(p)).collect(),
                    pairs.iter().map(|p| p.label).collect(),
                )
            }
            ModelKind::Collective => {
                let pool = if ds_c.test.is_empty() { &ds_c.train } else { &ds_c.test };
                let exs = &pool[..pool.len().min(8)];
                let arity = exs.first().map_or(1, |e| e.query.attrs.len()).max(1);
                (
                    BuildContext { tier, arity },
                    exs.iter().map(Example::Collective).collect(),
                    exs.iter().flat_map(|e| e.labels.iter().copied()).collect(),
                )
            }
        };
        if examples.is_empty() {
            return Err(format!("{}: no evaluation examples in the split", spec.display()));
        }
        let mut session = Session::new(spec.build(&cx));
        let threshold = session.threshold();
        let f32_scores: Vec<f32> = session.score_batch(&examples).into_iter().flatten().collect();
        let report = session
            .quantise(examples[0], &cfg)
            .map_err(|e| format!("{}: quantise failed: {e}", spec.display()))?;
        let q_scores: Vec<f32> = session.score_batch(&examples).into_iter().flatten().collect();
        let decide = |scores: &[f32]| scores.iter().map(|s| *s >= threshold).collect::<Vec<bool>>();
        let f1_f32 =
            hiergat_metrics::Confusion::from_predictions(&decide(&f32_scores), &labels).pr_f1().f1;
        let f1_quantised =
            hiergat_metrics::Confusion::from_predictions(&decide(&q_scores), &labels).pr_f1().f1;
        let f1_delta = f1_quantised - f1_f32;
        // Storage gate: the audited grids must need fewer weight bytes.
        let ok =
            f1_delta.abs() <= delta && report.weights.bytes_quantised < report.weights.bytes_f32;
        models.push(ModelQuantise {
            model: spec.display().to_string(),
            f1_f32,
            f1_quantised,
            f1_delta,
            weight_bytes_f32: report.weights.bytes_f32,
            weight_bytes_quantised: report.weights.bytes_quantised,
            int8_params: report.weights.int8_params,
            f16_params: report.weights.f16_params,
            f32_params: report.weights.f32_params,
            ok,
        });
    }

    let out = QuantiseOutput {
        delta,
        input_bound,
        skipped: ModelRegistry::builtin().tapeless_notes(),
        failed: models.iter().any(|m| !m.ok),
        models,
    };

    if args.has_flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| format!("serializing report: {e}"))?
        );
    } else {
        for m in &out.models {
            println!("== {} ==", m.model);
            println!(
                "F1 {:.3} -> {:.3} (delta {:+.3}, gate {:.3})  weights {} -> {} bytes{}",
                m.f1_f32,
                m.f1_quantised,
                m.f1_delta,
                out.delta,
                m.weight_bytes_f32,
                m.weight_bytes_quantised,
                if m.ok { "" } else { "  [FAILED]" }
            );
            if args.has_flag("report") {
                println!(
                    "params int8/f16/f32: {}/{}/{}",
                    m.int8_params, m.f16_params, m.f32_params
                );
            }
        }
        for note in &out.skipped {
            println!("note: {note}");
        }
    }
    if out.failed {
        let bad = out.models.iter().filter(|m| !m.ok).count();
        Err(format!(
            "quantise gate failed: {bad} model(s) outside the F1 delta {:.3} or without \
             weight-byte savings",
            out.delta
        ))
    } else {
        if !args.has_flag("json") {
            println!("all model sessions quantise within F1 delta {:.3}", out.delta);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_all_subcommands() {
        let cmds = [
            "train", "predict", "block", "demo", "analyze", "lint", "plan", "audit", "optimize",
            "quantise", "resolve",
        ];
        for cmd in cmds {
            assert!(USAGE.contains(cmd));
        }
    }

    #[test]
    fn plan_prints_budgets_for_all_models() {
        let argv: Vec<String> =
            ["plan", "--dataset", "fodors-zagats", "--scale", "0.2", "--tier", "dbert"]
                .iter()
                .map(ToString::to_string)
                .collect();
        run(&argv).expect("plan");
    }

    #[test]
    fn unknown_subcommand_is_rejected() {
        let err = run(&["frobnicate".to_string()]).expect_err("unknown subcommand must fail");
        assert!(err.contains("unknown subcommand"));
    }

    #[test]
    fn missing_subcommand_is_rejected() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn tier_parsing() {
        let args = Args::parse(&["--tier".into(), "dbert".into()]).expect("parse");
        assert_eq!(tier_of(&args).expect("tier"), LmTier::MiniDistil);
        let args = Args::parse(&["--tier".into(), "bogus".into()]).expect("parse");
        assert!(tier_of(&args).is_err());
    }

    #[test]
    fn demo_rejects_unknown_dataset() {
        let args = Args::parse(&["--dataset".into(), "nope".into()]).expect("parse");
        let err = cmd_demo(&args).expect_err("unknown dataset must fail");
        assert!(err.contains("unknown dataset"));
    }

    #[test]
    fn block_runs_on_csv_tables() {
        let dir = std::env::temp_dir().join("hiergat-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp");
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        std::fs::write(&a, "id,title\n1,canon eos camera\n").expect("write");
        std::fs::write(&b, "id,title\n9,canon eos body\n8,leather watch\n").expect("write");
        let args = Args::parse(&[
            "--left".into(),
            a.display().to_string(),
            "--right".into(),
            b.display().to_string(),
            "--top".into(),
            "1".into(),
        ])
        .expect("parse");
        cmd_block(&args).expect("block");
    }

    #[test]
    fn analyze_reports_clean_graphs_for_all_models() {
        let argv: Vec<String> =
            ["analyze", "--dataset", "fodors-zagats", "--scale", "0.2", "--tier", "dbert"]
                .iter()
                .map(ToString::to_string)
                .collect();
        run(&argv).expect("analyze");
    }

    #[test]
    fn lint_reports_clean_graphs_for_all_models_at_deny_warn() {
        let argv: Vec<String> = [
            "lint",
            "--dataset",
            "fodors-zagats",
            "--scale",
            "0.2",
            "--tier",
            "dbert",
            "--deny",
            "warn",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        run(&argv).expect("lint");
    }

    #[test]
    fn lint_rejects_unknown_deny_level() {
        let args = Args::parse(&["--deny".into(), "everything".into()]).expect("parse");
        let err = cmd_lint(&args).expect_err("bad deny level must fail");
        assert!(err.contains("unknown --deny level"));
    }

    #[test]
    fn audit_reports_clean_graphs_for_all_models_at_deny_warn() {
        let argv: Vec<String> = [
            "audit",
            "--dataset",
            "fodors-zagats",
            "--scale",
            "0.2",
            "--tier",
            "dbert",
            "--deny",
            "warn",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        run(&argv).expect("audit");
    }

    #[test]
    fn optimize_verifies_certificates_and_differentials_for_all_models() {
        let argv: Vec<String> = [
            "optimize",
            "--dataset",
            "fodors-zagats",
            "--scale",
            "0.2",
            "--tier",
            "dbert",
            "--verify",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        run(&argv).expect("optimize --verify");
    }

    #[test]
    fn resolve_rejects_zero_chunk_and_shards() {
        for flag in ["--chunk", "--shards"] {
            let args = Args::parse(&["--entities".into(), "100".into(), flag.into(), "0".into()])
                .expect("parse");
            let err = cmd_resolve(&args).expect_err("zero must fail, not panic");
            assert!(err.contains("--shards and --chunk must be at least 1"), "{flag}: {err}");
        }
    }

    #[test]
    fn resolve_rejects_nonsense_cutoffs() {
        let cases = [
            ("--accept", "nan", "--accept must be a number in [0, 1]"),
            ("--accept", "-3", "--accept must be a number in [0, 1]"),
            ("--accept", "inf", "--accept must be a number in [0, 1]"),
            ("--min-cosine", "1.5", "--min-cosine must be a number in [0, 1]"),
            ("--threshold", "NaN", "--threshold must be a number in [0, 1]"),
            ("--band", "0.9:0.5", "needs LO <= HI"),
            ("--band", "nan:0.5", "--band LO must be a number in [0, 1]"),
            ("--band", "0.2:1.5", "--band HI must be a number in [0, 1]"),
        ];
        for (flag, value, want) in cases {
            let args =
                Args::parse(&["--entities", "100", flag, value].map(String::from)).expect("parse");
            let err = cmd_resolve(&args).expect_err("nonsense cut-off must fail");
            assert!(err.contains(want), "{flag} {value}: {err}");
        }
    }

    #[test]
    fn audit_rejects_nonpositive_bounds() {
        let args =
            Args::parse(&["--input-bound".into(), "0".into(), "--deny".into(), "warn".into()])
                .expect("parse");
        let err = cmd_audit(&args).expect_err("zero input bound must fail");
        assert!(err.contains("must be positive"));
    }

    #[test]
    fn train_save_predict_roundtrip_via_csv() {
        let dir = std::env::temp_dir().join("hiergat-cli-roundtrip");
        std::fs::create_dir_all(&dir).expect("tmp");
        // Generate a tiny dataset and write the DeepMatcher-style files.
        let ds = MagellanDataset::FodorsZagats.load(0.2);
        let paths: Vec<_> =
            ["train", "valid", "test"].iter().map(|s| dir.join(format!("{s}.csv"))).collect();
        hiergat_data::io::write_pairs(&paths[0], &ds.train).expect("w");
        hiergat_data::io::write_pairs(&paths[1], &ds.valid).expect("w");
        hiergat_data::io::write_pairs(&paths[2], &ds.test).expect("w");
        let model_dir = dir.join("model");
        let argv: Vec<String> = [
            "train",
            "--train",
            paths[0].display().to_string().as_str(),
            "--valid",
            paths[1].display().to_string().as_str(),
            "--test",
            paths[2].display().to_string().as_str(),
            "--model",
            model_dir.display().to_string().as_str(),
            "--tier",
            "dbert",
            "--epochs",
            "1",
            "--no-pretrain",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        run(&argv).expect("train");
        let argv: Vec<String> = [
            "predict",
            "--model",
            model_dir.display().to_string().as_str(),
            "--pairs",
            paths[2].display().to_string().as_str(),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        run(&argv).expect("predict");
    }
}
