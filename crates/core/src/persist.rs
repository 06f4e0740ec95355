//! Trained-model persistence: save/load a [`HierGat`] checkpoint
//! (binary weights + JSON config + schema arity) to a directory.

use crate::config::HierGatConfig;
use crate::model::HierGat;
use hiergat_nn::checkpoint::{self, CheckpointError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::path::Path;

/// Error saving or loading a model checkpoint.
#[derive(Debug)]
pub enum PersistError {
    /// Weight (de)serialization failure.
    Checkpoint(CheckpointError),
    /// Manifest (de)serialization failure.
    Manifest(serde_json::Error),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The checkpoint was saved from a quantised session and must be
    /// reloaded with [`load_model_with_mode`]: scoring it through a plain
    /// f32 session would silently drop the quantisation contract instead
    /// of honouring it.
    QuantisedCheckpoint,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            Self::Manifest(e) => write!(f, "manifest error: {e}"),
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::QuantisedCheckpoint => write!(
                f,
                "checkpoint was saved quantised; load it with load_model_with_mode and \
                 re-quantise the session (a plain f32 session would ignore the \
                 quantisation contract)"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<CheckpointError> for PersistError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        Self::Manifest(e)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

#[derive(Serialize, Deserialize)]
struct Manifest {
    config: HierGatConfig,
    arity: usize,
    format_version: u32,
    /// Validation-tuned decision threshold. Absent in format-version-1
    /// manifests; those load with the untuned default.
    #[serde(default = "default_decision_threshold")]
    decision_threshold: f32,
}

fn default_decision_threshold() -> f32 {
    0.5
}

/// Format version 2 adds the tuned decision threshold (manifest field +
/// weights-file metadata); version-1 checkpoints still load.
const FORMAT_VERSION: u32 = 2;

/// Weights-file metadata key recording whether the checkpoint was saved
/// from a quantised session (`1.0`) or a plain f32 one (absent / `0.0`).
const QUANT_MODE_KEY: &str = "quant_mode";

/// Saves a trained model: `<dir>/manifest.json` + `<dir>/weights.bin`.
pub fn save_model(model: &HierGat, dir: impl AsRef<Path>) -> Result<(), PersistError> {
    save_model_impl(model, dir.as_ref(), false)
}

/// Saves a model whose serving sessions are quantised. The weights are f32
/// tensors, as [`save_model`] writes them (from a quantised session they
/// already sit on their audited grids; `Session::quantise` snaps the
/// loaded weights again from a fresh audit), but the checkpoint's v2
/// metadata records the mode so a plain [`load_model`] fails cleanly
/// instead of silently serving the model un-quantised.
pub fn save_model_quantised(model: &HierGat, dir: impl AsRef<Path>) -> Result<(), PersistError> {
    save_model_impl(model, dir.as_ref(), true)
}

fn save_model_impl(model: &HierGat, dir: &Path, quantised: bool) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    let manifest = Manifest {
        config: *model.config(),
        arity: model.arity(),
        format_version: FORMAT_VERSION,
        decision_threshold: model.decision_threshold(),
    };
    fs::write(dir.join("manifest.json"), serde_json::to_string_pretty(&manifest)?)?;
    let mut meta = vec![("decision_threshold", model.decision_threshold())];
    if quantised {
        meta.push((QUANT_MODE_KEY, 1.0));
    }
    checkpoint::save_binary_with_meta(&model.ps, &meta, dir.join("weights.bin"))?;
    Ok(())
}

/// Loads a model saved by [`save_model`]. The architecture is rebuilt from
/// the manifest, the weights are copied in by name, and the tuned decision
/// threshold is restored (0.5 for version-1 checkpoints, which predate
/// threshold persistence). Checkpoints saved by [`save_model_quantised`]
/// are refused with [`PersistError::QuantisedCheckpoint`]; use
/// [`load_model_with_mode`] to honour the recorded mode.
pub fn load_model(dir: impl AsRef<Path>) -> Result<HierGat, PersistError> {
    let (model, quantised) = load_model_with_mode(dir)?;
    if quantised {
        return Err(PersistError::QuantisedCheckpoint);
    }
    Ok(model)
}

/// Loads a model along with its recorded quantisation mode (`true` =
/// saved from a quantised session; the caller is expected to re-run
/// `Session::quantise` before serving).
pub fn load_model_with_mode(dir: impl AsRef<Path>) -> Result<(HierGat, bool), PersistError> {
    let dir = dir.as_ref();
    let manifest: Manifest = serde_json::from_str(&fs::read_to_string(dir.join("manifest.json"))?)?;
    let (weights, meta) = checkpoint::load_binary_with_meta(dir.join("weights.bin"))?;
    let quantised = meta.iter().any(|(key, value)| key == QUANT_MODE_KEY && *value != 0.0);
    let mut model = HierGat::new(manifest.config, manifest.arity);
    let copied = model.ps.load_matching(&weights);
    debug_assert!(copied > 0, "checkpoint contained no matching tensors");
    model.set_decision_threshold(manifest.decision_threshold);
    Ok((model, quantised))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_data::{Entity, EntityPair};

    fn pair() -> EntityPair {
        EntityPair::new(
            Entity::new("l", vec![("t".into(), "canon eos xk42".into())]),
            Entity::new("r", vec![("t".into(), "canon eos xk42 kit".into())]),
            true,
        )
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let dir = std::env::temp_dir().join("hiergat-persist-test");
        let mut model = HierGat::new(HierGatConfig::fast_test(), 1);
        // Nudge the weights away from init so the roundtrip is non-trivial.
        for _ in 0..3 {
            model.train_pair(&pair());
        }
        let before = model.predict_pair(&pair());
        save_model(&model, &dir).expect("save");
        let loaded = load_model(&dir).expect("load");
        let after = loaded.predict_pair(&pair());
        assert!(
            (before - after).abs() < 1e-6,
            "prediction must survive the roundtrip: {before} vs {after}"
        );
        assert_eq!(loaded.arity(), 1);
    }

    #[test]
    fn tuned_threshold_survives_the_roundtrip() {
        let dir = std::env::temp_dir().join("hiergat-persist-threshold-test");
        let mut model = HierGat::new(HierGatConfig::fast_test(), 1);
        model.set_decision_threshold(0.73);
        save_model(&model, &dir).expect("save");
        let loaded = load_model(&dir).expect("load");
        assert_eq!(loaded.decision_threshold().to_bits(), 0.73f32.to_bits());
    }

    #[test]
    fn version_1_checkpoint_without_threshold_still_loads() {
        // A v1 checkpoint directory: manifest without the threshold field,
        // weights in the v1 binary layout (written here as a v2 file with no
        // metadata — the binary reader accepts both; the manifest is the
        // backward-compat surface under test).
        let dir = std::env::temp_dir().join("hiergat-persist-v1-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let model = HierGat::new(HierGatConfig::fast_test(), 1);
        let config = serde_json::to_string(model.config()).expect("config json");
        let manifest = format!("{{\"config\":{config},\"arity\":1,\"format_version\":1}}");
        fs::write(dir.join("manifest.json"), manifest).expect("manifest");
        checkpoint::save_binary(&model.ps, dir.join("weights.bin")).expect("weights");
        let loaded = load_model(&dir).expect("v1 checkpoints must keep loading");
        assert_eq!(
            loaded.decision_threshold().to_bits(),
            0.5f32.to_bits(),
            "missing threshold defaults to the untuned operating point"
        );
    }

    #[test]
    fn quantised_checkpoint_is_refused_by_plain_load_and_mode_roundtrips() {
        let dir = std::env::temp_dir().join("hiergat-persist-quant-test");
        let mut model = HierGat::new(HierGatConfig::fast_test(), 1);
        model.set_decision_threshold(0.61);
        save_model_quantised(&model, &dir).expect("save quantised");
        // A plain load must error cleanly — never score a checkpoint whose
        // recorded serving mode it would silently drop.
        match load_model(&dir) {
            Err(err) => {
                assert!(matches!(err, PersistError::QuantisedCheckpoint), "{err:?}");
                assert!(err.to_string().contains("quantise"), "{err}");
            }
            Ok(_) => panic!("plain load of a quantised checkpoint must fail"),
        }
        // The mode-aware load round-trips the flag, the weights, and the
        // tuned threshold.
        let (loaded, quantised) = load_model_with_mode(&dir).expect("mode-aware load");
        assert!(quantised, "quant mode must round-trip through v2 metadata");
        assert_eq!(loaded.decision_threshold().to_bits(), 0.61f32.to_bits());
        // And a plain save still loads plain.
        save_model(&model, &dir).expect("save plain");
        let (_, quantised) = load_model_with_mode(&dir).expect("plain reload");
        assert!(!quantised);
        load_model(&dir).expect("plain load of plain checkpoint");
    }

    #[test]
    fn load_missing_dir_fails_cleanly() {
        match load_model("/nonexistent/hiergat-model") {
            Err(err) => {
                assert!(matches!(err, PersistError::Io(_)));
                assert!(!err.to_string().is_empty());
            }
            Ok(_) => panic!("loading a missing directory must fail"),
        }
    }
}
