//! HierGAT model configuration and ablation switches.

use hiergat_lm::LmTier;
use serde::{Deserialize, Serialize};

/// Multi-view combiners for the entity comparison layer (§5.2.2, Table 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViewCombiner {
    /// Mean of the attribute similarity embeddings.
    ViewAverage,
    /// Map each view into a shared latent space, then average.
    SharedSpace,
    /// Structural-attention weighted average (Eq. 4) — the paper's default.
    WeightAverage,
}

/// Full configuration of a HierGAT / HierGAT+ model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierGatConfig {
    /// Language-model tier (Tables 3 and 8 sweep this).
    pub lm_tier: LmTier,
    /// Use token-level context embeddings (§4.2).
    pub use_token_context: bool,
    /// Use attribute-level context embeddings (§4.2). Ablated in Table 9
    /// ("Non-Attribute").
    pub use_attr_context: bool,
    /// Use entity-level (redundant) context embeddings (§4.2). Ablated in
    /// Table 9 ("Non-Entity"). Pairwise HierGAT leaves this off (§6.1).
    pub use_entity_context: bool,
    /// The multi-view combiner for entity comparison (Table 10).
    pub combiner: ViewCombiner,
    /// Include entity summarization context in the comparison layer.
    /// Ablated in Table 11 ("Non-Sum").
    pub use_entity_summarization: bool,
    /// Apply the entity alignment layer (Eq. 5) in collective mode.
    /// Ablated in Table 11 ("Non-Align").
    pub use_alignment: bool,
    /// Training epochs (the paper uses 10, §6.1).
    pub epochs: usize,
    /// Adam learning rate (the paper uses 1e-5 for full-size LMs; the
    /// miniature models need a larger rate).
    pub lr: f32,
    /// Dropout probability during fine-tuning.
    pub dropout: f32,
    /// RNG seed for initialization, shuffling, and dropout.
    pub seed: u64,
}

impl Default for HierGatConfig {
    fn default() -> Self {
        Self {
            lm_tier: LmTier::MiniBase,
            use_token_context: true,
            use_attr_context: true,
            use_entity_context: false, // pairwise default, §6.1
            combiner: ViewCombiner::WeightAverage,
            use_entity_summarization: true,
            use_alignment: false, // pairwise default
            epochs: 10,
            lr: 8e-4,
            dropout: 0.05,
            seed: 0x48_47,
        }
    }
}

impl HierGatConfig {
    /// The pairwise HierGAT configuration of §6.1 (no entity context, no
    /// alignment).
    pub fn pairwise() -> Self {
        Self::default()
    }

    /// The collective HierGAT+ configuration: entity-level context and the
    /// alignment layer switched on.
    pub fn collective() -> Self {
        Self { use_entity_context: true, use_alignment: true, ..Self::default() }
    }

    /// A reduced configuration for unit tests (small LM, few epochs).
    pub fn fast_test() -> Self {
        Self { lm_tier: LmTier::MiniDistil, epochs: 3, ..Self::default() }
    }

    /// Applies a tier override, returning the updated config.
    pub fn with_tier(mut self, tier: LmTier) -> Self {
        self.lm_tier = tier;
        self
    }

    /// Applies a seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Applies an epoch override.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_default_matches_paper_setup() {
        let c = HierGatConfig::pairwise();
        assert!(c.use_token_context && c.use_attr_context);
        assert!(!c.use_entity_context, "pairwise HierGAT omits entity-level context (§6.1)");
        assert!(!c.use_alignment);
        assert_eq!(c.combiner, ViewCombiner::WeightAverage);
        assert_eq!(c.epochs, 10);
    }

    #[test]
    fn collective_enables_alignment_and_entity_context() {
        let c = HierGatConfig::collective();
        assert!(c.use_entity_context);
        assert!(c.use_alignment);
    }

    #[test]
    fn builders_compose() {
        let c = HierGatConfig::pairwise().with_tier(LmTier::MiniLarge).with_seed(7).with_epochs(2);
        assert_eq!(c.lm_tier, LmTier::MiniLarge);
        assert_eq!(c.seed, 7);
        assert_eq!(c.epochs, 2);
    }
}
