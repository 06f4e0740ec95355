//! The miniature language model: hashed token embeddings + Transformer
//! encoder with `[CLS]`/`[SEP]` serialization.

use crate::config::LmConfig;
use hiergat_nn::{ParamId, ParamStore, Tape, TransformerEncoder, Var};
use hiergat_tensor::Tensor;
use hiergat_text::{tokenize, HashVocab, Special};
use rand::Rng;

/// A miniature BERT-style encoder.
///
/// All parameters are registered under the `lm.` prefix so a fine-tuning
/// model can load a pre-trained checkpoint with
/// [`ParamStore::load_matching`].
pub struct MiniLm {
    config: LmConfig,
    vocab: HashVocab,
    tok_emb: ParamId,
    encoder: TransformerEncoder,
}

impl MiniLm {
    /// Registers the LM parameters in `ps`.
    pub fn new(ps: &mut ParamStore, config: LmConfig, rng: &mut impl Rng) -> Self {
        let vocab = HashVocab::new(config.vocab_size);
        // From-scratch miniature models need a larger embedding scale than
        // the 0.02 BERT fine-tuning convention, or raw-embedding comparison
        // features start out negligible relative to LayerNormed activations.
        let emb_std = 1.0 / (config.d_model as f32).sqrt();
        let tok_emb = ps.add(
            "lm.tok_emb",
            Tensor::rand_normal(config.vocab_size, config.d_model, 0.0, emb_std, rng),
        );
        let encoder = TransformerEncoder::new(
            ps,
            "lm.encoder",
            config.n_layers,
            config.d_model,
            config.heads,
            config.d_ff,
            config.max_len,
            0.1,
            rng,
        );
        Self { config, vocab, tok_emb, encoder }
    }

    /// Architecture.
    pub fn config(&self) -> &LmConfig {
        &self.config
    }

    /// The hashing vocabulary.
    pub fn vocab(&self) -> &HashVocab {
        &self.vocab
    }

    /// The token-embedding parameter.
    pub fn token_embedding(&self) -> ParamId {
        self.tok_emb
    }

    /// Truncates `ids` to the maximum length the encoder accepts.
    fn clip<'a>(&self, ids: &'a [usize]) -> &'a [usize] {
        &ids[..ids.len().min(self.config.max_len)]
    }

    /// Converts a token string slice to vocabulary ids.
    pub fn ids_of(&self, tokens: &[String]) -> Vec<usize> {
        self.vocab.ids(tokens)
    }

    /// `[CLS] tokens...` id sequence.
    pub fn cls_sequence(&self, tokens: &[String]) -> Vec<usize> {
        let mut ids = vec![self.vocab.special(Special::Cls)];
        ids.extend(self.vocab.ids(tokens));
        ids
    }

    /// `[CLS] a [SEP] b [SEP]` id sequence (the attribute-comparison
    /// serialization of §5.2.1 and Ditto's pair serialization).
    pub fn pair_sequence(&self, a: &[String], b: &[String]) -> Vec<usize> {
        let sep = self.vocab.special(Special::Sep);
        let mut ids = vec![self.vocab.special(Special::Cls)];
        ids.extend(self.vocab.ids(a));
        ids.push(sep);
        ids.extend(self.vocab.ids(b));
        ids.push(sep);
        ids
    }

    /// Tokenizes raw text and produces a `[CLS]`-prefixed id sequence.
    pub fn cls_sequence_of_text(&self, text: &str) -> Vec<usize> {
        self.cls_sequence(&tokenize(text))
    }

    /// Looks up (trainable) embeddings for an id sequence: `n x d`.
    pub fn embed_ids(&self, t: &mut Tape, ps: &ParamStore, ids: &[usize]) -> Var {
        let ids = self.clip(ids);
        let table = t.param(ps, self.tok_emb);
        t.gather_rows(table, ids)
    }

    /// Full encoding: embeddings + positional encoding + Transformer stack.
    /// Returns the `n x d` contextual embeddings.
    pub fn encode_ids(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        ids: &[usize],
        train: bool,
        rng: &mut impl Rng,
    ) -> Var {
        let ids = self.clip(ids);
        let x = self.embed_ids(t, ps, ids);
        self.encoder.forward(t, ps, x, train, rng)
    }

    /// Encoding that also captures per-layer, per-head attention maps
    /// (paper Figure 9 visualization).
    pub fn encode_ids_with_attn(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        ids: &[usize],
        train: bool,
        rng: &mut impl Rng,
        attn_out: &mut Vec<Tensor>,
    ) -> Var {
        let ids = self.clip(ids);
        let x = self.embed_ids(t, ps, ids);
        self.encoder.forward_with_attn(t, ps, x, train, rng, attn_out)
    }

    /// Encodes a pre-built `n x d` embedding sequence (positional encoding +
    /// Transformer stack). HierGAT feeds WpC embeddings and attribute
    /// embeddings through the same pre-trained encoder this way (§5.1-§5.2).
    pub fn encode_embedded(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        x: Var,
        train: bool,
        rng: &mut impl Rng,
    ) -> Var {
        let n = t.value(x).rows();
        let x = if n > self.config.max_len { t.slice_rows(x, 0, self.config.max_len) } else { x };
        self.encoder.forward(t, ps, x, train, rng)
    }

    /// Like [`Self::encode_embedded`], but captures per-layer, per-head
    /// attention maps (used for the Figure 9 visualization).
    pub fn encode_embedded_with_attn(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        x: Var,
        train: bool,
        rng: &mut impl Rng,
        attn_out: &mut Vec<Tensor>,
    ) -> Var {
        let n = t.value(x).rows();
        let x = if n > self.config.max_len { t.slice_rows(x, 0, self.config.max_len) } else { x };
        self.encoder.forward_with_attn(t, ps, x, train, rng, attn_out)
    }

    /// The (trainable) embedding row of a special token (`1 x d`).
    pub fn special_embedding(&self, t: &mut Tape, ps: &ParamStore, s: Special) -> Var {
        let table = t.param(ps, self.tok_emb);
        t.gather_rows(table, &[self.vocab.special(s)])
    }

    /// Encodes and returns only the `[CLS]` row (`1 x d`) — the sequence
    /// summary used as attribute embedding (§5.1.1).
    pub fn encode_cls(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        ids: &[usize],
        train: bool,
        rng: &mut impl Rng,
    ) -> Var {
        let h = self.encode_ids(t, ps, ids, train, rng);
        t.row(h, 0)
    }

    /// Analyzer cost budget for encoding a `seq_len`-token sequence: records
    /// the forward pass on a deferred tape (no kernels run) and returns the
    /// per-op FLOP and peak-memory estimates evaluated at `split` threads.
    /// This is what lets callers pick a tier that fits their time budget
    /// before paying for a real forward.
    pub fn encoding_cost(
        &self,
        ps: &ParamStore,
        seq_len: usize,
        split: usize,
    ) -> hiergat_nn::CostReport {
        let mut t = Tape::inference();
        let ids = vec![0usize; seq_len.clamp(1, self.config.max_len)];
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let _ = self.encode_ids(&mut t, ps, &ids, false, &mut rng);
        hiergat_nn::cost_analysis(&t, split)
    }

    /// Runs the [`hiergat_nn::lint_graph`] rule engine over a training-mode
    /// encoding of a `seq_len`-token sequence. The encoder has no natural
    /// scalar loss, so the mean of the contextual embeddings serves as a
    /// pseudo-loss that makes every encoder op gradient-reachable.
    pub fn lint_encoding(&self, ps: &ParamStore, seq_len: usize) -> hiergat_nn::LintReport {
        let mut t = Tape::inference();
        let ids = vec![0usize; seq_len.clamp(1, self.config.max_len)];
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let h = self.encode_ids(&mut t, ps, &ids, true, &mut rng);
        let loss = t.mean_all(h);
        hiergat_nn::lint_graph(&t, loss, ps, &hiergat_nn::LintConfig::training())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LmTier;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn sequences_have_special_markers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lm = MiniLm::new(&mut ps, LmTier::MiniDistil.config(), &mut rng);
        let seq = lm.cls_sequence(&toks("hello world"));
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[0], Special::Cls as usize);
        let pair = lm.pair_sequence(&toks("a b"), &toks("c"));
        assert_eq!(pair.len(), 6);
        assert_eq!(pair[3], Special::Sep as usize);
        assert_eq!(pair[5], Special::Sep as usize);
    }

    #[test]
    fn lint_encoding_passes_at_deny_warn() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ps = ParamStore::new();
        let lm = MiniLm::new(&mut ps, LmTier::MiniDistil.config(), &mut rng);
        let report = lm.lint_encoding(&ps, 12);
        assert!(
            report.is_clean_at(hiergat_nn::Severity::Warn),
            "encoder graph must lint clean:\n{report}"
        );
    }

    #[test]
    fn encode_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let lm = MiniLm::new(&mut ps, LmTier::MiniDistil.config(), &mut rng);
        let mut t = Tape::new();
        let ids = lm.cls_sequence(&toks("adobe photoshop elements"));
        let h = lm.encode_ids(&mut t, &ps, &ids, false, &mut rng);
        assert_eq!(t.value(h).shape(), (4, 32));
        let mut t2 = Tape::new();
        let cls = lm.encode_cls(&mut t2, &ps, &ids, false, &mut rng);
        assert_eq!(t2.value(cls).shape(), (1, 32));
    }

    #[test]
    fn overlong_sequences_are_clipped() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let lm = MiniLm::new(&mut ps, LmTier::MiniDistil.config(), &mut rng);
        let long: Vec<String> = (0..500).map(|i| format!("tok{i}")).collect();
        let ids = lm.cls_sequence(&long);
        let mut t = Tape::new();
        let h = lm.encode_ids(&mut t, &ps, &ids, false, &mut rng);
        assert_eq!(t.value(h).rows(), lm.config().max_len);
    }

    #[test]
    fn same_word_gets_different_contextual_embeddings() {
        // "spark" in two different contexts must encode differently —
        // the polysemy property of §4 the contextual LM provides.
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let lm = MiniLm::new(&mut ps, LmTier::MiniDistil.config(), &mut rng);
        let ids_a = lm.cls_sequence(&toks("spark big data cluster"));
        let ids_b = lm.cls_sequence(&toks("spark video editor"));
        let mut t = Tape::new();
        let ha = lm.encode_ids(&mut t, &ps, &ids_a, false, &mut rng);
        let hb = lm.encode_ids(&mut t, &ps, &ids_b, false, &mut rng);
        // Row 1 is "spark" in both sequences.
        let ea = t.value(ha).slice_rows(1, 1);
        let eb = t.value(hb).slice_rows(1, 1);
        assert!(!ea.allclose(&eb, 1e-4), "contextual embeddings must differ");
    }

    #[test]
    fn encoding_cost_grows_with_sequence_length() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamStore::new();
        let lm = MiniLm::new(&mut ps, LmTier::MiniDistil.config(), &mut rng);
        let short = lm.encoding_cost(&ps, 4, 1);
        let long = lm.encoding_cost(&ps, 64, 1);
        assert!(long.total_flops > short.total_flops);
        assert!(long.peak_bytes > short.peak_bytes);
        // Attention scoring (matmul_nt) must show up in the per-op budget.
        assert!(long.per_op.iter().any(|o| o.op_name == "matmul_nt" && o.flops > 0));
        // Clipping: past max_len the budget saturates.
        let over = lm.encoding_cost(&ps, 10_000, 1);
        let max = lm.encoding_cost(&ps, lm.config().max_len, 1);
        assert_eq!(over.total_flops, max.total_flops);
    }

    #[test]
    fn attention_capture_has_layer_head_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParamStore::new();
        let cfg = LmTier::MiniDistil.config();
        let lm = MiniLm::new(&mut ps, cfg, &mut rng);
        let ids = lm.cls_sequence(&toks("x y z"));
        let mut t = Tape::new();
        let mut attn = Vec::new();
        let _ = lm.encode_ids_with_attn(&mut t, &ps, &ids, false, &mut rng, &mut attn);
        assert_eq!(attn.len(), cfg.n_layers * cfg.heads);
    }
}
