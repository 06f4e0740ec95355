//! Hierarchical aggregation (§5.1): attribute summarization and entity
//! summarization (Algorithm 1).

use hiergat_graph::Hhg;
use hiergat_lm::MiniLm;
use hiergat_nn::{Memo, ParamStore, Tape, Var};
use hiergat_tensor::Tensor;
use hiergat_text::Special;
use rand::Rng;

/// Attribute summarization (§5.1.1): serialize `[CLS] token_1 ... token_n`
/// (WpC embeddings) through the pre-trained Transformer and take the `[CLS]`
/// row as the attribute embedding.
pub fn attribute_embedding(
    t: &mut Tape,
    ps: &ParamStore,
    lm: &MiniLm,
    wpc: Var,
    token_seq: &[usize],
    train: bool,
    rng: &mut impl Rng,
) -> Var {
    let cls = lm.special_embedding(t, ps, Special::Cls, train);
    if token_seq.is_empty() {
        let encoded = lm.encode_embedded(t, ps, cls, train, rng);
        return t.row(encoded, 0);
    }
    let tokens = t.gather_rows(wpc, token_seq);
    let seq = t.concat_rows(&[cls, tokens]);
    let encoded = lm.encode_embedded(t, ps, seq, train, rng);
    let cls_row = t.row(encoded, 0);
    // Residual mean-pooled WpC shortcut (§4.2 introduces residual
    // connections for exactly this degradation problem): matching
    // attributes share tokens, so their embeddings are comparable even
    // before the summarization Transformer is trained. The LayerNormed
    // [CLS] row has norm ~sqrt(d) while the pooled tokens have norm ~1;
    // scale [CLS] down so the overlap signal is not swamped by untrained
    // encoder jitter.
    let cls_scaled = t.scale(cls_row, 0.2);
    let pooled = t.mean_rows(tokens);
    t.add(cls_scaled, pooled)
}

/// Attribute summarization that also captures the `[CLS]` attention over the
/// attribute's tokens (averaged over layers and heads) for visualization
/// (Figure 9). Returns `(attribute embedding, per-token weights)`.
pub fn attribute_embedding_with_attention(
    t: &mut Tape,
    ps: &ParamStore,
    lm: &MiniLm,
    wpc: Var,
    token_seq: &[usize],
    rng: &mut impl Rng,
) -> (Var, Vec<f32>) {
    let cls = lm.special_embedding(t, ps, Special::Cls, false);
    if token_seq.is_empty() {
        let encoded = lm.encode_embedded(t, ps, cls, false, rng);
        return (t.row(encoded, 0), Vec::new());
    }
    let tokens = t.gather_rows(wpc, token_seq);
    let seq = t.concat_rows(&[cls, tokens]);
    let mut maps: Vec<Tensor> = Vec::new();
    let encoded = {
        // encode_embedded clips; mirror the clip for attention capture.
        let x = seq;
        lm_encode_with_attn(lm, t, ps, x, rng, &mut maps)
    };
    // Average the CLS row (row 0) attention over all maps; drop the
    // self-attention weight on CLS itself and renormalize over tokens.
    let n = token_seq.len().min(t.value(encoded).rows().saturating_sub(1));
    let mut weights = vec![0.0f32; n];
    for m in &maps {
        for (j, w) in weights.iter_mut().enumerate() {
            *w += m.get(0, j + 1);
        }
    }
    let total: f32 = weights.iter().sum();
    if total > 0.0 {
        for w in &mut weights {
            *w /= total;
        }
    }
    (t.row(encoded, 0), weights)
}

fn lm_encode_with_attn(
    lm: &MiniLm,
    t: &mut Tape,
    ps: &ParamStore,
    x: Var,
    rng: &mut impl Rng,
    maps: &mut Vec<Tensor>,
) -> Var {
    // MiniLm exposes attention capture only for id sequences; replicate the
    // embedded path here via the public encoder-with-attention call.
    lm.encode_embedded_with_attn(t, ps, x, false, rng, maps)
}

/// Entity summarization (§5.1.2 / Algorithm 1): computes every attribute
/// embedding of every entity in the HHG.
///
/// Returns the per-entity attribute embeddings; use [`concat_entities`] for
/// the per-entity concatenation (width `arity x d`) when the configuration
/// actually consumes it — recording it unconditionally leaves dead nodes on
/// the tape in the Non-Sum / Non-Align ablations.
///
/// In eval mode, attributes with equal token sequences (equal values: the
/// HHG shares token nodes) get one embedding, recorded once.
pub fn entity_embeddings(
    t: &mut Tape,
    ps: &ParamStore,
    lm: &MiniLm,
    g: &Hhg,
    wpc: Var,
    train: bool,
    rng: &mut impl Rng,
) -> Vec<Vec<Var>> {
    let mut embedded = Memo::new(!train);
    g.entities
        .iter()
        .map(|e| {
            e.attr_nodes
                .iter()
                .map(|&ai| {
                    let seq = g.attributes[ai].token_seq.as_slice();
                    embedded.get_or_record(seq, |_| {
                        attribute_embedding(t, ps, lm, wpc, seq, train, rng)
                    })
                })
                .collect()
        })
        .collect()
}

/// Concatenates each entity's attribute embeddings into one `1 x (arity d)`
/// row (the summarized entity embedding of Algorithm 1). Entities whose
/// attribute embeddings are the same nodes (equal records, in an eval-mode
/// graph) share one row.
pub fn concat_entities(t: &mut Tape, per_entity_attrs: &[Vec<Var>]) -> Vec<Var> {
    let mut rows = Memo::new(true);
    per_entity_attrs
        .iter()
        .map(|attrs| rows.get_or_record(attrs.as_slice(), |_| t.concat_cols(attrs)))
        .collect()
}

/// Aligns two entities' attribute-embedding lists to the model's declared
/// arity, truncating extras and padding shortfalls by repeating the last
/// attribute. With schema-conformant data this is the identity; it keeps
/// the comparison layer total even on ragged inputs.
pub fn attribute_similarity_inputs(
    left: &[Var],
    right: &[Var],
    arity: usize,
) -> (Vec<Var>, Vec<Var>) {
    assert!(!left.is_empty() && !right.is_empty(), "entities must have attributes");
    let pad = |attrs: &[Var]| -> Vec<Var> {
        let mut out: Vec<Var> = attrs.iter().copied().take(arity).collect();
        while out.len() < arity {
            out.push(*out.last().expect("nonempty"));
        }
        out
    };
    (pad(left), pad(right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_data::Entity;
    use hiergat_lm::LmTier;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, MiniLm, Hhg, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lm = MiniLm::new(&mut ps, LmTier::MiniDistil.config(), &mut rng);
        let g = Hhg::from_entities(&[
            Entity::new("a", vec![("t".into(), "x y z".into()), ("p".into(), "1".into())]),
            Entity::new("b", vec![("t".into(), "x w".into()), ("p".into(), "2".into())]),
        ]);
        (ps, lm, g, rng)
    }

    fn wpc_of(t: &mut Tape, ps: &ParamStore, lm: &MiniLm, g: &Hhg) -> Var {
        let ids: Vec<usize> = g.tokens.iter().map(|tok| lm.vocab().id(tok)).collect();
        let table = t.param(ps, lm.token_embedding());
        t.gather_rows(table, &ids)
    }

    #[test]
    fn attribute_embedding_is_one_row() {
        let (ps, lm, g, mut rng) = setup();
        let mut t = Tape::new();
        let wpc = wpc_of(&mut t, &ps, &lm, &g);
        let emb =
            attribute_embedding(&mut t, &ps, &lm, wpc, &g.attributes[0].token_seq, false, &mut rng);
        assert_eq!(t.value(emb).shape(), (1, 32));
    }

    #[test]
    fn empty_attribute_still_produces_embedding() {
        let (ps, lm, _, mut rng) = setup();
        let mut t = Tape::new();
        let wpc = t.input(Tensor::zeros(1, 32));
        let emb = attribute_embedding(&mut t, &ps, &lm, wpc, &[], false, &mut rng);
        assert_eq!(t.value(emb).shape(), (1, 32));
    }

    #[test]
    fn entity_embeddings_concatenate_attributes() {
        let (ps, lm, g, mut rng) = setup();
        let mut t = Tape::new();
        let wpc = wpc_of(&mut t, &ps, &lm, &g);
        let attrs = entity_embeddings(&mut t, &ps, &lm, &g, wpc, false, &mut rng);
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].len(), 2);
        let concats = concat_entities(&mut t, &attrs);
        assert_eq!(t.value(concats[0]).shape(), (1, 64)); // 2 attrs x 32
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let (ps, lm, g, mut rng) = setup();
        let mut t = Tape::new();
        let wpc = wpc_of(&mut t, &ps, &lm, &g);
        let (_, w) = attribute_embedding_with_attention(
            &mut t,
            &ps,
            &lm,
            wpc,
            &g.attributes[0].token_seq,
            &mut rng,
        );
        assert_eq!(w.len(), 3);
        let sum: f32 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "weights sum {sum}");
        assert!(w.iter().all(|&x| x >= 0.0));
    }
}
