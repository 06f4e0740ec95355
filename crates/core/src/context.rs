//! Contextual embedding computation (§4 of the paper).
//!
//! Produces word+context (WpC) embeddings
//! `V̂ = V + C`, `C = C^t + Φ(C^a + C^r)` where:
//!
//! * `C^t` — token-level context from the pre-trained Transformer, computed
//!   per attribute sequence and averaged back onto (deduplicated) token
//!   nodes;
//! * `C^a` — attribute-level context from [`GraphAttn`] aggregation over
//!   each attribute's token set (Eq. 1), summed over attribute nodes sharing
//!   a key;
//! * `C^r` — entity-level *redundant* context computed from tokens shared by
//!   several entities (Eq. 2) and subtracted via a second attention pass
//!   (Eq. 3);
//! * `Φ` — maps per-unique-key context back onto the tokens that belong to
//!   attributes with that key (mean over containing attributes).

use crate::config::HierGatConfig;
use hiergat_graph::{GraphAttn, Hhg};
use hiergat_lm::MiniLm;
use hiergat_nn::{ParamStore, Tape, Var};
use hiergat_tensor::Tensor;
use rand::Rng;

/// The learnable pieces of the contextual-embedding component.
pub struct ContextModule {
    /// Eq. 1: attribute-level aggregation (`c^t`, `W^t`).
    attr_ctx: GraphAttn,
    /// Eq. 2: redundant-context aggregation over common tokens (`c^a`, `W^a`).
    red_ctx: GraphAttn,
    /// Eq. 3: redundant-context removal over `(V̄^a || C_j^a)` features.
    red_rm: GraphAttn,
    /// Learnable LayerScale-style gate on the token-level context.
    ///
    /// The residual composition `V̂ = V + C` needs the contexts to start
    /// small: the per-key context Φ mixes information from *both* entities
    /// into every token, and at miniature scale an ungated mix erases the
    /// cross-entity differences the comparison layer feeds on. Gates are
    /// initialized to 0.1 and trained jointly (cf. LayerScale / ReZero).
    gate_token: hiergat_nn::ParamId,
    /// Gate on the attribute/entity-level context Φ(C^a + C^r).
    gate_phi: hiergat_nn::ParamId,
    d_model: usize,
}

impl ContextModule {
    /// Registers parameters under `prefix`.
    pub fn new(ps: &mut ParamStore, prefix: &str, d_model: usize, rng: &mut impl Rng) -> Self {
        Self {
            attr_ctx: GraphAttn::new(ps, &format!("{prefix}.attr_ctx"), d_model, d_model, rng),
            red_ctx: GraphAttn::new(ps, &format!("{prefix}.red_ctx"), d_model, d_model, rng),
            red_rm: GraphAttn::new(ps, &format!("{prefix}.red_rm"), 2 * d_model, d_model, rng),
            gate_token: ps.add(format!("{prefix}.gate_token"), Tensor::scalar(0.1)),
            gate_phi: ps.add(format!("{prefix}.gate_phi"), Tensor::scalar(0.1)),
            d_model,
        }
    }

    /// Computes the WpC embedding matrix (`n_tokens x d`) for all token
    /// nodes of `g`, honouring the config's three context switches.
    pub fn wpc(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        g: &Hhg,
        lm: &MiniLm,
        cfg: &HierGatConfig,
        train: bool,
        rng: &mut impl Rng,
    ) -> Var {
        let n_tokens = g.n_tokens();
        assert!(n_tokens > 0, "wpc: graph has no tokens");
        // Initial word embeddings V (hash-vocabulary lookup).
        let ids: Vec<usize> = g.tokens.iter().map(|tok| lm.vocab().id(tok)).collect();
        let table = t.param(ps, lm.token_embedding());
        let v_init = t.gather_rows(table, &ids);

        let mut total = v_init;

        // ---- Token-level context C^t -----------------------------------
        if cfg.use_token_context {
            let c_t = self.token_level_context(t, ps, g, lm, v_init_of(t, total), train, rng);
            let gated = self.gate(t, ps, self.gate_token, c_t);
            total = t.add(total, gated);
        }

        // ---- Attribute / entity-level context, mapped by Φ --------------
        if cfg.use_attr_context || cfg.use_entity_context {
            let per_key = self.per_key_context(t, ps, g, total, cfg);
            if let Some(per_key) = per_key {
                let phi = self.map_to_tokens(t, g, &per_key);
                let gated = self.gate(t, ps, self.gate_phi, phi);
                total = t.add(total, gated);
            }
        }
        total
    }

    /// Scales every row of `x` by the scalar gate parameter.
    fn gate(&self, t: &mut Tape, ps: &ParamStore, gate: hiergat_nn::ParamId, x: Var) -> Var {
        let n = t.value(x).rows();
        let g = t.param(ps, gate);
        let ones = t.input(Tensor::ones(n, 1));
        let col = t.matmul(ones, g);
        t.mul_col(x, col)
    }

    /// `C^t`: encode every attribute's token sequence with the pre-trained
    /// Transformer and average the contextual rows back onto token nodes.
    fn token_level_context(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        g: &Hhg,
        lm: &MiniLm,
        v_init: Var,
        train: bool,
        rng: &mut impl Rng,
    ) -> Var {
        // occurrences[token_node] = rows of encoded attribute sequences.
        let mut occurrences: Vec<Vec<Var>> = vec![Vec::new(); g.n_tokens()];
        for attr in &g.attributes {
            if attr.token_seq.is_empty() {
                continue;
            }
            let seq = t.gather_rows(v_init, &attr.token_seq);
            let encoded = lm.encode_embedded(t, ps, seq, train, rng);
            let max_rows = t.value(encoded).rows();
            for (pos, &tok) in attr.token_seq.iter().enumerate().take(max_rows) {
                occurrences[tok].push(t.row(encoded, pos));
            }
        }
        let rows: Vec<Var> = occurrences
            .into_iter()
            .map(|occ| match occ.len() {
                0 => t.input(Tensor::zeros(1, self.d_model)),
                1 => occ[0],
                n => {
                    let stacked = t.concat_rows(&occ);
                    let sum = t.sum_rows(stacked);
                    t.scale(sum, 1.0 / n as f32)
                }
            })
            .collect();
        t.concat_rows(&rows)
    }

    /// Per-unique-key context `C^a + C^r` (each row `1 x d`), or `None` when
    /// both switches are off.
    fn per_key_context(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        g: &Hhg,
        token_emb: Var,
        cfg: &HierGatConfig,
    ) -> Option<Vec<(String, Var)>> {
        if !cfg.use_attr_context && !cfg.use_entity_context {
            return None;
        }
        let keys = g.unique_keys();
        // Attribute-level: v̄_k = Σ_a GraphAttn over a's tokens (Eq. 1).
        let mut key_embs: Vec<Var> = Vec::with_capacity(keys.len());
        for key in &keys {
            let attrs = g.attrs_with_key(key);
            let mut parts = Vec::new();
            for ai in attrs {
                let seq = &g.attributes[ai].token_seq;
                if seq.is_empty() {
                    continue;
                }
                let v = t.gather_rows(token_emb, seq);
                parts.push(self.attr_ctx.forward(t, ps, v));
            }
            let emb = match parts.len() {
                0 => t.input(Tensor::zeros(1, self.d_model)),
                1 => parts[0],
                _ => {
                    let stacked = t.concat_rows(&parts);
                    t.sum_rows(stacked)
                }
            };
            key_embs.push(emb);
        }
        // Eq. 3 contrasts each key's redundant context against the other
        // unique attributes; with a single key the softmax would assign
        // weight 1 and subtract v̄ exactly, cancelling the attribute context
        // (and its gradients) to zero. Skip removal when K = 1 — and only
        // stack V̄ (K x d) when removal actually runs, so no dead node is
        // recorded when entity context is off.
        let v_bar = (cfg.use_entity_context && keys.len() >= 2).then(|| t.concat_rows(&key_embs));

        let mut out = Vec::with_capacity(keys.len());
        let common = g.common_tokens();
        for (ki, key) in keys.iter().enumerate() {
            let mut ctx = if cfg.use_attr_context { Some(key_embs[ki]) } else { None };
            if let Some(v_bar) = v_bar {
                // Common tokens appearing under this key (Ṽ of Eq. 2).
                let mut shared: Vec<usize> = Vec::new();
                for &ai in &g.attrs_with_key(key) {
                    for &tok in &g.attributes[ai].token_seq {
                        if common.contains(&tok) && !shared.contains(&tok) {
                            shared.push(tok);
                        }
                    }
                }
                if !shared.is_empty() {
                    let v_shared = t.gather_rows(token_emb, &shared);
                    let c_a = self.red_ctx.forward(t, ps, v_shared); // Eq. 2, 1 x d
                                                                     // Eq. 3: attention features (V̄^a || C_j^a), values V̄^a.
                    let k = keys.len();
                    let ones = t.input(Tensor::ones(k, 1));
                    let c_a_rows = t.matmul(ones, c_a); // K x d broadcast
                    let features = t.concat_cols(&[v_bar, c_a_rows]); // K x 2d
                    let removed = self.red_rm.forward_ctx(t, ps, features, v_bar);
                    let neg = t.scale(removed, -1.0); // minus sign of Eq. 3
                    ctx = Some(match ctx {
                        Some(c) => t.add(c, neg),
                        None => neg,
                    });
                }
            }
            let ctx = ctx.unwrap_or_else(|| t.input(Tensor::zeros(1, self.d_model)));
            out.push((key.clone(), ctx));
        }
        Some(out)
    }

    /// `Φ`: every token receives the mean context of the unique keys of the
    /// attributes containing it.
    fn map_to_tokens(&self, t: &mut Tape, g: &Hhg, per_key: &[(String, Var)]) -> Var {
        let key_of = |name: &str| per_key.iter().position(|(k, _)| k == name);
        let mut token_keys: Vec<Vec<usize>> = vec![Vec::new(); g.n_tokens()];
        for attr in &g.attributes {
            let Some(ki) = key_of(&attr.key) else { continue };
            for &tok in &attr.token_seq {
                if !token_keys[tok].contains(&ki) {
                    token_keys[tok].push(ki);
                }
            }
        }
        let rows: Vec<Var> = token_keys
            .into_iter()
            .map(|keys| match keys.len() {
                0 => t.input(Tensor::zeros(1, self.d_model)),
                1 => per_key[keys[0]].1,
                n => {
                    let parts: Vec<Var> = keys.iter().map(|&k| per_key[k].1).collect();
                    let stacked = t.concat_rows(&parts);
                    let sum = t.sum_rows(stacked);
                    t.scale(sum, 1.0 / n as f32)
                }
            })
            .collect();
        t.concat_rows(&rows)
    }
}

/// Identity helper making the data flow explicit at the call site: the
/// token-level context is computed from the *current* accumulated embedding.
fn v_init_of(_t: &Tape, v: Var) -> Var {
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiergat_data::{Entity, EntityPair};
    use hiergat_lm::LmTier;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> EntityPair {
        EntityPair::new(
            Entity::new(
                "l",
                vec![
                    ("title".into(), "apache spark cluster".into()),
                    ("desc".into(), "big data framework".into()),
                ],
            ),
            Entity::new(
                "r",
                vec![
                    ("title".into(), "adobe spark editor".into()),
                    ("desc".into(), "video design app".into()),
                ],
            ),
            false,
        )
    }

    fn setup() -> (ParamStore, MiniLm, ContextModule, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lm = MiniLm::new(&mut ps, LmTier::MiniDistil.config(), &mut rng);
        let ctx = ContextModule::new(&mut ps, "ctx", 32, &mut rng);
        (ps, lm, ctx, rng)
    }

    #[test]
    fn wpc_shape_covers_all_tokens() {
        let (ps, lm, ctx, mut rng) = setup();
        let g = Hhg::from_pair(&pair());
        let cfg = HierGatConfig::fast_test();
        let mut t = Tape::new();
        let wpc = ctx.wpc(&mut t, &ps, &g, &lm, &cfg, false, &mut rng);
        assert_eq!(t.value(wpc).shape(), (g.n_tokens(), 32));
        assert!(!t.value(wpc).has_non_finite());
    }

    #[test]
    fn context_switches_change_embeddings() {
        let (ps, lm, ctx, _) = setup();
        let g = Hhg::from_pair(&pair());
        let run = |cfg: &HierGatConfig| {
            let mut rng = StdRng::seed_from_u64(9);
            let mut t = Tape::new();
            let wpc = ctx.wpc(&mut t, &ps, &g, &lm, cfg, false, &mut rng);
            t.value(wpc).clone()
        };
        let full = run(&HierGatConfig { use_entity_context: true, ..HierGatConfig::fast_test() });
        let no_ctx = run(&HierGatConfig {
            use_token_context: false,
            use_attr_context: false,
            use_entity_context: false,
            ..HierGatConfig::fast_test()
        });
        let no_attr = run(&HierGatConfig {
            use_attr_context: false,
            use_entity_context: true,
            ..HierGatConfig::fast_test()
        });
        assert!(!full.allclose(&no_ctx, 1e-5));
        assert!(!full.allclose(&no_attr, 1e-5));
    }

    #[test]
    fn non_context_reduces_to_word_embeddings() {
        let (ps, lm, ctx, mut rng) = setup();
        let g = Hhg::from_pair(&pair());
        let cfg = HierGatConfig {
            use_token_context: false,
            use_attr_context: false,
            use_entity_context: false,
            ..HierGatConfig::fast_test()
        };
        let mut t = Tape::new();
        let wpc = ctx.wpc(&mut t, &ps, &g, &lm, &cfg, false, &mut rng);
        // Must equal the raw hash-embedding lookup.
        let ids: Vec<usize> = g.tokens.iter().map(|tok| lm.vocab().id(tok)).collect();
        let table = ps.value(lm.token_embedding());
        let expected = Tensor::stack_rows(ids.len(), table.cols(), |i| table.row(ids[i]).to_vec());
        assert!(t.value(wpc).allclose(&expected, 1e-6));
    }

    #[test]
    fn gradients_flow_through_full_context() {
        let (mut ps, lm, ctx, _) = setup();
        let g = Hhg::from_entities(&[
            Entity::new("a", vec![("t".into(), "x y".into()), ("d".into(), "u v".into())]),
            Entity::new("b", vec![("t".into(), "x z".into()), ("d".into(), "u w".into())]),
        ]);
        let cfg = HierGatConfig { use_entity_context: true, ..HierGatConfig::fast_test() };
        // Full gradcheck over the LM is too slow; check a forward+backward
        // runs and produces nonzero grads on the context parameters.
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = Tape::new();
        let wpc = ctx.wpc(&mut t, &ps, &g, &lm, &cfg, false, &mut rng);
        let loss = t.mean_all(wpc);
        t.backward(loss, &mut ps);
        let ctx_grad_norm: f32 = ps
            .ids()
            .filter(|&id| ps.name(id).starts_with("ctx."))
            .map(|id| ps.grad(id).norm())
            .sum();
        assert!(ctx_grad_norm > 0.0, "context parameters received no gradient");
    }
}
