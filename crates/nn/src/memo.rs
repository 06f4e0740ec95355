//! [`Memo`]: record a subgraph once per key within one graph.

use crate::tape::Var;
use std::collections::HashMap;
use std::hash::Hash;

/// Records a subgraph once per key within one graph, when sharing is on.
///
/// Eval-mode graphs share: an attribute value both records of a pair hold,
/// or any repeated token sequence, is encoded once and every use reads that
/// one node, so the graph a session replays holds each value once. Training
/// graphs do not (`Memo::new(false)` records on every call): each use keeps
/// its own nodes, so each draws its own dropout mask, and backward adds the
/// uses' gradients into the parameters one use at a time, in the order it
/// always has.
pub struct Memo<K, V = Var> {
    share: bool,
    seen: HashMap<K, V>,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// A memo that shares when `share` holds (pass `!train`).
    pub fn new(share: bool) -> Self {
        Self { share, seen: HashMap::new() }
    }

    /// The value recorded for `key` earlier in this graph, or the one
    /// `record(&key)` records now.
    pub fn get_or_record(&mut self, key: K, record: impl FnOnce(&K) -> V) -> V {
        if !self.share {
            return record(&key);
        }
        if let Some(v) = self.seen.get(&key) {
            return v.clone();
        }
        let v = record(&key);
        self.seen.insert(key, v.clone());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use hiergat_tensor::Tensor;

    #[test]
    fn shares_only_when_asked() {
        let mut t = Tape::new();
        let x = t.input(Tensor::ones(1, 2));
        let mut shared = Memo::new(true);
        let a = shared.get_or_record("k", |_| t.exp(x));
        let b = shared.get_or_record("k", |_| t.exp(x));
        assert_eq!(a, b);
        let mut per_use = Memo::new(false);
        let c = per_use.get_or_record("k", |_| t.exp(x));
        let d = per_use.get_or_record("k", |_| t.exp(x));
        assert_ne!(c, d);
        assert_eq!(t.len(), 4);
    }
}
