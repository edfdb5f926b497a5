//! A standalone name-keyed prefix store. Not on the proxy's request path:
//! cached bytes live in per-shard object records (`proxy/records.rs`).

use bytes::Bytes;
use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

/// A thread-safe, name-keyed store of object prefixes.
///
/// [`CachingProxy`](crate::CachingProxy) does not use it: each engine shard
/// owns its objects' prefixes in slot-indexed records under the shard lock.
/// The type and its public API stay compiled solely because the benchmark's
/// layer table (`benchmark/src/layers.rs`, the `proxy.store.*` rows) times
/// them and a change to the proxy may not edit `benchmark/`; a later
/// benchmark change can drop those rows and this type together.
///
/// Storing a shorter prefix than before truncates; storing a longer one
/// replaces the entry.
///
/// ```
/// use bytes::Bytes;
/// use sc_proxy::PrefixStore;
///
/// let store = PrefixStore::new();
/// store.put("clip", Bytes::from(vec![1, 2, 3, 4]));
/// assert_eq!(store.prefix_len("clip"), 4);
/// assert_eq!(store.get("clip").unwrap().len(), 4);
/// store.truncate("clip", 2);
/// assert_eq!(store.prefix_len("clip"), 2);
/// store.remove("clip");
/// assert_eq!(store.prefix_len("clip"), 0);
/// ```
#[derive(Debug, Default)]
pub struct PrefixStore {
    prefixes: RwLock<HashMap<String, Bytes>>,
}

impl PrefixStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (replaces) the prefix of `name`.
    pub fn put(&self, name: &str, prefix: Bytes) {
        self.prefixes
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), prefix);
    }

    /// Returns the cached prefix of `name`, if any.
    pub fn get(&self, name: &str) -> Option<Bytes> {
        self.prefixes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Length in bytes of the cached prefix of `name` (0 when absent).
    pub fn prefix_len(&self, name: &str) -> usize {
        self.prefixes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(Bytes::len)
            .unwrap_or(0)
    }

    /// Truncates the prefix of `name` to at most `len` bytes.
    pub fn truncate(&self, name: &str, len: usize) {
        let mut guard = self
            .prefixes
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(prefix) = guard.get_mut(name) {
            if prefix.len() > len {
                *prefix = prefix.slice(0..len);
            }
        }
    }

    /// Removes the prefix of `name`. Returns `true` if it was present.
    pub fn remove(&self, name: &str) -> bool {
        self.prefixes
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
            .is_some()
    }

    /// Total bytes held across all prefixes.
    pub fn total_bytes(&self) -> usize {
        self.prefixes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(Bytes::len)
            .sum()
    }

    /// Number of objects with a stored prefix.
    pub fn len(&self) -> usize {
        self.prefixes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Returns `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.prefixes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove() {
        let store = PrefixStore::new();
        assert!(store.is_empty());
        store.put("a", Bytes::from_static(b"hello"));
        store.put("b", Bytes::from_static(b"world!"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 11);
        assert_eq!(store.get("a").unwrap(), Bytes::from_static(b"hello"));
        assert!(store.get("missing").is_none());
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn truncate_shrinks_but_never_grows() {
        let store = PrefixStore::new();
        store.put("a", Bytes::from_static(b"0123456789"));
        store.truncate("a", 4);
        assert_eq!(store.prefix_len("a"), 4);
        store.truncate("a", 100);
        assert_eq!(store.prefix_len("a"), 4);
        store.truncate("missing", 2); // no-op
    }

    #[test]
    fn store_is_shareable_across_threads() {
        use std::sync::Arc;
        let store = Arc::new(PrefixStore::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    store.put(&format!("obj{i}"), Bytes::from(vec![0u8; 100 * (i + 1)]));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 4);
        assert_eq!(store.total_bytes(), 100 + 200 + 300 + 400);
    }
}
