//! Memo tables that describe one graph version.

use kgstore::{Epoch, KnowledgeGraph};
use specqp_common::FxHashMap;
use std::hash::Hash;
use std::sync::RwLock;

/// A memo table filled from one graph version — the [`Epoch`] that version
/// was published at — and read only for that version.
///
/// The first insert from a newer version empties the table and moves it on,
/// so nothing needs to clear it when a writer commits.
/// A value computed from an older version (a planner still holding an
/// earlier pin while a writer commits) goes back to its caller and is never
/// inserted, so it cannot be served for a version it does not describe.
#[derive(Debug)]
pub(crate) struct VersionMemo<K, V> {
    table: RwLock<Table<K, V>>,
}

#[derive(Debug)]
struct Table<K, V> {
    epoch: Epoch,
    entries: FxHashMap<K, V>,
}

impl<K, V> Default for VersionMemo<K, V> {
    fn default() -> Self {
        VersionMemo {
            table: RwLock::new(Table {
                epoch: Epoch::ZERO,
                entries: FxHashMap::default(),
            }),
        }
    }
}

impl<K: Hash + Eq, V: Clone> VersionMemo<K, V> {
    /// The value memoized for `key` on `graph`'s version.
    pub(crate) fn get(&self, graph: &KnowledgeGraph, key: &K) -> Option<V> {
        let table = self.table.read().expect("memo poisoned");
        if table.epoch != graph.epoch() {
            return None;
        }
        table.entries.get(key).cloned()
    }

    /// Memoizes `value`, computed from `graph`, unless the table already
    /// describes a newer version, and returns what the table holds for `key`
    /// (an earlier insert from the same version wins; both computed the same
    /// value).
    pub(crate) fn insert(&self, graph: &KnowledgeGraph, key: K, value: V) -> V {
        let mut table = self.table.write().expect("memo poisoned");
        if graph.epoch() < table.epoch {
            return value;
        }
        if graph.epoch() > table.epoch {
            table.entries.clear();
            table.epoch = graph.epoch();
        }
        table.entries.entry(key).or_insert(value).clone()
    }

    /// Number of memoized entries.
    pub(crate) fn len(&self) -> usize {
        self.table.read().expect("memo poisoned").entries.len()
    }

    /// Calls `f` with the entries (tests inspect them).
    #[cfg(test)]
    pub(crate) fn with_entries<R>(&self, f: impl FnOnce(&FxHashMap<K, V>) -> R) -> R {
        f(&self.table.read().expect("memo poisoned").entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::{KnowledgeGraphBuilder, LiveGraph, WriteBatch};

    #[test]
    fn serves_one_version_and_refuses_older_ones() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "p", "b", 1.0);
        let live = LiveGraph::new(b.build());
        let (v0, _) = live.pinned();
        let mut batch = WriteBatch::new();
        batch.assert("a", "p", "c", 2.0);
        live.commit(&batch);
        let (v1, _) = live.pinned();

        let memo: VersionMemo<u8, u32> = VersionMemo::default();
        assert_eq!(memo.insert(&v0, 1, 10), 10);
        assert_eq!(memo.get(&v0, &1), Some(10));
        assert_eq!(memo.get(&v1, &1), None, "another version's entry");
        // The newer version moves the table on…
        assert_eq!(memo.insert(&v1, 1, 11), 11);
        assert_eq!(memo.get(&v1, &1), Some(11));
        // …and the older one can no longer write into it.
        assert_eq!(memo.insert(&v0, 2, 20), 20);
        assert_eq!((memo.get(&v1, &2), memo.len()), (None, 1));
    }
}
