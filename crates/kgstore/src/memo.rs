//! The version memo: the one cache that describes one graph version.
//!
//! Every cache in the system — the engine's plans, the statistics catalog
//! and both memos of the cardinality oracle — is a [`VersionMemo`]: a
//! bounded table filled from one graph version, the [`Epoch`] that version
//! was published at, and read only for that version.
//!
//! Staleness model: a reader passes the epoch of the version it pinned.
//! [`get`](VersionMemo::get) serves only the table's epoch. The first
//! [`insert`](VersionMemo::insert) from a newer epoch empties the table and
//! moves it on (the discarded entries count as `stale`): the commits since
//! may change every value in it, so nothing has to invalidate the memo when
//! a writer commits. A value computed from an older epoch — a reader still
//! holding an earlier pin while a writer commits — goes back to its caller
//! and is never stored, so it cannot be served for a version it does not
//! describe. Racing inserts of one key keep the first value; both computed
//! the same one.
//!
//! The table holds at most [`CAPACITY`] entries. An insert
//! that finds it full starts the table over (the discarded entries count as
//! `evictions`), the same move as an epoch change, so a server on a graph
//! that never changes does not keep every key it has ever seen.

use crate::Epoch;
use specqp_common::FxHashMap;
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// The most entries a [`VersionMemo`] holds before it starts over.
pub const CAPACITY: usize = 4096;

/// A bounded, thread-safe memo table for one graph version (see the module
/// docs).
#[derive(Debug)]
pub struct VersionMemo<K, V> {
    table: RwLock<Table<K, V>>,
    metrics: CacheMetrics,
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
            metrics: CacheMetrics::default(),
        }
    }
}

impl<K: Hash + Eq, V: Clone> VersionMemo<K, V> {
    /// The value memoized for `key` on the version published at `epoch`,
    /// counted as a hit or a miss.
    pub fn get(&self, epoch: Epoch, key: &K) -> Option<V> {
        let table = self.table.read().expect("memo poisoned");
        let found = if table.epoch == epoch {
            table.entries.get(key).cloned()
        } else {
            None
        };
        let counter = match found {
            Some(_) => &self.metrics.hits,
            None => &self.metrics.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Memoizes `value`, computed from the version published at `epoch`,
    /// unless the table already describes a newer version, and returns what
    /// the table holds for `key` (an earlier insert from the same version
    /// wins).
    pub fn insert(&self, epoch: Epoch, key: K, value: V) -> V {
        let mut table = self.table.write().expect("memo poisoned");
        if epoch < table.epoch {
            return value;
        }
        let newer = epoch > table.epoch;
        if newer || (table.entries.len() >= CAPACITY && !table.entries.contains_key(&key)) {
            let discarded = if newer {
                &self.metrics.stale
            } else {
                &self.metrics.evictions
            };
            discarded.fetch_add(table.entries.len() as u64, Ordering::Relaxed);
            table.entries.clear();
            table.epoch = epoch;
        }
        match table.entries.entry(key) {
            Entry::Occupied(held) => held.get().clone(),
            Entry::Vacant(slot) => {
                self.metrics.insertions.fetch_add(1, Ordering::Relaxed);
                slot.insert(value).clone()
            }
        }
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.table.read().expect("memo poisoned").entries.len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The memo's counters.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }
}

/// Hit, miss, insertion and discard counts of one [`VersionMemo`]: plain
/// atomics, shared by every thread reading the memo.
#[derive(Default, Debug)]
pub struct CacheMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    stale: AtomicU64,
}

impl CacheMetrics {
    /// Total lookups: `hits() + misses()`.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries stored.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Entries discarded because the table was full.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries discarded because a newer epoch inserted.
    pub fn stale(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    type Memo = VersionMemo<u32, Vec<usize>>;

    #[test]
    fn get_insert_roundtrip_with_metrics() {
        let memo = Memo::default();
        assert_eq!(memo.get(Epoch::ZERO, &7), None);
        assert_eq!(memo.insert(Epoch::ZERO, 7, vec![1]), vec![1]);
        // A second insert from the same epoch keeps the first value.
        assert_eq!(memo.insert(Epoch::ZERO, 7, vec![2]), vec![1]);
        assert_eq!(
            memo.get(Epoch::ZERO, &7),
            Some(vec![1]),
            "first insert wins"
        );
        let m = memo.metrics();
        assert_eq!((m.lookups(), m.hits(), m.misses()), (2, 1, 1));
        assert_eq!((m.insertions(), m.evictions(), m.stale()), (1, 0, 0));
        assert_eq!(memo.len(), 1);
    }

    /// An entry serves only its own epoch. An older epoch (a reader on an
    /// earlier pin) misses and cannot write; a newer epoch misses, and its
    /// first insert empties the table, counting the entries it discards.
    #[test]
    fn entries_serve_only_their_epoch() {
        let memo = Memo::default();
        let (e1, e2) = (Epoch::new(1), Epoch::new(2));
        assert_eq!(memo.insert(e1, 1, vec![1]), vec![1]);
        assert_eq!(memo.insert(e1, 2, vec![2]), vec![2]);
        assert_eq!(memo.get(e1, &1), Some(vec![1]), "same epoch serves");

        // An older pin misses and its insert goes back to it, unstored.
        assert_eq!(memo.get(Epoch::ZERO, &1), None);
        assert_eq!(memo.insert(Epoch::ZERO, 3, vec![]), vec![]);
        assert_eq!((memo.len(), memo.metrics().stale()), (2, 0), "kept");

        // A newer epoch misses; its first insert starts the table over.
        assert_eq!(memo.get(e2, &1), None);
        assert_eq!(memo.len(), 2, "a miss discards nothing");
        assert_eq!(memo.insert(e2, 1, vec![0]), vec![0]);
        assert_eq!((memo.len(), memo.metrics().stale()), (1, 2));
        assert_eq!(memo.get(e2, &1), Some(vec![0]));
        assert_eq!(memo.get(e2, &2), None, "the older epoch's entry is gone");
        assert_eq!(memo.get(e1, &1), None);
    }

    /// An insert that finds the table full starts it over, counting the
    /// entries it discards as evictions; a key already held is served
    /// without one.
    #[test]
    fn a_full_table_starts_over() {
        let memo = Memo::default();
        let cap = CAPACITY as u32;
        for key in 0..cap {
            memo.insert(Epoch::ZERO, key, vec![key as usize]);
        }
        assert_eq!(memo.len(), CAPACITY);
        assert_eq!(memo.insert(Epoch::ZERO, 0, vec![]), vec![0], "held key");
        assert_eq!(memo.metrics().evictions(), 0);

        assert_eq!(memo.insert(Epoch::ZERO, cap, vec![1]), vec![1]);
        assert_eq!(memo.len(), 1);
        let m = memo.metrics();
        assert_eq!((m.evictions(), m.stale()), (cap as u64, 0));
        assert_eq!(memo.get(Epoch::ZERO, &0), None, "evicted");
        assert_eq!(memo.get(Epoch::ZERO, &cap), Some(vec![1]));
    }

    /// Threads released together onto the *same* key keep the counters
    /// consistent (hits + misses == lookups), store the value at most once
    /// and never serve a corrupted one.
    #[test]
    fn contention_on_one_key_is_consistent() {
        let memo = Memo::default();
        let value: Vec<usize> = (0..4).collect();
        const THREADS: usize = 8;
        const ROUNDS: usize = 500;
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        match memo.get(Epoch::ZERO, &42) {
                            Some(got) => assert_eq!(got, value, "memoized value corrupted"),
                            None => {
                                // Losing the insert race is fine; a second
                                // stored value is not.
                                let held = memo.insert(Epoch::ZERO, 42, value.clone());
                                assert_eq!(held, value);
                            }
                        }
                    }
                });
            }
        });
        let m = memo.metrics();
        assert_eq!(
            m.hits() + m.misses(),
            m.lookups(),
            "counter invariant broken"
        );
        assert_eq!(
            m.lookups(),
            (THREADS * ROUNDS) as u64,
            "every lookup accounted"
        );
        assert_eq!(m.insertions(), 1, "value double-inserted under contention");
        assert_eq!(m.evictions(), 0);
        assert_eq!(memo.len(), 1);
    }

    /// Distinct keys hammered concurrently are each stored exactly once.
    #[test]
    fn contention_on_many_keys_inserts_each_once() {
        let memo = Memo::default();
        let keys: Vec<u32> = (0..260).map(|i| i * 7919).collect();
        let start = Barrier::new(6);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    start.wait();
                    for &key in &keys {
                        if memo.get(Epoch::ZERO, &key).is_none() {
                            let n = key as usize % 5;
                            let _ = memo.insert(Epoch::ZERO, key, vec![n; n]);
                        }
                    }
                });
            }
        });
        let m = memo.metrics();
        assert_eq!(m.hits() + m.misses(), m.lookups());
        assert_eq!(
            m.insertions(),
            keys.len() as u64,
            "each distinct key inserted exactly once"
        );
        assert_eq!(memo.len(), keys.len());
    }
}
