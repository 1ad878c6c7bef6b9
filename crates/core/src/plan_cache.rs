//! A sharded, bounded plan cache keyed by canonical query shape.
//!
//! Spec-QP amortizes planning effort across a workload: under serving
//! traffic the same query *shapes* (templates instantiated with the same
//! constants but arbitrary variable names) recur, and PLANGEN's decision
//! depends only on the shape and `k` — not on variable names. The cache maps
//! [`QueryShape`] to the generated [`QueryPlan`] so repeated shapes skip
//! PLANGEN entirely.
//!
//! Concurrency model: the key space is split over `N` shards, each behind
//! its own `Mutex`, so service worker threads planning different shapes
//! rarely contend. Per-shard capacity is bounded with FIFO eviction.
//! Hit/miss/insertion/eviction counts are recorded in a shared
//! [`CacheMetrics`] handle (`operators::metrics`), maintaining the invariant
//! `hits + misses == lookups`.
//!
//! Staleness model: every cached plan is stamped with the graph **epoch**
//! ([`KnowledgeGraph::epoch`](kgstore::KnowledgeGraph::epoch)) it was
//! planned on and is served only at that epoch, the rule the statistics
//! memos follow too. A lookup from a newer epoch drops the entry on sight
//! (counted as `stale` + `miss`); a lookup from an older epoch — a caller
//! still holding an earlier pin — misses and leaves the entry alone, and its
//! insert never replaces it. So a commit can never serve a plan that
//! pre-dates it, and nothing has to invalidate the cache. The speculation
//! ledger plays no part: PLANGEN does not read it, so a cached plan stays
//! valid across ledger writes, and the engine applies the ledger's bias to
//! each plan it serves.

use crate::plan::QueryPlan;
use kgstore::Epoch;
use operators::{CacheMetrics, CacheMetricsHandle};
use sparql::{Query, Term, Var};
use specqp_common::hash::fx_hash_one;
use specqp_common::{FxHashMap, TermId};
use std::collections::VecDeque;
use std::sync::Mutex;

/// One pattern's slot in a [`QueryShape`]: the constant components plus the
/// canonical numbers of its variable positions (`u16::MAX` = constant
/// slot). `u16` leaves room for 65 535 distinct variables per query — far
/// beyond any realizable pattern list (each pattern introduces ≤ 3).
type ShapeSlot = (Option<TermId>, Option<TermId>, Option<TermId>, [u16; 3]);

/// Variable-name-insensitive identity of a planning problem: the pattern
/// structure (constants + canonically renumbered variables, in query order)
/// and the requested `k`.
///
/// Two queries that differ only in variable names produce equal shapes; any
/// difference in constants, join structure, pattern order or `k` produces a
/// different shape.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct QueryShape {
    slots: Vec<ShapeSlot>,
    k: usize,
}

impl QueryShape {
    /// Canonicalizes `query` + `k`: variables are renumbered in first-seen
    /// order across the whole pattern list, erasing their names.
    pub fn of(query: &Query, k: usize) -> Self {
        let mut var_map: FxHashMap<Var, u16> = FxHashMap::default();
        let mut slots = Vec::with_capacity(query.len());
        for p in query.patterns() {
            let mut slot = [u16::MAX; 3];
            for (i, t) in [p.s, p.p, p.o].into_iter().enumerate() {
                if let Term::Var(v) = t {
                    let next = var_map.len();
                    assert!(
                        next < usize::from(u16::MAX),
                        "query exceeds {} distinct variables",
                        u16::MAX
                    );
                    slot[i] = *var_map.entry(v).or_insert(next as u16);
                }
            }
            let (s, pp, o) = p.const_parts();
            slots.push((s, pp, o, slot));
        }
        QueryShape { slots, k }
    }

    /// The `k` this shape was planned for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of patterns in the shape.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` for a shape with no patterns (never produced by valid queries).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// One cached plan plus the epoch it was planned on.
#[derive(Debug)]
struct CachedPlan {
    plan: QueryPlan,
    epoch: Epoch,
}

/// One shard: a bounded map plus FIFO insertion order for eviction.
#[derive(Default, Debug)]
struct Shard {
    map: FxHashMap<QueryShape, CachedPlan>,
    order: VecDeque<QueryShape>,
}

/// A sharded, bounded, thread-safe map from [`QueryShape`] to [`QueryPlan`].
#[derive(Debug)]
pub struct PlanCache {
    shards: Box<[Mutex<Shard>]>,
    per_shard_capacity: usize,
    metrics: CacheMetricsHandle,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(Self::DEFAULT_SHARDS, Self::DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// Default shard count (a power of two keeps the selector a mask).
    pub const DEFAULT_SHARDS: usize = 16;
    /// Default total capacity across all shards.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a cache with `shards` shards and `capacity` total entries
    /// (rounded up to at least one entry per shard).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            metrics: CacheMetrics::new_handle(),
        }
    }

    /// The shared counter handle (hits, misses, insertions, evictions).
    pub fn metrics(&self) -> &CacheMetricsHandle {
        &self.metrics
    }

    /// Total cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan cache poisoned").map.len())
            .sum()
    }

    /// `true` when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, shape: &QueryShape) -> &Mutex<Shard> {
        let h = fx_hash_one(shape) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Looks up the plan for `shape` on graph `epoch`, counting a hit or a
    /// miss. Only a plan planned on the same epoch is served. An entry from
    /// an older epoch is dropped on sight (counted as `stale` in addition to
    /// the miss): the commits since may change PLANGEN's answer. An entry
    /// from a newer epoch is a miss and stays.
    pub fn lookup(&self, shape: &QueryShape, epoch: Epoch) -> Option<QueryPlan> {
        let mut shard = self.shard_for(shape).lock().expect("plan cache poisoned");
        match shard.map.get(shape) {
            Some(cached) if cached.epoch == epoch => {
                self.metrics.count_hit();
                Some(cached.plan.clone())
            }
            Some(cached) if cached.epoch < epoch => {
                shard.map.remove(shape);
                shard.order.retain(|s| s != shape);
                self.metrics.count_stale();
                self.metrics.count_miss();
                None
            }
            _ => {
                self.metrics.count_miss();
                None
            }
        }
    }

    /// Inserts `plan` for `shape`, stamped with the graph `epoch` it was
    /// planned on, unless an entry from the same or a newer epoch already
    /// exists (plans are deterministic per shape and epoch, so the first
    /// insert wins and concurrent duplicates are dropped; a newer insert
    /// replaces a stale entry in place). Evicts the oldest entry of a full
    /// shard. Returns `true` when the plan was actually stored.
    pub fn insert(&self, shape: QueryShape, plan: QueryPlan, epoch: Epoch) -> bool {
        let mut shard = self.shard_for(&shape).lock().expect("plan cache poisoned");
        if let Some(cached) = shard.map.get_mut(&shape) {
            if cached.epoch >= epoch {
                return false;
            }
            // Refresh a stale entry in place; it keeps its eviction slot.
            *cached = CachedPlan { plan, epoch };
            self.metrics.count_stale();
            self.metrics.count_insertion();
            return true;
        }
        if shard.map.len() >= self.per_shard_capacity {
            if let Some(oldest) = shard.order.pop_front() {
                shard.map.remove(&oldest);
                self.metrics.count_eviction();
            }
        }
        shard.order.push_back(shape.clone());
        shard.map.insert(shape, CachedPlan { plan, epoch });
        self.metrics.count_insertion();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql::QueryBuilder;

    const E0: Epoch = Epoch::ZERO;

    fn query(var_names: [&str; 2], classes: [u32; 2]) -> Query {
        let mut b = QueryBuilder::new();
        let s = b.var(var_names[0]);
        let o = b.var(var_names[1]);
        b.pattern(s, TermId(0), TermId(classes[0]));
        b.pattern(s, TermId(0), TermId(classes[1]));
        b.pattern(s, TermId(1), o);
        b.build().unwrap()
    }

    #[test]
    fn shape_erases_variable_names() {
        let a = QueryShape::of(&query(["s", "o"], [5, 6]), 10);
        let b = QueryShape::of(&query(["x", "y"], [5, 6]), 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.k(), 10);
    }

    #[test]
    fn shape_distinguishes_constants_and_k() {
        let a = QueryShape::of(&query(["s", "o"], [5, 6]), 10);
        let b = QueryShape::of(&query(["s", "o"], [5, 7]), 10);
        let c = QueryShape::of(&query(["s", "o"], [5, 6]), 11);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shape_distinguishes_join_structure() {
        // ?s <0> <5> . ?s <0> <6> vs ?s <0> <5> . ?t <0> <6>: same constants,
        // different variable topology.
        let mut b1 = QueryBuilder::new();
        let s = b1.var("s");
        b1.pattern(s, TermId(0), TermId(5));
        b1.pattern(s, TermId(0), TermId(6));
        let star = b1.build().unwrap();
        let mut b2 = QueryBuilder::new();
        let s = b2.var("s");
        let t = b2.var("t");
        b2.pattern(s, TermId(0), TermId(5));
        b2.pattern(t, TermId(0), TermId(6));
        let cross = b2.build().unwrap();
        assert_ne!(QueryShape::of(&star, 5), QueryShape::of(&cross, 5));
    }

    #[test]
    fn lookup_insert_roundtrip_with_metrics() {
        let cache = PlanCache::default();
        let shape = QueryShape::of(&query(["s", "o"], [5, 6]), 10);
        assert!(cache.lookup(&shape, E0).is_none());
        assert!(cache.insert(shape.clone(), QueryPlan::new(3, &[1]), E0));
        // Duplicate same-epoch insert is refused.
        assert!(!cache.insert(shape.clone(), QueryPlan::new(3, &[2]), E0));
        let got = cache.lookup(&shape, E0).unwrap();
        assert_eq!(got, QueryPlan::new(3, &[1]), "first insert wins");
        let m = cache.metrics();
        assert_eq!(m.lookups(), 2);
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 1);
        assert_eq!(m.insertions(), 1);
        assert_eq!(m.evictions(), 0);
        assert_eq!(m.stale(), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn full_shard_evicts_oldest() {
        // Single shard, capacity 2 → inserting a third shape evicts the first.
        let cache = PlanCache::new(1, 2);
        let shapes: Vec<QueryShape> = (0..3)
            .map(|i| QueryShape::of(&query(["s", "o"], [i, i + 10]), 10))
            .collect();
        for s in &shapes {
            assert!(cache.insert(s.clone(), QueryPlan::none_relaxed(3), E0));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.metrics().evictions(), 1);
        assert!(
            cache.lookup(&shapes[0], E0).is_none(),
            "oldest entry evicted"
        );
        assert!(cache.lookup(&shapes[1], E0).is_some());
        assert!(cache.lookup(&shapes[2], E0).is_some());
    }

    /// A newer-epoch insert refreshes a stale entry in place instead of
    /// being refused as a duplicate.
    #[test]
    fn stale_entry_is_replaced_by_newer_insert() {
        let cache = PlanCache::new(1, 2);
        let shape = QueryShape::of(&query(["s", "o"], [5, 6]), 10);
        let e2 = Epoch::new(2);
        assert!(cache.insert(shape.clone(), QueryPlan::new(3, &[]), E0));
        assert!(cache.insert(shape.clone(), QueryPlan::new(3, &[0]), e2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.metrics().stale(), 1);
        assert_eq!(cache.lookup(&shape, e2).unwrap(), QueryPlan::new(3, &[0]));
    }

    /// A plan serves only its own epoch. A newer epoch drops it on sight; an
    /// older epoch (a caller on an earlier pin) misses, leaves it in place
    /// and cannot replace it.
    #[test]
    fn plans_serve_only_their_epoch() {
        let cache = PlanCache::default();
        let shape = QueryShape::of(&query(["s", "o"], [5, 6]), 10);
        let (e1, e2) = (Epoch::new(1), Epoch::new(2));
        assert!(cache.insert(shape.clone(), QueryPlan::new(3, &[1]), e1));
        assert!(cache.lookup(&shape, e1).is_some(), "same epoch serves");

        // An older pin misses and cannot overwrite the newer plan.
        assert!(cache.lookup(&shape, E0).is_none());
        assert!(!cache.insert(shape.clone(), QueryPlan::new(3, &[]), E0));
        let m = cache.metrics();
        assert_eq!((m.stale(), cache.len()), (0, 1), "newer entry kept");

        // A newer epoch drops it.
        assert!(cache.lookup(&shape, e2).is_none());
        assert_eq!((m.stale(), cache.len()), (1, 0), "older epoch dropped");
        assert!(cache.insert(shape.clone(), QueryPlan::new(3, &[]), e2));
        assert_eq!(cache.lookup(&shape, e2).unwrap(), QueryPlan::new(3, &[]));
    }
}
