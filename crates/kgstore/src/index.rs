//! Pattern-signature indexes with score-sorted posting lists.
//!
//! For every signature with 1 or 2 bound components there is a *sorted-array
//! map* (`PostingMap`) from the bound key to a posting list of triple
//! indexes, sorted by descending triple score (ties broken by triple index
//! for determinism). The fully unbound signature keeps one global sorted
//! list; the fully bound signature keeps a sorted membership array
//! (`TripleMap`).
//!
//! All posting lists live in **one shared arena** (`postings`); the maps
//! store `(start, len)` ranges into it. One contiguous buffer instead of one
//! heap allocation per key keeps scans cache-dense.
//!
//! The sorted-array layout (keys, starts and lens as parallel flat columns)
//! is deliberately identical to the snapshot-v2 on-disk sections: loading a
//! snapshot is a handful of bulk column copies with **no per-entry hashing
//! or insertion** — the restart path pages the index in rather than
//! rebuilding it. Lookups are binary searches, paid once per scan
//! construction, not per row.
//!
//! This mirrors what the paper gets from its PostgreSQL backend: "the
//! database engine used to retrieve the matches for triple patterns in
//! sorted order" (§4.4) — every access path streams matches best-first.

use crate::columns::TripleColumns;
use crate::pattern_key::{pack2, pack3};
use specqp_common::TermId;

/// A `(start, len)` window into the shared postings arena.
///
/// `start` is u64 because the arena concatenates six per-signature list
/// families (each up to one entry per triple), so its total length can
/// exceed `u32::MAX` even though individual triple ids cannot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PostingRange {
    pub(crate) start: u64,
    pub(crate) len: u32,
}

/// A sorted-array map from a fixed-width key to a [`PostingRange`].
///
/// Keys are strictly ascending; `starts`/`lens` are parallel columns. The
/// three flat vectors round-trip to the snapshot file as three bulk column
/// copies.
#[derive(Debug, Clone)]
pub(crate) struct PostingMap<K> {
    pub(crate) keys: Vec<K>,
    pub(crate) starts: Vec<u64>,
    pub(crate) lens: Vec<u32>,
}

// Manual impl: the derive would demand `K: Default`, which TermId lacks.
impl<K> Default for PostingMap<K> {
    fn default() -> Self {
        PostingMap {
            keys: Vec::new(),
            starts: Vec::new(),
            lens: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> PostingMap<K> {
    /// Binary-search lookup.
    #[inline]
    pub(crate) fn get(&self, key: K) -> Option<PostingRange> {
        self.keys.binary_search(&key).ok().map(|i| PostingRange {
            start: self.starts[i],
            len: self.lens[i],
        })
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Assembles a map from its three columns, validating that keys are
    /// strictly ascending (the sorted-array invariant every lookup relies
    /// on) and that the columns are parallel.
    pub(crate) fn from_columns(
        keys: Vec<K>,
        starts: Vec<u64>,
        lens: Vec<u32>,
    ) -> Option<PostingMap<K>> {
        if keys.len() != starts.len() || keys.len() != lens.len() {
            return None;
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(PostingMap { keys, starts, lens })
    }
}

/// A sorted-array membership map for fully bound (s,p,o) keys, packed into
/// u128 (strictly ascending) with the triple's storage index alongside.
#[derive(Debug, Default, Clone)]
pub(crate) struct TripleMap {
    pub(crate) keys: Vec<u128>,
    pub(crate) vals: Vec<u32>,
}

impl TripleMap {
    /// Binary-search lookup of a packed (s,p,o) key.
    #[inline]
    pub(crate) fn get(&self, key: u128) -> Option<u32> {
        self.keys.binary_search(&key).ok().map(|i| self.vals[i])
    }

    /// Number of stored triples.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Assembles a map from its two columns, validating strict key order.
    pub(crate) fn from_columns(keys: Vec<u128>, vals: Vec<u32>) -> Option<TripleMap> {
        if keys.len() != vals.len() || keys.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(TripleMap { keys, vals })
    }
}

/// Immutable indexes over a triple table. Built once by
/// [`KnowledgeGraphBuilder::build`](crate::KnowledgeGraphBuilder::build).
#[derive(Debug, Default)]
pub struct PatternIndexes {
    /// packed (s,p,o) → triple index (duplicates are merged by the builder).
    pub(crate) spo: TripleMap,
    /// packed (s,p) → postings range
    pub(crate) sp: PostingMap<u64>,
    /// packed (s,o) → postings range
    pub(crate) so: PostingMap<u64>,
    /// packed (p,o) → postings range
    pub(crate) po: PostingMap<u64>,
    /// s → postings range
    pub(crate) s: PostingMap<TermId>,
    /// p → postings range
    pub(crate) p: PostingMap<TermId>,
    /// o → postings range
    pub(crate) o: PostingMap<TermId>,
    /// Shared arena holding every keyed posting list back to back.
    pub(crate) postings: Vec<u32>,
    /// all triples, score-descending
    pub(crate) all: Vec<u32>,
}

/// Builds one list family: sorts `(key, triple)` pairs by
/// `(key asc, score desc, triple asc)`, then emits runs of equal keys as
/// arena-backed posting lists. Per-list contents end up in exactly the order
/// `by_score_desc` dictates — the same order the row/block scans stream.
fn build_family<K: Ord + Copy>(
    n: usize,
    key_of: impl Fn(usize) -> K,
    by_score_desc: &impl Fn(&u32, &u32) -> std::cmp::Ordering,
    arena: &mut Vec<u32>,
) -> PostingMap<K> {
    let mut entries: Vec<(K, u32)> = (0..n as u32).map(|i| (key_of(i as usize), i)).collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| by_score_desc(&a.1, &b.1)));
    let mut map = PostingMap::default();
    let mut i = 0;
    while i < entries.len() {
        let key = entries[i].0;
        let start = arena.len() as u64;
        let mut j = i;
        while j < entries.len() && entries[j].0 == key {
            arena.push(entries[j].1);
            j += 1;
        }
        map.keys.push(key);
        map.starts.push(start);
        map.lens.push((j - i) as u32);
        i = j;
    }
    map
}

impl PatternIndexes {
    /// Resolves a range to its arena slice.
    #[inline]
    pub(crate) fn list(&self, r: PostingRange) -> &[u32] {
        &self.postings[r.start as usize..r.start as usize + r.len as usize]
    }

    /// Builds all indexes for `cols`. Each posting list ends up sorted by
    /// `(score desc, triple index asc)`.
    ///
    /// Each family is one flat sort over `(key, triple)` pairs; the sort
    /// passes read only the key and score columns — the columnar layout
    /// keeps both cache-dense.
    pub(crate) fn build(cols: &TripleColumns) -> Self {
        let n = cols.len();
        let (subjects, predicates, objects) = (cols.subjects(), cols.predicates(), cols.objects());
        let scores = cols.scores();
        let by_score_desc = |a: &u32, b: &u32| {
            let (sa, sb) = (scores[*a as usize], scores[*b as usize]);
            sb.cmp(&sa).then_with(|| a.cmp(b))
        };

        let mut spo_entries: Vec<(u128, u32)> = (0..n as u32)
            .map(|i| {
                let u = i as usize;
                (pack3(subjects[u], predicates[u], objects[u]), i)
            })
            .collect();
        spo_entries.sort_unstable_by_key(|(k, _)| *k);
        let spo = TripleMap {
            keys: spo_entries.iter().map(|(k, _)| *k).collect(),
            vals: spo_entries.iter().map(|(_, i)| *i).collect(),
        };

        // Six list families, one entry per triple each.
        let mut postings = Vec::with_capacity(6 * n);
        let sp = build_family(
            n,
            |i| pack2(subjects[i], predicates[i]),
            &by_score_desc,
            &mut postings,
        );
        let so = build_family(
            n,
            |i| pack2(subjects[i], objects[i]),
            &by_score_desc,
            &mut postings,
        );
        let po = build_family(
            n,
            |i| pack2(predicates[i], objects[i]),
            &by_score_desc,
            &mut postings,
        );
        let s = build_family(n, |i| subjects[i], &by_score_desc, &mut postings);
        let p = build_family(n, |i| predicates[i], &by_score_desc, &mut postings);
        let o = build_family(n, |i| objects[i], &by_score_desc, &mut postings);

        let mut all: Vec<u32> = (0..n as u32).collect();
        all.sort_unstable_by(by_score_desc);
        PatternIndexes {
            spo,
            sp,
            so,
            po,
            s,
            p,
            o,
            postings,
            all,
        }
    }

    /// Approximate heap size of the indexes in bytes (diagnostics only).
    pub fn approx_bytes(&self) -> usize {
        fn map_bytes<K>(len: usize) -> usize {
            len * (std::mem::size_of::<K>() + 8 + 4)
        }
        (self.postings.len() + self.all.len()) * 4
            + self.spo.len() * (16 + 4)
            + map_bytes::<u64>(self.sp.len() + self.so.len() + self.po.len())
            + map_bytes::<TermId>(self.s.len() + self.p.len() + self.o.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;
    use crate::triple::TripleScore;

    fn cols(rows: &[(u32, u32, u32, f64)]) -> TripleColumns {
        let mut c = TripleColumns::new();
        for &(s, p, o, score) in rows {
            c.push(
                Triple::new(TermId(s), TermId(p), TermId(o)),
                TripleScore::new(score),
            );
        }
        c
    }

    #[test]
    fn posting_lists_sorted_by_score_desc() {
        let cols = cols(&[
            (1, 10, 100, 1.0),
            (2, 10, 100, 5.0),
            (3, 10, 100, 3.0),
            (1, 10, 101, 9.0),
        ]);
        let idx = PatternIndexes::build(&cols);
        let list = idx.list(idx.po.get(pack2(TermId(10), TermId(100))).unwrap());
        let scores: Vec<f64> = list
            .iter()
            .map(|&i| cols.score(i as usize).value())
            .collect();
        assert_eq!(scores, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn ties_break_by_triple_index() {
        let cols = cols(&[(1, 10, 100, 2.0), (2, 10, 100, 2.0), (3, 10, 100, 2.0)]);
        let idx = PatternIndexes::build(&cols);
        let list = idx.list(idx.po.get(pack2(TermId(10), TermId(100))).unwrap());
        assert_eq!(list, &[0, 1, 2]);
    }

    #[test]
    fn all_lists_cover_each_triple() {
        let cols = cols(&[(1, 10, 100, 1.0), (2, 11, 101, 2.0)]);
        let idx = PatternIndexes::build(&cols);
        assert_eq!(idx.all.len(), 2);
        assert_eq!(idx.s.len(), 2);
        assert_eq!(idx.p.len(), 2);
        assert_eq!(idx.o.len(), 2);
        assert_eq!(idx.spo.len(), 2);
        // global list is sorted desc
        assert_eq!(idx.all, vec![1, 0]);
    }

    #[test]
    fn arena_holds_one_entry_per_triple_per_family() {
        let cols = cols(&[(1, 10, 100, 1.0), (2, 10, 100, 5.0), (2, 11, 101, 2.0)]);
        let idx = PatternIndexes::build(&cols);
        assert_eq!(idx.postings.len(), 6 * cols.len());
        // Every range resolves without overlap gaps: total lengths add up.
        let total: usize = [&idx.sp, &idx.so, &idx.po]
            .into_iter()
            .flat_map(|m| m.lens.iter())
            .chain(
                [&idx.s, &idx.p, &idx.o]
                    .into_iter()
                    .flat_map(|m| m.lens.iter()),
            )
            .map(|&l| l as usize)
            .sum();
        assert_eq!(total, idx.postings.len());
    }

    #[test]
    fn map_keys_are_strictly_ascending() {
        let cols = cols(&[
            (3, 10, 100, 1.0),
            (1, 12, 100, 5.0),
            (2, 11, 101, 2.0),
            (1, 10, 102, 4.0),
        ]);
        let idx = PatternIndexes::build(&cols);
        assert!(idx.spo.keys.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.sp.keys.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.s.keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn from_columns_rejects_unsorted_or_ragged() {
        assert!(PostingMap::from_columns(vec![2u64, 1], vec![0, 0], vec![1, 1]).is_none());
        assert!(PostingMap::from_columns(vec![1u64, 1], vec![0, 0], vec![1, 1]).is_none());
        assert!(PostingMap::from_columns(vec![1u64], vec![0, 0], vec![1]).is_none());
        assert!(PostingMap::from_columns(vec![1u64, 2], vec![0, 1], vec![1, 1]).is_some());
        assert!(TripleMap::from_columns(vec![5u128, 3], vec![0, 1]).is_none());
        assert!(TripleMap::from_columns(vec![3u128, 5], vec![0, 1]).is_some());
    }
}
