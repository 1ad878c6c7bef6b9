//! Construction of [`KnowledgeGraph`]s.

use crate::columns::TripleColumns;
use crate::index::PatternIndexes;
use crate::store::KnowledgeGraph;
use crate::triple::{Triple, TripleScore};
use specqp_common::Dictionary;
use specqp_common::{FxHashMap, TermId};

/// Accumulates triples and produces an immutable, indexed
/// [`KnowledgeGraph`]. A triple added twice (same 〈s,p,o〉) keeps the
/// larger score.
#[derive(Default)]
pub struct KnowledgeGraphBuilder {
    dict: Dictionary,
    cols: TripleColumns,
    seen: FxHashMap<Triple, u32>,
}

impl KnowledgeGraphBuilder {
    /// New, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates space for `n` triples.
    pub fn reserve(&mut self, n: usize) {
        self.cols.reserve(n);
    }

    /// Interns a term without adding a triple (useful for queries that
    /// mention terms the data may not contain).
    pub fn intern(&mut self, name: &str) -> TermId {
        self.dict.intern(name)
    }

    /// Adds a triple by term names. Returns the ids assigned.
    ///
    /// # Panics
    /// Panics if `score` is NaN, negative or infinite ([`TripleScore::new`]).
    pub fn add(&mut self, s: &str, p: &str, o: &str, score: f64) -> (TermId, TermId, TermId) {
        let s = self.dict.intern(s);
        let p = self.dict.intern(p);
        let o = self.dict.intern(o);
        self.add_ids(s, p, o, TripleScore::new(score));
        (s, p, o)
    }

    /// Adds a triple by pre-interned ids; a duplicate keeps the larger
    /// score.
    pub fn add_ids(&mut self, s: TermId, p: TermId, o: TermId, score: TripleScore) {
        let t = Triple::new(s, p, o);
        match self.seen.get(&t) {
            Some(&i) => {
                let old = self.cols.score(i as usize);
                self.cols.set_score(i as usize, old.max(score));
            }
            None => {
                let i = self.cols.len() as u32;
                self.cols.push(t, score);
                self.seen.insert(t, i);
            }
        }
    }

    /// Number of distinct triples added so far.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` if nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Read access to the dictionary built so far.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Finalizes the graph: builds every pattern index.
    pub fn build(self) -> KnowledgeGraph {
        let indexes = PatternIndexes::build(&self.cols);
        KnowledgeGraph::from_parts(self.dict, self.cols, indexes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternKey;

    #[test]
    fn duplicate_max_policy() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "p", "b", 3.0);
        b.add("a", "p", "b", 5.0);
        b.add("a", "p", "b", 1.0);
        let kg = b.build();
        assert_eq!(kg.len(), 1);
        assert_eq!(kg.score(0).value(), 5.0);
    }

    #[test]
    fn intern_without_triple() {
        let mut b = KnowledgeGraphBuilder::new();
        let id = b.intern("ghost");
        let kg = b.build();
        assert_eq!(kg.dictionary().lookup("ghost"), Some(id));
        assert!(kg.matches(PatternKey::s_only(id)).is_empty());
    }

    #[test]
    fn build_indexes_consistent_with_data() {
        let mut b = KnowledgeGraphBuilder::new();
        for i in 0..100 {
            b.add(&format!("e{i}"), "p", &format!("o{}", i % 5), i as f64);
        }
        let kg = b.build();
        let p = kg.dictionary().lookup("p").unwrap();
        assert_eq!(kg.cardinality(PatternKey::p_only(p)), 100);
        let o0 = kg.dictionary().lookup("o0").unwrap();
        let m = kg.matches(PatternKey::po(p, o0));
        assert_eq!(m.len(), 20);
        // Check descending order.
        for r in 1..m.len() {
            assert!(m.score_at(r - 1) >= m.score_at(r));
        }
    }
}
