//! In-memory dictionary-encoded scored triple store.
//!
//! This crate is the knowledge-graph substrate of the Spec-QP reproduction.
//! The paper (§4.4) retrieves the matches of each triple pattern *in
//! score-sorted order* from PostgreSQL; the planner and the top-k operators
//! only ever interact with the storage layer through that interface. Here the
//! substrate is an in-memory store that precomputes, for every triple-pattern
//! *signature* (each of s/p/o either bound or variable), posting lists sorted
//! by descending triple score.
//!
//! # Contents
//!
//! * [`Dictionary`] — string ⇄ [`TermId`] interning,
//! * [`Triple`], [`ScoredTriple`] — the 〈s,p,o〉 data model with scores
//!   (Def. 1 of the paper),
//! * [`KnowledgeGraphBuilder`] → [`KnowledgeGraph`] — construction and
//!   storage,
//! * [`PatternKey`] — a lookup key with optional s/p/o components,
//! * [`MatchList`] — a borrowed, score-descending list of matching triples,
//!   the unit consumed by sorted scans and by the statistics builder.
//!
//! # Example
//!
//! ```
//! use kgstore::{KnowledgeGraphBuilder, PatternKey};
//!
//! let mut b = KnowledgeGraphBuilder::new();
//! b.add("shakira", "rdf:type", "singer", 10.0);
//! b.add("beyonce", "rdf:type", "singer", 9.0);
//! b.add("shakira", "rdf:type", "lyricist", 4.0);
//! let kg = b.build();
//!
//! let singer = kg.dictionary().lookup("singer").unwrap();
//! let ty = kg.dictionary().lookup("rdf:type").unwrap();
//! let matches = kg.matches(PatternKey::po(ty, singer));
//! assert_eq!(matches.len(), 2);
//! // Sorted by descending score:
//! assert!(matches.score_at(0) >= matches.score_at(1));
//! ```

pub mod builder;
pub mod columns;
pub mod index;
pub mod io;
pub mod live;
pub mod pattern_key;
pub mod snapshot;
pub mod store;
pub mod triple;

pub use builder::KnowledgeGraphBuilder;
pub use columns::TripleColumns;
pub use io::{read_tsv, read_tsv_into, write_tsv};
pub use live::{CompactionPolicy, DeltaStore, Epoch, LiveGraph, LiveStats, WriteBatch, WriteOp};
pub use pattern_key::{PatternKey, Signature};
pub use snapshot::{load_snapshot, read_snapshot, save_snapshot, write_snapshot};
pub use store::{KnowledgeGraph, MatchList};
pub use triple::{ScoredTriple, Triple, TripleScore};

pub use specqp_common::{Dictionary, TermId};
