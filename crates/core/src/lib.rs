//! **Spec-QP** — speculative query planning for top-k joins over knowledge
//! graphs.
//!
//! This crate is the paper's primary contribution (§3): given a triple-
//! pattern query whose patterns carry weighted relaxations, predict — from
//! precomputed score-distribution statistics alone — *which patterns'
//! relaxations can contribute answers to the top-k*, and build a query plan
//! that processes only those through [Incremental
//! Merge](operators::BlockIncrementalMerge) operators while the rest are joined
//! directly over their sorted match lists.
//!
//! # Pieces
//!
//! * [`QueryPlan`] — the partition `{join group} ∪ {singletons}` of §3.2,
//! * [`plan_query`] — Algorithm 1 (PLANGEN),
//! * [`QueryShape`] — the canonical key of the engine's plan cache, the
//!   epoch memo ([`kgstore::VersionMemo`]) from query shapes to plans, so
//!   repeated workload shapes skip PLANGEN,
//! * [`executor`] — turns a plan into one operator tree and runs it
//!   on the calling thread ([`run_plan_blocks`]) — speculative, **TriniT**
//!   (every pattern relaxed, Fig. 2) and delta plans ([`QueryPlan::delta`])
//!   alike; also provides a
//!   **naive drain-everything executor** ([`run_naive`]) used as ground
//!   truth in tests,
//! * [`Engine`] — a one-stop façade owning the statistics catalog and
//!   cardinality oracle,
//! * [`speculation`] — the runtime speculation lifecycle: mis-speculation
//!   detection ([`speculation::verify`]), staged delta recovery and
//!   the statistics feedback loop, governed by [`SpeculationPolicy`],
//! * [`evaluation`] — the paper's quality metrics (§4.3): precision/recall,
//!   prediction accuracy, average score error,
//! * [`RunReport`] — timing + the "number of answer objects created" memory
//!   metric.
//!
//! # Quickstart
//!
//! ```
//! use kgstore::KnowledgeGraphBuilder;
//! use relax::{Position, RelaxationRegistry, TermRule};
//! use specqp::Engine;
//! use sparql::parse_query;
//!
//! // A tiny KG: singers and vocalists with popularity scores.
//! let mut b = KnowledgeGraphBuilder::new();
//! b.add("shakira", "rdf:type", "singer", 100.0);
//! b.add("adele", "rdf:type", "vocalist", 90.0);
//! b.add("shakira", "rdf:type", "lyricist", 40.0);
//! b.add("adele", "rdf:type", "lyricist", 35.0);
//! let kg = b.build();
//!
//! // One mined relaxation: singer → vocalist at weight 0.8.
//! let d = kg.dictionary();
//! let mut reg = RelaxationRegistry::new();
//! reg.add(TermRule::with_context(
//!     Position::Object,
//!     d.lookup("singer").unwrap(),
//!     d.lookup("vocalist").unwrap(),
//!     0.8,
//!     d.lookup("rdf:type").unwrap(),
//! ));
//!
//! let engine = Engine::new(&kg, &reg);
//! let q = parse_query(
//!     "SELECT ?s WHERE { ?s <rdf:type> <singer> . ?s <rdf:type> <lyricist> }",
//!     kg.dictionary(),
//! )
//! .unwrap();
//! let out = engine.run_specqp(&q, 2);
//! assert!(!out.answers.is_empty());
//! ```

pub mod engine;
pub mod evaluation;
pub mod executor;
pub mod plan;
pub mod plan_cache;
pub mod plangen;
pub mod speculation;
pub mod trace;

pub use engine::{Engine, EngineConfig, GraphHandle, Handle, PinnedGraph, QueryOutcome};
pub use evaluation::{
    precision_at_k, prediction_covering, prediction_exact, required_relaxations, score_error,
    ScoreError,
};
pub use executor::{run_naive, run_plan_blocks, star_join_var};
pub use plan::QueryPlan;
pub use plan_cache::QueryShape;
pub use plangen::plan_query;
pub use speculation::{SpeculationPolicy, Verdict};
pub use trace::RunReport;
