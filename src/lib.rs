//! # spec-qp — speculative query planning for top-k joins over knowledge graphs
//!
//! Umbrella crate re-exporting the whole workspace; see the
//! [README](https://github.com/spec-qp/spec-qp/blob/main/README.md) and the
//! individual crates:
//!
//! * [`specqp`] — the planner (PLANGEN), executors and engine façade,
//! * [`kgstore`] — the scored triple store,
//! * [`sparql`] — the query model and parser,
//! * [`operators`] — incremental merge and rank joins,
//! * [`stats`] — score-distribution statistics and the expected-score
//!   estimator,
//! * [`relax`] — weighted relaxation rules and miners,
//! * [`datagen`] — seeded synthetic XKG/Twitter datasets,
//! * [`service`] — the concurrent query service (`Arc`-shared engine,
//!   worker pool, `submit` → [`Ticket`](service::Ticket) → `wait`),
//! * [`server`] — the TCP wire front-end (length-prefixed frames,
//!   load-shedding admission control).
//!
//! ```
//! use spec_qp::prelude::*;
//!
//! let mut b = KnowledgeGraphBuilder::new();
//! b.add("a", "type", "x", 2.0);
//! b.add("a", "type", "y", 1.0);
//! let kg = b.build();
//! let rules = RelaxationRegistry::new();
//! let engine = Engine::new(&kg, &rules);
//! let q = parse_query("SELECT ?s WHERE { ?s <type> <x> . ?s <type> <y> }", kg.dictionary()).unwrap();
//! assert_eq!(engine.run_specqp(&q, 5).answers.len(), 1);
//! ```

pub use datagen;
pub use kgstore;
pub use operators;
pub use relax;
pub use sparql;
pub use specqp;
pub use specqp_common as common;
pub use specqp_server as server;
pub use specqp_service as service;
pub use specqp_stats as stats;

/// The most common imports in one place.
pub mod prelude {
    pub use kgstore::{KnowledgeGraph, KnowledgeGraphBuilder, PatternKey};
    pub use operators::{ExecutionMode, PartialAnswer, PullStrategy};
    pub use relax::{
        CooccurrenceMiner, HierarchyMiner, Position, Relaxation, RelaxationRegistry, TermRule,
    };
    pub use sparql::{parse_query, Query, QueryBuilder, TriplePattern, Var};
    pub use specqp::{
        Engine, EngineConfig, PlanCache, QueryOutcome, QueryPlan, QueryShape, RunReport,
        SpeculationPolicy,
    };
    pub use specqp_common::{Dictionary, Score, TermId};
    pub use specqp_server::{Server, ServerConfig, SpecQpClient};
    pub use specqp_service::{
        ExecMode, QueryService, Request, ServiceConfig, ServiceError, Ticket,
    };
    pub use specqp_stats::{ExactCardinality, RefitMode, ScoreEstimator, StatsCatalog};
}
