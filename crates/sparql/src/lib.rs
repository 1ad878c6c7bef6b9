//! Triple-pattern query model and SPARQL-subset parser.
//!
//! The paper's queries (Def. 3) are *triple pattern queries*: sets of
//! 〈S,P,O〉 patterns whose components are either constants from the KG or
//! shared variables, e.g.
//!
//! ```sparql
//! SELECT ?s WHERE {
//!   ?s 'rdf:type' <singer> .
//!   ?s 'rdf:type' <lyricist> .
//!   ?s 'rdf:type' <guitarist> .
//!   ?s 'rdf:type' <pianist>
//! }
//! ```
//!
//! This crate provides:
//! * [`Term`], [`Var`], [`TriplePattern`] — the pattern algebra,
//! * [`Query`] / [`QueryBuilder`] — validated multi-pattern queries with a
//!   projection,
//! * [`parse_query`] — a parser for the SPARQL subset above (the paper's
//!   surface syntax: `?var`, `<iri>`, `'literal'`),
//! * rendering of queries back to text via [`Query::display`].

pub mod parser;
pub mod pattern;
pub mod query;
pub mod term;

pub use parser::{parse_query, parse_query_interning};
pub use pattern::{canonical_form, CanonicalSlot, PatternShape, StatsKey, TriplePattern};
pub use query::{Query, QueryBuilder};
pub use term::{Term, Var};

pub use specqp_common::{Dictionary, TermId};
