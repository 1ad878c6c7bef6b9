//! Query workloads: a named list of generated queries.

use sparql::Query;

/// A named list of benchmark queries.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Human-readable name ("xkg", "twitter").
    pub name: String,
    /// The queries, in generation order.
    pub queries: Vec<Query>,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: impl Into<String>, queries: Vec<Query>) -> Self {
        Workload {
            name: name.into(),
            queries,
        }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when there are no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}
