//! Triple-pattern queries (Def. 3) with projections and validation.

use crate::pattern::TriplePattern;
use crate::term::{Term, Var};
#[cfg(test)]
use specqp_common::TermId;
use specqp_common::{Dictionary, Error, Result};
use std::fmt;

/// A validated triple-pattern query: a list of patterns, a variable-name
/// table and a projection.
///
/// Patterns keep their textual order; the planner refers to them by index.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    patterns: Vec<TriplePattern>,
    var_names: Vec<String>,
    projection: Vec<Var>,
}

impl Query {
    /// The patterns in query order.
    pub fn patterns(&self) -> &[TriplePattern] {
        &self.patterns
    }

    /// Number of triple patterns (`#TP` in the paper's tables).
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` if the query has no patterns (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The projected variables, in `SELECT` order.
    ///
    /// Recorded, not applied: nothing in the engine, the service or the wire
    /// protocol reads it, so every answer's binding carries every variable
    /// of the patterns. Callers may read it to pick the variables they show.
    pub fn projection(&self) -> &[Var] {
        &self.projection
    }

    /// Name of a variable (without the leading `?`).
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Looks up a variable by name (without the `?`).
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| Var(i as u32))
    }

    /// Replaces the pattern at `idx`, returning the new query
    /// (used to build relaxed queries, Def. 8). Variables must be a subset
    /// of the existing variable table.
    pub fn with_pattern_replaced(&self, idx: usize, p: TriplePattern) -> Query {
        let mut q = self.clone();
        q.patterns[idx] = p;
        q
    }

    /// `true` if every pattern is transitively connected to the first via
    /// shared variables — i.e. the join graph has a single component.
    pub fn is_connected(&self) -> bool {
        if self.patterns.len() <= 1 {
            return true;
        }
        let n = self.patterns.len();
        let mut reached = vec![false; n];
        reached[0] = true;
        let mut frontier = vec![0usize];
        while let Some(i) = frontier.pop() {
            for (j, r) in reached.iter_mut().enumerate() {
                if !*r && self.patterns[i].shares_var(&self.patterns[j]) {
                    *r = true;
                    frontier.push(j);
                }
            }
        }
        reached.into_iter().all(|r| r)
    }

    /// Renders the query as SPARQL-subset text, resolving constants through
    /// `dict`.
    pub fn display<'a>(&'a self, dict: &'a Dictionary) -> QueryDisplay<'a> {
        QueryDisplay { query: self, dict }
    }
}

/// Helper implementing `Display` for [`Query::display`].
pub struct QueryDisplay<'a> {
    query: &'a Query,
    dict: &'a Dictionary,
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let q = self.query;
        write!(f, "SELECT")?;
        for v in &q.projection {
            write!(f, " ?{}", q.var_name(*v))?;
        }
        writeln!(f, " WHERE {{")?;
        let term = |t: Term| -> String {
            match t {
                Term::Var(v) => format!("?{}", q.var_name(v)),
                Term::Const(id) => format!("<{}>", self.dict.name_or_unknown(id)),
            }
        };
        for (i, p) in q.patterns.iter().enumerate() {
            let sep = if i + 1 == q.patterns.len() { "" } else { " ." };
            writeln!(f, "  {} {} {}{}", term(p.s), term(p.p), term(p.o), sep)?;
        }
        write!(f, "}}")
    }
}

/// Incremental construction of [`Query`] values.
///
/// ```
/// use sparql::QueryBuilder;
/// use specqp_common::TermId;
///
/// let mut b = QueryBuilder::new();
/// let s = b.var("s");
/// b.pattern(s, TermId(0), TermId(1));
/// b.pattern(s, TermId(0), TermId(2));
/// b.project(s);
/// let q = b.build().unwrap();
/// assert_eq!(q.len(), 2);
/// ```
#[derive(Default, Debug)]
pub struct QueryBuilder {
    patterns: Vec<TriplePattern>,
    var_names: Vec<String>,
    projection: Vec<Var>,
}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a variable name, returning its [`Var`].
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            return Var(i as u32);
        }
        let v = Var(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        v
    }

    /// Adds a triple pattern.
    pub fn pattern(
        &mut self,
        s: impl Into<Term>,
        p: impl Into<Term>,
        o: impl Into<Term>,
    ) -> &mut Self {
        self.patterns.push(TriplePattern::new(s, p, o));
        self
    }

    /// Adds an already-built pattern.
    pub fn add(&mut self, p: TriplePattern) -> &mut Self {
        self.patterns.push(p);
        self
    }

    /// Appends a variable to the projection.
    pub fn project(&mut self, v: Var) -> &mut Self {
        if !self.projection.contains(&v) {
            self.projection.push(v);
        }
        self
    }

    /// Validates and builds the query.
    ///
    /// Rules enforced:
    /// * at least one pattern,
    /// * every pattern variable is in the variable table (guaranteed by
    ///   construction through [`var`](Self::var)),
    /// * every projected variable occurs in some pattern,
    /// * an empty projection defaults to *all* variables in first-seen order.
    pub fn build(mut self) -> Result<Query> {
        if self.patterns.is_empty() {
            return Err(Error::InvalidQuery("query has no triple patterns".into()));
        }
        for p in &self.patterns {
            for v in p.vars() {
                if v.index() >= self.var_names.len() {
                    return Err(Error::InvalidQuery(format!(
                        "pattern references unknown variable {v:?}"
                    )));
                }
            }
        }
        if self.projection.is_empty() {
            // SELECT * — project every variable mentioned by any pattern.
            let mut seen = Vec::new();
            for p in &self.patterns {
                for v in p.vars() {
                    if !seen.contains(&v) {
                        seen.push(v);
                    }
                }
            }
            self.projection = seen;
        }
        if self.projection.is_empty() {
            return Err(Error::InvalidQuery(
                "query has no variables to project".into(),
            ));
        }
        for v in &self.projection {
            if !self.patterns.iter().any(|p| p.mentions(*v)) {
                return Err(Error::InvalidQuery(format!(
                    "projected variable ?{} does not occur in any pattern",
                    self.var_names
                        .get(v.index())
                        .map(String::as_str)
                        .unwrap_or("<bad>")
                )));
            }
        }
        Ok(Query {
            patterns: self.patterns,
            var_names: self.var_names,
            projection: self.projection,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pattern_query() -> Query {
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        b.pattern(s, TermId(0), TermId(1));
        b.pattern(s, TermId(0), TermId(2));
        b.project(s);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_query() {
        let q = two_pattern_query();
        assert_eq!(q.len(), 2);
        assert_eq!(q.projection(), &[Var(0)]);
        assert_eq!(q.var_name(Var(0)), "s");
        assert_eq!(q.var_by_name("s"), Some(Var(0)));
        assert_eq!(q.var_by_name("zzz"), None);
    }

    #[test]
    fn empty_query_rejected() {
        assert!(QueryBuilder::new().build().is_err());
    }

    #[test]
    fn all_const_query_rejected() {
        let mut b = QueryBuilder::new();
        b.pattern(TermId(0), TermId(1), TermId(2));
        assert!(matches!(b.build(), Err(Error::InvalidQuery(_))));
    }

    #[test]
    fn projection_defaults_to_all_vars() {
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        let o = b.var("o");
        b.pattern(s, TermId(0), o);
        let q = b.build().unwrap();
        assert_eq!(q.projection(), &[Var(0), Var(1)]);
        let _ = (s, o);
    }

    #[test]
    fn unused_projected_var_rejected() {
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        let ghost = b.var("ghost");
        b.pattern(s, TermId(0), TermId(1));
        b.project(ghost);
        assert!(b.build().is_err());
    }

    #[test]
    fn connectivity() {
        let q = two_pattern_query();
        assert!(q.is_connected());

        let mut b = QueryBuilder::new();
        let s = b.var("s");
        let t = b.var("t");
        b.pattern(s, TermId(0), TermId(1));
        b.pattern(t, TermId(0), TermId(2));
        let q = b.build().unwrap();
        assert!(!q.is_connected());
    }

    #[test]
    fn pattern_replacement_preserves_rest() {
        let q = two_pattern_query();
        let newp = TriplePattern::new(Var(0), TermId(0), TermId(9));
        let q2 = q.with_pattern_replaced(1, newp);
        assert_eq!(q2.patterns()[0], q.patterns()[0]);
        assert_eq!(q2.patterns()[1], newp);
        assert_eq!(q.patterns()[1].o.as_const(), Some(TermId(2)));
    }

    #[test]
    fn display_roundtrips_structure() {
        let mut d = Dictionary::new();
        let ty = d.intern("rdf:type");
        let singer = d.intern("singer");
        let mut b = QueryBuilder::new();
        let s = b.var("s");
        b.pattern(s, ty, singer);
        b.project(s);
        let q = b.build().unwrap();
        let text = q.display(&d).to_string();
        assert!(text.contains("SELECT ?s WHERE {"));
        assert!(text.contains("?s <rdf:type> <singer>"));
    }
}
