//! In-memory spans for the traced run. The benchmark opens a span around
//! each call it makes into a layer; nothing inside the crates is
//! instrumented. Spans stay in memory and are written out once at the end.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer (crate or module) the call went into.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; the innermost open span is its
    /// parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.timed(name, request, f).0
    }

    /// [`Tracer::span`], also returning the span's duration in nanoseconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time by layer name over the requests `keep` accepts.
    pub fn self_ns_by_name(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
        let own = self_times(&self.spans);
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(own) {
            if keep(span.request) {
                *by_name.entry(span.name).or_insert(0) += ns;
            }
        }
        by_name
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("request", Json::Num(s.request as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover. Children are clipped to the parent and overlapping
/// children (parallel work) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("plan", 10, 30, Some(0)),
            // Adjacent to "plan": no gap, no double count.
            span("exec", 30, 90, Some(0)),
            // Nested inside "exec".
            span("scan", 40, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("request", 100, 200, None),
            span("worker-a", 110, 160, Some(0)),
            span("worker-b", 140, 180, Some(0)),
            // Started before and ended after its parent: clipped to it.
            span("late", 190, 250, Some(0)),
        ];
        // Covered: [110, 180) ∪ [190, 200) = 80 of 100.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_and_sums_self_time_by_layer() {
        let mut t = Tracer::default();
        t.span("request", 7, |t| {
            t.span("plan", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("exec", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.span("request", 8, |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let all = t.self_ns_by_name(|_| true);
        assert!(all["plan"] >= 2_000_000 && all["exec"] >= 2_000_000);
        // The parent's self time excludes what its children covered.
        let total = spans[0].end_ns - spans[0].start_ns;
        assert!(
            all["request"]
                <= total - all["plan"] - all["exec"] + (spans[3].end_ns - spans[3].start_ns)
        );
        let only7 = t.self_ns_by_name(|r| r == 7);
        assert_eq!(only7["plan"], all["plan"]);
        assert_eq!(t.to_json().as_arr().unwrap().len(), 4);
    }
}
