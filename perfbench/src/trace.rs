//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name (`layer.operation`), start and end offsets from the
//! tracer's epoch, the span that caused it, and the project index or
//! request id it belongs to. Spans stay in memory until the run ends; a
//! layer's busy time is the sum of its spans' self times (duration minus
//! the part of that interval its child spans cover).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `ddl.parse`.
    pub name: &'static str,
    /// Start offset from the tracer's epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the tracer's epoch, nanoseconds.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// The project index or request id the span belongs to.
    pub id: u64,
}

/// A handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Records spans into a vector.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, id: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            id,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Close an open span.
    pub fn close(&mut self, span: SpanId) {
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, nanoseconds: each span's duration minus
    /// the union of its children's intervals.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let covered = union_within(kids, s.start_ns, s.end_ns);
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
        }
        out
    }

    /// The duration of every span named `name`, milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Busy (self) time of every span named `name`, milliseconds.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.self_ns_by_name().get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// The spans as JSON lines, for writing out when the run ends.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.id
            ));
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span { name: "outer", start_ns: 0, end_ns: 100, parent: None, id: 0 },
            Span { name: "a", start_ns: 10, end_ns: 40, parent: Some(0), id: 0 },
            // Overlaps `a`: the union, not the sum, is subtracted.
            Span { name: "a", start_ns: 30, end_ns: 50, parent: Some(0), id: 0 },
            // Runs past the parent's end: clipped.
            Span { name: "b", start_ns: 90, end_ns: 120, parent: Some(0), id: 0 },
        ];
        let by_name = t.self_ns_by_name();
        assert_eq!(by_name["outer"], 100 - 40 - 10);
        assert_eq!(by_name["a"], 30 + 20);
        assert_eq!(by_name["b"], 30);
        assert_eq!(t.busy_ms("missing"), 0.0);
    }

    #[test]
    fn spans_record_parent_and_id() {
        let mut t = Tracer::new();
        let p = t.open("project", None, 7);
        let x = t.time("ddl.parse", Some(p), 7, || 41 + 1);
        t.close(p);
        assert_eq!(x, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].id), (Some(0), 7));
        assert!(s[0].end_ns >= s[1].end_ns);
        assert!(t.to_json_lines().contains("\"name\":\"ddl.parse\""));
        assert_eq!(t.durations_ms("ddl.parse").len(), 1);
    }
}
