//! In-memory spans recorded around the benchmark's calls into each
//! layer. Spans are kept in a vector while the workload runs and written
//! out as JSONL when it ends; nothing is recorded inside the crates.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed region: a call into a layer made by the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Records spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Switches recording on or off between operations.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans that follow with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Adds a finished top-level span timed by the caller, for work done
    /// on other threads.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op: u64) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent: None, op });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Total self time and count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids: Vec<&Span> = children[i].iter().map(|&c| &self.spans[c]).collect();
            let entry = out.entry(s.name).or_default();
            entry.0 += self_time(s, &kids);
            entry.1 += 1;
        }
        out
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// A span's duration minus the part of it covered by its children. The
/// children's intervals are clipped to the parent and merged, so
/// overlapping children are not subtracted twice.
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for (a, b) in intervals {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", start_ns, end_ns, parent: None, op: 0 }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = span(0, 100);
        let (a, b) = (span(10, 30), span(50, 60));
        assert_eq!(self_time(&parent, &[&a, &b]), 70);
        assert_eq!(self_time(&parent, &[]), 100);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let parent = span(0, 100);
        let (a, b) = (span(10, 50), span(40, 70));
        assert_eq!(self_time(&parent, &[&b, &a]), 40);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let parent = span(20, 80);
        let (a, b) = (span(0, 30), span(70, 120));
        assert_eq!(self_time(&parent, &[&a, &b]), 40);
        let covering = span(0, 200);
        assert_eq!(self_time(&parent, &[&covering]), 0);
    }

    #[test]
    fn tracer_records_nesting_and_self_times() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        t.begin("op");
        t.span("leaf", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        let totals = t.self_times();
        let leaf = spans[1].end_ns - spans[1].start_ns;
        let op = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(totals["leaf"], (leaf, 1));
        assert_eq!(totals["op"], (op - leaf, 1));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("op");
        t.span("leaf", || ());
        t.end();
        assert!(t.spans().is_empty());
    }
}
