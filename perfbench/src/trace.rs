//! The benchmark's own span recorder.
//!
//! Spans are opened around the benchmark's calls into each layer's
//! public functions, kept in memory, and written out when the run ends.
//! A disabled tracer records nothing and costs one branch per call, so
//! end-to-end runs carry no spans of the benchmark's own.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Request (or batch) the span belongs to.
    pub req: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timed in an in-process replay and placed on the parent's
    /// timeline, rather than timed inside the parent's interval.
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    pub fn open(&mut self, name: &'static str, req: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            req,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            replayed: false,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        self.spans[id].end_ns = self.ns(Instant::now());
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Record an interval measured elsewhere (an engine-reported phase,
    /// a request timed by the load loop).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, req, parent, start_ns, end_ns, false)
    }

    /// Place replayed layer durations back to back from the start of
    /// `parent`, so the span tree shows them under the request they
    /// account for.
    pub fn record_replayed(&mut self, parent: Option<usize>, layers: &[(&'static str, Duration)]) {
        let Some(p) = parent else { return };
        let (req, mut at) = (self.spans[p].req, self.spans[p].start_ns);
        for &(name, d) in layers {
            let end = at + d.as_nanos() as u64;
            self.push(name, req, Some(p), at, end, true);
            at = end;
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        replayed: bool,
    ) -> Option<usize> {
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            replayed,
        });
        Some(self.spans.len() - 1)
    }

    /// Durations (ms) of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    pub fn to_json(&self) -> serde_json::Value {
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "req": s.req,
                    "parent": s.parent,
                    "start_us": s.start_ns as f64 / 1e3,
                    "end_us": s.end_ns as f64 / 1e3,
                    "replayed": s.replayed,
                })
            })
            .collect();
        serde_json::json!({ "spans": spans })
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name aggregate: (spans, total ms, total self ms).
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = table.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns() as f64 / 1e6;
        e.2 += own as f64 / 1e6;
    }
    table
}

/// Latency ledger over the root spans named `root`: per span, the share
/// of its duration its children account for (coverage) and the
/// remainder in ms (unattributed).
pub fn ledger(spans: &[Span], root: &str) -> Vec<(f64, f64)> {
    let selfs = self_times_ns(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == root && s.dur_ns() > 0)
        .map(|(s, own)| {
            let dur = s.dur_ns() as f64;
            (1.0 - own as f64 / dur, own as f64 / 1e6)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
            replayed: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Overlapping children cover [10, 50) once, not twice.
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            // A disjoint child, and one that sticks out past the parent.
            span("c", Some(0), 60, 70),
            span("d", Some(0), 95, 120),
            // A grandchild only reduces its own parent's self time.
            span("a.1", Some(1), 15, 25),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10 - 5);
        assert_eq!(selfs[1], 30 - 10);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[5], 10);
        let table = self_time_table(&spans);
        assert_eq!(table["root"].0, 1);
        assert!((table["root"].2 - 45e-6).abs() < 1e-12);
    }

    #[test]
    fn ledger_reports_coverage_and_unattributed_time() {
        let spans = vec![
            span("req", None, 0, 10_000_000),
            span("parse", Some(0), 0, 2_000_000),
            span("compute", Some(0), 2_000_000, 8_000_000),
            span("req", None, 20_000_000, 24_000_000),
            span("compute", Some(3), 20_000_000, 24_000_000),
        ];
        let rows = ledger(&spans, "req");
        assert_eq!(rows.len(), 2);
        assert!((rows[0].0 - 0.8).abs() < 1e-12);
        assert!((rows[0].1 - 2.0).abs() < 1e-12);
        assert_eq!(rows[1], (1.0, 0.0));
    }

    #[test]
    fn replayed_layers_sit_back_to_back_under_their_request() {
        let mut t = Tracer::new(true);
        let start = Instant::now();
        let root = t.record("req", 7, None, start, start + Duration::from_millis(10));
        t.record_replayed(
            root,
            &[
                ("parse", Duration::from_millis(1)),
                ("compute", Duration::from_millis(6)),
            ],
        );
        let rows = ledger(t.spans(), "req");
        assert!((rows[0].0 - 0.7).abs() < 1e-9);
        assert!((rows[0].1 - 3.0).abs() < 1e-6);
        assert!(t.spans()[1..].iter().all(|s| s.replayed && s.req == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 1, || 5);
        assert_eq!(v, 5);
        let now = Instant::now();
        assert_eq!(t.record("y", 1, None, now, now), None);
        assert!(t.spans().is_empty());
    }
}
