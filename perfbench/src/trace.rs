//! Spans recorded by the benchmark around its own calls into each layer
//! (the engine itself is not instrumented). Spans stay in memory and are
//! written out when the run ends, one JSON object per line.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Shared by every span of one query (or one writer batch).
    pub trace: u64,
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one; `None` for a query's root.
    pub parent: Option<u64>,
    /// Layer call, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// An in-memory span log. Disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start at `first_id` (give concurrent tracers
    /// disjoint ranges so merged logs keep unique ids).
    pub fn new(on: bool, epoch: Instant, first_id: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Moves the end of an already recorded span (a root whose children
    /// ran after it was opened).
    pub fn extend(&mut self, id: u64, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = s.end_ns.max(end_ns);
        }
    }

    /// Moves another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_to(&self, mut w: impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_share_trace_and_point_at_parent() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 1);
        let a = epoch + Duration::from_micros(5);
        let b = epoch + Duration::from_micros(9);
        let root = t.record(42, None, "query", a, b);
        let child = t.record(42, Some(root), "sql.parse", a, a);
        assert_ne!(root, child);
        let mut out = Vec::new();
        t.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"trace\":42,\"span\":1,\"parent\":null,\"name\":\"query\",\"start_ns\":5000,\"end_ns\":9000}"
        );
        assert!(lines[1].contains("\"parent\":1,\"name\":\"sql.parse\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        t.record(1, None, "query", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
