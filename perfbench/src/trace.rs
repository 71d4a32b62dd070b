//! The benchmark's own spans: every layer is timed from outside, around
//! the call into its public function, and the spans stay in memory until
//! the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: which layer function, when, under which parent span,
/// for which request.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function, e.g. `engine.run` or `svc.inproc`.
    pub name: String,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Id of the enclosing span (1-based), 0 for a root.
    pub parent: u32,
    /// The request or run this span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// An in-memory span store. A disabled tracer records nothing, so the
/// same loop code serves the untraced and the traced runs.
#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`, timing from `epoch`.
    #[must_use]
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A tracer in the same state on the same epoch, without the spans
    /// (one per load thread).
    #[must_use]
    pub fn clone_empty(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off (the overhead probe alternates).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Record a span and return its id (0 when not recording).
    pub fn record(
        &mut self,
        name: &str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let ns =
            |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
        u32::try_from(self.spans.len()).expect("fewer than 2^32 spans")
    }

    /// Take over another tracer's spans (one per load thread), keeping
    /// parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    /// Durations in nanoseconds of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Self time in nanoseconds of every span named `name`: its duration
    /// minus what its direct children cover.
    #[must_use]
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ns() - c)
            .collect()
    }

    /// Every span as one JSON object per line, ids 1-based in order.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_absorb_relinks() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut a = Tracer::new(true, t0);
        let root = a.record("root", 0, 1, at(0), at(100));
        a.record("child", root, 1, at(10), at(40));
        let mut b = Tracer::new(true, t0);
        let r2 = b.record("root", 0, 2, at(0), at(50));
        b.record("child", r2, 2, at(0), at(50));
        a.absorb(b);
        assert_eq!(a.self_times("root"), vec![70_000.0, 0.0]);
        let mut off = Tracer::new(false, t0);
        assert_eq!(off.record("x", 0, 0, at(0), at(1)), 0);
        assert!(off.durations("x").is_empty());
    }
}
