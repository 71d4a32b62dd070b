//! The flight recorder: fixed-capacity, lock-free rings of structured
//! events, one ring per writer (worker), merged into a [`FlightDump`] on
//! demand.
//!
//! Each ring slot is a tiny seqlock: a version word that is odd while the
//! slot is being written, plus the four data words of a [`RawEvent`].
//! Writers never block or allocate — recording is a handful of relaxed
//! atomic stores — and readers detect torn slots by re-reading the
//! version, so a dump taken while the service is under full load is
//! always internally consistent (it may simply miss the slots being
//! overwritten at that instant).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::event::{decode, encode, EventKind, RawEvent};

/// Words per slot payload (see [`RawEvent`]).
const WORDS: usize = 4;

struct Slot {
    /// Seqlock version: `2*seq + 1` while slot `seq` is being written,
    /// `2*seq + 2` once it is complete. Distinct claims produce distinct
    /// version pairs, so readers can always detect a concurrent rewrite.
    version: AtomicU64,
    data: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            version: AtomicU64::new(0),
            data: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One fixed-capacity, lock-free event ring.
///
/// Designed for a single logical writer (a worker thread) but safe under
/// several: each record claims a unique sequence number, and readers
/// discard slots whose version changed under them.
pub struct EventRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl EventRing {
    /// A ring holding the last `capacity` events (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        EventRing {
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Total events ever recorded (recorded − capacity have been
    /// overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one event. Wait-free: a claim, five relaxed stores, one
    /// release store.
    pub fn record(&self, raw: RawEvent) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        slot.version.store(2 * seq + 1, Ordering::Relaxed);
        for (w, &v) in slot.data.iter().zip(raw.iter()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.version.store(2 * seq + 2, Ordering::Release);
    }

    /// Snapshot every readable slot, oldest first. Torn slots (being
    /// rewritten during the read) are skipped.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RawEvent> {
        let mut out: Vec<(u64, RawEvent)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let mut raw = [0u64; WORDS];
            for (out_w, w) in raw.iter_mut().zip(slot.data.iter()) {
                *out_w = w.load(Ordering::Relaxed);
            }
            let v2 = slot.version.load(Ordering::Acquire);
            if v1 == v2 {
                out.push(((v1 - 2) / 2, raw)); // slot's sequence number
            }
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, raw)| raw).collect()
    }
}

/// One decoded, timestamped event in a dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Nanoseconds since the recorder started.
    pub t_nanos: u64,
    /// Which ring recorded it (0 = admission/submitters, `1 + i` =
    /// worker `i`).
    pub ring: usize,
    /// The request the event belongs to.
    pub request: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A merged, time-ordered snapshot of every ring.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// All decoded events, ordered by timestamp.
    pub events: Vec<TimedEvent>,
}

impl FlightDump {
    /// Number of events in the dump.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the dump holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events of one request, in time order.
    #[must_use]
    pub fn for_request(&self, request: u64) -> Vec<TimedEvent> {
        self.events
            .iter()
            .filter(|e| e.request == request)
            .copied()
            .collect()
    }

    /// The last `n` events across all rings.
    #[must_use]
    pub fn last(&self, n: usize) -> &[TimedEvent] {
        let start = self.events.len().saturating_sub(n);
        &self.events[start..]
    }

    /// Render events as a human-readable report, one line per event.
    #[must_use]
    pub fn render(&self, events: &[TimedEvent]) -> String {
        let mut s = String::new();
        for e in events {
            let ring = if e.ring == 0 {
                "submit".to_string()
            } else {
                format!("worker{}", e.ring - 1)
            };
            s.push_str(&format!(
                "[{:>12.6}s] {:<8} req#{:<6} {}\n",
                e.t_nanos as f64 / 1e9,
                ring,
                e.request,
                e.kind
            ));
        }
        s
    }

    /// A diagnostic report for one failed request: its own event trail
    /// plus the last `context` events across the whole service.
    #[must_use]
    pub fn incident_report(&self, request: u64, context: usize) -> String {
        let own = self.for_request(request);
        let mut s = format!(
            "flight recorder: request #{request} ({} events)\n",
            own.len()
        );
        s.push_str(&self.render(&own));
        let tail = self.last(context);
        s.push_str(&format!("last {} events across all rings:\n", tail.len()));
        s.push_str(&self.render(tail));
        s
    }
}

/// The flight recorder: a clock plus one [`EventRing`] per writer.
///
/// Ring 0 is conventionally the *admission* ring (written by submitter
/// threads); rings `1..` belong to workers. The recorder is shared
/// behind an `Arc`; recording is lock-free and dumping never blocks a
/// writer.
#[derive(Debug)]
pub struct FlightRecorder {
    start: Instant,
    rings: Vec<EventRing>,
}

impl FlightRecorder {
    /// A recorder with `rings` rings of `capacity` events each.
    #[must_use]
    pub fn new(rings: usize, capacity: usize) -> Self {
        FlightRecorder {
            start: Instant::now(),
            rings: (0..rings.max(1))
                .map(|_| EventRing::new(capacity))
                .collect(),
        }
    }

    /// Nanoseconds since the recorder started (the dump timebase).
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Number of rings.
    #[must_use]
    pub fn rings(&self) -> usize {
        self.rings.len()
    }

    /// Record `kind` for `request` on `ring` (clamped to the last ring).
    pub fn record(&self, ring: usize, request: u64, kind: EventKind) {
        self.record_at(ring, request, self.now_nanos(), kind);
    }

    /// [`record`](FlightRecorder::record) stamped with an earlier
    /// [`now_nanos`](FlightRecorder::now_nanos) reading: for an event
    /// whose moment has passed by the time it can be recorded (another
    /// thread may already have acted on it).
    pub fn record_at(&self, ring: usize, request: u64, t_nanos: u64, kind: EventKind) {
        let ring = &self.rings[ring.min(self.rings.len() - 1)];
        ring.record(encode(t_nanos, request, kind));
    }

    /// Total events ever recorded across rings.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(EventRing::recorded).sum()
    }

    /// Merge every ring into a time-ordered [`FlightDump`].
    #[must_use]
    pub fn dump(&self) -> FlightDump {
        let mut events = Vec::new();
        for (ri, ring) in self.rings.iter().enumerate() {
            for raw in ring.snapshot() {
                if let Some((t_nanos, request, kind)) = decode(&raw) {
                    events.push(TimedEvent {
                        t_nanos,
                        ring: ri,
                        request,
                        kind,
                    });
                }
            }
        }
        events.sort_by_key(|e| e.t_nanos);
        FlightDump { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RejectKind;

    #[test]
    fn ring_keeps_only_the_last_capacity_events() {
        let ring = EventRing::new(8);
        for i in 0..20u64 {
            ring.record(encode(i, i, EventKind::ExecuteEnd { executed: i }));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        // oldest surviving event is #12
        let (t, _, _) = decode(&snap[0]).unwrap();
        assert_eq!(t, 12);
        let (t, _, _) = decode(snap.last().unwrap()).unwrap();
        assert_eq!(t, 19);
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn recorder_merges_rings_in_time_order() {
        let rec = FlightRecorder::new(3, 16);
        rec.record(
            0,
            1,
            EventKind::Admitted {
                regime: 0,
                peephole: false,
            },
        );
        rec.record(2, 1, EventKind::ExecuteBegin);
        rec.record(1, 2, EventKind::CacheHit);
        rec.record(2, 1, EventKind::ExecuteEnd { executed: 5 });
        let dump = rec.dump();
        assert_eq!(dump.len(), 4);
        assert!(dump.events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos));
        let req1 = dump.for_request(1);
        assert_eq!(req1.len(), 3);
        assert_eq!(
            req1[0].kind,
            EventKind::Admitted {
                regime: 0,
                peephole: false
            }
        );
        assert_eq!(req1[2].kind, EventKind::ExecuteEnd { executed: 5 });
        // ring attribution survives the merge
        assert_eq!(req1[0].ring, 0);
        assert_eq!(req1[1].ring, 2);
    }

    #[test]
    fn dump_under_concurrent_writes_never_tears() {
        use std::sync::Arc;
        let rec = Arc::new(FlightRecorder::new(2, 32));
        let writer = {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for i in 0..50_000u64 {
                    // payload == request in every word-carrying field, so a
                    // torn read would decode to a mismatched pair
                    rec.record(1, i, EventKind::ExecuteEnd { executed: i });
                }
            })
        };
        let mut seen = 0usize;
        let mut check = |dump: FlightDump| {
            for e in &dump.events {
                if let EventKind::ExecuteEnd { executed } = e.kind {
                    assert_eq!(executed, e.request, "torn slot");
                    seen += 1;
                } else {
                    panic!("unexpected kind {:?}", e.kind);
                }
            }
        };
        // keep dumping for as long as the writer runs (it may not have
        // started yet), then once more after it has finished
        while !writer.is_finished() {
            check(rec.dump());
        }
        check(rec.dump());
        writer.join().unwrap();
        assert!(seen > 0, "reader observed nothing");
    }

    #[test]
    fn incident_report_names_the_request_and_context() {
        let rec = FlightRecorder::new(2, 16);
        rec.record(
            0,
            9,
            EventKind::Admitted {
                regime: 2,
                peephole: true,
            },
        );
        rec.record(1, 9, EventKind::CacheMiss);
        rec.record(
            1,
            9,
            EventKind::Rejected {
                reason: RejectKind::Deadline,
            },
        );
        rec.record(1, 4, EventKind::CacheHit);
        let dump = rec.dump();
        let report = dump.incident_report(9, 2);
        assert!(report.contains("request #9"));
        assert!(report.contains("admitted"));
        assert!(report.contains("rejected (Deadline)"));
        assert!(report.contains("last 2 events"));
    }
}
