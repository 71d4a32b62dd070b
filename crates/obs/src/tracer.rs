//! An [`ExecObserver`] that feeds the flight recorder.
//!
//! [`RingTracer`] records a heartbeat ([`EventKind::Progress`]) after
//! `interval` executed instructions and doubles the mark after each one
//! (at `interval`, `2·interval`, `4·interval`, …), so a dump taken after a
//! trap, cancellation, or hang shows what the run was doing — how far it
//! got and where its instruction pointer was — without paying a ring
//! write per instruction. A run leaves O(log n) heartbeats, so even a
//! long one cannot evict its own lifecycle events (admission, cache,
//! execute begin) from a bounded ring. Compose it with other observers
//! (a deadline enforcer, a counting regime) through the tuple
//! `ExecObserver` impl in `stackcache-vm`.

use stackcache_vm::{ExecEvent, ExecObserver};

use crate::event::EventKind;
use crate::ring::FlightRecorder;

/// Records geometrically spaced progress events for one request into
/// one ring.
#[derive(Debug)]
pub struct RingTracer<'a> {
    recorder: &'a FlightRecorder,
    ring: usize,
    request: u64,
    next: u64,
    executed: u64,
}

impl<'a> RingTracer<'a> {
    /// A tracer recording its first heartbeat after `interval`
    /// instructions (min 1) for `request` on `ring`, and each later one
    /// after twice as many instructions as the one before.
    #[must_use]
    pub fn new(recorder: &'a FlightRecorder, ring: usize, request: u64, interval: u64) -> Self {
        RingTracer {
            recorder,
            ring,
            request,
            next: interval.max(1),
            executed: 0,
        }
    }

    /// Instructions observed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }
}

impl ExecObserver for RingTracer<'_> {
    fn event(&mut self, ev: &ExecEvent) {
        self.executed += 1;
        if self.executed == self.next {
            self.next = self.next.saturating_mul(2);
            self.recorder.record(
                self.ring,
                self.request,
                EventKind::Progress {
                    executed: self.executed,
                    ip: ev.ip.min(u32::MAX as usize) as u32,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stackcache_vm::{exec, program_of, Inst, Machine};

    #[test]
    fn tracer_heartbeats_at_its_interval() {
        let rec = FlightRecorder::new(1, 64);
        let insts: Vec<Inst> = std::iter::repeat_n(Inst::Nop, 25).collect();
        let p = program_of(&insts);
        let mut m = Machine::with_memory(64);
        let mut tracer = RingTracer::new(&rec, 0, 7, 10);
        exec::run_with_observer(&p, &mut m, 1_000, &mut tracer).unwrap();
        assert_eq!(tracer.executed(), 26); // 25 nops + the appended halt
        let dump = rec.dump();
        let progress: Vec<_> = dump.for_request(7);
        assert_eq!(progress.len(), 2); // at 10 and 20
        assert!(matches!(
            progress[0].kind,
            EventKind::Progress { executed: 10, .. }
        ));
    }

    #[test]
    fn tracer_heartbeats_thin_out_geometrically() {
        let rec = FlightRecorder::new(1, 64);
        let insts: Vec<Inst> = std::iter::repeat_n(Inst::Nop, 999).collect();
        let p = program_of(&insts);
        let mut m = Machine::with_memory(64);
        let mut tracer = RingTracer::new(&rec, 0, 3, 4);
        exec::run_with_observer(&p, &mut m, 10_000, &mut tracer).unwrap();
        let marks: Vec<u64> = rec
            .dump()
            .for_request(3)
            .iter()
            .map(|e| match e.kind {
                EventKind::Progress { executed, .. } => executed,
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(marks, [4, 8, 16, 32, 64, 128, 256, 512]);
    }

    #[test]
    fn tracer_composes_with_another_observer() {
        struct CountOnly(u64);
        impl ExecObserver for CountOnly {
            fn event(&mut self, _ev: &ExecEvent) {
                self.0 += 1;
            }
        }
        let rec = FlightRecorder::new(1, 16);
        let p = program_of(&[Inst::Lit(1), Inst::Lit(2), Inst::Add, Inst::Halt]);
        let mut m = Machine::with_memory(64);
        let mut obs = (CountOnly(0), RingTracer::new(&rec, 0, 1, 2));
        exec::run_with_observer(&p, &mut m, 1_000, &mut obs).unwrap();
        assert_eq!(obs.0 .0, 4);
        assert_eq!(obs.1.executed(), 4);
        assert_eq!(rec.dump().for_request(1).len(), 2); // at 2 and 4
    }
}
