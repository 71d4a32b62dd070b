//! The worker loop: dequeue a job, resolve its verified artifact through
//! the shared cache, admit it at the strongest checks level its safety
//! proof covers, execute it on a fresh machine, classify the result, and
//! answer the submitter's ticket.
//!
//! A job is one *admission unit*: a single request, or a batch admitted
//! together. Every path out of an item answers its reply sink exactly
//! once: admission checks reject expired deadlines and aborted-service
//! jobs without executing; fuel exhaustion and cancellation become
//! structured [`Rejection`]s; everything else — clean halts *and* runtime
//! traps — is a [`Completion`] carrying the captured [`Outcome`].
//!
//! Batch execution amortizes the proto-machine clone: the first item of a
//! job allocates a scratch [`Machine`] by cloning its prototype, and every
//! later item *resets* that scratch in place
//! ([`Machine::reset_from`]) — same bytes, no allocation. The
//! `proto_clones` / `proto_clones_saved` metrics count the two paths.
//!
//! When the service runs with tracing, each step also drops an event
//! into the worker's flight-recorder ring, and every failure path
//! (trap, cancellation, deadline rejection) files an incident report —
//! the failed request's event trail plus the service-wide tail — before
//! answering the ticket.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use stackcache_analysis::Verdict;
use stackcache_harness::Outcome;
use stackcache_obs::{
    node_label, CancelKind, EventKind, FlightRecorder, RejectKind, RingTracer, SpanIdGen, SpanKind,
    SpanRecord, SpanRing,
};
use stackcache_vm::{ExecEvent, ExecObserver, Machine, VmError};

use crate::cache::{Lookup, ProgramCache};
use crate::coalesce::CoalesceMap;
use crate::deadline::{CancelCause, DeadlineObserver};
use crate::health::{WorkerHealth, DEFAULT_PULSE_INSTRUCTIONS};
use crate::metrics::Metrics;
use crate::queue::Bounded;
use crate::{Completion, Rejection, Reply, ReplyRoute, Request};

/// Where an item's eventual [`Reply`] goes.
pub(crate) enum ReplySink {
    /// A private channel consumed by one [`Ticket`](crate::Ticket).
    Direct(mpsc::Sender<Reply>),
    /// A shared route that fans many requests' replies into one consumer
    /// (a network connection's writer, for example), tagged by the
    /// caller's correlation token.
    Routed {
        token: u64,
        route: Arc<dyn ReplyRoute>,
    },
}

impl fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplySink::Direct(_) => f.write_str("ReplySink::Direct"),
            ReplySink::Routed { token, .. } => write!(f, "ReplySink::Routed({token})"),
        }
    }
}

impl ReplySink {
    /// Deliver a reply under the given request id. Coalesced waiters are
    /// delivered under their *leader's* id, so the reply bodies a network
    /// front end encodes are byte-identical across the fanout.
    pub(crate) fn deliver(self, request_id: u64, reply: Reply) {
        match self {
            // the submitter may have dropped its ticket (or hung up its
            // connection); that is its right
            ReplySink::Direct(tx) => {
                let _ = tx.send(reply);
            }
            ReplySink::Routed { token, route } => route.deliver(token, request_id, reply),
        }
    }
}

/// One accepted request inside a job.
#[derive(Debug)]
pub(crate) struct JobItem {
    /// The service-assigned request id (flight-recorder correlation key).
    pub(crate) id: u64,
    pub(crate) request: Request,
    /// Absolute deadline, resolved at submission.
    pub(crate) deadline: Option<Instant>,
    pub(crate) sink: ReplySink,
    /// The coalesce key this item leads, when the service coalesces:
    /// its reply fans out to the key's waiter list.
    pub(crate) coalesce: Option<u64>,
}

impl JobItem {
    /// Answer this item — and, when it leads a coalesce key, every
    /// waiter that joined it — with one reply. The waiter list is taken
    /// *before* anyone is answered, so a racing identical submission
    /// either joins in time to be fanned out here or finds the key
    /// vacant and executes as a fresh leader.
    fn finish(self, shared: &Shared, ring: usize, mut reply: Reply) {
        let leader = self.id;
        let waiters = match (&shared.coalesce, self.coalesce) {
            (Some(co), Some(key)) => co.take_waiters(key, leader),
            _ => Vec::new(),
        };
        if !waiters.is_empty() {
            shared.metrics.on_coalesce_saved(waiters.len() as u64);
            shared.trace(
                ring,
                leader,
                EventKind::CoalesceFanout {
                    waiters: waiters.len().min(u32::MAX as usize) as u32,
                },
            );
            // A coalesced fanout is one of the proxy's tail-sampling
            // triggers: the exec span's attr carries the waiter count,
            // so every reply in the fanout is marked.
            if let Reply::Completed(c) = &mut reply {
                if let Some(exec) = c.spans.iter_mut().find(|s| s.kind == SpanKind::Exec) {
                    exec.attr = waiters.len() as u64;
                }
            }
            for w in waiters {
                w.sink.deliver(leader, reply.clone());
            }
        }
        self.sink.deliver(leader, reply);
    }

    /// Answer without executing (service shutdown/abort).
    fn refuse(self, shared: &Shared, ring: usize) {
        shared.metrics.on_shutdown_rejection();
        self.finish(shared, ring, Reply::Rejected(Rejection::ShutDown));
    }
}

/// An admission unit on its way through the queue: one request, or a
/// batch admitted together and executed on one scratch machine.
#[derive(Debug)]
pub(crate) struct Job {
    /// When the job entered the queue.
    pub(crate) submitted: Instant,
    pub(crate) items: Vec<JobItem>,
}

impl Job {
    /// Answer every item without executing (service shutdown/abort).
    /// Ring 0 (the submitter ring) takes the trace events: no worker
    /// ever dequeued this job.
    pub(crate) fn refuse(self, shared: &Shared) {
        for item in self.items {
            item.refuse(shared, 0);
        }
    }
}

/// Flight-recorder state, present only on a traced service.
#[derive(Debug)]
pub(crate) struct Tracing {
    pub(crate) recorder: Arc<FlightRecorder>,
    /// Events of service-wide context attached to each incident report.
    pub(crate) dump_last: usize,
    /// Instructions between mid-run progress heartbeats.
    pub(crate) progress_interval: u64,
    /// The most recent incident reports, oldest first, bounded.
    pub(crate) incidents: Mutex<VecDeque<String>>,
}

/// Incident reports retained before the oldest is dropped.
pub(crate) const MAX_INCIDENTS: usize = 32;

impl Tracing {
    fn file_incident(&self, request: u64, context: &str) {
        let report = format!(
            "incident: {context}\n{}",
            self.recorder
                .dump()
                .incident_report(request, self.dump_last)
        );
        let mut q = self.incidents.lock().expect("incident lock");
        if q.len() == MAX_INCIDENTS {
            q.pop_front();
        }
        q.push_back(report);
    }
}

/// Distributed-trace span state: one seqlock ring per worker (plus ring
/// 0 for submitters, mirroring the flight recorder's layout), a span-id
/// generator salted by the node label, and the epoch every timestamp is
/// measured against. Always present — a request without a
/// [`TraceContext`](crate::TraceContext) never touches it past one
/// `Option` check.
#[derive(Debug)]
pub(crate) struct SpanState {
    pub(crate) epoch: Instant,
    pub(crate) node: [u8; 8],
    pub(crate) ids: SpanIdGen,
    rings: Vec<SpanRing>,
}

impl SpanState {
    pub(crate) fn new(node: &str, workers: usize, capacity: usize) -> Self {
        SpanState {
            epoch: Instant::now(),
            node: node_label(node),
            ids: SpanIdGen::new(node),
            rings: (0..=workers).map(|_| SpanRing::new(capacity)).collect(),
        }
    }

    /// Nanoseconds since the service epoch (monotone, skew is the
    /// assembler's problem — it orders by parent links, not clocks).
    pub(crate) fn nanos(&self, at: Instant) -> u64 {
        let n = at.saturating_duration_since(self.epoch).as_nanos();
        n.min(u128::from(u64::MAX)) as u64
    }

    fn record(&self, ring: usize, span: &SpanRecord) {
        if let Some(r) = self.rings.get(ring) {
            r.record(span);
        }
    }

    /// Every live span across all rings (the `span_dump` payload).
    pub(crate) fn snapshot_all(&self) -> Vec<SpanRecord> {
        self.rings.iter().flat_map(SpanRing::snapshot).collect()
    }
}

/// Shared state every worker thread runs against.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) queue: Bounded<Job>,
    pub(crate) cache: ProgramCache,
    pub(crate) metrics: Metrics,
    pub(crate) health: WorkerHealth,
    pub(crate) abort: Arc<AtomicBool>,
    pub(crate) next_request: AtomicU64,
    pub(crate) tracing: Option<Tracing>,
    pub(crate) spans: SpanState,
    /// The in-flight coalescing registry; `None` when coalescing is off
    /// (the default), in which case admission never touches it.
    pub(crate) coalesce: Option<CoalesceMap>,
}

impl Shared {
    /// Record `kind` for `request` on `ring` if tracing is on.
    pub(crate) fn trace(&self, ring: usize, request: u64, kind: EventKind) {
        if let Some(t) = &self.tracing {
            t.recorder.record(ring, request, kind);
        }
    }

    /// The flight recorder's clock (0 when tracing is off), for
    /// [`trace_at`](Shared::trace_at).
    pub(crate) fn trace_clock(&self) -> u64 {
        self.tracing.as_ref().map_or(0, |t| t.recorder.now_nanos())
    }

    /// [`trace`](Shared::trace) stamped with an earlier
    /// [`trace_clock`](Shared::trace_clock) reading.
    pub(crate) fn trace_at(&self, ring: usize, request: u64, t_nanos: u64, kind: EventKind) {
        if let Some(t) = &self.tracing {
            t.recorder.record_at(ring, request, t_nanos, kind);
        }
    }
}

/// Largest proven fuel bound the deadline-elision path accepts: a bound
/// this small is microseconds of dispatch, far below any plausible
/// deadline, so skipping the timer cannot turn a late answer into a
/// never-cancelled one.
pub(crate) const FUEL_ELISION_MAX: u64 = 1 << 16;

/// A stable diagnostic code for each trap kind (flight-recorder payload).
fn trap_code(err: &VmError) -> u8 {
    match err {
        VmError::StackUnderflow { .. } => 1,
        VmError::StackOverflow { .. } => 2,
        VmError::ReturnStackUnderflow { .. } => 3,
        VmError::ReturnStackOverflow { .. } => 4,
        VmError::MemoryOutOfBounds { .. } => 5,
        VmError::DivisionByZero { .. } => 6,
        VmError::PickOutOfRange { .. } => 7,
        VmError::InvalidExecutionToken { .. } => 8,
        VmError::InstructionOutOfBounds { .. } => 9,
        VmError::FuelExhausted { .. } => 10,
        VmError::Cancelled { .. } => 11,
    }
}

/// Mirrors the flight recorder's `Progress` heartbeat into the worker's
/// liveness slot: one beat every `interval` executed instructions, so
/// the stall detector sees the same cadence the incident dumps show.
struct Pulse<'a> {
    health: &'a WorkerHealth,
    worker: usize,
    interval: u64,
    executed: u64,
}

impl<'a> Pulse<'a> {
    fn new(health: &'a WorkerHealth, worker: usize, interval: u64) -> Self {
        Pulse {
            health,
            worker,
            interval: interval.max(1),
            executed: 0,
        }
    }
}

impl ExecObserver for Pulse<'_> {
    fn event(&mut self, _ev: &ExecEvent) {
        self.executed += 1;
        if self.executed.is_multiple_of(self.interval) {
            self.health.beat(self.worker);
        }
    }
}

/// Pop and serve jobs until the queue is closed and drained. `ring` is
/// this worker's flight-recorder ring (worker index + 1; ring 0 belongs
/// to submitters).
pub(crate) fn worker_loop(shared: &Shared, ring: usize) {
    let worker = ring - 1;
    while let Some(job) = shared.queue.pop() {
        shared.health.begin(worker);
        serve(shared, ring, worker, job);
        shared.health.finish(worker);
    }
}

/// Serve every item of one job, reusing a single scratch machine across
/// the batch (one allocation-clone, then in-place resets).
fn serve(shared: &Shared, ring: usize, worker: usize, job: Job) {
    let Job { submitted, items } = job;
    if items.len() > 1 {
        let first = items.first().map_or(0, |i| i.id);
        shared.trace(
            ring,
            first,
            EventKind::BatchBegin {
                size: items.len().min(u32::MAX as usize) as u32,
            },
        );
    }
    let mut scratch: Option<Machine> = None;
    for item in items {
        serve_item(shared, ring, worker, submitted, item, &mut scratch);
    }
}

#[allow(clippy::too_many_lines)]
fn serve_item(
    shared: &Shared,
    ring: usize,
    worker: usize,
    submitted: Instant,
    item: JobItem,
    scratch: &mut Option<Machine>,
) {
    let regime = item.request.regime;
    let id = item.id;
    let dequeued_at = Instant::now();
    let queue_wait = dequeued_at.saturating_duration_since(submitted);
    shared.trace(
        ring,
        id,
        EventKind::Dequeued {
            wait_nanos: queue_wait.as_nanos().min(u128::from(u64::MAX)) as u64,
        },
    );
    if shared.abort.load(Ordering::Relaxed) {
        shared.trace(
            ring,
            id,
            EventKind::Rejected {
                reason: RejectKind::Shutdown,
            },
        );
        item.refuse(shared, ring);
        return;
    }
    if let Some(d) = item.deadline {
        if Instant::now() >= d {
            shared.metrics.on_deadline_expired(regime);
            shared.trace(
                ring,
                id,
                EventKind::Rejected {
                    reason: RejectKind::Deadline,
                },
            );
            if let Some(t) = &shared.tracing {
                t.file_incident(id, "deadline expired in queue");
            }
            item.finish(shared, ring, Reply::Rejected(Rejection::DeadlineExpired));
            return;
        }
    }

    let lookup_start = Instant::now();
    let (verified, lookup) = shared.cache.get_or_compile_with_plan(
        &item.request.program,
        regime,
        item.request.peephole,
        Some(&item.request.proto),
        item.request.fusion_plan.as_deref(),
    );
    let cache_end = Instant::now();
    let cache_hit = lookup == Lookup::Hit;
    if cache_hit {
        shared.metrics.on_cache_hit(regime);
        shared.trace(ring, id, EventKind::CacheHit);
    } else {
        shared.metrics.on_cache_miss(regime);
        shared.trace(ring, id, EventKind::CacheMiss);
        shared.trace(
            ring,
            id,
            EventKind::Translate {
                nanos: cache_end
                    .saturating_duration_since(lookup_start)
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64,
            },
        );
    }

    // Admission gate: a program the analyzer proved to underflow, asked
    // to run on a stack too shallow to possibly cover its demand, is
    // refused with the analyzer's diagnostic instead of executed to its
    // guaranteed trap. Everything else runs at the strongest checks
    // level the proof admits for this request's machine.
    let proof = verified.proof();
    if proof.verdict == Verdict::Rejected
        && (item.request.proto.stack().len() as i64) < proof.data_needed
    {
        shared.metrics.on_analysis_rejected(regime);
        shared.trace(
            ring,
            id,
            EventKind::Rejected {
                reason: RejectKind::Analysis,
            },
        );
        let diagnostic = proof.diagnostics.first().map_or_else(
            || "definite stack underflow".to_string(),
            ToString::to_string,
        );
        if let Some(t) = &shared.tracing {
            t.file_incident(id, &format!("analysis rejected: {diagnostic}"));
        }
        item.finish(
            shared,
            ring,
            Reply::Rejected(Rejection::AnalysisRejected { diagnostic }),
        );
        return;
    }
    let checks = proof.admit(&item.request.proto);
    shared.metrics.on_admitted(checks);
    let artifact = verified.artifact();

    // A proven-total program whose fuel bound fits inside this request's
    // fuel budget cannot outlive any deadline by more than the bound's
    // worth of dispatches: elide the mid-run deadline timer and let the
    // bound stand in for it (the abort flag still cancels, and the
    // at-dequeue expiry check above already ran).
    let deadline = match (item.deadline, proof.fuel_bound.finite()) {
        (Some(_), Some(b))
            if u64::try_from(b).is_ok_and(|b| b <= item.request.fuel && b <= FUEL_ELISION_MAX) =>
        {
            shared.metrics.on_fuel_proof();
            None
        }
        (d, _) => d,
    };

    // One allocation-clone per job; later items reset the scratch machine
    // in place (the batch amortization the metrics make visible).
    let machine = match scratch {
        Some(m) => {
            m.reset_from(&item.request.proto);
            shared.metrics.on_proto_clone_saved();
            m
        }
        None => {
            shared.metrics.on_proto_clone();
            scratch.insert((*item.request.proto).clone())
        }
    };
    let mut observer = DeadlineObserver::new(deadline, Arc::clone(&shared.abort));
    shared.trace(ring, id, EventKind::ExecuteBegin);
    let start = Instant::now();
    let pulse_interval = shared
        .tracing
        .as_ref()
        .map_or(DEFAULT_PULSE_INSTRUCTIONS, |t| t.progress_interval);
    let result = match &shared.tracing {
        // under tracing, the cancellable (reference) engine also carries a
        // heartbeat tracer; the other engines dispatch no observer events,
        // so the tuple would be dead weight there
        Some(t) if regime.cancellable() => {
            let tracer = RingTracer::new(&t.recorder, ring, id, t.progress_interval);
            let pulse = Pulse::new(&shared.health, worker, pulse_interval);
            let mut obs = (&mut observer, (tracer, pulse));
            artifact.run_observed_with_checks(machine, item.request.fuel, &mut obs, checks)
        }
        None if regime.cancellable() => {
            let pulse = Pulse::new(&shared.health, worker, pulse_interval);
            let mut obs = (&mut observer, pulse);
            artifact.run_observed_with_checks(machine, item.request.fuel, &mut obs, checks)
        }
        _ => artifact.run_observed_with_checks(machine, item.request.fuel, &mut observer, checks),
    };
    let latency = start.elapsed();

    match result {
        Err(VmError::FuelExhausted { .. }) => {
            shared.metrics.on_fuel_exhausted(regime);
            shared.trace(
                ring,
                id,
                EventKind::Rejected {
                    reason: RejectKind::Fuel,
                },
            );
            if let Some(t) = &shared.tracing {
                t.file_incident(id, "fuel exhausted");
            }
            item.finish(shared, ring, Reply::Rejected(Rejection::FuelExhausted));
        }
        Err(VmError::Cancelled { .. }) => {
            if observer.cause() == Some(CancelCause::Abort) {
                shared.trace(
                    ring,
                    id,
                    EventKind::Cancelled {
                        cause: CancelKind::Abort,
                    },
                );
                item.refuse(shared, ring);
            } else {
                shared.metrics.on_deadline_expired(regime);
                shared.trace(
                    ring,
                    id,
                    EventKind::Cancelled {
                        cause: CancelKind::Deadline,
                    },
                );
                if let Some(t) = &shared.tracing {
                    t.file_incident(id, "deadline expired mid-run");
                }
                item.finish(shared, ring, Reply::Rejected(Rejection::DeadlineExpired));
            }
        }
        other => {
            let trapped = other.is_err();
            match &other {
                Ok(executed) => {
                    shared.trace(
                        ring,
                        id,
                        EventKind::ExecuteEnd {
                            executed: *executed,
                        },
                    );
                }
                Err(e) => {
                    shared.trace(ring, id, EventKind::Trap { code: trap_code(e) });
                    if let Some(t) = &shared.tracing {
                        t.file_incident(id, &format!("runtime trap: {e}"));
                    }
                }
            }
            let outcome = Outcome::capture(machine, other);
            shared
                .metrics
                .on_completed(regime, trapped, queue_wait, latency, checks);
            // Per-stage spans, built only for requests that carry a trace
            // context. All four are siblings under the caller's parent
            // span; the assembler orders them by start time.
            let mut spans = Vec::new();
            if let Some(ctx) = item.request.trace {
                let sp = &shared.spans;
                let mk = |kind, s: Instant, e: Instant, attr| SpanRecord {
                    trace_id: ctx.trace_id,
                    span_id: sp.ids.next_id(),
                    parent_span_id: ctx.parent_span_id,
                    kind,
                    start_nanos: sp.nanos(s),
                    end_nanos: sp.nanos(e),
                    node: sp.node,
                    attr,
                    request: id,
                };
                spans.push(mk(SpanKind::Queue, submitted, dequeued_at, 0));
                spans.push(mk(
                    SpanKind::Cache,
                    lookup_start,
                    cache_end,
                    u64::from(cache_hit),
                ));
                spans.push(mk(SpanKind::Admit, cache_end, start, 0));
                spans.push(mk(SpanKind::Exec, start, start + latency, 0));
                for s in &spans {
                    sp.record(ring, s);
                }
            }
            item.finish(
                shared,
                ring,
                Reply::Completed(Completion {
                    outcome,
                    cache_hit,
                    latency,
                    queue_wait,
                    spans,
                }),
            );
        }
    }
}
