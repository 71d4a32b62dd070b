//! A multi-threaded execution service over the stack-caching engines.
//!
//! The paper's static method trades compile time for run time; that trade
//! only pays when a translation is reused. This crate supplies the reuse:
//! a [`Service`] owns a pool of worker threads (one per core by default)
//! fed from a bounded job queue, and a sharded cache of
//! [`CompiledArtifact`](stackcache_core::CompiledArtifact)s keyed by
//! `(program, regime, peephole)` — so static stack-cache codegen runs
//! once per program, not once per request.
//!
//! The serving-layer mechanics around it:
//!
//! * **admission control** — a full queue rejects
//!   ([`SubmitError::QueueFull`]) instead of blocking or dropping; the
//!   submitter owns the retry policy;
//! * **deadlines and fuel** — every request carries an instruction budget,
//!   and optionally a wall-clock deadline enforced at dequeue and (on the
//!   cancellable reference engine) mid-run through the
//!   [`poll_cancel`](stackcache_vm::ExecObserver::poll_cancel) hook; both
//!   produce structured [`Rejection`]s, never panics;
//! * **graceful shutdown** — [`Service::shutdown`] drains every accepted
//!   job before joining the pool; [`Service::abort`] answers pending jobs
//!   with [`Rejection::ShutDown`] and cancels cancellable in-flight runs;
//! * **metrics** — atomic counters and power-of-two latency histograms
//!   per regime, snapshotted as p50/p90/p99 via [`Service::metrics`];
//! * **verified fast path** — filling a cache entry also runs the
//!   whole-program abstract interpreter, so every cached translation
//!   carries a safety proof; proven programs execute with depth checks
//!   elided, and a program the analyzer proved to underflow is refused
//!   with a structured [`Rejection::AnalysisRejected`] carrying the
//!   offending instruction and witness path;
//! * **stall detection** — progress heartbeats feed per-worker liveness
//!   slots; a busy worker that misses N heartbeats is flagged in the
//!   metrics snapshot and on the Prometheus page.
//!
//! ```
//! use std::sync::Arc;
//! use stackcache_core::EngineRegime;
//! use stackcache_svc::{Reply, Request, Service, ServiceConfig};
//! use stackcache_vm::{program_of, Inst, Machine};
//!
//! let svc = Service::start(ServiceConfig::default());
//! let program = Arc::new(program_of(&[
//!     Inst::Lit(6),
//!     Inst::Dup,
//!     Inst::Mul,
//!     Inst::Dot,
//!     Inst::Halt,
//! ]));
//! let ticket = svc
//!     .submit(Request::new(program, EngineRegime::Static(2)).fuel(1_000))
//!     .expect("admitted");
//! match ticket.wait() {
//!     Reply::Completed(c) => assert_eq!(c.outcome.output, b"36 "),
//!     Reply::Rejected(r) => panic!("rejected: {r:?}"),
//! }
//! svc.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod coalesce;
pub mod deadline;
pub mod expose;
pub mod health;
pub mod metrics;
pub mod queue;
mod worker;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use stackcache_core::EngineRegime;
use stackcache_harness::{Outcome, MEMORY_BYTES};
use stackcache_obs::{EventKind, FlightDump, FlightRecorder, SpanRecord};
use stackcache_vm::{FusionPlan, Machine, Program};

use crate::cache::ProgramCache;
use crate::coalesce::{CoalesceMap, Waiter};
use crate::health::WorkerHealth;
use crate::metrics::Metrics;
use crate::queue::{Bounded, PushError};
use crate::worker::{worker_loop, Job, JobItem, ReplySink, Shared, SpanState, Tracing};

pub use crate::cache::{CacheStats, UpgradeStats, VerifiedArtifact};
pub use crate::health::WorkerSnapshot;
pub use crate::metrics::{MetricsSnapshot, RegimeSnapshot};

/// Wire-propagated distributed-trace context: which trace a request
/// belongs to and which remote span is its parent. A request carrying
/// one has per-stage [`SpanRecord`]s built for it and attached to its
/// [`Completion`]; a request without one pays nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace id, stamped at the cluster ingress.
    pub trace_id: u64,
    /// The span id the caller opened for this request (the parent of
    /// every span this service emits for it). 0 means "root here".
    pub parent_span_id: u64,
}

/// One execution request: a program, the machine state to start from, and
/// the execution configuration and limits.
#[derive(Debug, Clone)]
pub struct Request {
    /// The program to execute.
    pub program: Arc<Program>,
    /// Prototype machine each run starts from a clone of.
    pub proto: Arc<Machine>,
    /// Which engine runs it.
    pub regime: EngineRegime,
    /// Peephole-optimize before translation.
    pub peephole: bool,
    /// Instruction budget; exhausting it rejects the request with
    /// [`Rejection::FuelExhausted`].
    pub fuel: u64,
    /// Wall-clock budget, measured from submission; `None` means
    /// fuel-bounded only.
    pub deadline: Option<Duration>,
    /// Superinstruction plan for the fused/quickened regimes; `None`
    /// means the deterministic static-default plan. Ignored by the
    /// other regimes. Distinct plans translate (and cache) separately.
    pub fusion_plan: Option<Arc<FusionPlan>>,
    /// Distributed-trace context; `None` (the default) emits no spans.
    pub trace: Option<TraceContext>,
}

impl Request {
    /// A request with the service defaults: a fresh machine with the
    /// harness's standard memory size, no peephole, a generous fuel
    /// budget, no deadline.
    #[must_use]
    pub fn new(program: Arc<Program>, regime: EngineRegime) -> Self {
        Request {
            program,
            proto: Arc::new(Machine::with_memory(MEMORY_BYTES)),
            regime,
            peephole: false,
            fuel: 1_000_000_000,
            deadline: None,
            fusion_plan: None,
            trace: None,
        }
    }

    /// Start each run from a clone of `proto` instead of a fresh machine.
    #[must_use]
    pub fn on(mut self, proto: Arc<Machine>) -> Self {
        self.proto = proto;
        self
    }

    /// Peephole-optimize the program before translation.
    #[must_use]
    pub fn peephole(mut self, on: bool) -> Self {
        self.peephole = on;
        self
    }

    /// Set the instruction budget.
    #[must_use]
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Set a wall-clock deadline, measured from submission.
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Run the fused/quickened regimes under this profile-guided plan
    /// instead of the static default.
    #[must_use]
    pub fn fusion_plan(mut self, plan: Arc<FusionPlan>) -> Self {
        self.fusion_plan = Some(plan);
        self
    }

    /// Attach a distributed-trace context: the service will emit
    /// per-stage spans for this request, parented to `parent_span_id`
    /// in trace `trace_id`, and attach them to the [`Completion`].
    #[must_use]
    pub fn trace_context(mut self, trace_id: u64, parent_span_id: u64) -> Self {
        self.trace = Some(TraceContext {
            trace_id,
            parent_span_id,
        });
        self
    }
}

/// A request that ran to an outcome.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Everything observable about the run (stacks, memory, output, trap).
    pub outcome: Outcome,
    /// Whether the compiled artifact came from the cache.
    pub cache_hit: bool,
    /// Wall-clock execution time (excluding queueing).
    pub latency: Duration,
    /// Time the request waited in the queue before a worker took it.
    pub queue_wait: Duration,
    /// Per-stage spans (queue, cache, admit, exec) when the request
    /// carried a [`TraceContext`]; empty otherwise. Timestamps are on
    /// this process's clock.
    pub spans: Vec<SpanRecord>,
}

/// Why a request was refused without a (full) execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The wall-clock deadline passed before or during execution.
    DeadlineExpired,
    /// The instruction budget ran out.
    FuelExhausted,
    /// The service shut down before the request could run.
    ShutDown,
    /// The abstract interpreter proved the program underflows and the
    /// request's preset stack cannot cover its demand; refused at
    /// admission instead of executed to its guaranteed trap.
    AnalysisRejected {
        /// The analyzer's finding: offending instruction, containing
        /// word, and a witness path.
        diagnostic: String,
    },
}

/// The service's answer to one request.
#[derive(Debug, Clone)]
pub enum Reply {
    /// The program ran to an outcome — a clean halt *or* a runtime trap;
    /// traps are outcomes, not service errors.
    Completed(Completion),
    /// The request was refused; no outcome exists.
    Rejected(Rejection),
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry later (backpressure).
    QueueFull,
    /// The service is shutting down; no further work is accepted.
    ShuttingDown,
}

/// Where routed replies go: implementors fan many requests' replies into
/// one consumer — a network connection's writer thread, for example —
/// instead of one channel per request.
///
/// Registered per request via [`Service::submit_routed`] (or per batch
/// via [`Service::submit_batch_routed`]) together with a caller-chosen
/// correlation `token`; the service calls [`deliver`](ReplyRoute::deliver)
/// exactly once per admitted request, from a worker thread, in completion
/// order (which under pipelining need not be submission order).
pub trait ReplyRoute: Send + Sync {
    /// Deliver the reply for the request registered under `token`.
    /// `request_id` is the service-assigned id — the flight-recorder
    /// correlation key, which a network front end echoes to its client.
    fn deliver(&self, token: u64, request_id: u64, reply: Reply);
}

/// A handle to one submitted request's eventual [`Reply`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Reply>,
    request_id: u64,
}

impl Ticket {
    /// The service-assigned request id — the correlation key for this
    /// request's flight-recorder events and incident reports.
    #[must_use]
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Block until the service answers.
    #[must_use]
    pub fn wait(self) -> Reply {
        // a worker answers every accepted job; an abort that races the
        // pool teardown still refuses the job before dropping it
        self.rx
            .recv()
            .unwrap_or(Reply::Rejected(Rejection::ShutDown))
    }

    /// The reply, if it has already arrived.
    #[must_use]
    pub fn try_wait(&self) -> Option<Reply> {
        self.rx.try_recv().ok()
    }
}

/// Flight-recorder sizing for a traced service.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Events each per-worker ring retains (oldest overwritten first).
    pub ring_capacity: usize,
    /// Service-wide context events attached to each incident report.
    pub dump_last: usize,
    /// Instructions before the first mid-run progress heartbeat on the
    /// cancellable reference engine; each later heartbeat comes after
    /// twice as many as the one before. The stall detector's pulse
    /// keeps this as its fixed period.
    pub progress_interval: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 256,
            dump_last: 32,
            progress_interval: 4096,
        }
    }
}

/// Service sizing.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. Defaults to one per core.
    pub workers: usize,
    /// Maximum jobs waiting in the queue (admission control bound).
    pub queue_capacity: usize,
    /// Independently locked partitions of the compiled-program cache.
    pub cache_shards: usize,
    /// Maximum compiled artifacts cached across shards (second-chance
    /// eviction beyond that).
    pub cache_capacity: usize,
    /// Run with the flight recorder on; `None` (the default) records
    /// nothing and adds nothing to the hot path.
    pub trace: Option<TraceConfig>,
    /// Nominal interval between worker heartbeats for the stall
    /// detector. Workers beat at dequeue, execute-begin, every mid-run
    /// progress pulse, and completion.
    pub heartbeat_period: Duration,
    /// Heartbeats a busy worker may miss before it is flagged stalled in
    /// the metrics snapshot and on the Prometheus page.
    pub stall_beats: u32,
    /// Coalesce identical in-flight submissions: a request whose
    /// [`coalesce::coalesce_key`] matches one already executing joins
    /// its waiter list instead of entering the queue, and the one
    /// result fans out to every waiter. Off by default — coalescing
    /// changes execution counts, which deterministic benches assert on.
    pub coalesce: bool,
    /// Node label stamped on every distributed-trace span this service
    /// emits (and salting its span-id generator, so two nodes never
    /// collide). A network front end sets this to its node name.
    pub node: String,
    /// Spans each per-worker span ring retains (oldest overwritten
    /// first); the rings exist regardless, but only traced requests
    /// write to them.
    pub span_ring_capacity: usize,
    /// Run the background re-admission pass every so often: cached
    /// artifacts the quick admission-path analysis could only *guard*
    /// are re-analyzed under the deep budget, and the ones it proves are
    /// atomically upgraded to the unchecked tier. `None` (the default)
    /// runs no background pass; [`Service::upgrade_pass`] is always
    /// available for a synchronous sweep.
    pub upgrade_interval: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        ServiceConfig {
            workers,
            queue_capacity: workers * 64,
            cache_shards: 16,
            cache_capacity: cache::DEFAULT_CAPACITY,
            trace: None,
            heartbeat_period: Duration::from_millis(250),
            stall_beats: 4,
            coalesce: false,
            node: "svc".to_string(),
            span_ring_capacity: 256,
            upgrade_interval: None,
        }
    }
}

impl ServiceConfig {
    /// This configuration with default tracing switched on.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.trace = Some(TraceConfig::default());
        self
    }

    /// This configuration with in-flight request coalescing switched on.
    #[must_use]
    pub fn coalescing(mut self) -> Self {
        self.coalesce = true;
        self
    }

    /// This configuration with the given span node label.
    #[must_use]
    pub fn node(mut self, label: &str) -> Self {
        self.node = label.to_string();
        self
    }

    /// This configuration with the background re-admission pass running
    /// every `interval`.
    #[must_use]
    pub fn upgrade_every(mut self, interval: Duration) -> Self {
        self.upgrade_interval = Some(interval);
        self
    }
}

/// The execution service: a worker pool over a bounded queue, a shared
/// compiled-program cache, and a metrics registry.
///
/// Dropping the service performs a graceful [`shutdown`](Service::shutdown)
/// if one hasn't happened yet.
#[derive(Debug)]
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    upgrader: Option<Upgrader>,
}

/// The background re-admission thread and its stop latch.
#[derive(Debug)]
struct Upgrader {
    handle: thread::JoinHandle<()>,
    stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Service {
    /// Start the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero (a service that can never
    /// answer) or a worker thread cannot be spawned.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        assert!(config.workers > 0, "at least one worker");
        let tracing = config.trace.map(|t| Tracing {
            // ring 0 takes submitter-side events; ring 1 + i is worker i's
            recorder: Arc::new(FlightRecorder::new(config.workers + 1, t.ring_capacity)),
            dump_last: t.dump_last,
            progress_interval: t.progress_interval,
            incidents: Mutex::new(VecDeque::new()),
        });
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            cache: ProgramCache::with_capacity(config.cache_shards, config.cache_capacity),
            metrics: Metrics::new(),
            health: WorkerHealth::new(config.workers, config.heartbeat_period, config.stall_beats),
            abort: Arc::new(AtomicBool::new(false)),
            // ids start at 1: the network front end reserves id 0 for
            // replies that never reached the service
            next_request: AtomicU64::new(1),
            tracing,
            spans: SpanState::new(&config.node, config.workers, config.span_ring_capacity),
            coalesce: config.coalesce.then(CoalesceMap::default),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i + 1))
                    .expect("spawn worker")
            })
            .collect();
        let upgrader = config.upgrade_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let latch = Arc::clone(&stop);
            let handle = thread::Builder::new()
                .name("svc-upgrader".to_string())
                .spawn(move || {
                    let (lock, cv) = &*latch;
                    let mut stopped = lock.lock().expect("upgrader stop lock");
                    loop {
                        let (guard, timeout) = cv
                            .wait_timeout(stopped, interval)
                            .expect("upgrader stop lock");
                        stopped = guard;
                        if *stopped {
                            return;
                        }
                        if timeout.timed_out() {
                            // deep analysis runs with the latch released,
                            // so shutdown never waits on a sweep to start
                            drop(stopped);
                            run_upgrade_pass(&shared);
                            stopped = lock.lock().expect("upgrader stop lock");
                        }
                    }
                })
                .expect("spawn upgrader");
            Upgrader { handle, stop }
        });
        Service {
            shared,
            workers,
            upgrader,
        }
    }

    /// Run one re-admission pass right now: re-analyze cached guarded
    /// artifacts under the deep budget, atomically swap in upgraded
    /// proofs, bump the `analysis_upgrades` counter, and drop an
    /// [`EventKind::AnalysisUpgrade`] on the flight recorder. The same
    /// pass the background thread runs on its interval.
    pub fn upgrade_pass(&self) -> UpgradeStats {
        run_upgrade_pass(&self.shared)
    }

    /// Submit a request; returns a [`Ticket`] for its reply, or an
    /// admission rejection (full queue, shutdown).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure — the request did not
    /// enter the queue and may be retried. [`SubmitError::ShuttingDown`]
    /// after shutdown began.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let item = self.item(request, ReplySink::Direct(tx));
        let request_id = item.id;
        self.enqueue(vec![item])?;
        Ok(Ticket { rx, request_id })
    }

    /// Submit a request whose reply is delivered through `route` under
    /// the caller's correlation `token` instead of a per-request
    /// [`Ticket`] — the fan-in shape a pipelined network connection
    /// needs. Returns the service-assigned request id (the
    /// flight-recorder correlation key).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began; `route` is not
    /// called in either case.
    pub fn submit_routed(
        &self,
        request: Request,
        token: u64,
        route: Arc<dyn ReplyRoute>,
    ) -> Result<u64, SubmitError> {
        let item = self.item(request, ReplySink::Routed { token, route });
        let id = item.id;
        self.enqueue(vec![item])?;
        Ok(id)
    }

    /// Submit a batch of requests admitted as **one unit**: the batch
    /// occupies a single queue slot, is executed by a single worker, and
    /// shares one proto-machine clone across its items (later items reset
    /// the scratch machine in place; see the `proto_clones_saved`
    /// metric). Replies arrive on the returned tickets in any order.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`]/[`SubmitError::ShuttingDown`] refuse
    /// the whole batch; no ticket resolves.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty (an empty batch has no replies to
    /// wait for).
    pub fn submit_batch(&self, requests: Vec<Request>) -> Result<Vec<Ticket>, SubmitError> {
        assert!(!requests.is_empty(), "an empty batch cannot be admitted");
        let mut items = Vec::with_capacity(requests.len());
        let mut tickets = Vec::with_capacity(requests.len());
        let mut receivers = Vec::with_capacity(requests.len());
        for request in requests {
            let (tx, rx) = mpsc::channel();
            let item = self.item(request, ReplySink::Direct(tx));
            receivers.push((rx, item.id));
            items.push(item);
        }
        self.enqueue(items)?;
        for (rx, request_id) in receivers {
            tickets.push(Ticket { rx, request_id });
        }
        Ok(tickets)
    }

    /// [`submit_batch`](Service::submit_batch) with replies delivered
    /// through `route` under the given per-request correlation tokens.
    /// Returns the service-assigned request ids, in batch order.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`]/[`SubmitError::ShuttingDown`] refuse
    /// the whole batch; `route` is not called for any item.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    pub fn submit_batch_routed(
        &self,
        requests: Vec<(u64, Request)>,
        route: &Arc<dyn ReplyRoute>,
    ) -> Result<Vec<u64>, SubmitError> {
        assert!(!requests.is_empty(), "an empty batch cannot be admitted");
        let mut items = Vec::with_capacity(requests.len());
        for (token, request) in requests {
            items.push(self.item(
                request,
                ReplySink::Routed {
                    token,
                    route: Arc::clone(route),
                },
            ));
        }
        let ids = items.iter().map(|i| i.id).collect();
        self.enqueue(items)?;
        Ok(ids)
    }

    /// Assign an id and resolve the deadline for one request.
    fn item(&self, request: Request, sink: ReplySink) -> JobItem {
        JobItem {
            id: self.shared.next_request.fetch_add(1, Ordering::Relaxed),
            deadline: request.deadline.map(|d| Instant::now() + d),
            request,
            sink,
            coalesce: None,
        }
    }

    /// Push one admission unit; on success, count and trace every item.
    fn enqueue(&self, items: Vec<JobItem>) -> Result<(), SubmitError> {
        let first_id = items.first().map_or(0, |i| i.id);
        let total = items.len();
        // One joined submission: (key, the joiner's admission metadata,
        // the leader it joined). Recorded for tracing after the push
        // succeeds and for rollback if it does not.
        let mut joins: Vec<(u64, (u64, u8, bool), u64)> = Vec::new();
        let mut leaders: Vec<JobItem> = Vec::with_capacity(items.len());

        // Admission transaction. When coalescing is on the registry lock
        // is held across the queue push: a failed push rolls back every
        // registration this admission made before any foreign join or a
        // worker's fanout can observe the half-admitted state.
        let mut guard = self.shared.coalesce.as_ref().map(CoalesceMap::lock);
        match guard.as_mut() {
            Some(g) => {
                for item in items {
                    let JobItem {
                        id,
                        request,
                        deadline,
                        sink,
                        coalesce: _,
                    } = item;
                    let meta = (
                        id,
                        request.regime.index().min(u8::MAX as usize) as u8,
                        request.peephole,
                    );
                    let key = coalesce::coalesce_key(&request);
                    let mut parked = Some(sink);
                    match g.try_join(key, || Waiter {
                        id,
                        sink: parked.take().expect("sink parked once"),
                    }) {
                        Some(leader) => joins.push((key, meta, leader)),
                        None => {
                            g.register_leader(key, id);
                            leaders.push(JobItem {
                                id,
                                request,
                                deadline,
                                sink: parked.take().expect("sink unmoved on lead"),
                                coalesce: Some(key),
                            });
                        }
                    }
                }
            }
            None => leaders = items,
        }

        // capture the admission metadata and moment before the job moves
        // into the queue: a racing worker may start serving it (and
        // trace its dequeue) before this thread records the admission
        let admitted_at = self.shared.trace_clock();
        let admitted: Vec<(u64, u8, bool)> = leaders
            .iter()
            .map(|i| {
                (
                    i.id,
                    i.request.regime.index().min(u8::MAX as usize) as u8,
                    i.request.peephole,
                )
            })
            .collect();
        if !leaders.is_empty() {
            let job = Job {
                submitted: Instant::now(),
                items: leaders,
            };
            match self.shared.queue.push(job) {
                Ok(()) => (),
                Err((job, err)) => {
                    // the push refused the whole batch: dissolve every
                    // registration it made (still under the lock)
                    if let Some(g) = guard.as_mut() {
                        for item in &job.items {
                            if let Some(key) = item.coalesce {
                                g.withdraw_leader(key, item.id);
                            }
                        }
                        for &(key, (id, _, _), _) in &joins {
                            g.unjoin(key, id);
                        }
                    }
                    drop(guard);
                    return Err(match err {
                        PushError::Full => {
                            self.shared.metrics.on_queue_full();
                            SubmitError::QueueFull
                        }
                        PushError::Closed => SubmitError::ShuttingDown,
                    });
                }
            }
        }
        drop(guard);

        if total > 1 {
            self.shared.metrics.on_batch(total as u64);
            self.shared.trace_at(
                0,
                first_id,
                admitted_at,
                EventKind::BatchBegin {
                    size: total.min(u32::MAX as usize) as u32,
                },
            );
        }
        for (id, regime, peephole) in admitted {
            self.shared.metrics.on_submitted();
            self.shared
                .trace_at(0, id, admitted_at, EventKind::Admitted { regime, peephole });
        }
        for (_, (id, regime, peephole), leader) in joins {
            self.shared.metrics.on_submitted();
            self.shared.metrics.on_coalesced_join();
            self.shared
                .trace_at(0, id, admitted_at, EventKind::Admitted { regime, peephole });
            self.shared
                .trace_at(0, id, admitted_at, EventKind::CoalesceJoin { leader });
        }
        Ok(())
    }

    /// A point-in-time snapshot of every counter, gauge, and latency
    /// quantile, including cache occupancy and queue depth.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot();
        let cache = self.shared.cache.stats();
        snap.queue_depth = self.shared.queue.len() as u64;
        snap.cache_size = cache.size as u64;
        snap.cache_capacity = cache.capacity as u64;
        snap.cache_evictions = cache.evictions;
        snap.workers = self.shared.health.snapshot();
        snap
    }

    /// Compiled artifacts currently cached.
    #[must_use]
    pub fn cached_programs(&self) -> usize {
        self.shared.cache.len()
    }

    /// Cache occupancy, capacity, and eviction counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// A merged, time-ordered dump of every flight-recorder ring, or
    /// `None` when the service runs untraced.
    #[must_use]
    pub fn flight_dump(&self) -> Option<FlightDump> {
        self.shared.tracing.as_ref().map(|t| t.recorder.dump())
    }

    /// The retained incident reports (traps, cancellations, deadline
    /// rejections), oldest first. Empty when untraced or uneventful.
    #[must_use]
    pub fn incident_reports(&self) -> Vec<String> {
        self.shared.tracing.as_ref().map_or_else(Vec::new, |t| {
            t.incidents
                .lock()
                .expect("incident lock")
                .iter()
                .cloned()
                .collect()
        })
    }

    /// Record a verification verdict for `request_id` on the admission
    /// ring (callers that cross-check replies against the reference
    /// interpreter report back through this).
    pub fn record_verified(&self, request_id: u64, ok: bool) {
        self.shared.trace(0, request_id, EventKind::Verified { ok });
    }

    /// Every distributed-trace span currently live in the per-worker
    /// span rings (newest `span_ring_capacity` per ring). Empty unless
    /// requests carrying a [`TraceContext`] have run.
    #[must_use]
    pub fn span_dump(&self) -> Vec<SpanRecord> {
        self.shared.spans.snapshot_all()
    }

    /// The current metrics as a Prometheus text-format page.
    #[must_use]
    pub fn prometheus(&self) -> String {
        expose::prometheus(&self.metrics())
    }

    /// The current metrics as a JSON document.
    #[must_use]
    pub fn json(&self) -> String {
        expose::json(&self.metrics())
    }

    /// Stop accepting work, run every already-accepted job to its reply,
    /// and join the pool. Every outstanding [`Ticket`] resolves.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.finish(false);
        self.metrics()
    }

    /// Stop as fast as cooperatively possible: pending jobs are answered
    /// [`Rejection::ShutDown`] without executing, and in-flight runs on
    /// the cancellable reference engine are cancelled. Joins the pool.
    pub fn abort(mut self) -> MetricsSnapshot {
        self.finish(true);
        self.metrics()
    }

    fn finish(&mut self, abort: bool) {
        if abort {
            self.shared.abort.store(true, Ordering::Relaxed);
            for job in self.shared.queue.close_and_take() {
                job.refuse(&self.shared);
            }
        } else {
            self.shared.queue.close();
        }
        if let Some(u) = self.upgrader.take() {
            let (lock, cv) = &*u.stop;
            *lock.lock().expect("upgrader stop lock") = true;
            cv.notify_all();
            if let Err(e) = u.handle.join() {
                std::panic::resume_unwind(e);
            }
        }
        for w in self.workers.drain(..) {
            // a worker that panicked already poisoned nothing we read
            // after the join; surface the panic here
            if let Err(e) = w.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

/// One sweep of the background re-admission loop over `shared`'s cache.
///
/// The deep pass analyzes against the service's default prototype
/// machine; a proof's frozen-memory dependencies are revalidated against
/// each request's actual machine at admission, so this stays sound for
/// requests running on different prototypes.
fn run_upgrade_pass(shared: &Shared) -> UpgradeStats {
    let proto = Machine::with_memory(MEMORY_BYTES);
    let stats = shared.cache.upgrade_guarded(Some(&proto));
    if stats.scanned > 0 {
        shared.metrics.on_analysis_upgrades(stats.upgraded as u64);
        // request 0 is reserved for no-request events; the pass is one
        shared.trace(
            0,
            0,
            EventKind::AnalysisUpgrade {
                upgraded: stats.upgraded.min(u32::MAX as usize) as u32,
                scanned: stats.scanned.min(u32::MAX as usize) as u32,
            },
        );
    }
    stats
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.workers.is_empty() && !thread::panicking() {
            self.finish(false);
        }
    }
}
