//! `serve` and `churn`: a closed loop over loopback to an in-process
//! `NetServer` with the default `ServiceConfig` and `NetConfig`. Two load
//! threads share one `net::Client` connection, each with one request
//! outstanding. `serve` repeats a warmed pool (every request a cache hit);
//! `churn` sends a fresh program every time (every request a miss).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use stackcache_jit::JitStats;
use stackcache_net::{Client, NetConfig, NetServer, ReplyStatus};
use stackcache_svc::{MetricsSnapshot, Service, ServiceConfig};
use stackcache_vm::Rng;

use crate::inputs::{salt, seeded, serve_pool, wire_agrees, Case, ProgramStream, E2E_REGIMES};
use crate::stats::{cpu_time, median, quantile, steal_pct, steal_ticks, Cpu};
use crate::trace::Tracer;

/// Load threads, each keeping one request outstanding.
pub const LOAD_THREADS: usize = 2;

/// Fresh requests a `churn` set-up sends before measuring: enough that
/// the set-up time is mostly the miss path, not thread start-up.
const CHURN_WARM: usize = 256;

/// Samples each load thread reserves room for up front, so the
/// benchmark's own buffers do not grow in steps during the loop.
const SAMPLE_CAPACITY: usize = 1 << 19;

/// How often the loop samples the hypervisor's steal counter.
const STEAL_SAMPLE: Duration = Duration::from_millis(50);

/// Requests per traced/untraced block in a traced run.
const TRACE_BLOCK: u64 = 64;

/// Which traffic the loop sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Repeat the warmed pool.
    Serve,
    /// A fresh program per request.
    Churn,
}

/// Where requests come from.
pub enum Source {
    /// The warmed pool, picked by each thread's seeded generator.
    Pool(Vec<Arc<Case>>),
    /// The shared stream of fresh programs.
    Fresh(Mutex<ProgramStream>),
}

impl Source {
    /// The source for `shape` under `seed`.
    #[must_use]
    pub fn new(shape: Shape, seed: u64) -> Source {
        match shape {
            Shape::Serve => Source::Pool(serve_pool(seed).into_iter().map(Arc::new).collect()),
            Shape::Churn => Source::Fresh(Mutex::new(ProgramStream::new(seed, salt::CHURN))),
        }
    }

    fn next(&self, rng: &mut Rng) -> Arc<Case> {
        match self {
            Source::Pool(cases) => Arc::clone(rng.pick(cases)),
            Source::Fresh(stream) => Arc::new(stream.lock().expect("stream lock").next_case()),
        }
    }

    /// The requests a set-up sends before measuring: the whole pool, or a
    /// few fresh programs.
    fn warm_cases(&self) -> Vec<Arc<Case>> {
        match self {
            Source::Pool(cases) => cases.clone(),
            Source::Fresh(stream) => {
                let mut s = stream.lock().expect("stream lock");
                (0..CHURN_WARM).map(|_| Arc::new(s.next_case())).collect()
            }
        }
    }
}

/// A started server with a connected, warmed client.
pub struct Running {
    /// The server under test.
    pub server: NetServer,
    /// The one connection.
    pub client: Client,
    /// Warm-up requests sent.
    pub warm_attempted: u64,
    /// Warm-up replies that disagreed with the reference.
    pub warm_failed: u64,
}

/// Start a server, connect and warm up; the returned duration is the
/// set-up's CPU time over every thread of the process (server start,
/// connect, warm-up), without generating the warm-up inputs.
///
/// # Panics
///
/// Panics if the loopback server cannot bind or the client cannot connect.
#[must_use]
pub fn start(source: &Source) -> (Running, Duration) {
    stackcache_jit::invalidate();
    let warm = source.warm_cases();
    let t = cpu_time(Cpu::Process);
    let server = NetServer::start(
        Service::start(ServiceConfig::default()),
        NetConfig::default(),
    )
    .expect("bind a loopback server");
    let client =
        Client::connect(server.addr(), LOAD_THREADS as u32).expect("connect to the server");
    let mut warm_failed = 0;
    for case in &warm {
        let ok = client
            .call(&case.request)
            .is_ok_and(|r| wire_agrees(&r, &case.expected));
        warm_failed += u64::from(!ok);
    }
    let spent = cpu_time(Cpu::Process) - t;
    let running = Running {
        server,
        client,
        warm_attempted: warm.len() as u64,
        warm_failed,
    };
    (running, spent)
}

impl Running {
    /// Close the connection and stop the server.
    pub fn stop(self) {
        // a failed goodbye only means the server already closed
        let _ = self.client.goodbye();
        let _ = self.server.shutdown();
    }
}

/// When the loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Each thread stops at this instant.
    At(Instant),
    /// The threads send this many requests between them.
    Requests(u64),
}

/// One answered request, kept small: a run holds hundreds of thousands.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the reply arrived, µs after the loop started.
    pub end_us: u32,
    /// Client-observed latency in ns, submit to reply.
    pub latency_ns: u32,
    /// Index of the request's regime in `E2E_REGIMES`.
    pub slot: u8,
    /// Whether the reply matched the reference.
    pub ok: bool,
}

/// Statistics of the requests answered in one window of the loop.
#[derive(Debug, Clone)]
pub struct Window {
    /// Verified completions per second.
    pub rps: f64,
    /// Median latency in ns.
    pub p50_ns: f64,
    /// 99th-percentile latency in ns.
    pub p99_ns: f64,
    /// Median latency in ns per E2E regime.
    pub regime_p50_ns: Vec<f64>,
    /// Share of the CPUs the hypervisor stole during the window, if known.
    pub steal: Option<f64>,
}

/// What the closed loop saw.
#[derive(Debug)]
pub struct Measured {
    /// Every request, in no particular order.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Replies that were wrong, `Busy`, or a client error.
    pub failed: u64,
    /// Requests sent on the JIT regime.
    pub jit_requests: u64,
    /// Encoded `Submit` bytes sent.
    pub request_bytes: u64,
    /// Instructions the reference executed for the requests sent.
    pub executed: u64,
    /// Wall time of the loop.
    pub elapsed: Duration,
    /// Wall time and requests of the blocks sent with spans recorded
    /// (`[1]`) and without (`[0]`), in a traced run.
    pub blocks: [(Duration, u64); 2],
    /// Service counters before and after the loop.
    pub svc: (MetricsSnapshot, MetricsSnapshot),
    /// JIT counters before and after the loop.
    pub jit: (JitStats, JitStats),
    /// The hypervisor's steal counter, sampled through the loop.
    pub steal_marks: Vec<(Duration, Option<u64>)>,
}

impl Measured {
    /// The steal counter at `t` into the loop (its last sample by then).
    fn steal_at(&self, t: Duration) -> Option<u64> {
        self.steal_marks
            .iter()
            .take_while(|(at, _)| *at <= t)
            .last()
            .or(self.steal_marks.first())
            .and_then(|m| m.1)
    }

    /// Clock ticks stolen over the whole loop, if known.
    #[must_use]
    pub fn steal(&self) -> Option<u64> {
        let last = self.steal_marks.last()?.1?;
        Some(last.saturating_sub(self.steal_marks.first()?.1?))
    }

    /// Split the loop into windows of `width` by reply time and summarise
    /// each. A trailing partial window is dropped unless it is the only
    /// one.
    #[must_use]
    pub fn windows(&self, width: Duration) -> Vec<Window> {
        let width_us = u64::try_from(width.as_micros()).expect("window fits u64");
        let elapsed_us = u64::try_from(self.elapsed.as_micros()).expect("run fits u64");
        let full = usize::try_from(elapsed_us / width_us).expect("window count fits usize");
        let (count, span_s) = if full == 0 {
            (1, self.elapsed.as_secs_f64())
        } else {
            (full, width.as_secs_f64())
        };
        let mut buckets: Vec<Vec<&Sample>> = vec![Vec::new(); count];
        for s in &self.samples {
            let w = if full == 0 {
                0
            } else {
                usize::try_from(u64::from(s.end_us) / width_us).unwrap_or(usize::MAX)
            };
            if let Some(b) = buckets.get_mut(w) {
                b.push(s);
            }
        }
        buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let from = width * u32::try_from(i).expect("window index fits u32");
                let to = if full == 0 {
                    self.elapsed
                } else {
                    from + width
                };
                let lat = |slot: Option<u8>| -> Vec<f64> {
                    b.iter()
                        .filter(|s| slot.is_none_or(|g| s.slot == g))
                        .map(|s| f64::from(s.latency_ns))
                        .collect()
                };
                let all = lat(None);
                Window {
                    rps: b.iter().filter(|s| s.ok).count() as f64 / span_s,
                    p50_ns: quantile(&all, 0.5),
                    p99_ns: quantile(&all, 0.99),
                    regime_p50_ns: (0..E2E_REGIMES.len())
                        .map(|g| median(&lat(Some(g as u8))))
                        .collect(),
                    steal: self
                        .steal_at(to)
                        .zip(self.steal_at(from))
                        .map(|(end, begin)| {
                            steal_pct(end.saturating_sub(begin), to - from) / 100.0
                        }),
                }
            })
            .collect()
    }
}

#[derive(Default)]
struct ThreadResult {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    jit_requests: u64,
    request_bytes: u64,
    executed: u64,
    blocks: [(Duration, u64); 2],
}

/// Run the closed loop until `stop`. In a traced run each request records
/// a `client.call` span, and the threads alternate blocks with and
/// without spans so the run measures the cost of its own tracing.
///
/// # Panics
///
/// Panics if a load thread panics.
pub fn measure(
    running: &Running,
    source: &Source,
    seed: u64,
    stop: Stop,
    tracer: &mut Tracer,
) -> Measured {
    let tracing = tracer.on();
    let svc_before = running.server.service_metrics();
    let jit_before = stackcache_jit::stats();
    let req_ids = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (results, steal_marks) = thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut marks = Vec::new();
            loop {
                let last = done.load(Ordering::SeqCst);
                marks.push((start.elapsed(), steal_ticks()));
                if last {
                    break marks;
                }
                thread::sleep(STEAL_SAMPLE);
            }
        });
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|t| {
                let mut tr = tracer.clone_empty();
                let req_ids = &req_ids;
                s.spawn(move || {
                    let mut rng = seeded(seed, salt::LOAD + t as u64);
                    let quota = match stop {
                        Stop::Requests(n) => Some(
                            n / LOAD_THREADS as u64
                                + u64::from((t as u64) < n % LOAD_THREADS as u64),
                        ),
                        Stop::At(_) => None,
                    };
                    let mut r = ThreadResult {
                        samples: Vec::with_capacity(SAMPLE_CAPACITY),
                        ..ThreadResult::default()
                    };
                    let mut block_start = Instant::now();
                    loop {
                        let done = match stop {
                            Stop::At(deadline) => Instant::now() >= deadline,
                            Stop::Requests(_) => quota.is_some_and(|q| r.attempted >= q),
                        };
                        let in_block = r.attempted % TRACE_BLOCK;
                        if tracing && (in_block == 0 || done) && r.attempted > 0 {
                            let side = usize::from(tr.on());
                            r.blocks[side].0 += block_start.elapsed();
                            r.blocks[side].1 += if in_block == 0 { TRACE_BLOCK } else { in_block };
                            tr.set_on(!tr.on());
                            block_start = Instant::now();
                        }
                        if done {
                            break;
                        }
                        let case = source.next(&mut rng);
                        let id = req_ids.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let reply = running.client.call(&case.request);
                        let t1 = Instant::now();
                        tr.record("client.call", 0, id, t0, t1);
                        let ok = reply.is_ok_and(|rep| {
                            rep.status != ReplyStatus::Busy && wire_agrees(&rep, &case.expected)
                        });
                        let slot = E2E_REGIMES
                            .iter()
                            .position(|&g| g == case.request.regime)
                            .expect("an E2E regime");
                        r.samples.push(Sample {
                            end_us: u32::try_from(t1.duration_since(start).as_micros())
                                .unwrap_or(u32::MAX),
                            latency_ns: u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX),
                            slot: u8::try_from(slot).expect("eight regimes"),
                            ok,
                        });
                        r.attempted += 1;
                        r.failed += u64::from(!ok);
                        r.jit_requests += u64::from(slot == E2E_REGIMES.len() - 1);
                        r.request_bytes += case.request_bytes;
                        r.executed += case.executed;
                    }
                    (r, tr)
                })
            })
            .collect();
        let results: Vec<(ThreadResult, Tracer)> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect();
        done.store(true, Ordering::SeqCst);
        (results, sampler.join().expect("steal sampler"))
    });
    let elapsed = start.elapsed();
    let mut out = Measured {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        jit_requests: 0,
        request_bytes: 0,
        executed: 0,
        elapsed,
        blocks: [(Duration::ZERO, 0); 2],
        svc: (svc_before, running.server.service_metrics()),
        jit: (jit_before, stackcache_jit::stats()),
        steal_marks,
    };
    for (r, tr) in results {
        out.samples.extend(r.samples);
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.jit_requests += r.jit_requests;
        out.request_bytes += r.request_bytes;
        out.executed += r.executed;
        for side in 0..2 {
            out.blocks[side].0 += r.blocks[side].0;
            out.blocks[side].1 += r.blocks[side].1;
        }
        tracer.absorb(tr);
    }
    out
}
