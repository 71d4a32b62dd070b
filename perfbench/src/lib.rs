//! The repository's benchmark: one seeded scenario runner, three
//! workloads, a steady untraced run for the end-to-end metrics and a
//! separate traced run for the per-layer metrics. See `README.md` in this
//! directory for the workloads, the metrics and how to read a traced run.

pub mod inputs;
pub mod netloop;
pub mod probes;
pub mod stats;
pub mod suite;
pub mod trace;

use std::sync::Arc;
use std::time::{Duration, Instant};

use stackcache_core::EngineRegime;

use crate::inputs::{regime_name, salt, serve_pool, ProgramStream, E2E_REGIMES};
use crate::netloop::{Shape, Source};
use crate::stats::{fastest, geomean, median, peak_rss_mib, quantile, steal_pct, steal_ticks};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is the fastest, in CPU time.
const SETUPS: usize = 5;

/// Width of the windows whose medians the `serve` and `churn` metrics are.
const WINDOW: Duration = Duration::from_secs(1);

/// Requests the churn-shaped in-process and wire probes send.
const CHURN_PROBE_REQUESTS: usize = 512;

/// Rounds of the full-scale engine probe in a traced `serve` or `churn` run.
const ENGINE_PROBE_ROUNDS: u64 = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The four Fig. 20 programs on every engine, in process.
    Suite,
    /// Warm hits over the network front end.
    Serve,
    /// Cold misses over the network front end.
    Churn,
}

impl Workload {
    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "suite" => Some(Workload::Suite),
            "serve" => Some(Workload::Serve),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Serve => "serve",
            Workload::Churn => "churn",
        }
    }
}

/// How much one run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Measure for this many seconds.
    Seconds(f64),
    /// Measure exactly this many operations (runs or requests), so that
    /// two runs with one seed do identical work.
    Ops(u64),
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed for every generated input and order.
    pub seed: u64,
    /// How long to measure.
    pub budget: Budget,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
}

/// Named values with units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The value of `name`, 0 if absent.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |m| m.1)
    }
}

/// Operations attempted and failed. An operation fails when its output
/// disagrees with the reference, when it is answered `Busy`, or when the
/// client errors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted: warm-ups, measured runs or requests, probes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The end-to-end metrics (computed on every run).
    pub e2e: Metrics,
    /// The per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Exact counts that repeat for one seed under an `Ops` budget.
    pub counts: Vec<(String, u64)>,
    /// Every span recorded.
    pub tracer: Tracer,
    /// Share of the CPUs the hypervisor stole during the measurement, in %.
    pub steal_pct: f64,
}

impl Report {
    fn new(trace: bool) -> Report {
        Report {
            tally: Tally::default(),
            e2e: Metrics::default(),
            layers: Metrics::default(),
            counts: Vec::new(),
            tracer: Tracer::new(trace, Instant::now()),
            steal_pct: 0.0,
        }
    }
}

/// The instant `seconds` from now.
fn after(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Run one workload.
#[must_use]
pub fn run(o: &Options) -> Report {
    match o.workload {
        Workload::Suite => run_suite(o),
        Workload::Serve => run_net(o, Shape::Serve),
        Workload::Churn => run_net(o, Shape::Churn),
    }
}

fn run_suite(o: &Options) -> Report {
    let regimes: Vec<EngineRegime> = if o.trace {
        EngineRegime::ALL.to_vec()
    } else {
        E2E_REGIMES.to_vec()
    };
    let mut r = Report::new(o.trace);
    let set_up = |r: &mut Report| {
        let (s, spent, failed) = suite::set_up(&regimes);
        r.tally
            .add((s.workloads.len() * regimes.len()) as u64, failed);
        (s, spent.as_secs_f64())
    };
    let (suite, first) = set_up(&mut r);
    let stop = match o.budget {
        Budget::Seconds(s) => suite::Stop::At(after(s)),
        Budget::Ops(n) => suite::Stop::Runs(n),
    };
    let jit_before = stackcache_jit::stats();
    let steal_before = steal_ticks();
    let measured = suite::measure(&suite, o.seed, stop, &mut r.tracer);
    let jit_after = stackcache_jit::stats();
    r.steal_pct = steal_ticks().zip(steal_before).map_or(0.0, |(end, begin)| {
        steal_pct(end.saturating_sub(begin), measured.elapsed)
    });
    r.tally.add(measured.attempted, measured.failed);
    let rss = peak_rss_mib();
    // the other set-ups are timed after the measurement, so that what
    // they leave behind does not count in rss_mb
    let mut setup_s = vec![first];
    setup_s.extend((1..SETUPS).map(|_| set_up(&mut r).1));

    let slot = |g: EngineRegime| {
        regimes
            .iter()
            .position(|&x| x == g)
            .expect("compiled regime")
    };
    let run_ms: Vec<f64> = E2E_REGIMES
        .iter()
        .map(|&g| {
            let per_program: Vec<f64> = (0..suite.workloads.len())
                .map(|p| measured.median_ms(p, slot(g)))
                .collect();
            geomean(&per_program)
        })
        .collect();
    for (g, ms) in E2E_REGIMES.iter().zip(&run_ms) {
        r.e2e
            .push(&format!("run_ms.{}", regime_name(*g)), *ms, "ms");
    }
    r.e2e.push("setup_s", fastest(&setup_s), "s");
    r.e2e.push("rss_mb", rss, "MiB");
    // one warm run of a typical (program, regime) pair
    r.e2e.push("p50_ms", geomean(&run_ms), "ms");

    let executed: u64 = (0..suite.workloads.len())
        .map(|p| {
            suite.executed(p)
                * measured.samples[p]
                    .iter()
                    .map(|s| s.len() as u64)
                    .sum::<u64>()
        })
        .sum();
    r.counts.push(("executed".into(), executed));
    r.counts.push((
        "jit.compiled".into(),
        jit_after.compiled - jit_before.compiled,
    ));
    for (p, w) in suite.workloads.iter().enumerate() {
        r.counts
            .push((format!("engine.executed.{}", w.name), suite.executed(p)));
    }

    if o.trace {
        r.layers
            .push("tail.p99_ms", quantile(&measured.all_ms(), 0.99), "ms");
        r.layers.push(
            "client.rps",
            (measured.attempted - measured.failed) as f64 / measured.elapsed.as_secs_f64(),
            "1/s",
        );
        r.layers.push("host.steal_pct", r.steal_pct, "%");
        engine_layer(&suite, &measured, &mut r.layers);
        // self time of a loop iteration: machine reset and output check
        r.layers.push(
            "unattributed_us",
            median(&r.tracer.self_times("suite.run")) / 1e3,
            "us",
        );
        r.layers.push(
            "bench.trace_overhead_pct",
            suite_trace_overhead(&measured),
            "%",
        );
        probes::jit_counters(&jit_before, &jit_after, measured.jit_runs, &mut r.layers);
        let pool: Vec<Arc<inputs::Case>> = serve_pool(o.seed).into_iter().map(Arc::new).collect();
        let (before, after) = shared_probes(o.seed, &pool, &pool, true, &mut r);
        probes::svc_counters(&before, &after, &mut r.layers);
    }
    r
}

/// `engine.ns_per_inst.<regime>.<program>` and `engine.executed.<program>`.
fn engine_layer(suite: &suite::Suite, measured: &suite::Measured, m: &mut Metrics) {
    for (ri, &g) in suite.regimes.iter().enumerate() {
        for (p, w) in suite.workloads.iter().enumerate() {
            let ns = measured.median_ms(p, ri) * 1e6 / suite.executed(p) as f64;
            m.push(
                &format!("engine.ns_per_inst.{}.{}", regime_name(g), w.name),
                ns,
                "ns",
            );
        }
    }
    for (p, w) in suite.workloads.iter().enumerate() {
        m.push(
            &format!("engine.executed.{}", w.name),
            suite.executed(p) as f64,
            "count",
        );
    }
}

/// Geometric mean over (program, regime) pairs of traced vs untraced
/// iteration time, as a percentage above untraced.
fn suite_trace_overhead(measured: &suite::Measured) -> f64 {
    let [off, on] = &measured.iters;
    let ratios: Vec<f64> = off
        .iter()
        .flatten()
        .zip(on.iter().flatten())
        .filter(|(a, b)| !a.is_empty() && !b.is_empty())
        .map(|(a, b)| median(b) / median(a))
        .collect();
    (geomean(&ratios) - 1.0) * 100.0
}

/// Probes every traced run makes: engine fixed and per-request cost, the
/// miss path, the wire codec, the evented round trip and the in-process
/// service. `pool` is the serve pool; `cases` are shaped like the
/// workload's requests, and `warm` says whether they are hits (the
/// warmed pool) or misses (fresh programs).
fn shared_probes(
    seed: u64,
    pool: &[Arc<inputs::Case>],
    cases: &[Arc<inputs::Case>],
    warm: bool,
    r: &mut Report,
) -> (
    stackcache_svc::MetricsSnapshot,
    stackcache_svc::MetricsSnapshot,
) {
    let (t, m, f) = (&mut r.tracer, &mut r.layers, &mut r.tally);
    probes::engine_fixed(t, m, f);
    probes::engine_requests(pool, t, m, f);
    probes::miss_path(seed, t, m, f);
    probes::wire(cases, t, m, f);
    probes::evio_ping(t, m, f);
    probes::svc_inproc(cases, warm, t, m, f)
}

fn run_net(o: &Options, shape: Shape) -> Report {
    let source = Source::new(shape, o.seed);
    let mut r = Report::new(o.trace);
    let set_up = |r: &mut Report| {
        let (up, spent) = netloop::start(&source);
        r.tally.add(up.warm_attempted, up.warm_failed);
        (up, spent.as_secs_f64())
    };
    let (running, first) = set_up(&mut r);
    let stop = match o.budget {
        Budget::Seconds(s) => netloop::Stop::At(after(s)),
        Budget::Ops(n) => netloop::Stop::Requests(n),
    };
    let measured = netloop::measure(&running, &source, o.seed, stop, &mut r.tracer);
    running.stop();
    r.tally.add(measured.attempted, measured.failed);
    let rss = peak_rss_mib();
    let mut setup_s = vec![first];
    setup_s.extend((1..SETUPS).map(|_| {
        let (up, spent) = set_up(&mut r);
        up.stop();
        spent
    }));

    // Medians over one-second windows of steal-adjusted statistics: in a
    // window where the hypervisor stole a share s of the CPUs, the loop
    // ran on 1 - s of them, so its latencies count at (1 - s) of their
    // wall time and its throughput at 1 / (1 - s).
    let windows = measured.windows(WINDOW);
    let kept = |w: &netloop::Window| 1.0 - w.steal.unwrap_or(0.0);
    let over =
        |f: &dyn Fn(&netloop::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    for (i, g) in E2E_REGIMES.iter().enumerate() {
        r.e2e.push(
            &format!("run_ms.{}", regime_name(*g)),
            over(&|w| w.regime_p50_ns[i] * kept(w)) / 1e6,
            "ms",
        );
    }
    r.e2e.push("setup_s", fastest(&setup_s), "s");
    r.e2e.push("rss_mb", rss, "MiB");
    r.e2e
        .push("p50_ms", over(&|w| w.p50_ns * kept(w)) / 1e6, "ms");

    let (svc0, svc1) = &measured.svc;
    r.counts.push(("executed".into(), measured.executed));
    r.counts
        .push(("svc.hits".into(), svc1.cache_hits() - svc0.cache_hits()));
    r.counts.push((
        "svc.misses".into(),
        svc1.cache_misses() - svc0.cache_misses(),
    ));
    r.counts.push((
        "jit.compiled".into(),
        measured.jit.1.compiled - measured.jit.0.compiled,
    ));
    r.counts
        .push(("wire.request_bytes".into(), measured.request_bytes));

    r.steal_pct = measured
        .steal()
        .map_or(0.0, |t| steal_pct(t, measured.elapsed));
    if o.trace {
        r.layers
            .push("tail.p99_ms", over(&|w| w.p99_ns * kept(w)) / 1e6, "ms");
        r.layers
            .push("client.rps", over(&|w| w.rps / kept(w)), "1/s");
        r.layers.push("host.steal_pct", r.steal_pct, "%");
        probes::svc_counters(svc0, svc1, &mut r.layers);
        probes::jit_counters(
            &measured.jit.0,
            &measured.jit.1,
            measured.jit_requests,
            &mut r.layers,
        );
        let [(off_t, off_n), (on_t, on_n)] = measured.blocks;
        let per_req = |t: Duration, n: u64| t.as_secs_f64() / n.max(1) as f64;
        r.layers.push(
            "bench.trace_overhead_pct",
            (per_req(on_t, on_n) / per_req(off_t, off_n) - 1.0) * 100.0,
            "%",
        );
        let p50_traced_us = median(&r.tracer.durations("client.call")) / 1e3;

        // the full-scale engine probe: a short suite loop on every regime
        let (suite, _, failed) = suite::set_up(&EngineRegime::ALL);
        r.tally.add(
            (EngineRegime::ALL.len() * suite.workloads.len()) as u64,
            failed,
        );
        let stop = suite::Stop::Rounds(ENGINE_PROBE_ROUNDS);
        let mut quiet = Tracer::new(false, Instant::now());
        let engine = suite::measure(&suite, o.seed, stop, &mut quiet);
        r.tally.add(engine.attempted, engine.failed);
        engine_layer(&suite, &engine, &mut r.layers);
        drop(suite);

        let (pool, cases) = match &source {
            Source::Pool(pool) => (pool.clone(), pool.clone()),
            Source::Fresh(_) => {
                let mut stream = ProgramStream::new(o.seed, salt::INPROC);
                let fresh = (0..CHURN_PROBE_REQUESTS)
                    .map(|_| Arc::new(stream.next_case()))
                    .collect();
                (
                    serve_pool(o.seed).into_iter().map(Arc::new).collect(),
                    fresh,
                )
            }
        };
        shared_probes(o.seed, &pool, &cases, shape == Shape::Serve, &mut r);
        let path = [
            "evio.ping_us",
            "svc.inproc_us",
            "wire.encode_us",
            "wire.decode_us",
        ];
        let covered: f64 = path.iter().map(|n| r.layers.get(n)).sum();
        r.layers
            .push("unattributed_us", p50_traced_us - covered, "us");
    }
    r
}
