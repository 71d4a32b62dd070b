//! The service under load: at least four workers serve 10k+ requests
//! across every engine regime — generated programs and the four
//! benchmark workloads, with the peephole flag alternating — and every
//! completion is verified against the reference interpreter. Deadline
//! and fuel probes, which only a structured rejection answers
//! correctly, ride along with the load; a traced run must also leave a
//! non-empty flight dump, incident reports and a lint-clean metrics page.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use stackcache_core::EngineRegime;
use stackcache_harness::{all_engines, gen, Outcome, MEMORY_BYTES};
use stackcache_obs::prometheus_lint;
use stackcache_svc::{
    MetricsSnapshot, Rejection, Reply, Request, Service, ServiceConfig, SubmitError, Ticket,
    TraceConfig,
};
use stackcache_vm::{program_of, Inst, Machine, Program, Rng};
use stackcache_workloads::{all_workloads, Scale};

const SEED: u64 = 0x5EC7_1CE5;
const FUEL: u64 = 1_000_000;

struct Load {
    workers: usize,
    /// Generated programs (structured / memory / call-nest, round-robin).
    mini_programs: usize,
    /// Requests per (generated program, regime).
    mini_repeats: usize,
    /// Requests per (workload, regime).
    workload_repeats: usize,
    /// Requests whose deadline has expired at submission.
    deadline_probes: usize,
    /// Requests whose fuel cannot cover their program.
    fuel_probes: usize,
    trace: bool,
}

/// One program under load with the reference interpreter's verdict.
struct Case {
    name: String,
    program: Arc<Program>,
    proto: Arc<Machine>,
    fuel: u64,
    repeats: usize,
    expected: Outcome,
}

struct LoadRun {
    requests: usize,
    verified: u64,
    divergences: Vec<String>,
    deadline_rejections: usize,
    fuel_rejections: usize,
    flight_events: usize,
    incidents: Vec<String>,
    prometheus: String,
    snapshot: MetricsSnapshot,
}

fn cases(load: &Load) -> Vec<Case> {
    let reference = &all_engines()[0];
    let mut cases = Vec::new();
    let mut push = |name: String, program: Program, proto: Machine, fuel: u64, repeats| {
        let expected = reference.run_on(&program, &proto, fuel);
        cases.push(Case {
            name,
            program: Arc::new(program),
            proto: Arc::new(proto),
            fuel,
            repeats,
            expected,
        });
    };
    for i in 0..load.mini_programs {
        let mut rng = Rng::new((SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
        let (family, program, proto) = match i % 3 {
            0 => (
                "structured",
                gen::structured_program(&mut rng),
                Machine::with_memory(MEMORY_BYTES),
            ),
            1 => {
                let proto = gen::seeded_machine(&mut rng, MEMORY_BYTES, 6);
                let choices = gen::random_choices(&mut rng, 100, 1 << 20);
                ("memory", gen::memory_fodder(&choices, MEMORY_BYTES), proto)
            }
            _ => (
                "callnest",
                gen::call_nest_program(&mut rng, 4),
                Machine::with_memory(MEMORY_BYTES),
            ),
        };
        push(
            format!("{family}#{i}"),
            program,
            proto,
            FUEL,
            load.mini_repeats,
        );
    }
    if load.workload_repeats > 0 {
        for w in all_workloads(Scale::Small) {
            let proto = w.image.machine();
            let fuel = w.fuel();
            push(
                format!("workload:{}", w.name),
                w.image.program,
                proto,
                fuel,
                load.workload_repeats,
            );
        }
    }
    cases
}

/// Submit with retry: a full queue is backpressure, not failure.
fn submit(svc: &Service, request: Request) -> Ticket {
    loop {
        match svc.submit(request.clone()) {
            Ok(t) => return t,
            Err(SubmitError::QueueFull) => thread::sleep(Duration::from_micros(100)),
            Err(SubmitError::ShuttingDown) => unreachable!("the test owns the service"),
        }
    }
}

/// Fan every case out over every regime, interleave the rejection
/// probes, and verify every reply.
fn run_load(load: &Load) -> LoadRun {
    let svc = Service::start(ServiceConfig {
        workers: load.workers,
        queue_capacity: 256,
        cache_shards: 16,
        trace: load.trace.then(TraceConfig::default),
        ..ServiceConfig::default()
    });
    let cases = cases(load);
    let mut tickets = Vec::new();
    for (ci, case) in cases.iter().enumerate() {
        for regime in EngineRegime::ALL {
            for rep in 0..case.repeats {
                let request = Request::new(Arc::clone(&case.program), regime)
                    .on(Arc::clone(&case.proto))
                    .peephole(rep % 2 == 1)
                    .fuel(case.fuel);
                tickets.push((ci, regime, submit(&svc, request)));
            }
        }
    }
    let regime = |i: usize| EngineRegime::ALL[i % EngineRegime::ALL.len()];
    let spin = Arc::new(program_of(&[Inst::Nop, Inst::Branch(0)]));
    let deadline_tickets: Vec<_> = (0..load.deadline_probes)
        .map(|i| {
            let request = Request::new(Arc::clone(&spin), regime(i))
                .fuel(u64::MAX)
                .deadline(Duration::ZERO);
            submit(&svc, request)
        })
        .collect();
    let fuel_tickets: Vec<_> = (0..load.fuel_probes)
        .map(|i| {
            submit(
                &svc,
                Request::new(Arc::clone(&spin), regime(i)).fuel(10_000),
            )
        })
        .collect();
    let requests = tickets.len() + deadline_tickets.len() + fuel_tickets.len();

    let mut divergences = Vec::new();
    let mut verified = 0u64;
    for (ci, regime, ticket) in tickets {
        let case = &cases[ci];
        let id = ticket.request_id();
        match ticket.wait() {
            // compiled regimes legitimately execute fewer instructions
            Reply::Completed(c) => match case.expected.first_difference(&c.outcome, false) {
                None => {
                    verified += 1;
                    svc.record_verified(id, true);
                }
                Some(diff) => {
                    svc.record_verified(id, false);
                    divergences.push(format!("{} on {}: {diff}", case.name, regime.name()));
                }
            },
            Reply::Rejected(r) => divergences.push(format!(
                "{} on {}: unexpected rejection {r:?}",
                case.name,
                regime.name()
            )),
        }
    }
    let mut rejected = |tickets: Vec<Ticket>, want: Rejection| {
        let mut n = 0;
        for t in tickets {
            match t.wait() {
                Reply::Rejected(r) if r == want => n += 1,
                other => divergences.push(format!("probe: expected {want:?}, got {other:?}")),
            }
        }
        n
    };
    let deadline_rejections = rejected(deadline_tickets, Rejection::DeadlineExpired);
    let fuel_rejections = rejected(fuel_tickets, Rejection::FuelExhausted);

    let flight_events = svc.flight_dump().map_or(0, |d| d.len());
    let incidents = svc.incident_reports();
    let prometheus = svc.prometheus();
    LoadRun {
        requests,
        verified,
        divergences,
        deadline_rejections,
        fuel_rejections,
        flight_events,
        incidents,
        prometheus,
        snapshot: svc.shutdown(),
    }
}

fn assert_clean(run: &LoadRun) {
    assert!(
        run.divergences.is_empty(),
        "{} divergences, first: {}",
        run.divergences.len(),
        run.divergences[0]
    );
}

#[test]
fn service_sustains_ten_thousand_verified_requests() {
    let load = Load {
        workers: thread::available_parallelism()
            .map_or(4, std::num::NonZeroUsize::get)
            .max(4),
        mini_programs: 12,
        mini_repeats: 110,
        workload_repeats: 2,
        deadline_probes: 16,
        fuel_probes: 16,
        trace: false,
    };
    let run = run_load(&load);

    assert!(load.workers >= 4, "acceptance requires at least 4 workers");
    assert!(
        run.requests >= 10_000,
        "only {} requests submitted",
        run.requests
    );
    assert_clean(&run);
    assert_eq!(
        run.verified,
        (run.requests - load.deadline_probes - load.fuel_probes) as u64,
        "every non-probe request completed and matched the reference"
    );
    let snap = &run.snapshot;
    assert!(
        snap.cache_hits() >= 1,
        "the compiled-program cache was never observed hitting"
    );
    assert_eq!(run.deadline_rejections, load.deadline_probes);
    assert_eq!(run.fuel_rejections, load.fuel_probes);
    // the probes show up in the service's own metrics too
    let deadline_total: u64 = snap.regimes.iter().map(|r| r.deadline_expired).sum();
    let fuel_total: u64 = snap.regimes.iter().map(|r| r.fuel_exhausted).sum();
    assert_eq!(deadline_total, load.deadline_probes as u64);
    assert_eq!(fuel_total, load.fuel_probes as u64);
    // the verified fast path carries the load: at least 99% of
    // completions ran with underflow checks elided and none was refused
    // by the analyzer
    let share = snap.fast_path_share().unwrap_or(0.0);
    assert!(
        share >= 0.99,
        "only {:.2}% of completions on the fast path ({} of {})",
        100.0 * share,
        snap.served_fast(),
        snap.completed()
    );
    assert_eq!(snap.analysis_rejected(), 0);
    assert_eq!(snap.stalled_workers(), 0);
}

#[test]
fn traced_load_keeps_its_observability_artifacts_alive() {
    let run = run_load(&Load {
        workers: thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
        mini_programs: 6,
        mini_repeats: 10,
        workload_repeats: 1,
        deadline_probes: 8,
        fuel_probes: 8,
        trace: true,
    });
    assert_clean(&run);
    assert!(run.flight_events > 0, "flight-recorder dump is empty");
    // the deadline and fuel probes file incidents on a traced run
    assert!(
        !run.incidents.is_empty(),
        "no incident reports despite rejection probes"
    );
    prometheus_lint(&run.prometheus).expect("the traced service's page lints clean");
}
