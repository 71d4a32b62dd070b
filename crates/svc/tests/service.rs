//! End-to-end service tests: the worker pool answers every ticket, the
//! cache is observed hitting, deadlines and fuel produce structured
//! rejections, backpressure rejects at admission, and shutdown drains.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stackcache_core::EngineRegime;
use stackcache_svc::{Rejection, Reply, Request, Service, ServiceConfig, SubmitError, Ticket};
use stackcache_vm::{program_of, Inst, Program, ProgramBuilder};

fn config(workers: usize, queue: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: queue,
        cache_shards: 4,
        ..ServiceConfig::default()
    }
}

fn square(n: i64) -> Arc<Program> {
    Arc::new(program_of(&[
        Inst::Lit(n),
        Inst::Dup,
        Inst::Mul,
        Inst::Dot,
        Inst::Halt,
    ]))
}

/// An infinite loop, stoppable only by fuel or cancellation.
fn spin() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let top = b.new_label();
    b.bind(top).unwrap();
    b.push(Inst::Nop);
    b.branch(top);
    Arc::new(b.finish().unwrap())
}

#[test]
fn every_regime_answers_with_the_same_output() {
    let svc = Service::start(config(4, 64));
    let program = square(7);
    let tickets: Vec<_> = EngineRegime::ALL
        .iter()
        .flat_map(|&regime| {
            [false, true].map(|ph| {
                let t = svc
                    .submit(Request::new(Arc::clone(&program), regime).peephole(ph))
                    .expect("admitted");
                (regime, t)
            })
        })
        .collect();
    for (regime, t) in tickets {
        match t.wait() {
            Reply::Completed(c) => {
                assert_eq!(c.outcome.output, b"49 ", "{}", regime.name());
                assert_eq!(c.outcome.trap, None, "{}", regime.name());
            }
            Reply::Rejected(r) => panic!("{}: rejected {r:?}", regime.name()),
        }
    }
    let m = svc.shutdown();
    assert_eq!(m.completed(), 2 * EngineRegime::ALL.len() as u64);
}

#[test]
fn repeated_programs_hit_the_cache() {
    let svc = Service::start(config(2, 64));
    let program = square(9);
    let mut hits = 0;
    for _ in 0..8 {
        let t = svc
            .submit(Request::new(Arc::clone(&program), EngineRegime::Static(2)))
            .expect("admitted");
        match t.wait() {
            Reply::Completed(c) => hits += u64::from(c.cache_hit),
            Reply::Rejected(r) => panic!("rejected {r:?}"),
        }
    }
    // sequential waits: after the first compile, every run is a hit
    assert_eq!(hits, 7);
    assert_eq!(svc.cached_programs(), 1);
    let m = svc.shutdown();
    assert!(m.cache_hits() >= 1, "metrics observed the hits");
    assert_eq!(m.cache_hits(), 7);
    assert_eq!(m.cache_misses(), 1);
}

#[test]
fn deadline_cancels_an_infinite_reference_run() {
    let svc = Service::start(config(2, 8));
    let t = svc
        .submit(
            Request::new(spin(), EngineRegime::Reference)
                .fuel(u64::MAX)
                .deadline(Duration::from_millis(10)),
        )
        .expect("admitted");
    match t.wait() {
        Reply::Rejected(Rejection::DeadlineExpired) => {}
        other => panic!("expected a deadline rejection, got {other:?}"),
    }
    let m = svc.shutdown();
    assert_eq!(
        m.regimes[EngineRegime::Reference.index()].deadline_expired,
        1
    );
}

#[test]
fn already_expired_deadline_rejects_without_running() {
    let svc = Service::start(config(1, 8));
    let t = svc
        .submit(Request::new(square(3), EngineRegime::Baseline).deadline(Duration::ZERO))
        .expect("admitted");
    match t.wait() {
        Reply::Rejected(Rejection::DeadlineExpired) => {}
        other => panic!("expected a deadline rejection, got {other:?}"),
    }
    // nothing was compiled for it
    assert_eq!(svc.cached_programs(), 0);
    svc.shutdown();
}

#[test]
fn fuel_exhaustion_is_a_structured_rejection() {
    let svc = Service::start(config(2, 8));
    let t = svc
        .submit(Request::new(spin(), EngineRegime::Tos).fuel(10_000))
        .expect("admitted");
    match t.wait() {
        Reply::Rejected(Rejection::FuelExhausted) => {}
        other => panic!("expected a fuel rejection, got {other:?}"),
    }
    let m = svc.shutdown();
    assert_eq!(m.regimes[EngineRegime::Tos.index()].fuel_exhausted, 1);
}

#[test]
fn traps_are_outcomes_not_rejections() {
    use stackcache_harness::Trap;
    let svc = Service::start(config(2, 8));
    let p = Arc::new(program_of(&[
        Inst::Lit(1),
        Inst::Lit(0),
        Inst::Div,
        Inst::Halt,
    ]));
    let t = svc
        .submit(Request::new(p, EngineRegime::Dyncache))
        .expect("admitted");
    match t.wait() {
        Reply::Completed(c) => assert_eq!(c.outcome.trap, Some(Trap::DivisionByZero)),
        Reply::Rejected(r) => panic!("a trap is an outcome, got rejection {r:?}"),
    }
    let m = svc.shutdown();
    assert_eq!(m.regimes[EngineRegime::Dyncache.index()].traps, 1);
}

/// The ticket's reply, or `None` if none arrives within `limit` — a dead
/// worker would leave [`Ticket::wait`] blocked forever.
fn wait_for(t: &Ticket, limit: Duration) -> Option<Reply> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(reply) = t.try_wait() {
            return Some(reply);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn overflowing_division_completes_and_the_worker_survives() {
    // i64::MIN / -1 wraps to MIN (remainder 0) in every regime; a
    // panicking engine would take the only worker down with it
    let svc = Service::start(config(1, 64));
    for (op, expect) in [(Inst::Div, i64::MIN), (Inst::Mod, 0)] {
        let p = Arc::new(program_of(&[
            Inst::Lit(i64::MIN),
            Inst::Lit(-1),
            op,
            Inst::Halt,
        ]));
        for regime in EngineRegime::ALL {
            let t = svc
                .submit(Request::new(Arc::clone(&p), regime))
                .expect("admitted");
            match wait_for(&t, Duration::from_secs(10)) {
                Some(Reply::Completed(c)) => {
                    assert_eq!(c.outcome.trap, None, "{op} {}", regime.name());
                    assert_eq!(c.outcome.stack, [expect], "{op} {}", regime.name());
                }
                other => panic!(
                    "{op} {}: expected a completed run, got {other:?}",
                    regime.name()
                ),
            }
        }
    }
    let t = svc
        .submit(Request::new(square(3), EngineRegime::Baseline))
        .expect("admitted");
    match wait_for(&t, Duration::from_secs(10)) {
        Some(Reply::Completed(c)) => assert_eq!(c.outcome.output, b"9 "),
        other => panic!("the next request must complete, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn static_reconciliation_underflow_traps_and_the_worker_survives() {
    // `w` drops one cell per call and recurses: the analysis cannot bound
    // its demand, so the request runs with every check, and the static
    // engine's reconciliation before the second recursive call finds
    // nothing to load. A panicking engine would take the only worker down.
    let mut b = ProgramBuilder::new();
    let w = b.new_label();
    b.push(Inst::Lit(1));
    b.call(w);
    b.push(Inst::Halt);
    b.bind(w).unwrap();
    b.push(Inst::Drop);
    b.call(w);
    b.push(Inst::Return);
    let p = Arc::new(b.finish().unwrap());
    let svc = Service::start(config(1, 64));
    for regime in EngineRegime::ALL {
        let t = svc
            .submit(Request::new(Arc::clone(&p), regime))
            .expect("admitted");
        match wait_for(&t, Duration::from_secs(10)) {
            Some(Reply::Completed(c)) => assert_eq!(
                c.outcome.trap,
                Some(stackcache_harness::Trap::StackUnderflow),
                "{}",
                regime.name()
            ),
            other => panic!("{}: expected a trapped run, got {other:?}", regime.name()),
        }
    }
    let t = svc
        .submit(Request::new(square(3), EngineRegime::Baseline))
        .expect("admitted");
    match wait_for(&t, Duration::from_secs(10)) {
        Some(Reply::Completed(c)) => assert_eq!(c.outcome.output, b"9 "),
        other => panic!("the next request must complete, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn full_queue_rejects_at_admission_and_accepted_jobs_still_answer() {
    // one worker pinned on slow jobs, capacity 2: submissions must start
    // bouncing with QueueFull, and every accepted ticket still resolves
    let svc = Service::start(config(1, 2));
    let slow = Request::new(spin(), EngineRegime::Baseline).fuel(20_000_000);
    let mut tickets = Vec::new();
    let mut saw_full = false;
    for _ in 0..64 {
        match svc.submit(slow.clone()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull) => {
                saw_full = true;
                break;
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }
    assert!(saw_full, "a 2-slot queue behind one worker must fill");
    assert!(tickets.len() >= 2, "some jobs were accepted");
    for t in tickets {
        match t.wait() {
            Reply::Rejected(Rejection::FuelExhausted) => {}
            other => panic!("slow job should exhaust fuel, got {other:?}"),
        }
    }
    let m = svc.shutdown();
    assert!(m.rejected_queue_full >= 1);
}

#[test]
fn shutdown_drains_every_accepted_job() {
    let svc = Service::start(config(2, 64));
    let tickets: Vec<_> = (0..32)
        .map(|i| {
            svc.submit(Request::new(square(i), EngineRegime::Static(1)))
                .expect("admitted")
        })
        .collect();
    let m = svc.shutdown();
    assert_eq!(m.completed(), 32, "shutdown ran every accepted job");
    for t in tickets {
        match t.wait() {
            Reply::Completed(c) => assert_eq!(c.outcome.trap, None),
            Reply::Rejected(r) => panic!("drained job rejected: {r:?}"),
        }
    }
}

#[test]
fn submitting_after_shutdown_is_refused() {
    let svc = Service::start(config(1, 4));
    let m = {
        let t = svc
            .submit(Request::new(square(2), EngineRegime::Reference))
            .expect("admitted");
        let _ = t.wait();
        // shutdown consumes the service; clone the bits we assert on first
        svc.shutdown()
    };
    assert_eq!(m.completed(), 1);
}

#[test]
fn abort_refuses_pending_jobs_and_cancels_in_flight_reference_runs() {
    let svc = Service::start(config(1, 32));
    // the worker picks this up and spins until cancelled
    let in_flight = svc
        .submit(Request::new(spin(), EngineRegime::Reference).fuel(u64::MAX))
        .expect("admitted");
    // wait for the worker to actually start it
    while svc.metrics().cache_misses() == 0 {
        std::thread::yield_now();
    }
    let pending: Vec<_> = (0..8)
        .map(|i| {
            svc.submit(Request::new(square(i), EngineRegime::Baseline))
                .expect("admitted")
        })
        .collect();
    let m = svc.abort();
    match in_flight.wait() {
        Reply::Rejected(Rejection::ShutDown) => {}
        other => panic!("in-flight run should be cancelled, got {other:?}"),
    }
    for t in pending {
        match t.wait() {
            Reply::Rejected(Rejection::ShutDown) => {}
            other => panic!("pending job should be refused, got {other:?}"),
        }
    }
    assert!(m.rejected_shutdown >= 9);
}

/// A push-per-iteration counted loop: the quick admission-path budget
/// can only guard it; the deep re-admission budget proves it total.
fn guarded_at_first_sight() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let top = b.new_label();
    let out = b.new_label();
    b.entry_here();
    b.push(Inst::Lit(20));
    b.bind(top).unwrap();
    b.push(Inst::Dup);
    b.push(Inst::OneMinus);
    b.push(Inst::Dup);
    b.push(Inst::ZeroGt);
    b.branch_if_zero(out);
    b.branch(top);
    b.bind(out).unwrap();
    b.push(Inst::Halt);
    Arc::new(b.finish().unwrap())
}

/// The re-admission loop through the service: a guarded-at-first-sight
/// workload runs with underflow checks elided only; one upgrade pass
/// re-proves it under the deep budget; afterwards the same requests run
/// fully unchecked with byte-identical replies, and the whole story is
/// visible in the metrics (admission distribution and upgrade counter).
#[test]
fn upgrade_pass_moves_a_guarded_workload_to_the_unchecked_tier() {
    let svc = Service::start(config(2, 64));
    let program = guarded_at_first_sight();
    let before: Vec<_> = (0..4)
        .map(|_| {
            svc.submit(Request::new(Arc::clone(&program), EngineRegime::Tos))
                .expect("admitted")
                .wait()
        })
        .collect();
    let m = svc.metrics();
    assert_eq!(m.admitted_guarded, 4, "quick analysis can only guard");
    assert_eq!(m.admitted_unchecked, 0);
    assert_eq!(m.analysis_upgrades, 0);

    let stats = svc.upgrade_pass();
    assert_eq!(
        (stats.scanned, stats.upgraded, stats.fuel_proofs),
        (1, 1, 1)
    );
    let again = svc.upgrade_pass();
    assert_eq!(again.scanned, 0, "second pass finds nothing to do");

    let after: Vec<_> = (0..4)
        .map(|_| {
            svc.submit(Request::new(Arc::clone(&program), EngineRegime::Tos))
                .expect("admitted")
                .wait()
        })
        .collect();
    for (b, a) in before.iter().zip(&after) {
        match (b, a) {
            (Reply::Completed(b), Reply::Completed(a)) => {
                assert_eq!(b.outcome.output, a.outcome.output);
                assert_eq!(b.outcome.stack, a.outcome.stack);
                assert_eq!(b.outcome.trap, None);
                assert_eq!(a.outcome.trap, None);
            }
            other => panic!("rejected: {other:?}"),
        }
    }
    let m = svc.shutdown();
    assert_eq!(m.analysis_upgrades, 1);
    assert_eq!(
        m.admitted_unchecked, 4,
        "post-upgrade requests run unchecked"
    );
    assert_eq!(m.admitted_guarded, 4);
    let tos = &m.regimes[EngineRegime::Tos.index()];
    assert_eq!(tos.traps, 0, "zero divergences across the swap");
    assert_eq!(tos.completed, 8);
}

/// The background upgrader thread performs the same swap on its own:
/// submit a guarded program, wait for the interval to elapse, and watch
/// the upgrade counter move without any synchronous pass.
#[test]
fn background_upgrader_thread_upgrades_on_its_interval() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        cache_shards: 4,
        upgrade_interval: Some(Duration::from_millis(10)),
        ..ServiceConfig::default()
    });
    let program = guarded_at_first_sight();
    match svc
        .submit(Request::new(Arc::clone(&program), EngineRegime::Tos))
        .expect("admitted")
        .wait()
    {
        Reply::Completed(c) => assert_eq!(c.outcome.trap, None),
        other => panic!("rejected: {other:?}"),
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while svc.metrics().analysis_upgrades == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "background pass never ran"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    match svc
        .submit(Request::new(program, EngineRegime::Tos))
        .expect("admitted")
        .wait()
    {
        Reply::Completed(c) => assert_eq!(c.outcome.trap, None),
        other => panic!("rejected: {other:?}"),
    }
    let m = svc.shutdown();
    assert_eq!(m.analysis_upgrades, 1);
    assert_eq!(m.admitted_unchecked, 1);
    assert_eq!(m.admitted_guarded, 1);
}
