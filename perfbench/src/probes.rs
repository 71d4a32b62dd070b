//! Layer probes for a traced run: each layer's public function timed
//! directly, on inputs shaped like the workload's own requests, with a
//! span around every call.

use std::sync::Arc;
use std::time::Instant;

use stackcache_analysis::analyze;
use stackcache_core::{CompiledArtifact, EngineRegime};
use stackcache_net::wire::trap_to_code;
use stackcache_net::{
    decode_frame, Client, Frame, NetConfig, NetServer, ReplyStatus, WireReply, DEFAULT_MAX_FRAME,
};
use stackcache_svc::{MetricsSnapshot, Service, ServiceConfig};
use stackcache_vm::{program_of, Inst, Machine};

use crate::inputs::{
    machine_agrees, reference_outcome, regime_name, reply_agrees, salt, Case, ProgramStream, FUEL,
};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{Metrics, Tally};

/// Fresh programs each miss-path probe (compile, JIT compile, analysis)
/// runs over.
const FRESH: usize = 64;

/// Runs per regime of the 3-instruction fixed-cost program.
const FIXED_RUNS: usize = 300;

/// Passes over the pool for the per-request engine cost.
const REQ_PASSES: usize = 3;

/// Loopback pings timed.
const PINGS: usize = 1000;

/// Timed in-process service requests (a cycle over the shaped requests).
const INPROC_REQUESTS: usize = 1024;

fn us(t0: Instant, t1: Instant) -> f64 {
    (t1 - t0).as_secs_f64() * 1e6
}

/// Per-run fixed cost of every engine: a 3-instruction program.
pub fn engine_fixed(tracer: &mut Tracer, m: &mut Metrics, tally: &mut Tally) {
    let program = program_of(&[Inst::Lit(1), Inst::Drop, Inst::Halt]);
    let proto = Machine::with_memory(stackcache_harness::MEMORY_BYTES);
    let want = reference_outcome(&program, &proto, FUEL);
    let arts: Vec<CompiledArtifact> = EngineRegime::ALL
        .iter()
        .map(|&r| CompiledArtifact::compile(&program, r, false))
        .collect();
    let mut samples = vec![Vec::new(); arts.len()];
    let mut machine = proto.clone();
    for i in 0..=FIXED_RUNS {
        for (r, art) in arts.iter().enumerate() {
            machine.reset_from(&proto);
            let t0 = Instant::now();
            let result = art.run(&mut machine, FUEL);
            let t1 = Instant::now();
            tally.check(machine_agrees(&machine, &result, &want));
            // the first round warms the JIT block and the quickening
            if i > 0 {
                tracer.record("engine.fixed", 0, r as u64, t0, t1);
                samples[r].push(us(t0, t1));
            }
        }
    }
    for (r, s) in EngineRegime::ALL.iter().zip(&samples) {
        m.push(
            &format!("engine.fixed_us.{}", regime_name(*r)),
            median(s),
            "us",
        );
    }
}

/// Direct warm runs of the serve pool's programs on every engine.
pub fn engine_requests(
    pool: &[Arc<Case>],
    tracer: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    // the pool repeats each program once per E2E regime; take it once
    let programs: Vec<&Arc<Case>> = pool
        .iter()
        .filter(|c| c.request.regime == EngineRegime::Reference)
        .collect();
    let mut samples = vec![Vec::new(); EngineRegime::ALL.len()];
    for (r, &regime) in EngineRegime::ALL.iter().enumerate() {
        for case in &programs {
            let art = CompiledArtifact::compile(&case.request.program, regime, false);
            let proto = case.proto();
            let mut machine = proto.clone();
            for pass in 0..=REQ_PASSES {
                machine.reset_from(&proto);
                let t0 = Instant::now();
                let result = art.run(&mut machine, FUEL);
                let t1 = Instant::now();
                tally.check(machine_agrees(&machine, &result, &case.expected));
                if pass > 0 {
                    tracer.record("engine.req", 0, r as u64, t0, t1);
                    samples[r].push(us(t0, t1));
                }
            }
        }
    }
    for (r, s) in EngineRegime::ALL.iter().zip(&samples) {
        m.push(
            &format!("engine.req_us.{}", regime_name(*r)),
            median(s),
            "us",
        );
    }
}

/// The miss path outside the service: compile per regime, the JIT's
/// first-run compile, and the admission analysis, on fresh programs.
pub fn miss_path(seed: u64, tracer: &mut Tracer, m: &mut Metrics, tally: &mut Tally) {
    let mut stream = ProgramStream::new(seed, salt::PROBE);
    let fresh: Vec<_> = (0..FRESH).map(|_| stream.next_program()).collect();
    let mut compile = vec![Vec::new(); EngineRegime::ALL.len()];
    let (mut jit, mut quick) = (Vec::new(), Vec::new());
    for (i, (program, proto, want)) in fresh.iter().enumerate() {
        for (r, &regime) in EngineRegime::ALL.iter().enumerate() {
            let t0 = Instant::now();
            let art = CompiledArtifact::compile(program, regime, false);
            let t1 = Instant::now();
            tracer.record("compile", 0, i as u64, t0, t1);
            compile[r].push(us(t0, t1));
            if regime == EngineRegime::Jit {
                let mut first = proto.clone();
                let t0 = Instant::now();
                let r1 = art.run(&mut first, FUEL);
                let t1 = Instant::now();
                let mut warm = proto.clone();
                let r2 = art.run(&mut warm, FUEL);
                let t2 = Instant::now();
                tally.check(machine_agrees(&first, &r1, want));
                tally.check(machine_agrees(&warm, &r2, want));
                tracer.record("jit.first_run", 0, i as u64, t0, t1);
                tracer.record("jit.warm_run", 0, i as u64, t1, t2);
                jit.push(us(t0, t1) - us(t1, t2));
            }
        }
        let t0 = Instant::now();
        let analysis = analyze(program, Some(proto));
        let t1 = Instant::now();
        std::hint::black_box(&analysis);
        tracer.record("analysis.analyze", 0, i as u64, t0, t1);
        quick.push(us(t0, t1));
    }
    for (r, s) in EngineRegime::ALL.iter().zip(&compile) {
        m.push(&format!("compile_us.{}", regime_name(*r)), median(s), "us");
    }
    m.push("jit.compile_us", median(&jit), "us");
    m.push("analysis.quick_us", median(&quick), "us");
}

/// Encode and decode the workload's request frames and their replies.
pub fn wire(cases: &[Arc<Case>], tracer: &mut Tracer, m: &mut Metrics, tally: &mut Tally) {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (i, case) in cases.iter().enumerate() {
        let want = &case.expected;
        let reply = WireReply {
            status: if want.trap.is_some() {
                ReplyStatus::Trap
            } else {
                ReplyStatus::Ok
            },
            trap_code: want.trap.map_or(0, trap_to_code),
            cache_hit: true,
            request_id: i as u64 + 1,
            latency_nanos: 0,
            executed: want.executed,
            memory_hash: stackcache_net::fnv1a64(&want.memory),
            stack: want.stack.clone(),
            rstack: want.rstack.clone(),
            output: want.output.clone(),
            message: String::new(),
        };
        let corr = i as u64 + 1;
        let t0 = Instant::now();
        let submit = Frame::Submit {
            corr,
            request: case.request.clone(),
        }
        .encode();
        let answer = Frame::Reply { corr, reply }.encode();
        let t1 = Instant::now();
        let back_submit = decode_frame(&submit, DEFAULT_MAX_FRAME);
        let back_reply = decode_frame(&answer, DEFAULT_MAX_FRAME);
        let t2 = Instant::now();
        let ok = matches!(back_submit, Ok(Frame::Submit { .. }))
            && matches!(back_reply, Ok(Frame::Reply { reply, .. }) if reply.differs_from(want).is_none());
        tally.check(ok);
        tracer.record("wire.encode", 0, corr, t0, t1);
        tracer.record("wire.decode", 0, corr, t1, t2);
        enc.push(us(t0, t1));
        dec.push(us(t1, t2));
        bytes.push(submit.len() as f64);
    }
    m.push("wire.encode_us", median(&enc), "us");
    m.push("wire.decode_us", median(&dec), "us");
    m.push("wire.request_bytes", median(&bytes), "bytes");
}

/// Loopback round trips through the evented server with no work behind
/// them.
///
/// # Panics
///
/// Panics if the loopback server cannot bind or the client cannot connect.
pub fn evio_ping(tracer: &mut Tracer, m: &mut Metrics, tally: &mut Tally) {
    let server = NetServer::start(
        Service::start(ServiceConfig::default()),
        NetConfig::default(),
    )
    .expect("bind a loopback server");
    let client = Client::connect(server.addr(), 2).expect("connect to the server");
    let mut samples = Vec::with_capacity(PINGS);
    for i in 0..PINGS + 10 {
        let t0 = Instant::now();
        let ok = client.ping().is_ok();
        let t1 = Instant::now();
        tally.check(ok);
        if i >= 10 {
            tracer.record("evio.ping", 0, i as u64, t0, t1);
            samples.push(us(t0, t1));
        }
    }
    let _ = client.goodbye();
    let _ = server.shutdown();
    m.push("evio.ping_us", median(&samples), "us");
}

/// In-process `Service::submit` → `Ticket::wait` for the workload's
/// request shape, one at a time. With `warm`, every request is sent once
/// before timing (the hit path); otherwise each timed request is new to
/// the service (the miss path). Returns the service's counters before
/// and after the timed requests.
///
/// # Panics
///
/// Panics if the service refuses a submission.
pub fn svc_inproc(
    cases: &[Arc<Case>],
    warm: bool,
    tracer: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> (MetricsSnapshot, MetricsSnapshot) {
    let service = Service::start(ServiceConfig::default());
    if warm {
        for case in cases {
            let reply = service
                .submit(case.request.to_request())
                .expect("admitted")
                .wait();
            tally.check(reply_agrees(&reply, &case.expected));
        }
    }
    let before = service.metrics();
    let n = if warm { INPROC_REQUESTS } else { cases.len() };
    let mut samples = Vec::with_capacity(n);
    for (i, case) in cases.iter().cycle().take(n).enumerate() {
        let request = case.request.to_request();
        let t0 = Instant::now();
        let reply = service.submit(request).expect("admitted").wait();
        let t1 = Instant::now();
        tally.check(reply_agrees(&reply, &case.expected));
        tracer.record("svc.inproc", 0, i as u64, t0, t1);
        samples.push(us(t0, t1));
    }
    let after = service.metrics();
    drop(service.shutdown());
    m.push("svc.inproc_us", median(&samples), "us");
    (before, after)
}

/// The service's share of admissions at `Checks::None`, its hit ratio and
/// its evictions between two snapshots.
pub fn svc_counters(before: &MetricsSnapshot, after: &MetricsSnapshot, m: &mut Metrics) {
    let admitted = after.admitted_unchecked + after.admitted_guarded + after.admitted_checked;
    m.push(
        "svc.unchecked_share",
        ratio(after.admitted_unchecked, admitted),
        "ratio",
    );
    let hits = after.cache_hits() - before.cache_hits();
    let misses = after.cache_misses() - before.cache_misses();
    m.push("svc.hit_ratio", ratio(hits, hits + misses), "ratio");
    m.push(
        "svc.evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
        "count",
    );
}

/// The JIT block cache's hit ratio and deopts per JIT run between two
/// snapshots.
pub fn jit_counters(
    before: &stackcache_jit::JitStats,
    after: &stackcache_jit::JitStats,
    jit_runs: u64,
    m: &mut Metrics,
) {
    let hits = after.cache_hits - before.cache_hits;
    let compiled = after.compiled - before.compiled;
    m.push("jit.hit_ratio", ratio(hits, hits + compiled), "ratio");
    m.push(
        "jit.deopts_per_req",
        ratio(after.deopts - before.deopts, jit_runs),
        "1/req",
    );
}
