//! Helpers shared by the network integration tests.

#![allow(dead_code)] // each test binary uses its own subset

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::thread;

use stackcache_core::EngineRegime;
use stackcache_harness::{all_engines, gen, Outcome, MEMORY_BYTES};
use stackcache_net::{Client, WireRequest};
use stackcache_svc::{Service, ServiceConfig};
use stackcache_vm::{program_of, Inst, Machine, Program, Rng};

/// `Lit(k) Dup Mul Dot`: prints `k*k` and halts with an empty stack.
pub fn quick_program(k: i64) -> Arc<Program> {
    Arc::new(program_of(&[Inst::Lit(k), Inst::Dup, Inst::Mul, Inst::Dot]))
}

/// A countdown loop of `iters` iterations (~5 instructions each),
/// halting with an empty stack. Slow enough to keep a worker busy while
/// a test lines up queued or over-window submissions behind it.
pub fn slow_program(iters: i64) -> Arc<Program> {
    Arc::new(program_of(&[
        Inst::Lit(iters),
        Inst::Lit(1),
        Inst::Sub,
        Inst::Dup,
        Inst::BranchIfZero(6),
        Inst::Branch(1),
        Inst::Drop,
        Inst::Halt,
    ]))
}

/// Run the plain reference interpreter on the request's machine image —
/// the oracle every wire reply is verified against.
pub fn reference_outcome(req: &WireRequest) -> Outcome {
    let reference = all_engines().into_iter().next().expect("engine registry");
    let mut proto = Machine::with_memory(req.memory.len());
    proto.memory_mut().copy_from_slice(&req.memory);
    proto.set_stack(&req.stack);
    proto.set_rstack(&req.rstack);
    reference.run_on(&req.program, &proto, req.fuel)
}

/// A small service for loopback tests.
pub fn small_service(workers: usize) -> Service {
    Service::start(ServiceConfig {
        workers,
        queue_capacity: 256,
        ..ServiceConfig::default()
    })
}

/// A generated program as a wire request carrying its machine image,
/// with the reference interpreter's verdict.
pub struct Case {
    pub name: String,
    pub request: WireRequest,
    pub expected: Outcome,
}

/// `n` generated programs, round-robin over the structured,
/// memory-fodder (on a seeded machine image) and call-nest families.
pub fn generated_cases(seed: u64, n: usize, fuel: u64) -> Vec<Case> {
    (0..n)
        .map(|i| {
            let mut rng = Rng::new((seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
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
            let mut request =
                WireRequest::new(Arc::new(program), EngineRegime::Reference).fuel(fuel);
            request.stack = proto.stack().to_vec();
            request.rstack = proto.rstack().to_vec();
            request.memory = proto.memory().to_vec();
            let expected = reference_outcome(&request);
            Case {
                name: format!("{family}#{i}"),
                request,
                expected,
            }
        })
        .collect()
}

/// The `i`-th request of a load: cases × regimes round-robin, the
/// peephole flag alternating.
pub fn nth_request(cases: &[Case], i: usize) -> (&Case, WireRequest) {
    let case = &cases[i % cases.len()];
    let mut request = case.request.clone().peephole(i % 2 == 1);
    request.regime = EngineRegime::ALL[(i / cases.len()) % EngineRegime::ALL.len()];
    (case, request)
}

/// The divergence `reply` shows against `case`, if any.
pub fn check(
    case: &Case,
    request: &WireRequest,
    reply: &stackcache_net::WireReply,
) -> Option<String> {
    reply
        .differs_from(&case.expected)
        .map(|diff| format!("{} on {}: {diff}", case.name, request.regime.name()))
}

/// Pipeline the requests `range` of [`nth_request`] over `client`,
/// keeping a full window in flight, and return every divergence.
pub fn pipeline(client: &Client, cases: &[Case], range: Range<usize>) -> Vec<String> {
    let mut divergences = Vec::new();
    let mut inflight = VecDeque::new();
    for i in range {
        let (case, request) = nth_request(cases, i);
        inflight.push_back((case, client.submit(&request).expect("submit"), request));
        if inflight.len() >= client.window() as usize {
            let (case, pending, request) = inflight.pop_front().expect("nonempty");
            divergences.extend(check(case, &request, &pending.wait().expect("reply")));
        }
    }
    for (case, pending, request) in inflight {
        divergences.extend(check(case, &request, &pending.wait().expect("reply")));
    }
    divergences
}

/// Run `drive` on `n` concurrent connections to `addr`, each asking for
/// `window` and told its index, and collect every divergence.
pub fn on_connections(
    addr: SocketAddr,
    n: usize,
    window: u32,
    drive: impl Fn(&Client, usize) -> Vec<String> + Sync,
) -> Vec<String> {
    thread::scope(|s| {
        let conns: Vec<_> = (0..n)
            .map(|conn| {
                let drive = &drive;
                s.spawn(move || {
                    let client = Client::connect(addr, window).expect("connect");
                    let divergences = drive(&client, conn);
                    client.goodbye().expect("drain");
                    divergences
                })
            })
            .collect();
        conns
            .into_iter()
            .flat_map(|c| c.join().expect("connection thread"))
            .collect()
    })
}
