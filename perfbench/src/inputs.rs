//! Seeded inputs and the output gate.
//!
//! Every input is generated from the run's seed, and its expected outcome
//! (stacks, output, memory, trap) is computed once during set-up by the
//! independent reference interpreter, `vm::exec`. Every run and every
//! reply is compared against that outcome.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use stackcache_core::EngineRegime;
use stackcache_harness::{gen, Outcome, Trap, MEMORY_BYTES};
use stackcache_net::{Frame, WireReply, WireRequest};
use stackcache_svc::Reply;
use stackcache_vm::{exec, Machine, Program, Rng, VmError};

/// Instruction budget for every generated request.
pub const FUEL: u64 = 1_000_000;

/// The eight regimes the end-to-end metrics cover: the paper's engine
/// ladder with one static depth, plus the superinstruction tiers and the
/// JIT.
pub const E2E_REGIMES: [EngineRegime; 8] = [
    EngineRegime::Reference,
    EngineRegime::Baseline,
    EngineRegime::Tos,
    EngineRegime::Dyncache,
    EngineRegime::Static(1),
    EngineRegime::Fused,
    EngineRegime::Quickened,
    EngineRegime::Jit,
];

/// A metric-safe regime name: `static1` rather than `static(c=1)`.
#[must_use]
pub fn regime_name(r: EngineRegime) -> String {
    match r {
        EngineRegime::Static(c) => format!("static{c}"),
        other => other.name(),
    }
}

/// The reference interpreter's outcome for `program` from `proto`.
#[must_use]
pub fn reference_outcome(program: &Program, proto: &Machine, fuel: u64) -> Outcome {
    let mut m = proto.clone();
    let result = exec::run(program, &mut m, fuel).map(|o| o.executed);
    Outcome::capture(&m, result)
}

/// Whether a finished in-process run matches the reference outcome.
#[must_use]
pub fn machine_agrees(m: &Machine, result: &Result<u64, VmError>, want: &Outcome) -> bool {
    result.as_ref().err().map(Trap::from) == want.trap
        && m.stack() == want.stack
        && m.rstack() == want.rstack
        && m.output() == want.output
        && m.memory() == want.memory
}

/// Whether an in-process service reply completed and matches the
/// reference outcome.
#[must_use]
pub fn reply_agrees(reply: &Reply, want: &Outcome) -> bool {
    matches!(reply, Reply::Completed(c) if want.first_difference(&c.outcome, false).is_none())
}

/// Whether a wire reply matches the reference outcome.
#[must_use]
pub fn wire_agrees(reply: &WireReply, want: &Outcome) -> bool {
    reply.differs_from(want).is_none()
}

/// One request with its expected outcome.
#[derive(Debug, Clone)]
pub struct Case {
    /// The request as the client sends it.
    pub request: WireRequest,
    /// The reference outcome every engine must reproduce.
    pub expected: Arc<Outcome>,
    /// Length of the encoded `Submit` frame.
    pub request_bytes: u64,
    /// Instructions the reference interpreter executed.
    pub executed: u64,
}

impl Case {
    fn new(
        program: Arc<Program>,
        proto: &Machine,
        expected: Arc<Outcome>,
        regime: EngineRegime,
    ) -> Case {
        let mut request = WireRequest::new(program, regime).fuel(FUEL);
        request.stack = proto.stack().to_vec();
        request.rstack = proto.rstack().to_vec();
        request.memory = proto.memory().to_vec();
        let request_bytes = Frame::Submit {
            corr: 1,
            request: request.clone(),
        }
        .encode()
        .len() as u64;
        let executed = expected.executed.unwrap_or(0);
        Case {
            request,
            expected,
            request_bytes,
            executed,
        }
    }

    /// The starting machine this case's request names.
    #[must_use]
    pub fn proto(&self) -> Machine {
        let mut m = Machine::with_memory(self.request.memory.len());
        m.memory_mut().copy_from_slice(&self.request.memory);
        m.set_stack(&self.request.stack);
        m.set_rstack(&self.request.rstack);
        m
    }
}

/// A deterministic stream of distinct generated programs, rotating over
/// the harness's structured, memory-fodder and call-nest families. The
/// generators repeat a program now and then; the stream drops repeats by
/// text, so every program it yields is new to a cache.
#[derive(Debug)]
pub struct ProgramStream {
    rng: Rng,
    seen: HashSet<u64>,
    next_family: usize,
}

impl ProgramStream {
    /// A stream for `seed`, salted per use so streams do not overlap.
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> ProgramStream {
        ProgramStream {
            rng: seeded(seed, salt),
            seen: HashSet::new(),
            next_family: 0,
        }
    }

    /// The next distinct program, its starting machine and its reference
    /// outcome.
    pub fn next_program(&mut self) -> (Arc<Program>, Machine, Arc<Outcome>) {
        loop {
            let rng = &mut self.rng;
            let (program, proto) = match self.next_family % 3 {
                0 => (
                    gen::structured_program(rng),
                    Machine::with_memory(MEMORY_BYTES),
                ),
                1 => {
                    let proto = gen::seeded_machine(rng, MEMORY_BYTES, 6);
                    let choices = gen::random_choices(rng, 100, 1 << 20);
                    (gen::memory_fodder(&choices, MEMORY_BYTES), proto)
                }
                _ => (
                    gen::call_nest_program(rng, 4),
                    Machine::with_memory(MEMORY_BYTES),
                ),
            };
            self.next_family += 1;
            let mut h = DefaultHasher::new();
            program.insts().hash(&mut h);
            program.entry().hash(&mut h);
            if !self.seen.insert(h.finish()) {
                continue;
            }
            let expected = Arc::new(reference_outcome(&program, &proto, FUEL));
            return (Arc::new(program), proto, expected);
        }
    }

    /// The next distinct program as a request on a seeded E2E regime.
    pub fn next_case(&mut self) -> Case {
        let (program, proto, expected) = self.next_program();
        let regime = *self.rng.pick(&E2E_REGIMES);
        Case::new(program, &proto, expected, regime)
    }
}

/// A generator for `seed` under `salt`: every (seed, salt) pair starts
/// its own sequence (a SplitMix64 finalizer spreads both over all bits).
#[must_use]
pub fn seeded(seed: u64, salt: u64) -> Rng {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Rng::new(z ^ (z >> 31))
}

/// Stream salts: the serve pool, the churn stream and the layer probes
/// draw disjoint sequences from one seed.
pub mod salt {
    /// The serve pool.
    pub const POOL: u64 = 1;
    /// The churn request stream.
    pub const CHURN: u64 = 2;
    /// Fresh programs for the miss-path layer probes.
    pub const PROBE: u64 = 3;
    /// Fresh requests for the churn-shaped in-process service probe.
    pub const INPROC: u64 = 4;
    /// The suite's run order.
    pub const ORDER: u64 = 5;
    /// Load thread `t` picks pool entries from `LOAD + t`.
    pub const LOAD: u64 = 6;
}

/// Distinct programs in the serve pool. With the eight E2E regimes the
/// pool is 1536 requests: inside the service's 4096-artifact cache, and
/// its 192 JIT programs inside the JIT's 256-entry block cache. Generated
/// programs vary widely in size; a pool this large keeps the mix, and so
/// the latency tail, nearly the same from one seed to the next.
pub const POOL_PROGRAMS: usize = 192;

/// The serve pool: `POOL_PROGRAMS` programs × the eight E2E regimes.
#[must_use]
pub fn serve_pool(seed: u64) -> Vec<Case> {
    let mut stream = ProgramStream::new(seed, salt::POOL);
    let mut cases = Vec::with_capacity(POOL_PROGRAMS * E2E_REGIMES.len());
    for _ in 0..POOL_PROGRAMS {
        let (program, proto, expected) = stream.next_program();
        for regime in E2E_REGIMES {
            cases.push(Case::new(
                Arc::clone(&program),
                &proto,
                Arc::clone(&expected),
                regime,
            ));
        }
    }
    cases
}

/// The first `n` churn programs for `seed` (the self-test compares seeds).
#[must_use]
pub fn churn_programs(seed: u64, n: usize) -> Vec<Arc<Program>> {
    let mut stream = ProgramStream::new(seed, salt::CHURN);
    (0..n).map(|_| stream.next_case().request.program).collect()
}
