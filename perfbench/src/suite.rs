//! `suite`: warm artifacts of the four full-scale Fig. 20 programs on
//! every regime, one thread, in process, no service. Runs are interleaved
//! round-robin one run at a time in a seeded order, so host drift lands on
//! every regime alike, and nothing queues in front of the engine.

use std::time::{Duration, Instant};

use stackcache_core::{CompiledArtifact, EngineRegime};
use stackcache_harness::Outcome;
use stackcache_vm::Machine;
use stackcache_workloads::{all_workloads, Scale, Workload};

use crate::inputs::{machine_agrees, reference_outcome, regime_name, salt, seeded};
use crate::stats::{cpu_time, median, Cpu};
use crate::trace::Tracer;

/// The four programs, their warm artifacts (per program, in the order of
/// the regimes they were compiled for) and their reference outcomes.
pub struct Suite {
    /// The full-scale Fig. 20 programs.
    pub workloads: Vec<Workload>,
    /// Starting machine of each program.
    pub protos: Vec<Machine>,
    /// Reference outcome of each program.
    pub expected: Vec<Outcome>,
    /// The regimes compiled, in artifact order.
    pub regimes: Vec<EngineRegime>,
    /// `artifacts[program][regime]`.
    pub artifacts: Vec<Vec<CompiledArtifact>>,
}

impl Suite {
    /// Instructions the reference interpreter executes for program `p`.
    #[must_use]
    pub fn executed(&self, p: usize) -> u64 {
        self.expected[p].executed.unwrap_or(0)
    }
}

/// Build the programs, compile every artifact and make the first run of
/// each, which fills the JIT's blocks and the quickening rewrites.
/// Returns the suite, the set-up's CPU time (Forth build, compiles and
/// first runs, without the reference runs of the output gate) and how
/// many first runs disagreed with the reference.
#[must_use]
pub fn set_up(regimes: &[EngineRegime]) -> (Suite, Duration, u64) {
    stackcache_jit::invalidate();
    let t = cpu_time(Cpu::Thread);
    let workloads = all_workloads(Scale::Full);
    let mut spent = cpu_time(Cpu::Thread) - t;
    let protos: Vec<Machine> = workloads.iter().map(|w| w.image.machine()).collect();
    let expected: Vec<Outcome> = workloads
        .iter()
        .zip(&protos)
        .map(|(w, m)| reference_outcome(&w.image.program, m, w.fuel()))
        .collect();
    let mut failed = 0;
    let mut artifacts = Vec::new();
    for (p, w) in workloads.iter().enumerate() {
        let mut row = Vec::new();
        for &regime in regimes {
            let mut m = protos[p].clone();
            let t = cpu_time(Cpu::Thread);
            let art = CompiledArtifact::compile(&w.image.program, regime, false);
            let result = art.run(&mut m, w.fuel());
            spent += cpu_time(Cpu::Thread) - t;
            failed += u64::from(!machine_agrees(&m, &result, &expected[p]));
            row.push(art);
        }
        artifacts.push(row);
    }
    let suite = Suite {
        workloads,
        protos,
        expected,
        regimes: regimes.to_vec(),
        artifacts,
    };
    (suite, spent, failed)
}

/// When a measuring loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the round in which this instant passes.
    At(Instant),
    /// After this many runs, mid-round if need be.
    Runs(u64),
    /// After this many whole rounds.
    Rounds(u64),
}

/// What the measuring loop saw.
#[derive(Debug, Default)]
pub struct Measured {
    /// Warm-run CPU times in ms, `samples[program][regime]`.
    pub samples: Vec<Vec<Vec<f64>>>,
    /// Loop iteration (reset, run, check) wall times in ns, split by
    /// whether spans were being recorded: `iters[traced][program][regime]`.
    pub iters: [Vec<Vec<Vec<f64>>>; 2],
    /// Runs made.
    pub attempted: u64,
    /// Runs whose outcome disagreed with the reference.
    pub failed: u64,
    /// Runs on the JIT regime.
    pub jit_runs: u64,
    /// Wall time of the whole loop.
    pub elapsed: Duration,
}

/// Run every (program, regime) pair once per round, in an order the seed
/// shuffles afresh each round. With a traced `tracer`, spans are recorded
/// on every other run, so the loop itself measures their cost.
pub fn measure(suite: &Suite, seed: u64, stop: Stop, tracer: &mut Tracer) -> Measured {
    let (np, nr) = (suite.workloads.len(), suite.regimes.len());
    let grid = || vec![vec![Vec::new(); nr]; np];
    let mut out = Measured {
        samples: grid(),
        iters: [grid(), grid()],
        ..Measured::default()
    };
    let tracing = tracer.on();
    let mut rng = seeded(seed, salt::ORDER);
    let mut order: Vec<(usize, usize)> =
        (0..np).flat_map(|p| (0..nr).map(move |r| (p, r))).collect();
    let mut m = Machine::new();
    let start = Instant::now();
    let mut rounds = 0;
    'rounds: loop {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i + 1));
        }
        for &(p, r) in &order {
            if matches!(stop, Stop::Runs(n) if out.attempted >= n) {
                break 'rounds;
            }
            let traced = tracing && out.attempted.is_multiple_of(2);
            tracer.set_on(traced);
            let t_iter = Instant::now();
            m.reset_from(&suite.protos[p]);
            let t0 = Instant::now();
            let c0 = cpu_time(Cpu::Thread);
            let result = suite.artifacts[p][r].run(&mut m, suite.workloads[p].fuel());
            let c1 = cpu_time(Cpu::Thread);
            let t1 = Instant::now();
            let ok = machine_agrees(&m, &result, &suite.expected[p]);
            let t_end = Instant::now();
            let root = tracer.record("suite.run", 0, out.attempted, t_iter, t_end);
            if traced {
                let name = format!(
                    "engine.run.{}.{}",
                    regime_name(suite.regimes[r]),
                    suite.workloads[p].name
                );
                tracer.record(&name, root, out.attempted, t0, t1);
            }
            out.samples[p][r].push((c1 - c0).as_secs_f64() * 1e3);
            out.iters[usize::from(traced)][p][r].push((t_end - t_iter).as_secs_f64() * 1e9);
            out.attempted += 1;
            out.failed += u64::from(!ok);
            out.jit_runs += u64::from(suite.regimes[r] == EngineRegime::Jit);
        }
        rounds += 1;
        match stop {
            Stop::Rounds(n) if rounds >= n => break,
            Stop::At(deadline) if Instant::now() >= deadline => break,
            _ => {}
        }
    }
    tracer.set_on(tracing);
    out.elapsed = start.elapsed();
    out
}

impl Measured {
    /// Median CPU time of one (program, regime) pair's warm runs, in ms.
    /// CPU time leaves out what the hypervisor steals, which on a shared
    /// host slows whole seconds of wall time at once.
    #[must_use]
    pub fn median_ms(&self, p: usize, r: usize) -> f64 {
        median(&self.samples[p][r])
    }

    /// Every warm run's CPU time, in ms.
    #[must_use]
    pub fn all_ms(&self) -> Vec<f64> {
        self.samples.iter().flatten().flatten().copied().collect()
    }
}
