//! The oracle: run one program through every engine and configuration and
//! assert pairwise agreement, reporting the *first divergence* found.
//!
//! Three layers of cross-validation, all driven by [`cross_validate`]:
//!
//! 1. **Wall-clock engines** ([`crate::engines::all_engines`]): reference,
//!    baseline, top-of-stack, dynamically cached, and statically cached
//!    interpreters, each plain and peephole-optimized, must produce the
//!    same [`Outcome`](crate::Outcome).
//! 2. **Dynamic-cache accounting** ([`crate::lockstep::OrgCheck`]): the
//!    transition tables of the Fig. 18 organizations are replayed in
//!    lockstep with the reference execution; every transition must
//!    conserve cached items (`cached' = cached + loads − stores − pops +
//!    pushes`) and never claim more cached items than the stack holds.
//!    [`crate::lockstep::TwoStacksCheck`] runs the same accounting for
//!    the two-stacks regime, additionally bounding the cached return
//!    items by the true return-stack depth and the shared register file.
//! 3. **Static-cache counting** ([`StaticRegime`]): the static compiler
//!    under greedy/optimal/threaded-joins options must charge every
//!    executed instruction exactly once (`insts == executed`,
//!    `dispatches <= insts`).

use std::fmt;

use stackcache_core::staticcache::{self, StaticOptions, StaticRegime};
use stackcache_core::Org;
use stackcache_obs::{EventKind, FlightRecorder};
use stackcache_vm::{asm, exec, ExecEvent, ExecObserver, Machine, Program};

use crate::engines::{all_engines, MEMORY_BYTES};
use crate::lockstep::{Fault, OrgCheck, TwoStacksCheck};

/// A first-divergence report: which pair of configurations disagreed,
/// where, and how.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The two configuration names that disagree (the first is the
    /// reference side).
    pub engines: (String, String),
    /// 1-based ordinal of the executed instruction at the divergence, for
    /// lockstep checks that replay execution instruction by instruction.
    pub index: Option<u64>,
    /// Program index (`ip`) of the diverging instruction, when known.
    pub ip: Option<usize>,
    /// Rendering of the cache state at the divergence, when the diverging
    /// configuration tracks one.
    pub cache_state: Option<String>,
    /// What disagreed, with both values.
    pub detail: String,
    /// A flight-recorder trail of the reference execution (the tail of
    /// its instruction-by-instruction heartbeats), attached by
    /// [`assert_agreement`] so a divergence report shows what the run
    /// was doing when it went wrong.
    pub flight: Option<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divergence between `{}` and `{}`",
            self.engines.0, self.engines.1
        )?;
        if let Some(i) = self.index {
            write!(f, " at instruction #{i}")?;
        }
        if let Some(ip) = self.ip {
            write!(f, " (ip {ip})")?;
        }
        if let Some(s) = &self.cache_state {
            write!(f, " in cache state {s}")?;
        }
        write!(f, ": {}", self.detail)?;
        if let Some(flight) = &self.flight {
            write!(f, "\nreference flight trail (tail):\n{flight}")?;
        }
        Ok(())
    }
}

/// A successful cross-validation: how much was checked.
#[derive(Debug, Clone)]
pub struct Agreement {
    /// Total configurations that agreed (engines + dynamic-cache
    /// organizations + static compilation regimes).
    pub configs: usize,
    /// Wall-clock engine configurations among them.
    pub engine_configs: usize,
    /// Dynamic-cache organization configurations among them.
    pub org_configs: usize,
    /// Two-stacks shared-register configurations among them.
    pub twostacks_configs: usize,
    /// Static compilation regimes among them.
    pub static_configs: usize,
}

/// The shared-register-file sizes the oracle validates the two-stacks
/// regime at.
pub const ORACLE_TWOSTACKS_REGISTERS: [u8; 3] = [3, 4, 5];

/// The dynamic-cache organizations the oracle validates (Fig. 18), each
/// with its overflow-followup depth.
#[must_use]
pub fn oracle_orgs() -> Vec<(Org, u8)> {
    vec![
        (Org::minimal(1), 1),
        (Org::minimal(2), 2),
        (Org::minimal(4), 4),
        (Org::minimal(4), 2),
        (Org::overflow_opt(3), 3),
        (Org::arbitrary_shuffles(3), 3),
        (Org::n_plus_one(3), 3),
        (Org::one_dup(4), 2),
    ]
}

/// The static compilation regimes the oracle validates.
#[must_use]
pub fn oracle_static_options() -> Vec<(String, StaticOptions)> {
    let mut opts = Vec::new();
    opts.push(("greedy(c=0)".to_string(), StaticOptions::with_canonical(0)));
    opts.push(("greedy(c=2)".to_string(), StaticOptions::with_canonical(2)));
    let mut o = StaticOptions::with_canonical(2);
    o.optimal = true;
    opts.push(("optimal(c=2)".to_string(), o));
    let mut o = StaticOptions::with_canonical(2);
    o.threaded_joins = true;
    opts.push(("threaded(c=2)".to_string(), o));
    let mut o = StaticOptions::with_canonical(1);
    o.optimal = true;
    o.threaded_joins = true;
    opts.push(("optimal+threaded(c=1)".to_string(), o));
    opts
}

/// Run `program` through every engine and configuration; return how much
/// agreed, or the first divergence.
///
/// # Errors
///
/// Returns the first [`Divergence`] found, in layer order (engines, then
/// dynamic-cache accounting, then static counting).
pub fn cross_validate(program: &Program, fuel: u64) -> Result<Agreement, Box<Divergence>> {
    cross_validate_on(program, &Machine::with_memory(MEMORY_BYTES), fuel)
}

/// [`cross_validate`] starting every engine from a clone of `proto` — for
/// programs that need prepared machine state (workload images).
///
/// # Errors
///
/// Returns the first [`Divergence`] found, in layer order (engines, then
/// dynamic-cache accounting, then static counting).
pub fn cross_validate_on(
    program: &Program,
    proto: &Machine,
    fuel: u64,
) -> Result<Agreement, Box<Divergence>> {
    // ---- layer 1: wall-clock engines ------------------------------------
    let engines = all_engines();
    let reference = engines[0].run_on(program, proto, fuel);
    for e in &engines[1..] {
        let out = e.run_on(program, proto, fuel);
        let diff = if reference.trap.is_some() {
            if e.exact_traps && reference.trap != out.trap {
                Some(format!("trap: {:?} vs {:?}", reference.trap, out.trap))
            } else {
                None
            }
        } else {
            reference.first_difference(&out, e.counts_insts)
        };
        if let Some(detail) = diff {
            return Err(Box::new(Divergence {
                engines: (engines[0].name.clone(), e.name.clone()),
                index: None,
                ip: None,
                cache_state: None,
                detail,
                flight: None,
            }));
        }
    }

    // ---- layers 2 and 3: one instrumented reference execution -----------
    let orgs = oracle_orgs();
    let mut org_checks: Vec<OrgCheck> = orgs
        .iter()
        .map(|(org, depth)| {
            let mut c = OrgCheck::new(org, *depth, None);
            c.set_initial_depth(proto.stack().len());
            c
        })
        .collect();

    let mut twostacks_checks: Vec<TwoStacksCheck> = ORACLE_TWOSTACKS_REGISTERS
        .iter()
        .map(|&regs| {
            let mut c = TwoStacksCheck::new(regs);
            c.set_initial_depths(proto.stack().len(), proto.rstack().len());
            c
        })
        .collect();

    let static_org = Org::static_shuffle(3);
    let static_opts = oracle_static_options();
    let compiled: Vec<_> = static_opts
        .iter()
        .map(|(_, o)| staticcache::compile(program, &static_org, o))
        .collect();
    let mut static_regimes: Vec<StaticRegime> = compiled.iter().map(StaticRegime::new).collect();

    let ref_run = {
        let mut obs: Vec<&mut dyn ExecObserver> = Vec::new();
        for c in &mut org_checks {
            obs.push(c);
        }
        for c in &mut twostacks_checks {
            obs.push(c);
        }
        for r in &mut static_regimes {
            obs.push(r);
        }
        let mut m = proto.clone();
        exec::run_with_observer(program, &mut m, fuel, &mut obs)
    };

    for c in org_checks {
        if let Some(d) = c.divergence {
            return Err(Box::new(d));
        }
    }
    for c in twostacks_checks {
        if let Some(d) = c.divergence {
            return Err(Box::new(d));
        }
    }

    for ((name, _), reg) in static_opts.iter().zip(&static_regimes) {
        let counts = &reg.counts;
        if counts.dispatches > counts.insts {
            return Err(Box::new(Divergence {
                engines: (
                    "reference".to_string(),
                    format!("staticcache-counting+{name}"),
                ),
                index: None,
                ip: None,
                cache_state: None,
                detail: format!(
                    "dispatches {} > instructions {}",
                    counts.dispatches, counts.insts
                ),
                flight: None,
            }));
        }
        if let Ok(out) = &ref_run {
            if counts.insts != out.executed {
                return Err(Box::new(Divergence {
                    engines: (
                        "reference".to_string(),
                        format!("staticcache-counting+{name}"),
                    ),
                    index: None,
                    ip: None,
                    cache_state: None,
                    detail: format!(
                        "charged {} instruction sites, reference executed {}",
                        counts.insts, out.executed
                    ),
                    flight: None,
                }));
            }
        }
    }

    Ok(Agreement {
        configs: engines.len() + orgs.len() + ORACLE_TWOSTACKS_REGISTERS.len() + static_opts.len(),
        engine_configs: engines.len(),
        org_configs: orgs.len(),
        twostacks_configs: ORACLE_TWOSTACKS_REGISTERS.len(),
        static_configs: static_opts.len(),
    })
}

/// Replay the dynamic-cache accounting of one organization in lockstep
/// with the reference execution, optionally injecting a [`Fault`].
///
/// This is the entry point the fault-injection test uses to demonstrate
/// that a corrupted transition is caught with a first-divergence report.
///
/// # Errors
///
/// Returns the first accounting [`Divergence`].
pub fn check_org_accounting(
    program: &Program,
    fuel: u64,
    org: &Org,
    overflow_depth: u8,
    fault: Option<Fault>,
) -> Result<(), Box<Divergence>> {
    let mut check = OrgCheck::new(org, overflow_depth, fault);
    let mut m = Machine::with_memory(MEMORY_BYTES);
    let _ = exec::run_with_observer(program, &mut m, fuel, &mut check);
    match check.divergence {
        Some(d) => Err(Box::new(d)),
        None => Ok(()),
    }
}

/// Heartbeats kept in the attached flight trail.
const FLIGHT_TAIL: usize = 32;

/// Records a `Progress` heartbeat for every executed instruction.
struct EveryStep<'a> {
    recorder: &'a FlightRecorder,
    executed: u64,
}

impl ExecObserver for EveryStep<'_> {
    fn event(&mut self, ev: &ExecEvent) {
        self.executed += 1;
        self.recorder.record(
            0,
            0,
            EventKind::Progress {
                executed: self.executed,
                ip: ev.ip.min(u32::MAX as usize) as u32,
            },
        );
    }
}

/// Re-run the reference execution of `program` under a flight-recorder
/// tracer heartbeating every instruction, and render the trail's tail.
///
/// [`assert_agreement`] attaches this to a [`Divergence`] so the report
/// shows where the reference execution was instruction by instruction —
/// a timeline to read the divergence's `index`/`ip` against.
#[must_use]
pub fn reference_flight_trail(program: &Program, fuel: u64) -> String {
    let recorder = FlightRecorder::new(1, FLIGHT_TAIL);
    let mut tracer = EveryStep {
        recorder: &recorder,
        executed: 0,
    };
    let mut m = Machine::with_memory(MEMORY_BYTES);
    let result = exec::run_with_observer(program, &mut m, fuel, &mut tracer);
    let dump = recorder.dump();
    let mut s = dump.render(dump.last(FLIGHT_TAIL));
    s.push_str(&format!(
        "reference finished: {} after {} instructions\n",
        match &result {
            Ok(_) => "halted".to_string(),
            Err(e) => format!("{e}"),
        },
        tracer.executed
    ));
    s
}

/// Assert that every engine and configuration agrees on `program`.
///
/// # Panics
///
/// Panics with the first-divergence report — including a flight-recorder
/// trail of the reference execution's tail — and the program's
/// disassembly; the failing program is also saved to the corpus directory
/// (best effort) so the failure replays deterministically from then on.
pub fn assert_agreement(program: &Program, fuel: u64) -> Agreement {
    match cross_validate(program, fuel) {
        Ok(a) => a,
        Err(d) => {
            let saved = crate::corpus::save_failure(program)
                .map(|p| format!("\nfailing program saved to {}", p.display()))
                .unwrap_or_default();
            panic_with_report(program, fuel, d, &saved)
        }
    }
}

/// Panic with `d`, a flight trail of the reference execution, `note` and
/// the program's disassembly.
pub(crate) fn panic_with_report(
    program: &Program,
    fuel: u64,
    mut d: Box<Divergence>,
    note: &str,
) -> ! {
    d.flight = Some(reference_flight_trail(program, fuel));
    panic!("{d}{note}\nprogram:\n{}", asm::disassemble(program));
}
