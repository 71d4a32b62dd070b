//! The static stack-caching compiler (Section 5) and the entry points of
//! its run-time engine.
//!
//! [`compile_static`] translates a program into code in which every
//! instruction carries the cache state the compiler planned for it, and
//! the states between instructions are fixed at compile time. Three cache
//! registers are used, with a six-state organization:
//!
//! | state | register word (bottom-first) |
//! |---|---|
//! | 0..=3 | canonical `r0 .. r(s-1)` |
//! | 4 | `r1 r0` (top two swapped) |
//! | 5 | `r0 r2 r1` (top two swapped) |
//!
//! The swapped states make `swap` a pure compile-time state change, and
//! `drop`/`2drop` compile away in canonical states — so statically
//! eliminated stack manipulations execute **no dispatch at all**, the
//! paper's headline property. At basic-block boundaries and around calls
//! the compiler emits reconciliation (embedded in the preceding
//! instruction, not as a separate dispatch) to the canonical convention
//! state.
//!
//! The planner's out-states (`BINOP_NAT`, `UNOP_NAT`, `POP1_NAT`,
//! `POP2_NAT` and the pop-then-push model of the shuffles) are what the
//! shared opcode semantics do to the cache state; [`run_staticcache`] runs
//! the compiled code with `stackcache_vm::cached::run_static`, which
//! dispatches once per instruction on its planned state and runs the
//! shared semantics with that state a constant, and debug builds check
//! every executed instruction's out-state against the plan.
//!
//! To keep the canonical convention sound at shallow stack depths the
//! compiled program runs with `canonical` sentinel zero cells below the
//! user stack (they are stripped at halt and compensated by `depth`).
//! Consequently this interpreter does not reproduce *data-stack underflow
//! traps* bit-for-bit — a short stack reads the sentinels as zeros — so
//! run trap-free programs (all other behaviour is cross-validated against
//! the reference interpreter). `/` and `mod` alone check the depth above
//! the sentinels, so that a sentinel zero never turns an underflow into a
//! division by zero.

use stackcache_vm::cached::{run_static, SInst, StaticCode, NO_REC};
use stackcache_vm::interp::RunStats;
use stackcache_vm::{Cfg, Checks, Inst, Machine, Program, VmError};

/// Statistics from [`compile_static`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticExeStats {
    /// Original instruction count.
    pub original: usize,
    /// Compiled (dispatching) instruction count.
    pub compiled: usize,
    /// Instructions eliminated entirely.
    pub eliminated: usize,
}

/// A statically compiled executable.
#[derive(Debug, Clone)]
pub struct StaticExecutable {
    code: Vec<SInst>,
    /// original ip -> compiled index
    remap: Vec<u32>,
    entry: usize,
    canonical: u8,
    /// Compilation statistics.
    pub stats: StaticExeStats,
}

impl StaticExecutable {
    /// The compiled instruction stream.
    #[must_use]
    pub fn code(&self) -> &[SInst] {
        &self.code
    }

    /// The canonical convention state depth.
    #[must_use]
    pub fn canonical(&self) -> u8 {
        self.canonical
    }
}

// ---- compile-time state arithmetic (what the shared semantics do) --------

fn sim_pop(st: u8) -> u8 {
    if st == 0 {
        0
    } else {
        st - 1
    }
}

fn sim_push(st: u8) -> u8 {
    (st + 1).min(3)
}

/// natural-out for the pop1-special class (supported in all six states)
const POP1_NAT: [u8; 6] = [0, 0, 1, 2, 1, 2];
/// natural-out for the pop2-special class
const POP2_NAT: [u8; 6] = [0, 0, 0, 1, 0, 1];
/// natural-out for binary operations
const BINOP_NAT: [u8; 6] = [1, 1, 1, 2, 1, 2];
/// natural-out for unary operations (top replaced in place)
const UNOP_NAT: [u8; 6] = [1, 1, 2, 3, 4, 5];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Pure compile-time state change; no code emitted.
    Elim(u8),
    /// Emit with the given natural output state.
    Emit(u8),
    /// Must normalize a swapped state to canonical first, then re-plan.
    Norm,
}

/// Instruction classes for planning and execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Binop,
    Unop,
    Pop1,            // ( x -- ) in all states
    Pop2,            // ( x y -- ) in all states
    Push,            // ( -- x ), canonical states only
    Push2,           // ( -- x y ), canonical states only
    Compose(u8, u8), // generic pops/pushes, canonical states only
    Flush,           // cache-opaque: flush, operate on memory
    Zero,            // ( -- ) no data-stack effect, any state
}

fn class_of(inst: &Inst) -> Class {
    use Inst::*;
    match inst {
        Add | Sub | Mul | Div | Mod | And | Or | Xor | Lshift | Rshift | Min | Max | Eq | Ne
        | Lt | Gt | Le | Ge | ULt | UGt => Class::Binop,
        Negate | Invert | Abs | OnePlus | OneMinus | TwoStar | TwoSlash | ZeroEq | ZeroNe
        | ZeroLt | ZeroGt | CellPlus | Cells | CharPlus | Fetch | CFetch => Class::Unop,
        ToR | Emit | Dot | BranchIfZero(_) | PlusLoopInc(_) | Execute => Class::Pop1,
        Store | CStore | PlusStore | TwoToR | DoSetup | QDoSetup(_) | Type => Class::Pop2,
        Lit(_) | FromR | RFetch | LoopI | LoopJ => Class::Push,
        TwoFromR | TwoRFetch => Class::Push2,
        Dup => Class::Compose(1, 2),
        Over => Class::Compose(2, 3),
        Rot | MinusRot => Class::Compose(3, 3),
        Nip => Class::Compose(2, 1),
        Tuck => Class::Compose(2, 3),
        TwoDup => Class::Compose(2, 4),
        TwoSwap => Class::Compose(4, 4),
        TwoOver => Class::Compose(4, 6),
        Pick | Depth | QDup => Class::Flush,
        Branch(_) | Call(_) | Return | Halt | Nop | LoopInc(_) | Unloop | Cr => Class::Zero,
        Drop | Swap | TwoDrop => unreachable!("planned specially"),
    }
}

fn plan(inst: &Inst, s: u8) -> Plan {
    use Inst::*;
    match inst {
        Swap => match s {
            2 => Plan::Elim(4),
            3 => Plan::Elim(5),
            4 => Plan::Elim(2),
            5 => Plan::Elim(3),
            _ => Plan::Emit(2), // memory-assisted swap ends with both cached
        },
        Drop => match s {
            1..=3 => Plan::Elim(s - 1),
            0 => Plan::Emit(0),
            4 => Plan::Emit(1),
            _ => Plan::Emit(2),
        },
        TwoDrop => match s {
            2 | 3 => Plan::Elim(s - 2),
            4 => Plan::Elim(0),
            5 => Plan::Elim(1),
            // 0/1: memory pops
            s2 => Plan::Emit(sim_pop(sim_pop(s2))),
        },
        _ => match class_of(inst) {
            Class::Binop => Plan::Emit(BINOP_NAT[s as usize]),
            Class::Unop => Plan::Emit(UNOP_NAT[s as usize]),
            Class::Pop1 => Plan::Emit(POP1_NAT[s as usize]),
            Class::Pop2 => Plan::Emit(POP2_NAT[s as usize]),
            Class::Push => {
                if s >= 4 {
                    Plan::Norm
                } else {
                    Plan::Emit(sim_push(s))
                }
            }
            Class::Push2 => {
                if s >= 4 {
                    Plan::Norm
                } else {
                    Plan::Emit(sim_push(sim_push(s)))
                }
            }
            Class::Compose(pops, pushes) => {
                if s >= 4 {
                    Plan::Norm
                } else {
                    let mut st = s;
                    for _ in 0..pops {
                        st = sim_pop(st);
                    }
                    for _ in 0..pushes {
                        st = sim_push(st);
                    }
                    Plan::Emit(st)
                }
            }
            Class::Flush => Plan::Emit(match inst {
                Depth => 1, // flush, then push the depth
                QDup => 0,  // both variants end uncached
                _ => 1,     // pick pushes its result
            }),
            Class::Zero => Plan::Emit(s),
        },
    }
}

/// canonical equivalent of a swapped state
fn canon_of(s: u8) -> u8 {
    match s {
        4 => 2,
        5 => 3,
        other => other,
    }
}

/// Compile `program` for the statically cached interpreter.
///
/// `canonical` (0..=3) is the convention state depth at block boundaries
/// and calls.
///
/// # Panics
///
/// Panics if `canonical > 3` or the program is empty.
#[must_use]
pub fn compile_static(program: &Program, canonical: u8) -> StaticExecutable {
    assert!(canonical <= 3, "canonical state depth must be 0..=3");
    let insts = program.insts();
    assert!(!insts.is_empty(), "cannot compile an empty program");
    let cfg = Cfg::build(program);

    let mut code: Vec<SInst> = Vec::with_capacity(insts.len());
    let mut remap = vec![u32::MAX; insts.len()];
    let mut stats = StaticExeStats {
        original: insts.len(),
        ..StaticExeStats::default()
    };

    for block in cfg.blocks() {
        let mut state = canonical;
        let block_code_start = code.len();

        // Attach a reconciliation after the previously emitted instruction
        // of this block, or emit a no-op carrier when the block has not
        // emitted anything yet.
        macro_rules! attach_rec {
            ($from:expr, $to:expr) => {{
                let from = $from;
                let to = $to;
                if from != to {
                    let has_carrier = code.len() > block_code_start;
                    match code.last_mut() {
                        Some(last) if has_carrier && last.rec_to == NO_REC => {
                            last.rec_from = from;
                            last.rec_to = to;
                        }
                        _ => {
                            code.push(SInst {
                                inst: Inst::Nop,
                                s_in: from,
                                rec_from: from,
                                rec_to: to,
                            });
                            stats.compiled += 1;
                        }
                    }
                }
            }};
        }

        for ip in block.start..block.end {
            remap[ip] = code.len() as u32;
            let inst = insts[ip];
            let mut p = plan(&inst, state);
            if p == Plan::Norm {
                let target = canon_of(state);
                attach_rec!(state, target);
                state = target;
                p = plan(&inst, state);
            }
            match p {
                Plan::Elim(ns) => {
                    state = ns;
                    stats.eliminated += 1;
                }
                Plan::Emit(natural) => {
                    code.push(SInst {
                        inst,
                        s_in: state,
                        rec_from: 0,
                        rec_to: NO_REC,
                    });
                    stats.compiled += 1;
                    state = natural;
                }
                Plan::Norm => unreachable!("normalization re-plans into Emit/Elim"),
            }
            // Terminators reconcile to the convention state (embedded in
            // the instruction's own handler, before the control transfer).
            if inst.ends_block() && !matches!(inst, Inst::Halt) {
                if state != canonical {
                    let last = code.last_mut().expect("terminators always emit");
                    last.rec_from = state;
                    last.rec_to = canonical;
                }
                state = canonical;
            }
        }

        // Fall-through block end: reconcile to the convention state.
        let last_inst = insts[block.end - 1];
        if !last_inst.ends_block() {
            attach_rec!(state, canonical);
        }
    }

    // Patch branch targets through the remap.
    let patch = |t: u32| -> u32 { remap[t as usize] };
    for si in &mut code {
        if let Some(t) = si.inst.target() {
            si.inst = si.inst.with_target(patch(t));
        }
    }
    let entry = remap[program.entry()] as usize;

    StaticExecutable {
        code,
        remap,
        entry,
        canonical,
        stats,
    }
}

/// The state the compiler planned `si` to leave (before any embedded
/// reconciliation), for the run-time engine's debug check.
fn planned_out(si: &SInst) -> u8 {
    match plan(&si.inst, si.s_in) {
        Plan::Emit(natural) => natural,
        p => unreachable!(
            "{:?} in state {} was never emitted: {p:?}",
            si.inst, si.s_in
        ),
    }
}

/// Run a statically compiled executable.
///
/// See the module documentation for the sentinel-cell caveat on underflow
/// traps.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter for
/// non-underflow traps.
pub fn run_staticcache(
    exe: &StaticExecutable,
    machine: &mut Machine,
    fuel: u64,
) -> Result<RunStats, VmError> {
    run_staticcache_with_checks(exe, machine, fuel, Checks::Full)
}

/// [`run_staticcache`] at a selectable [`Checks`] level.
///
/// Levels above [`Checks::Full`] are sound only for programs proven safe
/// by static analysis; see [`Checks`] for the contract.
///
/// # Errors
///
/// Returns the same [`VmError`]s as [`run_staticcache`] (minus the trap
/// classes the chosen level elides).
pub fn run_staticcache_with_checks(
    exe: &StaticExecutable,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<RunStats, VmError> {
    let code = StaticCode {
        code: &exe.code,
        remap: &exe.remap,
        entry: exe.entry,
        canonical: exe.canonical,
        planned: planned_out,
    };
    run_static(&code, machine, fuel, checks)
}
