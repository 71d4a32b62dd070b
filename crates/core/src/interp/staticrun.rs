//! A real (wall-clock) statically stack-cached interpreter (Section 5).
//!
//! [`compile_static`] translates a program into specialized code in which
//! every instruction carries the cache state it was compiled in; the
//! interpreter [`run_staticcache`] never tracks the cache state at run
//! time — it is encoded in the instruction stream. Three cache registers
//! are used, with a six-state organization:
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
//! To keep the canonical convention sound at shallow stack depths the
//! compiled program runs with `canonical` sentinel zero cells below the
//! user stack (they are stripped at halt and compensated by `depth`).
//! Consequently this interpreter does not reproduce *data-stack underflow
//! traps* bit-for-bit — run trap-free programs (all other behaviour is
//! cross-validated against the reference interpreter).

use stackcache_vm::stacks::FlatStacks;
use stackcache_vm::{flag, Cell, Cfg, Checks, Inst, Machine, Program, VmError, CELL_BYTES};

use crate::interp::{RunStats, CHECK_FULL, CHECK_NONE, CHECK_NO_UNDERFLOW};

/// Register word per state, bottom-first.
const WORDS: [&[usize]; 6] = [&[], &[0], &[0, 1], &[0, 1, 2], &[1, 0], &[0, 2, 1]];

/// Marker: no reconciliation after this instruction.
const NO_REC: u8 = u8::MAX;

/// One compiled instruction: the original operation plus the cache state
/// it executes in and an optional embedded reconciliation.
#[derive(Debug, Clone, Copy)]
pub struct SInst {
    /// The operation (branch targets remapped to compiled indices).
    pub inst: Inst,
    /// Cache state the instruction executes in.
    pub s_in: u8,
    /// Reconciliation source state (valid when `rec_to != NO_REC`).
    pub rec_from: u8,
    /// Reconciliation target state, or `u8::MAX` for none.
    pub rec_to: u8,
}

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

// ---- compile-time state arithmetic (mirrors the runtime macros) ---------

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
    run_staticcache_mode::<CHECK_FULL>(exe, machine, fuel)
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
    match checks {
        Checks::Full => run_staticcache_mode::<CHECK_FULL>(exe, machine, fuel),
        Checks::NoUnderflow => run_staticcache_mode::<CHECK_NO_UNDERFLOW>(exe, machine, fuel),
        Checks::None => run_staticcache_mode::<CHECK_NONE>(exe, machine, fuel),
    }
}

fn run_staticcache_mode<const MODE: u8>(
    exe: &StaticExecutable,
    machine: &mut Machine,
    fuel: u64,
) -> Result<RunStats, VmError> {
    // zeroed sentinel cells below the user stack keep the canonical
    // convention loadable at shallow depths
    let mut st = FlatStacks::lease(machine, usize::from(exe.canonical));
    static_loop::<MODE>(exe, machine, fuel, &mut st)
}

/// The dispatch loop over the leased stack cells, kept out of line (see
/// [`FlatStacks`]).
#[inline(never)]
#[allow(clippy::too_many_lines)]
#[allow(unused_assignments)] // the state-tracking macros assign past the last use
fn static_loop<const MODE: u8>(
    exe: &StaticExecutable,
    machine: &mut Machine,
    fuel: u64,
    st: &mut FlatStacks,
) -> Result<RunStats, VmError> {
    let code = &exe.code;
    let sentinels = usize::from(exe.canonical);
    let (limit, rlimit, mut sp, mut rsp) = (st.limit, st.rlimit, st.sp, st.rsp);
    let (buf, rbuf) = st.cells_mut();

    let mut r0: Cell = 0;
    let mut r1: Cell = 0;
    let mut r2: Cell = 0;

    // Reconcile from state `from` to state `to` (registers + memory).
    macro_rules! reconcile {
        ($from:expr, $to:expr, $cur:expr) => {{
            let fw = WORDS[$from as usize];
            let tw = WORDS[$to as usize];
            let fl = fw.len();
            let tl = tw.len();
            let regs = [r0, r1, r2];
            if fl > tl {
                // spill the extra bottom items
                let extra = fl - tl;
                if MODE < CHECK_NONE && sp + extra > limit {
                    return Err(VmError::StackOverflow { ip: $cur });
                }
                for j in 0..extra {
                    buf[sp + j] = regs[fw[j]];
                }
                sp += extra;
            }
            // top-aligned register copies (read-all-then-write)
            let common = fl.min(tl);
            let mut vals = [0 as Cell; 3];
            for k in 0..common {
                vals[k] = regs[fw[fl - 1 - k]];
            }
            let mut out = [r0, r1, r2];
            for k in 0..common {
                out[tw[tl - 1 - k]] = vals[k];
            }
            if tl > fl {
                // load deeper items from memory into the bottom slots
                let need = tl - fl;
                debug_assert!(sp >= need, "sentinels guarantee loadable depth");
                sp -= need;
                for j in 0..need {
                    out[tw[j]] = buf[sp + j];
                }
            }
            r0 = out[0];
            r1 = out[1];
            r2 = out[2];
        }};
    }

    // Enter the convention state.
    reconcile!(0u8, exe.canonical, 0usize);

    let mut ip = exe.entry;
    let mut executed: u64 = 0;

    loop {
        if executed >= fuel {
            return Err(VmError::FuelExhausted { ip });
        }
        let Some(si) = code.get(ip) else {
            return Err(VmError::InstructionOutOfBounds { ip });
        };
        executed += 1;
        let cur = ip;
        ip += 1;
        let sin = si.s_in;

        // ---- class helpers (canonical states only, tracked locally) -----
        macro_rules! pop_v {
            ($st:expr) => {{
                match $st {
                    0 => {
                        if MODE == CHECK_FULL && sp == 0 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 1;
                        buf[sp]
                    }
                    1 => {
                        $st = 0;
                        r0
                    }
                    2 => {
                        $st = 1;
                        r1
                    }
                    _ => {
                        $st = 2;
                        r2
                    }
                }
            }};
        }
        macro_rules! push_v {
            ($st:expr, $v:expr) => {{
                let v = $v;
                match $st {
                    0 => {
                        r0 = v;
                        $st = 1;
                    }
                    1 => {
                        r1 = v;
                        $st = 2;
                    }
                    2 => {
                        r2 = v;
                        $st = 3;
                    }
                    _ => {
                        if MODE < CHECK_NONE && sp >= limit {
                            return Err(VmError::StackOverflow { ip: cur });
                        }
                        buf[sp] = r0;
                        sp += 1;
                        r0 = r1;
                        r1 = r2;
                        r2 = v;
                    }
                }
            }};
        }
        /// pop1-special: works in all six states (see `POP1_NAT`).
        macro_rules! pop1 {
            () => {{
                match sin {
                    0 => {
                        if MODE == CHECK_FULL && sp == 0 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 1;
                        buf[sp]
                    }
                    1 => r0,
                    2 => r1,
                    3 => r2,
                    4 => {
                        let v = r0;
                        r0 = r1;
                        v
                    }
                    _ => {
                        let v = r1;
                        r1 = r2;
                        v
                    }
                }
            }};
        }
        /// pop2-special: `(a, b)` with `b` the top, all six states.
        macro_rules! pop2 {
            () => {{
                match sin {
                    0 => {
                        if MODE == CHECK_FULL && sp < 2 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 2;
                        (buf[sp], buf[sp + 1])
                    }
                    1 => {
                        if MODE == CHECK_FULL && sp == 0 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 1;
                        (buf[sp], r0)
                    }
                    2 => (r0, r1),
                    3 => (r1, r2),
                    4 => (r1, r0),
                    _ => (r2, r1),
                }
            }};
        }
        macro_rules! binop {
            ($f:expr) => {{
                match sin {
                    0 => {
                        if MODE == CHECK_FULL && sp < 2 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        let b = buf[sp - 1];
                        let a = buf[sp - 2];
                        sp -= 2;
                        r0 = $f(a, b);
                    }
                    1 => {
                        if MODE == CHECK_FULL && sp == 0 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 1;
                        r0 = $f(buf[sp], r0);
                    }
                    2 => r0 = $f(r0, r1),
                    3 => r1 = $f(r1, r2),
                    4 => r0 = $f(r1, r0),
                    _ => r1 = $f(r2, r1),
                }
            }};
        }
        macro_rules! unop {
            ($f:expr) => {{
                match sin {
                    0 => {
                        if MODE == CHECK_FULL && sp == 0 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 1;
                        r0 = $f(buf[sp]);
                    }
                    1 | 4 => r0 = $f(r0),
                    2 | 5 => r1 = $f(r1),
                    _ => r2 = $f(r2),
                }
            }};
        }
        /// top-of-stack register for unary-style fallible ops
        macro_rules! unop_try {
            ($f:expr) => {{
                match sin {
                    0 => {
                        if MODE == CHECK_FULL && sp == 0 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 1;
                        r0 = $f(buf[sp])?;
                    }
                    1 | 4 => r0 = $f(r0)?,
                    2 | 5 => r1 = $f(r1)?,
                    _ => r2 = $f(r2)?,
                }
            }};
        }
        /// flush the cache (per the state word) to memory
        macro_rules! flush {
            () => {{
                let w = WORDS[sin as usize];
                if MODE < CHECK_NONE && sp + w.len() > limit {
                    return Err(VmError::StackOverflow { ip: cur });
                }
                let regs = [r0, r1, r2];
                for (j, &r) in w.iter().enumerate() {
                    buf[sp + j] = regs[r];
                }
                sp += w.len();
            }};
        }
        macro_rules! rpush {
            ($v:expr) => {{
                if MODE < CHECK_NONE && rsp >= rlimit {
                    return Err(VmError::ReturnStackOverflow { ip: cur });
                }
                rbuf[rsp] = $v;
                rsp += 1;
            }};
        }
        macro_rules! rpop {
            () => {{
                if MODE == CHECK_FULL && rsp == 0 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                rsp -= 1;
                rbuf[rsp]
            }};
        }
        macro_rules! do_rec {
            () => {
                if si.rec_to != NO_REC {
                    reconcile!(si.rec_from, si.rec_to, cur);
                }
            };
        }

        match si.inst {
            Inst::Lit(n) => {
                let mut st = sin;
                push_v!(st, n);
            }
            Inst::Add => binop!(|a: Cell, b: Cell| a.wrapping_add(b)),
            Inst::Sub => binop!(|a: Cell, b: Cell| a.wrapping_sub(b)),
            Inst::Mul => binop!(|a: Cell, b: Cell| a.wrapping_mul(b)),
            Inst::Div => {
                let (a, b) = pop2!();
                if b == 0 {
                    return Err(VmError::DivisionByZero { ip: cur });
                }
                // result goes where POP2_NAT's next push would put it:
                // states with nat 0 -> r0, nat 1 -> r1
                if POP2_NAT[sin as usize] == 0 {
                    r0 = a.wrapping_div_euclid(b);
                } else {
                    r1 = a.wrapping_div_euclid(b);
                }
            }
            Inst::Mod => {
                let (a, b) = pop2!();
                if b == 0 {
                    return Err(VmError::DivisionByZero { ip: cur });
                }
                if POP2_NAT[sin as usize] == 0 {
                    r0 = a.wrapping_rem_euclid(b);
                } else {
                    r1 = a.wrapping_rem_euclid(b);
                }
            }
            Inst::And => binop!(|a: Cell, b: Cell| a & b),
            Inst::Or => binop!(|a: Cell, b: Cell| a | b),
            Inst::Xor => binop!(|a: Cell, b: Cell| a ^ b),
            Inst::Lshift => binop!(|a: Cell, b: Cell| ((a as u64) << (b as u64 & 63)) as Cell),
            Inst::Rshift => binop!(|a: Cell, b: Cell| ((a as u64) >> (b as u64 & 63)) as Cell),
            Inst::Min => binop!(|a: Cell, b: Cell| a.min(b)),
            Inst::Max => binop!(|a: Cell, b: Cell| a.max(b)),
            Inst::Eq => binop!(|a, b| flag(a == b)),
            Inst::Ne => binop!(|a, b| flag(a != b)),
            Inst::Lt => binop!(|a, b| flag(a < b)),
            Inst::Gt => binop!(|a, b| flag(a > b)),
            Inst::Le => binop!(|a, b| flag(a <= b)),
            Inst::Ge => binop!(|a, b| flag(a >= b)),
            Inst::ULt => binop!(|a: Cell, b: Cell| flag((a as u64) < (b as u64))),
            Inst::UGt => binop!(|a: Cell, b: Cell| flag((a as u64) > (b as u64))),
            Inst::Negate => unop!(|a: Cell| a.wrapping_neg()),
            Inst::Invert => unop!(|a: Cell| !a),
            Inst::Abs => unop!(|a: Cell| a.wrapping_abs()),
            Inst::OnePlus => unop!(|a: Cell| a.wrapping_add(1)),
            Inst::OneMinus => unop!(|a: Cell| a.wrapping_sub(1)),
            Inst::TwoStar => unop!(|a: Cell| a.wrapping_mul(2)),
            Inst::TwoSlash => unop!(|a: Cell| a >> 1),
            Inst::ZeroEq => unop!(|a| flag(a == 0)),
            Inst::ZeroNe => unop!(|a| flag(a != 0)),
            Inst::ZeroLt => unop!(|a| flag(a < 0)),
            Inst::ZeroGt => unop!(|a| flag(a > 0)),
            Inst::CellPlus => unop!(|a: Cell| a.wrapping_add(CELL_BYTES as Cell)),
            Inst::Cells => unop!(|a: Cell| a.wrapping_mul(CELL_BYTES as Cell)),
            Inst::CharPlus => unop!(|a: Cell| a.wrapping_add(1)),

            Inst::Dup => {
                let mut st = sin;
                let a = pop_v!(st);
                push_v!(st, a);
                push_v!(st, a);
            }
            Inst::Drop => match sin {
                0 => {
                    if MODE == CHECK_FULL && sp == 0 {
                        return Err(VmError::StackUnderflow { ip: cur });
                    }
                    sp -= 1;
                }
                4 => r0 = r1,
                5 => r1 = r2,
                _ => unreachable!("drop in canonical non-empty states is eliminated"),
            },
            Inst::Swap => {
                // only states 0 and 1 reach here
                let mut st = sin;
                let b = pop_v!(st);
                let a = pop_v!(st);
                push_v!(st, b);
                push_v!(st, a);
            }
            Inst::Over => {
                let mut st = sin;
                let b = pop_v!(st);
                let a = pop_v!(st);
                push_v!(st, a);
                push_v!(st, b);
                push_v!(st, a);
            }
            Inst::Rot => {
                let mut st = sin;
                let c = pop_v!(st);
                let b = pop_v!(st);
                let a = pop_v!(st);
                push_v!(st, b);
                push_v!(st, c);
                push_v!(st, a);
            }
            Inst::MinusRot => {
                let mut st = sin;
                let c = pop_v!(st);
                let b = pop_v!(st);
                let a = pop_v!(st);
                push_v!(st, c);
                push_v!(st, a);
                push_v!(st, b);
            }
            Inst::Nip => {
                let mut st = sin;
                let b = pop_v!(st);
                let _ = pop_v!(st);
                push_v!(st, b);
            }
            Inst::Tuck => {
                let mut st = sin;
                let b = pop_v!(st);
                let a = pop_v!(st);
                push_v!(st, b);
                push_v!(st, a);
                push_v!(st, b);
            }
            Inst::TwoDup => {
                let mut st = sin;
                let b = pop_v!(st);
                let a = pop_v!(st);
                push_v!(st, a);
                push_v!(st, b);
                push_v!(st, a);
                push_v!(st, b);
            }
            Inst::TwoDrop => {
                // only states 0 and 1 reach here
                let mut st = sin;
                let _ = pop_v!(st);
                let _ = pop_v!(st);
            }
            Inst::TwoSwap => {
                let mut st = sin;
                let d = pop_v!(st);
                let c = pop_v!(st);
                let b = pop_v!(st);
                let a = pop_v!(st);
                push_v!(st, c);
                push_v!(st, d);
                push_v!(st, a);
                push_v!(st, b);
            }
            Inst::TwoOver => {
                let mut st = sin;
                let d = pop_v!(st);
                let c = pop_v!(st);
                let b = pop_v!(st);
                let a = pop_v!(st);
                push_v!(st, a);
                push_v!(st, b);
                push_v!(st, c);
                push_v!(st, d);
                push_v!(st, a);
                push_v!(st, b);
            }
            Inst::QDup => {
                flush!();
                if MODE == CHECK_FULL && sp == 0 {
                    return Err(VmError::StackUnderflow { ip: cur });
                }
                let a = buf[sp - 1];
                if a != 0 {
                    if MODE < CHECK_NONE && sp >= limit {
                        return Err(VmError::StackOverflow { ip: cur });
                    }
                    buf[sp] = a;
                    sp += 1;
                }
            }
            Inst::Pick => {
                flush!();
                if MODE == CHECK_FULL && sp == 0 {
                    return Err(VmError::StackUnderflow { ip: cur });
                }
                sp -= 1;
                let u = buf[sp];
                let avail = sp - sentinels;
                if u < 0 || u as usize >= avail {
                    return Err(VmError::PickOutOfRange { ip: cur, index: u });
                }
                let v = buf[sp - 1 - u as usize];
                // state 0 after flush: push via registers (natural 1)
                r0 = v;
            }
            Inst::Depth => {
                flush!();
                let d = (sp - sentinels) as Cell;
                r0 = d; // natural state 1
            }

            Inst::ToR => {
                let v = pop1!();
                rpush!(v);
            }
            Inst::FromR => {
                let v = rpop!();
                let mut st = sin;
                push_v!(st, v);
            }
            Inst::RFetch => {
                if MODE == CHECK_FULL && rsp == 0 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let v = rbuf[rsp - 1];
                let mut st = sin;
                push_v!(st, v);
            }
            Inst::TwoToR => {
                let (a, b) = pop2!();
                rpush!(a);
                rpush!(b);
            }
            Inst::TwoFromR => {
                let b = rpop!();
                let a = rpop!();
                let mut st = sin;
                push_v!(st, a);
                push_v!(st, b);
            }
            Inst::TwoRFetch => {
                if MODE == CHECK_FULL && rsp < 2 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let a = rbuf[rsp - 2];
                let b = rbuf[rsp - 1];
                let mut st = sin;
                push_v!(st, a);
                push_v!(st, b);
            }

            Inst::Fetch => {
                unop_try!(|addr| machine
                    .load_cell(addr)
                    .ok_or(VmError::MemoryOutOfBounds { ip: cur, addr }));
            }
            Inst::CFetch => {
                unop_try!(|addr| machine
                    .load_byte(addr)
                    .ok_or(VmError::MemoryOutOfBounds { ip: cur, addr }));
            }
            Inst::Store => {
                let (x, addr) = pop2!();
                if !machine.store_cell(addr, x) {
                    return Err(VmError::MemoryOutOfBounds { ip: cur, addr });
                }
            }
            Inst::CStore => {
                let (x, addr) = pop2!();
                if !machine.store_byte(addr, x) {
                    return Err(VmError::MemoryOutOfBounds { ip: cur, addr });
                }
            }
            Inst::PlusStore => {
                let (n, addr) = pop2!();
                match machine.load_cell(addr) {
                    Some(x) => {
                        machine.store_cell(addr, x.wrapping_add(n));
                    }
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr }),
                }
            }

            Inst::Branch(t) => {
                do_rec!();
                ip = t as usize;
                continue;
            }
            Inst::BranchIfZero(t) => {
                let f = pop1!();
                do_rec!();
                if f == 0 {
                    ip = t as usize;
                }
                continue;
            }
            Inst::Call(t) => {
                do_rec!();
                rpush!(ip as Cell);
                ip = t as usize;
                continue;
            }
            Inst::Execute => {
                let token = pop1!();
                do_rec!();
                if token < 0 || token as usize >= exe.remap.len() {
                    return Err(VmError::InvalidExecutionToken { ip: cur, token });
                }
                let target = exe.remap[token as usize];
                if target == u32::MAX {
                    return Err(VmError::InvalidExecutionToken { ip: cur, token });
                }
                rpush!(ip as Cell);
                ip = target as usize;
                continue;
            }
            Inst::Return => {
                do_rec!();
                let ret = rpop!();
                if ret < 0 || ret as usize > code.len() {
                    return Err(VmError::InstructionOutOfBounds { ip: ret as usize });
                }
                ip = ret as usize;
                continue;
            }
            Inst::Halt => {
                flush!();
                machine.set_stack(&buf[sentinels..sp]);
                machine.set_rstack(&rbuf[..rsp]);
                return Ok(RunStats { executed });
            }
            Inst::Nop => {}

            Inst::DoSetup => {
                let (limit_v, start) = pop2!();
                rpush!(limit_v);
                rpush!(start);
            }
            Inst::QDoSetup(t) => {
                let (limit_v, start) = pop2!();
                do_rec!();
                if limit_v == start {
                    ip = t as usize;
                } else {
                    rpush!(limit_v);
                    rpush!(start);
                }
                continue;
            }
            Inst::LoopInc(t) => {
                do_rec!();
                if MODE == CHECK_FULL && rsp < 2 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let index = rbuf[rsp - 1].wrapping_add(1);
                let limit_v = rbuf[rsp - 2];
                if index == limit_v {
                    rsp -= 2;
                } else {
                    rbuf[rsp - 1] = index;
                    ip = t as usize;
                }
                continue;
            }
            Inst::PlusLoopInc(t) => {
                let step = pop1!();
                do_rec!();
                if MODE == CHECK_FULL && rsp < 2 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let old = rbuf[rsp - 1];
                let new = old.wrapping_add(step);
                let limit_v = rbuf[rsp - 2];
                let crossed = if step >= 0 {
                    old < limit_v && new >= limit_v
                } else {
                    old >= limit_v && new < limit_v
                };
                if crossed {
                    rsp -= 2;
                } else {
                    rbuf[rsp - 1] = new;
                    ip = t as usize;
                }
                continue;
            }
            Inst::LoopI => {
                if MODE == CHECK_FULL && rsp == 0 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let v = rbuf[rsp - 1];
                let mut st = sin;
                push_v!(st, v);
            }
            Inst::LoopJ => {
                if MODE == CHECK_FULL && rsp < 4 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let v = rbuf[rsp - 3];
                let mut st = sin;
                push_v!(st, v);
            }
            Inst::Unloop => {
                if MODE == CHECK_FULL && rsp < 2 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                rsp -= 2;
            }

            Inst::Emit => {
                let c = pop1!();
                machine.push_output_byte(c as u8);
            }
            Inst::Dot => {
                let n = pop1!();
                machine.push_output_number(n);
            }
            Inst::Type => {
                let (addr, len) = pop2!();
                if len < 0 {
                    return Err(VmError::MemoryOutOfBounds { ip: cur, addr: len });
                }
                for i in 0..len {
                    let a = addr.wrapping_add(i);
                    match machine.load_byte(a) {
                        Some(byte) => machine.push_output_byte(byte as u8),
                        None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr: a }),
                    }
                }
            }
            Inst::Cr => machine.push_output_byte(b'\n'),
        }

        do_rec!();
    }
}
