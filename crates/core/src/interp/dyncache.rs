//! A real (wall-clock) dynamically stack-cached interpreter (Section 4).
//!
//! Minimal organization with **three cache registers** (`r0`, `r1`, `r2` —
//! local variables the native compiler allocates to machine registers) and
//! four states: `s` = number of cached top-of-stack items, `r0` holding the
//! deepest cached item. The overflow followup state is the full state; the
//! underflow followup holds exactly the instruction's results, as in the
//! paper's measured configurations.
//!
//! The paper implements dynamic caching by replicating the interpreter per
//! state and jumping between copies with computed gotos; stable Rust has
//! neither computed gotos nor guaranteed tail calls, so the faithful
//! analogue is a single dispatch loop whose arms are specialized per
//! (state, instruction) — the state lives in a register, instruction
//! implementations are exactly the per-state specializations of Fig. 19,
//! and the stack pointer is only touched on overflow/underflow
//! (sp-update minimization, Section 3.1).

use stackcache_vm::stacks::FlatStacks;
use stackcache_vm::{Cell, Checks, Inst, Machine, Program, VmError, CELL_BYTES, FALSE, TRUE};

use crate::interp::{RunStats, CHECK_FULL, CHECK_NONE, CHECK_NO_UNDERFLOW};

#[inline]
fn flag(b: bool) -> Cell {
    if b {
        TRUE
    } else {
        FALSE
    }
}

/// Run `program` with the dynamically stack-cached interpreter.
///
/// Observable behaviour (final stacks, memory, output, traps) is identical
/// to the reference interpreter in `stackcache-vm`; tests cross-validate.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter.
pub fn run_dyncache(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
) -> Result<RunStats, VmError> {
    run_dyncache_mode::<CHECK_FULL>(program, machine, fuel)
}

/// [`run_dyncache`] at a selectable [`Checks`] level.
///
/// Levels above [`Checks::Full`] are sound only for programs proven safe
/// by static analysis; see [`Checks`] for the contract.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter (minus the
/// trap classes the chosen level elides).
pub fn run_dyncache_with_checks(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<RunStats, VmError> {
    match checks {
        Checks::Full => run_dyncache_mode::<CHECK_FULL>(program, machine, fuel),
        Checks::NoUnderflow => run_dyncache_mode::<CHECK_NO_UNDERFLOW>(program, machine, fuel),
        Checks::None => run_dyncache_mode::<CHECK_NONE>(program, machine, fuel),
    }
}

fn run_dyncache_mode<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
) -> Result<RunStats, VmError> {
    // Adopt pre-set stack contents into memory (`buf` is the in-memory
    // part of the data stack); the cache starts empty.
    let mut st = FlatStacks::lease(machine, 0);
    dyncache_loop::<MODE>(program, machine, fuel, &mut st)
}

/// The dispatch loop over the leased stack cells, kept out of line (see
/// [`FlatStacks`]).
#[inline(never)]
#[allow(clippy::too_many_lines)]
#[allow(unused_assignments)] // the cache-state macros assign past the last use
fn dyncache_loop<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    st: &mut FlatStacks,
) -> Result<RunStats, VmError> {
    let insts = program.insts();
    let (limit, rlimit, mut sp, mut rsp) = (st.limit, st.rlimit, st.sp, st.rsp);
    let (buf, rbuf) = st.cells_mut();

    // cache registers and state
    let mut r0: Cell = 0;
    let mut r1: Cell = 0;
    let mut r2: Cell = 0;
    let mut s: u8 = 0;

    let mut ip = program.entry();
    let mut executed: u64 = 0;

    loop {
        if executed >= fuel {
            return Err(VmError::FuelExhausted { ip });
        }
        let Some(&inst) = insts.get(ip) else {
            return Err(VmError::InstructionOutOfBounds { ip });
        };
        executed += 1;
        let cur = ip;
        ip += 1;

        // ---- cache helpers ------------------------------------------------
        macro_rules! depth {
            () => {
                sp + s as usize
            };
        }
        /// Push a value into the cache (overflow followup: full state).
        macro_rules! push_val {
            ($v:expr) => {{
                let v = $v;
                match s {
                    0 => {
                        r0 = v;
                        s = 1;
                    }
                    1 => {
                        r1 = v;
                        s = 2;
                    }
                    2 => {
                        r2 = v;
                        s = 3;
                    }
                    _ => {
                        // overflow: spill the bottom, shift, stay full
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
        /// Pop the top of stack out of the cache.
        macro_rules! pop_val {
            () => {{
                match s {
                    0 => {
                        if MODE == CHECK_FULL && sp == 0 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 1;
                        buf[sp]
                    }
                    1 => {
                        s = 0;
                        r0
                    }
                    2 => {
                        s = 1;
                        r1
                    }
                    _ => {
                        s = 2;
                        r2
                    }
                }
            }};
        }
        /// Binary operation; result stays cached (underflow policy).
        macro_rules! binop {
            ($f:expr) => {{
                match s {
                    0 => {
                        if MODE == CHECK_FULL && sp < 2 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        let b = buf[sp - 1];
                        let a = buf[sp - 2];
                        sp -= 2;
                        r0 = $f(a, b);
                        s = 1;
                    }
                    1 => {
                        if MODE == CHECK_FULL && sp < 1 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        let a = buf[sp - 1];
                        sp -= 1;
                        r0 = $f(a, r0);
                    }
                    2 => {
                        r0 = $f(r0, r1);
                        s = 1;
                    }
                    _ => {
                        r1 = $f(r1, r2);
                        s = 2;
                    }
                }
            }};
        }
        /// Unary operation on the cached top of stack.
        macro_rules! unop {
            ($f:expr) => {{
                match s {
                    0 => {
                        if MODE == CHECK_FULL && sp == 0 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 1;
                        r0 = $f(buf[sp]);
                        s = 1;
                    }
                    1 => r0 = $f(r0),
                    2 => r1 = $f(r1),
                    _ => r2 = $f(r2),
                }
            }};
        }
        /// Spill the whole cache to memory (for rare, cache-opaque work).
        macro_rules! flush {
            () => {{
                if MODE < CHECK_NONE && sp + s as usize > limit {
                    return Err(VmError::StackOverflow { ip: cur });
                }
                if s >= 1 {
                    buf[sp] = r0;
                }
                if s >= 2 {
                    buf[sp + 1] = r1;
                }
                if s >= 3 {
                    buf[sp + 2] = r2;
                }
                sp += s as usize;
                s = 0;
            }};
        }
        macro_rules! need {
            ($n:expr) => {
                if MODE == CHECK_FULL && depth!() < $n {
                    return Err(VmError::StackUnderflow { ip: cur });
                }
            };
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

        match inst {
            Inst::Lit(n) => push_val!(n),

            Inst::Add => binop!(|a: Cell, b: Cell| a.wrapping_add(b)),
            Inst::Sub => binop!(|a: Cell, b: Cell| a.wrapping_sub(b)),
            Inst::Mul => binop!(|a: Cell, b: Cell| a.wrapping_mul(b)),
            Inst::Div => {
                let b = pop_val!();
                if b == 0 {
                    return Err(VmError::DivisionByZero { ip: cur });
                }
                let a = pop_val!();
                push_val!(a.div_euclid(b));
            }
            Inst::Mod => {
                let b = pop_val!();
                if b == 0 {
                    return Err(VmError::DivisionByZero { ip: cur });
                }
                let a = pop_val!();
                push_val!(a.rem_euclid(b));
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
                // specialize: duplicate the cached top without popping
                match s {
                    0 => {
                        if MODE == CHECK_FULL && sp == 0 {
                            return Err(VmError::StackUnderflow { ip: cur });
                        }
                        sp -= 1;
                        r0 = buf[sp];
                        r1 = r0;
                        s = 2;
                    }
                    1 => {
                        r1 = r0;
                        s = 2;
                    }
                    2 => {
                        r2 = r1;
                        s = 3;
                    }
                    _ => {
                        let v = r2;
                        push_val!(v);
                    }
                }
            }
            Inst::Drop => {
                let _ = pop_val!();
            }
            Inst::Swap => match s {
                0 | 1 => {
                    let b = pop_val!();
                    let a = pop_val!();
                    push_val!(b);
                    push_val!(a);
                }
                2 => std::mem::swap(&mut r0, &mut r1),
                _ => std::mem::swap(&mut r1, &mut r2),
            },
            Inst::Over => match s {
                2 => {
                    r2 = r0;
                    s = 3;
                }
                3 => {
                    let v = r1;
                    push_val!(v);
                }
                _ => {
                    let b = pop_val!();
                    let a = pop_val!();
                    push_val!(a);
                    push_val!(b);
                    push_val!(a);
                }
            },
            Inst::Rot => match s {
                3 => {
                    let t = r0;
                    r0 = r1;
                    r1 = r2;
                    r2 = t;
                }
                _ => {
                    let c = pop_val!();
                    let b = pop_val!();
                    let a = pop_val!();
                    push_val!(b);
                    push_val!(c);
                    push_val!(a);
                }
            },
            Inst::MinusRot => match s {
                3 => {
                    let t = r2;
                    r2 = r1;
                    r1 = r0;
                    r0 = t;
                }
                _ => {
                    let c = pop_val!();
                    let b = pop_val!();
                    let a = pop_val!();
                    push_val!(c);
                    push_val!(a);
                    push_val!(b);
                }
            },
            Inst::Nip => {
                let b = pop_val!();
                let _ = pop_val!();
                push_val!(b);
            }
            Inst::Tuck => {
                let b = pop_val!();
                let a = pop_val!();
                push_val!(b);
                push_val!(a);
                push_val!(b);
            }
            Inst::TwoDup => {
                need!(2);
                let b = pop_val!();
                let a = pop_val!();
                push_val!(a);
                push_val!(b);
                push_val!(a);
                push_val!(b);
            }
            Inst::TwoDrop => {
                let _ = pop_val!();
                let _ = pop_val!();
            }
            Inst::TwoSwap => {
                need!(4);
                let d = pop_val!();
                let c = pop_val!();
                let b = pop_val!();
                let a = pop_val!();
                push_val!(c);
                push_val!(d);
                push_val!(a);
                push_val!(b);
            }
            Inst::TwoOver => {
                need!(4);
                let d = pop_val!();
                let c = pop_val!();
                let b = pop_val!();
                let a = pop_val!();
                push_val!(a);
                push_val!(b);
                push_val!(c);
                push_val!(d);
                push_val!(a);
                push_val!(b);
            }
            Inst::QDup => {
                let a = pop_val!();
                push_val!(a);
                if a != 0 {
                    push_val!(a);
                }
            }
            Inst::Pick => {
                // cache-opaque: flush, then operate on memory
                flush!();
                if MODE == CHECK_FULL && sp == 0 {
                    return Err(VmError::StackUnderflow { ip: cur });
                }
                sp -= 1;
                let u = buf[sp];
                if u < 0 || u as usize >= sp {
                    return Err(VmError::PickOutOfRange { ip: cur, index: u });
                }
                let v = buf[sp - 1 - u as usize];
                push_val!(v);
            }
            Inst::Depth => {
                let d = depth!() as Cell;
                push_val!(d);
            }
            Inst::ToR => {
                let a = pop_val!();
                rpush!(a);
            }
            Inst::FromR => {
                let a = rpop!();
                push_val!(a);
            }
            Inst::RFetch => {
                if MODE == CHECK_FULL && rsp == 0 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let a = rbuf[rsp - 1];
                push_val!(a);
            }
            Inst::TwoToR => {
                let b = pop_val!();
                let a = pop_val!();
                rpush!(a);
                rpush!(b);
            }
            Inst::TwoFromR => {
                let b = rpop!();
                let a = rpop!();
                push_val!(a);
                push_val!(b);
            }
            Inst::TwoRFetch => {
                if MODE == CHECK_FULL && rsp < 2 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let a = rbuf[rsp - 2];
                let b = rbuf[rsp - 1];
                push_val!(a);
                push_val!(b);
            }
            Inst::Fetch => {
                let addr = pop_val!();
                match machine.load_cell(addr) {
                    Some(x) => push_val!(x),
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr }),
                }
            }
            Inst::Store => {
                let addr = pop_val!();
                let x = pop_val!();
                if !machine.store_cell(addr, x) {
                    return Err(VmError::MemoryOutOfBounds { ip: cur, addr });
                }
            }
            Inst::CFetch => {
                let addr = pop_val!();
                match machine.load_byte(addr) {
                    Some(x) => push_val!(x),
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr }),
                }
            }
            Inst::CStore => {
                let addr = pop_val!();
                let x = pop_val!();
                if !machine.store_byte(addr, x) {
                    return Err(VmError::MemoryOutOfBounds { ip: cur, addr });
                }
            }
            Inst::PlusStore => {
                let addr = pop_val!();
                let n = pop_val!();
                match machine.load_cell(addr) {
                    Some(x) => {
                        machine.store_cell(addr, x.wrapping_add(n));
                    }
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr }),
                }
            }
            Inst::Branch(t) => ip = t as usize,
            Inst::BranchIfZero(t) => {
                let f = pop_val!();
                if f == 0 {
                    ip = t as usize;
                }
            }
            Inst::Call(t) => {
                rpush!(ip as Cell);
                ip = t as usize;
            }
            Inst::Execute => {
                let token = pop_val!();
                if token < 0 || token as usize >= insts.len() {
                    return Err(VmError::InvalidExecutionToken { ip: cur, token });
                }
                rpush!(ip as Cell);
                ip = token as usize;
            }
            Inst::Return => {
                let ret = rpop!();
                if ret < 0 || ret as usize > insts.len() {
                    return Err(VmError::InstructionOutOfBounds { ip: ret as usize });
                }
                ip = ret as usize;
            }
            Inst::Halt => {
                flush!();
                machine.set_stack(&buf[..sp]);
                machine.set_rstack(&rbuf[..rsp]);
                return Ok(RunStats { executed });
            }
            Inst::Nop => {}
            Inst::DoSetup => {
                let start = pop_val!();
                let limit_v = pop_val!();
                rpush!(limit_v);
                rpush!(start);
            }
            Inst::QDoSetup(t) => {
                let start = pop_val!();
                let limit_v = pop_val!();
                if limit_v == start {
                    ip = t as usize;
                } else {
                    rpush!(limit_v);
                    rpush!(start);
                }
            }
            Inst::LoopInc(t) => {
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
            }
            Inst::PlusLoopInc(t) => {
                let step = pop_val!();
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
            }
            Inst::LoopI => {
                if MODE == CHECK_FULL && rsp == 0 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let i = rbuf[rsp - 1];
                push_val!(i);
            }
            Inst::LoopJ => {
                if MODE == CHECK_FULL && rsp < 4 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let j = rbuf[rsp - 3];
                push_val!(j);
            }
            Inst::Unloop => {
                if MODE == CHECK_FULL && rsp < 2 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                rsp -= 2;
            }
            Inst::Emit => {
                let c = pop_val!();
                machine.push_output_byte(c as u8);
            }
            Inst::Dot => {
                let n = pop_val!();
                machine.push_output_number(n);
            }
            Inst::Type => {
                let len = pop_val!();
                let addr = pop_val!();
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
    }
}
