//! Wall-clock interpreters: the uncached baseline and the k=1
//! top-of-stack-in-register interpreter.
//!
//! These are the two ends of Fig. 21's "constant number of items in
//! registers" axis that can be compared by real measurement (the paper
//! reports an 11% speedup for `prims2x` and 7% for `cross` from keeping one
//! item in a register on an R3000; the `interpreters` bench regenerates the
//! comparison on the host machine).
//!
//! Both interpreters implement exactly the same observable semantics as the
//! reference interpreter in [`crate::exec`] — including traps — and are
//! cross-validated against it in tests.  The difference is purely in how
//! the data stack is accessed:
//!
//! * [`run_baseline`] keeps every stack item in memory and manipulates an
//!   explicit stack-pointer index (Fig. 11); it is a driver over the shared
//!   opcode semantics in `sem::step`,
//! * [`run_tos`] keeps the top of stack in a local variable that the
//!   compiler can allocate to a machine register (Fig. 12), turning e.g.
//!   `+` from two loads + one store into a single load.
//!
//! The dynamically and statically cached interpreters live in
//! `stackcache-core`, next to the cache-state machinery they need.

use crate::checks::{Checks, CHECK_FULL, CHECK_NONE, CHECK_NO_UNDERFLOW};
use crate::error::VmError;
use crate::inst::{flag, Cell, Inst, CELL_BYTES};
use crate::machine::Machine;
use crate::program::Program;
use crate::sem::{step, Flow};
use crate::stacks::FlatStacks;

/// Outcome of a wall-clock interpreter run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of instructions executed (including the final `halt`).
    pub executed: u64,
}

/// Run `program` with the plain memory-stack interpreter.
///
/// The data and return stacks are dense arrays indexed by explicit stack
/// pointers; every operand access is a memory access, as in Fig. 11 of the
/// paper.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter.
pub fn run_baseline(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
) -> Result<RunStats, VmError> {
    run_baseline_mode::<CHECK_FULL>(program, machine, fuel)
}

/// [`run_baseline`] at a selectable [`Checks`] level.
///
/// Levels above [`Checks::Full`] are sound only for programs proven safe
/// by static analysis; see [`Checks`] for the contract.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter (minus the
/// trap classes the chosen level elides).
pub fn run_baseline_with_checks(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<RunStats, VmError> {
    match checks {
        Checks::Full => run_baseline_mode::<CHECK_FULL>(program, machine, fuel),
        Checks::NoUnderflow => run_baseline_mode::<CHECK_NO_UNDERFLOW>(program, machine, fuel),
        Checks::None => run_baseline_mode::<CHECK_NONE>(program, machine, fuel),
    }
}

fn run_baseline_mode<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
) -> Result<RunStats, VmError> {
    // Adopt any pre-set stack contents.
    let mut st = FlatStacks::lease(machine, 0);
    baseline_loop::<MODE>(program, machine, fuel, &mut st)
}

/// The dispatch loop over the leased stack cells, kept out of line (see
/// [`FlatStacks`]): [`step`] until `halt`, ignoring [`Flow::Jump`].
#[inline(never)]
fn baseline_loop<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    st: &mut FlatStacks,
) -> Result<RunStats, VmError> {
    let insts = program.insts();
    let mut s = st.flat::<MODE>();
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
        if step(&mut s, inst, cur, &mut ip, machine, insts.len())? == Flow::Halt {
            s.publish(machine);
            return Ok(RunStats { executed });
        }
    }
}

/// Run `program` with the top-of-stack-in-register interpreter (k = 1).
///
/// The top of the data stack lives in a local variable (`tos`) which the
/// native compiler keeps in a machine register; stack memory holds only the
/// items below it. Binary operations therefore perform one load instead of
/// two loads and a store, and unary operations touch no stack memory at
/// all (Fig. 12 of the paper).
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter.
pub fn run_tos(program: &Program, machine: &mut Machine, fuel: u64) -> Result<RunStats, VmError> {
    run_tos_mode::<CHECK_FULL>(program, machine, fuel)
}

/// [`run_tos`] at a selectable [`Checks`] level.
///
/// Levels above [`Checks::Full`] are sound only for programs proven safe
/// by static analysis; see [`Checks`] for the contract.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter (minus the
/// trap classes the chosen level elides).
pub fn run_tos_with_checks(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<RunStats, VmError> {
    match checks {
        Checks::Full => run_tos_mode::<CHECK_FULL>(program, machine, fuel),
        Checks::NoUnderflow => run_tos_mode::<CHECK_NO_UNDERFLOW>(program, machine, fuel),
        Checks::None => run_tos_mode::<CHECK_NONE>(program, machine, fuel),
    }
}

fn run_tos_mode<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
) -> Result<RunStats, VmError> {
    let mut st = FlatStacks::lease(machine, 0);
    tos_loop::<MODE>(program, machine, fuel, &mut st)
}

/// The dispatch loop over the leased stack cells, kept out of line (see
/// [`FlatStacks`]).
#[inline(never)]
#[allow(clippy::too_many_lines)]
fn tos_loop<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    st: &mut FlatStacks,
) -> Result<RunStats, VmError> {
    let insts = program.insts();
    // `depth` counts all items; items 0..depth-1 are live, with item
    // depth-1 held in `tos` (its memory slot is stale).
    let (limit, rlimit, mut depth, mut rsp) = (st.limit, st.rlimit, st.sp, st.rsp);
    let (buf, rbuf) = st.cells_mut();
    let mut tos: Cell = if depth > 0 { buf[depth - 1] } else { 0 };

    let mut ip = program.entry();
    let mut executed: u64 = 0;

    macro_rules! push {
        ($cur:expr, $v:expr) => {{
            if MODE < CHECK_NONE && depth >= limit {
                return Err(VmError::StackOverflow { ip: $cur });
            }
            if depth > 0 {
                buf[depth - 1] = tos;
            }
            tos = $v;
            depth += 1;
        }};
    }
    macro_rules! pop {
        ($cur:expr) => {{
            if MODE == CHECK_FULL && depth == 0 {
                return Err(VmError::StackUnderflow { ip: $cur });
            }
            let v = tos;
            depth -= 1;
            if depth > 0 {
                tos = buf[depth - 1];
            }
            v
        }};
    }
    macro_rules! need {
        ($cur:expr, $n:expr) => {
            if MODE == CHECK_FULL && depth < $n {
                return Err(VmError::StackUnderflow { ip: $cur });
            }
        };
    }
    macro_rules! rpop {
        ($cur:expr) => {{
            if MODE == CHECK_FULL && rsp == 0 {
                return Err(VmError::ReturnStackUnderflow { ip: $cur });
            }
            rsp -= 1;
            rbuf[rsp]
        }};
    }
    macro_rules! rpush {
        ($cur:expr, $v:expr) => {{
            if MODE < CHECK_NONE && rsp >= rlimit {
                return Err(VmError::ReturnStackOverflow { ip: $cur });
            }
            rbuf[rsp] = $v;
            rsp += 1;
        }};
    }
    // Binary op: second operand loaded from memory, result stays in tos.
    macro_rules! binop {
        ($cur:expr, $f:expr) => {{
            need!($cur, 2);
            let a = buf[depth - 2];
            tos = $f(a, tos);
            depth -= 1;
        }};
    }
    // Unary op: no stack memory traffic at all.
    macro_rules! unop {
        ($cur:expr, $f:expr) => {{
            need!($cur, 1);
            tos = $f(tos);
        }};
    }

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
        match inst {
            Inst::Lit(n) => push!(cur, n),
            Inst::Add => binop!(cur, |a: Cell, b: Cell| a.wrapping_add(b)),
            Inst::Sub => binop!(cur, |a: Cell, b: Cell| a.wrapping_sub(b)),
            Inst::Mul => binop!(cur, |a: Cell, b: Cell| a.wrapping_mul(b)),
            Inst::Div => {
                need!(cur, 2);
                if tos == 0 {
                    return Err(VmError::DivisionByZero { ip: cur });
                }
                let a = buf[depth - 2];
                tos = a.wrapping_div_euclid(tos);
                depth -= 1;
            }
            Inst::Mod => {
                need!(cur, 2);
                if tos == 0 {
                    return Err(VmError::DivisionByZero { ip: cur });
                }
                let a = buf[depth - 2];
                tos = a.wrapping_rem_euclid(tos);
                depth -= 1;
            }
            Inst::And => binop!(cur, |a: Cell, b: Cell| a & b),
            Inst::Or => binop!(cur, |a: Cell, b: Cell| a | b),
            Inst::Xor => binop!(cur, |a: Cell, b: Cell| a ^ b),
            Inst::Lshift => binop!(cur, |a: Cell, b: Cell| ((a as u64) << (b as u64 & 63))
                as Cell),
            Inst::Rshift => binop!(cur, |a: Cell, b: Cell| ((a as u64) >> (b as u64 & 63))
                as Cell),
            Inst::Min => binop!(cur, |a: Cell, b: Cell| a.min(b)),
            Inst::Max => binop!(cur, |a: Cell, b: Cell| a.max(b)),
            Inst::Eq => binop!(cur, |a, b| flag(a == b)),
            Inst::Ne => binop!(cur, |a, b| flag(a != b)),
            Inst::Lt => binop!(cur, |a, b| flag(a < b)),
            Inst::Gt => binop!(cur, |a, b| flag(a > b)),
            Inst::Le => binop!(cur, |a, b| flag(a <= b)),
            Inst::Ge => binop!(cur, |a, b| flag(a >= b)),
            Inst::ULt => binop!(cur, |a: Cell, b: Cell| flag((a as u64) < (b as u64))),
            Inst::UGt => binop!(cur, |a: Cell, b: Cell| flag((a as u64) > (b as u64))),
            Inst::Negate => unop!(cur, |a: Cell| a.wrapping_neg()),
            Inst::Invert => unop!(cur, |a: Cell| !a),
            Inst::Abs => unop!(cur, |a: Cell| a.wrapping_abs()),
            Inst::OnePlus => unop!(cur, |a: Cell| a.wrapping_add(1)),
            Inst::OneMinus => unop!(cur, |a: Cell| a.wrapping_sub(1)),
            Inst::TwoStar => unop!(cur, |a: Cell| a.wrapping_mul(2)),
            Inst::TwoSlash => unop!(cur, |a: Cell| a >> 1),
            Inst::ZeroEq => unop!(cur, |a| flag(a == 0)),
            Inst::ZeroNe => unop!(cur, |a| flag(a != 0)),
            Inst::ZeroLt => unop!(cur, |a| flag(a < 0)),
            Inst::ZeroGt => unop!(cur, |a| flag(a > 0)),
            Inst::CellPlus => unop!(cur, |a: Cell| a.wrapping_add(CELL_BYTES as Cell)),
            Inst::Cells => unop!(cur, |a: Cell| a.wrapping_mul(CELL_BYTES as Cell)),
            Inst::CharPlus => unop!(cur, |a: Cell| a.wrapping_add(1)),
            Inst::Dup => {
                need!(cur, 1);
                let v = tos;
                push!(cur, v);
            }
            Inst::Drop => {
                need!(cur, 1);
                depth -= 1;
                if depth > 0 {
                    tos = buf[depth - 1];
                }
            }
            Inst::Swap => {
                need!(cur, 2);
                std::mem::swap(&mut buf[depth - 2], &mut tos);
            }
            Inst::Over => {
                need!(cur, 2);
                let a = buf[depth - 2];
                push!(cur, a);
            }
            Inst::Rot => {
                need!(cur, 3);
                let a = buf[depth - 3];
                buf[depth - 3] = buf[depth - 2];
                buf[depth - 2] = tos;
                tos = a;
            }
            Inst::MinusRot => {
                need!(cur, 3);
                let c = tos;
                tos = buf[depth - 2];
                buf[depth - 2] = buf[depth - 3];
                buf[depth - 3] = c;
            }
            Inst::Nip => {
                need!(cur, 2);
                depth -= 1;
            }
            Inst::Tuck => {
                // ( a b -- b a b ), b stays in tos
                need!(cur, 2);
                if MODE < CHECK_NONE && depth >= limit {
                    return Err(VmError::StackOverflow { ip: cur });
                }
                let a = buf[depth - 2];
                buf[depth - 2] = tos;
                buf[depth - 1] = a;
                depth += 1;
            }
            Inst::TwoDup => {
                need!(cur, 2);
                let a = buf[depth - 2];
                let b = tos;
                push!(cur, a);
                push!(cur, b);
            }
            Inst::TwoDrop => {
                need!(cur, 2);
                depth -= 2;
                if depth > 0 {
                    tos = buf[depth - 1];
                }
            }
            Inst::TwoSwap => {
                need!(cur, 4);
                // ( a b c d -- c d a b ), d = tos
                let c = buf[depth - 2];
                let b = buf[depth - 3];
                let a = buf[depth - 4];
                buf[depth - 4] = c;
                buf[depth - 3] = tos;
                buf[depth - 2] = a;
                tos = b;
            }
            Inst::TwoOver => {
                need!(cur, 4);
                let a = buf[depth - 4];
                let b = buf[depth - 3];
                push!(cur, a);
                push!(cur, b);
            }
            Inst::QDup => {
                need!(cur, 1);
                if tos != 0 {
                    let v = tos;
                    push!(cur, v);
                }
            }
            Inst::Pick => {
                need!(cur, 1);
                let u = pop!(cur);
                if u < 0 || u as usize >= depth {
                    return Err(VmError::PickOutOfRange { ip: cur, index: u });
                }
                let v = if u == 0 {
                    tos
                } else {
                    buf[depth - 1 - u as usize]
                };
                push!(cur, v);
            }
            Inst::Depth => {
                let d = depth as Cell;
                push!(cur, d);
            }
            Inst::ToR => {
                let a = pop!(cur);
                rpush!(cur, a);
            }
            Inst::FromR => {
                let a = rpop!(cur);
                push!(cur, a);
            }
            Inst::RFetch => {
                if MODE == CHECK_FULL && rsp == 0 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let a = rbuf[rsp - 1];
                push!(cur, a);
            }
            Inst::TwoToR => {
                need!(cur, 2);
                let b = pop!(cur);
                let a = pop!(cur);
                rpush!(cur, a);
                rpush!(cur, b);
            }
            Inst::TwoFromR => {
                let b = rpop!(cur);
                let a = rpop!(cur);
                push!(cur, a);
                push!(cur, b);
            }
            Inst::TwoRFetch => {
                if MODE == CHECK_FULL && rsp < 2 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let a = rbuf[rsp - 2];
                let b = rbuf[rsp - 1];
                push!(cur, a);
                push!(cur, b);
            }
            Inst::Fetch => {
                need!(cur, 1);
                match machine.load_cell(tos) {
                    Some(x) => tos = x,
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr: tos }),
                }
            }
            Inst::Store => {
                need!(cur, 2);
                let addr = tos;
                let x = buf[depth - 2];
                depth -= 2;
                if depth > 0 {
                    tos = buf[depth - 1];
                }
                if !machine.store_cell(addr, x) {
                    return Err(VmError::MemoryOutOfBounds { ip: cur, addr });
                }
            }
            Inst::CFetch => {
                need!(cur, 1);
                match machine.load_byte(tos) {
                    Some(x) => tos = x,
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr: tos }),
                }
            }
            Inst::CStore => {
                need!(cur, 2);
                let addr = tos;
                let x = buf[depth - 2];
                depth -= 2;
                if depth > 0 {
                    tos = buf[depth - 1];
                }
                if !machine.store_byte(addr, x) {
                    return Err(VmError::MemoryOutOfBounds { ip: cur, addr });
                }
            }
            Inst::PlusStore => {
                need!(cur, 2);
                let addr = tos;
                let n = buf[depth - 2];
                depth -= 2;
                if depth > 0 {
                    tos = buf[depth - 1];
                }
                match machine.load_cell(addr) {
                    Some(x) => {
                        machine.store_cell(addr, x.wrapping_add(n));
                    }
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr }),
                }
            }
            Inst::Branch(t) => ip = t as usize,
            Inst::BranchIfZero(t) => {
                let f = pop!(cur);
                if f == 0 {
                    ip = t as usize;
                }
            }
            Inst::Call(t) => {
                rpush!(cur, ip as Cell);
                ip = t as usize;
            }
            Inst::Execute => {
                let token = pop!(cur);
                if token < 0 || token as usize >= insts.len() {
                    return Err(VmError::InvalidExecutionToken { ip: cur, token });
                }
                rpush!(cur, ip as Cell);
                ip = token as usize;
            }
            Inst::Return => {
                let ret = rpop!(cur);
                if ret < 0 || ret as usize > insts.len() {
                    return Err(VmError::InstructionOutOfBounds { ip: ret as usize });
                }
                ip = ret as usize;
            }
            Inst::Halt => {
                if depth > 0 {
                    buf[depth - 1] = tos;
                }
                machine.stack.clear();
                machine.stack.extend_from_slice(&buf[..depth]);
                machine.rstack.clear();
                machine.rstack.extend_from_slice(&rbuf[..rsp]);
                return Ok(RunStats { executed });
            }
            Inst::Nop => {}
            Inst::DoSetup => {
                need!(cur, 2);
                let start = pop!(cur);
                let limit_v = pop!(cur);
                rpush!(cur, limit_v);
                rpush!(cur, start);
            }
            Inst::QDoSetup(t) => {
                need!(cur, 2);
                let start = pop!(cur);
                let limit_v = pop!(cur);
                if limit_v == start {
                    ip = t as usize;
                } else {
                    rpush!(cur, limit_v);
                    rpush!(cur, start);
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
                let step = pop!(cur);
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
                push!(cur, i);
            }
            Inst::LoopJ => {
                if MODE == CHECK_FULL && rsp < 4 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                let j = rbuf[rsp - 3];
                push!(cur, j);
            }
            Inst::Unloop => {
                if MODE == CHECK_FULL && rsp < 2 {
                    return Err(VmError::ReturnStackUnderflow { ip: cur });
                }
                rsp -= 2;
            }
            Inst::Emit => {
                let c = pop!(cur);
                machine.out.push(c as u8);
            }
            Inst::Dot => {
                let n = pop!(cur);
                machine.out.extend_from_slice(n.to_string().as_bytes());
                machine.out.push(b' ');
            }
            Inst::Type => {
                need!(cur, 2);
                let len = pop!(cur);
                let addr = pop!(cur);
                if len < 0 {
                    return Err(VmError::MemoryOutOfBounds { ip: cur, addr: len });
                }
                for i in 0..len {
                    let a = addr.wrapping_add(i);
                    match machine.load_byte(a) {
                        Some(byte) => machine.out.push(byte as u8),
                        None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr: a }),
                    }
                }
            }
            Inst::Cr => machine.out.push(b'\n'),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run as run_reference;
    use crate::program::{program_of, ProgramBuilder};

    /// Run a program on all three engines and assert identical machines.
    fn cross_validate(p: &Program) {
        let mut m_ref = Machine::with_memory(4096);
        let mut m_base = m_ref.clone();
        let mut m_tos = m_ref.clone();
        let r_ref = run_reference(p, &mut m_ref, 1_000_000);
        let r_base = run_baseline(p, &mut m_base, 1_000_000);
        let r_tos = run_tos(p, &mut m_tos, 1_000_000);
        match r_ref {
            Ok(out) => {
                let b = r_base.expect("baseline agrees on success");
                let t = r_tos.expect("tos agrees on success");
                assert_eq!(out.executed, b.executed);
                assert_eq!(out.executed, t.executed);
                assert_eq!(m_ref.stack(), m_base.stack(), "baseline stack");
                assert_eq!(m_ref.stack(), m_tos.stack(), "tos stack");
                assert_eq!(m_ref.rstack(), m_base.rstack());
                assert_eq!(m_ref.rstack(), m_tos.rstack());
                assert_eq!(m_ref.output(), m_base.output());
                assert_eq!(m_ref.output(), m_tos.output());
                assert_eq!(m_ref.memory(), m_base.memory());
                assert_eq!(m_ref.memory(), m_tos.memory());
            }
            Err(e) => {
                assert_eq!(r_base.unwrap_err(), e, "baseline error agrees");
                assert_eq!(r_tos.unwrap_err(), e, "tos error agrees");
            }
        }
    }

    #[test]
    fn engines_agree_on_shuffles() {
        cross_validate(&program_of(&[
            Inst::Lit(1),
            Inst::Lit(2),
            Inst::Lit(3),
            Inst::Lit(4),
            Inst::TwoSwap,
            Inst::Rot,
            Inst::Tuck,
            Inst::MinusRot,
            Inst::Over,
            Inst::Nip,
            Inst::TwoDup,
            Inst::TwoOver,
            Inst::Swap,
            Inst::Dup,
        ]));
    }

    #[test]
    fn engines_agree_on_arithmetic() {
        cross_validate(&program_of(&[
            Inst::Lit(10),
            Inst::Lit(-3),
            Inst::Div,
            Inst::Lit(10),
            Inst::Lit(-3),
            Inst::Mod,
            Inst::Lit(7),
            Inst::Lit(3),
            Inst::Xor,
            Inst::Negate,
            Inst::Abs,
            Inst::Lit(100),
            Inst::Max,
            Inst::Lit(1),
            Inst::Lshift,
        ]));
    }

    #[test]
    fn engines_agree_on_memory_and_io() {
        cross_validate(&program_of(&[
            Inst::Lit(42),
            Inst::Lit(100),
            Inst::Store,
            Inst::Lit(100),
            Inst::Fetch,
            Inst::Dot,
            Inst::Lit(65),
            Inst::Lit(101),
            Inst::CStore,
            Inst::Lit(101),
            Inst::CFetch,
            Inst::Emit,
            Inst::Cr,
            Inst::Lit(5),
            Inst::Lit(100),
            Inst::PlusStore,
            Inst::Lit(100),
            Inst::Fetch,
        ]));
    }

    #[test]
    fn engines_agree_on_loops_and_calls() {
        let mut b = ProgramBuilder::new();
        let word = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(0));
        b.push(Inst::Lit(10));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::LoopI);
        b.call(word);
        b.push(Inst::Add);
        b.loop_inc(top);
        b.push(Inst::Halt);
        b.bind(word).unwrap();
        b.push(Inst::Dup);
        b.push(Inst::Mul);
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        cross_validate(&p);
    }

    #[test]
    fn engines_agree_on_rstack_words() {
        cross_validate(&program_of(&[
            Inst::Lit(1),
            Inst::Lit(2),
            Inst::TwoToR,
            Inst::TwoRFetch,
            Inst::TwoFromR,
            Inst::Lit(9),
            Inst::ToR,
            Inst::RFetch,
            Inst::FromR,
            Inst::Add,
        ]));
    }

    #[test]
    fn engines_agree_on_qdup_and_pick() {
        cross_validate(&program_of(&[
            Inst::Lit(0),
            Inst::QDup,
            Inst::Lit(5),
            Inst::QDup,
            Inst::Lit(2),
            Inst::Pick,
            Inst::Depth,
        ]));
    }

    #[test]
    fn engines_agree_on_traps() {
        cross_validate(&program_of(&[Inst::Lit(1), Inst::Lit(0), Inst::Div]));
        cross_validate(&program_of(&[Inst::Add]));
        cross_validate(&program_of(&[Inst::FromR]));
        cross_validate(&program_of(&[Inst::Lit(1 << 40), Inst::Fetch]));
        cross_validate(&program_of(&[Inst::Lit(1), Inst::Lit(9), Inst::Pick]));
    }

    #[test]
    fn tuck_is_correct_in_tos_engine() {
        let p = program_of(&[Inst::Lit(1), Inst::Lit(2), Inst::Tuck]);
        let mut m = Machine::with_memory(64);
        run_tos(&p, &mut m, 100).unwrap();
        assert_eq!(m.stack(), &[2, 1, 2]);
    }

    #[test]
    fn check_levels_agree_on_safe_programs() {
        // a depth-safe program exercising data stack, return stack, loops
        let mut b = ProgramBuilder::new();
        let word = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(0));
        b.push(Inst::Lit(8));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::LoopI);
        b.call(word);
        b.push(Inst::Add);
        b.loop_inc(top);
        b.push(Inst::Lit(5));
        b.push(Inst::ToR);
        b.push(Inst::RFetch);
        b.push(Inst::Add);
        b.push(Inst::FromR);
        b.push(Inst::Drop);
        b.push(Inst::Halt);
        b.bind(word).unwrap();
        b.push(Inst::Dup);
        b.push(Inst::Mul);
        b.push(Inst::Return);
        let p = b.finish().unwrap();

        let mut m_ref = Machine::with_memory(4096);
        run_reference(&p, &mut m_ref, 1_000_000).unwrap();
        for checks in [Checks::Full, Checks::NoUnderflow, Checks::None] {
            let mut m_base = Machine::with_memory(4096);
            let mut m_tos = Machine::with_memory(4096);
            let mut m_exec = Machine::with_memory(4096);
            run_baseline_with_checks(&p, &mut m_base, 1_000_000, checks).unwrap();
            run_tos_with_checks(&p, &mut m_tos, 1_000_000, checks).unwrap();
            crate::exec::run_with_checks(&p, &mut m_exec, 1_000_000, checks).unwrap();
            for m in [&m_base, &m_tos, &m_exec] {
                assert_eq!(m_ref.stack(), m.stack(), "{checks:?}");
                assert_eq!(m_ref.rstack(), m.rstack(), "{checks:?}");
            }
        }
    }

    #[test]
    fn guarded_level_still_traps_on_overflow() {
        // push forever: overflow must still fire under NoUnderflow
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::Lit(1));
        b.branch(top);
        let p = b.finish().unwrap();
        for engine in [run_baseline_with_checks, run_tos_with_checks] {
            let mut m = Machine::with_memory(64);
            let err = engine(&p, &mut m, u64::MAX, Checks::NoUnderflow).unwrap_err();
            assert!(matches!(err, VmError::StackOverflow { .. }), "{err:?}");
        }
        let mut m = Machine::with_memory(64);
        let err =
            crate::exec::run_with_checks(&p, &mut m, u64::MAX, Checks::NoUnderflow).unwrap_err();
        assert!(matches!(err, VmError::StackOverflow { .. }), "{err:?}");
    }

    #[test]
    fn preset_stack_is_adopted() {
        let p = program_of(&[Inst::Add]);
        for engine in [run_baseline, run_tos] {
            let mut m = Machine::with_memory(64);
            m.push(30);
            m.push(12);
            engine(&p, &mut m, 100).unwrap();
            assert_eq!(m.stack(), &[42]);
        }
    }
}
