//! Resumable block execution: the interpreter half of a mixed-mode
//! (native + interpreted) engine.
//!
//! A template JIT executes whole basic blocks natively and must be able
//! to hand control back to the interpreter at an *arbitrary* instruction
//! boundary — on an unsupported opcode, a potential trap, or a fuel
//! budget that might expire mid-block. [`run_span`] is that bridge: it
//! interprets from a given `ip` over externally-owned flat stack state
//! ([`FlatStacks`]), charging an externally-owned fuel counter, and stops
//! as soon as control leaves straight-line code (or a caller-supplied
//! block boundary is reached). Trap and fuel semantics are
//! instruction-exact and identical to [`crate::interp::run_baseline`]:
//! the two are cross-validated in tests by chopping reference runs into
//! spans at every block boundary.

use crate::checks::{Checks, CHECK_FULL, CHECK_NONE, CHECK_NO_UNDERFLOW};
use crate::error::VmError;
use crate::inst::{Cell, Inst, CELL_BYTES, FALSE, TRUE};
use crate::machine::Machine;
use crate::program::Program;
use crate::stacks::FlatStacks;

/// Why [`run_span`] stopped without trapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanExit {
    /// Control left the span (branch taken, call, return, or the `stop`
    /// boundary reached); execution continues at this instruction index.
    Continue(usize),
    /// `halt` executed; the stacks have been published into the machine.
    Halted,
}

/// Interpret from `ip` until control leaves straight-line code.
///
/// Executes instructions sequentially starting at `ip`, mutating `st`
/// (stacks), `machine` (memory + output) and `*executed` (fuel used so
/// far). Stops and returns [`SpanExit::Continue`] as soon as either
///
/// * a block-ending instruction executes (any branch, call, `execute`,
///   `exit`, loop-control word), reporting the instruction index control
///   transferred to, or
/// * the next sequential instruction index equals `stop` (pass the
///   current block's exclusive end, or `usize::MAX` to run to the next
///   control transfer).
///
/// The fuel check happens *before* each fetch against the caller's
/// running `executed` counter, so `FuelExhausted { ip }` carries exactly
/// the ip the plain interpreters would report — including at span entry.
///
/// # Errors
///
/// The same [`VmError`]s, at the same instruction, with the same check
/// gating per [`Checks`] level, as [`crate::interp::run_baseline_with_checks`].
#[allow(clippy::too_many_arguments)]
pub fn run_span(
    program: &Program,
    machine: &mut Machine,
    st: &mut FlatStacks,
    ip: usize,
    stop: usize,
    fuel: u64,
    executed: &mut u64,
    checks: Checks,
) -> Result<SpanExit, VmError> {
    match checks {
        Checks::Full => run_span_mode::<CHECK_FULL>(program, machine, st, ip, stop, fuel, executed),
        Checks::NoUnderflow => {
            run_span_mode::<CHECK_NO_UNDERFLOW>(program, machine, st, ip, stop, fuel, executed)
        }
        Checks::None => run_span_mode::<CHECK_NONE>(program, machine, st, ip, stop, fuel, executed),
    }
}

#[inline]
fn flag(b: bool) -> Cell {
    if b {
        TRUE
    } else {
        FALSE
    }
}

#[allow(clippy::too_many_lines)]
fn run_span_mode<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    st: &mut FlatStacks,
    mut ip: usize,
    stop: usize,
    fuel: u64,
    executed: &mut u64,
) -> Result<SpanExit, VmError> {
    let insts = program.insts();
    let limit = st.limit;
    let rlimit = st.rlimit;
    let buf = &mut st.buf[..limit];
    let rbuf = &mut st.rbuf[..rlimit];
    let mut sp = st.sp;
    let mut rsp = st.rsp;

    // Persist sp/rsp into `st` on every exit path, including errors:
    // a trap must leave the logical stacks exactly as they were at the
    // faulting instruction so the caller can report or resume.
    macro_rules! fail {
        ($e:expr) => {{
            st.sp = sp;
            st.rsp = rsp;
            return Err($e);
        }};
    }

    macro_rules! pop {
        ($cur:expr) => {{
            if MODE == CHECK_FULL && sp == 0 {
                fail!(VmError::StackUnderflow { ip: $cur });
            }
            sp -= 1;
            buf[sp]
        }};
    }
    macro_rules! push {
        ($cur:expr, $v:expr) => {{
            if MODE < CHECK_NONE && sp >= limit {
                fail!(VmError::StackOverflow { ip: $cur });
            }
            buf[sp] = $v;
            sp += 1;
        }};
    }
    macro_rules! need {
        ($cur:expr, $n:expr) => {
            if MODE == CHECK_FULL && sp < $n {
                fail!(VmError::StackUnderflow { ip: $cur });
            }
        };
    }
    macro_rules! rpop {
        ($cur:expr) => {{
            if MODE == CHECK_FULL && rsp == 0 {
                fail!(VmError::ReturnStackUnderflow { ip: $cur });
            }
            rsp -= 1;
            rbuf[rsp]
        }};
    }
    macro_rules! rpush {
        ($cur:expr, $v:expr) => {{
            if MODE < CHECK_NONE && rsp >= rlimit {
                fail!(VmError::ReturnStackOverflow { ip: $cur });
            }
            rbuf[rsp] = $v;
            rsp += 1;
        }};
    }
    macro_rules! binop {
        ($cur:expr, $f:expr) => {{
            need!($cur, 2);
            let b = buf[sp - 1];
            let a = buf[sp - 2];
            buf[sp - 2] = $f(a, b);
            sp -= 1;
        }};
    }
    macro_rules! unop {
        ($cur:expr, $f:expr) => {{
            need!($cur, 1);
            buf[sp - 1] = $f(buf[sp - 1]);
        }};
    }
    macro_rules! leave {
        ($ip:expr) => {{
            st.sp = sp;
            st.rsp = rsp;
            return Ok(SpanExit::Continue($ip));
        }};
    }

    loop {
        if *executed >= fuel {
            fail!(VmError::FuelExhausted { ip });
        }
        let Some(&inst) = insts.get(ip) else {
            fail!(VmError::InstructionOutOfBounds { ip });
        };
        *executed += 1;
        let cur = ip;
        ip += 1;
        match inst {
            Inst::Lit(n) => push!(cur, n),
            Inst::Add => binop!(cur, |a: Cell, b: Cell| a.wrapping_add(b)),
            Inst::Sub => binop!(cur, |a: Cell, b: Cell| a.wrapping_sub(b)),
            Inst::Mul => binop!(cur, |a: Cell, b: Cell| a.wrapping_mul(b)),
            Inst::Div => {
                need!(cur, 2);
                let b = buf[sp - 1];
                let a = buf[sp - 2];
                if b == 0 {
                    fail!(VmError::DivisionByZero { ip: cur });
                }
                buf[sp - 2] = a.div_euclid(b);
                sp -= 1;
            }
            Inst::Mod => {
                need!(cur, 2);
                let b = buf[sp - 1];
                let a = buf[sp - 2];
                if b == 0 {
                    fail!(VmError::DivisionByZero { ip: cur });
                }
                buf[sp - 2] = a.rem_euclid(b);
                sp -= 1;
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
                let a = buf[sp - 1];
                push!(cur, a);
            }
            Inst::Drop => {
                need!(cur, 1);
                sp -= 1;
            }
            Inst::Swap => {
                need!(cur, 2);
                buf.swap(sp - 1, sp - 2);
            }
            Inst::Over => {
                need!(cur, 2);
                let a = buf[sp - 2];
                push!(cur, a);
            }
            Inst::Rot => {
                need!(cur, 3);
                let a = buf[sp - 3];
                buf[sp - 3] = buf[sp - 2];
                buf[sp - 2] = buf[sp - 1];
                buf[sp - 1] = a;
            }
            Inst::MinusRot => {
                need!(cur, 3);
                let c = buf[sp - 1];
                buf[sp - 1] = buf[sp - 2];
                buf[sp - 2] = buf[sp - 3];
                buf[sp - 3] = c;
            }
            Inst::Nip => {
                need!(cur, 2);
                buf[sp - 2] = buf[sp - 1];
                sp -= 1;
            }
            Inst::Tuck => {
                need!(cur, 2);
                let b = buf[sp - 1];
                let a = buf[sp - 2];
                buf[sp - 2] = b;
                buf[sp - 1] = a;
                push!(cur, b);
            }
            Inst::TwoDup => {
                need!(cur, 2);
                let b = buf[sp - 1];
                let a = buf[sp - 2];
                push!(cur, a);
                push!(cur, b);
            }
            Inst::TwoDrop => {
                need!(cur, 2);
                sp -= 2;
            }
            Inst::TwoSwap => {
                need!(cur, 4);
                buf.swap(sp - 4, sp - 2);
                buf.swap(sp - 3, sp - 1);
            }
            Inst::TwoOver => {
                need!(cur, 4);
                let a = buf[sp - 4];
                let b = buf[sp - 3];
                push!(cur, a);
                push!(cur, b);
            }
            Inst::QDup => {
                need!(cur, 1);
                let a = buf[sp - 1];
                if a != 0 {
                    push!(cur, a);
                }
            }
            Inst::Pick => {
                need!(cur, 1);
                let u = buf[sp - 1];
                sp -= 1;
                if u < 0 || u as usize >= sp {
                    fail!(VmError::PickOutOfRange { ip: cur, index: u });
                }
                let v = buf[sp - 1 - u as usize];
                push!(cur, v);
            }
            Inst::Depth => {
                let d = sp as Cell;
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
                    fail!(VmError::ReturnStackUnderflow { ip: cur });
                }
                let a = rbuf[rsp - 1];
                push!(cur, a);
            }
            Inst::TwoToR => {
                need!(cur, 2);
                let b = buf[sp - 1];
                let a = buf[sp - 2];
                sp -= 2;
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
                    fail!(VmError::ReturnStackUnderflow { ip: cur });
                }
                let a = rbuf[rsp - 2];
                let b = rbuf[rsp - 1];
                push!(cur, a);
                push!(cur, b);
            }
            Inst::Fetch => {
                need!(cur, 1);
                let addr = buf[sp - 1];
                match machine.load_cell(addr) {
                    Some(x) => buf[sp - 1] = x,
                    None => fail!(VmError::MemoryOutOfBounds { ip: cur, addr }),
                }
            }
            Inst::Store => {
                need!(cur, 2);
                let addr = buf[sp - 1];
                let x = buf[sp - 2];
                sp -= 2;
                if !machine.store_cell(addr, x) {
                    fail!(VmError::MemoryOutOfBounds { ip: cur, addr });
                }
            }
            Inst::CFetch => {
                need!(cur, 1);
                let addr = buf[sp - 1];
                match machine.load_byte(addr) {
                    Some(x) => buf[sp - 1] = x,
                    None => fail!(VmError::MemoryOutOfBounds { ip: cur, addr }),
                }
            }
            Inst::CStore => {
                need!(cur, 2);
                let addr = buf[sp - 1];
                let x = buf[sp - 2];
                sp -= 2;
                if !machine.store_byte(addr, x) {
                    fail!(VmError::MemoryOutOfBounds { ip: cur, addr });
                }
            }
            Inst::PlusStore => {
                need!(cur, 2);
                let addr = buf[sp - 1];
                let n = buf[sp - 2];
                sp -= 2;
                match machine.load_cell(addr) {
                    Some(x) => {
                        machine.store_cell(addr, x.wrapping_add(n));
                    }
                    None => fail!(VmError::MemoryOutOfBounds { ip: cur, addr }),
                }
            }
            Inst::Branch(t) => leave!(t as usize),
            Inst::BranchIfZero(t) => {
                let f = pop!(cur);
                if f == 0 {
                    leave!(t as usize);
                }
                leave!(ip);
            }
            Inst::Call(t) => {
                rpush!(cur, ip as Cell);
                leave!(t as usize);
            }
            Inst::Execute => {
                let token = pop!(cur);
                if token < 0 || token as usize >= insts.len() {
                    fail!(VmError::InvalidExecutionToken { ip: cur, token });
                }
                rpush!(cur, ip as Cell);
                leave!(token as usize);
            }
            Inst::Return => {
                let ret = rpop!(cur);
                if ret < 0 || ret as usize > insts.len() {
                    fail!(VmError::InstructionOutOfBounds { ip: ret as usize });
                }
                leave!(ret as usize);
            }
            Inst::Halt => {
                st.sp = sp;
                st.rsp = rsp;
                st.publish(machine);
                return Ok(SpanExit::Halted);
            }
            Inst::Nop => {}
            Inst::DoSetup => {
                need!(cur, 2);
                let start = buf[sp - 1];
                let limit_v = buf[sp - 2];
                sp -= 2;
                rpush!(cur, limit_v);
                rpush!(cur, start);
            }
            Inst::QDoSetup(t) => {
                need!(cur, 2);
                let start = buf[sp - 1];
                let limit_v = buf[sp - 2];
                sp -= 2;
                if limit_v == start {
                    leave!(t as usize);
                }
                rpush!(cur, limit_v);
                rpush!(cur, start);
                leave!(ip);
            }
            Inst::LoopInc(t) => {
                if MODE == CHECK_FULL && rsp < 2 {
                    fail!(VmError::ReturnStackUnderflow { ip: cur });
                }
                let index = rbuf[rsp - 1].wrapping_add(1);
                let limit_v = rbuf[rsp - 2];
                if index == limit_v {
                    rsp -= 2;
                    leave!(ip);
                }
                rbuf[rsp - 1] = index;
                leave!(t as usize);
            }
            Inst::PlusLoopInc(t) => {
                let step = pop!(cur);
                if MODE == CHECK_FULL && rsp < 2 {
                    fail!(VmError::ReturnStackUnderflow { ip: cur });
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
                    leave!(ip);
                }
                rbuf[rsp - 1] = new;
                leave!(t as usize);
            }
            Inst::LoopI => {
                if MODE == CHECK_FULL && rsp == 0 {
                    fail!(VmError::ReturnStackUnderflow { ip: cur });
                }
                let i = rbuf[rsp - 1];
                push!(cur, i);
            }
            Inst::LoopJ => {
                if MODE == CHECK_FULL && rsp < 4 {
                    fail!(VmError::ReturnStackUnderflow { ip: cur });
                }
                let j = rbuf[rsp - 3];
                push!(cur, j);
            }
            Inst::Unloop => {
                if MODE == CHECK_FULL && rsp < 2 {
                    fail!(VmError::ReturnStackUnderflow { ip: cur });
                }
                rsp -= 2;
            }
            Inst::Emit => {
                let c = pop!(cur);
                machine.push_output_byte(c as u8);
            }
            Inst::Dot => {
                let n = pop!(cur);
                machine.push_output_number(n);
            }
            Inst::Type => {
                need!(cur, 2);
                let len = buf[sp - 1];
                let addr = buf[sp - 2];
                sp -= 2;
                if len < 0 {
                    fail!(VmError::MemoryOutOfBounds { ip: cur, addr: len });
                }
                for i in 0..len {
                    let a = addr.wrapping_add(i);
                    match machine.load_byte(a) {
                        Some(byte) => machine.push_output_byte(byte as u8),
                        None => fail!(VmError::MemoryOutOfBounds { ip: cur, addr: a }),
                    }
                }
            }
            Inst::Cr => machine.push_output_byte(b'\n'),
        }
        if ip == stop {
            leave!(ip);
        }
    }
}

/// Run a whole program through [`run_span`], one span at a time.
///
/// Functionally identical to [`crate::interp::run_baseline_with_checks`]
/// — this is the pure-interpreter driver a JIT degrades to when native
/// execution is unavailable, and the oracle under which `run_span`'s
/// span-chopping is validated.
///
/// # Errors
///
/// Exactly those of [`crate::interp::run_baseline_with_checks`].
pub fn run_spans(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<crate::interp::RunStats, VmError> {
    let mut st = FlatStacks::lease(machine, 0);
    let mut ip = program.entry();
    let mut executed = 0u64;
    loop {
        match run_span(
            program,
            machine,
            &mut st,
            ip,
            usize::MAX,
            fuel,
            &mut executed,
            checks,
        )? {
            SpanExit::Continue(next) => ip = next,
            SpanExit::Halted => return Ok(crate::interp::RunStats { executed }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_baseline;
    use crate::program::{program_of, ProgramBuilder};
    use crate::rng::Rng;

    fn loop_program() -> Program {
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
        b.push(Inst::Dot);
        b.push(Inst::Halt);
        b.bind(word).unwrap();
        b.push(Inst::Dup);
        b.push(Inst::Mul);
        b.push(Inst::Return);
        b.finish().unwrap()
    }

    /// Spans chopped at every block boundary agree with the baseline
    /// interpreter on result, stacks, output, memory and fuel.
    fn check_span_agreement(p: &Program, fuel: u64) {
        let mut m_base = Machine::with_memory(256);
        let r_base = run_baseline(p, &mut m_base, fuel);

        let mut m_span = Machine::with_memory(256);
        let r_span = run_spans(p, &mut m_span, fuel, Checks::Full);

        match (&r_base, &r_span) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.executed, b.executed);
                assert_eq!(m_base.stack(), m_span.stack());
                assert_eq!(m_base.rstack(), m_span.rstack());
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("span interpreter diverged: {other:?}"),
        }
        assert_eq!(m_base.output(), m_span.output());
        assert_eq!(m_base.memory(), m_span.memory());
    }

    #[test]
    fn spans_agree_on_loops_and_calls() {
        check_span_agreement(&loop_program(), 1_000_000);
    }

    #[test]
    fn spans_agree_on_every_fuel_level() {
        let p = loop_program();
        // total run is ~60 instructions; sweep right across it
        for fuel in 0..80 {
            check_span_agreement(&p, fuel);
        }
    }

    #[test]
    fn spans_agree_on_traps() {
        for p in [
            program_of(&[Inst::Lit(1), Inst::Lit(0), Inst::Div]),
            program_of(&[Inst::Add]),
            program_of(&[Inst::FromR]),
            program_of(&[Inst::Lit(1 << 40), Inst::Fetch]),
            program_of(&[Inst::Lit(1), Inst::Lit(9), Inst::Pick]),
            program_of(&[Inst::Lit(-1), Inst::Execute]),
        ] {
            check_span_agreement(&p, 1_000);
        }
    }

    #[test]
    fn stop_boundary_splits_straightline_code() {
        let p = program_of(&[Inst::Lit(1), Inst::Lit(2), Inst::Add, Inst::Halt]);
        let mut m = Machine::with_memory(64);
        let mut st = FlatStacks::lease(&m, 0);
        let mut executed = 0;
        // stop after two instructions, mid-block
        let exit = run_span(&p, &mut m, &mut st, 0, 2, 100, &mut executed, Checks::Full).unwrap();
        assert_eq!(exit, SpanExit::Continue(2));
        assert_eq!(executed, 2);
        assert_eq!(&st.buf[..st.sp], &[1, 2]);
        // resume to completion
        let exit = run_span(
            &p,
            &mut m,
            &mut st,
            2,
            usize::MAX,
            100,
            &mut executed,
            Checks::Full,
        )
        .unwrap();
        assert_eq!(exit, SpanExit::Halted);
        assert_eq!(m.stack(), &[3]);
    }

    #[test]
    fn fuel_exhaustion_reports_entry_ip() {
        let p = program_of(&[Inst::Lit(1), Inst::Halt]);
        let mut m = Machine::with_memory(64);
        let mut st = FlatStacks::lease(&m, 0);
        let mut executed = 5;
        let err = run_span(
            &p,
            &mut m,
            &mut st,
            1,
            usize::MAX,
            5,
            &mut executed,
            Checks::Full,
        )
        .unwrap_err();
        assert_eq!(err, VmError::FuelExhausted { ip: 1 });
    }

    #[test]
    fn random_programs_agree_with_baseline() {
        // light structured fuzz: arithmetic + shuffles + a branch or two
        let mut rng = Rng::new(0x5EED_5EED);
        let pool = [
            Inst::Lit(3),
            Inst::Lit(-7),
            Inst::Dup,
            Inst::Add,
            Inst::Swap,
            Inst::Over,
            Inst::Sub,
            Inst::Drop,
            Inst::Rot,
            Inst::Depth,
            Inst::Mul,
            Inst::ToR,
            Inst::FromR,
            Inst::Emit,
        ];
        for _ in 0..200 {
            let n = 3 + (rng.next_u64() % 12) as usize;
            let mut insts: Vec<Inst> = (0..n)
                .map(|_| pool[(rng.next_u64() as usize) % pool.len()])
                .collect();
            insts.push(Inst::Halt);
            let p = program_of(&insts);
            check_span_agreement(&p, 1_000);
            check_span_agreement(&p, 4);
        }
    }
}
