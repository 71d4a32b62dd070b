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
//! block boundary is reached). Both are drivers over the same opcode
//! semantics (`sem::step`), so trap and fuel semantics are
//! instruction-exact and identical to [`crate::interp::run_baseline`]:
//! the two are cross-validated in tests by chopping reference runs into
//! spans at every block boundary.

use crate::checks::{Checks, CHECK_FULL, CHECK_NONE, CHECK_NO_UNDERFLOW};
use crate::error::VmError;
use crate::machine::Machine;
use crate::program::Program;
use crate::sem::{step, Code, Flow};
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
        Checks::Full => span_loop::<CHECK_FULL>(program, machine, st, ip, stop, fuel, executed),
        Checks::NoUnderflow => {
            span_loop::<CHECK_NO_UNDERFLOW>(program, machine, st, ip, stop, fuel, executed)
        }
        Checks::None => span_loop::<CHECK_NONE>(program, machine, st, ip, stop, fuel, executed),
    }
}

/// The span loop over the leased stack cells, kept out of line (see
/// [`FlatStacks`]): [`step`] until a [`Flow::Jump`], `halt` or `stop`,
/// then write `sp`/`rsp` back into `st` on every exit, traps included, so
/// the caller can resume where the span stopped. After a trap the faulting
/// instruction's operands may be partly moved.
#[inline(never)]
fn span_loop<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    st: &mut FlatStacks,
    mut ip: usize,
    stop: usize,
    fuel: u64,
    executed: &mut u64,
) -> Result<SpanExit, VmError> {
    let insts = program.insts();
    let code = Code::plain(insts.len());
    let mut s = st.flat::<MODE>();
    let exit = loop {
        if *executed >= fuel {
            break Err(VmError::FuelExhausted { ip });
        }
        let Some(&inst) = insts.get(ip) else {
            break Err(VmError::InstructionOutOfBounds { ip });
        };
        *executed += 1;
        let cur = ip;
        ip += 1;
        match step(&mut s, inst, cur, &mut ip, machine, code) {
            Ok(Flow::Next) if ip != stop => {}
            Ok(Flow::Halt) => {
                s.publish(machine);
                break Ok(SpanExit::Halted);
            }
            Ok(_) => break Ok(SpanExit::Continue(ip)),
            Err(e) => break Err(e.error()),
        }
    };
    (st.sp, st.rsp) = (s.sp, s.rsp);
    exit
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
    use crate::inst::Inst;
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
