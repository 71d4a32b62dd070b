//! Wall-clock interpreters: the uncached baseline and the k=1
//! top-of-stack-in-register interpreter.
//!
//! These are the two ends of Fig. 21's "constant number of items in
//! registers" axis that can be compared by real measurement (the paper
//! reports an 11% speedup for `prims2x` and 7% for `cross` from keeping one
//! item in a register on an R3000; the `interpreters` bench regenerates the
//! comparison on the host machine).
//!
//! Both are drivers over the shared opcode semantics in `sem::step` and
//! differ only in the stack view they run it against:
//!
//! * [`run_baseline`] keeps every stack item in memory and manipulates an
//!   explicit stack-pointer index (Fig. 11, the `Flat` view),
//! * [`run_tos`] keeps the top of stack in a local variable that the
//!   compiler can allocate to a machine register (Fig. 12, the [`Tos`]
//!   view), turning e.g. `+` from two loads + one store into a single load.
//!
//! The dynamically and statically cached interpreters are the drivers in
//! [`crate::cached`].

use crate::checks::{Checks, CHECK_FULL, CHECK_NONE, CHECK_NO_UNDERFLOW};
use crate::error::VmError;
use crate::inst::Cell;
use crate::machine::Machine;
use crate::program::Program;
use crate::sem::{step, Code, Fault, Flow, View};
use crate::stacks::FlatStacks;

/// Outcome of a wall-clock interpreter run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of instructions executed (including the final `halt`). For
    /// the statically cached interpreter this is the number of *compiled*
    /// instructions executed, which is lower than the original count when
    /// stack manipulations were eliminated.
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
    let code = Code::plain(insts.len());
    let mut s = st.flat::<MODE>();
    let mut ip = program.entry();
    let mut left = fuel;
    loop {
        if left == 0 {
            return Err(VmError::FuelExhausted { ip });
        }
        let Some(&inst) = insts.get(ip) else {
            return Err(VmError::InstructionOutOfBounds { ip });
        };
        left -= 1;
        let cur = ip;
        ip += 1;
        if step(&mut s, inst, cur, &mut ip, machine, code).map_err(Fault::error)? == Flow::Halt {
            s.publish(machine);
            return Ok(RunStats {
                executed: fuel - left,
            });
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
    // one zeroed sentinel cell below the stack: the register always has a
    // memory slot to spill to and reload from, even at depth 0
    let mut st = FlatStacks::lease(machine, 1);
    tos_loop::<MODE>(program, machine, fuel, &mut st)
}

/// The dispatch loop over the leased stack cells, kept out of line (see
/// [`FlatStacks`]): [`step`] over the [`Tos`] view until `halt`.
#[inline(never)]
fn tos_loop<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    st: &mut FlatStacks,
) -> Result<RunStats, VmError> {
    let insts = program.insts();
    let code = Code::plain(insts.len());
    let mut s = Tos::<MODE>::new(st);
    let mut ip = program.entry();
    let mut left = fuel;
    loop {
        if left == 0 {
            return Err(VmError::FuelExhausted { ip });
        }
        let Some(&inst) = insts.get(ip) else {
            return Err(VmError::InstructionOutOfBounds { ip });
        };
        left -= 1;
        let cur = ip;
        ip += 1;
        if step(&mut s, inst, cur, &mut ip, machine, code).map_err(Fault::error)? == Flow::Halt {
            s.publish(machine);
            return Ok(RunStats {
                executed: fuel - left,
            });
        }
    }
}

/// The top-of-stack view (k = 1, Fig. 12): the top item in `tos`, the
/// items below it in `buf[1..sp]` above one sentinel cell, so the depth
/// is `sp` and neither a push nor a pop ever tests for an empty stack.
/// At depth 0 `tos` holds the sentinel, which no instruction observes.
struct Tos<'a, const MODE: u8> {
    /// Data-stack cells up to the depth limit, sentinel included.
    buf: &'a mut [Cell],
    /// Return-stack cells up to the depth limit.
    rbuf: &'a mut [Cell],
    /// Data-stack depth: the cells `buf[..sp]` plus `tos`, less the
    /// sentinel.
    sp: usize,
    /// Return-stack depth.
    rsp: usize,
    /// The top item.
    tos: Cell,
}

impl<'a, const MODE: u8> Tos<'a, MODE> {
    /// The view of a lease taken with one sentinel cell.
    fn new(st: &'a mut FlatStacks) -> Tos<'a, MODE> {
        let (sp, rsp) = (st.sp - 1, st.rsp);
        let (buf, rbuf) = st.cells_mut();
        let tos = buf[sp];
        Tos {
            buf,
            rbuf,
            sp,
            rsp,
            tos,
        }
    }

    /// Copy the live stacks into `machine` (what `halt` does).
    #[inline(always)]
    fn publish(&mut self, machine: &mut Machine) {
        self.buf[self.sp] = self.tos;
        machine.set_stack(&self.buf[1..=self.sp]);
        machine.set_rstack(&self.rbuf[..self.rsp]);
    }
}

impl<const M: u8> View for Tos<'_, M> {
    const MODE: u8 = M;

    #[inline(always)]
    fn need(&self, cur: usize, n: usize) -> Result<(), Fault> {
        if M == CHECK_FULL && self.sp < n {
            return Err(Fault::underflow(cur));
        }
        Ok(())
    }

    #[inline(always)]
    fn pop(&mut self, cur: usize) -> Result<Cell, Fault> {
        self.need(cur, 1)?;
        let v = self.tos;
        self.sp -= 1;
        self.tos = self.buf[self.sp];
        Ok(v)
    }

    #[inline(always)]
    fn push(&mut self, cur: usize, v: Cell) -> Result<(), Fault> {
        // the sentinel takes one cell of the limit
        if M < CHECK_NONE && self.sp + 1 >= self.buf.len() {
            return Err(Fault::overflow(cur));
        }
        self.buf[self.sp] = self.tos;
        self.sp += 1;
        self.tos = v;
        Ok(())
    }

    #[inline(always)]
    fn peek(&self, i: usize) -> Cell {
        if i == 0 {
            self.tos
        } else {
            self.buf[self.sp - i]
        }
    }

    #[inline(always)]
    fn depth(&self) -> usize {
        self.sp
    }

    #[inline(always)]
    fn unop(&mut self, cur: usize, f: impl FnOnce(Cell) -> Cell) -> Result<(), Fault> {
        self.need(cur, 1)?;
        self.tos = f(self.tos);
        Ok(())
    }

    #[inline(always)]
    fn rstack(&mut self) -> (&mut [Cell], &mut usize) {
        (&mut *self.rbuf, &mut self.rsp)
    }

    #[inline(always)]
    fn pop2(&mut self, cur: usize) -> Result<(Cell, Cell), Fault> {
        self.need(cur, 2)?;
        let (a, b) = (self.buf[self.sp - 1], self.tos);
        self.sp -= 2;
        self.tos = self.buf[self.sp];
        Ok((a, b))
    }

    /// The second operand is the one load; the result stays in `tos`.
    #[inline(always)]
    fn binop(&mut self, cur: usize, f: impl FnOnce(Cell, Cell) -> Cell) -> Result<(), Fault> {
        self.need(cur, 2)?;
        self.sp -= 1;
        self.tos = f(self.buf[self.sp], self.tos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run as run_reference;
    use crate::inst::Inst;
    use crate::program::{program_of, ProgramBuilder};

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
