//! The register-cached interpreters: dynamic (Section 4) and static
//! (Section 5) stack caching as drivers over the shared opcode semantics.
//!
//! Both keep up to three stack items in the registers `r0`, `r1` and `r2`
//! of the `Regs` view. Which registers hold which items is the *cache
//! state*, a field of the view numbered by `WORDS`:
//!
//! | state | register word (bottom-first) |
//! |---|---|
//! | 0..=3 | canonical `r0 .. r(s-1)` |
//! | 4 | `r1 r0` (top two swapped) |
//! | 5 | `r0 r2 r1` (top two swapped) |
//!
//! A pop takes the top register and renames the rest to a canonical
//! state; a push fills the next register, or with all three full spills
//! `r0` (the overflow followup is the full state). The stack pointer moves
//! only when items cross between registers and memory.
//!
//! The paper builds one copy of the interpreter per cache state. Here each
//! driver dispatches once on the state and, in that arm, sets the field to
//! a constant before running `sem::step`; with every view method
//! `#[inline(always)]`, each arm compiles to the specialisation of every
//! opcode for that state (Fig. 19), and no arm tests the state again.
//!
//! * [`run_dyncache`] tracks the state at run time (minimal organization,
//!   states 0..=3): it dispatches on the state, then runs that state's copy
//!   until an instruction leaves another state. Each arm's out-state is a
//!   constant, so that test folds away too.
//! * [`run_static`] runs code compiled by `stackcache-core`'s
//!   `compile_static`, where every [`SInst`] carries the state the compiler
//!   planned for it: the driver dispatches on that, so a swap or drop the
//!   compiler turned into a state change executes nothing. After an
//!   instruction it performs the reconciliation the compiler embedded.

use crate::checks::{Checks, CHECK_FULL, CHECK_NONE, CHECK_NO_UNDERFLOW};
use crate::error::VmError;
use crate::inst::{Cell, Inst};
use crate::interp::RunStats;
use crate::machine::Machine;
use crate::program::Program;
use crate::sem::{step, Code, Fault, Flow, View};
use crate::stacks::FlatStacks;

/// Register word per cache state, bottom-first.
const WORDS: [&[u8]; 6] = [&[], &[0], &[0, 1], &[0, 1, 2], &[1, 0], &[0, 2, 1]];

/// Marker in [`SInst::rec_to`]: no reconciliation after this instruction.
pub const NO_REC: u8 = u8::MAX;

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

/// A compiled stream, as [`run_static`] runs it.
#[derive(Debug, Clone, Copy)]
pub struct StaticCode<'a> {
    /// The compiled instructions.
    pub code: &'a [SInst],
    /// Source-program index to compiled index (`u32::MAX` where nothing
    /// was compiled): how `execute` tokens are translated.
    pub remap: &'a [u32],
    /// Compiled index execution starts at.
    pub entry: usize,
    /// The convention state at block boundaries and calls (0..=3); this
    /// many zeroed sentinel cells sit below the user stack so the state
    /// can be loaded at any depth.
    pub canonical: u8,
    /// The state the compiler planned an instruction to leave, given its
    /// in-state; debug builds check every executed instruction against it.
    pub planned: fn(&SInst) -> u8,
}

/// Run `program` with the dynamically stack-cached interpreter.
///
/// Observable behaviour (final stacks, memory, output, traps) is identical
/// to the reference interpreter; tests cross-validate.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter.
pub fn run_dyncache(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
) -> Result<RunStats, VmError> {
    run_dyncache_with_checks(program, machine, fuel, Checks::Full)
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
    // Adopt pre-set stack contents into memory; the cache starts empty.
    let mut st = FlatStacks::lease(machine, 0);
    match checks {
        Checks::Full => dyncache_loop::<CHECK_FULL>(program, machine, fuel, &mut st),
        Checks::NoUnderflow => dyncache_loop::<CHECK_NO_UNDERFLOW>(program, machine, fuel, &mut st),
        Checks::None => dyncache_loop::<CHECK_NONE>(program, machine, fuel, &mut st),
    }
}

/// The dispatch loop over the leased stack cells, kept out of line (see
/// [`FlatStacks`]): one dispatch on the cache state, then [`step`] for it
/// until an instruction leaves another state.
#[inline(never)]
fn dyncache_loop<const MODE: u8>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    st: &mut FlatStacks,
) -> Result<RunStats, VmError> {
    let mut r = Regs::<MODE>::new(st, 0);
    let mut at = At {
        ip: program.entry(),
        left: fuel,
    };
    loop {
        let flow = match r.s {
            0 => r.run_in::<0>(program, &mut at, machine),
            1 => r.run_in::<1>(program, &mut at, machine),
            2 => r.run_in::<2>(program, &mut at, machine),
            _ => r.run_in::<3>(program, &mut at, machine),
        }
        .map_err(Fault::error)?;
        if flow == Flow::Halt {
            r.publish(machine);
            return Ok(RunStats {
                executed: fuel - at.left,
            });
        }
    }
}

/// Run a statically compiled stream (see [`StaticCode`]).
///
/// Data-stack underflow traps are not reproduced in general: a short
/// stack reads the sentinel cells as zeros, and an underflowing `drop` or
/// `swap` may have been compiled away. `/` and `mod` do check the depth
/// above the sentinels before testing the divisor, a reconciliation that
/// finds nothing left to load traps, and a program whose stack ends below
/// the sentinels traps at `halt`.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter for
/// non-underflow traps (minus the trap classes `checks` elides).
pub fn run_static(
    code: &StaticCode<'_>,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<RunStats, VmError> {
    let mut st = FlatStacks::lease(machine, usize::from(code.canonical));
    match checks {
        Checks::Full => static_loop::<CHECK_FULL>(code, machine, fuel, &mut st),
        Checks::NoUnderflow => static_loop::<CHECK_NO_UNDERFLOW>(code, machine, fuel, &mut st),
        Checks::None => static_loop::<CHECK_NONE>(code, machine, fuel, &mut st),
    }
}

/// The dispatch loop over the leased stack cells, kept out of line (see
/// [`FlatStacks`]): one dispatch on each instruction's planned state,
/// [`step`] for it, then the embedded reconciliation.
#[inline(never)]
fn static_loop<const MODE: u8>(
    sc: &StaticCode<'_>,
    machine: &mut Machine,
    fuel: u64,
    st: &mut FlatStacks,
) -> Result<RunStats, VmError> {
    let code = Code {
        len: sc.code.len(),
        xt: Some(sc.remap),
    };
    let mut r = Regs::<MODE>::new(st, usize::from(sc.canonical));
    // enter the convention state: loads only, which cannot trap
    r.reconcile(0, sc.canonical, 0).map_err(Fault::error)?;
    let mut ip = sc.entry;
    let mut left = fuel;
    loop {
        if left == 0 {
            return Err(VmError::FuelExhausted { ip });
        }
        let Some(si) = sc.code.get(ip) else {
            return Err(VmError::InstructionOutOfBounds { ip });
        };
        left -= 1;
        let cur = ip;
        ip += 1;
        let inst = si.inst;
        let flow = match si.s_in {
            0 => r.step_in::<0>(inst, cur, &mut ip, machine, code),
            1 => r.step_in::<1>(inst, cur, &mut ip, machine, code),
            2 => r.step_in::<2>(inst, cur, &mut ip, machine, code),
            3 => r.step_in::<3>(inst, cur, &mut ip, machine, code),
            4 => r.step_in::<4>(inst, cur, &mut ip, machine, code),
            _ => r.step_in::<5>(inst, cur, &mut ip, machine, code),
        }
        .map_err(Fault::error)?;
        if flow == Flow::Halt {
            // an underflow into the sentinels leaves nothing to publish
            if r.short(0) {
                return Err(VmError::StackUnderflow { ip: cur });
            }
            r.publish(machine);
            return Ok(RunStats {
                executed: fuel - left,
            });
        }
        debug_assert_eq!(
            r.s,
            (sc.planned)(si),
            "{inst:?} in state {} at {cur} left another state than planned",
            si.s_in
        );
        if si.rec_to != NO_REC {
            r.reconcile(si.rec_from, si.rec_to, cur)
                .map_err(Fault::error)?;
        }
    }
}

/// Where a cached driver is: the next instruction and the fuel left.
struct At {
    ip: usize,
    left: u64,
}

/// The three-register cached view: the top `WORDS[s].len()` items in the
/// registers `WORDS[s]` names (bottom first), the rest in `buf[..sp]`
/// above `base` sentinel cells.
///
/// Every method reads the state from `s`; a driver that sets `s` from a
/// constant before [`step`] gets every method folded to that state's code.
struct Regs<'a, const MODE: u8> {
    /// Data-stack cells up to the depth limit, sentinels included.
    buf: &'a mut [Cell],
    /// Return-stack cells up to the depth limit.
    rbuf: &'a mut [Cell],
    /// Data-stack cells in memory, sentinels included.
    sp: usize,
    /// Return-stack depth.
    rsp: usize,
    /// Sentinel cells below the user stack.
    base: usize,
    /// Cache state: an index into [`WORDS`].
    s: u8,
    r0: Cell,
    r1: Cell,
    r2: Cell,
}

impl<'a, const MODE: u8> Regs<'a, MODE> {
    /// The empty-cache view of a lease taken with `base` sentinel cells.
    fn new(st: &'a mut FlatStacks, base: usize) -> Regs<'a, MODE> {
        let (sp, rsp) = (st.sp, st.rsp);
        let (buf, rbuf) = st.cells_mut();
        Regs {
            buf,
            rbuf,
            sp,
            rsp,
            base,
            s: 0,
            r0: 0,
            r1: 0,
            r2: 0,
        }
    }

    /// [`step`] with the cache state the constant `S`.
    #[inline(always)]
    fn step_in<const S: u8>(
        &mut self,
        inst: Inst,
        cur: usize,
        ip: &mut usize,
        machine: &mut Machine,
        code: Code<'_>,
    ) -> Result<Flow, Fault> {
        self.s = S;
        step(self, inst, cur, ip, machine, code)
    }

    /// Run `program` from `at` with the cache state the constant `S` until
    /// an instruction leaves another state or halts.
    #[inline(always)]
    fn run_in<const S: u8>(
        &mut self,
        program: &Program,
        at: &mut At,
        machine: &mut Machine,
    ) -> Result<Flow, Fault> {
        let insts = program.insts();
        let code = Code::plain(insts.len());
        loop {
            if at.left == 0 {
                return Err(Fault::new(at.ip, 0, |ip, _| VmError::FuelExhausted { ip }));
            }
            let Some(&inst) = insts.get(at.ip) else {
                return Err(Fault::new(at.ip, 0, |ip, _| {
                    VmError::InstructionOutOfBounds { ip }
                }));
            };
            at.left -= 1;
            let cur = at.ip;
            at.ip += 1;
            let flow = self.step_in::<S>(inst, cur, &mut at.ip, machine, code)?;
            if flow == Flow::Halt || self.s != S {
                return Ok(flow);
            }
        }
    }

    /// The current state's register word.
    #[inline(always)]
    fn word(&self) -> &'static [u8] {
        WORDS[usize::from(self.s)]
    }

    /// Register `k`.
    #[inline(always)]
    fn reg(&self, k: u8) -> Cell {
        [self.r0, self.r1, self.r2][usize::from(k)]
    }

    /// Set register `k`.
    #[inline(always)]
    fn set_reg(&mut self, k: u8, v: Cell) {
        match k {
            0 => self.r0 = v,
            1 => self.r1 = v,
            _ => self.r2 = v,
        }
    }

    /// Rename the cached items into canonical order: the state becomes
    /// their count.
    #[inline(always)]
    fn canon(&mut self) {
        let w = self.word();
        let regs = [self.r0, self.r1, self.r2];
        let at = |j: usize| regs[usize::from(w[j])];
        if !w.is_empty() {
            self.r0 = at(0);
        }
        if w.len() > 1 {
            self.r1 = at(1);
        }
        if w.len() > 2 {
            self.r2 = at(2);
        }
        self.s = w.len() as u8;
    }

    /// Reconcile from state `from` to state `to` (what the static compiler
    /// embeds at block ends and around calls): spill the extra bottom
    /// items to memory or load the missing ones from it, then rename.
    /// Loading from an empty memory stack traps `StackUnderflow`.
    #[inline(always)]
    fn reconcile(&mut self, from: u8, to: u8, cur: usize) -> Result<(), Fault> {
        self.s = from;
        self.canon();
        let tw = WORDS[usize::from(to)];
        while usize::from(self.s) > tw.len() {
            if MODE < CHECK_NONE && self.sp >= self.buf.len() {
                return Err(Fault::overflow(cur));
            }
            self.buf[self.sp] = self.r0;
            self.sp += 1;
            (self.r0, self.r1) = (self.r1, self.r2);
            self.s -= 1;
        }
        while usize::from(self.s) < tw.len() {
            // compiled-away pops that underflowed took the sentinel cells
            // too: there is nothing left to load
            if self.sp == 0 {
                return Err(Fault::underflow(cur));
            }
            self.sp -= 1;
            (self.r0, self.r1, self.r2) = (self.buf[self.sp], self.r0, self.r1);
            self.s += 1;
        }
        let regs = [self.r0, self.r1, self.r2];
        for (j, &k) in tw.iter().enumerate() {
            self.set_reg(k, regs[j]);
        }
        self.s = to;
        Ok(())
    }

    /// Whether fewer than `n` items sit above the sentinels. Only the
    /// checks that choose between two traps pay for it (see `need`).
    #[inline(always)]
    fn short(&self, n: usize) -> bool {
        self.sp + self.word().len() < n + self.base
    }

    /// Copy the live stacks into `machine` (what `halt` does, after
    /// `step` flushed the cache).
    #[inline(always)]
    fn publish(&self, machine: &mut Machine) {
        machine.set_stack(&self.buf[self.base..self.sp]);
        machine.set_rstack(&self.rbuf[..self.rsp]);
    }
}

impl<const M: u8> View for Regs<'_, M> {
    const MODE: u8 = M;

    /// Counts the sentinels as items: a short stack reads them as zeros,
    /// and the registers need no check at all.
    #[inline(always)]
    fn need(&self, cur: usize, n: usize) -> Result<(), Fault> {
        let c = self.word().len();
        if M == CHECK_FULL && n > c && self.sp < n - c {
            return Err(Fault::underflow(cur));
        }
        Ok(())
    }

    #[inline(always)]
    fn pop(&mut self, cur: usize) -> Result<Cell, Fault> {
        self.need(cur, 1)?;
        let n = self.word().len();
        if n == 0 {
            self.sp -= 1;
            return Ok(self.buf[self.sp]);
        }
        let v = self.peek(0);
        self.canon();
        self.s = n as u8 - 1;
        Ok(v)
    }

    #[inline(always)]
    fn push(&mut self, cur: usize, v: Cell) -> Result<(), Fault> {
        self.canon();
        let n = self.s;
        if n < 3 {
            self.set_reg(n, v);
            self.s = n + 1;
            return Ok(());
        }
        // full: spill the bottom, stay full
        if M < CHECK_NONE && self.sp >= self.buf.len() {
            return Err(Fault::overflow(cur));
        }
        self.buf[self.sp] = self.r0;
        self.sp += 1;
        (self.r0, self.r1, self.r2) = (self.r1, self.r2, v);
        Ok(())
    }

    #[inline(always)]
    fn peek(&self, i: usize) -> Cell {
        let w = self.word();
        if i < w.len() {
            self.reg(w[w.len() - 1 - i])
        } else {
            self.buf[self.sp + w.len() - 1 - i]
        }
    }

    #[inline(always)]
    fn depth(&self) -> usize {
        (self.sp + self.word().len()).wrapping_sub(self.base)
    }

    /// In place on the top register; from memory into `r0` when the cache
    /// is empty.
    #[inline(always)]
    fn unop(&mut self, cur: usize, f: impl FnOnce(Cell) -> Cell) -> Result<(), Fault> {
        self.need(cur, 1)?;
        match self.word().last() {
            None => {
                self.sp -= 1;
                self.r0 = f(self.buf[self.sp]);
                self.s = 1;
            }
            Some(&top) => self.set_reg(top, f(self.reg(top))),
        }
        Ok(())
    }

    #[inline(always)]
    fn rstack(&mut self) -> (&mut [Cell], &mut usize) {
        (&mut *self.rbuf, &mut self.rsp)
    }

    /// Checks the depth above the sentinels first: a sentinel zero as the
    /// divisor would otherwise turn an underflow into a division by zero.
    #[inline(always)]
    fn divop(&mut self, cur: usize, f: impl FnOnce(Cell, Cell) -> Cell) -> Result<(), Fault> {
        if M == CHECK_FULL && self.short(2) {
            return Err(Fault::underflow(cur));
        }
        if self.peek(0) == 0 {
            return Err(Fault::division(cur));
        }
        self.binop(cur, f)
    }

    #[inline(always)]
    fn flush(&mut self, cur: usize) -> Result<(), Fault> {
        self.canon();
        let n = usize::from(self.s);
        if n > 0 {
            if M < CHECK_NONE && self.sp + n > self.buf.len() {
                return Err(Fault::overflow(cur));
            }
            for (j, v) in [self.r0, self.r1, self.r2][..n].iter().enumerate() {
                self.buf[self.sp + j] = *v;
            }
            self.sp += n;
            self.s = 0;
        }
        Ok(())
    }
}
