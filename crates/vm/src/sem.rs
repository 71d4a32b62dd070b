//! The semantics of every opcode, written once, over any stack view.
//!
//! The paper's interpreters differ only in where stack items live: all
//! in memory behind an explicit stack pointer (Fig. 11), the top item in
//! a register (Fig. 12), or up to three items in registers under a cache
//! state (Sections 4 and 5). [`step`] executes one instruction against a
//! [`View`] of the leased stacks, and each organization is a view:
//!
//! * [`Flat`] keeps every item in memory;
//! * `interp::Tos` keeps the top item in a register (k = 1);
//! * `cached::Regs` keeps up to three items in registers under a cache
//!   state held in a field.
//!
//! `step` reports what it did to control flow as a [`Flow`]; the drivers
//! differ only in how they fetch and what they do at a control transfer:
//!
//! * the baseline and top-of-stack interpreters ([`crate::interp`]) loop
//!   until `halt` and ignore [`Flow::Jump`];
//! * the span stepper ([`crate::stepper::run_span`], the JIT's deopt
//!   bridge) leaves on [`Flow::Jump`] or at a caller-given boundary;
//! * the fused and quickened interpreters ([`crate::fusion`]) dispatch once
//!   per group and call [`step`] once per group member;
//! * the dynamically and statically cached interpreters
//!   ([`crate::cached`]) dispatch once on the cache state and run `step`
//!   with the state a constant.
//!
//! Everything is `#[inline(always)]`, so each driver compiles to one
//! specialised loop per [`Checks`](crate::Checks) level (and per cache
//! state) with the stack pointers in registers. Every shuffle is written
//! as the pops of its inputs followed by the pushes of its outputs, the
//! model the static planner in `stackcache-core` assigns cache states by;
//! on a memory view the redundant loads and stores fold away.

use crate::checks::{CHECK_FULL, CHECK_NONE};
use crate::error::VmError;
use crate::inst::{flag, Cell, Inst, CELL_BYTES};
use crate::machine::Machine;

/// What an executed instruction did to control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Execution falls through to the next instruction.
    Next,
    /// A block-ending instruction executed, whether or not it transferred
    /// control; `ip` holds the successor.
    Jump,
    /// `halt` executed; every cached item is flushed to memory, and the
    /// stacks are still in the view, unpublished.
    Halt,
}

/// A trap as the opcode semantics raise it: the [`VmError`] variant as a
/// constructor, and every payload word defined. Built as a `VmError`
/// directly, the variants' unused payload words merged into one exit with
/// undefined contents, and the optimiser filled them with whatever value
/// was at hand, which kept unrelated values live, and spilled, across the
/// whole dispatch loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fault {
    /// Builds the error from `ip` and `val`.
    kind: fn(usize, Cell) -> VmError,
    /// Instruction index the error reports.
    ip: usize,
    /// The error's second payload word, 0 for variants without one.
    val: Cell,
}

impl Fault {
    /// A trap of `kind` at `ip` with payload `val`.
    #[inline(always)]
    pub(crate) fn new(ip: usize, val: Cell, kind: fn(usize, Cell) -> VmError) -> Fault {
        Fault { kind, ip, val }
    }

    /// [`VmError::StackUnderflow`] at `ip`.
    #[inline(always)]
    pub(crate) fn underflow(ip: usize) -> Fault {
        Fault::new(ip, 0, |ip, _| VmError::StackUnderflow { ip })
    }

    /// [`VmError::StackOverflow`] at `ip`.
    #[inline(always)]
    pub(crate) fn overflow(ip: usize) -> Fault {
        Fault::new(ip, 0, |ip, _| VmError::StackOverflow { ip })
    }

    /// [`VmError::DivisionByZero`] at `ip`.
    #[inline(always)]
    pub(crate) fn division(ip: usize) -> Fault {
        Fault::new(ip, 0, |ip, _| VmError::DivisionByZero { ip })
    }

    /// [`VmError::MemoryOutOfBounds`] at `ip` for `addr`.
    #[inline(always)]
    fn memory(ip: usize, addr: Cell) -> Fault {
        Fault::new(ip, addr, |ip, addr| VmError::MemoryOutOfBounds { ip, addr })
    }

    /// The public error, built out of line on the trap path.
    #[cold]
    #[inline(never)]
    pub(crate) fn error(self) -> VmError {
        (self.kind)(self.ip, self.val)
    }
}

/// The instruction stream `step` transfers control within.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Code<'a> {
    /// Stream length: the largest valid return address.
    pub(crate) len: usize,
    /// Execution token (an index into the source program) to stream
    /// index, `u32::MAX` where no instruction was compiled; `None` when
    /// the stream is the program itself.
    pub(crate) xt: Option<&'a [u32]>,
}

impl Code<'_> {
    /// A stream that is the program itself.
    pub(crate) fn plain(len: usize) -> Code<'static> {
        Code { len, xt: None }
    }

    /// Where `execute` of `token` goes, or `None` for an invalid token.
    #[inline(always)]
    fn target(self, token: Cell) -> Option<usize> {
        let t = usize::try_from(token).ok()?;
        match self.xt {
            None => (t < self.len).then_some(t),
            Some(map) => map.get(t).filter(|&&x| x != u32::MAX).map(|&x| x as usize),
        }
    }
}

/// A stack organization [`step`] runs against: how the data stack's
/// items map to registers and memory. The return stack is always flat.
///
/// Every method traps as the reference interpreter does, minus the depth
/// checks [`View::MODE`] elides; pops and pushes of a whole instruction
/// may have moved items before a trap, which is fine because no driver
/// publishes a trapped view.
pub(crate) trait View {
    /// The [`Checks`](crate::Checks) level the accessors compile in.
    const MODE: u8;

    /// Trap unless at least `n` data-stack items are live.
    fn need(&self, cur: usize, n: usize) -> Result<(), Fault>;

    /// Pop the data stack.
    fn pop(&mut self, cur: usize) -> Result<Cell, Fault>;

    /// Push onto the data stack.
    fn push(&mut self, cur: usize, v: Cell) -> Result<(), Fault>;

    /// Item `i` below the top (0 is the top); the caller has checked
    /// that it is live.
    fn peek(&self, i: usize) -> Cell;

    /// Live data-stack items.
    fn depth(&self) -> usize;

    /// `( a -- f(a) )`.
    fn unop(&mut self, cur: usize, f: impl FnOnce(Cell) -> Cell) -> Result<(), Fault>;

    /// The return stack's cells up to its depth limit, and its depth.
    fn rstack(&mut self) -> (&mut [Cell], &mut usize);

    /// Move every register-cached item to memory: what the instructions
    /// the static planner treats as cache-opaque (`pick`, `depth`, `?dup`)
    /// and `halt` do first. A view without registers does nothing.
    #[inline(always)]
    fn flush(&mut self, _cur: usize) -> Result<(), Fault> {
        Ok(())
    }

    /// Pop `( a b -- )`, returning `(a, b)`.
    #[inline(always)]
    fn pop2(&mut self, cur: usize) -> Result<(Cell, Cell), Fault> {
        self.need(cur, 2)?;
        let b = self.pop(cur)?;
        let a = self.pop(cur)?;
        Ok((a, b))
    }

    /// `( a b -- f(a, b) )`.
    #[inline(always)]
    fn binop(&mut self, cur: usize, f: impl FnOnce(Cell, Cell) -> Cell) -> Result<(), Fault> {
        let (a, b) = self.pop2(cur)?;
        self.push(cur, f(a, b))
    }

    /// `( a b -- f(a, b) )` trapping when `b` is zero, after the depth
    /// check.
    #[inline(always)]
    fn divop(&mut self, cur: usize, f: impl FnOnce(Cell, Cell) -> Cell) -> Result<(), Fault> {
        self.need(cur, 2)?;
        if self.peek(0) == 0 {
            return Err(Fault::division(cur));
        }
        self.binop(cur, f)
    }

    /// Trap unless at least `n` return-stack items are live.
    #[inline(always)]
    fn rneed(&mut self, cur: usize, n: usize) -> Result<(), Fault> {
        if Self::MODE == CHECK_FULL && *self.rstack().1 < n {
            return Err(Fault::new(cur, 0, |ip, _| VmError::ReturnStackUnderflow {
                ip,
            }));
        }
        Ok(())
    }

    /// Return-stack item `i` below the top; the caller has checked that it
    /// is live.
    #[inline(always)]
    fn rpeek(&mut self, i: usize) -> Cell {
        let (rbuf, rsp) = self.rstack();
        rbuf[*rsp - 1 - i]
    }

    /// Pop the return stack.
    #[inline(always)]
    fn rpop(&mut self, cur: usize) -> Result<Cell, Fault> {
        self.rneed(cur, 1)?;
        let (rbuf, rsp) = self.rstack();
        *rsp -= 1;
        Ok(rbuf[*rsp])
    }

    /// Push onto the return stack.
    #[inline(always)]
    fn rpush(&mut self, cur: usize, v: Cell) -> Result<(), Fault> {
        let (rbuf, rsp) = self.rstack();
        if Self::MODE < CHECK_NONE && *rsp >= rbuf.len() {
            return Err(Fault::new(cur, 0, |ip, _| VmError::ReturnStackOverflow {
                ip,
            }));
        }
        rbuf[*rsp] = v;
        *rsp += 1;
        Ok(())
    }
}

/// Flat data and return stacks: `buf[..sp]` and `rbuf[..rsp]` are live,
/// and the slice lengths are the depth limits. `MODE` is the
/// [`Checks`](crate::Checks) level the accessors compile in.
#[derive(Debug)]
pub(crate) struct Flat<'a, const MODE: u8> {
    /// Data-stack cells up to the depth limit.
    pub(crate) buf: &'a mut [Cell],
    /// Return-stack cells up to the depth limit.
    pub(crate) rbuf: &'a mut [Cell],
    /// Data-stack depth.
    pub(crate) sp: usize,
    /// Return-stack depth.
    pub(crate) rsp: usize,
}

impl<const M: u8> View for Flat<'_, M> {
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
        self.sp -= 1;
        Ok(self.buf[self.sp])
    }

    #[inline(always)]
    fn push(&mut self, cur: usize, v: Cell) -> Result<(), Fault> {
        if M < CHECK_NONE && self.sp >= self.buf.len() {
            return Err(Fault::overflow(cur));
        }
        self.buf[self.sp] = v;
        self.sp += 1;
        Ok(())
    }

    #[inline(always)]
    fn peek(&self, i: usize) -> Cell {
        self.buf[self.sp - 1 - i]
    }

    #[inline(always)]
    fn depth(&self) -> usize {
        self.sp
    }

    #[inline(always)]
    fn unop(&mut self, cur: usize, f: impl FnOnce(Cell) -> Cell) -> Result<(), Fault> {
        self.need(cur, 1)?;
        self.buf[self.sp - 1] = f(self.buf[self.sp - 1]);
        Ok(())
    }

    #[inline(always)]
    fn rstack(&mut self) -> (&mut [Cell], &mut usize) {
        (&mut *self.rbuf, &mut self.rsp)
    }

    #[inline(always)]
    fn pop2(&mut self, cur: usize) -> Result<(Cell, Cell), Fault> {
        self.need(cur, 2)?;
        self.sp -= 2;
        Ok((self.buf[self.sp], self.buf[self.sp + 1]))
    }

    /// In place: one store, no stack-pointer round trip.
    #[inline(always)]
    fn binop(&mut self, cur: usize, f: impl FnOnce(Cell, Cell) -> Cell) -> Result<(), Fault> {
        self.need(cur, 2)?;
        let b = self.buf[self.sp - 1];
        let a = self.buf[self.sp - 2];
        self.buf[self.sp - 2] = f(a, b);
        self.sp -= 1;
        Ok(())
    }
}

impl<const MODE: u8> Flat<'_, MODE> {
    /// Copy the live stacks into `machine` (what `halt` does). Inlined so
    /// that no driver takes the view's address: the view then stays in
    /// registers rather than being stored back on every stack-pointer move.
    #[inline(always)]
    pub(crate) fn publish(&self, machine: &mut Machine) {
        machine.set_stack(&self.buf[..self.sp]);
        machine.set_rstack(&self.rbuf[..self.rsp]);
    }
}

/// Execute `inst`, fetched from index `cur` of `code`, against `s` and
/// `machine`.
///
/// On entry `*ip` is `cur + 1`; a control transfer overwrites it. Fuel and
/// instruction fetch are the driver's.
///
/// # Errors
///
/// The reference interpreter's [`VmError`]s, at `cur`, minus the depth
/// checks the view's mode elides.
#[inline(always)]
#[allow(clippy::too_many_lines)]
pub(crate) fn step<V: View>(
    s: &mut V,
    inst: Inst,
    cur: usize,
    ip: &mut usize,
    machine: &mut Machine,
    code: Code<'_>,
) -> Result<Flow, Fault> {
    match inst {
        Inst::Lit(n) => s.push(cur, n)?,
        Inst::Add => s.binop(cur, Cell::wrapping_add)?,
        Inst::Sub => s.binop(cur, Cell::wrapping_sub)?,
        Inst::Mul => s.binop(cur, Cell::wrapping_mul)?,
        Inst::Div => s.divop(cur, Cell::wrapping_div_euclid)?,
        Inst::Mod => s.divop(cur, Cell::wrapping_rem_euclid)?,
        Inst::And => s.binop(cur, |a, b| a & b)?,
        Inst::Or => s.binop(cur, |a, b| a | b)?,
        Inst::Xor => s.binop(cur, |a, b| a ^ b)?,
        Inst::Lshift => s.binop(cur, |a, b| ((a as u64) << (b as u64 & 63)) as Cell)?,
        Inst::Rshift => s.binop(cur, |a, b| ((a as u64) >> (b as u64 & 63)) as Cell)?,
        Inst::Min => s.binop(cur, Cell::min)?,
        Inst::Max => s.binop(cur, Cell::max)?,
        Inst::Eq => s.binop(cur, |a, b| flag(a == b))?,
        Inst::Ne => s.binop(cur, |a, b| flag(a != b))?,
        Inst::Lt => s.binop(cur, |a, b| flag(a < b))?,
        Inst::Gt => s.binop(cur, |a, b| flag(a > b))?,
        Inst::Le => s.binop(cur, |a, b| flag(a <= b))?,
        Inst::Ge => s.binop(cur, |a, b| flag(a >= b))?,
        Inst::ULt => s.binop(cur, |a, b| flag((a as u64) < (b as u64)))?,
        Inst::UGt => s.binop(cur, |a, b| flag((a as u64) > (b as u64)))?,
        Inst::Negate => s.unop(cur, Cell::wrapping_neg)?,
        Inst::Invert => s.unop(cur, |a| !a)?,
        Inst::Abs => s.unop(cur, Cell::wrapping_abs)?,
        Inst::OnePlus | Inst::CharPlus => s.unop(cur, |a| a.wrapping_add(1))?,
        Inst::OneMinus => s.unop(cur, |a| a.wrapping_sub(1))?,
        Inst::TwoStar => s.unop(cur, |a| a.wrapping_mul(2))?,
        Inst::TwoSlash => s.unop(cur, |a| a >> 1)?,
        Inst::ZeroEq => s.unop(cur, |a| flag(a == 0))?,
        Inst::ZeroNe => s.unop(cur, |a| flag(a != 0))?,
        Inst::ZeroLt => s.unop(cur, |a| flag(a < 0))?,
        Inst::ZeroGt => s.unop(cur, |a| flag(a > 0))?,
        Inst::CellPlus => s.unop(cur, |a| a.wrapping_add(CELL_BYTES as Cell))?,
        Inst::Cells => s.unop(cur, |a| a.wrapping_mul(CELL_BYTES as Cell))?,
        Inst::Dup => {
            let a = s.pop(cur)?;
            s.push(cur, a)?;
            s.push(cur, a)?;
        }
        Inst::Drop => {
            s.pop(cur)?;
        }
        Inst::Swap => {
            let (a, b) = s.pop2(cur)?;
            s.push(cur, b)?;
            s.push(cur, a)?;
        }
        Inst::Over => {
            let (a, b) = s.pop2(cur)?;
            s.push(cur, a)?;
            s.push(cur, b)?;
            s.push(cur, a)?;
        }
        Inst::Rot => {
            s.need(cur, 3)?;
            let (b, c) = s.pop2(cur)?;
            let a = s.pop(cur)?;
            s.push(cur, b)?;
            s.push(cur, c)?;
            s.push(cur, a)?;
        }
        Inst::MinusRot => {
            s.need(cur, 3)?;
            let (b, c) = s.pop2(cur)?;
            let a = s.pop(cur)?;
            s.push(cur, c)?;
            s.push(cur, a)?;
            s.push(cur, b)?;
        }
        Inst::Nip => {
            let (_, b) = s.pop2(cur)?;
            s.push(cur, b)?;
        }
        Inst::Tuck => {
            let (a, b) = s.pop2(cur)?;
            s.push(cur, b)?;
            s.push(cur, a)?;
            s.push(cur, b)?;
        }
        Inst::TwoDup => {
            let (a, b) = s.pop2(cur)?;
            s.push(cur, a)?;
            s.push(cur, b)?;
            s.push(cur, a)?;
            s.push(cur, b)?;
        }
        Inst::TwoDrop => {
            s.pop2(cur)?;
        }
        Inst::TwoSwap => {
            s.need(cur, 4)?;
            let (c, d) = s.pop2(cur)?;
            let (a, b) = s.pop2(cur)?;
            s.push(cur, c)?;
            s.push(cur, d)?;
            s.push(cur, a)?;
            s.push(cur, b)?;
        }
        Inst::TwoOver => {
            s.need(cur, 4)?;
            let (c, d) = s.pop2(cur)?;
            let (a, b) = s.pop2(cur)?;
            for v in [a, b, c, d, a, b] {
                s.push(cur, v)?;
            }
        }
        Inst::QDup => {
            s.flush(cur)?;
            s.need(cur, 1)?;
            let a = s.peek(0);
            if a != 0 {
                s.push(cur, a)?;
                s.flush(cur)?;
            }
        }
        Inst::Pick => {
            s.flush(cur)?;
            let u = s.pop(cur)?;
            if u < 0 || u as usize >= s.depth() {
                return Err(Fault::new(cur, u, |ip, index| VmError::PickOutOfRange {
                    ip,
                    index,
                }));
            }
            let v = s.peek(u as usize);
            s.push(cur, v)?;
        }
        Inst::Depth => {
            s.flush(cur)?;
            s.push(cur, s.depth() as Cell)?;
        }
        Inst::ToR => {
            let a = s.pop(cur)?;
            s.rpush(cur, a)?;
        }
        Inst::FromR => {
            let a = s.rpop(cur)?;
            s.push(cur, a)?;
        }
        Inst::RFetch | Inst::LoopI => {
            s.rneed(cur, 1)?;
            let a = s.rpeek(0);
            s.push(cur, a)?;
        }
        Inst::TwoToR | Inst::DoSetup => {
            let (a, b) = s.pop2(cur)?;
            s.rpush(cur, a)?;
            s.rpush(cur, b)?;
        }
        Inst::TwoFromR => {
            let b = s.rpop(cur)?;
            let a = s.rpop(cur)?;
            s.push(cur, a)?;
            s.push(cur, b)?;
        }
        Inst::TwoRFetch => {
            s.rneed(cur, 2)?;
            let (a, b) = (s.rpeek(1), s.rpeek(0));
            s.push(cur, a)?;
            s.push(cur, b)?;
        }
        Inst::Fetch => fetch(s, cur, |addr| machine.load_cell(addr))?,
        Inst::CFetch => fetch(s, cur, |addr| machine.load_byte(addr))?,
        Inst::Store => {
            let (x, addr) = s.pop2(cur)?;
            if !machine.store_cell(addr, x) {
                return Err(Fault::memory(cur, addr));
            }
        }
        Inst::CStore => {
            let (x, addr) = s.pop2(cur)?;
            if !machine.store_byte(addr, x) {
                return Err(Fault::memory(cur, addr));
            }
        }
        Inst::PlusStore => {
            let (n, addr) = s.pop2(cur)?;
            match machine.load_cell(addr) {
                Some(x) => {
                    machine.store_cell(addr, x.wrapping_add(n));
                }
                None => return Err(Fault::memory(cur, addr)),
            }
        }
        Inst::Branch(t) => {
            *ip = t as usize;
            return Ok(Flow::Jump);
        }
        Inst::BranchIfZero(t) => {
            if s.pop(cur)? == 0 {
                *ip = t as usize;
            }
            return Ok(Flow::Jump);
        }
        Inst::Call(t) => {
            s.rpush(cur, *ip as Cell)?;
            *ip = t as usize;
            return Ok(Flow::Jump);
        }
        Inst::Execute => {
            let token = s.pop(cur)?;
            let Some(target) = code.target(token) else {
                return Err(Fault::new(cur, token, |ip, token| {
                    VmError::InvalidExecutionToken { ip, token }
                }));
            };
            s.rpush(cur, *ip as Cell)?;
            *ip = target;
            return Ok(Flow::Jump);
        }
        Inst::Return => {
            let ret = s.rpop(cur)?;
            if ret < 0 || ret as usize > code.len {
                return Err(Fault::new(ret as usize, 0, |ip, _| {
                    VmError::InstructionOutOfBounds { ip }
                }));
            }
            *ip = ret as usize;
            return Ok(Flow::Jump);
        }
        Inst::Halt => {
            s.flush(cur)?;
            return Ok(Flow::Halt);
        }
        Inst::Nop => {}
        Inst::QDoSetup(t) => {
            let (limit, start) = s.pop2(cur)?;
            if limit == start {
                *ip = t as usize;
            } else {
                s.rpush(cur, limit)?;
                s.rpush(cur, start)?;
            }
            return Ok(Flow::Jump);
        }
        Inst::LoopInc(t) => {
            s.rneed(cur, 2)?;
            let (rbuf, rsp) = s.rstack();
            let index = rbuf[*rsp - 1].wrapping_add(1);
            if index == rbuf[*rsp - 2] {
                *rsp -= 2;
            } else {
                rbuf[*rsp - 1] = index;
                *ip = t as usize;
            }
            return Ok(Flow::Jump);
        }
        Inst::PlusLoopInc(t) => {
            let step = s.pop(cur)?;
            s.rneed(cur, 2)?;
            let (rbuf, rsp) = s.rstack();
            let old = rbuf[*rsp - 1];
            let new = old.wrapping_add(step);
            let limit = rbuf[*rsp - 2];
            let crossed = if step >= 0 {
                old < limit && new >= limit
            } else {
                old >= limit && new < limit
            };
            if crossed {
                *rsp -= 2;
            } else {
                rbuf[*rsp - 1] = new;
                *ip = t as usize;
            }
            return Ok(Flow::Jump);
        }
        Inst::LoopJ => {
            s.rneed(cur, 4)?;
            let a = s.rpeek(2);
            s.push(cur, a)?;
        }
        Inst::Unloop => {
            s.rneed(cur, 2)?;
            *s.rstack().1 -= 2;
        }
        Inst::Emit => {
            let c = s.pop(cur)?;
            machine.push_output_byte(c as u8);
        }
        Inst::Dot => {
            let n = s.pop(cur)?;
            machine.push_output_number(n);
        }
        Inst::Type => {
            let (addr, len) = s.pop2(cur)?;
            if let Err(a) = machine.push_output_range(addr, len) {
                return Err(Fault::memory(cur, a));
            }
        }
        Inst::Cr => machine.push_output_byte(b'\n'),
    }
    Ok(Flow::Next)
}

/// `( addr -- x )` where `load` reads `x`, trapping when it cannot.
#[inline(always)]
fn fetch<V: View>(
    s: &mut V,
    cur: usize,
    load: impl FnOnce(Cell) -> Option<Cell>,
) -> Result<(), Fault> {
    s.need(cur, 1)?;
    let addr = s.peek(0);
    let Some(x) = load(addr) else {
        return Err(Fault::memory(cur, addr));
    };
    s.unop(cur, |_| x)
}
