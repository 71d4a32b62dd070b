//! The flat-memory-stack semantics of every opcode, written once.
//!
//! The paper's baseline interpreter (Fig. 11) defines each primitive over
//! a memory stack addressed through an explicit stack pointer. [`step`] is
//! that definition: it executes one instruction against a [`Flat`] view of
//! the leased stacks and reports what it did to control flow as a
//! [`Flow`]. The engines that keep every item in memory are drivers over
//! it and differ only in how they fetch and what they do at a control
//! transfer:
//!
//! * the baseline interpreter ([`crate::interp::run_baseline`]) loops
//!   until `halt` and ignores [`Flow::Jump`];
//! * the span stepper ([`crate::stepper::run_span`], the JIT's deopt
//!   bridge) leaves on [`Flow::Jump`] or at a caller-given boundary;
//! * the fused and quickened interpreters ([`crate::fusion`]) dispatch once
//!   per group and call [`step`] once per group member.
//!
//! Everything is `#[inline(always)]`, so each driver compiles to one
//! specialised loop per [`Checks`](crate::Checks) level with the stack
//! pointers in registers.

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
    /// `halt` executed; the stacks are still in the view, unpublished.
    Halt,
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

impl<const MODE: u8> Flat<'_, MODE> {
    /// Trap unless at least `n` data-stack items are live.
    #[inline(always)]
    pub(crate) fn need(&self, cur: usize, n: usize) -> Result<(), VmError> {
        if MODE == CHECK_FULL && self.sp < n {
            return Err(VmError::StackUnderflow { ip: cur });
        }
        Ok(())
    }

    /// Trap unless at least `n` return-stack items are live.
    #[inline(always)]
    pub(crate) fn rneed(&self, cur: usize, n: usize) -> Result<(), VmError> {
        if MODE == CHECK_FULL && self.rsp < n {
            return Err(VmError::ReturnStackUnderflow { ip: cur });
        }
        Ok(())
    }

    /// Pop the data stack.
    #[inline(always)]
    pub(crate) fn pop(&mut self, cur: usize) -> Result<Cell, VmError> {
        self.need(cur, 1)?;
        self.sp -= 1;
        Ok(self.buf[self.sp])
    }

    /// Push onto the data stack.
    #[inline(always)]
    pub(crate) fn push(&mut self, cur: usize, v: Cell) -> Result<(), VmError> {
        if MODE < CHECK_NONE && self.sp >= self.buf.len() {
            return Err(VmError::StackOverflow { ip: cur });
        }
        self.buf[self.sp] = v;
        self.sp += 1;
        Ok(())
    }

    /// Pop the return stack.
    #[inline(always)]
    pub(crate) fn rpop(&mut self, cur: usize) -> Result<Cell, VmError> {
        self.rneed(cur, 1)?;
        self.rsp -= 1;
        Ok(self.rbuf[self.rsp])
    }

    /// Push onto the return stack.
    #[inline(always)]
    pub(crate) fn rpush(&mut self, cur: usize, v: Cell) -> Result<(), VmError> {
        if MODE < CHECK_NONE && self.rsp >= self.rbuf.len() {
            return Err(VmError::ReturnStackOverflow { ip: cur });
        }
        self.rbuf[self.rsp] = v;
        self.rsp += 1;
        Ok(())
    }

    /// Pop `( a b -- )`, returning `(a, b)`.
    #[inline(always)]
    pub(crate) fn pop2(&mut self, cur: usize) -> Result<(Cell, Cell), VmError> {
        self.need(cur, 2)?;
        self.sp -= 2;
        Ok((self.buf[self.sp], self.buf[self.sp + 1]))
    }

    /// `( a b -- f(a, b) )` in place.
    #[inline(always)]
    pub(crate) fn binop(
        &mut self,
        cur: usize,
        f: impl FnOnce(Cell, Cell) -> Cell,
    ) -> Result<(), VmError> {
        self.need(cur, 2)?;
        let b = self.buf[self.sp - 1];
        let a = self.buf[self.sp - 2];
        self.buf[self.sp - 2] = f(a, b);
        self.sp -= 1;
        Ok(())
    }

    /// `( a -- f(a) )` in place.
    #[inline(always)]
    pub(crate) fn unop(&mut self, cur: usize, f: impl FnOnce(Cell) -> Cell) -> Result<(), VmError> {
        self.need(cur, 1)?;
        self.buf[self.sp - 1] = f(self.buf[self.sp - 1]);
        Ok(())
    }

    /// `( a b -- f(a, b) )` trapping when `b` is zero.
    #[inline(always)]
    fn divop(&mut self, cur: usize, f: impl FnOnce(Cell, Cell) -> Cell) -> Result<(), VmError> {
        self.need(cur, 2)?;
        if self.buf[self.sp - 1] == 0 {
            return Err(VmError::DivisionByZero { ip: cur });
        }
        self.binop(cur, f)
    }

    /// Copy the live stacks into `machine` (what `halt` does). Inlined so
    /// that no driver takes the view's address: the view then stays in
    /// registers rather than being stored back on every stack-pointer move.
    #[inline(always)]
    pub(crate) fn publish(&self, machine: &mut Machine) {
        machine.set_stack(&self.buf[..self.sp]);
        machine.set_rstack(&self.rbuf[..self.rsp]);
    }
}

/// Execute `inst`, fetched from index `cur`, against `s` and `machine`.
///
/// On entry `*ip` is `cur + 1`; a control transfer overwrites it. Fuel and
/// instruction fetch are the driver's; `n_insts` is the program length,
/// which bounds `execute` tokens and return addresses.
///
/// # Errors
///
/// The reference interpreter's [`VmError`]s, at `cur`, minus the depth
/// checks `MODE` elides.
#[inline(always)]
#[allow(clippy::too_many_lines)]
pub(crate) fn step<const MODE: u8>(
    s: &mut Flat<'_, MODE>,
    inst: Inst,
    cur: usize,
    ip: &mut usize,
    machine: &mut Machine,
    n_insts: usize,
) -> Result<Flow, VmError> {
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
            s.need(cur, 1)?;
            let a = s.buf[s.sp - 1];
            s.push(cur, a)?;
        }
        Inst::Drop => {
            s.need(cur, 1)?;
            s.sp -= 1;
        }
        Inst::Swap => {
            s.need(cur, 2)?;
            s.buf.swap(s.sp - 1, s.sp - 2);
        }
        Inst::Over => {
            s.need(cur, 2)?;
            let a = s.buf[s.sp - 2];
            s.push(cur, a)?;
        }
        Inst::Rot => {
            s.need(cur, 3)?;
            let sp = s.sp;
            let a = s.buf[sp - 3];
            s.buf[sp - 3] = s.buf[sp - 2];
            s.buf[sp - 2] = s.buf[sp - 1];
            s.buf[sp - 1] = a;
        }
        Inst::MinusRot => {
            s.need(cur, 3)?;
            let sp = s.sp;
            let c = s.buf[sp - 1];
            s.buf[sp - 1] = s.buf[sp - 2];
            s.buf[sp - 2] = s.buf[sp - 3];
            s.buf[sp - 3] = c;
        }
        Inst::Nip => {
            s.need(cur, 2)?;
            s.buf[s.sp - 2] = s.buf[s.sp - 1];
            s.sp -= 1;
        }
        Inst::Tuck => {
            s.need(cur, 2)?;
            s.buf.swap(s.sp - 2, s.sp - 1);
            s.push(cur, s.buf[s.sp - 2])?;
        }
        Inst::TwoDup => {
            s.need(cur, 2)?;
            let (a, b) = (s.buf[s.sp - 2], s.buf[s.sp - 1]);
            s.push(cur, a)?;
            s.push(cur, b)?;
        }
        Inst::TwoDrop => {
            s.need(cur, 2)?;
            s.sp -= 2;
        }
        Inst::TwoSwap => {
            s.need(cur, 4)?;
            s.buf.swap(s.sp - 4, s.sp - 2);
            s.buf.swap(s.sp - 3, s.sp - 1);
        }
        Inst::TwoOver => {
            s.need(cur, 4)?;
            let (a, b) = (s.buf[s.sp - 4], s.buf[s.sp - 3]);
            s.push(cur, a)?;
            s.push(cur, b)?;
        }
        Inst::QDup => {
            s.need(cur, 1)?;
            let a = s.buf[s.sp - 1];
            if a != 0 {
                s.push(cur, a)?;
            }
        }
        Inst::Pick => {
            let u = s.pop(cur)?;
            if u < 0 || u as usize >= s.sp {
                return Err(VmError::PickOutOfRange { ip: cur, index: u });
            }
            let v = s.buf[s.sp - 1 - u as usize];
            s.push(cur, v)?;
        }
        Inst::Depth => s.push(cur, s.sp as Cell)?,
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
            s.push(cur, s.rbuf[s.rsp - 1])?;
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
            let (a, b) = (s.rbuf[s.rsp - 2], s.rbuf[s.rsp - 1]);
            s.push(cur, a)?;
            s.push(cur, b)?;
        }
        Inst::Fetch => {
            s.need(cur, 1)?;
            let addr = s.buf[s.sp - 1];
            match machine.load_cell(addr) {
                Some(x) => s.buf[s.sp - 1] = x,
                None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr }),
            }
        }
        Inst::CFetch => {
            s.need(cur, 1)?;
            let addr = s.buf[s.sp - 1];
            match machine.load_byte(addr) {
                Some(x) => s.buf[s.sp - 1] = x,
                None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr }),
            }
        }
        Inst::Store => {
            let (x, addr) = s.pop2(cur)?;
            if !machine.store_cell(addr, x) {
                return Err(VmError::MemoryOutOfBounds { ip: cur, addr });
            }
        }
        Inst::CStore => {
            let (x, addr) = s.pop2(cur)?;
            if !machine.store_byte(addr, x) {
                return Err(VmError::MemoryOutOfBounds { ip: cur, addr });
            }
        }
        Inst::PlusStore => {
            let (n, addr) = s.pop2(cur)?;
            match machine.load_cell(addr) {
                Some(x) => {
                    machine.store_cell(addr, x.wrapping_add(n));
                }
                None => return Err(VmError::MemoryOutOfBounds { ip: cur, addr }),
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
            if token < 0 || token as usize >= n_insts {
                return Err(VmError::InvalidExecutionToken { ip: cur, token });
            }
            s.rpush(cur, *ip as Cell)?;
            *ip = token as usize;
            return Ok(Flow::Jump);
        }
        Inst::Return => {
            let ret = s.rpop(cur)?;
            if ret < 0 || ret as usize > n_insts {
                return Err(VmError::InstructionOutOfBounds { ip: ret as usize });
            }
            *ip = ret as usize;
            return Ok(Flow::Jump);
        }
        Inst::Halt => return Ok(Flow::Halt),
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
            let index = s.rbuf[s.rsp - 1].wrapping_add(1);
            if index == s.rbuf[s.rsp - 2] {
                s.rsp -= 2;
            } else {
                s.rbuf[s.rsp - 1] = index;
                *ip = t as usize;
            }
            return Ok(Flow::Jump);
        }
        Inst::PlusLoopInc(t) => {
            let step = s.pop(cur)?;
            s.rneed(cur, 2)?;
            let old = s.rbuf[s.rsp - 1];
            let new = old.wrapping_add(step);
            let limit = s.rbuf[s.rsp - 2];
            let crossed = if step >= 0 {
                old < limit && new >= limit
            } else {
                old >= limit && new < limit
            };
            if crossed {
                s.rsp -= 2;
            } else {
                s.rbuf[s.rsp - 1] = new;
                *ip = t as usize;
            }
            return Ok(Flow::Jump);
        }
        Inst::LoopJ => {
            s.rneed(cur, 4)?;
            s.push(cur, s.rbuf[s.rsp - 3])?;
        }
        Inst::Unloop => {
            s.rneed(cur, 2)?;
            s.rsp -= 2;
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
    Ok(Flow::Next)
}
