//! Engine stack buffers: one owner, leased from a per-thread pool.
//!
//! Every wall-clock engine runs on flat data and return stacks
//! ([`FlatStacks`]) instead of the machine's growable vectors. The
//! buffers are sized for the machine's depth limits (64 Ki cells each by
//! default), so provisioning them fresh on every run would zero-fill
//! 1 MiB before a short program executes its first instruction.
//! [`FlatStacks::lease`] instead takes a buffer pair from a small
//! per-thread free list, copies the machine's live stacks in, and the
//! pair goes back to the list when the lease is dropped — on `halt`, on
//! every trap path, and on unwind alike.
//!
//! Reuse is sound because no engine reads a data-stack or return-stack
//! cell at or above the current stack pointer: every read is below it,
//! guarded by an underflow check or by a proof that rules underflow out
//! ([`Checks`](crate::Checks)). Stale cells left by an earlier run are
//! therefore never observed. The exceptions are the sentinel cells below
//! the user stack, which the static engine's canonical cache state and the
//! top-of-stack register load without ever having written them; `lease`
//! zeroes those. Debug
//! builds fill every returned buffer with a poison pattern so the test
//! suites run on dirty buffers and catch any engine that breaks the rule.

use std::cell::RefCell;

use crate::inst::Cell;
use crate::machine::Machine;
use crate::sem::Flat;

/// Most sentinel cells any engine asks for: the static engine's deepest
/// canonical cache state (the top-of-stack engine takes one).
pub const MAX_SENTINELS: usize = 3;

/// Engines clamp the machine's depth limits to this many cells.
pub const DEPTH_CLAMP: usize = 1 << 20;

/// Buffer pairs one thread keeps for reuse. Engine runs on one thread
/// are sequential, so one pair is reused run after run; the spare slots
/// serve callers that hold a lease while starting another run.
const POOL_PAIRS: usize = 4;

/// Byte written over every cell of a buffer returned to the pool in
/// debug builds (`0x5A5A_5A5A_5A5A_5A5A` per cell).
const POISON: u8 = 0x5A;

thread_local! {
    static POOL: RefCell<Vec<(Vec<Cell>, Vec<Cell>)>> = const { RefCell::new(Vec::new()) };
}

/// Flat interpreter stack state leased from the current thread's pool.
///
/// `buf[..sp]` / `rbuf[..rsp]` are the live data and return stacks,
/// bottom first. `limit`/`rlimit` are the depth limits (the machine's,
/// clamped to `1 << 20`, plus any sentinel cells); the buffers are at
/// least that long. Each engine hands its lease to a dispatch loop kept
/// in a function of its own (`#[inline(never)]`), which binds the
/// [`cells_mut`](FlatStacks::cells_mut) slices once before it loops:
/// inlined next to the lease, the baseline loop kept the data-stack base
/// in a stack slot instead of a register and ran about 15% slower. Cells
/// at or above `sp`/`rsp` hold whatever an earlier lease left there.
#[derive(Debug)]
pub struct FlatStacks {
    /// Data-stack cells; `buf[..sp]` are live.
    pub buf: Vec<Cell>,
    /// Data-stack depth, sentinel cells included.
    pub sp: usize,
    /// Return-stack cells; `rbuf[..rsp]` are live.
    pub rbuf: Vec<Cell>,
    /// Return-stack depth.
    pub rsp: usize,
    /// Maximum data-stack depth, sentinel cells included; at most `buf.len()`.
    pub limit: usize,
    /// Maximum return-stack depth; at most `rbuf.len()`.
    pub rlimit: usize,
}

impl FlatStacks {
    /// Lease a buffer pair and adopt `machine`'s current stacks into it,
    /// with `sentinels` zeroed cells below the data stack.
    ///
    /// # Panics
    ///
    /// If `sentinels` exceeds [`MAX_SENTINELS`], or a machine stack is
    /// deeper than the buffer leased for it (its clamped depth limit, plus
    /// [`MAX_SENTINELS`] for the data stack).
    #[must_use]
    pub fn lease(machine: &Machine, sentinels: usize) -> FlatStacks {
        assert!(
            sentinels <= MAX_SENTINELS,
            "at most {MAX_SENTINELS} sentinels"
        );
        let depth = machine.stack_limit().min(DEPTH_CLAMP);
        let rlimit = machine.rstack_limit().min(DEPTH_CLAMP);
        let (mut buf, mut rbuf) = POOL
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        // room for every sentinel count, so mixing engines on one thread
        // never reallocates
        provision(&mut buf, depth + MAX_SENTINELS);
        provision(&mut rbuf, rlimit);

        buf[..sentinels].fill(0);
        let sp = sentinels + machine.stack().len();
        buf[sentinels..sp].copy_from_slice(machine.stack());
        let rsp = machine.rstack().len();
        rbuf[..rsp].copy_from_slice(machine.rstack());
        FlatStacks {
            buf,
            sp,
            rbuf,
            rsp,
            limit: depth + sentinels,
            rlimit,
        }
    }

    /// The data and return stack cells up to their limits — what an
    /// engine binds once before its dispatch loop.
    pub fn cells_mut(&mut self) -> (&mut [Cell], &mut [Cell]) {
        (&mut self.buf[..self.limit], &mut self.rbuf[..self.rlimit])
    }

    /// The cells up to their limits at the current depths, as the view
    /// the shared opcode semantics ([`crate::sem::step`]) run on.
    pub(crate) fn flat<const MODE: u8>(&mut self) -> Flat<'_, MODE> {
        let (sp, rsp) = (self.sp, self.rsp);
        let (buf, rbuf) = self.cells_mut();
        Flat { buf, rbuf, sp, rsp }
    }

    /// Publish the flat stacks back into `machine` (what `halt` does).
    pub fn publish(&self, machine: &mut Machine) {
        machine.set_stack(&self.buf[..self.sp]);
        machine.set_rstack(&self.rbuf[..self.rsp]);
    }
}

impl Drop for FlatStacks {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        let mut rbuf = std::mem::take(&mut self.rbuf);
        if cfg!(debug_assertions) {
            poison(&mut buf);
            poison(&mut rbuf);
        }
        // During thread teardown the pool may already be gone; the
        // buffers are then simply freed.
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_PAIRS {
                pool.push((buf, rbuf));
            }
        });
    }
}

/// Make `v` at least `len` cells long. Contents are not preserved: a
/// short buffer is replaced by a fresh zeroed one.
fn provision(v: &mut Vec<Cell>, len: usize) {
    if v.len() < len {
        *v = vec![0; len];
    }
}

fn poison(v: &mut [Cell]) {
    // SAFETY: every bit pattern is a valid `Cell`, and the write covers
    // exactly the slice's own cells.
    unsafe { std::ptr::write_bytes(v.as_mut_ptr(), POISON, v.len()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_adopts_the_machine_stacks_above_zeroed_sentinels() {
        let mut m = Machine::with_memory(64);
        m.set_stack(&[7, 8]);
        m.set_rstack(&[9]);
        // dirty a pair first so the lease below reuses it
        drop(FlatStacks::lease(&m, 0));
        let st = FlatStacks::lease(&m, 3);
        assert_eq!(&st.buf[..st.sp], &[0, 0, 0, 7, 8]);
        assert_eq!(&st.rbuf[..st.rsp], &[9]);
        assert_eq!(st.limit, m.stack_limit() + 3);
        assert_eq!(st.rlimit, m.rstack_limit());
        assert!(st.buf.len() >= st.limit && st.rbuf.len() >= st.rlimit);
    }

    #[test]
    fn dropped_leases_return_to_the_pool() {
        let m = Machine::with_memory(64);
        let first = FlatStacks::lease(&m, 0);
        let ptr = first.buf.as_ptr();
        drop(first);
        let second = FlatStacks::lease(&m, MAX_SENTINELS);
        assert_eq!(second.buf.as_ptr(), ptr, "the pooled buffer is reused");
        if cfg!(debug_assertions) {
            let poisoned = Cell::from_ne_bytes([POISON; 8]);
            assert_eq!(second.buf[MAX_SENTINELS], poisoned);
            assert_eq!(second.rbuf[0], poisoned);
        }
    }

    #[test]
    fn nested_leases_get_distinct_buffers() {
        let m = Machine::with_memory(64);
        let a = FlatStacks::lease(&m, 0);
        let b = FlatStacks::lease(&m, 0);
        assert_ne!(a.buf.as_ptr(), b.buf.as_ptr());
        assert_ne!(a.rbuf.as_ptr(), b.rbuf.as_ptr());
    }
}
