//! The reference interpreter and its instrumentation interface.
//!
//! [`run_with_observer`] executes a [`Program`] with full runtime checking
//! and delivers one [`ExecEvent`] per executed instruction to an
//! [`ExecObserver`].  The event carries the instruction's *resolved* effect
//! (dynamic-effect instructions such as `?dup` and the loop primitives are
//! resolved to what actually happened), which is exactly the information the
//! stack-caching cost simulators in `stackcache-core` consume.
//!
//! The reference interpreter is deliberately written for clarity and
//! checkability, not speed; the wall-clock interpreters compared in the
//! paper's Section 6 live in [`crate::interp`] and `stackcache_core::interp`
//! and are cross-validated against this one.

use crate::checks::{Checks, CHECK_FULL, CHECK_NONE, CHECK_NO_UNDERFLOW};
use crate::error::VmError;
use crate::inst::{flag, perm, Cell, EffectKind, Inst, CELL_BYTES};
use crate::machine::Machine;
use crate::program::Program;

/// The per-execution resolved effect of one instruction.
///
/// Differences from the static [`Effect`](crate::inst::Effect):
///
/// * `?dup` is resolved to a concrete shuffle,
/// * loop primitives report their actual return-stack traffic,
/// * conditional branches report whether they were taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedEffect {
    /// Cells popped from the data stack.
    pub pops: u8,
    /// Cells pushed onto the data stack.
    pub pushes: u8,
    /// Cells read from the return stack (loads).
    pub rloads: u8,
    /// Cells written to the return stack (stores).
    pub rstores: u8,
    /// Net return-stack depth change.
    pub rnet: i8,
    /// Behaviour class, with `?dup` resolved to a concrete shuffle.
    pub kind: EffectKind,
    /// For branch kinds: `true` if control transferred to the target.
    pub taken: bool,
}

impl ResolvedEffect {
    fn plain(pops: u8, pushes: u8, kind: EffectKind) -> Self {
        ResolvedEffect {
            pops,
            pushes,
            rloads: 0,
            rstores: 0,
            rnet: 0,
            kind,
            taken: false,
        }
    }
}

/// One executed instruction, as seen by an [`ExecObserver`].
#[derive(Debug, Clone, Copy)]
pub struct ExecEvent {
    /// Index of the executed instruction.
    pub ip: usize,
    /// The executed instruction.
    pub inst: Inst,
    /// Its resolved effect.
    pub effect: ResolvedEffect,
}

/// Receives one event per executed instruction.
///
/// Implementations must not assume events arrive from a single program run;
/// the harness reuses observers across workloads deliberately (the paper
/// sums its figures over all four benchmark programs).
pub trait ExecObserver {
    /// Called after each instruction completes successfully.
    fn event(&mut self, ev: &ExecEvent);

    /// Polled before each instruction; returning `true` stops the run
    /// with [`VmError::Cancelled`]. The default never cancels, so plain
    /// instrumentation observers pay one predictable inlined branch.
    ///
    /// This is the cooperative-cancellation hook the execution service
    /// uses for wall-clock deadlines and graceful shutdown.
    #[inline]
    fn poll_cancel(&mut self) -> bool {
        false
    }
}

/// The do-nothing observer.
impl ExecObserver for () {
    #[inline]
    fn event(&mut self, _ev: &ExecEvent) {}
}

impl<T: ExecObserver + ?Sized> ExecObserver for &mut T {
    #[inline]
    fn event(&mut self, ev: &ExecEvent) {
        (**self).event(ev);
    }

    #[inline]
    fn poll_cancel(&mut self) -> bool {
        (**self).poll_cancel()
    }
}

/// Broadcast events to several observers (one execution, many regimes).
impl<T: ExecObserver> ExecObserver for [T] {
    fn event(&mut self, ev: &ExecEvent) {
        for obs in self.iter_mut() {
            obs.event(ev);
        }
    }

    fn poll_cancel(&mut self) -> bool {
        self.iter_mut().any(ExecObserver::poll_cancel)
    }
}

impl<T: ExecObserver> ExecObserver for Vec<T> {
    fn event(&mut self, ev: &ExecEvent) {
        self.as_mut_slice().event(ev);
    }

    fn poll_cancel(&mut self) -> bool {
        self.as_mut_slice().poll_cancel()
    }
}

/// Compose two observers of *different* types (one execution, two
/// concerns — e.g. a deadline enforcer plus a flight-recorder tracer).
///
/// Both observers see every event, and both are polled for cancellation
/// on every instruction (no short-circuiting: an interval-counting
/// observer keeps its cadence even when its partner cancels first).
impl<A: ExecObserver, B: ExecObserver> ExecObserver for (A, B) {
    #[inline]
    fn event(&mut self, ev: &ExecEvent) {
        self.0.event(ev);
        self.1.event(ev);
    }

    #[inline]
    fn poll_cancel(&mut self) -> bool {
        let a = self.0.poll_cancel();
        let b = self.1.poll_cancel();
        a || b
    }
}

/// Result of a successful program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Number of instructions executed (including the final `halt`).
    pub executed: u64,
    /// Instruction index of the `halt` that ended execution.
    pub ip: usize,
}

/// Execute `program` on `machine` without instrumentation.
///
/// `fuel` bounds the number of executed instructions.
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap (stack underflow, memory out of
/// bounds, division by zero, fuel exhaustion, …).
pub fn run(program: &Program, machine: &mut Machine, fuel: u64) -> Result<Outcome, VmError> {
    run_with_observer(program, machine, fuel, &mut ())
}

/// Execute `program` on `machine`, delivering an [`ExecEvent`] per
/// instruction to `observer`.
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap. No event is delivered for the
/// faulting instruction.
pub fn run_with_observer<O: ExecObserver + ?Sized>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    observer: &mut O,
) -> Result<Outcome, VmError> {
    run_observer_mode::<CHECK_FULL, O>(program, machine, fuel, observer)
}

/// [`run`] at a selectable [`Checks`] level.
///
/// Levels above [`Checks::Full`] are sound only for programs proven safe
/// by static analysis; see [`Checks`] for the contract. The reference
/// interpreter works on growable `Vec` stacks, so its elided underflow
/// checks degrade to unreachable-panics rather than disappearing — the
/// point of this variant is a uniform engine interface, not speed.
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap the chosen level still
/// detects.
pub fn run_with_checks(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<Outcome, VmError> {
    run_with_observer_checks(program, machine, fuel, &mut (), checks)
}

/// [`run_with_observer`] at a selectable [`Checks`] level.
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap the chosen level still
/// detects. No event is delivered for the faulting instruction.
pub fn run_with_observer_checks<O: ExecObserver + ?Sized>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    observer: &mut O,
    checks: Checks,
) -> Result<Outcome, VmError> {
    match checks {
        Checks::Full => run_observer_mode::<CHECK_FULL, O>(program, machine, fuel, observer),
        Checks::NoUnderflow => {
            run_observer_mode::<CHECK_NO_UNDERFLOW, O>(program, machine, fuel, observer)
        }
        Checks::None => run_observer_mode::<CHECK_NONE, O>(program, machine, fuel, observer),
    }
}

fn run_observer_mode<const MODE: u8, O: ExecObserver + ?Sized>(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    observer: &mut O,
) -> Result<Outcome, VmError> {
    let insts = program.insts();
    let mut ip = program.entry();
    let mut executed: u64 = 0;

    loop {
        if executed >= fuel {
            return Err(VmError::FuelExhausted { ip });
        }
        if observer.poll_cancel() {
            return Err(VmError::Cancelled { ip });
        }
        let Some(&inst) = insts.get(ip) else {
            return Err(VmError::InstructionOutOfBounds { ip });
        };
        executed += 1;
        let cur_ip = ip;
        ip += 1;

        macro_rules! pop {
            () => {
                match machine.stack.pop() {
                    Some(x) => x,
                    None if MODE == CHECK_FULL => {
                        return Err(VmError::StackUnderflow { ip: cur_ip })
                    }
                    None => unreachable!("data-stack underflow on a proven program"),
                }
            };
        }
        macro_rules! push {
            ($x:expr) => {{
                if MODE < CHECK_NONE && machine.stack.len() >= machine.stack_limit {
                    return Err(VmError::StackOverflow { ip: cur_ip });
                }
                machine.stack.push($x);
            }};
        }
        macro_rules! rpop {
            () => {
                match machine.rstack.pop() {
                    Some(x) => x,
                    None if MODE == CHECK_FULL => {
                        return Err(VmError::ReturnStackUnderflow { ip: cur_ip })
                    }
                    None => unreachable!("return-stack underflow on a proven program"),
                }
            };
        }
        macro_rules! rpush {
            ($x:expr) => {{
                if MODE < CHECK_NONE && machine.rstack.len() >= machine.rstack_limit {
                    return Err(VmError::ReturnStackOverflow { ip: cur_ip });
                }
                machine.rstack.push($x);
            }};
        }
        // Diverge on a return-stack underflow detected by an inline depth
        // test (the `Vec`-reading instructions that do not pop).
        macro_rules! runder {
            () => {{
                if MODE == CHECK_FULL {
                    return Err(VmError::ReturnStackUnderflow { ip: cur_ip });
                }
                unreachable!("return-stack underflow on a proven program")
            }};
        }
        macro_rules! binop {
            ($f:expr) => {{
                let b = pop!();
                let a = pop!();
                push!($f(a, b));
            }};
        }
        macro_rules! unop {
            ($f:expr) => {{
                let a = pop!();
                push!($f(a));
            }};
        }

        let static_eff = inst.effect();
        let mut effect = ResolvedEffect::plain(static_eff.pops, static_eff.pushes, static_eff.kind);

        match inst {
            Inst::Lit(n) => push!(n),

            Inst::Add => binop!(|a: Cell, b: Cell| a.wrapping_add(b)),
            Inst::Sub => binop!(|a: Cell, b: Cell| a.wrapping_sub(b)),
            Inst::Mul => binop!(|a: Cell, b: Cell| a.wrapping_mul(b)),
            Inst::Div => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(VmError::DivisionByZero { ip: cur_ip });
                }
                push!(a.wrapping_div_euclid(b));
            }
            Inst::Mod => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(VmError::DivisionByZero { ip: cur_ip });
                }
                push!(a.wrapping_rem_euclid(b));
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
                let a = pop!();
                push!(a);
                push!(a);
            }
            Inst::Drop => {
                pop!();
            }
            Inst::Swap => {
                let b = pop!();
                let a = pop!();
                push!(b);
                push!(a);
            }
            Inst::Over => {
                let b = pop!();
                let a = pop!();
                push!(a);
                push!(b);
                push!(a);
            }
            Inst::Rot => {
                let c = pop!();
                let b = pop!();
                let a = pop!();
                push!(b);
                push!(c);
                push!(a);
            }
            Inst::MinusRot => {
                let c = pop!();
                let b = pop!();
                let a = pop!();
                push!(c);
                push!(a);
                push!(b);
            }
            Inst::Nip => {
                let b = pop!();
                pop!();
                push!(b);
            }
            Inst::Tuck => {
                let b = pop!();
                let a = pop!();
                push!(b);
                push!(a);
                push!(b);
            }
            Inst::TwoDup => {
                let b = pop!();
                let a = pop!();
                push!(a);
                push!(b);
                push!(a);
                push!(b);
            }
            Inst::TwoDrop => {
                pop!();
                pop!();
            }
            Inst::TwoSwap => {
                let d = pop!();
                let c = pop!();
                let b = pop!();
                let a = pop!();
                push!(c);
                push!(d);
                push!(a);
                push!(b);
            }
            Inst::TwoOver => {
                let d = pop!();
                let c = pop!();
                let b = pop!();
                let a = pop!();
                push!(a);
                push!(b);
                push!(c);
                push!(d);
                push!(a);
                push!(b);
            }
            Inst::QDup => {
                let a = pop!();
                push!(a);
                if a != 0 {
                    push!(a);
                    effect = ResolvedEffect::plain(1, 2, EffectKind::Shuffle(perm::QDUP_NONZERO));
                } else {
                    effect = ResolvedEffect::plain(1, 1, EffectKind::Shuffle(perm::QDUP_ZERO));
                }
            }

            Inst::Pick => {
                let u = pop!();
                let depth = machine.stack.len() as i64;
                if u < 0 || u >= depth {
                    return Err(VmError::PickOutOfRange {
                        ip: cur_ip,
                        index: u,
                    });
                }
                let v = machine.stack[(depth - 1 - u) as usize];
                push!(v);
            }
            Inst::Depth => {
                let d = machine.stack.len() as Cell;
                push!(d);
            }

            Inst::ToR => {
                let a = pop!();
                rpush!(a);
                effect.rstores = 1;
                effect.rnet = 1;
            }
            Inst::FromR => {
                let a = rpop!();
                push!(a);
                effect.rloads = 1;
                effect.rnet = -1;
            }
            Inst::RFetch => {
                let Some(&a) = machine.rstack.last() else {
                    runder!()
                };
                push!(a);
                effect.rloads = 1;
            }
            Inst::TwoToR => {
                let b = pop!();
                let a = pop!();
                rpush!(a);
                rpush!(b);
                effect.rstores = 2;
                effect.rnet = 2;
            }
            Inst::TwoFromR => {
                let b = rpop!();
                let a = rpop!();
                push!(a);
                push!(b);
                effect.rloads = 2;
                effect.rnet = -2;
            }
            Inst::TwoRFetch => {
                let n = machine.rstack.len();
                if n < 2 {
                    runder!();
                }
                let a = machine.rstack[n - 2];
                let b = machine.rstack[n - 1];
                push!(a);
                push!(b);
                effect.rloads = 2;
            }

            Inst::Fetch => {
                let addr = pop!();
                match machine.load_cell(addr) {
                    Some(x) => push!(x),
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur_ip, addr }),
                }
            }
            Inst::Store => {
                let addr = pop!();
                let x = pop!();
                if !machine.store_cell(addr, x) {
                    return Err(VmError::MemoryOutOfBounds { ip: cur_ip, addr });
                }
            }
            Inst::CFetch => {
                let addr = pop!();
                match machine.load_byte(addr) {
                    Some(x) => push!(x),
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur_ip, addr }),
                }
            }
            Inst::CStore => {
                let addr = pop!();
                let x = pop!();
                if !machine.store_byte(addr, x) {
                    return Err(VmError::MemoryOutOfBounds { ip: cur_ip, addr });
                }
            }
            Inst::PlusStore => {
                let addr = pop!();
                let n = pop!();
                match machine.load_cell(addr) {
                    Some(x) => {
                        machine.store_cell(addr, x.wrapping_add(n));
                    }
                    None => return Err(VmError::MemoryOutOfBounds { ip: cur_ip, addr }),
                }
            }

            Inst::Branch(t) => {
                ip = t as usize;
                effect.taken = true;
            }
            Inst::BranchIfZero(t) => {
                let f = pop!();
                if f == 0 {
                    ip = t as usize;
                    effect.taken = true;
                }
            }
            Inst::Call(t) => {
                rpush!(ip as Cell);
                ip = t as usize;
                effect.rstores = 1;
                effect.rnet = 1;
                effect.taken = true;
            }
            Inst::Execute => {
                let token = pop!();
                if token < 0 || token as usize >= insts.len() {
                    return Err(VmError::InvalidExecutionToken { ip: cur_ip, token });
                }
                rpush!(ip as Cell);
                ip = token as usize;
                effect.rstores = 1;
                effect.rnet = 1;
                effect.taken = true;
            }
            Inst::Return => {
                let ret = rpop!();
                if ret < 0 || ret as usize > insts.len() {
                    return Err(VmError::InstructionOutOfBounds { ip: ret as usize });
                }
                ip = ret as usize;
                effect.rloads = 1;
                effect.rnet = -1;
                effect.taken = true;
            }
            Inst::Halt => {
                observer.event(&ExecEvent {
                    ip: cur_ip,
                    inst,
                    effect,
                });
                return Ok(Outcome {
                    executed,
                    ip: cur_ip,
                });
            }
            Inst::Nop => {}

            Inst::DoSetup => {
                let start = pop!();
                let limit = pop!();
                rpush!(limit);
                rpush!(start);
                effect.rstores = 2;
                effect.rnet = 2;
            }
            Inst::QDoSetup(t) => {
                let start = pop!();
                let limit = pop!();
                if limit == start {
                    ip = t as usize;
                    effect.taken = true;
                } else {
                    rpush!(limit);
                    rpush!(start);
                    effect.rstores = 2;
                    effect.rnet = 2;
                }
            }
            Inst::LoopInc(t) => {
                let n = machine.rstack.len();
                if n < 2 {
                    runder!();
                }
                let index = machine.rstack[n - 1].wrapping_add(1);
                let limit = machine.rstack[n - 2];
                effect.rloads = 2;
                if index == limit {
                    machine.rstack.truncate(n - 2);
                    effect.rnet = -2;
                } else {
                    machine.rstack[n - 1] = index;
                    effect.rstores = 1;
                    ip = t as usize;
                    effect.taken = true;
                }
            }
            Inst::PlusLoopInc(t) => {
                let step = pop!();
                let n = machine.rstack.len();
                if n < 2 {
                    runder!();
                }
                let old = machine.rstack[n - 1];
                let new = old.wrapping_add(step);
                let limit = machine.rstack[n - 2];
                effect.rloads = 2;
                let crossed = if step >= 0 {
                    old < limit && new >= limit
                } else {
                    old >= limit && new < limit
                };
                if crossed {
                    machine.rstack.truncate(n - 2);
                    effect.rnet = -2;
                } else {
                    machine.rstack[n - 1] = new;
                    effect.rstores = 1;
                    ip = t as usize;
                    effect.taken = true;
                }
            }
            Inst::LoopI => {
                let Some(&i) = machine.rstack.last() else {
                    runder!()
                };
                push!(i);
                effect.rloads = 1;
            }
            Inst::LoopJ => {
                let n = machine.rstack.len();
                if n < 4 {
                    runder!();
                }
                push!(machine.rstack[n - 3]);
                effect.rloads = 1;
            }
            Inst::Unloop => {
                let n = machine.rstack.len();
                if n < 2 {
                    runder!();
                }
                machine.rstack.truncate(n - 2);
                effect.rnet = -2;
            }

            Inst::Emit => {
                let c = pop!();
                machine.out.push(c as u8);
            }
            Inst::Dot => {
                let n = pop!();
                machine.out.extend_from_slice(n.to_string().as_bytes());
                machine.out.push(b' ');
            }
            Inst::Type => {
                let len = pop!();
                let addr = pop!();
                if len < 0 {
                    return Err(VmError::MemoryOutOfBounds {
                        ip: cur_ip,
                        addr: len,
                    });
                }
                for i in 0..len {
                    let a = addr.wrapping_add(i);
                    match machine.load_byte(a) {
                        Some(b) => machine.out.push(b as u8),
                        None => {
                            return Err(VmError::MemoryOutOfBounds {
                                ip: cur_ip,
                                addr: a,
                            })
                        }
                    }
                }
            }
            Inst::Cr => {
                machine.out.push(b'\n');
            }
        }

        observer.event(&ExecEvent {
            ip: cur_ip,
            inst,
            effect,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{FALSE, TRUE};
    use crate::program::{program_of, ProgramBuilder};

    fn run_insts(insts: &[Inst]) -> Machine {
        let p = program_of(insts);
        let mut m = Machine::with_memory(4096);
        run(&p, &mut m, 1_000_000).expect("program runs");
        m
    }

    fn stack_after(insts: &[Inst]) -> Vec<Cell> {
        run_insts(insts).stack().to_vec()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            stack_after(&[Inst::Lit(2), Inst::Lit(3), Inst::Add]),
            vec![5]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(2), Inst::Lit(3), Inst::Sub]),
            vec![-1]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(4), Inst::Lit(3), Inst::Mul]),
            vec![12]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(7), Inst::Lit(2), Inst::Div]),
            vec![3]
        );
        // floored division
        assert_eq!(
            stack_after(&[Inst::Lit(-7), Inst::Lit(2), Inst::Div]),
            vec![-4]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(-7), Inst::Lit(2), Inst::Mod]),
            vec![1]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(6), Inst::Lit(3), Inst::And]),
            vec![2]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(6), Inst::Lit(3), Inst::Or]),
            vec![7]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(6), Inst::Lit(3), Inst::Xor]),
            vec![5]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(4), Inst::Lshift]),
            vec![16]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(-1), Inst::Lit(63), Inst::Rshift]),
            vec![1]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(2), Inst::Lit(3), Inst::Min]),
            vec![2]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(2), Inst::Lit(3), Inst::Max]),
            vec![3]
        );
    }

    #[test]
    fn comparisons_use_forth_flags() {
        assert_eq!(
            stack_after(&[Inst::Lit(2), Inst::Lit(2), Inst::Eq]),
            vec![TRUE]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(2), Inst::Lit(3), Inst::Eq]),
            vec![FALSE]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(2), Inst::Lit(3), Inst::Lt]),
            vec![TRUE]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(-1), Inst::Lit(1), Inst::ULt]),
            vec![FALSE]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(-1), Inst::Lit(1), Inst::UGt]),
            vec![TRUE]
        );
        assert_eq!(stack_after(&[Inst::Lit(0), Inst::ZeroEq]), vec![TRUE]);
        assert_eq!(stack_after(&[Inst::Lit(-5), Inst::ZeroLt]), vec![TRUE]);
    }

    #[test]
    fn unary_ops() {
        assert_eq!(stack_after(&[Inst::Lit(5), Inst::Negate]), vec![-5]);
        assert_eq!(stack_after(&[Inst::Lit(0), Inst::Invert]), vec![-1]);
        assert_eq!(stack_after(&[Inst::Lit(-5), Inst::Abs]), vec![5]);
        assert_eq!(stack_after(&[Inst::Lit(5), Inst::OnePlus]), vec![6]);
        assert_eq!(stack_after(&[Inst::Lit(5), Inst::OneMinus]), vec![4]);
        assert_eq!(stack_after(&[Inst::Lit(5), Inst::TwoStar]), vec![10]);
        assert_eq!(stack_after(&[Inst::Lit(-5), Inst::TwoSlash]), vec![-3]); // arithmetic shift
        assert_eq!(stack_after(&[Inst::Lit(8), Inst::CellPlus]), vec![16]);
        assert_eq!(stack_after(&[Inst::Lit(3), Inst::Cells]), vec![24]);
        assert_eq!(stack_after(&[Inst::Lit(3), Inst::CharPlus]), vec![4]);
    }

    #[test]
    fn shuffles() {
        assert_eq!(stack_after(&[Inst::Lit(1), Inst::Dup]), vec![1, 1]);
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::Drop]),
            vec![1]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::Swap]),
            vec![2, 1]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::Over]),
            vec![1, 2, 1]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::Lit(3), Inst::Rot]),
            vec![2, 3, 1]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::Lit(3), Inst::MinusRot]),
            vec![3, 1, 2]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::Nip]),
            vec![2]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::Tuck]),
            vec![2, 1, 2]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::TwoDup]),
            vec![1, 2, 1, 2]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::TwoDrop]),
            vec![]
        );
        assert_eq!(
            stack_after(&[
                Inst::Lit(1),
                Inst::Lit(2),
                Inst::Lit(3),
                Inst::Lit(4),
                Inst::TwoSwap
            ]),
            vec![3, 4, 1, 2]
        );
        assert_eq!(
            stack_after(&[
                Inst::Lit(1),
                Inst::Lit(2),
                Inst::Lit(3),
                Inst::Lit(4),
                Inst::TwoOver
            ]),
            vec![1, 2, 3, 4, 1, 2]
        );
        assert_eq!(stack_after(&[Inst::Lit(7), Inst::QDup]), vec![7, 7]);
        assert_eq!(stack_after(&[Inst::Lit(0), Inst::QDup]), vec![0]);
    }

    #[test]
    fn pick_and_depth() {
        assert_eq!(
            stack_after(&[
                Inst::Lit(10),
                Inst::Lit(20),
                Inst::Lit(30),
                Inst::Lit(2),
                Inst::Pick
            ]),
            vec![10, 20, 30, 10]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(10), Inst::Lit(20), Inst::Depth]),
            vec![10, 20, 2]
        );
    }

    #[test]
    fn pick_out_of_range_traps() {
        let p = program_of(&[Inst::Lit(1), Inst::Lit(5), Inst::Pick]);
        let mut m = Machine::with_memory(64);
        let err = run(&p, &mut m, 1000).unwrap_err();
        assert_eq!(err, VmError::PickOutOfRange { ip: 2, index: 5 });
    }

    #[test]
    fn return_stack_words() {
        assert_eq!(
            stack_after(&[Inst::Lit(7), Inst::ToR, Inst::FromR]),
            vec![7]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(7), Inst::ToR, Inst::RFetch, Inst::FromR]),
            vec![7, 7]
        );
        assert_eq!(
            stack_after(&[Inst::Lit(1), Inst::Lit(2), Inst::TwoToR, Inst::TwoFromR]),
            vec![1, 2]
        );
        assert_eq!(
            stack_after(&[
                Inst::Lit(1),
                Inst::Lit(2),
                Inst::TwoToR,
                Inst::TwoRFetch,
                Inst::TwoFromR
            ]),
            vec![1, 2, 1, 2]
        );
    }

    #[test]
    fn memory_words() {
        let m = run_insts(&[
            Inst::Lit(42),
            Inst::Lit(64),
            Inst::Store,
            Inst::Lit(64),
            Inst::Fetch,
            Inst::Lit(5),
            Inst::Lit(64),
            Inst::PlusStore,
            Inst::Lit(64),
            Inst::Fetch,
        ]);
        assert_eq!(m.stack(), &[42, 47]);

        let m = run_insts(&[
            Inst::Lit(300),
            Inst::Lit(10),
            Inst::CStore, // stores low byte 44
            Inst::Lit(10),
            Inst::CFetch,
        ]);
        assert_eq!(m.stack(), &[44]);
    }

    #[test]
    fn memory_oob_traps() {
        let p = program_of(&[Inst::Lit(1 << 40), Inst::Fetch]);
        let mut m = Machine::with_memory(64);
        let err = run(&p, &mut m, 1000).unwrap_err();
        assert!(matches!(err, VmError::MemoryOutOfBounds { ip: 1, .. }));
    }

    #[test]
    fn division_by_zero_traps() {
        let p = program_of(&[Inst::Lit(1), Inst::Lit(0), Inst::Div]);
        let mut m = Machine::with_memory(64);
        assert_eq!(
            run(&p, &mut m, 1000).unwrap_err(),
            VmError::DivisionByZero { ip: 2 }
        );
    }

    #[test]
    fn calls_and_returns() {
        // main: call square(3); halt.  square: dup *; exit
        let mut b = ProgramBuilder::new();
        let square = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(3));
        b.call(square);
        b.push(Inst::Halt);
        b.bind(square).unwrap();
        b.push(Inst::Dup);
        b.push(Inst::Mul);
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        let out = run(&p, &mut m, 1000).unwrap();
        assert_eq!(m.stack(), &[9]);
        assert_eq!(out.executed, 6);
        assert!(m.rstack().is_empty());
    }

    #[test]
    fn execute_calls_by_token() {
        let mut b = ProgramBuilder::new();
        let double = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(21));
        b.push(Inst::Lit(4)); // token: index of `double`
        b.push(Inst::Execute);
        b.push(Inst::Halt);
        b.bind(double).unwrap();
        assert_eq!(b.here(), 4);
        b.push(Inst::TwoStar);
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        run(&p, &mut m, 1000).unwrap();
        assert_eq!(m.stack(), &[42]);
    }

    #[test]
    fn invalid_execute_token_traps() {
        let p = program_of(&[Inst::Lit(-3), Inst::Execute]);
        let mut m = Machine::with_memory(64);
        assert_eq!(
            run(&p, &mut m, 1000).unwrap_err(),
            VmError::InvalidExecutionToken { ip: 1, token: -3 }
        );
    }

    #[test]
    fn do_loop_sums() {
        // : sum 0 5 0 do i + loop ;  => 0+1+2+3+4 = 10
        let mut b = ProgramBuilder::new();
        b.push(Inst::Lit(0));
        b.push(Inst::Lit(5));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::LoopI);
        b.push(Inst::Add);
        b.loop_inc(top);
        b.push(Inst::Halt);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        run(&p, &mut m, 1000).unwrap();
        assert_eq!(m.stack(), &[10]);
        assert!(m.rstack().is_empty());
    }

    #[test]
    fn qdo_skips_empty_range() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Lit(0));
        b.push(Inst::Lit(3));
        b.push(Inst::Lit(3));
        let out = b.new_label();
        b.qdo(out);
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::LoopI);
        b.push(Inst::Add);
        b.loop_inc(top);
        b.bind(out).unwrap();
        b.push(Inst::Halt);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        run(&p, &mut m, 1000).unwrap();
        assert_eq!(m.stack(), &[0]);
    }

    #[test]
    fn plus_loop_counts_by_two() {
        // 10 0 do i +loop-style: count iterations with step 2 => 5 iterations
        let mut b = ProgramBuilder::new();
        b.push(Inst::Lit(0)); // accumulator
        b.push(Inst::Lit(10));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::OnePlus);
        b.push(Inst::Lit(2));
        b.plus_loop_inc(top);
        b.push(Inst::Halt);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        run(&p, &mut m, 1000).unwrap();
        assert_eq!(m.stack(), &[5]);
    }

    #[test]
    fn nested_loops_and_j() {
        // for i in 0..3 { for j in 0..2 { acc += i*10 + j(inner i) } }
        // j word observes outer index.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Lit(0));
        b.push(Inst::Lit(3));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let outer = b.new_label();
        b.bind(outer).unwrap();
        b.push(Inst::Lit(2));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let inner = b.new_label();
        b.bind(inner).unwrap();
        b.push(Inst::LoopJ); // outer index
        b.push(Inst::Lit(10));
        b.push(Inst::Mul);
        b.push(Inst::LoopI); // inner index
        b.push(Inst::Add);
        b.push(Inst::Add);
        b.loop_inc(inner);
        b.loop_inc(outer);
        b.push(Inst::Halt);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        run(&p, &mut m, 10_000).unwrap();
        // sum over i in 0..3, j in 0..2 of (10*i + j) = 10*(0+0+10+10+20+20) err:
        // pairs: (0,0)=0 (0,1)=1 (1,0)=10 (1,1)=11 (2,0)=20 (2,1)=21 => 63
        assert_eq!(m.stack(), &[63]);
    }

    #[test]
    fn unloop_allows_early_exit() {
        // do-loop over 0..10 but exit at i==3 via unloop+return pattern
        let mut b = ProgramBuilder::new();
        let word = b.new_label();
        b.entry_here();
        b.call(word);
        b.push(Inst::Halt);
        b.bind(word).unwrap();
        b.push(Inst::Lit(10));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let top = b.new_label();
        let done = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::LoopI);
        b.push(Inst::Lit(3));
        b.push(Inst::Eq);
        b.branch_if_zero(done);
        b.push(Inst::LoopI);
        b.push(Inst::Unloop);
        b.push(Inst::Return);
        b.bind(done).unwrap();
        b.loop_inc(top);
        b.push(Inst::Lit(-1));
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        run(&p, &mut m, 10_000).unwrap();
        assert_eq!(m.stack(), &[3]);
        assert!(m.rstack().is_empty());
    }

    #[test]
    fn io_words() {
        let m = run_insts(&[
            Inst::Lit(72),
            Inst::Emit,
            Inst::Lit(105),
            Inst::Emit,
            Inst::Cr,
            Inst::Lit(-42),
            Inst::Dot,
        ]);
        assert_eq!(m.output_string(), "Hi\n-42 ");
    }

    #[test]
    fn type_prints_memory() {
        let mut m = Machine::with_memory(64);
        m.memory_mut()[10..15].copy_from_slice(b"hello");
        let p = program_of(&[Inst::Lit(10), Inst::Lit(5), Inst::Type]);
        run(&p, &mut m, 1000).unwrap();
        assert_eq!(m.output_string(), "hello");
    }

    #[test]
    fn fuel_exhaustion() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top).unwrap();
        b.branch(top);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        assert!(matches!(
            run(&p, &mut m, 100).unwrap_err(),
            VmError::FuelExhausted { .. }
        ));
    }

    #[test]
    fn underflow_traps() {
        let p = program_of(&[Inst::Add]);
        let mut m = Machine::with_memory(64);
        assert_eq!(
            run(&p, &mut m, 1000).unwrap_err(),
            VmError::StackUnderflow { ip: 0 }
        );

        let p = program_of(&[Inst::FromR]);
        let mut m = Machine::with_memory(64);
        assert_eq!(
            run(&p, &mut m, 1000).unwrap_err(),
            VmError::ReturnStackUnderflow { ip: 0 }
        );
    }

    #[test]
    fn observer_sees_resolved_effects() {
        struct Collect(Vec<ExecEvent>);
        impl ExecObserver for Collect {
            fn event(&mut self, ev: &ExecEvent) {
                self.0.push(*ev);
            }
        }
        let p = program_of(&[Inst::Lit(0), Inst::QDup, Inst::Lit(1), Inst::QDup]);
        let mut m = Machine::with_memory(64);
        let mut obs = Collect(Vec::new());
        run_with_observer(&p, &mut m, 1000, &mut obs).unwrap();
        assert_eq!(obs.0.len(), 5); // 4 + halt
        assert_eq!(obs.0[1].effect.kind, EffectKind::Shuffle(perm::QDUP_ZERO));
        assert_eq!(obs.0[1].effect.pushes, 1);
        assert_eq!(
            obs.0[3].effect.kind,
            EffectKind::Shuffle(perm::QDUP_NONZERO)
        );
        assert_eq!(obs.0[3].effect.pushes, 2);
    }

    #[test]
    fn observer_sees_branch_resolution() {
        struct Taken(Vec<bool>);
        impl ExecObserver for Taken {
            fn event(&mut self, ev: &ExecEvent) {
                if matches!(ev.effect.kind, EffectKind::CondBranch) {
                    self.0.push(ev.effect.taken);
                }
            }
        }
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.push(Inst::Lit(0));
        b.branch_if_zero(l); // taken
        b.bind(l).unwrap();
        b.push(Inst::Lit(5));
        let l2 = b.new_label();
        b.branch_if_zero(l2); // not taken
        b.bind(l2).unwrap();
        b.push(Inst::Halt);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        let mut obs = Taken(Vec::new());
        run_with_observer(&p, &mut m, 1000, &mut obs).unwrap();
        assert_eq!(obs.0, vec![true, false]);
    }

    #[test]
    fn observer_can_cancel_execution() {
        struct CancelAfter(u64);
        impl ExecObserver for CancelAfter {
            fn event(&mut self, _ev: &ExecEvent) {}
            fn poll_cancel(&mut self) -> bool {
                if self.0 == 0 {
                    return true;
                }
                self.0 -= 1;
                false
            }
        }
        // an infinite loop only the cancellation hook can stop
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::Nop);
        b.branch(top);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        let mut obs = CancelAfter(10);
        assert!(matches!(
            run_with_observer(&p, &mut m, u64::MAX, &mut obs).unwrap_err(),
            VmError::Cancelled { .. }
        ));
    }

    #[test]
    fn stack_limit_is_enforced() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::Lit(1));
        b.branch(top);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        m.stack_limit = 100;
        assert!(matches!(
            run(&p, &mut m, 10_000).unwrap_err(),
            VmError::StackOverflow { .. }
        ));
    }
}
