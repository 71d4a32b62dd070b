//! Mixed-mode execution driver: native blocks where possible, the
//! [`stackcache_vm::stepper`] interpreter everywhere else.
//!
//! The driver owns the dispatch loop. At each step it either calls one
//! compiled block (when `ip` is a block leader, the whole block fits in
//! the remaining fuel, and native code exists) or interprets a span.
//! Native blocks report back through a packed exit word
//! (`kind << 32 | ip`): *jump* (block completed, continue at `ip`),
//! *fallback* (deoptimize — re-enter the interpreter at `ip`, which
//! re-executes the instruction and materializes any trap exactly), or
//! *halt*.
//!
//! Fuel is exact: a block is only dispatched natively when all of its
//! instructions are affordable, completed blocks charge their full
//! instruction count, and a deoptimizing block charges only the
//! instructions that committed before the guard fired. Interpreted
//! spans charge per instruction — so `FuelExhausted` carries the same
//! ip the reference interpreter reports.

use crate::cache::{self, stats_counter, Stat};
use crate::compile::{JitProgram, KIND_FALLBACK, KIND_HALT, KIND_JUMP};
use stackcache_vm::interp::{run_baseline_with_checks, RunStats};
use stackcache_vm::stacks::FlatStacks;
use stackcache_vm::stepper::{run_span, SpanExit};
use stackcache_vm::{Checks, Machine, Program, VmError};

/// Spare output bytes guaranteed before each native entry: room for a
/// few `.`s, whose guard asks for 21 bytes (its longest output).
const OUTPUT_SLACK: usize = 64;

/// The native code's view of the machine, passed in `rdi`.
///
/// Field order and layout are load-bearing: the template compiler bakes
/// these offsets into emitted code (`compile::OFF_*`); a layout test
/// below pins them.
#[repr(C)]
#[derive(Debug)]
pub struct JitCtx {
    pub(crate) stack_ptr: *mut i64,
    pub(crate) sp: u64,
    pub(crate) stack_limit: u64,
    pub(crate) rstack_ptr: *mut i64,
    pub(crate) rsp: u64,
    pub(crate) rstack_limit: u64,
    pub(crate) mem_ptr: *mut u8,
    pub(crate) mem_len: u64,
    pub(crate) out_ptr: *mut u8,
    pub(crate) out_len: u64,
    pub(crate) out_cap: u64,
    pub(crate) fuel: u64,
    pub(crate) executed: u64,
}

/// Run `program` under the JIT with [`Checks::Full`].
///
/// # Errors
/// Exactly the [`VmError`]s of the reference interpreter.
pub fn run_jit(program: &Program, machine: &mut Machine, fuel: u64) -> Result<RunStats, VmError> {
    run_jit_with_checks(program, machine, fuel, Checks::Full)
}

/// Run `program` under the JIT at an explicit checks level, compiling
/// (or fetching) native blocks through the global block cache.
///
/// When native execution is unavailable — non-x86-64 host, mapping
/// failure, or the test hook — this degrades to the reference
/// interpreter with identical behavior and bumps `jit_fallbacks_total`;
/// it never errors for that reason.
///
/// # Errors
/// Exactly the [`VmError`]s of the reference interpreter.
pub fn run_jit_with_checks(
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<RunStats, VmError> {
    match cache::global().get_or_compile(program, checks) {
        Some(jp) => run_compiled(&jp, program, machine, fuel, checks),
        None => {
            stats_counter(Stat::Fallbacks).fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            run_baseline_with_checks(program, machine, fuel, checks)
        }
    }
}

/// Drive a pre-compiled [`JitProgram`] to completion.
///
/// # Errors
/// Exactly the [`VmError`]s of the reference interpreter.
#[allow(unused_mut, unused_variables)]
pub fn run_compiled(
    jp: &JitProgram,
    program: &Program,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<RunStats, VmError> {
    debug_assert_eq!(jp.checks(), checks);
    let mut st = FlatStacks::lease(machine, 0);
    let mut executed: u64 = 0;
    let mut ip = program.entry();

    loop {
        let block = jp.block_at(ip);
        let affordable = block.is_some_and(|b| {
            executed
                .checked_add((b.end - b.start) as u64)
                .is_some_and(|total| total <= fuel)
        });

        #[cfg(all(target_arch = "x86_64", unix))]
        if affordable {
            let b = block.expect("affordable implies block");
            // Native code cannot grow the buffer, and `.` asks for its
            // longest output: hand it spare room, so only a long native
            // stretch of output deopts to grow. One compare when there is.
            machine.reserve_output(OUTPUT_SLACK);
            let (out_ptr, out_len, out_cap) = machine.output_raw_parts();
            let mut ctx = JitCtx {
                stack_ptr: st.buf.as_mut_ptr(),
                sp: st.sp as u64,
                stack_limit: st.limit as u64,
                rstack_ptr: st.rbuf.as_mut_ptr(),
                rsp: st.rsp as u64,
                rstack_limit: st.rlimit as u64,
                mem_ptr: machine.memory_mut().as_mut_ptr(),
                mem_len: machine.memory_mut().len() as u64,
                out_ptr,
                out_len: out_len as u64,
                out_cap: out_cap as u64,
                fuel,
                executed,
            };
            let f = jp.entry(b);
            let word = f(&mut ctx);
            st.sp = ctx.sp as usize;
            st.rsp = ctx.rsp as usize;
            // SAFETY: native `emit`, `cr`, `.` and `type` only append
            // initialized bytes below the capacity they were handed.
            unsafe { machine.set_output_len(ctx.out_len as usize) };
            // Blocks chain natively (static branch targets jump block to
            // block without returning), so the exit may come from any
            // block — the native fuel gates keep `executed` exact: a
            // completed block charges its full length up front, a deopt
            // refunds the tail that never committed.
            executed = ctx.executed;

            let kind = word >> 32;
            let exit_ip = (word & 0xFFFF_FFFF) as usize;
            match kind {
                KIND_JUMP => ip = exit_ip,
                KIND_FALLBACK => {
                    stats_counter(Stat::Deopts).fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    jp.record_deopt(exit_ip, program.insts()[exit_ip]);
                    let stop = jp.block_end_containing(exit_ip);
                    match run_span(
                        program,
                        machine,
                        &mut st,
                        exit_ip,
                        stop,
                        fuel,
                        &mut executed,
                        checks,
                    )? {
                        SpanExit::Continue(next) => ip = next,
                        SpanExit::Halted => return Ok(RunStats { executed }),
                    }
                }
                _ => {
                    debug_assert_eq!(kind, KIND_HALT);
                    st.publish(machine);
                    return Ok(RunStats { executed });
                }
            }
            continue;
        }

        // Interpreter path: mid-block entry, fuel too short for the
        // block, or no native code for this target.
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
            SpanExit::Halted => return Ok(RunStats { executed }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{
        OFF_EXECUTED, OFF_FUEL, OFF_MEM_LEN, OFF_MEM_PTR, OFF_OUT_CAP, OFF_OUT_LEN, OFF_OUT_PTR,
        OFF_RSP, OFF_RSTACK_LIMIT, OFF_RSTACK_PTR, OFF_SP, OFF_STACK_LIMIT, OFF_STACK_PTR,
    };

    #[test]
    fn ctx_layout_matches_baked_offsets() {
        assert_eq!(
            std::mem::offset_of!(JitCtx, stack_ptr),
            OFF_STACK_PTR as usize
        );
        assert_eq!(std::mem::offset_of!(JitCtx, sp), OFF_SP as usize);
        assert_eq!(
            std::mem::offset_of!(JitCtx, stack_limit),
            OFF_STACK_LIMIT as usize
        );
        assert_eq!(
            std::mem::offset_of!(JitCtx, rstack_ptr),
            OFF_RSTACK_PTR as usize
        );
        assert_eq!(std::mem::offset_of!(JitCtx, rsp), OFF_RSP as usize);
        assert_eq!(
            std::mem::offset_of!(JitCtx, rstack_limit),
            OFF_RSTACK_LIMIT as usize
        );
        assert_eq!(std::mem::offset_of!(JitCtx, mem_ptr), OFF_MEM_PTR as usize);
        assert_eq!(std::mem::offset_of!(JitCtx, mem_len), OFF_MEM_LEN as usize);
        assert_eq!(std::mem::offset_of!(JitCtx, out_ptr), OFF_OUT_PTR as usize);
        assert_eq!(std::mem::offset_of!(JitCtx, out_len), OFF_OUT_LEN as usize);
        assert_eq!(std::mem::offset_of!(JitCtx, out_cap), OFF_OUT_CAP as usize);
        assert_eq!(std::mem::offset_of!(JitCtx, fuel), OFF_FUEL as usize);
        assert_eq!(
            std::mem::offset_of!(JitCtx, executed),
            OFF_EXECUTED as usize
        );
    }
}
