//! A virtual stack machine substrate for *Stack Caching for Interpreters*
//! (M. Anton Ertl, PLDI 1995).
//!
//! This crate provides everything the stack-caching machinery in
//! `stackcache-core` runs on:
//!
//! * a Forth-flavoured [instruction set](Inst) in which every instruction
//!   declares its [stack effect](Effect) — the paper's unit of analysis,
//! * [`Machine`] state (data stack, return stack, byte-addressable memory),
//! * [`Program`]s and a label-based [`ProgramBuilder`],
//! * a checked [reference interpreter](exec::run_with_observer) that streams
//!   per-instruction [`exec::ExecEvent`]s to instrumentation,
//! * a [verifier](verify()) and [control-flow graph](Cfg),
//! * the wall-clock [baseline](interp::run_baseline) and
//!   [top-of-stack](interp::run_tos) interpreters (Fig. 11 and Fig. 12),
//! * the [dispatch-technique micro-interpreters](dispatch) of Section 2.1.
//!
//! # Examples
//!
//! Build and run a small program:
//!
//! ```
//! use stackcache_vm::{exec, program_of, Inst, Machine};
//!
//! let program = program_of(&[Inst::Lit(6), Inst::Lit(7), Inst::Mul]);
//! let mut machine = Machine::new();
//! exec::run(&program, &mut machine, 1_000)?;
//! assert_eq!(machine.stack(), &[42]);
//! # Ok::<(), stackcache_vm::VmError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod asm;
mod checks;
pub mod depth;
pub mod dispatch;
mod error;
pub mod exec;
pub mod fold;
pub mod fusion;
mod inst;
pub mod interp;
mod machine;
pub mod peephole;
mod program;
pub mod rng;
mod sem;
pub mod stacks;
pub mod stepper;
mod verify;

pub use checks::Checks;
pub use error::VmError;
pub use exec::{ExecEvent, ExecObserver, Outcome, ResolvedEffect};
pub use fusion::{fuse, FusedProgram, FusedStats, FusionPlan, Quickened};
pub use inst::{flag, perm, Cell, Effect, EffectKind, Inst, CELL_BYTES, FALSE, TRUE};
pub use machine::{Machine, DEFAULT_MEMORY, DEFAULT_RSTACK_LIMIT, DEFAULT_STACK_LIMIT};
pub use program::{program_of, BuildError, Label, Program, ProgramBuilder};
pub use rng::Rng;
pub use verify::{verify, Block, Cfg, VerifyError};
