//! Template JIT: the paper's static cache states become machine
//! registers.
//!
//! The static regime of *Stack Caching for Interpreters* assigns every
//! instruction a `(cache state → cache state)` specialized
//! implementation and compiles pure stack shuffles to *nothing*. That
//! compile-time FSM is a template-JIT register allocator: this crate
//! runs it over each basic block and emits real x86-64, keeping the top
//! of the data stack in `r8`/`r9`/`r10` across the block.
//!
//! The design is deliberately interpreter-subordinate:
//!
//! * the [reference interpreter](stackcache_vm::interp) stays the
//!   oracle — native code **never materializes a trap**; every guard
//!   deoptimizes into [`stackcache_vm::stepper::run_span`], which
//!   re-executes the instruction and reproduces the exact
//!   [`stackcache_vm::VmError`] and partial state;
//! * fuel accounting is instruction-exact in both tiers;
//! * on non-x86-64 hosts or any `mmap` failure, [`run_jit`] degrades to
//!   the interpreter with zero behavioral difference (counted by
//!   `jit_fallbacks_total`);
//! * dropped depth checks (`Checks::None`) are only ever requested by
//!   callers holding an analysis-crate safety proof — native code has
//!   no safe-Rust panic net below that contract.
//!
//! Pipeline: [`asm`] (byte-buffer emitter) → [`state`] (cache-state
//! FSM) → [`compile`] (per-block templates + deopt stubs) → [`mem`]
//! (W^X executable pages) → [`cache`] (generation-keyed block cache) →
//! [`run`] (mixed-mode driver).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod asm;
pub mod cache;
pub mod compile;
pub mod mem;
pub mod run;
pub mod state;

pub use cache::{invalidate, stats, JitStats};
pub use compile::{block_bytes, BlockEntry, DeoptSite, JitProgram, DEOPT_SITES};
pub use mem::{force_unavailable, ExecBuf, MapError};
pub use run::{run_compiled, run_jit, run_jit_with_checks};
pub use state::{CacheState, CACHE_REGS, MAX_CACHED};

/// True when this host can execute JIT-compiled blocks at all.
///
/// Probes an actual mapping, so it also reflects the
/// [`force_unavailable`] test hook and genuine `mmap` failures.
#[must_use]
pub fn available() -> bool {
    ExecBuf::new(&[0xC3]).is_ok()
}
