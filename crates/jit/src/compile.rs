//! The basic-block template compiler.
//!
//! Each VM basic block becomes one native function. Inside a block the
//! paper's static cache-state FSM runs at *compile time*: the top of
//! the data stack migrates into machine registers ([`CacheState`]) and
//! pure stack shuffles (`swap`, `rot`, `nip`, …) emit **zero
//! instructions** — they permute the compile-time register list.
//!
//! # Register map
//!
//! | register      | role                                             |
//! |---------------|--------------------------------------------------|
//! | `rdi`         | `*mut JitCtx` (pinned, callee argument)          |
//! | `rbx`         | data-stack base pointer                          |
//! | `rsi`         | data-stack depth of the *in-memory* part (cells) |
//! | `r12`         | return-stack base pointer                        |
//! | `r13`         | return-stack depth (cells)                       |
//! | `r14`         | VM memory base pointer                           |
//! | `r15`         | VM memory length (bytes)                         |
//! | `r8 r9 r10`   | stack-cache registers (the [`CacheState`] pool)  |
//! | `rax rcx rdx r11` | template scratch                             |
//!
//! The block invariant: `logical stack = stack_mem[0..rsi] ++ regs`.
//!
//! # Template discipline
//!
//! Every template runs in three phases:
//!
//! 1. **fill** — bring operands into registers (each fill carries its
//!    own underflow guard under [`Checks::Full`]);
//! 2. **guard** — branch to a deoptimization stub on any condition the
//!    interpreter would trap on (or that native code cannot express,
//!    e.g. an output-buffer grow). Guards only *peek*; nothing logical
//!    has changed yet, so the stub can restore the interpreter state by
//!    flushing the current compile-time state and reporting the
//!    instruction's own ip. Guards may be conservative (a spurious
//!    fallback re-executes the instruction in the interpreter, which is
//!    always correct) but must never miss a condition the interpreter
//!    checks.
//! 3. **commit** — mutate registers, memory and the compile-time state.
//!
//! Traps therefore never materialize in native code: the stub returns
//! `(FALLBACK << 32) | ip` and the interpreter re-executes from `ip`,
//! reproducing the exact `VmError` (and exact partial state) the
//! reference implementation defines.

use crate::asm::{Asm, Cc, Label, Mem, Reg};
use crate::mem::{ExecBuf, MapError};
use crate::state::CacheState;
use stackcache_vm::{Checks, Inst, Program};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// `JitCtx` field offsets; pinned by a layout test in `run.rs`.
pub(crate) const OFF_STACK_PTR: i32 = 0;
pub(crate) const OFF_SP: i32 = 8;
pub(crate) const OFF_STACK_LIMIT: i32 = 16;
pub(crate) const OFF_RSTACK_PTR: i32 = 24;
pub(crate) const OFF_RSP: i32 = 32;
pub(crate) const OFF_RSTACK_LIMIT: i32 = 40;
pub(crate) const OFF_MEM_PTR: i32 = 48;
pub(crate) const OFF_MEM_LEN: i32 = 56;
pub(crate) const OFF_OUT_PTR: i32 = 64;
pub(crate) const OFF_OUT_LEN: i32 = 72;
pub(crate) const OFF_OUT_CAP: i32 = 80;
pub(crate) const OFF_FUEL: i32 = 88;
pub(crate) const OFF_EXECUTED: i32 = 96;

/// Exit-word kinds packed into bits 32.. of the native return value;
/// bits ..32 carry an instruction index.
pub(crate) const KIND_JUMP: u64 = 0;
pub(crate) const KIND_FALLBACK: u64 = 1;
pub(crate) const KIND_HALT: u64 = 2;

const CTX: Reg = Reg::Rdi;
const SBASE: Reg = Reg::Rbx;
const SP: Reg = Reg::Rsi;
const RBASE: Reg = Reg::R12;
const RSP: Reg = Reg::R13;
const MBASE: Reg = Reg::R14;
const MLEN: Reg = Reg::R15;
/// Executed-instruction counter, pinned so chained blocks charge fuel
/// without touching `JitCtx` memory.
const EXEC: Reg = Reg::Rbp;

/// One compiled basic block.
#[derive(Debug, Clone, Copy)]
pub struct BlockEntry {
    /// First instruction index (the block leader).
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Byte offset of the block's native entry point.
    pub offset: usize,
}

/// One deoptimization site of a [`JitProgram`]: the instruction whose
/// guard sent native code back to the interpreter, and how often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeoptSite {
    /// Instruction index the interpreter resumed at.
    pub ip: usize,
    /// The instruction at `ip`.
    pub inst: Inst,
    /// Deoptimizations recorded at `ip`.
    pub count: u64,
}

/// Distinct sites a [`JitProgram`] keeps; further sites only count
/// toward [`JitProgram::deopts`].
pub const DEOPT_SITES: usize = 32;

/// A whole program compiled to native blocks at one [`Checks`] level.
#[derive(Debug)]
pub struct JitProgram {
    buf: ExecBuf,
    /// Sorted by `start`; blocks tile the program.
    blocks: Vec<BlockEntry>,
    checks: Checks,
    /// Per-site deopt profile, at most [`DEOPT_SITES`] entries.
    sites: Mutex<Vec<DeoptSite>>,
    /// Every deopt of this program, profiled or not.
    deopts: AtomicU64,
}

impl JitProgram {
    /// Compile every basic block of `program`.
    ///
    /// # Errors
    /// [`MapError`] when executable memory is unavailable (wrong
    /// architecture, mmap failure, or the test hook) — callers degrade
    /// to the interpreter.
    pub fn compile(program: &Program, checks: Checks) -> Result<JitProgram, MapError> {
        if !cfg!(all(target_arch = "x86_64", unix)) {
            return Err(MapError::Unsupported);
        }
        let mut asm = Asm::new();
        let mut blocks = Vec::new();
        // Every block leader gets a *chain* label at its post-prologue
        // body, so static-target terminators jump block-to-block without
        // leaving native code (the cache state is empty at every block
        // boundary, so no adapter is needed).
        let spans = program.basic_blocks();
        let chain: ChainMap = spans
            .iter()
            .map(|&(start, _)| (start, asm.new_label()))
            .collect();
        // `return` chains through a table of chain offsets indexed by
        // instruction ip (0 = not a leader, exit to the driver).
        let base = asm.new_label();
        let table = asm.new_label();
        asm.bind(base);
        for &(start, end) in &spans {
            let offset = asm.here();
            compile_block(
                &mut asm,
                program,
                start,
                end,
                CacheState::empty(),
                checks,
                &chain,
                Some((base, table)),
            );
            blocks.push(BlockEntry { start, end, offset });
        }
        asm.bind(table);
        for ip in 0..=program.len() {
            match chain.get(&ip) {
                Some(&label) => asm.label_offset_u32(label),
                None => asm.zero_u32(),
            }
        }
        let code = asm.finish();
        let buf = ExecBuf::new(&code)?;
        Ok(JitProgram {
            buf,
            blocks,
            checks,
            sites: Mutex::new(Vec::new()),
            deopts: AtomicU64::new(0),
        })
    }

    /// The checks level this code was emitted for.
    #[must_use]
    pub fn checks(&self) -> Checks {
        self.checks
    }

    /// Count one deoptimization at `ip` (holding `inst`).
    pub(crate) fn record_deopt(&self, ip: usize, inst: Inst) {
        self.deopts.fetch_add(1, Ordering::Relaxed);
        let mut sites = self.sites.lock().expect("deopt profile poisoned");
        if let Some(site) = sites.iter_mut().find(|s| s.ip == ip) {
            site.count += 1;
        } else if sites.len() < DEOPT_SITES {
            sites.push(DeoptSite { ip, inst, count: 1 });
        }
    }

    /// Deoptimizations of this program since it was compiled.
    #[must_use]
    pub fn deopts(&self) -> u64 {
        self.deopts.load(Ordering::Relaxed)
    }

    /// The first [`DEOPT_SITES`] distinct deopt sites, in the order
    /// they first fired.
    #[must_use]
    pub fn deopt_sites(&self) -> Vec<DeoptSite> {
        self.sites.lock().expect("deopt profile poisoned").clone()
    }

    /// Look up the block whose leader is exactly `ip`.
    #[must_use]
    pub fn block_at(&self, ip: usize) -> Option<BlockEntry> {
        self.blocks
            .binary_search_by_key(&ip, |b| b.start)
            .ok()
            .map(|i| self.blocks[i])
    }

    /// Exclusive end of the block containing `ip` (not necessarily a
    /// leader), or `usize::MAX` when no block covers it — the stop
    /// boundary for an interpreter span after a deoptimization.
    #[must_use]
    pub fn block_end_containing(&self, ip: usize) -> usize {
        let i = self.blocks.partition_point(|b| b.start <= ip);
        match i.checked_sub(1).map(|i| self.blocks[i]) {
            Some(b) if ip < b.end => b.end,
            _ => usize::MAX,
        }
    }

    /// Native entry point for a compiled block.
    #[cfg(all(target_arch = "x86_64", unix))]
    #[must_use]
    pub(crate) fn entry(
        &self,
        block: BlockEntry,
    ) -> extern "sysv64" fn(*mut crate::run::JitCtx) -> u64 {
        self.buf.entry(block.offset)
    }

    /// Total emitted code size in bytes (page-rounded).
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.buf.len()
    }
}

/// Compile a single block to bytes with a given entry cache state —
/// the golden byte-image surface. The produced function assumes the top
/// `entry.depth()` stack cells are already in the entry state's
/// registers; the driver always uses the empty state, non-empty states
/// exist so tests can pin every template specialization.
#[must_use]
pub fn block_bytes(
    program: &Program,
    start: usize,
    end: usize,
    entry: CacheState,
    checks: Checks,
) -> Vec<u8> {
    let mut asm = Asm::new();
    compile_block(
        &mut asm,
        program,
        start,
        end,
        entry,
        checks,
        &ChainMap::new(),
        None,
    );
    asm.finish()
}

/// Block-leader ip → chain label (the block's post-prologue body).
type ChainMap = std::collections::HashMap<usize, Label>;

/// A deoptimization site: flush this state snapshot, refund the block
/// instructions that never ran, then exit with `(FALLBACK << 32) | ip`.
struct Stub {
    label: Label,
    state: CacheState,
    ip: usize,
}

struct BlockCompiler<'a> {
    asm: &'a mut Asm,
    checks: Checks,
    state: CacheState,
    epilogue: Label,
    stubs: Vec<Stub>,
    insts_len: usize,
    /// Chain labels for every block leader in the same buffer.
    targets: &'a ChainMap,
    /// `(buffer base, chain table)` labels for indirect `return`
    /// chaining; `None` on the single-block `block_bytes` surface.
    ret_table: Option<(Label, Label)>,
}

#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
#[allow(clippy::too_many_arguments)]
fn compile_block(
    asm: &mut Asm,
    program: &Program,
    start: usize,
    end: usize,
    entry: CacheState,
    checks: Checks,
    targets: &ChainMap,
    ret_table: Option<(Label, Label)>,
) {
    let epilogue = asm.new_label();
    let mut c = BlockCompiler {
        asm,
        checks,
        state: entry,
        epilogue,
        stubs: Vec::new(),
        insts_len: program.len(),
        targets,
        ret_table,
    };

    // Prologue: save callee-saved registers, load the pinned VM state.
    // Only the external (Rust → native) entry runs this; chained entries
    // land on the chain label below with the pinned registers live.
    c.asm.push(SBASE);
    c.asm.push(EXEC);
    c.asm.push(RBASE);
    c.asm.push(RSP);
    c.asm.push(MBASE);
    c.asm.push(MLEN);
    c.asm.mov_rm(SBASE, Mem::base(CTX, OFF_STACK_PTR));
    c.asm.mov_rm(SP, Mem::base(CTX, OFF_SP));
    c.asm.mov_rm(RBASE, Mem::base(CTX, OFF_RSTACK_PTR));
    c.asm.mov_rm(RSP, Mem::base(CTX, OFF_RSP));
    c.asm.mov_rm(MBASE, Mem::base(CTX, OFF_MEM_PTR));
    c.asm.mov_rm(MLEN, Mem::base(CTX, OFF_MEM_LEN));
    c.asm.mov_rm(EXEC, Mem::base(CTX, OFF_EXECUTED));
    if let Some(&label) = targets.get(&start) {
        c.asm.bind(label);
    }

    // Fuel gate: charge the whole block up front (into the pinned
    // counter), or bail to the driver with a *jump* exit at the leader
    // so the interpreter owns the instruction-exact `FuelExhausted`.
    // Deopt stubs refund the tail that never ran.
    let bail = c.asm.new_label();
    c.stubs.push(Stub {
        label: bail,
        state: c.state.clone(),
        ip: usize::MAX, // sentinel: emitted as a fuel bail, not a deopt
    });
    c.asm.lea(Reg::Rax, Mem::base(EXEC, (end - start) as i32));
    c.asm.cmp_rm(Reg::Rax, Mem::base(CTX, OFF_FUEL));
    c.asm.jcc(Cc::A, bail);
    c.asm.mov_rr(EXEC, Reg::Rax);

    let mut terminated = false;
    for ip in start..end {
        let inst = program.insts()[ip];
        if c.compile_inst(ip, inst) {
            terminated = true;
            break;
        }
    }
    if !terminated {
        // Fall through to the next leader.
        c.flush();
        c.exit_jump(end);
    }

    // Epilogue: publish depths and the fuel counter, restore, return
    // (rax set by the jumper).
    c.asm.bind(epilogue);
    c.asm.mov_mr(Mem::base(CTX, OFF_SP), SP);
    c.asm.mov_mr(Mem::base(CTX, OFF_RSP), RSP);
    c.asm.mov_mr(Mem::base(CTX, OFF_EXECUTED), EXEC);
    c.asm.pop(MLEN);
    c.asm.pop(MBASE);
    c.asm.pop(RSP);
    c.asm.pop(RBASE);
    c.asm.pop(EXEC);
    c.asm.pop(SBASE);
    c.asm.ret();

    // Deoptimization stubs: restore the interpreter-visible stack by
    // flushing the state as it was at the guard, refund the block tail
    // that never committed, then report the ip. The fuel-bail stub
    // (sentinel ip) flushes and reports a jump at the leader instead —
    // nothing was charged yet.
    for stub in std::mem::take(&mut c.stubs) {
        c.asm.bind(stub.label);
        flush_state(c.asm, &stub.state);
        if stub.ip == usize::MAX {
            c.asm
                .mov_ri(Reg::Rax, ((KIND_JUMP << 32) | start as u64) as i64);
        } else {
            let refund = (end - stub.ip) as i32;
            if refund > 0 {
                c.asm.sub_ri(EXEC, refund);
            }
            c.asm
                .mov_ri(Reg::Rax, ((KIND_FALLBACK << 32) | stub.ip as u64) as i64);
        }
        c.asm.jmp(epilogue);
    }
}

/// Emit stores for every cached cell (bottom first) and bump `rsi`.
fn flush_state(asm: &mut Asm, state: &CacheState) {
    for (i, &r) in state.regs().iter().enumerate() {
        asm.mov_mr(Mem::base_index8(SBASE, SP, 8 * i as i32), r);
    }
    let n = state.depth();
    if n > 0 {
        asm.add_ri(SP, n as i32);
    }
}

impl BlockCompiler<'_> {
    /// New deopt site at `ip` with the current state snapshot.
    fn stub(&mut self, ip: usize) -> Label {
        let label = self.asm.new_label();
        self.stubs.push(Stub {
            label,
            state: self.state.clone(),
            ip,
        });
        label
    }

    /// Spill the whole cache state to memory.
    fn flush(&mut self) {
        flush_state(self.asm, &self.state);
        while self.state.depth() > 0 {
            self.state.pop();
        }
    }

    /// Exit the block: continue at `ip`. When `ip` is a block leader in
    /// the same buffer, jump straight to its chain entry — the cache
    /// state is empty at every exit, so no adapter is needed and control
    /// never leaves native code. Otherwise return to the driver.
    fn exit_jump(&mut self, ip: usize) {
        if let Some(&label) = self.targets.get(&ip) {
            self.asm.jmp(label);
        } else {
            self.asm
                .mov_ri(Reg::Rax, ((KIND_JUMP << 32) | ip as u64) as i64);
            self.asm.jmp(self.epilogue);
        }
    }

    /// Exit the block to the instruction index in `rax` (`<= len`, so
    /// `rax` is already the packed jump word: `KIND_JUMP` is 0). Chain
    /// through the in-buffer offset table when the target is a leader;
    /// a zero entry means "exit to the driver".
    fn exit_indirect(&mut self) {
        if let Some((base, table)) = self.ret_table {
            self.asm.lea_rip(Reg::Rcx, table);
            self.asm
                .mov_r32m(Reg::Rdx, Mem::base_index4(Reg::Rcx, Reg::Rax, 0));
            self.asm.test_rr(Reg::Rdx, Reg::Rdx);
            self.asm.jcc(Cc::E, self.epilogue);
            self.asm.lea_rip(Reg::R11, base);
            self.asm.add_rr(Reg::R11, Reg::Rdx);
            self.asm.jmp_r(Reg::R11);
        } else {
            self.asm.jmp(self.epilogue);
        }
    }

    /// Bring one more cell from memory into the bottom of the cache.
    fn fill_one(&mut self, ip: usize) {
        let reg = self.state.free_reg().expect("fill with no free register");
        if self.checks == Checks::Full {
            let stub = self.stub(ip);
            self.asm.test_rr(SP, SP);
            self.asm.jcc(Cc::E, stub);
        }
        self.asm.mov_rm(reg, Mem::base_index8(SBASE, SP, -8));
        self.asm.sub_ri(SP, 1);
        self.state.fill_bottom(reg);
    }

    /// Ensure at least `n` cells are cached (`n <= MAX_CACHED`).
    fn fill_to(&mut self, n: usize, ip: usize) {
        while self.state.depth() < n {
            self.fill_one(ip);
        }
    }

    /// Allocate a register for a new TOS cell, spilling the bottom
    /// cached cell if the pool is full. The returned register's content
    /// is undefined; the caller must write it.
    fn push_reg(&mut self, _ip: usize) -> Reg {
        if let Some(r) = self.state.free_reg() {
            self.state.push(r);
            return r;
        }
        let bottom = self.state.spill_bottom();
        self.asm.mov_mr(Mem::base_index8(SBASE, SP, 0), bottom);
        self.asm.add_ri(SP, 1);
        self.state.push(bottom);
        bottom
    }

    /// Guard: the interpreter would overflow the data stack pushing
    /// `pushes` cells on top of the current logical depth.
    fn guard_overflow(&mut self, pushes: usize, ip: usize) {
        if self.checks == Checks::None {
            return;
        }
        let watermark = (self.state.depth() + pushes) as i32;
        let stub = self.stub(ip);
        self.asm.lea(Reg::Rax, Mem::base(SP, watermark));
        self.asm.cmp_rm(Reg::Rax, Mem::base(CTX, OFF_STACK_LIMIT));
        self.asm.jcc(Cc::A, stub);
    }

    /// Guard: return-stack overflow pushing `pushes` cells.
    fn guard_roverflow(&mut self, pushes: usize, ip: usize) {
        if self.checks == Checks::None {
            return;
        }
        let stub = self.stub(ip);
        self.asm.lea(Reg::Rax, Mem::base(RSP, pushes as i32));
        self.asm.cmp_rm(Reg::Rax, Mem::base(CTX, OFF_RSTACK_LIMIT));
        self.asm.jcc(Cc::A, stub);
    }

    /// Guard: return-stack underflow popping/peeking `n` cells.
    fn guard_runderflow(&mut self, n: usize, ip: usize) {
        if self.checks != Checks::Full {
            return;
        }
        let stub = self.stub(ip);
        self.asm.cmp_ri(RSP, n as i32);
        self.asm.jcc(Cc::B, stub);
    }

    /// Guard: the in-memory stack holds fewer than `n` cells (used by
    /// flush-based templates needing more operands than the pool).
    fn guard_mem_underflow(&mut self, n: usize, ip: usize) {
        if self.checks != Checks::Full {
            return;
        }
        let stub = self.stub(ip);
        self.asm.cmp_ri(SP, n as i32);
        self.asm.jcc(Cc::B, stub);
    }

    /// Guard: `addr` (unsigned-compared) is not a valid cell address.
    /// Matches `Machine::load_cell`: trap iff `addr < 0` or
    /// `addr + 8 > mem_len`. Valid at every checks level — memory
    /// bounds are not depth checks.
    fn guard_cell_addr(&mut self, addr: Reg, ip: usize) {
        let stub = self.stub(ip);
        // addr as unsigned >= len catches negatives outright…
        self.asm.cmp_rr(addr, MLEN);
        self.asm.jcc(Cc::Ae, stub);
        // …so addr < len here and addr+8 cannot wrap.
        self.asm.lea(Reg::Rax, Mem::base(addr, 8));
        self.asm.cmp_rr(Reg::Rax, MLEN);
        self.asm.jcc(Cc::A, stub);
    }

    /// Guard: the output buffer lacks room. Loads the output length into
    /// `rax`, evaluates `end` (an address expression over `rax`: the
    /// length after the write) into `r11`, and exits to `stub` when it
    /// exceeds the capacity — only Rust can grow the buffer. `rax`
    /// still holds the length afterwards.
    fn guard_out_room(&mut self, end: Mem, stub: Label) {
        self.asm.mov_rm(Reg::Rax, Mem::base(CTX, OFF_OUT_LEN));
        self.asm.lea(Reg::R11, end);
        self.asm.cmp_rm(Reg::R11, Mem::base(CTX, OFF_OUT_CAP));
        self.asm.jcc(Cc::A, stub);
    }

    /// Guard: `addr` is not a valid byte address.
    fn guard_byte_addr(&mut self, addr: Reg, ip: usize) {
        let stub = self.stub(ip);
        self.asm.cmp_rr(addr, MLEN);
        self.asm.jcc(Cc::Ae, stub);
    }

    // ---- template families ----

    /// Binary ALU op: `[.. a b] -> [.. f(a,b)]`.
    fn binop(&mut self, ip: usize, f: impl FnOnce(&mut Asm, Reg, Reg)) {
        self.fill_to(2, ip);
        let b = self.state.from_top(0);
        let a = self.state.from_top(1);
        f(self.asm, a, b);
        self.state.pop();
    }

    /// Unary ALU op on TOS in place.
    fn unop(&mut self, ip: usize, f: impl FnOnce(&mut Asm, Reg)) {
        self.fill_to(1, ip);
        let a = self.state.from_top(0);
        f(self.asm, a);
    }

    /// Comparison producing a Forth flag (-1 / 0).
    fn cmp_flag(&mut self, ip: usize, cc: Cc) {
        self.fill_to(2, ip);
        let b = self.state.from_top(0);
        let a = self.state.from_top(1);
        self.asm.cmp_rr(a, b);
        self.asm.setcc(cc, Reg::R11);
        self.asm.movzx_rr8(Reg::R11, Reg::R11);
        self.asm.neg(Reg::R11);
        self.asm.mov_rr(a, Reg::R11);
        self.state.pop();
    }

    /// Comparison of TOS against zero.
    fn zero_flag(&mut self, ip: usize, cc: Cc) {
        self.fill_to(1, ip);
        let a = self.state.from_top(0);
        self.asm.cmp_ri(a, 0);
        self.asm.setcc(cc, Reg::R11);
        self.asm.movzx_rr8(Reg::R11, Reg::R11);
        self.asm.neg(Reg::R11);
        self.asm.mov_rr(a, Reg::R11);
    }

    /// `div`/`mod` front half: fill, division guards, `idiv` leaving
    /// quotient in rax, remainder in rdx; returns `(a, b)` registers.
    fn div_common(&mut self, ip: usize) -> (Reg, Reg) {
        self.fill_to(2, ip);
        let b = self.state.from_top(0);
        let a = self.state.from_top(1);
        // b == 0 → DivisionByZero in the interpreter.
        let zero = self.stub(ip);
        self.asm.test_rr(b, b);
        self.asm.jcc(Cc::E, zero);
        // i64::MIN / -1 faults in hardware; the interpreter wraps it
        // (MIN, remainder 0) — deoptimize and let the interpreter own it.
        let minover = self.stub(ip);
        let ok = self.asm.new_label();
        self.asm.mov_ri(Reg::R11, i64::MIN);
        self.asm.cmp_rr(a, Reg::R11);
        self.asm.jcc(Cc::Ne, ok);
        self.asm.cmp_ri(b, -1);
        self.asm.jcc(Cc::E, minover);
        self.asm.bind(ok);
        self.asm.mov_rr(Reg::Rax, a);
        self.asm.cqo();
        self.asm.idiv(b);
        (a, b)
    }

    /// Compile one instruction; returns true when the block ends here.
    #[allow(clippy::too_many_lines)]
    fn compile_inst(&mut self, ip: usize, inst: Inst) -> bool {
        match inst {
            Inst::Lit(n) => {
                self.guard_overflow(1, ip);
                let d = self.push_reg(ip);
                self.asm.mov_ri(d, n);
            }
            Inst::Add => self.binop(ip, |a, x, y| a.add_rr(x, y)),
            Inst::Sub => self.binop(ip, |a, x, y| a.sub_rr(x, y)),
            Inst::Mul => self.binop(ip, |a, x, y| a.imul_rr(x, y)),
            Inst::And => self.binop(ip, |a, x, y| a.and_rr(x, y)),
            Inst::Or => self.binop(ip, |a, x, y| a.or_rr(x, y)),
            Inst::Xor => self.binop(ip, |a, x, y| a.xor_rr(x, y)),
            Inst::Min => self.binop(ip, |a, x, y| {
                a.cmp_rr(x, y);
                a.cmovcc(Cc::G, x, y);
            }),
            Inst::Max => self.binop(ip, |a, x, y| {
                a.cmp_rr(x, y);
                a.cmovcc(Cc::L, x, y);
            }),
            Inst::Lshift => self.binop(ip, |a, x, y| {
                a.mov_rr(Reg::Rcx, y);
                a.shl_cl(x); // hardware masks cl & 63 — the VM's rule
            }),
            Inst::Rshift => self.binop(ip, |a, x, y| {
                a.mov_rr(Reg::Rcx, y);
                a.shr_cl(x);
            }),
            Inst::Div => {
                let (a, b) = self.div_common(ip);
                // Truncated → euclidean quotient: remainder < 0 means
                // step one toward -inf (sign of b decides direction).
                let done = self.asm.new_label();
                let bneg = self.asm.new_label();
                self.asm.test_rr(Reg::Rdx, Reg::Rdx);
                self.asm.jcc(Cc::Ns, done);
                self.asm.test_rr(b, b);
                self.asm.jcc(Cc::S, bneg);
                self.asm.sub_ri(Reg::Rax, 1);
                self.asm.jmp(done);
                self.asm.bind(bneg);
                self.asm.add_ri(Reg::Rax, 1);
                self.asm.bind(done);
                self.asm.mov_rr(a, Reg::Rax);
                self.state.pop();
            }
            Inst::Mod => {
                let (a, b) = self.div_common(ip);
                // Truncated → euclidean remainder: add |b| when negative.
                let done = self.asm.new_label();
                let bneg = self.asm.new_label();
                self.asm.test_rr(Reg::Rdx, Reg::Rdx);
                self.asm.jcc(Cc::Ns, done);
                self.asm.test_rr(b, b);
                self.asm.jcc(Cc::S, bneg);
                self.asm.add_rr(Reg::Rdx, b);
                self.asm.jmp(done);
                self.asm.bind(bneg);
                self.asm.sub_rr(Reg::Rdx, b);
                self.asm.bind(done);
                self.asm.mov_rr(a, Reg::Rdx);
                self.state.pop();
            }
            Inst::Eq => self.cmp_flag(ip, Cc::E),
            Inst::Ne => self.cmp_flag(ip, Cc::Ne),
            Inst::Lt => self.cmp_flag(ip, Cc::L),
            Inst::Gt => self.cmp_flag(ip, Cc::G),
            Inst::Le => self.cmp_flag(ip, Cc::Le),
            Inst::Ge => self.cmp_flag(ip, Cc::Ge),
            Inst::ULt => self.cmp_flag(ip, Cc::B),
            Inst::UGt => self.cmp_flag(ip, Cc::A),
            Inst::ZeroEq => self.zero_flag(ip, Cc::E),
            Inst::ZeroNe => self.zero_flag(ip, Cc::Ne),
            Inst::ZeroLt => self.zero_flag(ip, Cc::L),
            Inst::ZeroGt => self.zero_flag(ip, Cc::G),
            Inst::Negate => self.unop(ip, Asm::neg),
            Inst::Invert => self.unop(ip, Asm::not),
            Inst::Abs => self.unop(ip, |a, x| {
                // branchless wrapping abs (MIN stays MIN, like the VM)
                a.mov_rr(Reg::R11, x);
                a.sar_i(Reg::R11, 63);
                a.xor_rr(x, Reg::R11);
                a.sub_rr(x, Reg::R11);
            }),
            Inst::OnePlus | Inst::CharPlus => self.unop(ip, |a, x| a.add_ri(x, 1)),
            Inst::OneMinus => self.unop(ip, |a, x| a.sub_ri(x, 1)),
            Inst::TwoStar => self.unop(ip, |a, x| a.add_rr(x, x)),
            Inst::TwoSlash => self.unop(ip, |a, x| a.sar_i(x, 1)),
            Inst::CellPlus => self.unop(ip, |a, x| a.add_ri(x, 8)),
            Inst::Cells => self.unop(ip, |a, x| a.shl_i(x, 3)),

            // ---- shuffles: the compile-time FSM at work ----
            Inst::Dup => {
                self.fill_to(1, ip);
                self.guard_overflow(1, ip);
                let top = self.state.from_top(0);
                let d = self.push_reg(ip);
                self.asm.mov_rr(d, top);
            }
            Inst::Drop => {
                self.fill_to(1, ip);
                self.state.pop();
            }
            Inst::Swap => {
                self.fill_to(2, ip);
                self.state.permute_top(&[1, 0]); // zero instructions
            }
            Inst::Rot => {
                self.fill_to(3, ip);
                self.state.permute_top(&[2, 0, 1]); // zero instructions
            }
            Inst::MinusRot => {
                self.fill_to(3, ip);
                self.state.permute_top(&[1, 2, 0]); // zero instructions
            }
            Inst::Nip => {
                self.fill_to(2, ip);
                self.state.remove_from_top(1); // zero instructions
            }
            Inst::Over => {
                self.fill_to(2, ip);
                self.guard_overflow(1, ip);
                let second = self.state.from_top(1);
                let d = self.push_reg(ip);
                self.asm.mov_rr(d, second);
            }
            Inst::Tuck => {
                self.fill_to(2, ip);
                self.guard_overflow(1, ip);
                self.state.permute_top(&[1, 0]);
                let b = self.state.from_top(1); // original TOS, now deeper
                let d = self.push_reg(ip);
                self.asm.mov_rr(d, b);
            }
            Inst::TwoDup => {
                self.fill_to(2, ip);
                self.guard_overflow(2, ip);
                let a = self.state.from_top(1);
                let d1 = self.push_reg(ip);
                self.asm.mov_rr(d1, a);
                let b = self.state.from_top(1); // original TOS
                let d2 = self.push_reg(ip);
                self.asm.mov_rr(d2, b);
            }
            Inst::TwoDrop => {
                self.fill_to(2, ip);
                self.state.pop();
                self.state.pop();
            }
            Inst::TwoSwap => {
                // Four operands exceed the pool: run from memory.
                self.flush();
                self.guard_mem_underflow(4, ip);
                self.asm.mov_rm(Reg::Rax, Mem::base_index8(SBASE, SP, -32));
                self.asm.mov_rm(Reg::Rcx, Mem::base_index8(SBASE, SP, -16));
                self.asm.mov_mr(Mem::base_index8(SBASE, SP, -32), Reg::Rcx);
                self.asm.mov_mr(Mem::base_index8(SBASE, SP, -16), Reg::Rax);
                self.asm.mov_rm(Reg::Rax, Mem::base_index8(SBASE, SP, -24));
                self.asm.mov_rm(Reg::Rcx, Mem::base_index8(SBASE, SP, -8));
                self.asm.mov_mr(Mem::base_index8(SBASE, SP, -24), Reg::Rcx);
                self.asm.mov_mr(Mem::base_index8(SBASE, SP, -8), Reg::Rax);
            }
            Inst::TwoOver => {
                self.flush();
                self.guard_mem_underflow(4, ip);
                self.guard_overflow(2, ip);
                self.asm.mov_rm(Reg::Rax, Mem::base_index8(SBASE, SP, -32));
                self.asm.mov_mr(Mem::base_index8(SBASE, SP, 0), Reg::Rax);
                self.asm.mov_rm(Reg::Rax, Mem::base_index8(SBASE, SP, -24));
                self.asm.mov_mr(Mem::base_index8(SBASE, SP, 8), Reg::Rax);
                self.asm.add_ri(SP, 2);
            }
            Inst::QDup => {
                // The two runtime outcomes leave different cache depths,
                // so converge through memory: both paths end state-empty.
                self.flush();
                self.guard_mem_underflow(1, ip);
                let skip = self.asm.new_label();
                self.asm.mov_rm(Reg::Rax, Mem::base_index8(SBASE, SP, -8));
                self.asm.test_rr(Reg::Rax, Reg::Rax);
                self.asm.jcc(Cc::E, skip);
                if self.checks != Checks::None {
                    let stub = self.stub(ip);
                    self.asm.cmp_rm(SP, Mem::base(CTX, OFF_STACK_LIMIT));
                    self.asm.jcc(Cc::Ae, stub);
                }
                self.asm.mov_mr(Mem::base_index8(SBASE, SP, 0), Reg::Rax);
                self.asm.add_ri(SP, 1);
                self.asm.bind(skip);
            }
            Inst::Pick => {
                self.flush();
                self.guard_mem_underflow(1, ip);
                // u = TOS (peek); trap unless 0 <= u < depth-after-pop.
                // This range check is the interpreter's own and fires at
                // every checks level.
                self.asm.mov_rm(Reg::Rax, Mem::base_index8(SBASE, SP, -8));
                let stub = self.stub(ip);
                self.asm.lea(Reg::R11, Mem::base(SP, -1));
                self.asm.cmp_rr(Reg::Rax, Reg::R11);
                self.asm.jcc(Cc::Ae, stub);
                // v = buf[(sp-1) - 1 - u]; pop u, push v — net zero.
                self.asm.mov_rr(Reg::Rcx, SP);
                self.asm.sub_rr(Reg::Rcx, Reg::Rax);
                self.asm
                    .mov_rm(Reg::R11, Mem::base_index8(SBASE, Reg::Rcx, -16));
                self.asm.mov_mr(Mem::base_index8(SBASE, SP, -8), Reg::R11);
            }
            Inst::Depth => {
                self.guard_overflow(1, ip);
                // Total depth before any spill push_reg might do.
                self.asm
                    .lea(Reg::R11, Mem::base(SP, self.state.depth() as i32));
                let d = self.push_reg(ip);
                self.asm.mov_rr(d, Reg::R11);
            }

            // ---- return stack ----
            Inst::ToR => {
                self.fill_to(1, ip);
                self.guard_roverflow(1, ip);
                let a = self.state.from_top(0);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, 0), a);
                self.asm.add_ri(RSP, 1);
                self.state.pop();
            }
            Inst::FromR => {
                self.guard_runderflow(1, ip);
                self.guard_overflow(1, ip);
                let d = self.push_reg(ip);
                self.asm.mov_rm(d, Mem::base_index8(RBASE, RSP, -8));
                self.asm.sub_ri(RSP, 1);
            }
            Inst::RFetch => {
                self.guard_runderflow(1, ip);
                self.guard_overflow(1, ip);
                let d = self.push_reg(ip);
                self.asm.mov_rm(d, Mem::base_index8(RBASE, RSP, -8));
            }
            Inst::TwoToR => {
                self.fill_to(2, ip);
                self.guard_roverflow(2, ip);
                let b = self.state.from_top(0);
                let a = self.state.from_top(1);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, 0), a);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, 8), b);
                self.asm.add_ri(RSP, 2);
                self.state.pop();
                self.state.pop();
            }
            Inst::TwoFromR => {
                self.guard_runderflow(2, ip);
                self.guard_overflow(2, ip);
                let d1 = self.push_reg(ip);
                self.asm.mov_rm(d1, Mem::base_index8(RBASE, RSP, -16));
                let d2 = self.push_reg(ip);
                self.asm.mov_rm(d2, Mem::base_index8(RBASE, RSP, -8));
                self.asm.sub_ri(RSP, 2);
            }
            Inst::TwoRFetch => {
                self.guard_runderflow(2, ip);
                self.guard_overflow(2, ip);
                let d1 = self.push_reg(ip);
                self.asm.mov_rm(d1, Mem::base_index8(RBASE, RSP, -16));
                let d2 = self.push_reg(ip);
                self.asm.mov_rm(d2, Mem::base_index8(RBASE, RSP, -8));
            }
            Inst::LoopI => {
                self.guard_runderflow(1, ip);
                self.guard_overflow(1, ip);
                let d = self.push_reg(ip);
                self.asm.mov_rm(d, Mem::base_index8(RBASE, RSP, -8));
            }
            Inst::LoopJ => {
                self.guard_runderflow(4, ip);
                self.guard_overflow(1, ip);
                let d = self.push_reg(ip);
                self.asm.mov_rm(d, Mem::base_index8(RBASE, RSP, -24));
            }
            Inst::Unloop => {
                self.guard_runderflow(2, ip);
                self.asm.sub_ri(RSP, 2);
            }
            Inst::DoSetup => {
                self.fill_to(2, ip);
                self.guard_roverflow(2, ip);
                let start = self.state.from_top(0);
                let limit = self.state.from_top(1);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, 0), limit);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, 8), start);
                self.asm.add_ri(RSP, 2);
                self.state.pop();
                self.state.pop();
            }

            // ---- memory ----
            Inst::Fetch => {
                self.fill_to(1, ip);
                let a = self.state.from_top(0);
                self.guard_cell_addr(a, ip);
                self.asm.mov_rm(a, Mem::base_index1(MBASE, a, 0));
            }
            Inst::CFetch => {
                self.fill_to(1, ip);
                let a = self.state.from_top(0);
                self.guard_byte_addr(a, ip);
                self.asm.movzx_rm8(a, Mem::base_index1(MBASE, a, 0));
            }
            Inst::Store => {
                self.fill_to(2, ip);
                let addr = self.state.from_top(0);
                let x = self.state.from_top(1);
                self.guard_cell_addr(addr, ip);
                self.asm.mov_mr(Mem::base_index1(MBASE, addr, 0), x);
                self.state.pop();
                self.state.pop();
            }
            Inst::CStore => {
                self.fill_to(2, ip);
                let addr = self.state.from_top(0);
                let x = self.state.from_top(1);
                self.guard_byte_addr(addr, ip);
                self.asm.mov_m8r(Mem::base_index1(MBASE, addr, 0), x);
                self.state.pop();
                self.state.pop();
            }
            Inst::PlusStore => {
                self.fill_to(2, ip);
                let addr = self.state.from_top(0);
                let n = self.state.from_top(1);
                self.guard_cell_addr(addr, ip);
                self.asm.mov_rm(Reg::Rax, Mem::base_index1(MBASE, addr, 0));
                self.asm.add_rr(Reg::Rax, n);
                self.asm.mov_mr(Mem::base_index1(MBASE, addr, 0), Reg::Rax);
                self.state.pop();
                self.state.pop();
            }

            // ---- output ----
            Inst::Emit => {
                self.fill_to(1, ip);
                let c = self.state.from_top(0);
                // A full output Vec must grow — only Rust can do that.
                let stub = self.stub(ip);
                self.asm.mov_rm(Reg::Rax, Mem::base(CTX, OFF_OUT_LEN));
                self.asm.cmp_rm(Reg::Rax, Mem::base(CTX, OFF_OUT_CAP));
                self.asm.jcc(Cc::Ae, stub);
                self.asm.mov_rm(Reg::Rcx, Mem::base(CTX, OFF_OUT_PTR));
                self.asm.mov_m8r(Mem::base_index1(Reg::Rcx, Reg::Rax, 0), c);
                self.asm.add_ri(Reg::Rax, 1);
                self.asm.mov_mr(Mem::base(CTX, OFF_OUT_LEN), Reg::Rax);
                self.state.pop();
            }
            Inst::Cr => {
                let stub = self.stub(ip);
                self.asm.mov_rm(Reg::Rax, Mem::base(CTX, OFF_OUT_LEN));
                self.asm.cmp_rm(Reg::Rax, Mem::base(CTX, OFF_OUT_CAP));
                self.asm.jcc(Cc::Ae, stub);
                self.asm.mov_rm(Reg::Rcx, Mem::base(CTX, OFF_OUT_PTR));
                self.asm
                    .mov_m8i(Mem::base_index1(Reg::Rcx, Reg::Rax, 0), b'\n');
                self.asm.add_ri(Reg::Rax, 1);
                self.asm.mov_mr(Mem::base(CTX, OFF_OUT_LEN), Reg::Rax);
            }

            Inst::Dot => {
                self.fill_to(1, ip);
                let n = self.state.from_top(0);
                // MIN has no positive twin to format from; `.` writes at
                // most 21 bytes ('-', 19 digits, ' ') into spare capacity.
                let stub = self.stub(ip);
                self.asm.mov_ri(Reg::R11, i64::MIN);
                self.asm.cmp_rr(n, Reg::R11);
                self.asm.jcc(Cc::E, stub);
                self.guard_out_room(Mem::base(Reg::Rax, 21), stub);
                self.state.pop();
                // rcx = write cursor, rax = |n|; `n`'s register counts
                // the digits pushed (least significant first) on the
                // native stack.
                self.asm.mov_rm(Reg::Rcx, Mem::base(CTX, OFF_OUT_PTR));
                self.asm.add_rr(Reg::Rcx, Reg::Rax);
                self.asm.mov_rr(Reg::Rax, n);
                let positive = self.asm.new_label();
                self.asm.test_rr(Reg::Rax, Reg::Rax);
                self.asm.jcc(Cc::Ns, positive);
                self.asm.mov_m8i(Mem::base(Reg::Rcx, 0), b'-');
                self.asm.add_ri(Reg::Rcx, 1);
                self.asm.neg(Reg::Rax);
                self.asm.bind(positive);
                self.asm.mov_ri(Reg::R11, 10);
                self.asm.mov_ri(n, 0);
                let digit = self.asm.new_label();
                self.asm.bind(digit);
                self.asm.cqo();
                self.asm.idiv(Reg::R11);
                self.asm.push(Reg::Rdx);
                self.asm.add_ri(n, 1);
                self.asm.test_rr(Reg::Rax, Reg::Rax);
                self.asm.jcc(Cc::Ne, digit);
                let write = self.asm.new_label();
                self.asm.bind(write);
                self.asm.pop(Reg::Rax);
                self.asm.add_ri(Reg::Rax, i32::from(b'0'));
                self.asm.mov_m8r(Mem::base(Reg::Rcx, 0), Reg::Rax);
                self.asm.add_ri(Reg::Rcx, 1);
                self.asm.sub_ri(n, 1);
                self.asm.jcc(Cc::Ne, write);
                self.asm.mov_m8i(Mem::base(Reg::Rcx, 0), b' ');
                self.asm.add_ri(Reg::Rcx, 1);
                self.asm.mov_rm(Reg::Rax, Mem::base(CTX, OFF_OUT_PTR));
                self.asm.sub_rr(Reg::Rcx, Reg::Rax);
                self.asm.mov_mr(Mem::base(CTX, OFF_OUT_LEN), Reg::Rcx);
            }
            Inst::Type => {
                self.fill_to(2, ip);
                let len = self.state.from_top(0);
                let addr = self.state.from_top(1);
                // An empty range reads nothing, wherever it points.
                let stub = self.stub(ip);
                let done = self.asm.new_label();
                self.asm.test_rr(len, len);
                self.asm.jcc(Cc::S, stub);
                self.asm.jcc(Cc::E, done);
                // [addr, addr+len) inside memory: addr <=u len(mem)
                // (negatives fail) and len <= len(mem) - addr.
                self.asm.cmp_rr(addr, MLEN);
                self.asm.jcc(Cc::A, stub);
                self.asm.mov_rr(Reg::R11, MLEN);
                self.asm.sub_rr(Reg::R11, addr);
                self.asm.cmp_rr(len, Reg::R11);
                self.asm.jcc(Cc::A, stub);
                self.guard_out_room(Mem::base_index1(Reg::Rax, len, 0), stub);
                // Commit: publish the new length, then copy byte by byte
                // from `mem + addr` to `out + old length`.
                self.asm.mov_rm(Reg::Rcx, Mem::base(CTX, OFF_OUT_PTR));
                self.asm.add_rr(Reg::Rcx, Reg::Rax);
                self.asm.add_rr(Reg::Rax, len);
                self.asm.mov_mr(Mem::base(CTX, OFF_OUT_LEN), Reg::Rax);
                let copy = self.asm.new_label();
                self.asm.bind(copy);
                self.asm
                    .movzx_rm8(Reg::Rdx, Mem::base_index1(MBASE, addr, 0));
                self.asm.mov_m8r(Mem::base(Reg::Rcx, 0), Reg::Rdx);
                self.asm.add_ri(addr, 1);
                self.asm.add_ri(Reg::Rcx, 1);
                self.asm.sub_ri(len, 1);
                self.asm.jcc(Cc::Ne, copy);
                self.asm.bind(done);
                self.state.pop();
                self.state.pop();
            }

            Inst::Nop => {}

            // ---- terminators ----
            Inst::Branch(t) => {
                self.flush();
                self.exit_jump(t as usize);
                return true;
            }
            Inst::BranchIfZero(t) => {
                self.fill_to(1, ip);
                let f = self.state.pop();
                self.flush();
                let not_taken = self.asm.new_label();
                self.asm.test_rr(f, f);
                self.asm.jcc(Cc::Ne, not_taken);
                self.exit_jump(t as usize);
                self.asm.bind(not_taken);
                self.exit_jump(ip + 1);
                return true;
            }
            Inst::Call(t) => {
                self.guard_roverflow(1, ip);
                self.flush();
                self.asm.mov_ri(Reg::R11, (ip + 1) as i64);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, 0), Reg::R11);
                self.asm.add_ri(RSP, 1);
                self.exit_jump(t as usize);
                return true;
            }
            Inst::Return => {
                self.guard_runderflow(1, ip);
                self.asm.mov_rm(Reg::Rax, Mem::base_index8(RBASE, RSP, -8));
                // ret < 0 or ret > len → InstructionOutOfBounds{ip: ret};
                // one unsigned compare covers both.
                let stub = self.stub(ip);
                self.asm.mov_ri(Reg::R11, self.insts_len as i64);
                self.asm.cmp_rr(Reg::Rax, Reg::R11);
                self.asm.jcc(Cc::A, stub);
                self.asm.sub_ri(RSP, 1);
                self.flush();
                // rax already holds (JUMP<<32)|ret (KIND_JUMP is 0 and
                // the range guard proved ret <= len).
                self.exit_indirect();
                return true;
            }
            Inst::Execute => {
                self.fill_to(1, ip);
                let token = self.state.from_top(0);
                // token <u len: negative tokens fail the unsigned compare.
                let stub = self.stub(ip);
                self.asm.mov_ri(Reg::R11, self.insts_len as i64);
                self.asm.cmp_rr(token, Reg::R11);
                self.asm.jcc(Cc::Ae, stub);
                self.guard_roverflow(1, ip);
                self.state.pop();
                self.asm.mov_ri(Reg::R11, (ip + 1) as i64);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, 0), Reg::R11);
                self.asm.add_ri(RSP, 1);
                self.asm.mov_rr(Reg::Rax, token);
                self.flush();
                self.exit_indirect();
                return true;
            }
            Inst::Halt => {
                self.flush();
                self.asm.mov_ri(Reg::Rax, (KIND_HALT << 32) as i64);
                self.asm.jmp(self.epilogue);
                return true;
            }
            Inst::QDoSetup(t) => {
                self.fill_to(2, ip);
                // Conservative: the interpreter only pushes loop params
                // on the not-taken path; a spurious fallback re-executes.
                self.guard_roverflow(2, ip);
                let s = self.state.pop();
                let l = self.state.pop();
                self.flush();
                let taken = self.asm.new_label();
                self.asm.cmp_rr(l, s);
                self.asm.jcc(Cc::E, taken);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, 0), l);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, 8), s);
                self.asm.add_ri(RSP, 2);
                self.exit_jump(ip + 1);
                self.asm.bind(taken);
                self.exit_jump(t as usize);
                return true;
            }
            Inst::LoopInc(t) => {
                self.guard_runderflow(2, ip);
                self.flush();
                let exit = self.asm.new_label();
                self.asm.mov_rm(Reg::Rax, Mem::base_index8(RBASE, RSP, -8));
                self.asm.add_ri(Reg::Rax, 1);
                self.asm.mov_rm(Reg::Rcx, Mem::base_index8(RBASE, RSP, -16));
                self.asm.cmp_rr(Reg::Rax, Reg::Rcx);
                self.asm.jcc(Cc::E, exit);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, -8), Reg::Rax);
                self.exit_jump(t as usize);
                self.asm.bind(exit);
                self.asm.sub_ri(RSP, 2);
                self.exit_jump(ip + 1);
                return true;
            }
            Inst::PlusLoopInc(t) => {
                self.fill_to(1, ip);
                self.guard_runderflow(2, ip);
                let step = self.state.pop();
                self.flush();
                let neg = self.asm.new_label();
                let cont = self.asm.new_label();
                let exit = self.asm.new_label();
                self.asm.mov_rm(Reg::Rax, Mem::base_index8(RBASE, RSP, -8)); // old
                self.asm.mov_rr(Reg::Rcx, Reg::Rax);
                self.asm.add_rr(Reg::Rcx, step); // new (wrapping)
                self.asm.mov_rm(Reg::Rdx, Mem::base_index8(RBASE, RSP, -16)); // limit
                self.asm.test_rr(step, step);
                self.asm.jcc(Cc::S, neg);
                // step >= 0: crossed iff old < limit && new >= limit
                self.asm.cmp_rr(Reg::Rax, Reg::Rdx);
                self.asm.jcc(Cc::Ge, cont);
                self.asm.cmp_rr(Reg::Rcx, Reg::Rdx);
                self.asm.jcc(Cc::Ge, exit);
                self.asm.jmp(cont);
                // step < 0: crossed iff old >= limit && new < limit
                self.asm.bind(neg);
                self.asm.cmp_rr(Reg::Rax, Reg::Rdx);
                self.asm.jcc(Cc::L, cont);
                self.asm.cmp_rr(Reg::Rcx, Reg::Rdx);
                self.asm.jcc(Cc::L, exit);
                self.asm.bind(cont);
                self.asm.mov_mr(Mem::base_index8(RBASE, RSP, -8), Reg::Rcx);
                self.exit_jump(t as usize);
                self.asm.bind(exit);
                self.asm.sub_ri(RSP, 2);
                self.exit_jump(ip + 1);
                return true;
            }
        }
        false
    }
}
