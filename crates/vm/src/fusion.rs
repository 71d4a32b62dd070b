//! Profile-guided superinstructions and quickening (the tier above
//! Section 2.2's peephole pass).
//!
//! The paper removes dispatch *cost* with stack caching; the next lever —
//! per the speculative-staging line of work the peephole's module docs
//! allude to — is removing dispatch *count*: combine hot instruction
//! sequences into one **superinstruction** executed by a single handler.
//! This module implements that as a layer *above* the instruction set:
//!
//! * a [`FusionPlan`] names the opcode sequences worth fusing — mined
//!   from a dynamic profile ([`FusionPlan::from_hot_sequences`], fed by
//!   the observability crate's sequence profiler) or from static
//!   occurrence counts ([`FusionPlan::static_default`]);
//! * [`fuse`] marks every occurrence of a planned sequence in a program
//!   as one **fused group**, never crossing a basic-block leader, and
//!   returns a [`FusedProgram`]: the *unchanged* program plus a dispatch
//!   map;
//! * [`run_fused`] executes a fused program with **one dispatch per
//!   group** — the group's instructions run back to back inside a single
//!   handler activation;
//! * [`Quickened`] + [`run_quickened`] are the dynamic variant: every
//!   site starts unfused, and the dispatch map is rewritten **in place**
//!   (atomically, idempotently) the first time a fusable site executes —
//!   quickening in the classic sense, with the rewrite confined to the
//!   dispatch map so the program text is never touched.
//!
//! Because the underlying [`Program`] is byte-for-byte unchanged,
//! everything proven about it still holds under fusion: depth/effect
//! metadata, the abstract interpreter's safety proofs, and the cache
//! FSM's per-instruction transitions all apply as-is. Only the dispatch
//! *count* changes, which the counting regimes in `stackcache-core`
//! measure separately.
//!
//! Sequences never contain control flow (branches, calls, returns,
//! halts, `execute`) and never extend across a leader, so a fused group
//! is always executed from its first instruction — control cannot enter
//! a group's interior.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::checks::{Checks, CHECK_FULL, CHECK_NONE, CHECK_NO_UNDERFLOW};
use crate::error::VmError;
use crate::inst::Inst;
use crate::machine::Machine;
use crate::program::Program;
use crate::sem::{step, Code, Fault, Flow};
use crate::stacks::FlatStacks;

/// Longest opcode sequence a plan may fuse.
pub const MAX_SEQ: usize = 8;

/// Default number of sequences a derived plan keeps (top-k).
pub const DEFAULT_TOP_K: usize = 24;

/// `true` if `inst` may appear inside a fused group: straight-line
/// instructions only — no branch targets, no block enders, no `execute`
/// (its jump target is dynamic).
#[must_use]
pub fn fusable(inst: &Inst) -> bool {
    inst.target().is_none() && !inst.ends_block() && !matches!(inst, Inst::Execute)
}

/// Per-opcode fusability, indexed by [`Inst::opcode`].
fn fusable_opcodes() -> [bool; Inst::OPCODE_COUNT] {
    let mut table = [false; Inst::OPCODE_COUNT];
    for rep in Inst::all() {
        table[rep.opcode() as usize] = fusable(&rep);
    }
    table
}

/// The display name of an opcode (via its representative instruction).
fn opcode_name(op: u8) -> &'static str {
    Inst::all().nth(op as usize).map_or("?", |rep| rep.name())
}

/// A validated set of opcode sequences worth fusing, longest first.
///
/// Plans are pure data: derive one from a profile, serialize it as a
/// hash ([`FusionPlan::hash64`]) for cache keys, apply it to any program
/// with [`fuse`]. Sequences are stored longest-first so greedy matching
/// prefers the biggest dispatch saving at every site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusionPlan {
    /// Opcode sequences ([`Inst::opcode`] values), each `2..=MAX_SEQ`
    /// long and containing only fusable opcodes.
    seqs: Vec<Vec<u8>>,
}

impl FusionPlan {
    /// The empty plan: [`fuse`] with it leaves every site unfused.
    #[must_use]
    pub fn empty() -> Self {
        FusionPlan::default()
    }

    /// Keep the top `k` of `hot` by dispatch saving (`count × (len−1)`),
    /// dropping candidates that are too short, too long, or contain a
    /// non-fusable opcode. `hot` pairs an opcode sequence with its
    /// (dynamic or static) occurrence count.
    #[must_use]
    pub fn from_hot_sequences(hot: &[(Vec<u8>, u64)], k: usize) -> Self {
        let fusable = fusable_opcodes();
        let mut ranked: Vec<(&Vec<u8>, u64)> = hot
            .iter()
            .filter(|(seq, _)| {
                (2..=MAX_SEQ).contains(&seq.len())
                    && seq
                        .iter()
                        .all(|&op| fusable.get(op as usize).copied().unwrap_or(false))
            })
            .map(|(seq, count)| (seq, count * (seq.len() as u64 - 1)))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ranked.truncate(k);
        let mut seqs: Vec<Vec<u8>> = ranked.into_iter().map(|(s, _)| s.clone()).collect();
        seqs.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
        seqs.dedup();
        FusionPlan { seqs }
    }

    /// A deterministic plan derived from the program text alone: count
    /// every fusable opcode sequence of length `2..=4` that occurs within
    /// a basic block, rank by static saving, keep the top `k`.
    ///
    /// This is the plan engines use when no dynamic profile is supplied —
    /// identical programs always derive identical plans, so a cache may
    /// key on the program alone.
    #[must_use]
    pub fn static_default(program: &Program, k: usize) -> Self {
        use std::collections::HashMap;
        const STATIC_MAX: usize = 4;
        let insts = program.insts();
        let leader = leader_set(program);
        let fusable = fusable_opcodes();
        let mut counts: HashMap<Vec<u8>, u64> = HashMap::new();
        for start in 0..insts.len() {
            for len in 2..=STATIC_MAX.min(insts.len() - start) {
                let window = &insts[start..start + len];
                if (start + 1..start + len).any(|j| leader[j])
                    || window.iter().any(|i| !fusable[i.opcode() as usize])
                {
                    break;
                }
                let seq: Vec<u8> = window.iter().map(Inst::opcode).collect();
                *counts.entry(seq).or_insert(0) += 1;
            }
        }
        let hot: Vec<(Vec<u8>, u64)> = counts.into_iter().collect();
        FusionPlan::from_hot_sequences(&hot, k)
    }

    /// The planned sequences, longest first.
    #[must_use]
    pub fn seqs(&self) -> &[Vec<u8>] {
        &self.seqs
    }

    /// Number of planned sequences.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// `true` if the plan fuses nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// A stable 64-bit content hash (FNV-1a over lengths and opcodes),
    /// usable as a cache-key component. The empty plan hashes to the FNV
    /// offset basis.
    #[must_use]
    pub fn hash64(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut step = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for seq in &self.seqs {
            step(seq.len() as u8);
            for &op in seq {
                step(op);
            }
        }
        h
    }

    /// Human-readable sequence names, e.g. `"lit+dup+*"`.
    #[must_use]
    pub fn describe(&self) -> Vec<String> {
        self.seqs
            .iter()
            .map(|seq| {
                seq.iter()
                    .map(|&op| opcode_name(op))
                    .collect::<Vec<_>>()
                    .join("+")
            })
            .collect()
    }
}

/// `is_leader[ip]` for every instruction index (entry, branch targets,
/// and fall-throughs of block enders).
fn leader_set(program: &Program) -> Vec<bool> {
    let mut leader = vec![false; program.len() + 1];
    for ip in program.leaders() {
        leader[ip] = true;
    }
    leader
}

/// A program plus its fused dispatch map: `group_len[ip]` instructions
/// execute under the single dispatch at `ip` (1 for unfused sites).
///
/// The program itself is unchanged — see the module docs for why that
/// keeps every proof and counting regime valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedProgram {
    program: Program,
    group_len: Vec<u8>,
}

/// Apply `plan` to `program`: greedily mark the longest planned sequence
/// at every site, left to right, never crossing a basic-block leader and
/// never overlapping a previous group.
#[must_use]
pub fn fuse(program: &Program, plan: &FusionPlan) -> FusedProgram {
    let insts = program.insts();
    let leader = leader_set(program);
    let mut group_len = vec![1u8; insts.len()];
    let mut ip = 0;
    while ip < insts.len() {
        let mut best = 1usize;
        // plan sequences are longest-first: first match wins
        for seq in plan.seqs() {
            let len = seq.len();
            if ip + len <= insts.len()
                && (ip + 1..ip + len).all(|j| !leader[j])
                && seq
                    .iter()
                    .zip(&insts[ip..ip + len])
                    .all(|(&op, inst)| inst.opcode() == op)
            {
                best = len;
                break;
            }
        }
        group_len[ip] = best as u8;
        ip += best;
    }
    FusedProgram {
        program: program.clone(),
        group_len,
    }
}

impl FusedProgram {
    /// The underlying (unchanged) program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The dispatch map: instructions executed per dispatch at each site.
    #[must_use]
    pub fn group_len(&self) -> &[u8] {
        &self.group_len
    }

    /// Sites that begin a fused group (length ≥ 2).
    #[must_use]
    pub fn fused_sites(&self) -> usize {
        self.group_len.iter().filter(|&&l| l > 1).count()
    }

    /// Static dispatch sites after fusion (one per group).
    #[must_use]
    pub fn dispatch_sites(&self) -> usize {
        let mut sites = 0;
        let mut ip = 0;
        while ip < self.group_len.len() {
            sites += 1;
            ip += self.group_len[ip].max(1) as usize;
        }
        sites
    }
}

/// Outcome of a fused or quickened run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedStats {
    /// Original-program instructions executed (including the final
    /// `halt`) — identical to the reference interpreter's count.
    pub executed: u64,
    /// Handler dispatches performed (one per fused group).
    pub dispatches: u64,
    /// Dispatch-map sites rewritten by quickening during this run
    /// (always 0 for [`run_fused`]).
    pub quickened: u64,
}

/// The quickening dynamic variant: a fused program whose dispatch map is
/// discovered at run time.
///
/// Every site starts unfused (`map[ip] == 1`). The first time execution
/// dispatches a site the plan fuses, the executor rewrites that map slot
/// in place to the fused length — subsequent executions dispatch once
/// per group. The rewrite is a relaxed atomic store of a value derived
/// only from the immutable [`FusedProgram`], so concurrent executions
/// racing on one site all write the same byte: quickening is idempotent
/// by construction, and re-running (or re-admitting) an already
/// quickened program rewrites nothing.
#[derive(Debug)]
pub struct Quickened {
    fused: FusedProgram,
    map: Vec<AtomicU8>,
}

impl Quickened {
    /// A quickening wrapper with every site initially unfused.
    #[must_use]
    pub fn new(fused: FusedProgram) -> Self {
        let map = (0..fused.group_len().len())
            .map(|_| AtomicU8::new(1))
            .collect();
        Quickened { fused, map }
    }

    /// The fusion this program quickens toward.
    #[must_use]
    pub fn fused(&self) -> &FusedProgram {
        &self.fused
    }

    /// Sites quickened so far (monotone across runs; bounded by
    /// [`FusedProgram::fused_sites`]).
    #[must_use]
    pub fn quickened_sites(&self) -> usize {
        self.map
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) > 1)
            .count()
    }

    /// Forget all quickening (every site unfused again).
    pub fn reset(&self) {
        for slot in &self.map {
            slot.store(1, Ordering::Relaxed);
        }
    }
}

/// Run a fused program with full checks: one dispatch per fused group,
/// observably identical to the reference interpreter.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter.
pub fn run_fused(
    fused: &FusedProgram,
    machine: &mut Machine,
    fuel: u64,
) -> Result<FusedStats, VmError> {
    run_fused_with_checks(fused, machine, fuel, Checks::Full)
}

/// [`run_fused`] at a selectable [`Checks`] level.
///
/// Levels above [`Checks::Full`] are sound only for programs proven safe
/// by static analysis; the proof applies because the underlying program
/// is unchanged (see the module docs).
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter (minus the
/// trap classes the chosen level elides).
pub fn run_fused_with_checks(
    fused: &FusedProgram,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<FusedStats, VmError> {
    match checks {
        Checks::Full => run_group_mode::<CHECK_FULL>(fused, None, machine, fuel),
        Checks::NoUnderflow => run_group_mode::<CHECK_NO_UNDERFLOW>(fused, None, machine, fuel),
        Checks::None => run_group_mode::<CHECK_NONE>(fused, None, machine, fuel),
    }
}

/// Run a quickening program with full checks: sites rewrite themselves
/// to their fused form after first execution.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter.
pub fn run_quickened(
    quick: &Quickened,
    machine: &mut Machine,
    fuel: u64,
) -> Result<FusedStats, VmError> {
    run_quickened_with_checks(quick, machine, fuel, Checks::Full)
}

/// [`run_quickened`] at a selectable [`Checks`] level.
///
/// # Errors
///
/// Returns the same [`VmError`]s as the reference interpreter (minus the
/// trap classes the chosen level elides).
pub fn run_quickened_with_checks(
    quick: &Quickened,
    machine: &mut Machine,
    fuel: u64,
    checks: Checks,
) -> Result<FusedStats, VmError> {
    match checks {
        Checks::Full => run_group_mode::<CHECK_FULL>(&quick.fused, Some(&quick.map), machine, fuel),
        Checks::NoUnderflow => {
            run_group_mode::<CHECK_NO_UNDERFLOW>(&quick.fused, Some(&quick.map), machine, fuel)
        }
        Checks::None => run_group_mode::<CHECK_NONE>(&quick.fused, Some(&quick.map), machine, fuel),
    }
}

/// The group-dispatch interpreter: the baseline interpreter's semantics
/// ([`crate::sem::step`], identical trap behaviour) with the outer loop
/// dispatching once per fused group. With `quick` set, the dispatch
/// map is read through the quickening slots and rewritten after first
/// execution.
fn run_group_mode<const MODE: u8>(
    fused: &FusedProgram,
    quick: Option<&[AtomicU8]>,
    machine: &mut Machine,
    fuel: u64,
) -> Result<FusedStats, VmError> {
    let mut st = FlatStacks::lease(machine, 0);
    group_loop::<MODE>(fused, quick, machine, fuel, &mut st)
}

/// The dispatch loop over the leased stack cells, kept out of line (see
/// [`FlatStacks`]): one dispatch per group, one [`step`] per member.
#[inline(never)]
fn group_loop<const MODE: u8>(
    fused: &FusedProgram,
    quick: Option<&[AtomicU8]>,
    machine: &mut Machine,
    fuel: u64,
    st: &mut FlatStacks,
) -> Result<FusedStats, VmError> {
    let insts = fused.program.insts();
    let code = Code::plain(insts.len());
    let group_len = &fused.group_len;
    let mut s = st.flat::<MODE>();
    let mut ip = fused.program.entry();
    let mut stats = FusedStats {
        executed: 0,
        dispatches: 0,
        quickened: 0,
    };

    loop {
        // ---- one dispatch per group -----------------------------------
        // same trap precedence as the baseline: fuel before fetch
        if stats.executed >= fuel {
            return Err(VmError::FuelExhausted { ip });
        }
        if ip >= insts.len() {
            return Err(VmError::InstructionOutOfBounds { ip });
        }
        let glen = match quick {
            Some(map) => {
                let current = map[ip].load(Ordering::Relaxed);
                if current == 1 && group_len[ip] > 1 {
                    // quicken: rewrite this site in place after its first
                    // execution (the store is idempotent — every racer
                    // derives the same byte from the immutable plan)
                    map[ip].store(group_len[ip], Ordering::Relaxed);
                    stats.quickened += 1;
                }
                current as usize
            }
            None => group_len[ip] as usize,
        };
        stats.dispatches += 1;

        // ---- the single handler executes the whole group --------------
        // Fuel is charged once per group, for as many members as it
        // affords; a group cut short traps at its next member on the
        // check above, at the ip the reference reports. Only a length-1
        // group can halt, so a returned count is always exact.
        let run = (fuel - stats.executed).min(glen as u64);
        stats.executed += run;
        for _ in 0..run {
            let inst = insts[ip];
            let cur = ip;
            ip += 1;
            if step(&mut s, inst, cur, &mut ip, machine, code).map_err(Fault::error)? == Flow::Halt
            {
                s.publish(machine);
                return Ok(stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::program::{program_of, ProgramBuilder};

    /// Reference-run `p`, fused-run `p` under `plan`, assert observable
    /// equivalence, and return the fused stats.
    fn check_plan(p: &Program, plan: &FusionPlan) -> FusedStats {
        let fused = fuse(p, plan);
        let mut m1 = Machine::with_memory(4096);
        let r1 = exec::run(p, &mut m1, 1_000_000);
        let mut m2 = Machine::with_memory(4096);
        let r2 = run_fused(&fused, &mut m2, 1_000_000);
        let stats = match (&r1, &r2) {
            (Ok(out), Ok(stats)) => {
                assert_eq!(m1.stack(), m2.stack());
                assert_eq!(m1.rstack(), m2.rstack());
                assert_eq!(m1.output(), m2.output());
                assert_eq!(m1.memory(), m2.memory());
                assert_eq!(out.executed, stats.executed, "executed counts differ");
                *stats
            }
            (Err(a), Err(b)) => {
                assert_eq!(format!("{a}"), format!("{b}"), "trap mismatch");
                FusedStats {
                    executed: 0,
                    dispatches: 0,
                    quickened: 0,
                }
            }
            (a, b) => panic!("behaviour diverged: {a:?} vs {b:?}"),
        };
        // the quickened variant converges to the same behaviour
        let quick = Quickened::new(fuse(p, plan));
        let mut m3 = Machine::with_memory(4096);
        let r3 = run_quickened(&quick, &mut m3, 1_000_000);
        match (&r1, &r3) {
            (Ok(_), Ok(_)) => {
                assert_eq!(m1.stack(), m3.stack());
                assert_eq!(m1.output(), m3.output());
                assert_eq!(m1.memory(), m3.memory());
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
            (a, b) => panic!("quickened diverged: {a:?} vs {b:?}"),
        }
        stats
    }

    fn seq(insts: &[Inst]) -> Vec<u8> {
        insts.iter().map(Inst::opcode).collect()
    }

    #[test]
    fn plans_reject_control_flow_and_bad_lengths() {
        let hot = vec![
            (seq(&[Inst::Lit(0), Inst::Dup]), 100),
            (seq(&[Inst::Lit(0), Inst::Branch(0)]), 900), // control flow
            (seq(&[Inst::Lit(0)]), 900),                  // too short
            (seq(&[Inst::Dup; 9]), 900),                  // too long
            (seq(&[Inst::Lit(0), Inst::Execute]), 900),   // dynamic jump
            (seq(&[Inst::Dup, Inst::Call(0)]), 900),      // call ends block
        ];
        let plan = FusionPlan::from_hot_sequences(&hot, 10);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.seqs()[0], seq(&[Inst::Lit(0), Inst::Dup]));
    }

    #[test]
    fn plans_rank_by_dispatch_saving_and_prefer_longer_matches() {
        let pair = seq(&[Inst::Dup, Inst::Mul]);
        let triple = seq(&[Inst::Lit(0), Inst::Dup, Inst::Mul]);
        // the pair occurs more often, but the triple saves more dispatches
        let hot = vec![(pair.clone(), 10), (triple.clone(), 9)];
        let plan = FusionPlan::from_hot_sequences(&hot, 1);
        assert_eq!(plan.seqs(), std::slice::from_ref(&triple));
        // with both kept, the plan lists the longer sequence first so the
        // greedy matcher prefers it
        let plan = FusionPlan::from_hot_sequences(&hot, 2);
        assert_eq!(plan.seqs(), &[triple, pair]);
    }

    #[test]
    fn fusion_is_observably_equivalent_and_collapses_dispatches() {
        let p = program_of(&[
            Inst::Lit(6),
            Inst::Dup,
            Inst::Mul,
            Inst::Lit(6),
            Inst::Dup,
            Inst::Mul,
            Inst::Add,
            Inst::Dot,
        ]);
        let plan =
            FusionPlan::from_hot_sequences(&[(seq(&[Inst::Lit(0), Inst::Dup, Inst::Mul]), 2)], 4);
        let stats = check_plan(&p, &plan);
        // 9 instructions (incl. halt) in 5 dispatches: two fused triples
        assert_eq!(stats.executed, 9);
        assert_eq!(stats.dispatches, 5);
    }

    #[test]
    fn fused_groups_never_cross_leaders() {
        // the loop head (OneMinus) is a branch target: a plan matching
        // [dup, one-minus] or [one-minus, dup] must not fuse across it
        let mut b = ProgramBuilder::new();
        b.push(Inst::Lit(3));
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::OneMinus);
        b.push(Inst::Dup);
        b.branch_if_zero(top);
        b.push(Inst::Dot);
        b.push(Inst::Halt);
        let p = b.finish().unwrap();
        let plan = FusionPlan::from_hot_sequences(
            &[
                (seq(&[Inst::Lit(0), Inst::OneMinus]), 5),
                (seq(&[Inst::OneMinus, Inst::Dup]), 5),
            ],
            4,
        );
        let fused = fuse(&p, &plan);
        // the group at ip 0 must not swallow the loop head at ip 1
        assert_eq!(fused.group_len()[0], 1);
        // within the block, [one-minus, dup] fuses
        assert_eq!(fused.group_len()[1], 2);
        check_plan(&p, &plan);
    }

    #[test]
    fn static_default_plans_are_deterministic_and_fuse_repeats() {
        let p = program_of(&[
            Inst::Lit(1),
            Inst::Dup,
            Inst::Add,
            Inst::Lit(2),
            Inst::Dup,
            Inst::Add,
            Inst::Lit(3),
            Inst::Dup,
            Inst::Add,
            Inst::Dot,
            Inst::Dot,
            Inst::Dot,
        ]);
        let a = FusionPlan::static_default(&p, DEFAULT_TOP_K);
        let b = FusionPlan::static_default(&p, DEFAULT_TOP_K);
        assert_eq!(a, b);
        assert_eq!(a.hash64(), b.hash64());
        assert!(!a.is_empty());
        let fused = fuse(&p, &a);
        assert!(fused.fused_sites() >= 3, "{:?}", fused.group_len());
        check_plan(&p, &a);
    }

    #[test]
    fn traps_are_bit_identical_under_fusion() {
        // division by zero *inside* a fused group, at the same ip
        let p = program_of(&[Inst::Lit(1), Inst::Lit(0), Inst::Div, Inst::Dot]);
        let plan = FusionPlan::from_hot_sequences(
            &[(seq(&[Inst::Lit(0), Inst::Lit(0), Inst::Div]), 1)],
            4,
        );
        let fused = fuse(&p, &plan);
        assert_eq!(fused.group_len()[0], 3);
        let mut m1 = Machine::with_memory(64);
        let e1 = exec::run(&p, &mut m1, 1_000).unwrap_err();
        let mut m2 = Machine::with_memory(64);
        let e2 = run_fused(&fused, &mut m2, 1_000).unwrap_err();
        assert_eq!(format!("{e1}"), format!("{e2}"));
    }

    #[test]
    fn fuel_exhaustion_matches_the_reference_mid_group() {
        let p = program_of(&[Inst::Lit(1), Inst::Dup, Inst::Add, Inst::Dot]);
        let plan = FusionPlan::static_default(&p, 4);
        let fused = fuse(&p, &plan);
        for fuel in 0..6 {
            let mut m1 = Machine::with_memory(64);
            let r1 = exec::run(&p, &mut m1, fuel).map(|o| o.executed);
            let mut m2 = Machine::with_memory(64);
            let r2 = run_fused(&fused, &mut m2, fuel).map(|s| s.executed);
            match (r1, r2) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}"), "fuel {fuel}"),
                (a, b) => panic!("fuel {fuel}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn quickening_rewrites_in_place_and_is_idempotent() {
        let p = program_of(&[
            Inst::Lit(6),
            Inst::Dup,
            Inst::Mul,
            Inst::Lit(7),
            Inst::Dup,
            Inst::Mul,
            Inst::Dot,
            Inst::Dot,
        ]);
        let plan =
            FusionPlan::from_hot_sequences(&[(seq(&[Inst::Lit(0), Inst::Dup, Inst::Mul]), 2)], 4);
        let quick = Quickened::new(fuse(&p, &plan));
        assert_eq!(quick.quickened_sites(), 0);

        // first run: every fused site pays its unfused first execution,
        // then rewrites itself
        let mut m = Machine::with_memory(64);
        let first = run_quickened(&quick, &mut m, 1_000).unwrap();
        assert_eq!(quick.quickened_sites(), 2);
        assert_eq!(first.quickened, 2);
        // straight-line program: quickening fires on the only execution
        // of each site, so this run still dispatched per instruction
        assert_eq!(first.dispatches, first.executed);

        // second run: the map is already fused; nothing rewrites again
        let mut m2 = Machine::with_memory(64);
        let second = run_quickened(&quick, &mut m2, 1_000).unwrap();
        assert_eq!(second.quickened, 0, "quickening must be idempotent");
        assert_eq!(quick.quickened_sites(), 2);
        assert!(second.dispatches < second.executed);
        assert_eq!(m.output(), m2.output());

        // a fused run of the same plan agrees with the converged map
        let fused = fuse(&p, &plan);
        let mut m3 = Machine::with_memory(64);
        let direct = run_fused(&fused, &mut m3, 1_000).unwrap();
        assert_eq!(direct.dispatches, second.dispatches);
        assert_eq!(m2.output(), m3.output());
    }

    #[test]
    fn quickening_converges_inside_loops() {
        // a countdown loop executes its body many times: the first trip
        // quickens, the rest dispatch fused
        let mut b = ProgramBuilder::new();
        b.push(Inst::Lit(50));
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::OneMinus);
        b.push(Inst::Dup);
        b.push(Inst::ZeroGt);
        b.branch_if_zero(top); // loop while counter <= 0 is false…
        b.push(Inst::Dot);
        b.push(Inst::Halt);
        let p = b.finish().unwrap();
        let plan = FusionPlan::from_hot_sequences(
            &[(seq(&[Inst::OneMinus, Inst::Dup, Inst::ZeroGt]), 50)],
            4,
        );
        let quick = Quickened::new(fuse(&p, &plan));
        let mut m = Machine::with_memory(64);
        let stats = run_quickened(&quick, &mut m, 100_000).unwrap();
        assert_eq!(stats.quickened, 1);
        let fused = fuse(&p, &plan);
        let mut m2 = Machine::with_memory(64);
        let direct = run_fused(&fused, &mut m2, 100_000).unwrap();
        // one extra pair of dispatches: the body's first, unfused trip
        assert_eq!(stats.dispatches, direct.dispatches + 2);
        assert_eq!(m.output(), m2.output());
    }

    #[test]
    fn empty_plan_dispatches_per_instruction() {
        let p = program_of(&[Inst::Lit(1), Inst::Dup, Inst::Add, Inst::Dot]);
        let fused = fuse(&p, &FusionPlan::empty());
        assert_eq!(fused.fused_sites(), 0);
        let mut m = Machine::with_memory(64);
        let stats = run_fused(&fused, &mut m, 1_000).unwrap();
        assert_eq!(stats.dispatches, stats.executed);
    }

    #[test]
    fn checks_levels_agree_on_safe_programs() {
        let p = program_of(&[
            Inst::Lit(5),
            Inst::Dup,
            Inst::Mul,
            Inst::Lit(3),
            Inst::Add,
            Inst::Dot,
        ]);
        let plan = FusionPlan::static_default(&p, 8);
        let fused = fuse(&p, &plan);
        let mut reference = Machine::with_memory(64);
        run_fused(&fused, &mut reference, 1_000).unwrap();
        for checks in [Checks::NoUnderflow, Checks::None] {
            let mut m = Machine::with_memory(64);
            run_fused_with_checks(&fused, &mut m, 1_000, checks).unwrap();
            assert_eq!(reference.stack(), m.stack(), "{}", checks.name());
            assert_eq!(reference.output(), m.output(), "{}", checks.name());
        }
    }

    #[test]
    fn plan_hashes_distinguish_plans() {
        let a = FusionPlan::from_hot_sequences(&[(seq(&[Inst::Dup, Inst::Mul]), 1)], 4);
        let b = FusionPlan::from_hot_sequences(&[(seq(&[Inst::Dup, Inst::Add]), 1)], 4);
        assert_ne!(a.hash64(), b.hash64());
        assert_ne!(a.hash64(), FusionPlan::empty().hash64());
    }

    #[test]
    fn describe_names_sequences() {
        let plan =
            FusionPlan::from_hot_sequences(&[(seq(&[Inst::Lit(0), Inst::Dup, Inst::Mul]), 1)], 4);
        assert_eq!(plan.describe(), vec!["lit+dup+*".to_string()]);
    }

    #[test]
    fn execute_heavy_programs_still_run_fused() {
        // `execute` cannot be *inside* a group, but programs using it
        // still fuse elsewhere (unlike the peephole, which skips them)
        let p = program_of(&[
            Inst::Lit(5),
            Inst::Dup,
            Inst::Mul,
            Inst::Lit(6),
            Inst::Execute,
            Inst::Halt,
            Inst::Dot,
            Inst::Return,
        ]);
        let plan =
            FusionPlan::from_hot_sequences(&[(seq(&[Inst::Lit(0), Inst::Dup, Inst::Mul]), 1)], 4);
        let fused = fuse(&p, &plan);
        assert_eq!(fused.group_len()[0], 3);
        assert_eq!(fused.group_len()[4], 1);
        check_plan(&p, &plan);
    }
}
