//! A peephole optimizer: increasing the semantic content of instructions
//! (Section 2.2).
//!
//! The paper's second lever on interpreter overhead — besides cheaper
//! dispatch and argument access — is executing *fewer, richer*
//! instructions: "Combining often-used instruction sequences into one
//! instruction is a popular technique, as well as specializing an
//! instruction for a frequent constant argument". This pass implements the
//! within-ISA portion of that idea: constant folding, strength reduction
//! into the specialized unary instructions (`1+`, `2*`, `0=`, …), and
//! cancellation of stack-manipulation pairs (`swap swap`, `dup drop`, …).
//!
//! All rewrites are semantics-preserving on trap-free programs, and
//! division traps are preserved exactly (division by a literal zero is
//! *not* folded away). The one divergence: a cancelled pair such as
//! `swap swap` no longer raises a stack-underflow trap on a too-shallow
//! stack — like any peephole optimizer, this pass assumes programs that
//! do not underflow. Rewrites never cross basic-block leaders, and branch
//! targets are remapped when instructions are removed.
//!
//! Programs that use [`execute`](crate::Inst::Execute) are returned
//! unchanged: execution tokens are literal instruction indices that the
//! optimizer cannot relocate.

use crate::fold::{fold1, fold2};
use crate::inst::{Cell, Inst, CELL_BYTES};
use crate::program::{Program, ProgramBuilder};

/// Statistics from a [`optimize`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    /// Instructions in the input program.
    pub before: usize,
    /// Instructions in the optimized program.
    pub after: usize,
    /// Rewrite applications (folds, reductions, cancellations).
    pub rewrites: usize,
    /// `true` if the program used `execute` and was left unchanged.
    pub skipped_execute: bool,
}

/// Strength-reduce `Lit(n); op` into a specialized unary instruction.
fn reduce_lit_op(n: Cell, op: &Inst) -> Option<Inst> {
    Some(match (n, op) {
        (1, Inst::Add) => Inst::OnePlus,
        (1, Inst::Sub) => Inst::OneMinus,
        (2, Inst::Mul) => Inst::TwoStar,
        (CELL, Inst::Add) => Inst::CellPlus,
        (CELL, Inst::Mul) => Inst::Cells,
        (0, Inst::Eq) => Inst::ZeroEq,
        (0, Inst::Ne) => Inst::ZeroNe,
        (0, Inst::Gt) => Inst::ZeroGt, // `n 0 >` tests n > 0
        (0, Inst::Lt) => Inst::ZeroLt, // `n 0 <` tests n < 0
        _ => return None,
    })
}

const CELL: Cell = CELL_BYTES as Cell;

/// Result of matching a window of instructions.
enum Rewrite {
    /// Replace the first `consumed` instructions with the given ones.
    Replace(usize, Vec<Inst>),
    /// No rewrite applies.
    None,
}

fn try_rewrite(window: &[Inst]) -> Rewrite {
    use Inst::*;
    // three-instruction windows: constant folding
    if let [Lit(a), Lit(b), op] = window {
        if let Some(v) = fold2(*op, *a, *b) {
            return Rewrite::Replace(3, vec![Lit(v)]);
        }
    }
    if window.len() >= 2 {
        match (&window[0], &window[1]) {
            // specialization for a frequent constant argument
            (Lit(n), op) => {
                if let Some(v) = fold1(*op, *n) {
                    return Rewrite::Replace(2, vec![Lit(v)]);
                }
                if let Some(r) = reduce_lit_op(*n, op) {
                    return Rewrite::Replace(2, vec![r]);
                }
                if matches!(op, Drop) {
                    return Rewrite::Replace(2, vec![]);
                }
            }
            // stack-manipulation cancellations
            (Swap, Swap) => return Rewrite::Replace(2, vec![]),
            (Dup, Drop) => return Rewrite::Replace(2, vec![]),
            (Over, Drop) => return Rewrite::Replace(2, vec![]),
            (Dup, Swap) => return Rewrite::Replace(2, vec![Dup]),
            (Swap, Drop) => return Rewrite::Replace(2, vec![Nip]),
            (Rot, MinusRot) | (MinusRot, Rot) => return Rewrite::Replace(2, vec![]),
            (Invert, Invert) | (Negate, Negate) => return Rewrite::Replace(2, vec![]),
            (TwoDup, TwoDrop) => return Rewrite::Replace(2, vec![]),
            _ => {}
        }
    }
    Rewrite::None
}

/// Optimize a program. Returns the optimized program and statistics.
///
/// The result is observably equivalent to the input (same final stacks,
/// memory, output and traps) but executes fewer instructions.
///
/// # Panics
///
/// Panics only if the input program has invalid branch targets (build
/// programs with [`ProgramBuilder`] or run [`verify`](crate::verify())
/// first).
#[must_use]
pub fn optimize(program: &Program) -> (Program, PeepholeStats) {
    let mut stats = PeepholeStats {
        before: program.len(),
        after: program.len(),
        ..PeepholeStats::default()
    };
    if program.insts().iter().any(|i| matches!(i, Inst::Execute)) {
        stats.skipped_execute = true;
        return (program.clone(), stats);
    }

    let mut insts: Vec<Inst> = program.insts().to_vec();
    let mut entry = program.entry();

    // Iterate to a fixpoint. Every rewrite strictly shrinks the program,
    // so the pass count is bounded by the program length.
    let max_passes = insts.len() + 1;
    for _ in 0..max_passes {
        let mut changed = false;
        // Control can enter a program only at leaders; rewrites must not
        // swallow a leader except as the first instruction of the window,
        // so targets always stay remappable.
        let mut is_leader = vec![false; insts.len() + 1];
        is_leader[entry] = true;
        for (i, inst) in insts.iter().enumerate() {
            if let Some(t) = inst.target() {
                is_leader[t as usize] = true;
            }
            if inst.ends_block() {
                is_leader[i + 1] = true;
            }
        }

        let mut out: Vec<Inst> = Vec::with_capacity(insts.len());
        // old index -> new index (valid at leader indices)
        let mut remap: Vec<u32> = vec![0; insts.len() + 1];
        let mut i = 0;
        while i < insts.len() {
            // window may not extend past the next leader
            let mut safe = (i + 3).min(insts.len()) - i;
            for k in 1..safe {
                if is_leader[i + k] {
                    safe = k;
                    break;
                }
            }
            remap[i] = out.len() as u32;
            match try_rewrite(&insts[i..i + safe]) {
                Rewrite::Replace(consumed, replacement) => {
                    stats.rewrites += 1;
                    changed = true;
                    out.extend(replacement);
                    for r in remap[i + 1..i + consumed].iter_mut() {
                        *r = out.len() as u32;
                    }
                    i += consumed;
                }
                Rewrite::None => {
                    out.push(insts[i]);
                    i += 1;
                }
            }
        }
        remap[insts.len()] = out.len() as u32;
        // patch targets and entry
        for inst in &mut out {
            if let Some(t) = inst.target() {
                *inst = inst.with_target(remap[t as usize]);
            }
        }
        entry = remap[entry] as usize;
        insts = out;
        if !changed {
            break;
        }
    }

    let mut b = ProgramBuilder::new();
    b.extend(insts.iter().copied());
    b.set_entry(entry);
    let optimized = b.finish().expect("rewrites preserve target validity");
    stats.after = optimized.len();
    (optimized, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::machine::Machine;
    use crate::program::program_of;

    /// Optimize and assert observable equivalence.
    fn check(p: &Program) -> PeepholeStats {
        let (q, stats) = optimize(p);
        crate::verify(&q).expect("optimized program verifies");
        let mut m1 = Machine::with_memory(4096);
        let r1 = exec::run(p, &mut m1, 1_000_000);
        let mut m2 = Machine::with_memory(4096);
        let r2 = exec::run(&q, &mut m2, 1_000_000);
        match (r1, r2) {
            (Ok(_), Ok(_)) => {
                assert_eq!(m1.stack(), m2.stack());
                assert_eq!(m1.output(), m2.output());
                assert_eq!(m1.memory(), m2.memory());
            }
            (Err(a), Err(b)) => {
                // same trap kind (instruction indices legitimately differ)
                assert_eq!(std::mem::discriminant(&a), std::mem::discriminant(&b));
            }
            (a, b) => panic!("behaviour diverged: {a:?} vs {b:?}"),
        }
        stats
    }

    #[test]
    fn folds_constants() {
        let p = program_of(&[Inst::Lit(6), Inst::Lit(7), Inst::Mul, Inst::Dot]);
        let stats = check(&p);
        assert!(stats.after < stats.before);
        let (q, _) = optimize(&p);
        assert_eq!(q.insts()[0], Inst::Lit(42));
    }

    #[test]
    fn preserves_division_by_zero_trap() {
        let p = program_of(&[Inst::Lit(1), Inst::Lit(0), Inst::Div]);
        let stats = check(&p);
        assert_eq!(stats.rewrites, 0);
    }

    #[test]
    fn strength_reduces() {
        let p = program_of(&[Inst::Lit(5), Inst::Lit(1), Inst::Add, Inst::Dot]);
        // Lit(5) Lit(1) Add folds to Lit(6) first (constant folding wins)
        let (q, _) = optimize(&p);
        assert_eq!(q.insts()[0], Inst::Lit(6));
        // with a dynamic operand, the specialization applies
        let p = program_of(&[Inst::Depth, Inst::Lit(1), Inst::Add, Inst::Dot]);
        let (q, _) = optimize(&p);
        assert!(q.insts().contains(&Inst::OnePlus));
        check(&p);
    }

    #[test]
    fn cancels_stack_noise() {
        let p = program_of(&[
            Inst::Lit(3),
            Inst::Lit(4),
            Inst::Swap,
            Inst::Swap,
            Inst::Dup,
            Inst::Drop,
            Inst::Swap,
            Inst::Drop,
            Inst::Dot,
        ]);
        let stats = check(&p);
        assert!(stats.after < stats.before, "{stats:?}");
        let (q, _) = optimize(&p);
        assert!(q.insts().contains(&Inst::Nip)); // swap drop -> nip
        assert!(!q.insts().contains(&Inst::Swap));
    }

    #[test]
    fn does_not_fuse_across_a_leader() {
        use crate::program::ProgramBuilder;
        // `Lit(0)` at the loop head is a branch target: it must not fuse
        // with the following `Eq` into ZeroEq-of-the-wrong-operand.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Lit(3));
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::OneMinus);
        b.push(Inst::Dup);
        b.branch_if_zero(top); // loops until the counter is nonzero...
        b.push(Inst::Dot);
        b.push(Inst::Halt);
        let p = b.finish().unwrap();
        check(&p);
        let (q, _) = optimize(&p);
        // the loop-head OneMinus is still individually addressable
        crate::verify(&q).unwrap();
    }

    #[test]
    fn remaps_branch_targets_after_removal() {
        use crate::program::ProgramBuilder;
        // countdown loop with removable noise before it
        let mut b = ProgramBuilder::new();
        b.push(Inst::Lit(1));
        b.push(Inst::Drop); // removable pair
        b.push(Inst::Lit(5));
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::OneMinus);
        b.push(Inst::Dup);
        b.push(Inst::ZeroNe);
        let done = b.new_label();
        b.branch_if_zero(done);
        b.branch(top);
        b.bind(done).unwrap();
        b.push(Inst::Dot);
        b.push(Inst::Halt);
        let p = b.finish().unwrap();
        let stats = check(&p);
        assert!(stats.after < stats.before);
    }

    #[test]
    fn skips_programs_with_execute() {
        let p = program_of(&[Inst::Lit(0), Inst::Execute]);
        let (q, stats) = optimize(&p);
        assert!(stats.skipped_execute);
        assert_eq!(q.insts(), p.insts());
    }

    #[test]
    fn fixpoint_chains_rewrites() {
        // dup swap -> dup; dup drop -> (nothing): needs two passes
        let p = program_of(&[Inst::Lit(9), Inst::Dup, Inst::Swap, Inst::Drop, Inst::Dot]);
        let (q, stats) = optimize(&p);
        assert!(stats.rewrites >= 2);
        assert_eq!(q.insts(), &[Inst::Lit(9), Inst::Dot, Inst::Halt]);
        check(&p);
    }

    #[test]
    fn idempotent_on_clean_programs() {
        let p = program_of(&[Inst::Lit(1), Inst::Depth, Inst::Add, Inst::Dot]);
        let (q, _) = optimize(&p);
        let (r, stats) = optimize(&q);
        assert_eq!(q.insts(), r.insts());
        assert_eq!(stats.rewrites, 0);
    }
}
