//! Loops that push the return stack on every pass: return-stack depths
//! are tracked exactly, so without a bound each pass would add a frame
//! and the analysis would never return. It must finish quickly at both
//! budgets and must not prove such a program safe to run unchecked.

use std::time::{Duration, Instant};

use stackcache_analysis::{analyze_with, AnalysisBudget, Verdict};
use stackcache_vm::{Inst, Machine, Program, ProgramBuilder};

/// `L: <pushes> branch L`, entered from a boot stub.
fn looped(pushes: &[Inst]) -> Program {
    let mut b = ProgramBuilder::new();
    b.entry_here();
    let top = b.new_label();
    b.bind(top).unwrap();
    for &inst in pushes {
        b.push(inst);
    }
    b.branch(top);
    b.finish().unwrap()
}

#[test]
fn return_stack_growth_in_a_loop_terminates_and_keeps_checks() {
    use Inst::*;
    let programs = [
        looped(&[Lit(1), ToR]),
        looped(&[Lit(1), Lit(2), TwoToR]),
        looped(&[Lit(1), ToR, Lit(2), Lit(3), TwoToR, Nop]),
    ];
    let machine = Machine::with_memory(256);
    for p in &programs {
        for budget in [AnalysisBudget::quick(), AnalysisBudget::deep()] {
            let start = Instant::now();
            let a = analyze_with(p, Some(&machine), &budget);
            let took = start.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "analysis took {took:?} on {p:?}"
            );
            assert!(
                !matches!(a.proof.verdict, Verdict::Total | Verdict::Proven),
                "{:?} for {p:?}",
                a.proof.verdict
            );
            assert_eq!(a.proof.admit(&machine), stackcache_vm::Checks::Full);
        }
    }
}
