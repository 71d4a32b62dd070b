//! Real (wall-clock) stack-cached interpreters.
//!
//! Together with the baseline and top-of-stack interpreters in
//! `stackcache_vm::interp`, these complete the ladder the paper measures.
//! Every rung is a driver over the one definition of the opcode semantics
//! in `stackcache-vm`, run against a different stack view:
//!
//! | interpreter | caching | view | driver |
//! |---|---|---|---|
//! | `run_baseline` | none (Fig. 11) | all in memory | `vm::interp` |
//! | `run_tos` | constant k = 1 (Fig. 12) | top in a register | `vm::interp` |
//! | [`run_dyncache`] | dynamic, minimal org, 3 registers (Section 4) | 3 registers, state tracked at run time | `vm::cached` |
//! | [`compile_static`] + [`run_staticcache`] | static, 6-state org (Section 5) | 3 registers, state planned per instruction | `vm::cached` (planner here) |
//!
//! The cached drivers dispatch on the cache state and run the semantics
//! with that state a constant, so each state gets
//! its own specialised copy of every opcode. All interpreters produce
//! identical observable behaviour on trap-free programs and are
//! cross-validated against the reference interpreter.

mod staticrun;

pub use stackcache_vm::cached::{run_dyncache, run_dyncache_with_checks, SInst};
/// Outcome of a wall-clock interpreter run; for the static interpreter
/// `executed` counts *compiled* instructions, which is lower than the
/// original instruction count when stack manipulations were eliminated.
pub use stackcache_vm::interp::RunStats;
pub use staticrun::{
    compile_static, run_staticcache, run_staticcache_with_checks, StaticExecutable,
};

#[cfg(test)]
mod tests {
    use super::*;
    use stackcache_vm::interp::{run_baseline, run_tos};
    use stackcache_vm::{exec, program_of, Inst, Machine, Program, ProgramBuilder, VmError};

    /// Run a trap-free program on every engine and assert identical
    /// observable behaviour, and for the engines that run the original
    /// program, the same instruction count.
    fn cross_validate(p: &Program) {
        let mut m_ref = Machine::with_memory(4096);
        let reference = exec::run(p, &mut m_ref, 1_000_000).expect("reference runs");

        let same = |m: &Machine, name: &str| {
            assert_eq!(m_ref.stack(), m.stack(), "{name} stack");
            assert_eq!(m_ref.rstack(), m.rstack(), "{name} rstack");
            assert_eq!(m_ref.output(), m.output(), "{name} output");
            assert_eq!(m_ref.memory(), m.memory(), "{name} memory");
        };
        type Engine = fn(&Program, &mut Machine, u64) -> Result<RunStats, VmError>;
        let engines: [(&str, Engine); 3] = [
            ("baseline", run_baseline),
            ("tos", run_tos),
            ("dyncache", run_dyncache),
        ];
        for (name, run) in engines {
            let mut m = Machine::with_memory(4096);
            let stats = run(p, &mut m, 1_000_000).unwrap_or_else(|e| panic!("{name} traps: {e}"));
            same(&m, name);
            assert_eq!(stats.executed, reference.executed, "{name} executed");
        }

        for c in 0..=3u8 {
            let exe = compile_static(p, c);
            let mut m = Machine::with_memory(4096);
            run_staticcache(&exe, &mut m, 1_000_000)
                .unwrap_or_else(|e| panic!("static c={c} traps: {e}"));
            same(&m, &format!("static c={c}"));
        }
    }

    #[test]
    fn agree_on_arithmetic_and_shuffles() {
        cross_validate(&program_of(&[
            Inst::Lit(1),
            Inst::Lit(2),
            Inst::Lit(3),
            Inst::Lit(4),
            Inst::TwoSwap,
            Inst::Rot,
            Inst::Tuck,
            Inst::MinusRot,
            Inst::Over,
            Inst::Nip,
            Inst::TwoDup,
            Inst::TwoOver,
            Inst::Swap,
            Inst::Dup,
            Inst::Add,
            Inst::Mul,
            Inst::Sub,
        ]));
    }

    #[test]
    fn agree_on_division_and_shifts() {
        cross_validate(&program_of(&[
            Inst::Lit(10),
            Inst::Lit(-3),
            Inst::Div,
            Inst::Lit(10),
            Inst::Lit(-3),
            Inst::Mod,
            Inst::Lit(7),
            Inst::Lit(3),
            Inst::Xor,
            Inst::Negate,
            Inst::Abs,
            Inst::Lit(100),
            Inst::Max,
            Inst::Lit(1),
            Inst::Lshift,
        ]));
    }

    #[test]
    fn agree_on_return_stack_pairs() {
        cross_validate(&program_of(&[
            Inst::Lit(1),
            Inst::Lit(2),
            Inst::TwoToR,
            Inst::TwoRFetch,
            Inst::TwoFromR,
            Inst::Lit(9),
            Inst::ToR,
            Inst::RFetch,
            Inst::FromR,
            Inst::Add,
        ]));
    }

    #[test]
    fn agree_on_swap_chains() {
        // exercises the swapped static states
        cross_validate(&program_of(&[
            Inst::Lit(10),
            Inst::Lit(20),
            Inst::Swap,
            Inst::Sub, // executes in a swapped state
            Inst::Lit(30),
            Inst::Lit(40),
            Inst::Swap,
            Inst::Swap, // cancels statically
            Inst::Lit(7),
            Inst::Swap,
            Inst::Drop, // drop in a swapped state
            Inst::Add,
            Inst::Add,
        ]));
    }

    #[test]
    fn agree_on_deep_stacks() {
        let mut insts = Vec::new();
        for i in 0..20 {
            insts.push(Inst::Lit(i));
        }
        for _ in 0..19 {
            insts.push(Inst::Add);
        }
        cross_validate(&program_of(&insts));
    }

    #[test]
    fn agree_on_memory_io_and_unops() {
        cross_validate(&program_of(&[
            Inst::Lit(42),
            Inst::Lit(128),
            Inst::Store,
            Inst::Lit(128),
            Inst::Fetch,
            Inst::Dup,
            Inst::Dot,
            Inst::Negate,
            Inst::Abs,
            Inst::OnePlus,
            Inst::Lit(65),
            Inst::Lit(130),
            Inst::CStore,
            Inst::Lit(130),
            Inst::CFetch,
            Inst::Emit,
            Inst::Cr,
            Inst::Lit(5),
            Inst::Lit(128),
            Inst::PlusStore,
            Inst::Lit(128),
            Inst::Fetch,
        ]));
    }

    #[test]
    fn agree_on_calls_loops_and_rstack() {
        let mut b = ProgramBuilder::new();
        let square = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(0));
        b.push(Inst::Lit(8));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::LoopI);
        b.call(square);
        b.push(Inst::Add);
        b.loop_inc(top);
        b.push(Inst::Lit(3));
        b.push(Inst::ToR);
        b.push(Inst::RFetch);
        b.push(Inst::FromR);
        b.push(Inst::Add);
        b.push(Inst::Add);
        b.push(Inst::Halt);
        b.bind(square).unwrap();
        b.push(Inst::Dup);
        b.push(Inst::Mul);
        b.push(Inst::Return);
        cross_validate(&b.finish().unwrap());
    }

    #[test]
    fn agree_on_conditionals_and_qdup() {
        let mut b = ProgramBuilder::new();
        let else_l = b.new_label();
        let end_l = b.new_label();
        b.push(Inst::Lit(5));
        b.push(Inst::QDup);
        b.push(Inst::Sub); // 5-5 = 0
        b.push(Inst::QDup); // zero: no dup
        b.branch_if_zero(else_l);
        b.push(Inst::Lit(111));
        b.branch(end_l);
        b.bind(else_l).unwrap();
        b.push(Inst::Lit(222));
        b.bind(end_l).unwrap();
        b.push(Inst::Lit(1000));
        b.push(Inst::Add);
        b.push(Inst::Halt);
        cross_validate(&b.finish().unwrap());
    }

    #[test]
    fn agree_on_pick_and_depth() {
        cross_validate(&program_of(&[
            Inst::Lit(10),
            Inst::Lit(20),
            Inst::Lit(30),
            Inst::Lit(1),
            Inst::Pick,
            Inst::Depth,
            Inst::Add,
            Inst::Add,
            Inst::Add,
            Inst::Add,
        ]));
    }

    #[test]
    fn agree_on_execute() {
        let mut b = ProgramBuilder::new();
        let dbl = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(21));
        b.push(Inst::Lit(4)); // xt of `dbl` in the ORIGINAL program
        b.push(Inst::Execute);
        b.push(Inst::Halt);
        b.bind(dbl).unwrap();
        assert_eq!(b.here(), 4);
        b.push(Inst::TwoStar);
        b.push(Inst::Return);
        cross_validate(&b.finish().unwrap());
    }

    #[test]
    fn static_eliminates_dispatches() {
        let p = program_of(&[
            Inst::Lit(1),
            Inst::Lit(2),
            Inst::Swap,
            Inst::Swap,
            Inst::Drop,
            Inst::Drop,
            Inst::Lit(9),
        ]);
        let exe = compile_static(&p, 2);
        assert!(exe.stats.eliminated >= 4, "stats: {:?}", exe.stats);
        assert!(exe.stats.compiled < exe.stats.original);
        let mut m = Machine::with_memory(64);
        let stats = run_staticcache(&exe, &mut m, 1000).unwrap();
        assert!(stats.executed < 8, "dispatches: {}", stats.executed);
        assert_eq!(m.stack(), &[9]);
    }

    #[test]
    fn static_plus_loop_and_unloop() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Lit(0));
        b.push(Inst::Lit(10));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::LoopI);
        b.push(Inst::Add);
        b.push(Inst::Lit(3));
        b.plus_loop_inc(top);
        b.push(Inst::Halt);
        cross_validate(&b.finish().unwrap());
    }

    #[test]
    fn fuel_exhaustion_reported() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::Nop);
        b.branch(top);
        let p = b.finish().unwrap();
        let mut m = Machine::with_memory(64);
        assert!(matches!(
            run_dyncache(&p, &mut m, 100),
            Err(stackcache_vm::VmError::FuelExhausted { .. })
        ));
        let exe = compile_static(&p, 1);
        let mut m = Machine::with_memory(64);
        assert!(matches!(
            run_staticcache(&exe, &mut m, 100),
            Err(stackcache_vm::VmError::FuelExhausted { .. })
        ));
    }

    /// A `drop` below the empty stack that the static compiler turned
    /// into a state change, then a block end: the reconciliation finds
    /// nothing above the stack's bottom to load and traps as the
    /// reference does, at every canonical depth.
    #[test]
    fn static_underflow_before_a_block_end_traps() {
        let p = program_of(&[Inst::Drop, Inst::Branch(2)]);
        let mut m_ref = Machine::with_memory(64);
        assert_eq!(
            exec::run(&p, &mut m_ref, 1000).unwrap_err(),
            VmError::StackUnderflow { ip: 0 }
        );
        for c in 0..=3u8 {
            let exe = compile_static(&p, c);
            let mut m = Machine::with_memory(64);
            assert!(
                matches!(
                    run_staticcache(&exe, &mut m, 1000),
                    Err(VmError::StackUnderflow { .. })
                ),
                "static c={c}"
            );
        }
    }

    #[test]
    fn traps_match_reference() {
        for p in [
            program_of(&[Inst::Lit(1), Inst::Lit(0), Inst::Div]),
            program_of(&[Inst::Add]),
            program_of(&[Inst::FromR]),
            program_of(&[Inst::Lit(1 << 40), Inst::Fetch]),
            program_of(&[Inst::Lit(1), Inst::Lit(9), Inst::Pick]),
        ] {
            let mut m_ref = Machine::with_memory(64);
            let e_ref = exec::run(&p, &mut m_ref, 1000).unwrap_err();
            for run in [run_baseline, run_tos, run_dyncache] {
                let mut m = Machine::with_memory(64);
                assert_eq!(run(&p, &mut m, 1000).unwrap_err(), e_ref);
            }
        }
    }
}
