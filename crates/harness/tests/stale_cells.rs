//! Engines reuse stack buffers across runs on one thread (`vm::stacks`):
//! a run must never observe a cell an earlier run left behind. Debug
//! builds poison every returned buffer; release builds see the earlier
//! run's own values. Either way each outcome must equal the reference
//! interpreter on a fresh machine — on a trap, in the trap, the output
//! and the memory, since only the reference publishes its stacks then.

use stackcache_core::{CompiledArtifact, EngineRegime};
use stackcache_harness::{Outcome, MEMORY_BYTES};
use stackcache_vm::{exec, program_of, Checks, Inst, Machine, Program, ProgramBuilder};

const FUEL: u64 = 1_000_000;

/// Fills both stacks far above any short program's depth with values
/// that are no valid address, then halts or divides by zero with them
/// still in place.
fn deep(trap: bool) -> Program {
    let mut insts = Vec::new();
    for k in 0..600 {
        insts.push(Inst::Lit(-0x1_0000 - k));
        insts.push(Inst::ToR);
    }
    insts.extend((0..2000).map(|k| Inst::Lit(-0x7_0000 - k)));
    if trap {
        insts.push(Inst::Lit(0));
        insts.push(Inst::Div);
    } else {
        insts.extend((0..600).map(|_| Inst::FromR));
    }
    program_of(&insts)
}

/// Short programs that start from empty stacks and stay trap-free.
fn shallow() -> Vec<Program> {
    let mut with_call = ProgramBuilder::new();
    let word = with_call.new_label();
    with_call.entry_here();
    with_call.push(Inst::Lit(6));
    with_call.call(word);
    with_call.push(Inst::Dot);
    with_call.push(Inst::Depth);
    with_call.push(Inst::Halt);
    with_call.bind(word).unwrap();
    with_call.push(Inst::Dup);
    with_call.push(Inst::Mul);
    with_call.push(Inst::Return);
    vec![
        program_of(&[Inst::Lit(1), Inst::Lit(2), Inst::Add, Inst::Dot]),
        program_of(&[
            Inst::Lit(3),
            Inst::Lit(4),
            Inst::Swap,
            Inst::Over,
            Inst::Depth,
            Inst::Lit(5),
            Inst::ToR,
            Inst::FromR,
        ]),
        program_of(&[
            Inst::Lit(9),
            Inst::Lit(0),
            Inst::Store,
            Inst::Lit(0),
            Inst::Fetch,
        ]),
        with_call.finish().unwrap(),
    ]
}

/// Underflowing programs, sound only under [`Checks::Full`]. The
/// static engine loads its canonical cache state from sentinel cells
/// below an empty stack, so `@ drop drop drop drop` fetches from
/// whatever a sentinel holds before it reaches the underflow trap: the
/// zero a fresh sentinel holds leaves the trap the reference raises,
/// while a stale value would be an out-of-bounds address. Other
/// data-stack underflows the static engine does not reproduce at all
/// (its sentinels absorb them), so only the other engines run `+`.
fn underflowing(regime: EngineRegime) -> Vec<Program> {
    let mut programs = vec![
        program_of(&[Inst::FromR]),
        program_of(&[Inst::Fetch, Inst::Drop, Inst::Drop, Inst::Drop, Inst::Drop]),
    ];
    if !matches!(regime, EngineRegime::Static(_)) {
        programs.push(program_of(&[Inst::Add]));
    }
    programs
}

/// Run `p` under `regime` at `checks` and assert the outcome equals the
/// reference interpreter's on a fresh machine.
fn check(regime: EngineRegime, checks: Checks, p: &Program) {
    let mut m = Machine::with_memory(MEMORY_BYTES);
    let result = exec::run(p, &mut m, FUEL).map(|o| o.executed);
    let mut want = Outcome::capture(&m, result);

    let mut m = Machine::with_memory(MEMORY_BYTES);
    let result = CompiledArtifact::compile(p, regime, false).run_with_checks(&mut m, FUEL, checks);
    let got = Outcome::capture(&m, result);

    if want.trap.is_some() {
        want.stack.clone_from(&got.stack);
        want.rstack.clone_from(&got.rstack);
    }
    // static code dispatches fewer instructions than the program has
    let counts = !matches!(regime, EngineRegime::Static(_));
    if let Some(diff) = want.first_difference(&got, counts) {
        panic!(
            "{} at {checks:?} after a deep run: {diff}\n{}",
            regime.name(),
            stackcache_vm::asm::disassemble(p)
        );
    }
}

#[test]
fn reused_stacks_never_leak_stale_cells() {
    let mut trap = false;
    for regime in EngineRegime::ALL {
        for checks in [Checks::Full, Checks::NoUnderflow, Checks::None] {
            let mut programs = shallow();
            if checks == Checks::Full {
                programs.extend(underflowing(regime));
            }
            for p in &programs {
                // the engine's own leftovers, then a baseline run's, which
                // also cover the cells a static engine keeps its sentinels in
                check(regime, checks, &deep(trap));
                check(EngineRegime::Baseline, Checks::Full, &deep(!trap));
                check(regime, checks, p);
                trap = !trap;
            }
        }
    }
}
