//! Differential tests: the JIT against the reference interpreter on
//! targeted programs — every opcode family, every trap, fuel sweeps.
//!
//! The deep randomized campaign lives in the workspace root
//! (`tests/jit_campaign.rs`, under the full harness); these tests are
//! the fast, named, first-line-of-defence suite.

use stackcache_jit::{run_compiled, run_jit_with_checks, DeoptSite, JitProgram};
use stackcache_vm::interp::run_baseline_with_checks;
use stackcache_vm::{program_of, Checks, Inst, Machine, Program, ProgramBuilder};

const MEM: usize = 256;

/// Run `p` under both engines from identical machines and assert every
/// observable agrees: result/error, stacks, output, memory, fuel.
fn check(p: &Program, fuel: u64, checks: Checks, setup: &[i64]) {
    let mut proto = Machine::with_memory(MEM);
    for &x in setup {
        proto.push(x);
    }
    check_from(p, fuel, checks, &proto);
}

/// [`check`] from clones of `proto`.
fn check_from(p: &Program, fuel: u64, checks: Checks, proto: &Machine) {
    let mut m_ref = proto.clone();
    let mut m_jit = proto.clone();
    let r_ref = run_baseline_with_checks(p, &mut m_ref, fuel, checks);
    let r_jit = run_jit_with_checks(p, &mut m_jit, fuel, checks);
    match (&r_ref, &r_jit) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.executed, b.executed, "fuel divergence on {p:?}");
            assert_eq!(m_ref.stack(), m_jit.stack(), "stack divergence on {p:?}");
            assert_eq!(m_ref.rstack(), m_jit.rstack(), "rstack divergence on {p:?}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "error divergence on {p:?}"),
        other => panic!("result divergence on {p:?}: {other:?}"),
    }
    assert_eq!(m_ref.output(), m_jit.output(), "output divergence on {p:?}");
    assert_eq!(m_ref.memory(), m_jit.memory(), "memory divergence on {p:?}");
}

fn check_full(p: &Program, setup: &[i64]) {
    check(p, 1_000_000, Checks::Full, setup);
}

fn halted(mut insts: Vec<Inst>) -> Program {
    insts.push(Inst::Halt);
    program_of(&insts)
}

#[test]
fn arithmetic_and_logic() {
    use Inst::*;
    for insts in [
        vec![Lit(6), Lit(7), Mul],
        vec![Lit(5), Lit(3), Sub],
        vec![Lit(3), Lit(5), Sub],
        vec![Lit(i64::MAX), Lit(1), Add],
        vec![Lit(i64::MIN), Lit(1), Sub],
        vec![Lit(i64::MAX), Lit(i64::MAX), Mul],
        vec![Lit(0x0FF0), Lit(0x00FF), And],
        vec![Lit(0x0FF0), Lit(0x00FF), Or],
        vec![Lit(0x0FF0), Lit(0x00FF), Xor],
        vec![Lit(1), Lit(63), Lshift],
        vec![Lit(1), Lit(64), Lshift],
        vec![Lit(-1), Lit(1), Rshift],
        vec![Lit(-8), Lit(200), Rshift],
        vec![Lit(3), Lit(9), Min],
        vec![Lit(3), Lit(9), Max],
        vec![Lit(-3), Lit(9), Min],
        vec![Lit(5), Negate],
        vec![Lit(i64::MIN), Negate],
        vec![Lit(0), Invert],
        vec![Lit(7), Abs],
        vec![Lit(-7), Abs],
        vec![Lit(i64::MIN), Abs],
        vec![Lit(41), OnePlus],
        vec![Lit(41), OneMinus],
        vec![Lit(21), TwoStar],
        vec![Lit(-5), TwoSlash],
        vec![Lit(5), TwoSlash],
        vec![Lit(3), CellPlus],
        vec![Lit(3), Cells],
        vec![Lit(3), CharPlus],
    ] {
        check_full(&halted(insts), &[]);
    }
}

#[test]
fn division_euclidean() {
    use Inst::*;
    for (a, b) in [
        (7, 2),
        (-7, 2),
        (7, -2),
        (-7, -2),
        (6, 3),
        (-6, 3),
        (6, -3),
        (-6, -3),
        (0, 5),
        (i64::MAX, 1),
        (i64::MIN, 1),
        (i64::MIN, 2),
        (i64::MAX, -1),
        (1, i64::MIN),
        (-1, i64::MIN),
    ] {
        check_full(&halted(vec![Lit(a), Lit(b), Div]), &[]);
        check_full(&halted(vec![Lit(a), Lit(b), Mod]), &[]);
    }
}

#[test]
fn division_by_zero_traps_identically() {
    use Inst::*;
    check_full(&halted(vec![Lit(7), Lit(0), Div]), &[]);
    check_full(&halted(vec![Lit(7), Lit(0), Mod]), &[]);
    // Trap must preserve the pre-instruction stack exactly.
    check_full(&halted(vec![Lit(1), Lit(2), Lit(7), Lit(0), Div]), &[]);
}

#[test]
fn comparisons() {
    use Inst::*;
    for (a, b) in [
        (1, 2),
        (2, 1),
        (2, 2),
        (-1, 1),
        (1, -1),
        (i64::MIN, i64::MAX),
    ] {
        for op in [Eq, Ne, Lt, Gt, Le, Ge, ULt, UGt] {
            check_full(&halted(vec![Lit(a), Lit(b), op]), &[]);
        }
    }
    for a in [-2i64, -1, 0, 1, 2, i64::MIN, i64::MAX] {
        for op in [ZeroEq, ZeroNe, ZeroLt, ZeroGt] {
            check_full(&halted(vec![Lit(a), op]), &[]);
        }
    }
}

#[test]
fn shuffles() {
    use Inst::*;
    let setup = [10, 20, 30, 40, 50];
    for insts in [
        vec![Dup],
        vec![Drop],
        vec![Swap],
        vec![Over],
        vec![Rot],
        vec![MinusRot],
        vec![Nip],
        vec![Tuck],
        vec![TwoDup],
        vec![TwoDrop],
        vec![TwoSwap],
        vec![TwoOver],
        vec![Depth],
        vec![Swap, Rot, Nip, Tuck, Dup],
        vec![Rot, Rot, Rot],      // identity via three rotations
        vec![Swap, Swap],         // identity
        vec![Dup, Dup, Dup, Dup], // forces spills
    ] {
        check_full(&halted(insts), &setup);
    }
    check_full(&halted(vec![QDup]), &[0]);
    check_full(&halted(vec![QDup]), &[7]);
    check_full(&halted(vec![Lit(0), Pick]), &setup);
    check_full(&halted(vec![Lit(4), Pick]), &setup);
    check_full(&halted(vec![Lit(5), Pick]), &setup); // out of range → trap
    check_full(&halted(vec![Lit(-1), Pick]), &setup); // negative → trap
    check_full(&halted(vec![Depth]), &[]);
}

#[test]
fn return_stack_ops() {
    use Inst::*;
    for insts in [
        vec![Lit(5), ToR, FromR],
        vec![Lit(5), ToR, RFetch, FromR],
        vec![Lit(1), Lit(2), TwoToR, TwoFromR],
        vec![Lit(1), Lit(2), TwoToR, TwoRFetch, TwoFromR, Add, Add, Add],
        vec![Lit(9), ToR, LoopI, FromR],
        vec![
            Lit(1),
            Lit(2),
            Lit(3),
            Lit(4),
            TwoToR,
            TwoToR,
            LoopJ,
            FromR,
            FromR,
            FromR,
            FromR,
        ],
        vec![Lit(1), Lit(2), TwoToR, Unloop],
        // underflow traps
        vec![FromR],
        vec![RFetch],
        vec![TwoFromR],
        vec![TwoRFetch],
        vec![LoopI],
        vec![LoopJ],
        vec![Unloop],
        vec![Lit(1), ToR, TwoFromR],
    ] {
        check_full(&halted(insts), &[]);
    }
}

#[test]
fn memory_ops() {
    use Inst::*;
    for insts in [
        vec![Lit(42), Lit(0), Store, Lit(0), Fetch],
        vec![
            Lit(42),
            Lit(MEM as i64 - 8),
            Store,
            Lit(MEM as i64 - 8),
            Fetch,
        ],
        vec![Lit(-1), Lit(8), Store, Lit(8), Fetch],
        vec![Lit(300), Lit(3), CStore, Lit(3), CFetch], // truncates to byte
        vec![Lit(65), Lit(0), CStore, Lit(0), CFetch],
        vec![
            Lit(5),
            Lit(16),
            Store,
            Lit(3),
            Lit(16),
            PlusStore,
            Lit(16),
            Fetch,
        ],
        // unaligned cell access
        vec![Lit(0x1122334455667788), Lit(3), Store, Lit(3), Fetch],
        // bounds traps: negative, straddling, far out
        vec![Lit(-1), Fetch],
        vec![Lit(MEM as i64 - 7), Fetch],
        vec![Lit(MEM as i64), Fetch],
        vec![Lit(1), Lit(-1), Store],
        vec![Lit(1), Lit(MEM as i64 - 7), Store],
        vec![Lit(-1), CFetch],
        vec![Lit(MEM as i64), CFetch],
        vec![Lit(1), Lit(MEM as i64), CStore],
        vec![Lit(1), Lit(-9), PlusStore],
    ] {
        check_full(&halted(insts), &[]);
    }
}

#[test]
fn output_ops() {
    use Inst::*;
    check_full(&halted(vec![Lit(72), Emit, Lit(105), Emit, Cr]), &[]);
    check_full(&halted(vec![Lit(300), Emit]), &[]); // byte truncation
    check_full(&halted(vec![Lit(-42), Dot, Lit(7), Dot]), &[]);
    // Enough emits to force Vec growth (capacity guard → deopt → regrow).
    let mut insts = Vec::new();
    for i in 0..64 {
        insts.push(Lit(65 + (i % 26)));
        insts.push(Emit);
    }
    check_full(&halted(insts), &[]);
    // type: valid range, empty range, negative length, out of bounds
    check_full(
        &halted(vec![
            Lit(72),
            Lit(0),
            CStore,
            Lit(73),
            Lit(1),
            CStore,
            Lit(0),
            Lit(2),
            Type,
        ]),
        &[],
    );
    check_full(&halted(vec![Lit(0), Lit(0), Type]), &[]);
    check_full(&halted(vec![Lit(0), Lit(-3), Type]), &[]);
    check_full(&halted(vec![Lit(MEM as i64 - 1), Lit(5), Type]), &[]);
}

#[test]
fn stack_depth_traps() {
    use Inst::*;
    // underflow at every arity
    for insts in [
        vec![Add],
        vec![Lit(1), Add],
        vec![Dup],
        vec![Drop],
        vec![Swap],
        vec![Rot],
        vec![Lit(1), Lit(2), Rot],
        vec![TwoSwap],
        vec![Lit(1), Lit(2), Lit(3), TwoSwap],
        vec![TwoOver],
        vec![Pick],
        vec![QDup],
        vec![ToR],
        vec![Store],
        vec![Lit(0), Store],
        vec![Emit],
        vec![Dot],
    ] {
        check_full(&halted(insts), &[]);
    }
}

#[test]
fn stack_overflow_traps() {
    use Inst::*;
    // A machine with a tiny stack limit: overflow through every pusher.
    let mut m_ref = Machine::with_memory(MEM);
    let mut m_jit = Machine::with_memory(MEM);
    m_ref.set_stack_limit(4);
    m_jit.set_stack_limit(4);
    for insts in [
        vec![Lit(1), Lit(2), Lit(3), Lit(4), Lit(5)],
        vec![Lit(1), Lit(2), Lit(3), Lit(4), Dup],
        vec![Lit(1), Lit(2), Lit(3), Lit(4), Over],
        vec![Lit(1), Lit(2), Lit(3), TwoDup],
        vec![Lit(1), Lit(2), Lit(3), Lit(4), Depth],
        vec![Lit(1), Lit(2), Lit(3), Tuck, Tuck],
        vec![Lit(1), Lit(2), Lit(3), Lit(4), ToR, RFetch, FromR, Depth],
    ] {
        let p = halted(insts);
        let mut a = m_ref.clone();
        let mut b = m_jit.clone();
        let ra = run_baseline_with_checks(&p, &mut a, 1_000, Checks::Full);
        let rb = run_jit_with_checks(&p, &mut b, 1_000, Checks::Full);
        match (&ra, &rb) {
            (Ok(x), Ok(y)) => assert_eq!(x.executed, y.executed),
            (Err(x), Err(y)) => assert_eq!(x, y, "on {p:?}"),
            other => panic!("divergence on {p:?}: {other:?}"),
        }
        assert_eq!(a.stack(), b.stack(), "on {p:?}");
    }
}

#[test]
fn rstack_overflow_traps() {
    use Inst::*;
    let mut m_ref = Machine::with_memory(MEM);
    let mut m_jit = Machine::with_memory(MEM);
    m_ref.set_rstack_limit(2);
    m_jit.set_rstack_limit(2);
    for insts in [
        vec![Lit(1), ToR, Lit(2), ToR, Lit(3), ToR],
        vec![Lit(1), Lit(2), TwoToR, Lit(3), ToR],
        vec![Lit(1), ToR, Lit(2), Lit(3), TwoToR],
    ] {
        let p = halted(insts);
        let mut a = m_ref.clone();
        let mut b = m_jit.clone();
        let ra = run_baseline_with_checks(&p, &mut a, 1_000, Checks::Full);
        let rb = run_jit_with_checks(&p, &mut b, 1_000, Checks::Full);
        match (&ra, &rb) {
            (Err(x), Err(y)) => assert_eq!(x, y, "on {p:?}"),
            other => panic!("expected matching traps on {p:?}: {other:?}"),
        }
        assert_eq!(a.rstack(), b.rstack(), "on {p:?}");
    }
}

fn countdown_loop() -> Program {
    use Inst::*;
    let mut b = ProgramBuilder::new();
    b.entry_here();
    b.push(Lit(0));
    b.push(Lit(100));
    let top = b.new_label();
    b.bind(top).unwrap();
    b.push(Swap);
    b.push(Over);
    b.push(Add);
    b.push(Swap);
    b.push(OneMinus);
    b.push(Dup);
    let out = b.new_label();
    b.branch_if_zero(out);
    b.branch(top);
    b.bind(out).unwrap();
    b.push(Drop);
    b.push(Halt);
    b.finish().unwrap()
}

fn do_loop_program() -> Program {
    use Inst::*;
    let mut b = ProgramBuilder::new();
    let word = b.new_label();
    b.entry_here();
    b.push(Lit(0));
    b.push(Lit(20));
    b.push(Lit(0));
    b.push(DoSetup);
    let top = b.new_label();
    b.bind(top).unwrap();
    b.push(LoopI);
    b.call(word);
    b.push(Add);
    b.loop_inc(top);
    b.push(Halt);
    b.bind(word).unwrap();
    b.push(Dup);
    b.push(Mul);
    b.push(Return);
    b.finish().unwrap()
}

fn plus_loop_program(start: i64, limit: i64, step: i64) -> Program {
    use Inst::*;
    let mut b = ProgramBuilder::new();
    b.entry_here();
    b.push(Lit(0));
    b.push(Lit(limit));
    b.push(Lit(start));
    b.push(DoSetup);
    let top = b.new_label();
    b.bind(top).unwrap();
    b.push(LoopI);
    b.push(Add);
    b.push(Lit(step));
    b.plus_loop_inc(top);
    b.push(Halt);
    b.finish().unwrap()
}

fn qdo_program(limit: i64, start: i64) -> Program {
    use Inst::*;
    let mut b = ProgramBuilder::new();
    b.entry_here();
    b.push(Lit(0));
    b.push(Lit(limit));
    b.push(Lit(start));
    let out = b.new_label();
    b.qdo(out);
    let top = b.new_label();
    b.bind(top).unwrap();
    b.push(LoopI);
    b.push(Add);
    b.loop_inc(top);
    b.bind(out).unwrap();
    b.push(Halt);
    b.finish().unwrap()
}

#[test]
fn control_flow_programs() {
    check_full(&countdown_loop(), &[]);
    check_full(&do_loop_program(), &[]);
    check_full(&plus_loop_program(0, 10, 3), &[]);
    check_full(&plus_loop_program(10, 0, -3), &[]);
    check_full(&plus_loop_program(0, 10, -1), &[]); // wraps the long way
    check_full(&plus_loop_program(5, 5, 1), &[]);
    check_full(&qdo_program(5, 5), &[]); // taken: empty loop
    check_full(&qdo_program(5, 0), &[]);
}

#[test]
fn execute_and_tokens() {
    use Inst::*;
    // execute of a valid word: the word lives at index 4
    let p = program_of(&[Lit(6), Lit(4), Execute, Halt, Dup, Mul, Return]);
    check_full(&p, &[]);
    // invalid tokens
    check_full(&halted(vec![Lit(-1), Execute]), &[]);
    check_full(&halted(vec![Lit(1_000_000), Execute]), &[]);
    check_full(&halted(vec![Lit(0), Execute]), &[]); // self-loop until fuel
}

#[test]
fn return_bounds() {
    use Inst::*;
    check_full(&halted(vec![Return]), &[]); // rstack underflow
    check_full(&program_of(&[Lit(-5), ToR, Return]), &[]); // negative ret
    check_full(&program_of(&[Lit(1_000_000), ToR, Return]), &[]); // past end
                                                                  // ret == len is allowed by the bound, then the fetch traps
    check_full(&program_of(&[Lit(3), ToR, Return]), &[]);
}

#[test]
fn fuel_sweeps_across_loops() {
    for p in [
        countdown_loop(),
        do_loop_program(),
        plus_loop_program(0, 10, 3),
    ] {
        // Sweep fuel right through the whole execution: the reported
        // FuelExhausted ip must match at every cutoff.
        for fuel in 0..900 {
            check(&p, fuel, Checks::Full, &[]);
        }
    }
}

#[test]
fn falls_through_block_boundaries() {
    use Inst::*;
    // A branch target mid-straight-line code creates adjacent blocks
    // connected by fallthrough.
    let mut b = ProgramBuilder::new();
    b.entry_here();
    b.push(Lit(1));
    let mid = b.new_label();
    b.push(Lit(2));
    b.bind(mid).unwrap();
    b.push(Add);
    b.push(Dup);
    let out = b.new_label();
    b.push(Lit(10));
    b.push(Lt);
    b.branch_if_zero(out);
    b.push(Lit(1));
    b.branch(mid);
    b.bind(out).unwrap();
    b.push(Halt);
    let p = b.finish().unwrap();
    check_full(&p, &[]);
}

#[test]
fn checks_levels_agree_on_safe_programs() {
    // On programs that never underflow/overflow, every checks level
    // must produce identical results in both engines.
    for checks in [Checks::Full, Checks::NoUnderflow, Checks::None] {
        check(&countdown_loop(), 1_000_000, checks, &[]);
        check(&do_loop_program(), 1_000_000, checks, &[]);
        check(&plus_loop_program(0, 10, 3), 1_000_000, checks, &[]);
    }
}

#[test]
fn degraded_mode_is_behaviorally_identical() {
    // With the JIT forced unavailable the public entry point must give
    // byte-identical results, not an error.
    use Inst::*;
    let before = stackcache_jit::stats().fallbacks;
    stackcache_jit::force_unavailable(true);
    assert!(!stackcache_jit::available());
    // Programs no other test compiles — a block-cache hit would serve
    // already-mapped native code and mask the degradation path.
    check_full(
        &halted(vec![Lit(111_222), Lit(333_444), Add, Dup, Mul]),
        &[],
    );
    check_full(&halted(vec![Lit(987_654), Dup, Add, Lit(3), Mod]), &[]);
    stackcache_jit::force_unavailable(false);
    let after = stackcache_jit::stats().fallbacks;
    assert!(
        after > before,
        "degraded runs must count jit_fallbacks_total"
    );
}

/// The deopt sites of one run of `p` from `proto` on a private
/// compilation (the global block cache is shared with other tests).
fn deopt_sites(p: &Program, checks: Checks, proto: &Machine) -> Vec<DeoptSite> {
    let Ok(jp) = JitProgram::compile(p, checks) else {
        return Vec::new(); // no native backend: nothing to profile
    };
    let mut m = proto.clone();
    let _ = run_compiled(&jp, p, &mut m, 1_000_000, checks);
    jp.deopt_sites()
}

const CHECKS: [Checks; 3] = [Checks::Full, Checks::NoUnderflow, Checks::None];

/// Each `.` runs natively from an empty output buffer: the driver's
/// spare output room covers the template's 21-byte guard, so not even
/// the first `.` deopts to grow the buffer.
#[test]
fn dot_formats_every_magnitude_natively() {
    use Inst::*;
    let mut values = vec![0, 1, -1, i64::MAX, i64::MIN + 1];
    for k in 1..=18 {
        values.push(10i64.pow(k));
        values.push(-(10i64.pow(k)));
        values.push(10i64.pow(k) - 1);
    }
    let proto = Machine::with_memory(MEM);
    for n in values {
        let p = halted(vec![Lit(n), Dot]);
        check_full(&p, &[]);
        assert_eq!(deopt_sites(&p, Checks::Full, &proto), [], "`.` of {n}");
    }
    // Several numbers with a live cache below them.
    check_full(
        &halted(vec![Lit(7), Lit(-42), Lit(1 << 40), Dot, Dot, Dot, Lit(3)]),
        &[],
    );
}

#[test]
fn dot_of_min_deoptimizes() {
    use Inst::*;
    let p = halted(vec![Lit(5), Lit(i64::MIN), Dot, Dot]);
    check_full(&p, &[]);
    if stackcache_jit::available() {
        assert_eq!(
            deopt_sites(&p, Checks::Full, &Machine::with_memory(MEM)),
            [DeoptSite {
                ip: 2,
                inst: Dot,
                count: 1
            }]
        );
    }
}

#[test]
fn type_ranges_and_traps() {
    use Inst::*;
    let proto = {
        let mut m = Machine::with_memory(MEM);
        for (i, b) in b"stack caching".iter().enumerate() {
            assert!(m.store_byte(i as i64, i64::from(*b)));
        }
        m.store_byte(MEM as i64 - 1, i64::from(b'!'));
        m
    };
    let end = MEM as i64;
    for checks in CHECKS {
        // empty ranges anywhere: nothing read, no trap, no deopt
        for addr in [-5, 0, end, end + 7, 1 << 40, i64::MIN] {
            let p = halted(vec![Lit(addr), Lit(0), Type]);
            check_from(&p, 1_000, checks, &proto);
            assert_eq!(deopt_sites(&p, checks, &proto), [], "empty type at {addr}");
        }
        for (addr, len) in [
            (0, 13),      // whole string
            (6, 7),       // a suffix
            (end - 1, 1), // the last byte
            (0, end),     // all of memory
            (0, -3),      // negative length
            (-1, 2),      // starts below memory
            (end, 1),     // starts at the end
            (end + 7, 1), // starts past the end
            (1 << 40, 1),
            (i64::MAX, 2),
            (end - 3, 10), // crosses the end: partial output, then the trap
            (end - 1, i64::MAX),
            (5, i64::MAX),
        ] {
            check_from(
                &halted(vec![Lit(addr), Lit(len), Type]),
                1_000,
                checks,
                &proto,
            );
        }
    }
}

#[test]
fn output_grows_from_a_zero_capacity_buffer() {
    use Inst::*;
    // 400 numbers and strings from a do-loop in one chained native
    // stretch: the buffer starts empty and must grow on the way.
    let mut b = ProgramBuilder::new();
    b.entry_here();
    b.push(Lit(400));
    b.push(Lit(0));
    b.push(DoSetup);
    let top = b.new_label();
    b.bind(top).unwrap();
    b.push(LoopI);
    b.push(Lit(1_000_003));
    b.push(Mul);
    b.push(Dot);
    b.push(Lit(0));
    b.push(Lit(5));
    b.push(Type);
    b.loop_inc(top);
    b.push(Halt);
    let p = b.finish().unwrap();
    let mut proto = Machine::with_memory(MEM);
    for i in 0..5 {
        proto.store_byte(i, i64::from(b'a') + i);
    }
    assert_eq!(proto.output().len(), 0);
    for checks in CHECKS {
        check_from(&p, 1_000_000, checks, &proto);
    }
}

#[test]
fn execute_targets_tokens_and_return_room() {
    use Inst::*;
    // 0: lit 5; 1: lit 5; 2: execute; 3: halt; 4: lit 1; 5: lit 2;
    // 6: add; 7: exit -- token 5 lands mid-block (the block starts at 4).
    let mid = program_of(&[Lit(5), Lit(5), Execute, Halt, Lit(1), Lit(2), Add, Return]);
    // token 4 is a leader
    let leader = program_of(&[Lit(9), Lit(4), Execute, Halt, Lit(1), Add, Return]);
    for checks in CHECKS {
        for p in [&mid, &leader] {
            check(p, 1_000, checks, &[]);
        }
        for token in [-1, 7, 1 << 40, i64::MIN] {
            let p = program_of(&[Lit(token), Execute, Halt]);
            check(&p, 1_000, checks, &[]);
        }
        // token == len
        check(&program_of(&[Lit(3), Execute, Halt]), 1_000, checks, &[]);
    }
    // A full return stack: the push of the return address traps. (At
    // Checks::None overflow is excluded by the admission proof.)
    for checks in [Checks::Full, Checks::NoUnderflow] {
        for limit in [0, 1, 2] {
            let mut proto = Machine::with_memory(MEM);
            proto.set_rstack_limit(limit);
            check_from(&mid, 1_000, checks, &proto);
            // self-execution: overflows after `limit` frames
            let p = program_of(&[Lit(0), Execute]);
            check_from(&p, 1_000, checks, &proto);
        }
    }
}
