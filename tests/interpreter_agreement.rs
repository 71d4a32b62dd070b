//! Cross-validation on straight-line programs: every interpreter in the
//! workspace (reference, baseline, top-of-stack, dynamically cached,
//! statically cached, fused, quickened — each plain and
//! peephole-optimized), the dynamic
//! cache accounting of the Fig. 18 organizations, and the static-caching
//! cost compiler must agree on arbitrary stack-safe programs.
//!
//! All comparison logic lives in `stackcache-harness`; this test feeds it
//! the straight-line generator over the full instruction pool.

use stackcache_harness::{assert_agreement, gen};
use stackcache_vm::Rng;

const FUEL: u64 = 1_000_000;

#[test]
fn all_engines_agree_on_straight_line_programs() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(0x1A_0000 + seed);
        let len = rng.range(1, 200);
        let choices = gen::random_choices(&mut rng, len, 100);
        let p = gen::straight_line(&choices);
        let a = assert_agreement(&p, FUEL);
        assert!(
            a.configs >= 12,
            "seed {seed}: only {} configurations",
            a.configs
        );
    }
}

/// The oracle sweeps at least the advertised configuration matrix:
/// 22 wall-clock engines (including the fused, quickened, and jit
/// engines), 8 cache organizations, 3 two-stacks
/// register files, 5 static regimes.
#[test]
fn oracle_configuration_matrix_is_complete() {
    let p = gen::straight_line(&[(0, 1), (0, 2), (2, 0)]);
    let a = assert_agreement(&p, FUEL);
    assert_eq!(a.engine_configs, 22);
    assert_eq!(a.org_configs, 8);
    assert_eq!(a.twostacks_configs, 3);
    assert_eq!(a.static_configs, 5);
    assert_eq!(a.configs, 38);
}

/// `type` across the end of memory (`tests/corpus/traps/`): the
/// reference writes the bytes up to the end, then traps at the first
/// address past it, and all 38 configurations agree with that.
#[test]
fn type_across_the_memory_end_agrees_everywhere() {
    use stackcache_harness::{corpus, cross_validate, MEMORY_BYTES};
    use stackcache_vm::{exec, Machine, VmError};
    let (_, p) = corpus::load_dir(&corpus::traps_dir())
        .into_iter()
        .find(|(name, _)| name == "type-across-the-memory-end.asm")
        .expect("corpus entry");
    let mut m = Machine::with_memory(MEMORY_BYTES);
    assert_eq!(
        exec::run(&p, &mut m, FUEL).map(|o| o.executed),
        Err(VmError::MemoryOutOfBounds {
            ip: 8,
            addr: MEMORY_BYTES as i64
        })
    );
    assert_eq!(m.output(), b"Hi");
    let a = cross_validate(&p, FUEL).unwrap_or_else(|d| panic!("{d:?}"));
    assert_eq!(a.configs, 38);
}

/// `type` of a non-empty range that starts past the end of memory
/// writes nothing and traps at its first address, in the reference and
/// in all 38 configurations.
#[test]
fn type_past_the_memory_end_agrees_everywhere() {
    use stackcache_harness::{cross_validate, MEMORY_BYTES};
    use stackcache_vm::{asm, exec, Machine, VmError};
    let end = MEMORY_BYTES as i64;
    for addr in [end + 1, end + 7, 1 << 40, i64::MAX] {
        let p = asm::assemble(&format!("entry:\n lit {addr}\n lit 1\n type\n halt\n"))
            .expect("assembles");
        let mut m = Machine::with_memory(MEMORY_BYTES);
        assert_eq!(
            exec::run(&p, &mut m, FUEL).map(|o| o.executed),
            Err(VmError::MemoryOutOfBounds { ip: 2, addr })
        );
        assert_eq!(m.output(), b"");
        let a = cross_validate(&p, FUEL).unwrap_or_else(|d| panic!("{addr}: {d:?}"));
        assert_eq!(a.configs, 38);
    }
}
