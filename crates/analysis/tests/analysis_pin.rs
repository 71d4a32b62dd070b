//! Pins what `analyze` (quick budget) and `analyze_with` at the deep
//! budget return — verdict, bounds, frozen cells, diagnostics with their
//! witness paths, lints and per-word reports — over the four Fig. 20
//! workloads, every recorded corpus and lint fixture, and seeded programs
//! from the generator families the `churn` benchmark draws from. A change
//! to the fixpoint's data structures must not change any answer.

use std::path::PathBuf;

use stackcache_analysis::{analyze, analyze_with, Analysis, AnalysisBudget, Verdict};
use stackcache_harness::{corpus, gen, MEMORY_BYTES};
use stackcache_vm::{Inst, Machine, Program, ProgramBuilder, Rng};
use stackcache_workloads::{all_workloads, Scale};

/// FNV-1a 64-bit.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Seeded programs per generator family.
const PER_FAMILY: usize = 120;

/// One pinned line per program group: how many programs, their verdicts
/// under each budget, and an FNV-1a hash of every `Analysis`'s `Debug`
/// form in order (quick, then deep, per program).
fn pin_line(group: &str, cases: &Cases) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut verdicts = [[0usize; 5]; 2];
    let deep = AnalysisBudget::deep();
    for (p, m) in cases {
        let quick = analyze(p, m.as_ref());
        let thorough = analyze_with(p, m.as_ref(), &deep);
        for (k, a) in [&quick, &thorough].into_iter().enumerate() {
            verdicts[k][verdict_slot(a)] += 1;
            fnv1a(&mut h, format!("{a:?}").as_bytes());
        }
    }
    format!(
        "{group}: n={} quick={:?} deep={:?} hash={h:016x}",
        cases.len(),
        verdicts[0],
        verdicts[1]
    )
}

/// Verdict counts in the order Total, Proven, Guarded, Unknown, Rejected.
fn verdict_slot(a: &Analysis) -> usize {
    match a.proof.verdict {
        Verdict::Total => 0,
        Verdict::Proven => 1,
        Verdict::Guarded => 2,
        Verdict::Unknown => 3,
        Verdict::Rejected => 4,
    }
}

fn lint_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/lint")
}

/// Programs with the machine each is analyzed against.
type Cases = Vec<(Program, Option<Machine>)>;

fn groups() -> Vec<(&'static str, Cases)> {
    let workloads = all_workloads(Scale::Small)
        .into_iter()
        .map(|w| {
            let m = w.image.machine();
            (w.image.program, Some(m))
        })
        .collect();
    let mut files = corpus::load_all();
    files.extend(corpus::load_dir(&corpus::traps_dir()));
    files.extend(corpus::load_dir(&lint_dir()));
    let files = files.into_iter().map(|(_, p)| (p, None)).collect();

    // the churn families: structured, memory fodder on a seeded machine,
    // call nests
    let mut rng = Rng::new(0x5eed_a11a);
    let structured: Cases = (0..PER_FAMILY)
        .map(|_| {
            let p = gen::structured_program(&mut rng);
            (p, Some(Machine::with_memory(MEMORY_BYTES)))
        })
        .collect();
    let memory: Cases = (0..PER_FAMILY)
        .map(|_| {
            let proto = gen::seeded_machine(&mut rng, MEMORY_BYTES, 6);
            let choices = gen::random_choices(&mut rng, 100, 1 << 20);
            (gen::memory_fodder(&choices, MEMORY_BYTES), Some(proto))
        })
        .collect();
    let calls: Cases = (0..PER_FAMILY)
        .map(|_| {
            let p = gen::call_nest_program(&mut rng, 4);
            (p, Some(Machine::with_memory(MEMORY_BYTES)))
        })
        .collect();
    let mut mutants = Cases::new();
    for (pool, family) in [
        (&LOOPS[..], &structured),
        (&LOOPS[..], &memory),
        (&NESTS[..], &calls),
    ] {
        for (p, m) in family {
            if let Some(p) = mutate(p, pool, &mut rng) {
                mutants.push((p, m.clone()));
            }
        }
    }
    vec![
        ("workloads", workloads),
        ("files", files),
        ("structured", structured),
        ("memory", memory),
        ("calls", calls),
        ("mutants", mutants),
    ]
}

/// Replacements for mutants of the loop-free-of-`>r` families. A target
/// of `u32::MAX` is replaced by a random instruction index.
const LOOPS: [Inst; 11] = [
    Inst::Drop,
    Inst::TwoDrop,
    Inst::Dup,
    Inst::Depth,
    Inst::FromR,
    Inst::Return,
    Inst::Execute,
    Inst::Lit(-1),
    Inst::Call(u32::MAX),
    Inst::Branch(u32::MAX),
    Inst::BranchIfZero(u32::MAX),
];

/// Replacements for call-nest mutants: no new branches, because a loop
/// around one of their `>r`s grows the return stack on every iteration.
const NESTS: [Inst; 9] = [
    Inst::Drop,
    Inst::TwoDrop,
    Inst::Dup,
    Inst::Depth,
    Inst::FromR,
    Inst::Return,
    Inst::Execute,
    Inst::Lit(-1),
    Inst::Call(u32::MAX),
];

/// `p` with one to three instructions overwritten from `pool`: programs
/// that underflow, recurse, loop, or cannot be analyzed, so the pin
/// covers rejections, widening, witnesses and poisoned words, not only
/// proofs.
fn mutate(p: &Program, pool: &[Inst], rng: &mut Rng) -> Option<Program> {
    let mut insts = p.insts().to_vec();
    let len = insts.len() as u64;
    for _ in 0..rng.range(1, 4) {
        let at = rng.range(0, insts.len());
        let t = rng.below(len) as u32;
        insts[at] = match *rng.pick(pool) {
            Inst::Lit(_) => Inst::Lit(i64::from(t)),
            i if i.target().is_some() => i.with_target(t),
            i => i,
        };
    }
    let mut b = ProgramBuilder::new();
    b.extend(insts);
    b.set_entry(p.entry());
    b.finish().ok()
}

const PINNED: [&str; 6] = [
    "workloads: n=4 quick=[0, 3, 1, 0, 0] deep=[0, 3, 1, 0, 0] hash=36cc0777a6127bde",
    "files: n=8 quick=[5, 0, 0, 0, 3] deep=[5, 0, 0, 0, 3] hash=210b3e36a5def5c1",
    "structured: n=120 quick=[120, 0, 0, 0, 0] deep=[120, 0, 0, 0, 0] hash=621deafc743d22bb",
    "memory: n=120 quick=[120, 0, 0, 0, 0] deep=[120, 0, 0, 0, 0] hash=60b8bd686c417a45",
    "calls: n=120 quick=[120, 0, 0, 0, 0] deep=[120, 0, 0, 0, 0] hash=d6676e64c0bd7cdd",
    "mutants: n=360 quick=[107, 3, 35, 137, 78] deep=[107, 3, 35, 137, 78] hash=e538a0998c6ca8ff",
];

#[test]
fn analysis_output_is_pinned() {
    let got: Vec<String> = groups()
        .iter()
        .map(|(name, cases)| pin_line(name, cases))
        .collect();
    for line in &got {
        eprintln!("{line}");
    }
    for (got, want) in got.iter().zip(PINNED) {
        assert_eq!(got, want, "analysis output changed");
    }
    assert_eq!(got.len(), PINNED.len());
}
