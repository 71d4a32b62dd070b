//! Pins what `compile_static` produces for the four Fig. 20 workloads at
//! every canonical depth: the statistics and a hash of the whole compiled
//! executable (instruction stream with cache states and reconciliations,
//! the original-to-compiled remap, entry and canonical state). A change
//! to the run-time engine must not change which instructions the planner
//! eliminates or where it reconciles.

use stackcache_core::interp::compile_static;
use stackcache_workloads::{all_workloads, Scale};

/// FNV-1a 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `workload c=<canonical>: <stats> hash=<FNV-1a of the executable's Debug form>`.
const PINNED: [&str; 16] = [
    "compile c=0: original=328 compiled=322 eliminated=6 hash=7111559664ecc19f",
    "compile c=1: original=328 compiled=316 eliminated=12 hash=a860839739011db1",
    "compile c=2: original=328 compiled=307 eliminated=21 hash=7e1a6a8f50db3d36",
    "compile c=3: original=328 compiled=302 eliminated=26 hash=2e9f3bc7dedc4247",
    "gray c=0: original=153 compiled=151 eliminated=2 hash=00faf771eee8a264",
    "gray c=1: original=153 compiled=148 eliminated=5 hash=6e992835570636a6",
    "gray c=2: original=153 compiled=147 eliminated=7 hash=383bef1397d8ce35",
    "gray c=3: original=153 compiled=147 eliminated=7 hash=f5ed83ca378afdcb",
    "prims2x c=0: original=235 compiled=232 eliminated=3 hash=311223319198ecc7",
    "prims2x c=1: original=235 compiled=229 eliminated=6 hash=521f46cff55d8a9e",
    "prims2x c=2: original=235 compiled=228 eliminated=7 hash=b013aa9e8a3fdfc7",
    "prims2x c=3: original=235 compiled=228 eliminated=7 hash=0facba38d5716886",
    "cross c=0: original=124 compiled=122 eliminated=2 hash=091a1b4e5fed6275",
    "cross c=1: original=124 compiled=120 eliminated=4 hash=2383dea44a121f56",
    "cross c=2: original=124 compiled=117 eliminated=7 hash=f84f4328d5088254",
    "cross c=3: original=124 compiled=117 eliminated=7 hash=43077976542741a5",
];

#[test]
fn compile_static_output_is_pinned() {
    let mut got = Vec::new();
    for w in all_workloads(Scale::Full) {
        for c in 0..=3u8 {
            let exe = compile_static(&w.image.program, c);
            let s = exe.stats;
            let hash = fnv1a(format!("{exe:?}").as_bytes());
            got.push(format!(
                "{} c={c}: original={} compiled={} eliminated={} hash={hash:016x}",
                w.name, s.original, s.compiled, s.eliminated
            ));
        }
    }
    for (got, want) in got.iter().zip(PINNED) {
        assert_eq!(got, want, "compile_static output changed");
    }
    assert_eq!(got.len(), PINNED.len());
}
