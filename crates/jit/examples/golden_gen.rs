use stackcache_jit::{block_bytes, CacheState};
use stackcache_vm::{program_of, Checks, Inst};

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn main() {
    use Inst::*;
    let add = program_of(&[Lit(2), Add, Halt]);
    for n in 0..=3 {
        let b = block_bytes(&add, 0, 3, CacheState::canonical(n), Checks::Full);
        println!("add s{n} len={} {}", b.len(), hex(&b));
    }
    let shuffle = program_of(&[Swap, Rot, Nip, Halt]);
    for n in [0, 3] {
        let b = block_bytes(&shuffle, 0, 4, CacheState::canonical(n), Checks::Full);
        println!("shuffle s{n} len={} {}", b.len(), hex(&b));
    }
    let fetch = program_of(&[Fetch, Halt]);
    for n in [0, 1] {
        let b = block_bytes(&fetch, 0, 2, CacheState::canonical(n), Checks::Full);
        println!("fetch s{n} len={} {}", b.len(), hex(&b));
    }
    let div = program_of(&[Div, Halt]);
    let b = block_bytes(&div, 0, 2, CacheState::canonical(2), Checks::Full);
    println!("div s2 len={} {}", b.len(), hex(&b));
    let bz = program_of(&[BranchIfZero(0)]);
    let b = block_bytes(&bz, 0, 1, CacheState::canonical(1), Checks::Full);
    println!("bz s1 len={} {}", b.len(), hex(&b));
    let lp = program_of(&[LoopInc(0)]);
    let b = block_bytes(&lp, 0, 1, CacheState::canonical(0), Checks::Full);
    println!("loopinc s0 len={} {}", b.len(), hex(&b));
    // the output and indirect-call templates at every entry state
    for (name, insts) in [
        ("dot", vec![Dot, Halt]),
        ("type", vec![Type, Halt]),
        ("execute", vec![Execute]),
    ] {
        let p = program_of(&insts);
        for n in 0..=3 {
            let b = block_bytes(&p, 0, insts.len(), CacheState::canonical(n), Checks::Full);
            println!("{name} s{n} len={} {}", b.len(), hex(&b));
        }
    }
    // checks-level comparison for the same block
    for c in [Checks::Full, Checks::NoUnderflow, Checks::None] {
        let b = block_bytes(&add, 0, 3, CacheState::empty(), c);
        println!("add-{c:?} len={} {}", b.len(), hex(&b));
    }
}
