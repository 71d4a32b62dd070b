//! The benchmark's own checks: one seed repeats its work exactly, and
//! the workloads use the caches the way they claim to.

use std::collections::BTreeMap;
use std::process::Command;

use stackcache_perfbench::inputs::churn_programs;

/// Run the benchmark binary for a fixed number of operations and return
/// its `counts` line as a map, after checking the result line.
fn counts(workload: &str, seed: u64, ops: u64) -> BTreeMap<String, u64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--ops",
            &ops.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("counts "))
        .expect("a counts line");
    line.split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k.to_string(), v.parse().expect("a count"))
        })
        .collect()
}

#[test]
fn one_seed_repeats_its_counts() {
    for (workload, ops) in [("suite", 40), ("serve", 2000), ("churn", 600)] {
        let a = counts(workload, 7, ops);
        let b = counts(workload, 7, ops);
        assert_eq!(a, b, "{workload}: two runs of seed 7 differ");
        assert!(a["attempted"] > ops, "{workload}: {a:?}");
        assert!(a["executed"] > 0, "{workload}: {a:?}");
    }
}

#[test]
fn serve_hits_and_churn_misses() {
    let serve = counts("serve", 11, 2000);
    assert_eq!(
        serve["svc.misses"], 0,
        "every serve request after warm-up is a hit: {serve:?}"
    );
    assert_eq!(
        serve["jit.compiled"], 0,
        "the pool fits the JIT block cache: {serve:?}"
    );
    let churn = counts("churn", 11, 600);
    let (hits, misses) = (churn["svc.hits"], churn["svc.misses"]);
    assert!(
        hits * 100 <= hits + misses,
        "churn hit ratio above 0.01: {churn:?}"
    );
}

#[test]
fn seeds_choose_the_churn_programs() {
    let a = churn_programs(1, 200);
    assert_eq!(a, churn_programs(1, 200), "one seed, one stream");
    let b = churn_programs(2, 200);
    assert!(
        a.iter().zip(&b).filter(|(x, y)| x == y).count() < 10,
        "seeds 1 and 2 give the same programs"
    );
    let mut texts: Vec<_> = a.iter().map(|p| p.insts().to_vec()).collect();
    texts.sort_by_key(|t| format!("{t:?}"));
    texts.dedup();
    assert_eq!(texts.len(), a.len(), "the stream repeats a program");
}
