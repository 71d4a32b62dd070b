//! Corpus replays report a diverging entry by name and write nothing
//! back into the corpus: the entry is already there.

use std::fs;
use std::path::Path;

use stackcache_core::Org;
use stackcache_harness::{check_org_accounting, corpus, Fault};

const FUEL: u64 = 1_000_000;

/// Every file under `dir`, recursively, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for e in fs::read_dir(dir).expect("corpus directory").flatten() {
        let path = e.path();
        if path.is_dir() {
            out.extend(listing(&path));
        } else {
            out.push(path.display().to_string());
        }
    }
    out.sort();
    out
}

#[test]
fn a_diverging_replay_names_the_entry_and_saves_nothing() {
    let before = listing(&corpus::corpus_dir());
    let first = corpus::load_all()
        .into_iter()
        .next()
        .expect("corpus must not be empty")
        .0;
    let org = Org::minimal(4);
    // an off-by-one in the first transition diverges on every program
    let replay = std::panic::catch_unwind(|| {
        corpus::replay_with(FUEL, |p| {
            check_org_accounting(p, FUEL, &org, 4, Some(Fault { at: 1 }))
        })
    });
    let payload = replay.expect_err("the injected fault must be caught");
    let report = payload
        .downcast_ref::<String>()
        .expect("a formatted report");
    assert!(
        report.contains(&format!("corpus entry {first} diverges")),
        "{report}"
    );
    assert!(report.contains("conservation"), "{report}");
    assert_eq!(
        listing(&corpus::corpus_dir()),
        before,
        "replay wrote into the corpus"
    );
}
