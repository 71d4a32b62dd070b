//! The file-based regression corpus: programs that once exposed a
//! divergence, stored as `vm::asm` text under `tests/corpus/` at the
//! workspace root and replayed deterministically before any fuzzing.
//!
//! Programs whose point is a trap live in `tests/corpus/traps/`: every
//! program directly under `tests/corpus/` must also pass the static
//! analysis gate as depth-safe, which a program that underflows cannot.

use std::fs;
use std::path::{Path, PathBuf};

use stackcache_vm::{asm, Program};

use crate::check::Divergence;

/// The workspace-level corpus directory (`tests/corpus/`).
#[must_use]
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// The trapping programs' directory (`tests/corpus/traps/`).
#[must_use]
pub fn traps_dir() -> PathBuf {
    corpus_dir().join("traps")
}

/// All corpus programs, sorted by file name for deterministic replay
/// order, with their file names; the trapping programs are not included.
///
/// # Panics
///
/// Panics if a corpus file exists but fails to parse — a broken corpus
/// entry must never be silently skipped.
#[must_use]
pub fn load_all() -> Vec<(String, Program)> {
    load_dir(&corpus_dir())
}

/// The programs in `dir`, as [`load_all`] reads them.
///
/// # Panics
///
/// As [`load_all`].
#[must_use]
pub fn load_dir(dir: &Path) -> Vec<(String, Program)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "asm"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("corpus file {}: {e}", path.display()));
            let program = asm::assemble(&text)
                .unwrap_or_else(|e| panic!("corpus file {}: {e:?}", path.display()));
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                program,
            )
        })
        .collect()
}

/// Replay every corpus program, the trapping ones included, through the
/// full oracle; returns how many programs were replayed.
///
/// # Panics
///
/// As [`replay_with`].
pub fn replay_all(fuel: u64) -> usize {
    replay_with(fuel, |p| crate::check::cross_validate(p, fuel).map(drop))
}

/// Replay every corpus program, the trapping ones included, through
/// `check`; returns how many programs were replayed.
///
/// A diverging entry is already in the corpus, so nothing is saved: the
/// report names the entry instead.
///
/// # Panics
///
/// Panics with the entry's file name and a first-divergence report if
/// `check` finds a divergence.
pub fn replay_with(fuel: u64, check: impl Fn(&Program) -> Result<(), Box<Divergence>>) -> usize {
    let mut programs = load_all();
    programs.extend(load_dir(&traps_dir()));
    for (name, p) in &programs {
        eprintln!("corpus: replaying {name}");
        if let Err(d) = check(p) {
            crate::check::panic_with_report(p, fuel, d, &format!("\ncorpus entry {name} diverges"));
        }
    }
    programs.len()
}

/// Save a diverging program into the corpus (best effort), named by a
/// stable hash of its disassembly so repeated failures do not pile up.
#[must_use]
pub fn save_failure(program: &Program) -> Option<PathBuf> {
    let text = asm::disassemble(program);
    let path = corpus_dir().join(format!("failure-{:016x}.asm", fnv1a(text.as_bytes())));
    fs::create_dir_all(corpus_dir()).ok()?;
    fs::write(&path, &text).ok()?;
    Some(path)
}

/// FNV-1a 64-bit, for stable corpus file names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
