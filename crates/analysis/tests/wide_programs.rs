//! Programs with thousands of words: what `analyze` keeps per word must
//! grow with the points that word reaches, not with the program's length.
//! A request frame can carry a program of about 100k instructions, so a
//! per-word copy of a per-instruction table would cost gigabytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use stackcache_analysis::{analyze, Verdict};
use stackcache_vm::{Inst, ProgramBuilder};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` is passed on.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A complete binary tree of words: word `k` calls words `2k` and
/// `2k + 1` where they exist, the leaves are bare `return`s, and the entry
/// calls word 1. Each word run discovers one new callee, so a tree
/// reaches every word within the quick budget's rounds, which one word
/// calling all the others would not. The unreachable padding makes the
/// program long without adding points. This file holds one test, so
/// nothing else allocates while it measures.
#[test]
fn a_wide_call_tree_is_analyzed_in_memory_linear_in_the_program() {
    const WORDS: usize = 2_047;
    const PADDING: usize = 20_000;
    let mut b = ProgramBuilder::new();
    // words[k] for k in 1..=WORDS; index 0 is unused
    let words: Vec<_> = (0..=WORDS).map(|_| b.new_label()).collect();
    b.entry_here();
    b.call(words[1]);
    b.push(Inst::Halt);
    for _ in 0..PADDING {
        b.push(Inst::Nop);
    }
    for k in 1..=WORDS {
        b.bind(words[k]).unwrap();
        for child in [2 * k, 2 * k + 1] {
            if child <= WORDS {
                b.call(words[child]);
            }
        }
        b.push(Inst::Return);
    }
    let p = b.finish().unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let a = analyze(&p, None);
    let grew = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(a.proof.verdict, Verdict::Total, "{:?}", a.proof);
    assert_eq!(a.words.len(), WORDS + 1);
    // A program-length table kept per word would be
    // (WORDS + 1) * p.len() * 8 bytes, about 390 MB here.
    assert!(
        grew < 32 << 20,
        "analyzing {} instructions in {} words peaked {grew} bytes above the start",
        p.len(),
        WORDS + 1
    );
}
