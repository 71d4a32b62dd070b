//! Interprocedural stack-depth analysis.
//!
//! Static stack caching leans on a property that well-formed stack code
//! has anyway: every program point is reached with a consistent stack
//! discipline. This module checks that property ahead of time — it
//! computes, for every *word* (call target) of a program, the net
//! data-stack effect of calling it, verifies that all control-flow paths
//! agree, and reports the most negative relative depth each word reaches
//! (how many cells it consumes from its caller).
//!
//! The analysis is a fixpoint over the call graph: a word's effect is
//! `Unknown` until every word it calls has resolved (directly or mutually
//! recursive words stay `Unknown` — their effect is not derivable without
//! solving path equations); paths that disagree make the word
//! `Inconsistent`, which usually indicates a stack bug in the source
//! program.

use std::collections::BTreeMap;

use crate::inst::{EffectKind, Inst};
use crate::program::Program;

/// The derived stack effect of one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordEffect {
    /// All paths agree: calling the word changes the depth by `net`, and
    /// it reads at most `consumes` cells belonging to the caller.
    Net {
        /// Net depth change of a call.
        net: i32,
        /// Deepest relative reach below the entry depth.
        consumes: u32,
    },
    /// Not derivable (recursion, `execute`, `?dup`, or an unresolved
    /// callee).
    Unknown,
    /// Control-flow paths disagree on the depth. Either a stack bug, or
    /// the deliberate Forth variable-arity idiom (`( x -- y true | false )`)
    /// — callers of such words inherit the flag.
    Inconsistent,
}

/// Analysis result for a program.
#[derive(Debug, Clone)]
pub struct DepthAnalysis {
    /// Effect per word entry point (instruction index), sorted.
    pub words: BTreeMap<usize, WordEffect>,
}

impl DepthAnalysis {
    /// `true` if no word is [`WordEffect::Inconsistent`].
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        !self
            .words
            .values()
            .any(|e| matches!(e, WordEffect::Inconsistent))
    }

    /// The effect of the word starting at `entry`.
    #[must_use]
    pub fn effect_of(&self, entry: usize) -> Option<WordEffect> {
        self.words.get(&entry).copied()
    }
}

/// Per-instruction net effect, or `None` when it is data-dependent.
fn inst_net(inst: &Inst) -> Option<i32> {
    let eff = inst.effect();
    match eff.kind {
        EffectKind::DynamicShuffle => None, // ?dup
        _ => Some(eff.net()),
    }
}

/// Analyze every word of `program` (call targets plus the entry point).
///
/// Words are analyzed over the blocks reachable from their entry without
/// following call edges; `execute` and `?dup` make a word `Unknown`.
#[must_use]
pub fn analyze(program: &Program) -> DepthAnalysis {
    analyze_counted(program).0
}

/// Where a word stands in [`analyze_counted`]'s callee-first search.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Unvisited,
    /// On the search stack: waiting for a callee to settle.
    Waiting,
    Settled,
}

/// [`analyze`], also returning how many word walks it took.
///
/// Words settle callee first: a walk that meets an unvisited callee
/// stops, and that callee is walked before the caller is walked again.
/// A callee still waiting is on a call cycle with the caller, and a
/// cycle never resolves, so it reads as `Unknown`. Each word is walked
/// once plus once per callee it waited on — linear in the call graph,
/// where re-walking every unresolved word until nothing changes would
/// be quadratic in a call chain's length.
fn analyze_counted(program: &Program) -> (DepthAnalysis, usize) {
    let insts = program.insts();
    let mut entries: Vec<usize> = insts
        .iter()
        .filter_map(|i| match i {
            Inst::Call(t) => Some(*t as usize),
            _ => None,
        })
        .collect();
    entries.push(program.entry());
    entries.sort_unstable();
    entries.dedup();

    // effect and status per word, dense by entry ip (only entries are
    // ever read)
    let words = entries.last().map_or(0, |&e| e + 1);
    let mut effects: Vec<WordEffect> = vec![WordEffect::Unknown; words];
    let mut status = vec![Status::Unvisited; words];
    let mut depth_at: Vec<Option<i32>> = vec![None; insts.len()];
    let mut visited: Vec<usize> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut walks = 0;

    for &root in &entries {
        if status[root] != Status::Unvisited {
            continue;
        }
        status[root] = Status::Waiting;
        stack.push(root);
        while let Some(&word) = stack.last() {
            walks += 1;
            let walk = analyze_word(insts, word, &effects, &status, &mut depth_at, &mut visited);
            for ip in visited.drain(..) {
                depth_at[ip] = None;
            }
            match walk {
                Walk::Blocked(callee) => {
                    status[callee] = Status::Waiting;
                    stack.push(callee);
                }
                Walk::Done(effect) => {
                    effects[word] = effect;
                    status[word] = Status::Settled;
                    stack.pop();
                }
            }
        }
    }

    let analysis = DepthAnalysis {
        words: entries.iter().map(|&e| (e, effects[e])).collect(),
    };
    (analysis, walks)
}

/// The outcome of one word walk.
enum Walk {
    /// The word's effect, final.
    Done(WordEffect),
    /// The walk met this callee before it was visited.
    Blocked(usize),
}

/// Walk one word with a depth-propagating worklist, recording the
/// relative depth at each visited instruction in `depth_at` (all `None`
/// on entry) and the instruction in `visited`, so the caller can reset
/// just those cells.
fn analyze_word(
    insts: &[Inst],
    entry: usize,
    effects: &[WordEffect],
    status: &[Status],
    depth_at: &mut [Option<i32>],
    visited: &mut Vec<usize>,
) -> Walk {
    let mut work: Vec<(usize, i32)> = vec![(entry, 0)];
    let mut returns: Vec<i32> = Vec::new();
    let mut min_depth: i32 = 0;

    while let Some((mut ip, mut depth)) = work.pop() {
        loop {
            if ip >= insts.len() {
                return Walk::Done(WordEffect::Inconsistent); // ran off the end
            }
            match depth_at[ip] {
                Some(d) if d == depth => break, // already visited, consistent
                Some(_) => return Walk::Done(WordEffect::Inconsistent),
                None => {
                    depth_at[ip] = Some(depth);
                    visited.push(ip);
                }
            }
            let inst = insts[ip];
            match inst {
                Inst::Execute => return Walk::Done(WordEffect::Unknown),
                Inst::Call(t) => {
                    let t = t as usize;
                    if status[t] == Status::Unvisited {
                        return Walk::Blocked(t);
                    }
                    match effects[t] {
                        WordEffect::Net { net, consumes } => {
                            min_depth = min_depth.min(depth - consumes as i32);
                            depth += net;
                            ip += 1;
                        }
                        effect => return Walk::Done(effect),
                    }
                }
                Inst::Return => {
                    returns.push(depth);
                    break;
                }
                Inst::Halt => break,
                Inst::Branch(t) => {
                    ip = t as usize;
                }
                Inst::BranchIfZero(t) => {
                    depth -= 1;
                    min_depth = min_depth.min(depth);
                    work.push((t as usize, depth));
                    ip += 1;
                }
                Inst::QDoSetup(t) => {
                    depth -= 2;
                    min_depth = min_depth.min(depth);
                    work.push((t as usize, depth));
                    ip += 1;
                }
                Inst::LoopInc(t) => {
                    work.push((t as usize, depth));
                    ip += 1;
                    if ip >= insts.len() {
                        break;
                    }
                }
                Inst::PlusLoopInc(t) => {
                    depth -= 1;
                    min_depth = min_depth.min(depth);
                    work.push((t as usize, depth));
                    ip += 1;
                }
                other => match inst_net(&other) {
                    Some(net) => {
                        // consumption happens before production
                        min_depth = min_depth.min(depth - i32::from(other.effect().pops));
                        depth += net;
                        ip += 1;
                    }
                    None => return Walk::Done(WordEffect::Unknown),
                },
            }
        }
    }

    returns.sort_unstable();
    returns.dedup();
    Walk::Done(match returns.len() {
        0 => {
            // a word that only halts (the boot stub): treat as net 0
            WordEffect::Net {
                net: 0,
                consumes: min_depth.unsigned_abs(),
            }
        }
        1 => WordEffect::Net {
            net: returns[0],
            consumes: min_depth.unsigned_abs(),
        },
        _ => WordEffect::Inconsistent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn square_program() -> (Program, usize) {
        let mut b = ProgramBuilder::new();
        let w = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(3));
        b.call(w);
        b.push(Inst::Dot);
        b.push(Inst::Halt);
        b.bind(w).unwrap();
        let entry = b.here();
        b.push(Inst::Dup);
        b.push(Inst::Mul);
        b.push(Inst::Return);
        (b.finish().unwrap(), entry)
    }

    #[test]
    fn simple_word_effect() {
        let (p, w) = square_program();
        let a = analyze(&p);
        assert!(a.is_consistent());
        // square: ( n -- n^2 ): net 0, reads one caller cell
        assert_eq!(
            a.effect_of(w),
            Some(WordEffect::Net {
                net: 0,
                consumes: 1
            })
        );
        // main consumes nothing from "its caller"
        assert_eq!(
            a.effect_of(p.entry()),
            Some(WordEffect::Net {
                net: 0,
                consumes: 0
            })
        );
    }

    #[test]
    fn word_with_branches_is_consistent() {
        // : sign 0< if -1 else 1 then ;  net 0
        let mut b = ProgramBuilder::new();
        let w = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(-5));
        b.call(w);
        b.push(Inst::Halt);
        b.bind(w).unwrap();
        let entry = b.here();
        b.push(Inst::ZeroLt);
        let else_l = b.new_label();
        let end_l = b.new_label();
        b.branch_if_zero(else_l);
        b.push(Inst::Lit(-1));
        b.branch(end_l);
        b.bind(else_l).unwrap();
        b.push(Inst::Lit(1));
        b.bind(end_l).unwrap();
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        let a = analyze(&p);
        assert!(a.is_consistent());
        assert_eq!(
            a.effect_of(entry),
            Some(WordEffect::Net {
                net: 0,
                consumes: 1
            })
        );
    }

    #[test]
    fn unbalanced_arms_are_flagged() {
        // if-arm pushes two, else-arm pushes one: inconsistent join
        let mut b = ProgramBuilder::new();
        let w = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(1));
        b.call(w);
        b.push(Inst::Halt);
        b.bind(w).unwrap();
        let entry = b.here();
        let else_l = b.new_label();
        let end_l = b.new_label();
        b.branch_if_zero(else_l);
        b.push(Inst::Lit(1));
        b.push(Inst::Lit(2));
        b.branch(end_l);
        b.bind(else_l).unwrap();
        b.push(Inst::Lit(1));
        b.bind(end_l).unwrap();
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        let a = analyze(&p);
        assert!(!a.is_consistent());
        assert_eq!(a.effect_of(entry), Some(WordEffect::Inconsistent));
    }

    #[test]
    fn calls_compose_transitively() {
        // : a 1 ; : b a a + ; : c b b * drop ;
        let mut b = ProgramBuilder::new();
        let (wa, wb, wc) = (b.new_label(), b.new_label(), b.new_label());
        b.entry_here();
        b.call(wc);
        b.push(Inst::Halt);
        b.bind(wa).unwrap();
        let ea = b.here();
        b.push(Inst::Lit(1));
        b.push(Inst::Return);
        b.bind(wb).unwrap();
        let eb = b.here();
        b.call(wa);
        b.call(wa);
        b.push(Inst::Add);
        b.push(Inst::Return);
        b.bind(wc).unwrap();
        let ec = b.here();
        b.call(wb);
        b.call(wb);
        b.push(Inst::Mul);
        b.push(Inst::Drop);
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        let a = analyze(&p);
        assert!(a.is_consistent());
        assert_eq!(
            a.effect_of(ea),
            Some(WordEffect::Net {
                net: 1,
                consumes: 0
            })
        );
        assert_eq!(
            a.effect_of(eb),
            Some(WordEffect::Net {
                net: 1,
                consumes: 0
            })
        );
        assert_eq!(
            a.effect_of(ec),
            Some(WordEffect::Net {
                net: 0,
                consumes: 0
            })
        );
    }

    #[test]
    fn recursion_is_unknown() {
        let mut b = ProgramBuilder::new();
        let w = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(5));
        b.call(w);
        b.push(Inst::Halt);
        b.bind(w).unwrap();
        let entry = b.here();
        b.push(Inst::OneMinus);
        b.push(Inst::Dup);
        let done = b.new_label();
        b.branch_if_zero(done);
        b.call(w); // recursive
        b.bind(done).unwrap();
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        let a = analyze(&p);
        assert_eq!(a.effect_of(entry), Some(WordEffect::Unknown));
    }

    /// `w_k: call w_{k+1}; return` for `words` words, called from a boot
    /// stub, with `padding` unreachable instructions after the stub.
    fn call_chain(words: usize, padding: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let labels: Vec<_> = (0..words).map(|_| b.new_label()).collect();
        b.entry_here();
        b.call(labels[0]);
        b.push(Inst::Halt);
        for _ in 0..padding {
            b.push(Inst::Nop);
        }
        for (k, &w) in labels.iter().enumerate() {
            b.bind(w).unwrap();
            if let Some(&next) = labels.get(k + 1) {
                b.call(next);
            }
            b.push(Inst::Return);
        }
        b.finish().unwrap()
    }

    #[test]
    fn long_call_chains_cost_what_their_words_visit() {
        // The unreachable padding makes the program long: a pass that
        // reset one cell per instruction for every word it walked would
        // take minutes here.
        const WORDS: usize = 500;
        let p = call_chain(WORDS, 1_000_000);
        let start = std::time::Instant::now();
        let a = analyze(&p);
        let took = start.elapsed();
        assert!(a.is_consistent());
        assert_eq!(
            a.effect_of(p.entry()),
            Some(WordEffect::Net {
                net: 0,
                consumes: 0
            })
        );
        assert!(
            took < std::time::Duration::from_secs(10),
            "depth pass over a {WORDS}-word chain took {took:?}"
        );
    }

    #[test]
    fn call_chains_take_walks_linear_in_their_length() {
        // Each word waits on its callee once: two walks per word.
        let (short, short_walks) = analyze_counted(&call_chain(4_000, 0));
        let (long, long_walks) = analyze_counted(&call_chain(8_000, 0));
        for a in [&short, &long] {
            assert!(a.words.values().all(|e| *e
                == WordEffect::Net {
                    net: 0,
                    consumes: 0
                }));
        }
        assert!(short_walks <= 2 * 4_001 + 1, "{short_walks} walks");
        assert!(
            long_walks <= 2 * short_walks + 2,
            "8,000 words took {long_walks} walks, 4,000 took {short_walks}"
        );
    }

    #[test]
    fn mutual_recursion_stays_unknown_and_its_callers_too() {
        // entry: call a; halt   a: call b; return   b: call a; return
        let mut b = ProgramBuilder::new();
        let (wa, wb) = (b.new_label(), b.new_label());
        b.entry_here();
        b.call(wa);
        b.push(Inst::Halt);
        b.bind(wa).unwrap();
        b.call(wb);
        b.push(Inst::Return);
        b.bind(wb).unwrap();
        b.call(wa);
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        let a = analyze(&p);
        assert!(a.words.values().all(|e| *e == WordEffect::Unknown));
    }

    #[test]
    fn loops_are_depth_neutral() {
        // : sum 0 10 0 (do) i + (loop) ;  -- net +1
        let mut b = ProgramBuilder::new();
        let w = b.new_label();
        b.entry_here();
        b.call(w);
        b.push(Inst::Halt);
        b.bind(w).unwrap();
        let entry = b.here();
        b.push(Inst::Lit(0));
        b.push(Inst::Lit(10));
        b.push(Inst::Lit(0));
        b.push(Inst::DoSetup);
        let top = b.new_label();
        b.bind(top).unwrap();
        b.push(Inst::LoopI);
        b.push(Inst::Add);
        b.loop_inc(top);
        b.push(Inst::Return);
        let p = b.finish().unwrap();
        let a = analyze(&p);
        assert!(a.is_consistent());
        assert_eq!(
            a.effect_of(entry),
            Some(WordEffect::Net {
                net: 1,
                consumes: 0
            })
        );
    }
}
