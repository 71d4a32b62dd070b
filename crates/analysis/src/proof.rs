//! Safety proofs: the verdict of the abstract interpreter and the
//! admission decision that routes a program to an unchecked engine.
//!
//! A [`SafetyProof`] is *relative to the program's entry*: it records how
//! many cells the program may consume below its starting depth
//! ([`data_needed`](SafetyProof::data_needed)) and how far it can grow
//! above it ([`data_max`](SafetyProof::data_max),
//! [`rstack_max`](SafetyProof::rstack_max)). [`SafetyProof::admit`]
//! composes those relative bounds with a concrete machine's preset stacks
//! and capacity limits to pick the strongest sound [`Checks`] level.

use std::fmt;

use stackcache_vm::{Cell, Checks, Machine};

/// An upper bound that may be unbounded (recursion, unbalanced loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// A finite bound, in cells.
    Finite(i64),
    /// No finite bound could be established.
    Unbounded,
}

impl Bound {
    /// The finite value, if any.
    #[must_use]
    pub fn finite(self) -> Option<i64> {
        match self {
            Bound::Finite(v) => Some(v),
            Bound::Unbounded => None,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(v) => write!(f, "{v}"),
            Bound::Unbounded => write!(f, "∞"),
        }
    }
}

/// The overall verdict for a program started on empty stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// [`Verdict::Proven`], *and* the fuel pass established a finite
    /// dispatch bound ([`SafetyProof::fuel_bound`]): the program provably
    /// terminates, so a server granting at least that much fuel needs no
    /// deadline timer.
    Total,
    /// Every program point has finite depth bounds and no underflow is
    /// possible: all depth checks may be elided ([`Checks::None`]) on a
    /// machine whose capacity covers [`SafetyProof::data_max`].
    Proven,
    /// Underflow is impossible but growth is unbounded (e.g. input-driven
    /// recursion): underflow checks may be elided ([`Checks::NoUnderflow`])
    /// while overflow traps stay exact.
    Guarded,
    /// Some reachable instruction *definitely* underflows on every
    /// abstract path that reaches it; the offending instruction is
    /// pinpointed in [`SafetyProof::diagnostics`].
    Rejected,
    /// The analysis could not bound the program (unresolvable `execute`,
    /// return-stack indiscipline, or imprecision); checked engines only.
    Unknown,
}

impl Verdict {
    /// Short lower-case name (`total`, `proven`, `guarded`, `rejected`,
    /// `unknown`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Total => "total",
            Verdict::Proven => "proven",
            Verdict::Guarded => "guarded",
            Verdict::Rejected => "rejected",
            Verdict::Unknown => "unknown",
        }
    }
}

/// The category of a [`Lint`] — informational findings from the interval
/// pass, reported separately from the admission-relevant
/// [`SafetyProof::diagnostics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// A `?branch` whose condition is proven non-zero: never taken.
    NonzeroBranchFold,
    /// A `?branch` whose condition is always zero: the fall-through arm
    /// is unreachable.
    DeadArm,
    /// A computational instruction whose result is the same constant on
    /// every abstract path.
    ConstFoldable,
    /// A loop head where interval widening saturated an endpoint —
    /// precision was lost; a deeper budget may do better.
    WideningLoopHead,
    /// A word whose return-stack growth is unbounded: a possible
    /// unbounded-recursion site.
    UnboundedRecursion,
    /// The fuel pass proved a finite dispatch bound from the entry.
    FuelBound,
}

impl LintKind {
    /// The `stklint --deny` slug (`nonzero-branch-fold`, `dead-arm`, ...).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            LintKind::NonzeroBranchFold => "nonzero-branch-fold",
            LintKind::DeadArm => "dead-arm",
            LintKind::ConstFoldable => "const-foldable",
            LintKind::WideningLoopHead => "widening-loop-head",
            LintKind::UnboundedRecursion => "unbounded-recursion",
            LintKind::FuelBound => "fuel-bound",
        }
    }

    /// All lint kinds, for CLI enumeration.
    #[must_use]
    pub fn all() -> &'static [LintKind] {
        &[
            LintKind::NonzeroBranchFold,
            LintKind::DeadArm,
            LintKind::ConstFoldable,
            LintKind::WideningLoopHead,
            LintKind::UnboundedRecursion,
            LintKind::FuelBound,
        ]
    }
}

/// An informational finding from the interval/fuel passes, anchored to an
/// instruction with the same witness machinery as a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// The category (drives `stklint --deny`).
    pub kind: LintKind,
    /// Location, reason, and witness path.
    pub diag: Diagnostic,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.slug(), self.diag)
    }
}

/// A clippy-style finding: the offending (or unprovable) instruction,
/// the word containing it, and a witness path from the word's entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Instruction index of the finding.
    pub ip: usize,
    /// Entry index of the word containing `ip`.
    pub word: usize,
    /// Symbolic name of the word, when the program carries one.
    pub word_name: Option<String>,
    /// Mnemonic of the instruction at `ip`.
    pub inst: String,
    /// Human-readable explanation.
    pub reason: String,
    /// Instruction indices from the word's entry to `ip`, following the
    /// first abstract path that reached the finding.
    pub witness: Vec<usize>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = match &self.word_name {
            Some(n) => format!("`{n}` (entry {})", self.word),
            None => format!("word@{}", self.word),
        };
        write!(
            f,
            "`{}` at ip {} in {}: {}",
            self.inst, self.ip, word, self.reason
        )?;
        if !self.witness.is_empty() {
            let path: Vec<String> = self.witness.iter().map(ToString::to_string).collect();
            write!(f, "\n  witness: {}", path.join(" -> "))?;
        }
        Ok(())
    }
}

/// The result of whole-program abstract interpretation: depth bounds,
/// frozen-memory dependencies, and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyProof {
    /// Verdict for a run started on empty stacks.
    pub verdict: Verdict,
    /// Cells the program may pop below its entry depth (0 when it never
    /// reaches below its starting stack; `i64::MAX/4` when unprovable).
    pub data_needed: i64,
    /// Maximum data-stack growth above the entry depth.
    pub data_max: Bound,
    /// Maximum return-stack growth above the entry return-stack depth.
    pub rstack_max: Bound,
    /// `(byte address, cell value)` pairs the proof constant-folded from
    /// initial memory (deferred-word dispatch); [`SafetyProof::admit`]
    /// re-validates them against the machine it admits.
    pub frozen_deps: Vec<(Cell, Cell)>,
    /// Findings: the single definite-underflow witness for
    /// [`Verdict::Rejected`], or the lints explaining a
    /// [`Verdict::Unknown`].
    pub diagnostics: Vec<Diagnostic>,
    /// Number of words (entry points) analyzed.
    pub words_analyzed: usize,
    /// Upper bound on instruction dispatches for any run of the program
    /// (finite only with [`Verdict::Total`]).
    pub fuel_bound: Bound,
    /// Informational value-range findings: branch folds, dead arms,
    /// constant-foldable regions, widening sites, recursion sites, and
    /// the fuel bound itself.
    pub lints: Vec<Lint>,
}

impl SafetyProof {
    /// Engine stack capacities are clamped to this many cells.
    pub const ENGINE_CLAMP: i64 = stackcache_vm::stacks::DEPTH_CLAMP as i64;

    /// The strongest [`Checks`] level sound for running the proven
    /// program on `machine` (with its preset stacks and capacity limits).
    ///
    /// Returns [`Checks::Full`] whenever the proof does not cover the
    /// machine: unknown/rejected verdicts, frozen-memory mismatch, or a
    /// preset stack too shallow for [`data_needed`](Self::data_needed).
    #[must_use]
    pub fn admit(&self, machine: &Machine) -> Checks {
        if matches!(self.verdict, Verdict::Rejected | Verdict::Unknown) {
            return Checks::Full;
        }
        for &(addr, value) in &self.frozen_deps {
            if machine.load_cell(addr) != Some(value) {
                return Checks::Full;
            }
        }
        let preset = machine.stack().len() as i64;
        let rpreset = machine.rstack().len() as i64;
        if preset < self.data_needed {
            return Checks::Full;
        }
        let dlimit = (machine.stack_limit() as i64).min(Self::ENGINE_CLAMP);
        let rlimit = (machine.rstack_limit() as i64).min(Self::ENGINE_CLAMP);
        let overflow_ok = match (self.data_max, self.rstack_max) {
            (Bound::Finite(d), Bound::Finite(r)) => {
                preset.saturating_add(d) <= dlimit && rpreset.saturating_add(r) <= rlimit
            }
            _ => false,
        };
        if overflow_ok {
            Checks::None
        } else {
            Checks::NoUnderflow
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proven() -> SafetyProof {
        SafetyProof {
            verdict: Verdict::Proven,
            data_needed: 0,
            data_max: Bound::Finite(4),
            rstack_max: Bound::Finite(2),
            frozen_deps: Vec::new(),
            diagnostics: Vec::new(),
            words_analyzed: 1,
            fuel_bound: Bound::Unbounded,
            lints: Vec::new(),
        }
    }

    #[test]
    fn total_admits_like_proven() {
        let mut p = proven();
        p.verdict = Verdict::Total;
        p.fuel_bound = Bound::Finite(12);
        let m = Machine::with_memory(64);
        assert_eq!(p.admit(&m), Checks::None);
    }

    #[test]
    fn admit_elides_everything_within_capacity() {
        let m = Machine::with_memory(64);
        assert_eq!(proven().admit(&m), Checks::None);
    }

    #[test]
    fn admit_keeps_overflow_checks_when_unbounded() {
        let mut p = proven();
        p.verdict = Verdict::Guarded;
        p.data_max = Bound::Unbounded;
        let m = Machine::with_memory(64);
        assert_eq!(p.admit(&m), Checks::NoUnderflow);
    }

    #[test]
    fn admit_rejects_shallow_presets() {
        let mut p = proven();
        p.data_needed = 2;
        let m = Machine::with_memory(64);
        assert_eq!(p.admit(&m), Checks::Full);
        let mut m = Machine::with_memory(64);
        m.set_stack(&[1, 2]);
        assert_eq!(p.admit(&m), Checks::None);
    }

    #[test]
    fn admit_validates_frozen_memory() {
        let mut p = proven();
        p.frozen_deps.push((8, 42));
        let mut m = Machine::with_memory(64);
        assert_eq!(p.admit(&m), Checks::Full);
        m.store_cell(8, 42);
        assert_eq!(p.admit(&m), Checks::None);
    }
}
