//! Whole-program abstract interpretation of depth bounds.
//!
//! The interpreter computes, for every reachable program point, an
//! interval of possible data-stack depths *relative to the containing
//! word's entry depth*, an exact relative return-stack frame, and a small
//! window of known top-of-stack constants. Per-word summaries (net
//! effect, consumption below entry, maximum growth) are composed over the
//! call graph to a fixpoint, seeded by `stackcache_vm::depth` effects and
//! widened on recursion. The result is a [`SafetyProof`]: either every
//! point is bounded — proving the absence of stack underflow, and of
//! overflow up to a declared capacity — or the offending instruction is
//! pinpointed with a clippy-style [`Diagnostic`].
//!
//! Four design points matter for precision on real Forth images:
//!
//! - **Value intervals.** Each tracked stack slot carries an abstract
//!   value: a constant, a non-zero fact, or a `[lo, hi]` interval.
//!   Interval transfer functions over the arithmetic/compare ops (backed
//!   by the concrete [`stackcache_vm::fold`] hooks) let the analysis fold
//!   `BranchIfZero` on proven-nonzero *arithmetic* — `c@ 1+` is in
//!   `[1, 256]` and never zero — not just on literals.
//! - **Disjunctive frames + widening.** Each point holds a bounded *set*
//!   of frames, so flag-returning words (`number?`-style) keep their
//!   variants separate until the branch consumes the flag. At loop heads,
//!   where revisits accumulate, frames with equal return-stack shape are
//!   merged element-wise and growing interval endpoints are widened to
//!   ±∞ so the fixpoint terminates.
//! - **Frozen memory.** `Lit(addr); Fetch; Execute` (deferred-word
//!   dispatch) resolves through cells that no runtime store can reach;
//!   the `(addr, value)` pairs used are recorded in the proof and
//!   re-validated at admission time.
//! - **Budgets.** All precision knobs live in an [`AnalysisBudget`]:
//!   [`AnalysisBudget::quick`] bounds admission-path latency, while
//!   [`AnalysisBudget::deep`] spends more fixpoint rounds and a larger
//!   fuel exploration so a background pass can re-prove programs the
//!   quick pass had to widen to `guarded`.

use std::collections::{BTreeMap, BTreeSet};

use stackcache_vm::{depth, fold as vmfold, Cell, Inst, Machine, Program, CELL_BYTES, FALSE, TRUE};

use crate::proof::{Bound, Diagnostic, Lint, LintKind, SafetyProof, Verdict};

/// Saturating "infinity" for depth arithmetic.
pub(crate) const INF: i64 = i64::MAX / 4;
const NEG_INF: i64 = -INF;
/// Known-constant window depth per frame.
const TOPS_WINDOW: usize = 4;
/// Maximum exact return variants per word summary.
const MAX_VARIANTS: usize = 4;

/// Precision/effort knobs for [`analyze_with`].
///
/// The service analyzes at [`AnalysisBudget::quick`] on the admission path
/// (bounded latency) and re-analyzes cached guarded artifacts at
/// [`AnalysisBudget::deep`] in the background, where the extra widening
/// head-room and fuel-exploration budget can turn a widened `guarded`
/// verdict into a finite — even fuel-bounded — one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisBudget {
    /// Point visits before depth/value intervals are widened to ±∞.
    pub widen_after: u32,
    /// Point visits before constant tracking is abandoned at that point.
    pub strip_after: u32,
    /// Maximum disjunctive frames per program point.
    pub max_frames: usize,
    /// Point visits before unmatched frames are merged element-wise into
    /// an existing frame of equal return-stack shape (loop-head interval
    /// join). Below this, revisits keep exact disjunctive frames — raising
    /// it lets counted loops unroll exactly.
    pub value_join_after: u32,
    /// Global summary-fixpoint rounds before declaring divergence.
    pub max_rounds: usize,
    /// Rounds before growing summary bounds are widened to infinity.
    pub widen_rounds: usize,
    /// Total abstract steps the fuel-bound exploration may spend.
    pub fuel_steps: usize,
    /// Maximum abstract return-stack depth during fuel exploration.
    pub fuel_calls: usize,
}

impl AnalysisBudget {
    /// The admission-path budget: tight widening for bounded latency.
    #[must_use]
    pub fn quick() -> Self {
        AnalysisBudget {
            widen_after: 12,
            strip_after: 32,
            max_frames: 8,
            value_join_after: 4,
            max_rounds: 40,
            widen_rounds: 6,
            fuel_steps: 20_000,
            fuel_calls: 64,
        }
    }

    /// The background/tooling budget: enough widening head-room to unroll
    /// counted loops of a few hundred iterations exactly.
    #[must_use]
    pub fn deep() -> Self {
        AnalysisBudget {
            widen_after: 512,
            strip_after: 768,
            max_frames: 64,
            value_join_after: 48,
            max_rounds: 160,
            widen_rounds: 24,
            fuel_steps: 2_000_000,
            fuel_calls: 256,
        }
    }
}

impl Default for AnalysisBudget {
    fn default() -> Self {
        AnalysisBudget::quick()
    }
}

fn sadd(a: i64, b: i64) -> i64 {
    if a >= INF || b >= INF {
        INF
    } else if a <= NEG_INF || b <= NEG_INF {
        NEG_INF
    } else {
        (a + b).clamp(NEG_INF, INF)
    }
}

fn bound(v: i64) -> Bound {
    if v >= INF {
        Bound::Unbounded
    } else {
        Bound::Finite(v)
    }
}

/// Abstract value for a data-stack cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AVal {
    /// Nothing known.
    Any,
    /// Known to be non-zero, magnitude unknown (flag routing).
    NonZero,
    /// Known constant.
    Const(Cell),
    /// Known to lie in the inclusive interval `[lo, hi]`.
    ///
    /// Invariant: `lo < hi` and `(lo, hi) != (Cell::MIN, Cell::MAX)` —
    /// singletons are [`AVal::Const`], the full range is [`AVal::Any`].
    /// Construct through [`AVal::range`] to maintain this.
    Range(Cell, Cell),
}

impl AVal {
    /// Normalizing interval constructor.
    pub(crate) fn range(lo: Cell, hi: Cell) -> AVal {
        if lo > hi {
            AVal::Any
        } else if lo == hi {
            AVal::Const(lo)
        } else if lo == Cell::MIN && hi == Cell::MAX {
            AVal::Any
        } else {
            AVal::Range(lo, hi)
        }
    }

    /// The inclusive bounds, when the value carries any.
    pub(crate) fn bounds(self) -> Option<(Cell, Cell)> {
        match self {
            AVal::Const(c) => Some((c, c)),
            AVal::Range(lo, hi) => Some((lo, hi)),
            AVal::Any | AVal::NonZero => None,
        }
    }

    /// `true` when the value is proven non-zero.
    pub(crate) fn nonzero(self) -> bool {
        match self {
            AVal::Const(c) => c != 0,
            AVal::NonZero => true,
            AVal::Range(lo, hi) => lo > 0 || hi < 0,
            AVal::Any => false,
        }
    }
}

/// Known values near the top of stack, bottom first: a fixed window of at
/// most [`TOPS_WINDOW`] values, kept inline so frames copy without
/// allocating.
#[derive(Debug, Clone, Copy)]
struct Tops {
    vals: [AVal; TOPS_WINDOW],
    len: u8,
}

impl PartialEq for Tops {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Tops {
    const EMPTY: Tops = Tops {
        vals: [AVal::Any; TOPS_WINDOW],
        len: 0,
    };

    fn as_slice(&self) -> &[AVal] {
        &self.vals[..usize::from(self.len)]
    }

    fn len(&self) -> usize {
        usize::from(self.len)
    }

    fn last(&self) -> Option<AVal> {
        self.as_slice().last().copied()
    }

    /// Push `v` on top, dropping the bottom value when the window is full.
    fn push(&mut self, v: AVal) {
        if self.len() == TOPS_WINDOW {
            self.vals.copy_within(1.., 0);
            self.len -= 1;
        }
        self.vals[self.len()] = v;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<AVal> {
        let v = self.last()?;
        self.len -= 1;
        Some(v)
    }

    fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.len = len as u8;
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Drop uninformative bottom entries so equal knowledge compares equal.
    fn trim_bottom(&mut self) {
        let any = self
            .as_slice()
            .iter()
            .take_while(|&&v| v == AVal::Any)
            .count();
        let len = self.len();
        self.vals.copy_within(any..len, 0);
        self.len -= any as u8;
    }
}

/// One disjunctive abstract frame at a program point.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Lower bound of data depth relative to word entry.
    dlo: i64,
    /// Upper bound of data depth relative to word entry.
    dhi: i64,
    /// Known values near the top (`last()` is the top of stack).
    tops: Tops,
    /// Exact return-stack cells pushed since word entry.
    r: usize,
}

impl Frame {
    const ENTRY: Frame = Frame {
        dlo: 0,
        dhi: 0,
        tops: Tops::EMPTY,
        r: 0,
    };

    fn push(&mut self, v: AVal) {
        self.dlo = sadd(self.dlo, 1);
        self.dhi = sadd(self.dhi, 1);
        self.tops.push(v);
    }

    fn pop(&mut self) -> AVal {
        self.dlo = sadd(self.dlo, -1);
        self.dhi = sadd(self.dhi, -1);
        self.tops.pop().unwrap_or(AVal::Any)
    }
}

/// Joined per-point facts used for classification and reporting.
#[derive(Debug, Clone, Copy)]
struct Point {
    /// Joined lower depth bound (relative to word entry).
    dlo: i64,
    /// Joined upper depth bound.
    dhi: i64,
    /// Cells this instruction demands on the data stack (pops, or callee
    /// consumption for calls).
    need: i64,
    /// Maximum depth reached while executing this instruction (includes
    /// callee growth at call sites).
    peak: i64,
    /// Maximum return-stack growth at this instruction (relative frame
    /// plus return address and callee growth at call sites).
    rpeak: i64,
}

impl Point {
    fn new() -> Self {
        Point {
            dlo: INF,
            dhi: NEG_INF,
            need: 0,
            peak: NEG_INF,
            rpeak: 0,
        }
    }
}

/// Per-word analysis summary composed over the call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Summary {
    /// Exact `(net, top)` return variants (empty when collapsed).
    variants: Vec<(i64, AVal)>,
    /// Joined net-effect interval over all returns.
    net_lo: i64,
    net_hi: i64,
    /// Whether any return is reachable.
    has_return: bool,
    /// Cells the word may pop below its entry depth (transitive).
    consumes: i64,
    /// Deepest point at which `consumes` was established.
    consumes_at: Option<(usize, usize)>,
    /// Definite demand: `> 0` means some reachable point underflows even
    /// at the maximum possible depth (transitive).
    dd: i64,
    /// The point establishing `dd`.
    dd_at: Option<(usize, usize)>,
    /// Maximum data growth above entry (transitive; may be [`INF`]).
    grow: i64,
    /// Maximum return-stack growth (transitive; may be [`INF`]).
    r_grow: i64,
    /// Set when the word could not be analyzed: `(ip, reason)`.
    unknown: Option<(usize, String)>,
}

impl Summary {
    fn poisoned(ip: usize, reason: String) -> Self {
        Summary {
            variants: Vec::new(),
            net_lo: NEG_INF,
            net_hi: INF,
            has_return: true,
            consumes: INF,
            consumes_at: None,
            dd: NEG_INF,
            dd_at: None,
            grow: INF,
            r_grow: INF,
            unknown: Some((ip, reason)),
        }
    }

    fn provisional(effect: depth::WordEffect) -> Option<Self> {
        match effect {
            depth::WordEffect::Net { net, consumes } => Some(Summary {
                variants: vec![(i64::from(net), AVal::Any)],
                net_lo: i64::from(net),
                net_hi: i64::from(net),
                has_return: true,
                consumes: i64::from(consumes),
                consumes_at: None,
                dd: NEG_INF,
                dd_at: None,
                grow: INF,
                r_grow: INF,
                unknown: None,
            }),
            _ => None,
        }
    }
}

/// Statically frozen memory: byte ranges no runtime store can write.
struct FrozenMem {
    ranges: Vec<(Cell, Cell)>,
    all_mutable: bool,
}

impl FrozenMem {
    fn compute(p: &Program) -> Self {
        let mut leaders = None;
        let mut ranges = Vec::new();
        let mut all_mutable = false;
        for (ip, inst) in p.insts().iter().enumerate() {
            let width = match inst {
                Inst::Store | Inst::PlusStore => CELL_BYTES as Cell,
                Inst::CStore => 1,
                _ => continue,
            };
            // The address is known only when the store directly follows
            // the Lit producing it (no branch can land between them).
            let leaders = leaders.get_or_insert_with(|| p.leaders());
            if ip > 0 && leaders.binary_search(&ip).is_err() {
                if let Inst::Lit(a) = p.insts()[ip - 1] {
                    ranges.push((a, width));
                    continue;
                }
            }
            all_mutable = true;
        }
        FrozenMem {
            ranges,
            all_mutable,
        }
    }

    fn cell_frozen(&self, addr: Cell) -> bool {
        if self.all_mutable || addr < 0 {
            return false;
        }
        let w = CELL_BYTES as Cell;
        !self
            .ranges
            .iter()
            .any(|&(s, len)| s < addr.saturating_add(w) && addr < s.saturating_add(len))
    }
}

/// Per-word analysis output, kept from a word's latest run.
struct WordResult {
    summary: Summary,
    /// `(ip, first predecessor)` for every point the run reached from
    /// another, in ascending `ip` order: what witness paths walk.
    preds: Vec<(usize, usize)>,
    /// `(ip, data-stack demand)` for every point the run reached, in
    /// ascending `ip` order.
    needs: Vec<(usize, i64)>,
    /// Frozen `(address, value)` cells the run resolved, sorted and unique.
    deps: Vec<(Cell, Cell)>,
    /// `(kind, ip, folded value)`; the reason text is rendered only for
    /// the final results (see [`lint_reason`]).
    lints: Vec<(LintKind, usize, Cell)>,
}

/// Marker in [`Tables::preds`]: no predecessor recorded.
const NO_PRED: usize = usize::MAX;

/// The per-point tables of one word run, dense by `ip` (one slot past the
/// last instruction, where a path falls off the program). Allocated once
/// per [`analyze_with`]; a run resets only the points it reached.
struct Tables {
    /// Disjunctive frames per point.
    frames: Vec<Vec<Frame>>,
    /// Changing joins per point.
    visits: Vec<u32>,
    points: Vec<Point>,
    /// First predecessor per point, [`NO_PRED`] if unreached.
    preds: Vec<usize>,
    /// Per-branch fold consistency: `None` = never stepped, `Some(Some(true))`
    /// = always taken (zero condition), `Some(Some(false))` = never taken
    /// (non-zero), `Some(None)` = mixed.
    branch_folds: Vec<Option<Option<bool>>>,
    /// Per-instruction constant-fold consistency: `None` = never folded,
    /// `Some(Some(v))` = the result is `v` on every abstract path,
    /// `Some(None)` = imprecise or varying.
    const_folds: Vec<Option<Option<Cell>>>,
    /// Join points where interval widening saturated an endpoint.
    widened: Vec<bool>,
    /// Whether the point is on the worklist.
    on_list: Vec<bool>,
    /// Points this run reached, in first-reached order.
    touched: Vec<usize>,
    worklist: Vec<usize>,
    /// The frames of the point being stepped, copied out of `frames`.
    cur: Vec<Frame>,
    /// `(net_lo, net_hi, top)` at every reachable `return`.
    variants: Vec<(i64, i64, AVal)>,
    /// Frozen cells resolved, with repeats.
    deps: Vec<(Cell, Cell)>,
    /// Called words without a summary yet, with repeats: words still to
    /// analyze.
    pending: Vec<usize>,
}

impl Tables {
    fn new(len: usize) -> Self {
        let n = len + 1;
        Tables {
            frames: vec![Vec::new(); n],
            visits: vec![0; n],
            points: vec![Point::new(); n],
            preds: vec![NO_PRED; n],
            branch_folds: vec![None; n],
            const_folds: vec![None; n],
            widened: vec![false; n],
            on_list: vec![false; n],
            touched: Vec::new(),
            worklist: Vec::new(),
            cur: Vec::new(),
            variants: Vec::new(),
            deps: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Forget the previous run.
    fn reset(&mut self) {
        for &ip in &self.touched {
            self.frames[ip].clear();
            self.visits[ip] = 0;
            self.points[ip] = Point::new();
            self.preds[ip] = NO_PRED;
            self.branch_folds[ip] = None;
            self.const_folds[ip] = None;
            self.widened[ip] = false;
            self.on_list[ip] = false;
        }
        self.touched.clear();
        self.worklist.clear();
        self.variants.clear();
        self.deps.clear();
        self.pending.clear();
    }
}

/// Analysis context for a single word.
struct WordCtx<'a> {
    p: &'a Program,
    entry: usize,
    budget: &'a AnalysisBudget,
    summaries: &'a BTreeMap<usize, Summary>,
    frozen: &'a FrozenMem,
    mem: Option<&'a Machine>,
    t: &'a mut Tables,
    consumes: i64,
    consumes_at: Option<(usize, usize)>,
    dd: i64,
    dd_at: Option<(usize, usize)>,
}

impl<'a> WordCtx<'a> {
    /// Record how a conditional branch resolved on this abstract path.
    fn note_branch(&mut self, ip: usize, taken: Option<bool>) {
        note_consistent(&mut self.t.branch_folds[ip], taken);
    }

    /// Record the folded result of a computational instruction.
    fn note_fold(&mut self, ip: usize, v: AVal) {
        let c = match v {
            AVal::Const(c) => Some(c),
            _ => None,
        };
        note_consistent(&mut self.t.const_folds[ip], c);
    }

    /// Record a data-stack demand of `n` cells at `ip` given frame `f`.
    fn note_need(&mut self, ip: usize, f: &Frame, n: i64) {
        if n <= 0 {
            return;
        }
        let pt = &mut self.t.points[ip];
        pt.need = pt.need.max(n);
        let contribution = sadd(n, -f.dlo);
        if contribution > self.consumes {
            self.consumes = contribution;
            self.consumes_at = Some((self.entry, ip));
        }
        let definite = sadd(n, -f.dhi);
        if definite > self.dd {
            self.dd = definite;
            self.dd_at = Some((self.entry, ip));
        }
    }

    /// Raise the return-stack peak at `ip` to `r`.
    fn note_rpeak(&mut self, ip: usize, r: usize) {
        let pt = &mut self.t.points[ip];
        pt.rpeak = pt.rpeak.max(r as i64);
    }

    /// Apply a resolved call to `target` from frame `f` at `ip`.
    fn do_call(
        &mut self,
        ip: usize,
        target: usize,
        f: &Frame,
        out: &mut Vec<(usize, Frame)>,
    ) -> Result<(), String> {
        let Some(s) = self.summaries.get(&target) else {
            self.t.pending.push(target);
            return Ok(());
        };
        if s.unknown.is_some() {
            return Err(format!("calls word @{target} that could not be analyzed"));
        }
        // Transitive demands: the callee's consumption applies at the
        // caller's depth here; its definite demand composes on the upper
        // bound; its growth composes on both stacks.
        let pt = &mut self.t.points[ip];
        pt.need = pt.need.max(s.consumes);
        pt.peak = pt.peak.max(sadd(f.dhi, s.grow));
        pt.rpeak = pt.rpeak.max(sadd(f.r as i64 + 1, s.r_grow));
        let contribution = sadd(s.consumes, -f.dlo);
        if contribution > self.consumes {
            self.consumes = contribution;
            self.consumes_at = s.consumes_at.or(Some((self.entry, ip)));
        }
        let definite = sadd(s.dd, -f.dhi);
        if definite > self.dd {
            self.dd = definite;
            self.dd_at = s.dd_at.or(Some((self.entry, ip)));
        }
        if !s.has_return {
            return Ok(());
        }
        if s.variants.is_empty() {
            let mut g = *f;
            apply_call_effect(&mut g, s.consumes, s.net_lo, s.net_hi, AVal::Any);
            out.push((ip + 1, g));
        } else {
            for &(net, top) in &s.variants {
                let mut g = *f;
                apply_call_effect(&mut g, s.consumes, net, net, top);
                out.push((ip + 1, g));
            }
        }
        Ok(())
    }

    /// Abstractly execute the instruction at `ip` on frame `f`, writing
    /// its successors to `out`.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, ip: usize, f: &Frame, out: &mut Vec<(usize, Frame)>) -> Result<(), String> {
        let Some(&inst) = self.p.insts().get(ip) else {
            // Falling off the program is an InstructionOutOfBounds trap in
            // every mode: the path ends here.
            return Ok(());
        };
        let eff = inst.effect();
        self.note_need(ip, f, i64::from(eff.pops));
        {
            let pt = &mut self.t.points[ip];
            pt.peak = pt.peak.max(f.dhi);
            pt.rpeak = pt.rpeak.max(f.r as i64);
        }
        let fall = ip + 1;
        let mut g = *f;
        match inst {
            Inst::Lit(n) => {
                g.push(AVal::Const(n));
                out.push((fall, g));
            }
            Inst::Div | Inst::Mod => {
                let b = g.pop();
                let a = g.pop();
                // definite division-by-zero: the path ends
                if b != AVal::Const(0) {
                    let v = fold2(inst, a, b);
                    self.note_fold(ip, v);
                    g.push(v);
                    out.push((fall, g));
                }
            }
            Inst::Add
            | Inst::Sub
            | Inst::Mul
            | Inst::And
            | Inst::Or
            | Inst::Xor
            | Inst::Lshift
            | Inst::Rshift
            | Inst::Min
            | Inst::Max
            | Inst::Eq
            | Inst::Ne
            | Inst::Lt
            | Inst::Gt
            | Inst::Le
            | Inst::Ge
            | Inst::ULt
            | Inst::UGt => {
                let b = g.pop();
                let a = g.pop();
                let v = fold2(inst, a, b);
                self.note_fold(ip, v);
                g.push(v);
                out.push((fall, g));
            }
            Inst::Negate
            | Inst::Invert
            | Inst::Abs
            | Inst::OnePlus
            | Inst::OneMinus
            | Inst::TwoStar
            | Inst::TwoSlash
            | Inst::ZeroEq
            | Inst::ZeroNe
            | Inst::ZeroLt
            | Inst::ZeroGt
            | Inst::CellPlus
            | Inst::Cells
            | Inst::CharPlus => {
                let a = g.pop();
                let v = fold1(inst, a);
                self.note_fold(ip, v);
                g.push(v);
                out.push((fall, g));
            }
            Inst::Dup => {
                let a = g.pop();
                g.push(a);
                g.push(a);
                out.push((fall, g));
            }
            Inst::Drop => {
                g.pop();
                out.push((fall, g));
            }
            Inst::Swap => {
                let b = g.pop();
                let a = g.pop();
                g.push(b);
                g.push(a);
                out.push((fall, g));
            }
            Inst::Over => {
                let b = g.pop();
                let a = g.pop();
                g.push(a);
                g.push(b);
                g.push(a);
                out.push((fall, g));
            }
            Inst::Rot => {
                let c = g.pop();
                let b = g.pop();
                let a = g.pop();
                g.push(b);
                g.push(c);
                g.push(a);
                out.push((fall, g));
            }
            Inst::MinusRot => {
                let c = g.pop();
                let b = g.pop();
                let a = g.pop();
                g.push(c);
                g.push(a);
                g.push(b);
                out.push((fall, g));
            }
            Inst::Nip => {
                let b = g.pop();
                let _ = g.pop();
                g.push(b);
                out.push((fall, g));
            }
            Inst::Tuck => {
                let b = g.pop();
                let a = g.pop();
                g.push(b);
                g.push(a);
                g.push(b);
                out.push((fall, g));
            }
            Inst::TwoDup => {
                let b = g.pop();
                let a = g.pop();
                g.push(a);
                g.push(b);
                g.push(a);
                g.push(b);
                out.push((fall, g));
            }
            Inst::TwoDrop => {
                g.pop();
                g.pop();
                out.push((fall, g));
            }
            Inst::TwoSwap => {
                let d = g.pop();
                let c = g.pop();
                let b = g.pop();
                let a = g.pop();
                g.push(c);
                g.push(d);
                g.push(a);
                g.push(b);
                out.push((fall, g));
            }
            Inst::TwoOver => {
                let d = g.pop();
                let c = g.pop();
                let b = g.pop();
                let a = g.pop();
                g.push(a);
                g.push(b);
                g.push(c);
                g.push(d);
                g.push(a);
                g.push(b);
                out.push((fall, g));
            }
            Inst::QDup => {
                let a = g.pop();
                match a {
                    AVal::Const(0) => {
                        g.push(AVal::Const(0));
                        out.push((fall, g));
                    }
                    AVal::Const(v) => {
                        g.push(AVal::Const(v));
                        g.push(AVal::Const(v));
                        out.push((fall, g));
                    }
                    v if v.nonzero() => {
                        g.push(v);
                        g.push(v);
                        out.push((fall, g));
                    }
                    v => {
                        // Fork: the no-dup outcome pins the top to zero,
                        // the dup outcome refines the value as non-zero.
                        let mut z = g;
                        z.push(AVal::Const(0));
                        let nz = match v {
                            AVal::Any => AVal::NonZero,
                            AVal::Range(0, h) => AVal::range(1, h),
                            AVal::Range(l, 0) => AVal::range(l, -1),
                            other => other,
                        };
                        g.push(nz);
                        g.push(nz);
                        out.push((fall, z));
                        out.push((fall, g));
                    }
                }
            }
            Inst::Pick => {
                // The index pop is the only depth demand; the read is
                // guarded by the PickOutOfRange check every mode retains.
                let u = g.pop();
                if let AVal::Const(n) = u {
                    if n < 0 {
                        return Ok(()); // always out of range
                    }
                }
                g.push(AVal::Any);
                out.push((fall, g));
            }
            Inst::Depth => {
                g.push(AVal::Any);
                out.push((fall, g));
            }
            Inst::ToR => {
                g.pop();
                g.r += 1;
                self.note_rpeak(ip, g.r);
                out.push((fall, g));
            }
            Inst::FromR => {
                if g.r < 1 {
                    return Err("pops the return stack below the word frame".into());
                }
                g.r -= 1;
                g.push(AVal::Any);
                out.push((fall, g));
            }
            Inst::RFetch => {
                if g.r < 1 {
                    return Err("reads the return stack below the word frame".into());
                }
                g.push(AVal::Any);
                out.push((fall, g));
            }
            Inst::TwoToR => {
                g.pop();
                g.pop();
                g.r += 2;
                self.note_rpeak(ip, g.r);
                out.push((fall, g));
            }
            Inst::TwoFromR => {
                if g.r < 2 {
                    return Err("pops the return stack below the word frame".into());
                }
                g.r -= 2;
                g.push(AVal::Any);
                g.push(AVal::Any);
                out.push((fall, g));
            }
            Inst::TwoRFetch => {
                if g.r < 2 {
                    return Err("reads the return stack below the word frame".into());
                }
                g.push(AVal::Any);
                g.push(AVal::Any);
                out.push((fall, g));
            }
            Inst::Fetch => {
                let a = g.pop();
                let mut v = AVal::Any;
                if let (AVal::Const(addr), Some(m)) = (a, self.mem) {
                    if self.frozen.cell_frozen(addr) {
                        // Out-of-bounds loads stay Any: the admitted
                        // machine may be sized differently, and every
                        // mode retains the memory check.
                        if let Some(x) = m.load_cell(addr) {
                            self.t.deps.push((addr, x));
                            v = AVal::Const(x);
                        }
                    }
                }
                g.push(v);
                out.push((fall, g));
            }
            Inst::CFetch => {
                // Byte loads are zero-extended: the result is in [0, 255].
                g.pop();
                g.push(AVal::range(0, 255));
                out.push((fall, g));
            }
            Inst::Store | Inst::CStore | Inst::PlusStore => {
                g.pop();
                g.pop();
                out.push((fall, g));
            }
            Inst::Branch(t) => out.push((t as usize, g)),
            Inst::BranchIfZero(t) => {
                let c = g.pop();
                if c == AVal::Const(0) {
                    self.note_branch(ip, Some(true));
                    out.push((t as usize, g));
                } else if c.nonzero() {
                    self.note_branch(ip, Some(false));
                    out.push((fall, g));
                } else {
                    self.note_branch(ip, None);
                    out.push((t as usize, g));
                    out.push((fall, g));
                }
            }
            Inst::Call(t) => self.do_call(ip, t as usize, f, out)?,
            Inst::Execute => match g.pop() {
                AVal::Const(c) => {
                    // a token outside the program is always invalid
                    if c >= 0 && (c as usize) < self.p.len() {
                        self.do_call(ip, c as usize, &g, out)?;
                    }
                }
                _ => return Err("executes an unresolvable token".into()),
            },
            Inst::Return => {
                if g.r != 0 {
                    return Err("returns with word-frame cells still on the return stack".into());
                }
                let top = g.tops.last().unwrap_or(AVal::Any);
                self.t.variants.push((g.dlo, g.dhi, top));
            }
            Inst::Halt => {}
            Inst::Nop | Inst::Cr => out.push((fall, g)),
            Inst::DoSetup => {
                g.pop();
                g.pop();
                g.r += 2;
                self.note_rpeak(ip, g.r);
                out.push((fall, g));
            }
            Inst::QDoSetup(t) => {
                let start = g.pop();
                let limit = g.pop();
                let mut enter = g;
                enter.r += 2;
                self.note_rpeak(ip, enter.r);
                match (limit, start) {
                    (AVal::Const(l), AVal::Const(s)) if l == s => out.push((t as usize, g)),
                    (AVal::Const(l), AVal::Const(s)) if l != s => out.push((fall, enter)),
                    _ => {
                        out.push((t as usize, g));
                        out.push((fall, enter));
                    }
                }
            }
            Inst::LoopInc(t) => {
                if g.r < 2 {
                    return Err("loop bookkeeping reaches below the word frame".into());
                }
                let mut exit = g;
                exit.r -= 2;
                out.push((t as usize, g));
                out.push((fall, exit));
            }
            Inst::PlusLoopInc(t) => {
                g.pop();
                if g.r < 2 {
                    return Err("loop bookkeeping reaches below the word frame".into());
                }
                let mut exit = g;
                exit.r -= 2;
                out.push((t as usize, g));
                out.push((fall, exit));
            }
            Inst::LoopI => {
                if g.r < 1 {
                    return Err("reads a loop index below the word frame".into());
                }
                g.push(AVal::Any);
                out.push((fall, g));
            }
            Inst::LoopJ => {
                if g.r < 4 {
                    return Err("reads an outer loop index below the word frame".into());
                }
                g.push(AVal::Any);
                out.push((fall, g));
            }
            Inst::Unloop => {
                if g.r < 2 {
                    return Err("unloops below the word frame".into());
                }
                g.r -= 2;
                out.push((fall, g));
            }
            Inst::Emit | Inst::Dot => {
                g.pop();
                out.push((fall, g));
            }
            Inst::Type => {
                g.pop();
                g.pop();
                out.push((fall, g));
            }
        }
        // Cover successor depths in this point's peaks (call sites already
        // added callee growth above).
        let pt = &mut self.t.points[ip];
        for (_, s) in out.iter() {
            pt.peak = pt.peak.max(s.dhi);
            pt.rpeak = pt.rpeak.max(s.r as i64);
        }
        Ok(())
    }

    /// Whether `f` would bring a return-stack depth deeper than every
    /// frame of a full frame set at `ip`. Return-stack depths are exact
    /// and never widened (a collapse keeps one frame per depth), so a
    /// loop that pushes the return stack on every pass would add a frame
    /// per pass for ever; such a word is given up on instead (it and its
    /// callers keep every check).
    fn r_diverges(&self, ip: usize, f: &Frame) -> bool {
        let set = &self.t.frames[ip];
        set.len() >= self.budget.max_frames && set.iter().all(|g| g.r < f.r)
    }

    /// Join `f` into the frame set at `ip`; returns whether it changed.
    fn join(&mut self, ip: usize, from: usize, mut f: Frame) -> bool {
        f.tops.trim_bottom();
        let t = &mut *self.t;
        let visits = t.visits[ip];
        if visits > self.budget.strip_after {
            f.tops.clear();
        }
        let widen = visits > self.budget.widen_after;
        let set = &mut t.frames[ip];
        if set.is_empty() {
            t.touched.push(ip);
        }
        let mut changed = false;
        let mut saturated = false;
        if let Some(g) = set.iter_mut().find(|g| g.r == f.r && g.tops == f.tops) {
            if f.dlo < g.dlo {
                g.dlo = if widen { NEG_INF } else { f.dlo };
                changed = true;
            }
            if f.dhi > g.dhi {
                g.dhi = if widen { INF } else { f.dhi };
                changed = true;
            }
        } else if let Some(g) = set
            .iter_mut()
            .find(|g| g.r == f.r)
            .filter(|_| visits >= self.budget.value_join_after)
        {
            // Loop-head value join: revisits are accumulating, so instead
            // of growing the frame set merge element-wise (aligned at the
            // top of stack) into a frame of equal return-stack shape, and
            // widen interval endpoints that keep growing.
            let (gt, ft) = (g.tops.as_slice(), f.tops.as_slice());
            let n = gt.len().min(ft.len());
            let mut tops = Tops::EMPTY;
            for k in 0..n {
                let (j, sat) = join_aval(gt[gt.len() - n + k], ft[ft.len() - n + k], widen);
                saturated |= sat;
                tops.push(j);
            }
            tops.trim_bottom();
            if g.tops != tops {
                g.tops = tops;
                changed = true;
            }
            if f.dlo < g.dlo {
                g.dlo = if widen { NEG_INF } else { f.dlo };
                changed = true;
            }
            if f.dhi > g.dhi {
                g.dhi = if widen { INF } else { f.dhi };
                changed = true;
            }
        } else if set.len() >= self.budget.max_frames {
            // Collapse: abandon constant tracking, merge per r-frame, in
            // order of first occurrence.
            set.push(f);
            let mut kept = 0;
            for k in 0..set.len() {
                let mut g = set[k];
                g.tops.clear();
                if let Some(m) = set[..kept].iter_mut().find(|m| m.r == g.r) {
                    m.dlo = m.dlo.min(g.dlo);
                    m.dhi = m.dhi.max(g.dhi);
                } else {
                    set[kept] = g;
                    kept += 1;
                }
            }
            set.truncate(kept);
            changed = true;
        } else {
            set.push(f);
            changed = true;
        }
        if saturated {
            t.widened[ip] = true;
        }
        if changed {
            t.visits[ip] += 1;
            if t.preds[ip] == NO_PRED {
                t.preds[ip] = from;
            }
            let pt = &mut t.points[ip];
            for g in &t.frames[ip] {
                pt.dlo = pt.dlo.min(g.dlo);
                pt.dhi = pt.dhi.max(g.dhi);
            }
        }
        changed
    }

    fn run(&mut self) -> Result<(), (usize, String)> {
        self.join(self.entry, self.entry, Frame::ENTRY);
        self.t.worklist.push(self.entry);
        self.t.on_list[self.entry] = true;
        let mut succs = Vec::with_capacity(4);
        while let Some(ip) = self.t.worklist.pop() {
            self.t.on_list[ip] = false;
            // Step the frames as they are now: joins below may add to them.
            let t = &mut *self.t;
            t.cur.clear();
            t.cur.extend_from_slice(&t.frames[ip]);
            for k in 0..self.t.cur.len() {
                let f = self.t.cur[k];
                succs.clear();
                self.step(ip, &f, &mut succs).map_err(|e| (ip, e))?;
                for &(sip, sf) in &succs {
                    if self.r_diverges(sip, &sf) {
                        return Err((ip, "the return stack grows on every pass of a loop".into()));
                    }
                    if self.join(sip, ip, sf) && !self.t.on_list[sip] {
                        self.t.on_list[sip] = true;
                        self.t.worklist.push(sip);
                    }
                }
            }
        }
        Ok(())
    }

    /// The word's result with `summary` and `lints`: the reached points'
    /// facts and the resolved frozen cells are copied out of the tables.
    fn result(&mut self, summary: Summary, lints: Vec<(LintKind, usize, Cell)>) -> WordResult {
        let t = &mut *self.t;
        t.deps.sort_unstable();
        t.deps.dedup();
        WordResult {
            summary,
            preds: t
                .touched
                .iter()
                .filter(|&&ip| t.preds[ip] != NO_PRED)
                .map(|&ip| (ip, t.preds[ip]))
                .collect(),
            needs: t
                .touched
                .iter()
                .map(|&ip| (ip, t.points[ip].need))
                .collect(),
            deps: t.deps.clone(),
            lints,
        }
    }

    /// The word's result after [`WordCtx::run`] stopped at `(ip, reason)`.
    fn poisoned(mut self, ip: usize, reason: String) -> WordResult {
        self.t.touched.sort_unstable();
        self.result(Summary::poisoned(ip, reason), Vec::new())
    }

    fn finalize(mut self) -> WordResult {
        // Record the entry point even for empty words.
        let pt = &mut self.t.points[self.entry];
        pt.dlo = pt.dlo.min(0);
        pt.dhi = pt.dhi.max(0);
        pt.peak = pt.peak.max(0);
        let mut variants: Vec<(i64, AVal)> = Vec::new();
        let mut exact = true;
        let mut net_lo = INF;
        let mut net_hi = NEG_INF;
        for &(lo, hi, top) in &self.t.variants {
            net_lo = net_lo.min(lo);
            net_hi = net_hi.max(hi);
            if lo == hi {
                if !variants.contains(&(lo, top)) {
                    variants.push((lo, top));
                }
            } else {
                exact = false;
            }
        }
        if !exact || variants.len() > MAX_VARIANTS {
            variants.clear();
        }
        let has_return = !self.t.variants.is_empty();
        if !has_return {
            net_lo = 0;
            net_hi = 0;
        }
        self.t.touched.sort_unstable();
        let t = &*self.t;
        let reached = || t.touched.iter().map(|&ip| &t.points[ip]);
        let grow = reached().map(|p| p.peak).max().unwrap_or(0).max(0);
        let r_grow = reached().map(|p| p.rpeak).max().unwrap_or(0).max(0);
        let summary = Summary {
            variants,
            net_lo,
            net_hi,
            has_return,
            consumes: self.consumes.max(0),
            consumes_at: self.consumes_at,
            dd: self.dd,
            dd_at: self.dd_at,
            grow,
            r_grow,
            unknown: None,
        };
        // Branch folds, then constant folds, then widenings, each in
        // ascending ip order.
        let mut lints: Vec<(LintKind, usize, Cell)> = Vec::new();
        for &ip in &t.touched {
            match t.branch_folds[ip] {
                Some(Some(true)) => lints.push((LintKind::DeadArm, ip, 0)),
                Some(Some(false)) => lints.push((LintKind::NonzeroBranchFold, ip, 0)),
                _ => {}
            }
        }
        for &ip in &t.touched {
            if let Some(Some(v)) = t.const_folds[ip] {
                lints.push((LintKind::ConstFoldable, ip, v));
            }
        }
        for &ip in &t.touched {
            if t.widened[ip] {
                lints.push((LintKind::WideningLoopHead, ip, 0));
            }
        }
        self.result(summary, lints)
    }
}

/// Fold `v` into a per-point consistency slot: the first note sets it, a
/// differing later one degrades it to `Some(None)`.
fn note_consistent<T: PartialEq>(slot: &mut Option<Option<T>>, v: Option<T>) {
    match slot {
        Some(prev) if *prev != v => *prev = None,
        Some(_) => {}
        None => *slot = Some(v),
    }
}

/// The reason text of a value-range lint recorded by [`WordCtx::finalize`].
fn lint_reason(p: &Program, kind: LintKind, ip: usize, v: Cell) -> String {
    match (kind, p.insts().get(ip)) {
        (LintKind::DeadArm, _) => format!(
            "condition is always zero: the fall-through arm at {} is unreachable",
            ip + 1
        ),
        (LintKind::NonzeroBranchFold, Some(inst)) => format!(
            "condition proven nonzero: the branch to {} is never taken",
            inst.target().unwrap_or_default()
        ),
        (LintKind::ConstFoldable, _) => format!("constant-foldable: always evaluates to {v}"),
        _ => "value interval widened at loop head".to_string(),
    }
}

/// Join two abstract values; with `widen`, saturate endpoints that grew
/// relative to the existing value `a`. Returns the join and whether an
/// endpoint was widened away.
fn join_aval(a: AVal, b: AVal, widen: bool) -> (AVal, bool) {
    if a == b {
        return (a, false);
    }
    match (a.bounds(), b.bounds()) {
        (Some((la, ha)), Some((lb, hb))) => {
            let mut lo = la.min(lb);
            let mut hi = ha.max(hb);
            let mut sat = false;
            if widen {
                if lb < la {
                    lo = Cell::MIN;
                    sat = true;
                }
                if hb > ha {
                    hi = Cell::MAX;
                    sat = true;
                }
            }
            (AVal::range(lo, hi), sat)
        }
        _ => {
            if a.nonzero() && b.nonzero() {
                (AVal::NonZero, false)
            } else {
                (AVal::Any, false)
            }
        }
    }
}

/// Apply a callee's effect to the caller frame.
fn apply_call_effect(g: &mut Frame, consumes: i64, net_lo: i64, net_hi: i64, top: AVal) {
    let c = consumes.clamp(0, INF);
    let drop_n = (g.tops.len() as i64).min(c).max(0) as usize;
    g.tops.truncate(g.tops.len() - drop_n);
    g.dlo = sadd(g.dlo, net_lo);
    g.dhi = sadd(g.dhi, net_hi);
    if net_lo == net_hi {
        let pushed = sadd(c, net_lo).max(0).min(TOPS_WINDOW as i64 + 1);
        if pushed > 0 {
            for _ in 0..pushed - 1 {
                g.tops.push(AVal::Any);
            }
            g.tops.push(top);
        }
    } else {
        g.tops.clear();
    }
}

/// Interval from `i128` endpoints, degrading to [`AVal::Any`] on overflow.
fn wide(lo: i128, hi: i128) -> AVal {
    if lo >= Cell::MIN as i128 && hi <= Cell::MAX as i128 {
        AVal::range(lo as Cell, hi as Cell)
    } else {
        AVal::Any
    }
}

/// Fold a comparison that is decided when `always` or `never` holds.
fn cmp_fold(always: bool, never: bool) -> AVal {
    if always {
        AVal::Const(TRUE)
    } else if never {
        AVal::Const(FALSE)
    } else {
        AVal::Any
    }
}

/// Smallest all-ones mask covering a non-negative value.
fn ones_cover(v: Cell) -> Cell {
    let mut m = v;
    m |= m >> 1;
    m |= m >> 2;
    m |= m >> 4;
    m |= m >> 8;
    m |= m >> 16;
    m |= m >> 32;
    m
}

/// Fold a binary operation over abstract operands: concrete folding via
/// the shared [`stackcache_vm::fold`] hooks, then interval transfer.
#[allow(clippy::too_many_lines)]
pub(crate) fn fold2(inst: Inst, a: AVal, b: AVal) -> AVal {
    if let (AVal::Const(x), AVal::Const(y)) = (a, b) {
        // Division by zero is routed by the caller before folding.
        return vmfold::fold2(inst, x, y).map_or(AVal::Any, AVal::Const);
    }
    match (inst, a.bounds(), b.bounds()) {
        (Inst::Add, Some((la, ha)), Some((lb, hb))) => {
            wide(la as i128 + lb as i128, ha as i128 + hb as i128)
        }
        (Inst::Sub, Some((la, ha)), Some((lb, hb))) => {
            wide(la as i128 - hb as i128, ha as i128 - lb as i128)
        }
        (Inst::Mul, Some((la, ha)), Some((lb, hb))) => {
            let ps = [
                la as i128 * lb as i128,
                la as i128 * hb as i128,
                ha as i128 * lb as i128,
                ha as i128 * hb as i128,
            ];
            wide(*ps.iter().min().unwrap(), *ps.iter().max().unwrap())
        }
        (Inst::Min, Some((la, ha)), Some((lb, hb))) => AVal::range(la.min(lb), ha.min(hb)),
        (Inst::Max, Some((la, ha)), Some((lb, hb))) => AVal::range(la.max(lb), ha.max(hb)),
        (Inst::Div, Some((la, ha)), Some((d, d2))) if d == d2 && d > 0 => {
            AVal::range(la.div_euclid(d), ha.div_euclid(d))
        }
        // Divisor proven positive: floored remainder lies in [0, b-1].
        (Inst::Mod, _, Some((lb, hb))) if lb > 0 => AVal::range(0, hb - 1),
        (Inst::And, _, Some((lb, hb))) if lb >= 0 => AVal::range(0, hb),
        (Inst::And, Some((la, ha)), _) if la >= 0 => AVal::range(0, ha),
        (Inst::Or, Some((la, ha)), Some((lb, hb))) if la >= 0 && lb >= 0 => {
            AVal::range(la.max(lb), ones_cover(ha | hb))
        }
        (Inst::Xor, Some((la, ha)), Some((lb, hb))) if la >= 0 && lb >= 0 => {
            AVal::range(0, ones_cover(ha | hb))
        }
        (Inst::Rshift, _, Some((k, k2))) if k == k2 => {
            let k = (k as u64) & 63;
            if k == 0 {
                a
            } else {
                AVal::range(0, (u64::MAX >> k) as Cell)
            }
        }
        (Inst::Lshift, Some((la, ha)), Some((k, k2))) if k == k2 && la >= 0 => {
            let k = (k as u64) & 63;
            if k < 63 && (ha as i128) << k <= Cell::MAX as i128 {
                AVal::range(la << k, ha << k)
            } else {
                AVal::Any
            }
        }
        (Inst::Eq, Some((la, ha)), Some((lb, hb))) => cmp_fold(false, ha < lb || hb < la),
        (Inst::Ne, Some((la, ha)), Some((lb, hb))) => cmp_fold(ha < lb || hb < la, false),
        (Inst::Lt, Some((la, ha)), Some((lb, hb))) => cmp_fold(ha < lb, la >= hb),
        (Inst::Gt, Some((la, ha)), Some((lb, hb))) => cmp_fold(la > hb, ha <= lb),
        (Inst::Le, Some((la, ha)), Some((lb, hb))) => cmp_fold(ha <= lb, la > hb),
        (Inst::Ge, Some((la, ha)), Some((lb, hb))) => cmp_fold(la >= hb, ha < lb),
        (Inst::ULt, Some((la, ha)), Some((lb, hb))) if la >= 0 && lb >= 0 => {
            cmp_fold(ha < lb, la >= hb)
        }
        (Inst::UGt, Some((la, ha)), Some((lb, hb))) if la >= 0 && lb >= 0 => {
            cmp_fold(la > hb, ha <= lb)
        }
        _ => AVal::Any,
    }
}

/// Fold a unary operation over an abstract operand.
pub(crate) fn fold1(inst: Inst, a: AVal) -> AVal {
    if let AVal::Const(x) = a {
        return vmfold::fold1(inst, x).map_or(AVal::Any, AVal::Const);
    }
    match (inst, a) {
        (Inst::ZeroEq, v) if v.nonzero() => return AVal::Const(FALSE),
        (Inst::ZeroNe, v) if v.nonzero() => return AVal::Const(TRUE),
        (Inst::Negate | Inst::Abs, AVal::NonZero) => return AVal::NonZero,
        _ => {}
    }
    let Some((l, h)) = a.bounds() else {
        return AVal::Any;
    };
    match inst {
        Inst::Negate | Inst::Abs if l == Cell::MIN => AVal::Any, // wraps
        Inst::Negate => AVal::range(-h, -l),
        Inst::Abs => {
            if l >= 0 {
                a
            } else if h <= 0 {
                AVal::range(-h, -l)
            } else {
                AVal::range(0, h.max(-l))
            }
        }
        Inst::Invert => AVal::range(!h, !l),
        Inst::OnePlus | Inst::CharPlus => wide(l as i128 + 1, h as i128 + 1),
        Inst::OneMinus => wide(l as i128 - 1, h as i128 - 1),
        Inst::TwoStar => wide(l as i128 * 2, h as i128 * 2),
        Inst::TwoSlash => AVal::range(l >> 1, h >> 1),
        Inst::CellPlus => wide(
            l as i128 + CELL_BYTES as i128,
            h as i128 + CELL_BYTES as i128,
        ),
        Inst::Cells => wide(
            l as i128 * CELL_BYTES as i128,
            h as i128 * CELL_BYTES as i128,
        ),
        Inst::ZeroLt => cmp_fold(h < 0, l >= 0),
        Inst::ZeroGt => cmp_fold(l > 0, h <= 0),
        _ => AVal::Any,
    }
}

/// Per-word line of the analysis report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordReport {
    /// Entry instruction index.
    pub entry: usize,
    /// Symbolic name, when the program carries one.
    pub name: Option<String>,
    /// `"ok"` or the reason the word could not be analyzed.
    pub status: String,
    /// Net data-stack effect interval over all returns (`None` when the
    /// word never returns).
    pub net: Option<(i64, i64)>,
    /// Cells consumed below the entry depth (transitive).
    pub consumes: i64,
    /// Maximum data-stack growth above entry (transitive).
    pub grow: Bound,
    /// Maximum return-stack growth (transitive).
    pub r_grow: Bound,
}

/// The full analysis result: the proof plus per-word reporting detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// The safety proof / verdict.
    pub proof: SafetyProof,
    /// Per-word summaries in entry order.
    pub words: Vec<WordReport>,
}

/// Witness paths over the kept per-word predecessors. The pairs of the
/// word last asked about are spread into a dense vector, so a path walks
/// it by index; diagnostics come grouped by word.
struct Witnesses<'a> {
    results: &'a BTreeMap<usize, WordResult>,
    /// [`NO_PRED`] everywhere but the loaded word's points.
    dense: &'a mut [usize],
    loaded: Option<usize>,
}

impl Witnesses<'_> {
    fn path(&mut self, word: usize, ip: usize) -> Vec<usize> {
        if self.loaded != Some(word) {
            if let Some(old) = self.loaded.take() {
                for &(at, _) in &self.results[&old].preds {
                    self.dense[at] = NO_PRED;
                }
            }
            let Some(r) = self.results.get(&word) else {
                return Vec::new();
            };
            for &(at, from) in &r.preds {
                self.dense[at] = from;
            }
            self.loaded = Some(word);
        }
        witness_path(self.dense, word, ip)
    }
}

fn diagnostic_at(
    p: &Program,
    witnesses: &mut Witnesses,
    word: usize,
    ip: usize,
    reason: String,
) -> Diagnostic {
    let witness = witnesses.path(word, ip);
    Diagnostic {
        ip,
        word,
        word_name: p.name_at(word).map(ToString::to_string),
        inst: p
            .insts()
            .get(ip)
            .map_or_else(|| "<end>".to_string(), |i| i.name().to_string()),
        reason,
        witness,
    }
}

/// The path from `entry` to `ip` along first predecessors. Each point's
/// first predecessor was reached before it, so the chain cannot cycle;
/// the step bound only guards that.
fn witness_path(preds: &[usize], entry: usize, ip: usize) -> Vec<usize> {
    let mut path = vec![ip];
    let mut cur = ip;
    for _ in 0..preds.len() {
        if cur == entry {
            break;
        }
        match preds.get(cur).copied() {
            Some(prev) if prev != cur && prev != NO_PRED => {
                path.push(prev);
                cur = prev;
            }
            _ => break,
        }
    }
    path.reverse();
    path
}

/// Run whole-program abstract interpretation.
///
/// `initial` is the machine image the program will start from (its memory
/// feeds frozen-cell resolution of `Lit; Fetch; Execute` dispatch); pass
/// `None` to analyze without memory knowledge — deferred dispatch then
/// yields [`Verdict::Unknown`].
#[must_use]
pub fn analyze(program: &Program, initial: Option<&Machine>) -> Analysis {
    analyze_with(program, initial, &AnalysisBudget::quick())
}

/// Run whole-program abstract interpretation under an explicit
/// [`AnalysisBudget`].
///
/// [`AnalysisBudget::quick`] is what the serving path uses;
/// [`AnalysisBudget::deep`] spends more rounds and frames (and unrolls
/// counted loops further) in exchange for tighter verdicts — it is what the
/// background re-admission pass and `stklint` run.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn analyze_with(
    program: &Program,
    initial: Option<&Machine>,
    budget: &AnalysisBudget,
) -> Analysis {
    let frozen = FrozenMem::compute(program);
    let depth_info = depth::analyze(program);
    let mut words: BTreeSet<usize> = BTreeSet::new();
    words.insert(program.entry());
    let mut summaries: BTreeMap<usize, Summary> = BTreeMap::new();
    let mut results: BTreeMap<usize, WordResult> = BTreeMap::new();
    let mut tables = Tables::new(program.len());
    let mut converged = false;
    for round in 0..budget.max_rounds {
        let mut changed = false;
        for &w in &words.clone() {
            tables.reset();
            let mut ctx = WordCtx {
                p: program,
                entry: w,
                budget,
                summaries: &summaries,
                frozen: &frozen,
                mem: initial,
                t: &mut tables,
                consumes: 0,
                consumes_at: None,
                dd: NEG_INF,
                dd_at: None,
            };
            let res = match ctx.run() {
                Ok(()) => ctx.finalize(),
                Err((ip, reason)) => ctx.poisoned(ip, reason),
            };
            for &t in &tables.pending {
                if words.insert(t) {
                    if let Some(s) = depth_info.effect_of(t).and_then(Summary::provisional) {
                        summaries.insert(t, s);
                    }
                    changed = true;
                }
            }
            let mut new = res.summary.clone();
            if round >= budget.widen_rounds {
                if let Some(old) = summaries.get(&w) {
                    if new != *old && new.unknown.is_none() && old.unknown.is_none() {
                        if new.grow > old.grow {
                            new.grow = INF;
                        }
                        if new.r_grow > old.r_grow {
                            new.r_grow = INF;
                        }
                        if new.consumes > old.consumes {
                            new.consumes = INF;
                        }
                        if new.net_lo < old.net_lo {
                            new.net_lo = NEG_INF;
                            new.variants.clear();
                        }
                        if new.net_hi > old.net_hi {
                            new.net_hi = INF;
                            new.variants.clear();
                        }
                        if new.variants != old.variants && !old.variants.is_empty() {
                            new.variants.clear();
                        }
                    }
                }
            }
            if summaries.get(&w) != Some(&new) {
                summaries.insert(w, new);
                changed = true;
            }
            results.insert(w, res);
        }
        if !changed {
            converged = true;
            break;
        }
    }

    let entry = program.entry();
    let entry_summary = summaries
        .get(&entry)
        .cloned()
        .unwrap_or_else(|| Summary::poisoned(entry, "entry word was never analyzed".to_string()));

    tables.reset();
    let mut witnesses = Witnesses {
        results: &results,
        dense: &mut tables.preds,
        loaded: None,
    };
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut frozen_deps: Vec<(Cell, Cell)> = results
        .values()
        .flat_map(|r| r.deps.iter().copied())
        .collect();
    frozen_deps.sort_unstable();
    frozen_deps.dedup();

    let mut verdict;
    let data_needed;
    let data_max;
    let rstack_max;
    if !converged {
        verdict = Verdict::Unknown;
        data_needed = INF;
        data_max = Bound::Unbounded;
        rstack_max = Bound::Unbounded;
        diagnostics.push(diagnostic_at(
            program,
            &mut witnesses,
            entry,
            entry,
            "the depth fixpoint did not converge".to_string(),
        ));
    } else if let Some((ip, reason)) = entry_summary.unknown.clone() {
        verdict = Verdict::Unknown;
        data_needed = INF;
        data_max = Bound::Unbounded;
        rstack_max = Bound::Unbounded;
        diagnostics.push(diagnostic_at(program, &mut witnesses, entry, ip, reason));
        // Surface the root causes from poisoned callees too.
        for (&w, res) in &results {
            if w == entry {
                continue;
            }
            if let Some((ip, reason)) = res.summary.unknown.clone() {
                if !reason.starts_with("calls word @") {
                    diagnostics.push(diagnostic_at(program, &mut witnesses, w, ip, reason));
                }
            }
        }
    } else if entry_summary.dd > 0 {
        verdict = Verdict::Rejected;
        data_needed = entry_summary.consumes;
        data_max = bound(entry_summary.grow);
        rstack_max = bound(entry_summary.r_grow);
        let (w, ip) = entry_summary.dd_at.unwrap_or((entry, entry));
        let need = results
            .get(&w)
            .and_then(|r| {
                let k = r.needs.binary_search_by_key(&ip, |n| n.0).ok()?;
                Some(r.needs[k].1)
            })
            .unwrap_or(0);
        diagnostics.push(diagnostic_at(
            program,
            &mut witnesses,
            w,
            ip,
            format!(
                "definitely underflows: needs {need} cell(s) but at most {} can be on the stack",
                (need - entry_summary.dd).max(0)
            ),
        ));
    } else if entry_summary.consumes > 0 && entry_summary.consumes < INF {
        // Provable only with a preset stack; for an empty start this is
        // unproven. admit() re-evaluates against the actual preset.
        verdict = Verdict::Unknown;
        data_needed = entry_summary.consumes;
        data_max = bound(entry_summary.grow);
        rstack_max = bound(entry_summary.r_grow);
        let (w, ip) = entry_summary.consumes_at.unwrap_or((entry, entry));
        diagnostics.push(diagnostic_at(
            program,
            &mut witnesses,
            w,
            ip,
            format!(
                "cannot prove depth: needs {} cell(s) below the starting stack",
                entry_summary.consumes
            ),
        ));
    } else if entry_summary.consumes >= INF {
        verdict = Verdict::Unknown;
        data_needed = INF;
        data_max = bound(entry_summary.grow);
        rstack_max = bound(entry_summary.r_grow);
        let (w, ip) = entry_summary.consumes_at.unwrap_or((entry, entry));
        diagnostics.push(diagnostic_at(
            program,
            &mut witnesses,
            w,
            ip,
            "cannot prove a finite depth demand at this instruction".to_string(),
        ));
    } else if entry_summary.has_return {
        // A top-level Return pops whatever return stack the host preset;
        // that is outside the program and cannot be proven here.
        verdict = Verdict::Unknown;
        data_needed = 0;
        data_max = bound(entry_summary.grow);
        rstack_max = bound(entry_summary.r_grow);
        diagnostics.push(diagnostic_at(
            program,
            &mut witnesses,
            entry,
            entry,
            "the entry word can return into a host-owned return stack".to_string(),
        ));
    } else {
        data_needed = 0;
        data_max = bound(entry_summary.grow);
        rstack_max = bound(entry_summary.r_grow);
        verdict = match (data_max, rstack_max) {
            (Bound::Finite(_), Bound::Finite(_)) => Verdict::Proven,
            _ => Verdict::Guarded,
        };
    }

    // Assemble value-range lints from the per-word passes, then try to
    // strengthen a depth proof into a termination proof with the fuel pass.
    let mut lints: Vec<Lint> = Vec::new();
    for (&w, res) in &results {
        for &(kind, ip, v) in &res.lints {
            lints.push(Lint {
                kind,
                diag: diagnostic_at(
                    program,
                    &mut witnesses,
                    w,
                    ip,
                    lint_reason(program, kind, ip, v),
                ),
            });
        }
    }
    if converged {
        for (&w, s) in &summaries {
            if s.unknown.is_none() && s.r_grow >= INF {
                lints.push(Lint {
                    kind: LintKind::UnboundedRecursion,
                    diag: diagnostic_at(
                        program,
                        &mut witnesses,
                        w,
                        w,
                        "return-stack growth is unbounded: possible unbounded recursion"
                            .to_string(),
                    ),
                });
            }
        }
    }
    let mut fuel_bound = Bound::Unbounded;
    if verdict == Verdict::Proven {
        if let Some(n) = crate::fuel::fuel_bound(program, budget) {
            if let Ok(b) = i64::try_from(n) {
                fuel_bound = Bound::Finite(b);
                verdict = Verdict::Total;
                lints.push(Lint {
                    kind: LintKind::FuelBound,
                    diag: diagnostic_at(
                        program,
                        &mut witnesses,
                        entry,
                        entry,
                        format!("terminates within {n} instruction dispatch(es) from entry"),
                    ),
                });
            }
        }
    }
    lints.sort_by_key(|l| (l.diag.word, l.diag.ip));

    let words_report: Vec<WordReport> = words
        .iter()
        .filter_map(|&w| {
            let s = summaries.get(&w)?;
            Some(WordReport {
                entry: w,
                name: program.name_at(w).map(ToString::to_string),
                status: match &s.unknown {
                    None => "ok".to_string(),
                    Some((_, reason)) => reason.clone(),
                },
                net: if s.has_return && s.unknown.is_none() {
                    Some((s.net_lo, s.net_hi))
                } else {
                    None
                },
                consumes: s.consumes.min(INF),
                grow: bound(s.grow),
                r_grow: bound(s.r_grow),
            })
        })
        .collect();

    Analysis {
        proof: SafetyProof {
            verdict,
            data_needed,
            data_max,
            rstack_max,
            frozen_deps,
            diagnostics,
            words_analyzed: words.len(),
            fuel_bound,
            lints,
        },
        words: words_report,
    }
}
