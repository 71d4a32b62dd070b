//! The virtual machine instruction set.
//!
//! The instruction set is a Forth-flavoured virtual *stack machine*: all
//! computational instructions take their operands from the data stack and
//! push results back onto it.  This is exactly the setting of Ertl's paper
//! — the cache organizations in [`stackcache-core`] reason about programs
//! entirely in terms of the per-instruction [`Effect`]s defined here.
//!
//! Each instruction carries a *static* effect ([`Inst::effect`]): how many
//! data-stack cells it pops and pushes, its return-stack behaviour, and its
//! *kind*.  The kind distinguishes the classes the paper treats differently:
//!
//! * [`EffectKind::Normal`] — computational instructions (`+`, `@`, …) that
//!   consume inputs and produce *new* values,
//! * [`EffectKind::Shuffle`] — pure stack-manipulation instructions (`dup`,
//!   `swap`, `rot`, …) whose outputs are copies of their inputs; static
//!   stack caching compiles these to *nothing* (Section 5),
//! * control-flow kinds (branches, calls, returns) that bound basic blocks
//!   and trigger cache-state reconciliation,
//! * [`EffectKind::Opaque`] — instructions such as `depth` that need the
//!   true stack pointer and force a cache flush.
//!
//! A handful of instructions (`?dup`, the loop primitives) have effects that
//! depend on runtime values; their static effect describes the common case
//! and the reference interpreter reports the *resolved* effect in its
//! [`ExecEvent`](crate::exec::ExecEvent)s.

use std::fmt;

/// A data- or return-stack cell. All values, addresses, characters and flags
/// are cells; Forth truth is `-1` (all bits set), falsehood `0`.
pub type Cell = i64;

/// Number of bytes in a [`Cell`] as stored in VM memory.
pub const CELL_BYTES: usize = 8;

/// The canonical Forth *true* flag.
pub const TRUE: Cell = -1;
/// The canonical Forth *false* flag.
pub const FALSE: Cell = 0;

/// A Forth flag: [`TRUE`] for `true`, [`FALSE`] for `false`.
#[inline]
#[must_use]
pub const fn flag(b: bool) -> Cell {
    if b {
        TRUE
    } else {
        FALSE
    }
}

/// A virtual machine instruction.
///
/// Instruction operands that are part of the instruction itself (literal
/// values, branch targets) are stored inline; branch/call targets are
/// absolute instruction indices into the [`Program`](crate::Program).
///
/// # Examples
///
/// ```
/// use stackcache_vm::{Inst, EffectKind};
///
/// let add = Inst::Add;
/// let eff = add.effect();
/// assert_eq!((eff.pops, eff.pushes), (2, 1));
/// assert!(matches!(eff.kind, EffectKind::Normal));
///
/// // `swap` is a pure shuffle: output slot 0 is input 1, output slot 1 is input 0.
/// assert_eq!(Inst::Swap.effect().kind, EffectKind::Shuffle(&[1, 0]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    // ---- literals ----------------------------------------------------
    /// Push a literal cell. `( -- n )`
    Lit(Cell),

    // ---- binary arithmetic / logic  ( a b -- r ) ---------------------
    /// `+` addition (wrapping).
    Add,
    /// `-` subtraction (wrapping).
    Sub,
    /// `*` multiplication (wrapping).
    Mul,
    /// `/` floored division. Traps on division by zero.
    Div,
    /// `mod` floored remainder. Traps on division by zero.
    Mod,
    /// `and` bitwise conjunction.
    And,
    /// `or` bitwise disjunction.
    Or,
    /// `xor` bitwise exclusive or.
    Xor,
    /// `lshift` logical left shift; shift counts are masked to 0..64.
    Lshift,
    /// `rshift` logical right shift; shift counts are masked to 0..64.
    Rshift,
    /// `min` minimum.
    Min,
    /// `max` maximum.
    Max,

    // ---- binary comparisons  ( a b -- flag ) --------------------------
    /// `=` equality.
    Eq,
    /// `<>` inequality.
    Ne,
    /// `<` signed less-than.
    Lt,
    /// `>` signed greater-than.
    Gt,
    /// `<=` signed at-most.
    Le,
    /// `>=` signed at-least.
    Ge,
    /// `u<` unsigned less-than.
    ULt,
    /// `u>` unsigned greater-than.
    UGt,

    // ---- unary operations  ( a -- r ) ---------------------------------
    /// `negate` two's-complement negation (wrapping).
    Negate,
    /// `invert` bitwise complement.
    Invert,
    /// `abs` absolute value (wrapping).
    Abs,
    /// `1+` increment.
    OnePlus,
    /// `1-` decrement.
    OneMinus,
    /// `2*` arithmetic left shift by one.
    TwoStar,
    /// `2/` arithmetic right shift by one.
    TwoSlash,
    /// `0=` zero test.
    ZeroEq,
    /// `0<>` non-zero test.
    ZeroNe,
    /// `0<` negative test.
    ZeroLt,
    /// `0>` positive test.
    ZeroGt,
    /// `cell+` add the cell size in bytes.
    CellPlus,
    /// `cells` multiply by the cell size in bytes.
    Cells,
    /// `char+` add one (bytes are characters).
    CharPlus,

    // ---- pure stack shuffles ------------------------------------------
    /// `dup` `( a -- a a )`
    Dup,
    /// `drop` `( a -- )`
    Drop,
    /// `swap` `( a b -- b a )`
    Swap,
    /// `over` `( a b -- a b a )`
    Over,
    /// `rot` `( a b c -- b c a )`
    Rot,
    /// `-rot` `( a b c -- c a b )`
    MinusRot,
    /// `nip` `( a b -- b )`
    Nip,
    /// `tuck` `( a b -- b a b )`
    Tuck,
    /// `2dup` `( a b -- a b a b )`
    TwoDup,
    /// `2drop` `( a b -- )`
    TwoDrop,
    /// `2swap` `( a b c d -- c d a b )`
    TwoSwap,
    /// `2over` `( a b c d -- a b c d a b )`
    TwoOver,
    /// `?dup` `( a -- a a | 0 )` duplicate if non-zero. Dynamic effect.
    QDup,

    // ---- stack introspection (cache-opaque) ----------------------------
    /// `pick` `( x_u .. x_0 u -- x_u .. x_0 x_u )`. Traps if `u` is out of
    /// range. Cache-opaque: requires the true stack pointer.
    Pick,
    /// `depth` `( -- n )` number of cells on the data stack. Cache-opaque.
    Depth,

    // ---- return stack ---------------------------------------------------
    /// `>r` move the top data cell to the return stack.
    ToR,
    /// `r>` move the top return cell to the data stack.
    FromR,
    /// `r@` copy the top return cell to the data stack.
    RFetch,
    /// `2>r` move the top two data cells to the return stack (order kept).
    TwoToR,
    /// `2r>` move the top two return cells back to the data stack.
    TwoFromR,
    /// `2r@` copy the top two return cells to the data stack.
    TwoRFetch,

    // ---- memory ---------------------------------------------------------
    /// `@` `( addr -- x )` fetch a cell from byte address `addr`.
    Fetch,
    /// `!` `( x addr -- )` store a cell to byte address `addr`.
    Store,
    /// `c@` `( addr -- c )` fetch a byte (zero-extended).
    CFetch,
    /// `c!` `( c addr -- )` store the low byte of `c`.
    CStore,
    /// `+!` `( n addr -- )` add `n` to the cell at `addr`.
    PlusStore,

    // ---- control flow -----------------------------------------------------
    /// Unconditional branch to an instruction index.
    Branch(u32),
    /// `( flag -- )` branch to the target if `flag` is zero.
    BranchIfZero(u32),
    /// Call the word whose code starts at the given instruction index.
    Call(u32),
    /// `execute` `( xt -- )` call the word whose execution token is on the
    /// stack. Traps if the token is not a valid instruction index.
    Execute,
    /// Return from the current word.
    Return,
    /// Stop execution successfully.
    Halt,
    /// Do nothing.
    Nop,

    // ---- counted loops ------------------------------------------------------
    /// `(do)` `( limit start -- ) ( R: -- limit start )` set up a counted loop.
    DoSetup,
    /// `(?do)` like `(do)` but branches past the loop if `limit == start`.
    QDoSetup(u32),
    /// `(loop)` increment the loop index; branch back to the target while the
    /// index has not crossed the limit, otherwise drop the loop parameters.
    LoopInc(u32),
    /// `(+loop)` `( n -- )` add `n` to the index; branch back while the index
    /// has not crossed the boundary between `limit-1` and `limit`.
    PlusLoopInc(u32),
    /// `i` push the innermost loop index.
    LoopI,
    /// `j` push the next-outer loop index.
    LoopJ,
    /// `unloop` discard one set of loop parameters from the return stack.
    Unloop,

    // ---- I/O -------------------------------------------------------------
    /// `emit` `( c -- )` append a character to the output.
    Emit,
    /// `.` `( n -- )` print a number followed by a space.
    Dot,
    /// `type` `( addr u -- )` print `u` bytes starting at `addr`.
    Type,
    /// `cr` print a newline.
    Cr,
}

/// Classification of an instruction's behaviour, as relevant to stack
/// caching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectKind {
    /// Consumes its inputs and produces freshly computed outputs.
    Normal,
    /// A pure stack manipulation: output slot `i` (bottom-first) is a copy
    /// of input slot `perm[i]` (bottom-first). No values are computed.
    ///
    /// `swap`: inputs `[a b]`, outputs `[b a]` → `&[1, 0]`.
    Shuffle(&'static [u8]),
    /// A shuffle whose shape depends on a runtime value (`?dup`).
    DynamicShuffle,
    /// Requires the true stack pointer or arbitrary-depth access; forces a
    /// cache flush (`pick`, `depth`).
    Opaque,
    /// Unconditional branch: ends a basic block.
    Branch,
    /// Conditional branch: consumes a flag, ends a basic block.
    CondBranch,
    /// Call (static or via `execute`): cache must conform to the calling
    /// convention.
    Call,
    /// Return from a word.
    Return,
    /// Successful termination.
    Halt,
}

/// The static stack effect of an instruction.
///
/// `pops`/`pushes` refer to the data stack, `rpops`/`rpushes` to the return
/// stack. For instructions with dynamic effects these fields describe the
/// dominant case; the interpreter reports exact per-execution numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Effect {
    /// Cells popped from the data stack.
    pub pops: u8,
    /// Cells pushed onto the data stack.
    pub pushes: u8,
    /// Cells popped from the return stack.
    pub rpops: u8,
    /// Cells pushed onto the return stack.
    pub rpushes: u8,
    /// Behaviour class.
    pub kind: EffectKind,
}

impl Effect {
    const fn new(pops: u8, pushes: u8, rpops: u8, rpushes: u8, kind: EffectKind) -> Self {
        Effect {
            pops,
            pushes,
            rpops,
            rpushes,
            kind,
        }
    }

    /// Net change of the data-stack depth.
    #[must_use]
    pub fn net(&self) -> i32 {
        i32::from(self.pushes) - i32::from(self.pops)
    }
}

/// Shuffle permutations, bottom-first (`perm[out_slot] = in_slot`).
pub mod perm {
    /// `dup`: `( a -- a a )`
    pub const DUP: &[u8] = &[0, 0];
    /// `drop`: `( a -- )`
    pub const DROP: &[u8] = &[];
    /// `swap`: `( a b -- b a )`
    pub const SWAP: &[u8] = &[1, 0];
    /// `over`: `( a b -- a b a )`
    pub const OVER: &[u8] = &[0, 1, 0];
    /// `rot`: `( a b c -- b c a )`
    pub const ROT: &[u8] = &[1, 2, 0];
    /// `-rot`: `( a b c -- c a b )`
    pub const MINUS_ROT: &[u8] = &[2, 0, 1];
    /// `nip`: `( a b -- b )`
    pub const NIP: &[u8] = &[1];
    /// `tuck`: `( a b -- b a b )`
    pub const TUCK: &[u8] = &[1, 0, 1];
    /// `2dup`: `( a b -- a b a b )`
    pub const TWO_DUP: &[u8] = &[0, 1, 0, 1];
    /// `2drop`: `( a b -- )`
    pub const TWO_DROP: &[u8] = &[];
    /// `2swap`: `( a b c d -- c d a b )`
    pub const TWO_SWAP: &[u8] = &[2, 3, 0, 1];
    /// `2over`: `( a b c d -- a b c d a b )`
    pub const TWO_OVER: &[u8] = &[0, 1, 2, 3, 0, 1];
    /// `?dup` when the top is non-zero.
    pub const QDUP_NONZERO: &[u8] = &[0, 0];
    /// `?dup` when the top is zero.
    pub const QDUP_ZERO: &[u8] = &[0];
}

impl Inst {
    /// The static stack effect of this instruction.
    ///
    /// For `?dup` and the loop primitives the effect describes the dominant
    /// dynamic case; see the module documentation.
    #[must_use]
    pub const fn effect(&self) -> Effect {
        use EffectKind::*;
        match self {
            Inst::Lit(_) => Effect::new(0, 1, 0, 0, Normal),

            Inst::Add
            | Inst::Sub
            | Inst::Mul
            | Inst::Div
            | Inst::Mod
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
            | Inst::UGt => Effect::new(2, 1, 0, 0, Normal),

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
            | Inst::CharPlus => Effect::new(1, 1, 0, 0, Normal),

            Inst::Dup => Effect::new(1, 2, 0, 0, Shuffle(perm::DUP)),
            Inst::Drop => Effect::new(1, 0, 0, 0, Shuffle(perm::DROP)),
            Inst::Swap => Effect::new(2, 2, 0, 0, Shuffle(perm::SWAP)),
            Inst::Over => Effect::new(2, 3, 0, 0, Shuffle(perm::OVER)),
            Inst::Rot => Effect::new(3, 3, 0, 0, Shuffle(perm::ROT)),
            Inst::MinusRot => Effect::new(3, 3, 0, 0, Shuffle(perm::MINUS_ROT)),
            Inst::Nip => Effect::new(2, 1, 0, 0, Shuffle(perm::NIP)),
            Inst::Tuck => Effect::new(2, 3, 0, 0, Shuffle(perm::TUCK)),
            Inst::TwoDup => Effect::new(2, 4, 0, 0, Shuffle(perm::TWO_DUP)),
            Inst::TwoDrop => Effect::new(2, 0, 0, 0, Shuffle(perm::TWO_DROP)),
            Inst::TwoSwap => Effect::new(4, 4, 0, 0, Shuffle(perm::TWO_SWAP)),
            Inst::TwoOver => Effect::new(4, 6, 0, 0, Shuffle(perm::TWO_OVER)),
            Inst::QDup => Effect::new(1, 2, 0, 0, DynamicShuffle),

            Inst::Pick => Effect::new(1, 1, 0, 0, Opaque),
            Inst::Depth => Effect::new(0, 1, 0, 0, Opaque),

            Inst::ToR => Effect::new(1, 0, 0, 1, Normal),
            Inst::FromR => Effect::new(0, 1, 1, 0, Normal),
            Inst::RFetch => Effect::new(0, 1, 0, 0, Normal),
            Inst::TwoToR => Effect::new(2, 0, 0, 2, Normal),
            Inst::TwoFromR => Effect::new(0, 2, 2, 0, Normal),
            Inst::TwoRFetch => Effect::new(0, 2, 0, 0, Normal),

            Inst::Fetch | Inst::CFetch => Effect::new(1, 1, 0, 0, Normal),
            Inst::Store | Inst::CStore | Inst::PlusStore => Effect::new(2, 0, 0, 0, Normal),

            Inst::Branch(_) => Effect::new(0, 0, 0, 0, Branch),
            Inst::BranchIfZero(_) => Effect::new(1, 0, 0, 0, CondBranch),
            Inst::Call(_) => Effect::new(0, 0, 0, 1, Call),
            Inst::Execute => Effect::new(1, 0, 0, 1, Call),
            Inst::Return => Effect::new(0, 0, 1, 0, Return),
            Inst::Halt => Effect::new(0, 0, 0, 0, Halt),
            Inst::Nop => Effect::new(0, 0, 0, 0, Normal),

            Inst::DoSetup => Effect::new(2, 0, 0, 2, Normal),
            Inst::QDoSetup(_) => Effect::new(2, 0, 0, 2, CondBranch),
            Inst::LoopInc(_) => Effect::new(0, 0, 2, 2, CondBranch),
            Inst::PlusLoopInc(_) => Effect::new(1, 0, 2, 2, CondBranch),
            Inst::LoopI | Inst::LoopJ => Effect::new(0, 1, 0, 0, Normal),
            Inst::Unloop => Effect::new(0, 0, 2, 0, Normal),

            Inst::Emit | Inst::Dot => Effect::new(1, 0, 0, 0, Normal),
            Inst::Type => Effect::new(2, 0, 0, 0, Normal),
            Inst::Cr => Effect::new(0, 0, 0, 0, Normal),
        }
    }

    /// The branch/call target embedded in this instruction, if any.
    #[must_use]
    pub const fn target(&self) -> Option<u32> {
        match self {
            Inst::Branch(t)
            | Inst::BranchIfZero(t)
            | Inst::Call(t)
            | Inst::QDoSetup(t)
            | Inst::LoopInc(t)
            | Inst::PlusLoopInc(t) => Some(*t),
            _ => None,
        }
    }

    /// Replace the embedded branch/call target.
    ///
    /// Returns the instruction unchanged if it has no target. Used by the
    /// program builder when patching labels and by the static-caching
    /// compiler when relocating code.
    #[must_use]
    pub const fn with_target(self, t: u32) -> Inst {
        match self {
            Inst::Branch(_) => Inst::Branch(t),
            Inst::BranchIfZero(_) => Inst::BranchIfZero(t),
            Inst::Call(_) => Inst::Call(t),
            Inst::QDoSetup(_) => Inst::QDoSetup(t),
            Inst::LoopInc(_) => Inst::LoopInc(t),
            Inst::PlusLoopInc(_) => Inst::PlusLoopInc(t),
            other => other,
        }
    }

    /// `true` if this instruction ends a basic block (branches, calls,
    /// returns, and halts).
    ///
    /// Calls end blocks because static stack caching must reconcile the
    /// cache to the calling convention around them (Section 5).
    #[must_use]
    pub const fn ends_block(&self) -> bool {
        matches!(
            self.effect().kind,
            EffectKind::Branch
                | EffectKind::CondBranch
                | EffectKind::Call
                | EffectKind::Return
                | EffectKind::Halt
        )
    }

    /// A dense opcode for dispatch tables, unique per variant (payloads
    /// ignored).
    #[must_use]
    pub const fn opcode(&self) -> u8 {
        match self {
            Inst::Lit(_) => 0,
            Inst::Add => 1,
            Inst::Sub => 2,
            Inst::Mul => 3,
            Inst::Div => 4,
            Inst::Mod => 5,
            Inst::And => 6,
            Inst::Or => 7,
            Inst::Xor => 8,
            Inst::Lshift => 9,
            Inst::Rshift => 10,
            Inst::Min => 11,
            Inst::Max => 12,
            Inst::Eq => 13,
            Inst::Ne => 14,
            Inst::Lt => 15,
            Inst::Gt => 16,
            Inst::Le => 17,
            Inst::Ge => 18,
            Inst::ULt => 19,
            Inst::UGt => 20,
            Inst::Negate => 21,
            Inst::Invert => 22,
            Inst::Abs => 23,
            Inst::OnePlus => 24,
            Inst::OneMinus => 25,
            Inst::TwoStar => 26,
            Inst::TwoSlash => 27,
            Inst::ZeroEq => 28,
            Inst::ZeroNe => 29,
            Inst::ZeroLt => 30,
            Inst::ZeroGt => 31,
            Inst::CellPlus => 32,
            Inst::Cells => 33,
            Inst::CharPlus => 34,
            Inst::Dup => 35,
            Inst::Drop => 36,
            Inst::Swap => 37,
            Inst::Over => 38,
            Inst::Rot => 39,
            Inst::MinusRot => 40,
            Inst::Nip => 41,
            Inst::Tuck => 42,
            Inst::TwoDup => 43,
            Inst::TwoDrop => 44,
            Inst::TwoSwap => 45,
            Inst::TwoOver => 46,
            Inst::QDup => 47,
            Inst::Pick => 48,
            Inst::Depth => 49,
            Inst::ToR => 50,
            Inst::FromR => 51,
            Inst::RFetch => 52,
            Inst::TwoToR => 53,
            Inst::TwoFromR => 54,
            Inst::TwoRFetch => 55,
            Inst::Fetch => 56,
            Inst::Store => 57,
            Inst::CFetch => 58,
            Inst::CStore => 59,
            Inst::PlusStore => 60,
            Inst::Branch(_) => 61,
            Inst::BranchIfZero(_) => 62,
            Inst::Call(_) => 63,
            Inst::Execute => 64,
            Inst::Return => 65,
            Inst::Halt => 66,
            Inst::Nop => 67,
            Inst::DoSetup => 68,
            Inst::QDoSetup(_) => 69,
            Inst::LoopInc(_) => 70,
            Inst::PlusLoopInc(_) => 71,
            Inst::LoopI => 72,
            Inst::LoopJ => 73,
            Inst::Unloop => 74,
            Inst::Emit => 75,
            Inst::Dot => 76,
            Inst::Type => 77,
            Inst::Cr => 78,
        }
    }

    /// Number of distinct opcodes (see [`Inst::opcode`]).
    pub const OPCODE_COUNT: usize = 79;

    /// The conventional Forth name of this instruction.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            Inst::Lit(_) => "lit",
            Inst::Add => "+",
            Inst::Sub => "-",
            Inst::Mul => "*",
            Inst::Div => "/",
            Inst::Mod => "mod",
            Inst::And => "and",
            Inst::Or => "or",
            Inst::Xor => "xor",
            Inst::Lshift => "lshift",
            Inst::Rshift => "rshift",
            Inst::Min => "min",
            Inst::Max => "max",
            Inst::Eq => "=",
            Inst::Ne => "<>",
            Inst::Lt => "<",
            Inst::Gt => ">",
            Inst::Le => "<=",
            Inst::Ge => ">=",
            Inst::ULt => "u<",
            Inst::UGt => "u>",
            Inst::Negate => "negate",
            Inst::Invert => "invert",
            Inst::Abs => "abs",
            Inst::OnePlus => "1+",
            Inst::OneMinus => "1-",
            Inst::TwoStar => "2*",
            Inst::TwoSlash => "2/",
            Inst::ZeroEq => "0=",
            Inst::ZeroNe => "0<>",
            Inst::ZeroLt => "0<",
            Inst::ZeroGt => "0>",
            Inst::CellPlus => "cell+",
            Inst::Cells => "cells",
            Inst::CharPlus => "char+",
            Inst::Dup => "dup",
            Inst::Drop => "drop",
            Inst::Swap => "swap",
            Inst::Over => "over",
            Inst::Rot => "rot",
            Inst::MinusRot => "-rot",
            Inst::Nip => "nip",
            Inst::Tuck => "tuck",
            Inst::TwoDup => "2dup",
            Inst::TwoDrop => "2drop",
            Inst::TwoSwap => "2swap",
            Inst::TwoOver => "2over",
            Inst::QDup => "?dup",
            Inst::Pick => "pick",
            Inst::Depth => "depth",
            Inst::ToR => ">r",
            Inst::FromR => "r>",
            Inst::RFetch => "r@",
            Inst::TwoToR => "2>r",
            Inst::TwoFromR => "2r>",
            Inst::TwoRFetch => "2r@",
            Inst::Fetch => "@",
            Inst::Store => "!",
            Inst::CFetch => "c@",
            Inst::CStore => "c!",
            Inst::PlusStore => "+!",
            Inst::Branch(_) => "branch",
            Inst::BranchIfZero(_) => "?branch",
            Inst::Call(_) => "call",
            Inst::Execute => "execute",
            Inst::Return => "exit",
            Inst::Halt => "halt",
            Inst::Nop => "nop",
            Inst::DoSetup => "(do)",
            Inst::QDoSetup(_) => "(?do)",
            Inst::LoopInc(_) => "(loop)",
            Inst::PlusLoopInc(_) => "(+loop)",
            Inst::LoopI => "i",
            Inst::LoopJ => "j",
            Inst::Unloop => "unloop",
            Inst::Emit => "emit",
            Inst::Dot => ".",
            Inst::Type => "type",
            Inst::Cr => "cr",
        }
    }

    /// Iterate over one representative of every instruction variant.
    ///
    /// Useful for exhaustive tests over the instruction set.
    pub fn all() -> impl Iterator<Item = Inst> {
        ALL.iter().copied()
    }
}

/// One representative per variant, in opcode order.
const ALL: &[Inst] = &[
    Inst::Lit(0),
    Inst::Add,
    Inst::Sub,
    Inst::Mul,
    Inst::Div,
    Inst::Mod,
    Inst::And,
    Inst::Or,
    Inst::Xor,
    Inst::Lshift,
    Inst::Rshift,
    Inst::Min,
    Inst::Max,
    Inst::Eq,
    Inst::Ne,
    Inst::Lt,
    Inst::Gt,
    Inst::Le,
    Inst::Ge,
    Inst::ULt,
    Inst::UGt,
    Inst::Negate,
    Inst::Invert,
    Inst::Abs,
    Inst::OnePlus,
    Inst::OneMinus,
    Inst::TwoStar,
    Inst::TwoSlash,
    Inst::ZeroEq,
    Inst::ZeroNe,
    Inst::ZeroLt,
    Inst::ZeroGt,
    Inst::CellPlus,
    Inst::Cells,
    Inst::CharPlus,
    Inst::Dup,
    Inst::Drop,
    Inst::Swap,
    Inst::Over,
    Inst::Rot,
    Inst::MinusRot,
    Inst::Nip,
    Inst::Tuck,
    Inst::TwoDup,
    Inst::TwoDrop,
    Inst::TwoSwap,
    Inst::TwoOver,
    Inst::QDup,
    Inst::Pick,
    Inst::Depth,
    Inst::ToR,
    Inst::FromR,
    Inst::RFetch,
    Inst::TwoToR,
    Inst::TwoFromR,
    Inst::TwoRFetch,
    Inst::Fetch,
    Inst::Store,
    Inst::CFetch,
    Inst::CStore,
    Inst::PlusStore,
    Inst::Branch(0),
    Inst::BranchIfZero(0),
    Inst::Call(0),
    Inst::Execute,
    Inst::Return,
    Inst::Halt,
    Inst::Nop,
    Inst::DoSetup,
    Inst::QDoSetup(0),
    Inst::LoopInc(0),
    Inst::PlusLoopInc(0),
    Inst::LoopI,
    Inst::LoopJ,
    Inst::Unloop,
    Inst::Emit,
    Inst::Dot,
    Inst::Type,
    Inst::Cr,
];

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Lit(n) => write!(f, "lit {n}"),
            Inst::Branch(t) => write!(f, "branch -> {t}"),
            Inst::BranchIfZero(t) => write!(f, "?branch -> {t}"),
            Inst::Call(t) => write!(f, "call -> {t}"),
            Inst::QDoSetup(t) => write!(f, "(?do) -> {t}"),
            Inst::LoopInc(t) => write!(f, "(loop) -> {t}"),
            Inst::PlusLoopInc(t) => write!(f, "(+loop) -> {t}"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcodes_are_dense_and_unique() {
        let mut seen = [false; Inst::OPCODE_COUNT];
        for inst in Inst::all() {
            let op = inst.opcode() as usize;
            assert!(
                op < Inst::OPCODE_COUNT,
                "opcode {op} out of range for {inst}"
            );
            assert!(!seen[op], "duplicate opcode {op} for {inst}");
            seen[op] = true;
        }
        assert!(seen.iter().all(|&s| s), "opcode table has holes");
    }

    #[test]
    fn all_covers_every_opcode_in_order() {
        for (i, inst) in Inst::all().enumerate() {
            assert_eq!(inst.opcode() as usize, i);
        }
    }

    #[test]
    fn shuffle_perms_are_consistent_with_pop_push_counts() {
        for inst in Inst::all() {
            let eff = inst.effect();
            if let EffectKind::Shuffle(perm) = eff.kind {
                assert_eq!(perm.len(), eff.pushes as usize, "{inst}: perm length");
                for &src in perm {
                    assert!(src < eff.pops, "{inst}: perm source {src} out of range");
                }
            }
        }
    }

    #[test]
    fn targets_roundtrip() {
        for inst in Inst::all() {
            match inst.target() {
                Some(_) => {
                    let patched = inst.with_target(99);
                    assert_eq!(patched.target(), Some(99));
                    assert_eq!(patched.opcode(), inst.opcode());
                }
                None => assert_eq!(inst.with_target(99), inst),
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Inst::all().map(|i| i.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn display_shows_targets() {
        assert_eq!(Inst::Branch(7).to_string(), "branch -> 7");
        assert_eq!(Inst::Lit(-3).to_string(), "lit -3");
        assert_eq!(Inst::Add.to_string(), "+");
    }

    #[test]
    fn block_enders() {
        assert!(Inst::Branch(0).ends_block());
        assert!(Inst::BranchIfZero(0).ends_block());
        assert!(Inst::Call(0).ends_block());
        assert!(Inst::Execute.ends_block());
        assert!(Inst::Return.ends_block());
        assert!(Inst::Halt.ends_block());
        assert!(Inst::LoopInc(0).ends_block());
        assert!(!Inst::Add.ends_block());
        assert!(!Inst::Dup.ends_block());
    }
}
