//! IR instructions, operands, and terminators.

use std::fmt;

use crate::srcmap::SrcLoc;
use crate::types::{FuncId, GlobalId, InstrId, Value, VarId};

/// An operand of an instruction.
///
/// In the paper's Algorithm 1 vocabulary, operands are the *items* that the
/// backward slicer pushes onto its work set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A local virtual register.
    Var(VarId),
    /// An immediate constant.
    Const(Value),
    /// The *address* of a global variable. Reading a global is
    /// `load $g`; writing is `store $g, v`.
    Global(GlobalId),
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Const(v)
    }
}

impl From<GlobalId> for Operand {
    fn from(g: GlobalId) -> Self {
        Operand::Global(g)
    }
}

impl Operand {
    /// Returns the variable if this operand is a register.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// Binary arithmetic/bitwise operation kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (division by zero is a VM failure).
    Div,
    /// Signed remainder (remainder by zero is a VM failure).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount masked to 63).
    Shl,
    /// Arithmetic right shift (shift amount masked to 63).
    Shr,
}

impl BinKind {
    /// The textual mnemonic used by the parser/printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::Div => "div",
            BinKind::Rem => "rem",
            BinKind::And => "and",
            BinKind::Or => "or",
            BinKind::Xor => "xor",
            BinKind::Shl => "shl",
            BinKind::Shr => "shr",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "add" => BinKind::Add,
            "sub" => BinKind::Sub,
            "mul" => BinKind::Mul,
            "div" => BinKind::Div,
            "rem" => BinKind::Rem,
            "and" => BinKind::And,
            "or" => BinKind::Or,
            "xor" => BinKind::Xor,
            "shl" => BinKind::Shl,
            "shr" => BinKind::Shr,
            _ => return None,
        })
    }
}

/// Comparison operation kinds (result is 0 or 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpKind {
    /// The textual mnemonic used by the parser/printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpKind::Eq => "eq",
            CmpKind::Ne => "ne",
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Gt => "gt",
            CmpKind::Ge => "ge",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => CmpKind::Eq,
            "ne" => CmpKind::Ne,
            "lt" => CmpKind::Lt,
            "le" => CmpKind::Le,
            "gt" => CmpKind::Gt,
            "ge" => CmpKind::Ge,
            _ => return None,
        })
    }

    /// Evaluates the comparison.
    pub fn eval(self, a: Value, b: Value) -> Value {
        let r = match self {
            CmpKind::Eq => a == b,
            CmpKind::Ne => a != b,
            CmpKind::Lt => a < b,
            CmpKind::Le => a <= b,
            CmpKind::Gt => a > b,
            CmpKind::Ge => a >= b,
        };
        r as Value
    }
}

/// A call target: a statically known function or a function pointer.
///
/// Indirect calls are why the paper needs *runtime* control-flow tracking —
/// static slicing cannot resolve dynamically computed call targets (§3.2.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Callee {
    /// Direct call to a known function.
    Direct(FuncId),
    /// Indirect call through an operand holding an encoded function address
    /// (see [`crate::program::Program::FUNC_ADDR_BASE`]).
    Indirect(Operand),
}

/// String/memory intrinsics used by the evaluation programs (e.g. the Curl
/// #965 bug calls `strlen` on a NULL pointer).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntrinsicKind {
    /// `strlen(p)`: count non-zero cells starting at `p`. NULL deref on `p == 0`.
    Strlen,
    /// `memset(p, v, n)`: fill `n` cells starting at `p` with `v`.
    Memset,
    /// `memcpy(dst, src, n)`: copy `n` cells.
    Memcpy,
}

impl IntrinsicKind {
    /// The textual mnemonic used by the parser/printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IntrinsicKind::Strlen => "strlen",
            IntrinsicKind::Memset => "memset",
            IntrinsicKind::Memcpy => "memcpy",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "strlen" => IntrinsicKind::Strlen,
            "memset" => IntrinsicKind::Memset,
            "memcpy" => IntrinsicKind::Memcpy,
            _ => return None,
        })
    }
}

/// The operation performed by an [`Instr`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// `dst = const v`
    Const {
        /// Destination register.
        dst: VarId,
        /// Immediate value.
        value: Value,
    },
    /// `dst = <bin> a, b`
    Bin {
        /// Destination register.
        dst: VarId,
        /// Operation kind.
        kind: BinKind,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = cmp <kind> a, b`
    Cmp {
        /// Destination register.
        dst: VarId,
        /// Comparison kind.
        kind: CmpKind,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = load addr` — read memory cell `*addr`.
    Load {
        /// Destination register.
        dst: VarId,
        /// Address operand.
        addr: Operand,
    },
    /// `store addr, value` — write memory cell `*addr`.
    Store {
        /// Address operand.
        addr: Operand,
        /// Value to store.
        value: Operand,
    },
    /// `dst = gep base, offset` — address arithmetic `base + offset`
    /// (models C field/array addressing like `&f->mut`).
    Gep {
        /// Destination register.
        dst: VarId,
        /// Base address.
        base: Operand,
        /// Cell offset.
        offset: Operand,
    },
    /// `dst = alloc n` — heap-allocate `n` cells, returns base address.
    Alloc {
        /// Destination register (receives base address).
        dst: VarId,
        /// Number of cells.
        size: Operand,
    },
    /// `free p` — release a heap allocation. Double free is a failure.
    Free {
        /// Base address of the allocation.
        addr: Operand,
    },
    /// `dst = stackalloc n` — allocate `n` cells in the current frame's
    /// stack region. Stack cells are excluded from watchpoint placement
    /// (paper §3.2.3 / §6: Gist does not track stack variables).
    StackAlloc {
        /// Destination register (receives base address).
        dst: VarId,
        /// Number of cells.
        size: Operand,
    },
    /// `dst = call f(args...)` or `dst = icall p(args...)`
    Call {
        /// Optional destination for the return value.
        dst: Option<VarId>,
        /// Call target.
        callee: Callee,
        /// Actual arguments.
        args: Vec<Operand>,
    },
    /// `dst = funcaddr f` — take the address of a function (for `icall`).
    FuncAddr {
        /// Destination register.
        dst: VarId,
        /// The function whose encoded address is produced.
        func: FuncId,
    },
    /// `tid = spawn f(arg)` — create a thread running `f(arg)`.
    ThreadCreate {
        /// Optional destination for the thread id.
        dst: Option<VarId>,
        /// Thread start routine.
        routine: Callee,
        /// Single argument passed to the routine.
        arg: Operand,
    },
    /// `join t` — wait for thread `t` to finish.
    ThreadJoin {
        /// Thread id operand.
        tid: Operand,
    },
    /// `lock p` — acquire the mutex stored in cell `*p`.
    ///
    /// Locking through a NULL or dangling pointer is a segfault — this is
    /// exactly the pbzip2 #1 failure from the paper's Fig. 1.
    MutexLock {
        /// Address of the mutex cell.
        addr: Operand,
    },
    /// `unlock p` — release the mutex stored in cell `*p`.
    MutexUnlock {
        /// Address of the mutex cell.
        addr: Operand,
    },
    /// `assert cond, "msg"` — failure point when `cond == 0`.
    Assert {
        /// Condition operand.
        cond: Operand,
        /// Human-readable assertion message.
        msg: String,
    },
    /// `print a, b, ...` — append values to the run's observable output.
    Print {
        /// Values to print.
        args: Vec<Operand>,
    },
    /// `dst = intrinsic(args...)` — string/memory helper.
    Intrinsic {
        /// Optional destination register.
        dst: Option<VarId>,
        /// Which intrinsic.
        kind: IntrinsicKind,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `dst = arg n` — read the n-th program input (workload-provided).
    ReadInput {
        /// Destination register.
        dst: VarId,
        /// Input index.
        index: usize,
    },
    /// No operation (kept for patched-out statements).
    Nop,
}

impl Op {
    /// The register defined by this operation, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Op::Const { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Load { dst, .. }
            | Op::Gep { dst, .. }
            | Op::Alloc { dst, .. }
            | Op::StackAlloc { dst, .. }
            | Op::FuncAddr { dst, .. }
            | Op::ReadInput { dst, .. } => Some(*dst),
            Op::Call { dst, .. } | Op::ThreadCreate { dst, .. } | Op::Intrinsic { dst, .. } => *dst,
            _ => None,
        }
    }

    /// All operands read by this operation.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Op::Const { .. } | Op::FuncAddr { .. } | Op::ReadInput { .. } | Op::Nop => vec![],
            Op::Bin { a, b, .. } | Op::Cmp { a, b, .. } => vec![*a, *b],
            Op::Load { addr, .. } => vec![*addr],
            Op::Store { addr, value } => vec![*addr, *value],
            Op::Gep { base, offset, .. } => vec![*base, *offset],
            Op::Alloc { size, .. } | Op::StackAlloc { size, .. } => vec![*size],
            Op::Free { addr } => vec![*addr],
            Op::Call { callee, args, .. } => {
                let mut v = args.clone();
                if let Callee::Indirect(op) = callee {
                    v.push(*op);
                }
                v
            }
            Op::ThreadCreate { routine, arg, .. } => {
                let mut v = vec![*arg];
                if let Callee::Indirect(op) = routine {
                    v.push(*op);
                }
                v
            }
            Op::ThreadJoin { tid } => vec![*tid],
            Op::MutexLock { addr } | Op::MutexUnlock { addr } => vec![*addr],
            Op::Assert { cond, .. } => vec![*cond],
            Op::Print { args } => args.clone(),
            Op::Intrinsic { args, .. } => args.clone(),
        }
    }

    /// True if this operation reads or writes memory.
    ///
    /// These are the "memory access" sources of Algorithm 1 and the
    /// candidates for hardware watchpoint placement.
    pub fn is_memory_access(&self) -> bool {
        matches!(
            self,
            Op::Load { .. }
                | Op::Store { .. }
                | Op::Free { .. }
                | Op::MutexLock { .. }
                | Op::MutexUnlock { .. }
                | Op::Intrinsic { .. }
        )
    }

    /// True if this operation writes memory (for W/R classification of the
    /// atomicity-violation and race patterns in paper §3.3).
    pub fn is_memory_write(&self) -> bool {
        matches!(
            self,
            Op::Store { .. } | Op::Free { .. } | Op::MutexLock { .. } | Op::MutexUnlock { .. }
        )
    }

    /// The address operand of a memory access, if this op is one with a
    /// single statically identifiable address.
    pub fn access_addr(&self) -> Option<Operand> {
        match self {
            Op::Load { addr, .. }
            | Op::Store { addr, .. }
            | Op::Free { addr }
            | Op::MutexLock { addr }
            | Op::MutexUnlock { addr } => Some(*addr),
            _ => None,
        }
    }

    /// True for call-like operations (calls and thread creations), which
    /// Algorithm 1 treats specially via `getRetValues`.
    pub fn is_call_like(&self) -> bool {
        matches!(self, Op::Call { .. } | Op::ThreadCreate { .. })
    }
}

/// A single IR instruction: an operation plus identity and source location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Instr {
    /// Program-wide unique statement id (assigned at finalize).
    pub id: InstrId,
    /// The operation.
    pub op: Op,
    /// Source attribution.
    pub loc: SrcLoc,
}

/// A basic-block terminator. Terminators also receive [`InstrId`]s because
/// branches are statements that participate in slices and control-flow
/// tracking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Terminator {
    /// Unconditional branch.
    Br {
        /// Statement id.
        id: InstrId,
        /// Target block.
        target: crate::types::BlockId,
        /// Source attribution.
        loc: SrcLoc,
    },
    /// Conditional branch. This is where the Intel PT simulator emits TNT
    /// (taken / not-taken) bits.
    CondBr {
        /// Statement id.
        id: InstrId,
        /// Condition operand (non-zero means taken).
        cond: Operand,
        /// Block on true.
        then_bb: crate::types::BlockId,
        /// Block on false.
        else_bb: crate::types::BlockId,
        /// Source attribution.
        loc: SrcLoc,
    },
    /// Function return.
    Ret {
        /// Statement id.
        id: InstrId,
        /// Optional return value.
        value: Option<Operand>,
        /// Source attribution.
        loc: SrcLoc,
    },
    /// Unreachable marker (executing it is a VM failure).
    Unreachable {
        /// Statement id.
        id: InstrId,
        /// Source attribution.
        loc: SrcLoc,
    },
}

impl Terminator {
    /// The statement id of the terminator.
    pub fn id(&self) -> InstrId {
        match self {
            Terminator::Br { id, .. }
            | Terminator::CondBr { id, .. }
            | Terminator::Ret { id, .. }
            | Terminator::Unreachable { id, .. } => *id,
        }
    }

    /// The source location of the terminator.
    pub fn loc(&self) -> SrcLoc {
        match self {
            Terminator::Br { loc, .. }
            | Terminator::CondBr { loc, .. }
            | Terminator::Ret { loc, .. }
            | Terminator::Unreachable { loc, .. } => *loc,
        }
    }

    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<crate::types::BlockId> {
        match self {
            Terminator::Br { target, .. } => vec![*target],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Ret { .. } | Terminator::Unreachable { .. } => vec![],
        }
    }

    /// Operands read by the terminator.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Terminator::CondBr { cond, .. } => vec![*cond],
            Terminator::Ret { value: Some(v), .. } => vec![*v],
            _ => vec![],
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::fmt_op(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BlockId, FuncId, GlobalId, InstrId, VarId};

    #[test]
    fn def_and_uses() {
        let op = Op::Bin {
            dst: VarId(0),
            kind: BinKind::Add,
            a: Operand::Var(VarId(1)),
            b: Operand::Const(3),
        };
        assert_eq!(op.def(), Some(VarId(0)));
        assert_eq!(op.uses(), vec![Operand::Var(VarId(1)), Operand::Const(3)]);
    }

    #[test]
    fn store_has_no_def_but_uses_both() {
        let op = Op::Store {
            addr: Operand::Global(GlobalId(0)),
            value: Operand::Var(VarId(2)),
        };
        assert_eq!(op.def(), None);
        assert_eq!(op.uses().len(), 2);
        assert!(op.is_memory_access());
        assert!(op.is_memory_write());
    }

    #[test]
    fn load_is_read_not_write() {
        let op = Op::Load {
            dst: VarId(0),
            addr: Operand::Var(VarId(1)),
        };
        assert!(op.is_memory_access());
        assert!(!op.is_memory_write());
        assert_eq!(op.access_addr(), Some(Operand::Var(VarId(1))));
    }

    #[test]
    fn indirect_call_uses_pointer() {
        let op = Op::Call {
            dst: None,
            callee: Callee::Indirect(Operand::Var(VarId(9))),
            args: vec![Operand::Const(1)],
        };
        assert!(op.uses().contains(&Operand::Var(VarId(9))));
        assert!(op.is_call_like());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            id: InstrId(0),
            cond: Operand::Var(VarId(0)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            loc: crate::SrcLoc::UNKNOWN,
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        let r = Terminator::Ret {
            id: InstrId(1),
            value: None,
            loc: crate::SrcLoc::UNKNOWN,
        };
        assert!(r.successors().is_empty());
    }

    #[test]
    fn mnemonic_roundtrip() {
        for k in [
            BinKind::Add,
            BinKind::Sub,
            BinKind::Mul,
            BinKind::Div,
            BinKind::Rem,
            BinKind::And,
            BinKind::Or,
            BinKind::Xor,
            BinKind::Shl,
            BinKind::Shr,
        ] {
            assert_eq!(BinKind::from_mnemonic(k.mnemonic()), Some(k));
        }
        for k in [
            CmpKind::Eq,
            CmpKind::Ne,
            CmpKind::Lt,
            CmpKind::Le,
            CmpKind::Gt,
            CmpKind::Ge,
        ] {
            assert_eq!(CmpKind::from_mnemonic(k.mnemonic()), Some(k));
        }
        assert_eq!(BinKind::from_mnemonic("bogus"), None);
    }

    #[test]
    fn cmp_eval() {
        assert_eq!(CmpKind::Lt.eval(1, 2), 1);
        assert_eq!(CmpKind::Lt.eval(2, 1), 0);
        assert_eq!(CmpKind::Eq.eval(5, 5), 1);
        assert_eq!(CmpKind::Ge.eval(-1, -1), 1);
    }

    #[test]
    fn spawn_is_call_like() {
        let op = Op::ThreadCreate {
            dst: Some(VarId(0)),
            routine: Callee::Direct(FuncId(1)),
            arg: Operand::Const(0),
        };
        assert!(op.is_call_like());
        assert_eq!(op.uses(), vec![Operand::Const(0)]);
    }
}
