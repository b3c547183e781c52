//! The precompiled execution engine: one-time lowering of MiniC IR into a
//! flat, dense instruction stream.
//!
//! The tree-walking interpreter re-resolved `function -> block -> instr`
//! through three indexed lookups and cloned the [`Op`] on every step —
//! acceptable for one run, ruinous for a simulated fleet executing
//! thousands of runs of the *same* program. Lowering moves all of that to
//! compile time, once per program:
//!
//! * every function becomes one contiguous `Vec` of `CInstr`; block
//!   boundaries disappear and fallthrough is `pc + 1`,
//! * jump and call targets are resolved to instruction indices
//!   (`COp::Jump`/`COp::CondBr` carry `pc` values, calls carry dense
//!   function indices),
//! * operands are interned into `Slot`s: registers become raw slot
//!   numbers and globals are folded to their *constant* addresses (the
//!   globals segment layout is deterministic, mirroring
//!   [`crate::mem::Memory::new`]),
//! * the two-phase memory-access protocol is precomputed: each compiled
//!   instruction carries its address slot and access kind so the
//!   [`crate::Vm`] arm point costs one table read instead of an `Op` match,
//! * per-function frame layout (register count) and the entry statement id
//!   (the PT `IndirectTransfer` target) are precomputed.
//!
//! Compiled slots keep their original [`InstrId`], so the event stream the
//! VM emits is bit-identical to the tree-walk interpreter's — verified by
//! the compiled-vs-treewalk differential test over the full bugbase.
//!
//! [`CompiledProgram::shared`] memoizes compilation in a process-global
//! cache keyed by [`Program::fingerprint`], so a fleet's worker threads all
//! execute one read-only compilation through an [`Arc`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use gist_ir::{
    BinKind, Callee, CmpKind, InstrId, IntrinsicKind, Op, Operand, Program, Terminator, Value,
};

use crate::event::AccessKind;
use crate::mem::GLOBALS_BASE;

/// An interned operand: either a constant (immediates and resolved global
/// addresses) or a register slot in the current frame.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Slot {
    /// An immediate value (includes folded global addresses).
    Const(Value),
    /// Frame register number.
    Var(u32),
}

/// A resolved call target.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CCallee {
    /// Dense function index.
    Direct(u32),
    /// Function address computed at runtime from this slot.
    Indirect(Slot),
}

/// A lowered operation. Mirrors [`Op`]/[`Terminator`] with all names
/// resolved; terminators are ordinary entries in the instruction stream.
#[derive(Clone, Debug)]
pub(crate) enum COp {
    Const {
        dst: u32,
        value: Value,
    },
    Bin {
        dst: u32,
        kind: BinKind,
        a: Slot,
        b: Slot,
    },
    Cmp {
        dst: u32,
        kind: CmpKind,
        a: Slot,
        b: Slot,
    },
    Load {
        dst: u32,
        addr: Slot,
    },
    Store {
        addr: Slot,
        value: Slot,
    },
    Gep {
        dst: u32,
        base: Slot,
        offset: Slot,
    },
    Alloc {
        dst: u32,
        size: Slot,
    },
    StackAlloc {
        dst: u32,
        size: Slot,
    },
    Free {
        addr: Slot,
    },
    Call {
        dst: Option<u32>,
        callee: CCallee,
        args: Box<[Slot]>,
    },
    FuncAddr {
        dst: u32,
        value: Value,
    },
    ThreadCreate {
        dst: Option<u32>,
        routine: CCallee,
        arg: Slot,
    },
    ThreadJoin {
        tid: Slot,
    },
    MutexLock {
        addr: Slot,
    },
    MutexUnlock {
        addr: Slot,
    },
    Assert {
        cond: Slot,
        msg: Arc<str>,
    },
    Print {
        args: Box<[Slot]>,
    },
    Intrinsic {
        dst: Option<u32>,
        kind: IntrinsicKind,
        args: Box<[Slot]>,
    },
    ReadInput {
        dst: u32,
        index: usize,
    },
    Nop,
    /// Unconditional jump to an instruction index (lowered `br`).
    Jump {
        to: u32,
    },
    /// Conditional jump (lowered `condbr`); both targets are pc values.
    CondBr {
        cond: Slot,
        then_to: u32,
        else_to: u32,
    },
    /// Lowered `ret`.
    Ret {
        value: Option<Slot>,
    },
    /// Lowered `unreachable`.
    Unreachable,
}

/// One slot of the flat instruction stream.
#[derive(Clone, Debug)]
pub(crate) struct CInstr {
    /// The original statement id (events must carry it unchanged).
    pub(crate) iid: InstrId,
    /// Precomputed two-phase access info: the address slot and access
    /// kind, for ops that touch memory (`load`/`store`/`free`/`lock`/
    /// `unlock`).
    pub(crate) pre: Option<(Slot, AccessKind)>,
    /// The operation.
    pub(crate) op: COp,
}

/// One lowered function.
#[derive(Debug)]
pub(crate) struct CompiledFunction {
    /// Flat instruction stream: blocks in order, each block's instructions
    /// followed by its terminator.
    pub(crate) code: Vec<CInstr>,
    /// Register-file size (frame layout).
    pub(crate) num_vars: usize,
    /// First statement of the entry block — the PT-visible target of an
    /// indirect transfer into this function.
    pub(crate) entry_stmt: InstrId,
}

/// A whole program, lowered. Immutable after construction; share it across
/// worker threads with [`Arc`].
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) funcs: Vec<CompiledFunction>,
    /// Base address of each global (must equal the layout
    /// [`crate::mem::Memory::new`] produces).
    pub(crate) global_bases: Vec<u64>,
    name: String,
    stmt_count: usize,
}

/// Computes the deterministic globals layout without materializing memory.
/// Must stay in lock-step with [`crate::mem::Memory::new`].
fn global_layout(program: &Program) -> Vec<u64> {
    let mut bases = Vec::with_capacity(program.globals.len());
    let mut addr = GLOBALS_BASE;
    for g in &program.globals {
        bases.push(addr);
        addr += g.size as u64;
    }
    bases
}

impl CompiledProgram {
    /// Lowers a finalized program.
    pub fn compile(program: &Program) -> CompiledProgram {
        let global_bases = global_layout(program);
        let lower_operand = |op: Operand| -> Slot {
            match op {
                Operand::Const(v) => Slot::Const(v),
                Operand::Var(v) => Slot::Var(v.index() as u32),
                Operand::Global(g) => Slot::Const(global_bases[g.index()] as Value),
            }
        };
        let lower_callee = |c: &Callee| -> CCallee {
            match c {
                Callee::Direct(f) => CCallee::Direct(f.index() as u32),
                Callee::Indirect(op) => CCallee::Indirect(lower_operand(*op)),
            }
        };
        let mut funcs = Vec::with_capacity(program.functions.len());
        for f in &program.functions {
            // Pass 1: instruction index of each block start.
            let mut block_starts = Vec::with_capacity(f.blocks.len());
            let mut pc = 0u32;
            for b in &f.blocks {
                block_starts.push(pc);
                pc += b.instrs.len() as u32 + 1; // + terminator
            }
            // Pass 2: lower.
            let mut code = Vec::with_capacity(pc as usize);
            for b in &f.blocks {
                for instr in &b.instrs {
                    let pre = instr.op.access_addr().map(|addr_op| {
                        let kind = if instr.op.is_memory_write() {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        (lower_operand(addr_op), kind)
                    });
                    let op = match &instr.op {
                        Op::Const { dst, value } => COp::Const {
                            dst: dst.index() as u32,
                            value: *value,
                        },
                        Op::Bin { dst, kind, a, b } => COp::Bin {
                            dst: dst.index() as u32,
                            kind: *kind,
                            a: lower_operand(*a),
                            b: lower_operand(*b),
                        },
                        Op::Cmp { dst, kind, a, b } => COp::Cmp {
                            dst: dst.index() as u32,
                            kind: *kind,
                            a: lower_operand(*a),
                            b: lower_operand(*b),
                        },
                        Op::Load { dst, addr } => COp::Load {
                            dst: dst.index() as u32,
                            addr: lower_operand(*addr),
                        },
                        Op::Store { addr, value } => COp::Store {
                            addr: lower_operand(*addr),
                            value: lower_operand(*value),
                        },
                        Op::Gep { dst, base, offset } => COp::Gep {
                            dst: dst.index() as u32,
                            base: lower_operand(*base),
                            offset: lower_operand(*offset),
                        },
                        Op::Alloc { dst, size } => COp::Alloc {
                            dst: dst.index() as u32,
                            size: lower_operand(*size),
                        },
                        Op::StackAlloc { dst, size } => COp::StackAlloc {
                            dst: dst.index() as u32,
                            size: lower_operand(*size),
                        },
                        Op::Free { addr } => COp::Free {
                            addr: lower_operand(*addr),
                        },
                        Op::Call { dst, callee, args } => COp::Call {
                            dst: dst.map(|d| d.index() as u32),
                            callee: lower_callee(callee),
                            args: args.iter().map(|&a| lower_operand(a)).collect(),
                        },
                        Op::FuncAddr { dst, func } => COp::FuncAddr {
                            dst: dst.index() as u32,
                            value: Program::FUNC_ADDR_BASE + func.index() as Value,
                        },
                        Op::ThreadCreate { dst, routine, arg } => COp::ThreadCreate {
                            dst: dst.map(|d| d.index() as u32),
                            routine: lower_callee(routine),
                            arg: lower_operand(*arg),
                        },
                        Op::ThreadJoin { tid } => COp::ThreadJoin {
                            tid: lower_operand(*tid),
                        },
                        Op::MutexLock { addr } => COp::MutexLock {
                            addr: lower_operand(*addr),
                        },
                        Op::MutexUnlock { addr } => COp::MutexUnlock {
                            addr: lower_operand(*addr),
                        },
                        Op::Assert { cond, msg } => COp::Assert {
                            cond: lower_operand(*cond),
                            msg: msg.as_str().into(),
                        },
                        Op::Print { args } => COp::Print {
                            args: args.iter().map(|&a| lower_operand(a)).collect(),
                        },
                        Op::Intrinsic { dst, kind, args } => COp::Intrinsic {
                            dst: dst.map(|d| d.index() as u32),
                            kind: *kind,
                            args: args.iter().map(|&a| lower_operand(a)).collect(),
                        },
                        Op::ReadInput { dst, index } => COp::ReadInput {
                            dst: dst.index() as u32,
                            index: *index,
                        },
                        Op::Nop => COp::Nop,
                    };
                    code.push(CInstr {
                        iid: instr.id,
                        pre,
                        op,
                    });
                }
                let op = match &b.term {
                    Terminator::Br { target, .. } => COp::Jump {
                        to: block_starts[target.index()],
                    },
                    Terminator::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                        ..
                    } => COp::CondBr {
                        cond: lower_operand(*cond),
                        then_to: block_starts[then_bb.index()],
                        else_to: block_starts[else_bb.index()],
                    },
                    Terminator::Ret { value, .. } => COp::Ret {
                        value: value.map(lower_operand),
                    },
                    Terminator::Unreachable { .. } => COp::Unreachable,
                };
                code.push(CInstr {
                    iid: b.term.id(),
                    pre: None,
                    op,
                });
            }
            let entry_stmt = {
                let eb = f.block(f.entry());
                eb.instrs
                    .first()
                    .map(|i| i.id)
                    .unwrap_or_else(|| eb.term.id())
            };
            funcs.push(CompiledFunction {
                code,
                num_vars: f.num_vars(),
                entry_stmt,
            });
        }
        CompiledProgram {
            funcs,
            global_bases,
            name: program.name.clone(),
            stmt_count: program.stmt_count(),
        }
    }

    /// Returns the shared compilation of `program` from the process-global
    /// compile cache, compiling on first use.
    ///
    /// The cache is keyed by [`Program::fingerprint`]; a hit is
    /// double-checked against the program's name, statement count, and
    /// function count, so a (vanishingly unlikely) fingerprint collision
    /// degrades to an uncached compile rather than executing wrong code.
    /// The cache deliberately records no metrics: hit patterns depend on
    /// process history, which would break the gist-obs determinism
    /// contract.
    pub fn shared(program: &Program) -> Arc<CompiledProgram> {
        static CACHE: OnceLock<Mutex<HashMap<u64, Arc<CompiledProgram>>>> = OnceLock::new();
        let fp = program.fingerprint();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().unwrap();
        if let Some(c) = map.get(&fp) {
            if c.matches(program) {
                return Arc::clone(c);
            }
            // Fingerprint collision: compile fresh, leave the cache alone.
            return Arc::new(Self::compile(program));
        }
        let compiled = Arc::new(Self::compile(program));
        map.insert(fp, Arc::clone(&compiled));
        compiled
    }

    /// True if this compilation structurally corresponds to `program`.
    pub fn matches(&self, program: &Program) -> bool {
        self.name == program.name
            && self.stmt_count == program.stmt_count()
            && self.funcs.len() == program.functions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;

    fn sample() -> Program {
        parse_program(
            "t",
            r#"
global g = 7
fn add1(x) {
entry:
  y = add x, 1
  ret y
}
fn main() {
entry:
  v = load $g
  c = cmp gt v, 0
  condbr c, body, exit
body:
  r = call add1(v)
  store $g, r
  br exit
exit:
  ret
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn lowering_keeps_statement_ids_in_block_order() {
        let p = sample();
        let c = CompiledProgram::compile(&p);
        for (f, cf) in p.functions.iter().zip(&c.funcs) {
            let want: Vec<InstrId> = f.stmt_ids().collect();
            let got: Vec<InstrId> = cf.code.iter().map(|ci| ci.iid).collect();
            assert_eq!(want, got, "{}", f.name);
            assert_eq!(cf.num_vars, f.num_vars());
        }
    }

    #[test]
    fn globals_fold_to_memory_layout_addresses() {
        let p = sample();
        let c = CompiledProgram::compile(&p);
        let mem = crate::mem::Memory::new(&p);
        for (i, g) in p.globals.iter().enumerate() {
            assert_eq!(c.global_bases[i], mem.global_base(g.id));
        }
        // The `load $g` lowered to a constant-address slot.
        let main = &c.funcs[p.entry.index()];
        match &main.code[0].op {
            COp::Load {
                addr: Slot::Const(a),
                ..
            } => {
                assert_eq!(*a as u64, c.global_bases[0]);
            }
            other => panic!("expected folded load, got {other:?}"),
        }
    }

    #[test]
    fn branch_targets_are_pc_indices() {
        let p = sample();
        let c = CompiledProgram::compile(&p);
        let main = &c.funcs[p.entry.index()];
        let n = main.code.len() as u32;
        for ci in &main.code {
            match ci.op {
                COp::Jump { to } => assert!(to < n),
                COp::CondBr {
                    then_to, else_to, ..
                } => {
                    assert!(then_to < n && else_to < n);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn shared_returns_one_compilation_per_program() {
        let p = sample();
        let a = CompiledProgram::shared(&p);
        let b = CompiledProgram::shared(&p);
        assert!(Arc::ptr_eq(&a, &b), "same fingerprint must share");
        assert!(a.matches(&p));
    }

    #[test]
    fn pre_access_info_matches_op_classification() {
        let p = sample();
        let c = CompiledProgram::compile(&p);
        for (f, cf) in p.functions.iter().zip(&c.funcs) {
            for b in &f.blocks {
                for instr in &b.instrs {
                    let pos = cf.code.iter().position(|ci| ci.iid == instr.id).unwrap();
                    assert_eq!(
                        cf.code[pos].pre.is_some(),
                        instr.op.access_addr().is_some(),
                        "{:?}",
                        instr.op
                    );
                }
            }
        }
    }
}
