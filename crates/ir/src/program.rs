//! Programs, functions, basic blocks, globals, and validation.

use std::collections::HashMap;
use std::fmt;

use crate::instr::{Callee, Instr, Op, Operand, Terminator};
use crate::srcmap::{SourceMap, SrcLoc};
use crate::types::{BlockId, FuncId, GlobalId, InstrId, Value, VarId};

/// A global variable. Globals live at fixed addresses in the VM's data
/// segment and are the canonical "shared variables" of the paper's
/// concurrency bugs.
#[derive(Clone, Debug)]
pub struct Global {
    /// Identifier.
    pub id: GlobalId,
    /// Name as written in the source.
    pub name: String,
    /// Number of cells this global occupies (1 for scalars).
    pub size: u32,
    /// Initial value for each cell (cells beyond `init.len()` start at 0).
    pub init: Vec<Value>,
    /// Source attribution.
    pub loc: SrcLoc,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    /// Identifier (index within the function).
    pub id: BlockId,
    /// Optional label from the text format.
    pub label: String,
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// The terminator.
    pub term: Terminator,
}

impl BasicBlock {
    /// All statement ids in this block, instructions then terminator.
    pub fn stmt_ids(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.instrs
            .iter()
            .map(|i| i.id)
            .chain(std::iter::once(self.term.id()))
    }
}

/// A function: named parameters, local registers, and a CFG of basic blocks.
#[derive(Clone, Debug)]
pub struct Function {
    /// Identifier.
    pub id: FuncId,
    /// Name as written in the source.
    pub name: String,
    /// Parameter registers (prefix of the register space).
    pub params: Vec<VarId>,
    /// Names of all registers, indexed by [`VarId`].
    pub var_names: Vec<String>,
    /// Basic blocks; `blocks[0]` is the entry block.
    pub blocks: Vec<BasicBlock>,
    /// Source attribution of the definition.
    pub loc: SrcLoc,
}

impl Function {
    /// The entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Looks up a block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Number of registers.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The name of a register.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.index()]
    }

    /// Iterates over all statement ids in the function in block order.
    pub fn stmt_ids(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.blocks.iter().flat_map(|b| b.stmt_ids())
    }
}

/// Where a statement lives: function, block, and position.
///
/// `index == block.instrs.len()` denotes the terminator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StmtPos {
    /// Containing function.
    pub func: FuncId,
    /// Containing block.
    pub block: BlockId,
    /// Index within the block (`instrs.len()` = terminator).
    pub index: usize,
}

/// A whole MiniC program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Program name (used in reports and sketches).
    pub name: String,
    /// All functions. `functions[entry.index()]` is the entry point.
    pub functions: Vec<Function>,
    /// The entry function (conventionally `main`).
    pub entry: FuncId,
    /// Global variables.
    pub globals: Vec<Global>,
    /// Source map (file names + optional line text).
    pub source_map: SourceMap,
    /// Statement index: position of statement `i` at index `i`. Statement
    /// ids are dense (`0..stmt_count`) after [`Program::finalize`], so a
    /// flat vector replaces a hash map on the decode/execute hot path.
    stmt_index: Vec<StmtPos>,
    /// Total number of statements (instrs + terminators).
    stmt_count: u32,
}

/// Errors found by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// The entry function id is out of range.
    BadEntry,
    /// A function has no blocks.
    EmptyFunction(FuncId),
    /// A branch target is out of range.
    BadBlockTarget {
        /// Function containing the branch.
        func: FuncId,
        /// The bad target.
        target: BlockId,
    },
    /// An operand references a register that doesn't exist.
    BadVar {
        /// Function containing the use.
        func: FuncId,
        /// The bad register.
        var: VarId,
    },
    /// An operand references a global that doesn't exist.
    BadGlobal(GlobalId),
    /// A call references a function that doesn't exist.
    BadCallee {
        /// Function containing the call.
        func: FuncId,
        /// The bad target.
        callee: FuncId,
    },
    /// A call passes the wrong number of arguments to a direct callee.
    ArityMismatch {
        /// Function containing the call.
        func: FuncId,
        /// The callee.
        callee: FuncId,
        /// Arguments passed.
        got: usize,
        /// Parameters expected.
        want: usize,
    },
    /// Duplicate statement id (indicates a finalize bug).
    DuplicateStmtId(InstrId),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::BadEntry => write!(f, "entry function id out of range"),
            ValidationError::EmptyFunction(id) => write!(f, "function {id} has no blocks"),
            ValidationError::BadBlockTarget { func, target } => {
                write!(f, "branch in {func} targets nonexistent block {target}")
            }
            ValidationError::BadVar { func, var } => {
                write!(f, "use of nonexistent register {var} in {func}")
            }
            ValidationError::BadGlobal(g) => write!(f, "use of nonexistent global {g}"),
            ValidationError::BadCallee { func, callee } => {
                write!(f, "call in {func} targets nonexistent function {callee}")
            }
            ValidationError::ArityMismatch {
                func,
                callee,
                got,
                want,
            } => write!(
                f,
                "call in {func} passes {got} args to {callee} which expects {want}"
            ),
            ValidationError::DuplicateStmtId(id) => write!(f, "duplicate statement id {id}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl Program {
    /// Function addresses produced by [`Op::FuncAddr`] are
    /// `FUNC_ADDR_BASE + func.index()`; the VM decodes indirect call targets
    /// by subtracting this base. The base is far above any data address.
    pub const FUNC_ADDR_BASE: Value = 0x4000_0000_0000;

    /// Creates an empty program (used by the builder and parser).
    pub fn empty(name: &str) -> Self {
        Program {
            name: name.to_owned(),
            functions: Vec::new(),
            entry: FuncId(0),
            globals: Vec::new(),
            source_map: SourceMap::new(),
            stmt_index: Vec::new(),
            stmt_count: 0,
        }
    }

    /// Assigns program-wide unique statement ids and rebuilds the statement
    /// index. Must be called after construction and after any structural
    /// mutation; the builder and parser call it for you.
    pub fn finalize(&mut self) {
        let mut next: u32 = 0;
        self.stmt_index.clear();
        for f in &mut self.functions {
            for b in &mut f.blocks {
                for (i, instr) in b.instrs.iter_mut().enumerate() {
                    instr.id = InstrId(next);
                    self.stmt_index.push(StmtPos {
                        func: f.id,
                        block: b.id,
                        index: i,
                    });
                    next += 1;
                }
                let tid = InstrId(next);
                next += 1;
                match &mut b.term {
                    Terminator::Br { id, .. }
                    | Terminator::CondBr { id, .. }
                    | Terminator::Ret { id, .. }
                    | Terminator::Unreachable { id, .. } => *id = tid,
                }
                self.stmt_index.push(StmtPos {
                    func: f.id,
                    block: b.id,
                    index: b.instrs.len(),
                });
            }
        }
        self.stmt_count = next;
    }

    /// Total number of statements (instructions plus terminators).
    pub fn stmt_count(&self) -> usize {
        self.stmt_count as usize
    }

    /// Returns the position of a statement.
    pub fn stmt_pos(&self, id: InstrId) -> Option<StmtPos> {
        self.stmt_index.get(id.index()).copied()
    }

    /// Returns the instruction at `id`, or `None` if `id` is a terminator
    /// or unknown.
    pub fn instr(&self, id: InstrId) -> Option<&Instr> {
        let pos = self.stmt_pos(id)?;
        let block = self.functions[pos.func.index()].block(pos.block);
        block.instrs.get(pos.index)
    }

    /// Returns the terminator at `id`, if `id` names one.
    pub fn terminator(&self, id: InstrId) -> Option<&Terminator> {
        let pos = self.stmt_pos(id)?;
        let block = self.functions[pos.func.index()].block(pos.block);
        if pos.index == block.instrs.len() {
            Some(&block.term)
        } else {
            None
        }
    }

    /// The source location of any statement.
    pub fn stmt_loc(&self, id: InstrId) -> Option<SrcLoc> {
        if let Some(i) = self.instr(id) {
            return Some(i.loc);
        }
        self.terminator(id).map(|t| t.loc())
    }

    /// The function containing a statement.
    pub fn stmt_func(&self, id: InstrId) -> Option<FuncId> {
        self.stmt_pos(id).map(|p| p.func)
    }

    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Returns the function.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Iterates over every statement id in the program.
    pub fn all_stmt_ids(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.functions.iter().flat_map(|f| f.stmt_ids())
    }

    /// Counts the distinct source lines covered by a set of statements —
    /// the "source LOC" unit of the paper's Table 1.
    pub fn source_loc_count<'a>(&self, stmts: impl IntoIterator<Item = &'a InstrId>) -> usize {
        let mut lines: Vec<(u32, u32)> = stmts
            .into_iter()
            .filter_map(|&id| self.stmt_loc(id))
            .filter(|l| !l.is_unknown())
            .map(|l| (l.file.0, l.line))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }

    /// Structural validation. Returns all errors found.
    pub fn validate(&self) -> Result<(), Vec<ValidationError>> {
        let mut errs = Vec::new();
        if self.entry.index() >= self.functions.len() {
            errs.push(ValidationError::BadEntry);
        }
        let mut seen_ids: HashMap<InstrId, ()> = HashMap::new();
        for f in &self.functions {
            if f.blocks.is_empty() {
                errs.push(ValidationError::EmptyFunction(f.id));
                continue;
            }
            let check_operand = |op: Operand, errs: &mut Vec<ValidationError>| match op {
                Operand::Var(v) => {
                    if v.index() >= f.var_names.len() {
                        errs.push(ValidationError::BadVar { func: f.id, var: v });
                    }
                }
                Operand::Global(g) => {
                    if g.index() >= self.globals.len() {
                        errs.push(ValidationError::BadGlobal(g));
                    }
                }
                Operand::Const(_) => {}
            };
            for b in &f.blocks {
                for instr in &b.instrs {
                    if seen_ids.insert(instr.id, ()).is_some() {
                        errs.push(ValidationError::DuplicateStmtId(instr.id));
                    }
                    if let Some(d) = instr.op.def() {
                        check_operand(Operand::Var(d), &mut errs);
                    }
                    for u in instr.op.uses() {
                        check_operand(u, &mut errs);
                    }
                    let callee = match &instr.op {
                        Op::Call { callee, args, .. } => Some((callee, args.len())),
                        Op::ThreadCreate { routine, .. } => Some((routine, 1)),
                        _ => None,
                    };
                    if let Some((Callee::Direct(target), nargs)) = callee {
                        if target.index() >= self.functions.len() {
                            errs.push(ValidationError::BadCallee {
                                func: f.id,
                                callee: *target,
                            });
                        } else {
                            let want = self.functions[target.index()].params.len();
                            if want != nargs {
                                errs.push(ValidationError::ArityMismatch {
                                    func: f.id,
                                    callee: *target,
                                    got: nargs,
                                    want,
                                });
                            }
                        }
                    }
                    if let Op::FuncAddr { func, .. } = &instr.op {
                        if func.index() >= self.functions.len() {
                            errs.push(ValidationError::BadCallee {
                                func: f.id,
                                callee: *func,
                            });
                        }
                    }
                }
                if seen_ids.insert(b.term.id(), ()).is_some() {
                    errs.push(ValidationError::DuplicateStmtId(b.term.id()));
                }
                for u in b.term.uses() {
                    check_operand(u, &mut errs);
                }
                for t in b.term.successors() {
                    if t.index() >= f.blocks.len() {
                        errs.push(ValidationError::BadBlockTarget {
                            func: f.id,
                            target: t,
                        });
                    }
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn two_block_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let c = f.const_i64("c", 1);
        let exit = f.new_block("exit");
        let body = f.new_block("body");
        f.condbr(c.into(), body, exit);
        f.switch_to(body);
        f.print(&[c.into()]);
        f.br(exit);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        pb.finish().unwrap()
    }

    #[test]
    fn finalize_assigns_dense_unique_ids() {
        let p = two_block_program();
        let ids: Vec<_> = p.all_stmt_ids().collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "ids must be unique");
        assert_eq!(p.stmt_count(), ids.len());
        // Dense: ids are exactly 0..n.
        assert_eq!(sorted.first(), Some(&InstrId(0)));
        assert_eq!(sorted.last(), Some(&InstrId((ids.len() - 1) as u32)));
    }

    #[test]
    fn stmt_pos_roundtrip() {
        let p = two_block_program();
        for id in p.all_stmt_ids() {
            let pos = p.stmt_pos(id).expect("indexed");
            let block = p.functions[pos.func.index()].block(pos.block);
            if pos.index == block.instrs.len() {
                assert_eq!(block.term.id(), id);
            } else {
                assert_eq!(block.instrs[pos.index].id, id);
            }
        }
    }

    #[test]
    fn instr_vs_terminator_lookup() {
        let p = two_block_program();
        let mut n_instr = 0;
        let mut n_term = 0;
        for id in p.all_stmt_ids() {
            match (p.instr(id), p.terminator(id)) {
                (Some(_), None) => n_instr += 1,
                (None, Some(_)) => n_term += 1,
                other => panic!("statement is both/neither: {other:?}"),
            }
        }
        assert!(n_instr >= 2);
        assert_eq!(n_term, 3, "three blocks, three terminators");
    }

    #[test]
    fn validate_catches_bad_block_target() {
        let mut p = two_block_program();
        // Corrupt a branch target.
        if let Terminator::Br { target, .. } = &mut p.functions[0].blocks[2].term {
            *target = BlockId(99);
        } else {
            panic!("expected Br");
        }
        let errs = p.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::BadBlockTarget { .. })));
    }

    #[test]
    fn validate_catches_arity_mismatch() {
        let mut pb = ProgramBuilder::new("t");
        let callee_id = {
            let mut g = pb.function("g", &["x"]);
            g.ret(None);
            g.finish()
        };
        let mut f = pb.function("main", &[]);
        f.call(None, Callee::Direct(callee_id), &[]);
        f.ret(None);
        f.finish();
        let errs = pb.finish().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::ArityMismatch { .. })));
    }

    #[test]
    fn source_loc_count_dedups_lines() {
        let p = two_block_program();
        // All statements share SrcLoc::UNKNOWN here, so count is 0.
        let ids: Vec<_> = p.all_stmt_ids().collect();
        assert_eq!(p.source_loc_count(ids.iter()), 0);
    }

    #[test]
    fn function_lookup_by_name() {
        let p = two_block_program();
        assert!(p.function_by_name("main").is_some());
        assert!(p.function_by_name("nope").is_none());
    }
}
