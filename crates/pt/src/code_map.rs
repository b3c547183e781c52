//! The per-program code map: how control leaves each statement.
//!
//! A real PT decoder reads the binary to learn where straight-line code
//! goes next; the tracer needs to know which instructions are calls and
//! returns. Both questions depend only on the program, so [`CodeMap`]
//! answers them from one dense table indexed by `InstrId`, built once per
//! program and shared by reference count. Neither the tracer's per-event
//! path nor the decoder's walk touches the IR tree (`Program::instr` and
//! `Program::terminator` resolve block positions on every lookup).

use std::sync::Arc;

use gist_ir::{BlockId, Callee, FuncId, InstrId, Op, Program, Terminator};

/// How control leaves one statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Exit {
    /// Falls through, or jumps unconditionally, to a fixed statement.
    Next(InstrId),
    /// A direct call: control enters `entry` and later returns to
    /// `ret_site`, the statement after the call.
    Call {
        /// First statement of the callee.
        entry: InstrId,
        /// The statement after the call.
        ret_site: InstrId,
    },
    /// An indirect call: a TIP packet names the target.
    IndirectCall {
        /// The statement after the call.
        ret_site: InstrId,
    },
    /// A conditional branch: a TNT bit picks the successor.
    CondBr {
        /// First statement of the `then` block.
        taken: InstrId,
        /// First statement of the `else` block.
        not_taken: InstrId,
    },
    /// A `ret`: the decoder pops its call stack, or takes a TIP.
    Ret,
    /// No successor: `unreachable`, or an id outside the program.
    End,
}

/// The dense table of how control leaves each statement of one program,
/// indexed by `InstrId`. Cloning it is a reference-count bump.
#[derive(Clone, Debug)]
pub struct CodeMap(Arc<[Exit]>);

impl CodeMap {
    /// Maps every statement of `program`.
    pub fn new(program: &Program) -> Self {
        let first_stmt = |f: FuncId, b: BlockId| -> Option<InstrId> {
            let block = program.functions.get(f.index())?.blocks.get(b.index())?;
            Some(block.instrs.first().map_or(block.term.id(), |i| i.id))
        };
        let mut exits = vec![Exit::End; program.stmt_count()];
        for f in &program.functions {
            for b in &f.blocks {
                for (i, instr) in b.instrs.iter().enumerate() {
                    let next = b.instrs.get(i + 1).map_or(b.term.id(), |n| n.id);
                    exits[instr.id.index()] = match instr.op {
                        Op::Call {
                            callee: Callee::Direct(callee),
                            ..
                        } => match first_stmt(callee, BlockId(0)) {
                            Some(entry) => Exit::Call {
                                entry,
                                ret_site: next,
                            },
                            None => Exit::End,
                        },
                        Op::Call {
                            callee: Callee::Indirect(_),
                            ..
                        } => Exit::IndirectCall { ret_site: next },
                        _ => Exit::Next(next),
                    };
                }
                let exit = match b.term {
                    Terminator::Br { target, .. } => first_stmt(f.id, target).map(Exit::Next),
                    Terminator::CondBr {
                        then_bb, else_bb, ..
                    } => first_stmt(f.id, then_bb)
                        .zip(first_stmt(f.id, else_bb))
                        .map(|(taken, not_taken)| Exit::CondBr { taken, not_taken }),
                    Terminator::Ret { .. } => Some(Exit::Ret),
                    Terminator::Unreachable { .. } => None,
                };
                exits[b.term.id().index()] = exit.unwrap_or(Exit::End);
            }
        }
        CodeMap(exits.into())
    }

    /// How control leaves `stmt` ([`Exit::End`] for an id outside the
    /// program, which hostile trace bytes can name).
    #[inline]
    pub(crate) fn exit(&self, stmt: InstrId) -> Exit {
        self.0.get(stmt.index()).copied().unwrap_or(Exit::End)
    }
}
