//! Slice items and the uses that link statements to them.
//!
//! Algorithm 1 operates on *items*: "an item is an arbitrary program
//! element; a source is an item that is either a global variable, a
//! function argument, a call, or a memory access". In MiniC, the dataflow
//! items are per-function registers and program globals; statements are
//! linked to the items they use here, and to the items they define by
//! the program's [`gist_analysis::DefIndex`].

use gist_ir::{FuncId, GlobalId, InstrId, Operand, Program, VarId};

/// A dataflow item tracked by the slicer's work set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SliceItem {
    /// A local register of a function.
    Reg(FuncId, VarId),
    /// A global variable (tracked syntactically; pointer aliases are the
    /// runtime's job, per §3.1).
    Global(GlobalId),
}

/// The items used (read) by a statement.
pub fn stmt_uses(program: &Program, id: InstrId) -> Vec<SliceItem> {
    let func = match program.stmt_func(id) {
        Some(f) => f,
        None => return Vec::new(),
    };
    let operands = if let Some(i) = program.instr(id) {
        i.op.uses()
    } else if let Some(t) = program.terminator(id) {
        t.uses()
    } else {
        Vec::new()
    };
    operands
        .into_iter()
        .filter_map(|o| match o {
            Operand::Var(v) => Some(SliceItem::Reg(func, v)),
            Operand::Global(g) => Some(SliceItem::Global(g)),
            Operand::Const(_) => None,
        })
        .collect()
}

/// Whether a statement is a *source* per Algorithm 1 (global access,
/// argument use, call, or memory access). Non-sources (pure arithmetic on
/// locals) still propagate dataflow but mirror the paper's distinction.
pub fn is_source(program: &Program, id: InstrId) -> bool {
    if let Some(i) = program.instr(id) {
        if i.op.is_memory_access() || i.op.is_call_like() {
            return true;
        }
        let func = program.function(program.stmt_func(id).expect("indexed"));
        let nparams = func.params.len() as u32;
        // Uses a global address or an argument register?
        i.op.uses().iter().any(|o| match o {
            Operand::Global(_) => true,
            Operand::Var(v) => v.0 < nparams,
            Operand::Const(_) => false,
        })
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;

    fn prog() -> Program {
        parse_program(
            "t",
            r#"
global g = 0
fn helper(x) {
entry:
  y = add x, 1
  store $g, y
  ret y
}
fn main() {
entry:
  a = const 5
  r = call helper(a)
  v = load $g
  print v
  ret
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn def_use_indexes_registers_and_globals() {
        let p = prog();
        let cx = gist_analysis::AnalysisCtx::new(&p);
        let defs = cx.defs();
        let main = p.function_by_name("main").unwrap();
        let helper = p.function_by_name("helper").unwrap();
        // main: a, r, v are defined once each.
        let a = main.var_names.iter().position(|n| n == "a").unwrap() as u32;
        assert_eq!(defs.reg_defs[&(main.id, VarId(a))].len(), 1);
        // helper writes $g; main's load of it is a use, not a write.
        let g = p.globals[0].id;
        assert_eq!(defs.global_writes[&g], [helper.blocks[0].instrs[1].id]);
        let load = main.blocks[0].instrs[2].id;
        assert!(stmt_uses(&p, load).contains(&SliceItem::Global(g)));
        // helper has one callsite.
        assert_eq!(cx.ticfg().callers[&helper.id].len(), 1);
    }

    #[test]
    fn stmt_uses_maps_operands_to_items() {
        let p = prog();
        let helper = p.function_by_name("helper").unwrap();
        let store = helper.blocks[0].instrs[1].id;
        let uses = stmt_uses(&p, store);
        assert!(uses.contains(&SliceItem::Global(p.globals[0].id)));
        assert_eq!(uses.len(), 2, "global + y");
    }

    #[test]
    fn source_classification() {
        let p = prog();
        let helper = p.function_by_name("helper").unwrap();
        let add = helper.blocks[0].instrs[0].id; // uses argument x
        let store = helper.blocks[0].instrs[1].id; // memory access
        assert!(is_source(&p, add), "argument use is a source");
        assert!(is_source(&p, store), "memory access is a source");
        let main = p.function_by_name("main").unwrap();
        let konst = main.blocks[0].instrs[0].id;
        assert!(!is_source(&p, konst), "const is not a source");
        let call = main.blocks[0].instrs[1].id;
        assert!(is_source(&p, call), "call is a source");
    }
}
