//! Slice items and the uses that link statements to them.
//!
//! Algorithm 1 operates on *items*: "an item is an arbitrary program
//! element". In MiniC, the dataflow items are per-function registers and
//! program globals; statements are linked to the items they use here, and
//! to the items they define by the program's [`gist_analysis::DefIndex`].

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
}
