//! Block-level control dependences via postdominators.
//!
//! A block `Y` is control-dependent on branch block `X` when `X` has a
//! successor `S` such that `Y` postdominates `S` but `Y` does not strictly
//! postdominate `X` (Ferrante/Ottenstein/Warren). The slicer uses this to
//! pull the controlling `condbr` statements of slice members into the
//! slice, which is what puts the `if (!obj->refcnt)` checks of the paper's
//! Fig. 8 into the Apache sketch.

use std::collections::HashMap;

use gist_ir::dom::DomTree;
use gist_ir::icfg::Ticfg;
use gist_ir::{BlockId, FuncId, InstrId, Program};

/// Control-dependence lookup for a whole program.
#[derive(Debug, Default)]
pub struct ControlDeps {
    /// Per function: block -> controlling branch statements.
    deps: HashMap<FuncId, HashMap<BlockId, Vec<InstrId>>>,
}

impl ControlDeps {
    /// Computes control dependences for every function of `program`,
    /// over the per-function CFGs of its TICFG.
    pub fn build(program: &Program, ticfg: &Ticfg) -> ControlDeps {
        let mut out = ControlDeps::default();
        for (f, cfg) in program.functions.iter().zip(&ticfg.cfgs) {
            let pdom = DomTree::postdominators(cfg);
            let mut map: HashMap<BlockId, Vec<InstrId>> = HashMap::new();
            for b in &f.blocks {
                let succs = b.term.successors();
                if succs.len() < 2 {
                    continue;
                }
                let branch_stmt = b.term.id();
                for s in succs {
                    // Walk the postdominator chain from the successor up to
                    // (but not including) b's own postdominator parent; all
                    // blocks on the way are control-dependent on b.
                    let stop = pdom.idom(b.id);
                    let mut cur = Some(s);
                    let mut guard = 0;
                    while let Some(y) = cur {
                        if Some(y) == stop {
                            break;
                        }
                        map.entry(y).or_default().push(branch_stmt);
                        cur = pdom.idom(y);
                        guard += 1;
                        if guard > f.blocks.len() {
                            break;
                        }
                    }
                }
            }
            for v in map.values_mut() {
                v.sort_unstable();
                v.dedup();
            }
            out.deps.insert(f.id, map);
        }
        out
    }

    /// The branch statements that control whether `stmt` executes.
    pub fn controlling_branches(&self, program: &Program, stmt: InstrId) -> Vec<InstrId> {
        let pos = match program.stmt_pos(stmt) {
            Some(p) => p,
            None => return Vec::new(),
        };
        self.deps
            .get(&pos.func)
            .and_then(|m| m.get(&pos.block))
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::icfg::Icfg;
    use gist_ir::parser::parse_program;

    #[test]
    fn then_block_depends_on_branch() {
        let p = parse_program(
            "t",
            r#"
fn main() {
entry:
  c = const 1
  condbr c, then, exit
then:
  x = const 2
  br exit
exit:
  ret
}
"#,
        )
        .unwrap();
        let cd = ControlDeps::build(&p, &Icfg::build_ticfg(&p));
        let main = &p.functions[0];
        let branch = main.blocks[0].term.id();
        let x_stmt = main
            .blocks
            .iter()
            .find(|b| b.label == "then")
            .unwrap()
            .instrs[0]
            .id;
        assert_eq!(cd.controlling_branches(&p, x_stmt), vec![branch]);
        // The exit block postdominates entry: no control dependence.
        let ret_stmt = main
            .blocks
            .iter()
            .find(|b| b.label == "exit")
            .unwrap()
            .term
            .id();
        assert!(cd.controlling_branches(&p, ret_stmt).is_empty());
    }

    #[test]
    fn loop_body_depends_on_loop_branch() {
        let p = parse_program(
            "t",
            r#"
fn main() {
entry:
  n = const 5
  br head
head:
  c = cmp gt n, 0
  condbr c, body, exit
body:
  n = sub n, 1
  br head
exit:
  ret
}
"#,
        )
        .unwrap();
        let cd = ControlDeps::build(&p, &Icfg::build_ticfg(&p));
        let main = &p.functions[0];
        let head = main.blocks.iter().find(|b| b.label == "head").unwrap();
        let body = main.blocks.iter().find(|b| b.label == "body").unwrap();
        let deps = cd.controlling_branches(&p, body.instrs[0].id);
        assert_eq!(deps, vec![head.term.id()]);
        // The loop head is control-dependent on itself (it runs again only
        // if the branch takes the body edge).
        let head_deps = cd.controlling_branches(&p, head.instrs[0].id);
        assert_eq!(head_deps, vec![head.term.id()]);
    }

    #[test]
    fn nested_if_collects_both_branches() {
        let p = parse_program(
            "t",
            r#"
fn main() {
entry:
  a = const 1
  condbr a, outer, exit
outer:
  b = const 1
  condbr b, inner, exit
inner:
  x = const 9
  br exit
exit:
  ret
}
"#,
        )
        .unwrap();
        let cd = ControlDeps::build(&p, &Icfg::build_ticfg(&p));
        let main = &p.functions[0];
        let inner_x = main
            .blocks
            .iter()
            .find(|b| b.label == "inner")
            .unwrap()
            .instrs[0]
            .id;
        let deps = cd.controlling_branches(&p, inner_x);
        let entry_br = main.blocks[0].term.id();
        let outer_br = main
            .blocks
            .iter()
            .find(|b| b.label == "outer")
            .unwrap()
            .term
            .id();
        assert!(deps.contains(&outer_br), "direct controller");
        // entry's branch controls `outer` (transitive closure happens in
        // the slicer, which re-queries for each added branch).
        let outer_deps = cd.controlling_branches(
            &p,
            main.blocks
                .iter()
                .find(|b| b.label == "outer")
                .unwrap()
                .instrs[0]
                .id,
        );
        assert!(outer_deps.contains(&entry_br));
    }
}
