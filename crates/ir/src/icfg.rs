//! Interprocedural and thread-interprocedural control-flow graphs.
//!
//! The paper (§3.1) builds the program's ICFG by connecting each function's
//! CFG with call and return edges, then augments it with **thread creation
//! and join edges** to obtain the TICFG: "a thread creation edge is akin to
//! a callsite with the thread start routine as the target function". The
//! TICFG overapproximates all dynamic control flow and is what the backward
//! slicer traverses.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::instr::{Callee, Op, Terminator};
use crate::program::{Program, StmtPos};
use crate::types::{FuncId, InstrId};

/// An edge kind in the (T)ICFG.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Fallthrough to the next statement in the same block.
    Seq,
    /// Branch edge between blocks of the same function.
    Branch,
    /// Call edge: callsite -> callee entry statement.
    Call,
    /// Return edge: callee `ret` -> statement after the callsite.
    Return,
    /// Thread-creation edge: `spawn` -> routine entry statement.
    ThreadCreate,
    /// Thread-join edge: routine `ret` -> statement after the `join`.
    ThreadJoin,
}

/// A statement-level interprocedural CFG.
///
/// Nodes are [`InstrId`]s (instructions *and* terminators). The graph is
/// stored as forward and backward adjacency lists; the slicer walks the
/// backward lists.
#[derive(Clone, Debug)]
pub struct Icfg {
    /// Forward edges: `succs[stmt] = [(next, kind)]`.
    succs: Vec<Vec<(InstrId, EdgeKind)>>,
    /// Backward edges: `preds[stmt] = [(prev, kind)]`.
    preds: Vec<Vec<(InstrId, EdgeKind)>>,
    /// Per-function CFGs (by function index).
    pub cfgs: Vec<Cfg>,
    /// Per-function dominator trees.
    pub doms: Vec<DomTree>,
    /// Whether thread edges were added (i.e. this is a TICFG).
    pub with_thread_edges: bool,
    /// For each callsite statement, the possible callee functions.
    pub call_targets: HashMap<InstrId, Vec<FuncId>>,
    /// For each function, its callsites (call or spawn statements).
    pub callers: HashMap<FuncId, Vec<InstrId>>,
}

/// A TICFG is an ICFG with thread-creation/join edges (§3.1).
pub type Ticfg = Icfg;

impl Icfg {
    /// Builds the ICFG without thread edges.
    pub fn build_icfg(program: &Program) -> Icfg {
        Self::build(program, false)
    }

    /// Builds the TICFG (with thread-creation and join edges).
    pub fn build_ticfg(program: &Program) -> Ticfg {
        Self::build(program, true)
    }

    fn build(program: &Program, thread_edges: bool) -> Icfg {
        let n = program.stmt_count();
        let mut g = Icfg {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            cfgs: program.functions.iter().map(Cfg::build).collect(),
            doms: Vec::new(),
            with_thread_edges: thread_edges,
            call_targets: HashMap::new(),
            callers: HashMap::new(),
        };
        g.doms = g.cfgs.iter().map(DomTree::dominators).collect();

        // Functions whose address is ever taken: conservative indirect
        // call target set, in the spirit of the paper's data structure
        // analysis [35] for resolving pthread_create start routines.
        let mut address_taken: HashSet<FuncId> = HashSet::new();
        for f in &program.functions {
            for b in &f.blocks {
                for i in &b.instrs {
                    if let Op::FuncAddr { func, .. } = &i.op {
                        address_taken.insert(*func);
                    }
                }
            }
        }

        for f in &program.functions {
            for b in &f.blocks {
                // Sequential edges within the block.
                let ids: Vec<InstrId> = b.stmt_ids().collect();
                for w in ids.windows(2) {
                    g.add_edge(w[0], w[1], EdgeKind::Seq);
                }
                // Branch edges to successor block heads.
                let term_id = b.term.id();
                for s in b.term.successors() {
                    let head = first_stmt(program, f.id, s);
                    g.add_edge(term_id, head, EdgeKind::Branch);
                }
                // Call / spawn edges.
                for (idx, i) in b.instrs.iter().enumerate() {
                    let (targets, kind): (Vec<FuncId>, EdgeKind) = match &i.op {
                        Op::Call { callee, .. } => (
                            resolve_callee(callee, &address_taken, program),
                            EdgeKind::Call,
                        ),
                        Op::ThreadCreate { routine, .. } if thread_edges => (
                            resolve_callee(routine, &address_taken, program),
                            EdgeKind::ThreadCreate,
                        ),
                        _ => continue,
                    };
                    g.call_targets.insert(i.id, targets.clone());
                    for target in targets {
                        g.callers.entry(target).or_default().push(i.id);
                        let entry_stmt =
                            first_stmt(program, target, program.function(target).entry());
                        g.add_edge(i.id, entry_stmt, kind);
                        // Return / join edges from each ret of the callee
                        // back to the statement after the callsite.
                        let after = stmt_after(program, f.id, b.id, idx);
                        let ret_kind = if kind == EdgeKind::ThreadCreate {
                            EdgeKind::ThreadJoin
                        } else {
                            EdgeKind::Return
                        };
                        for ret in rets_of(program, target) {
                            g.add_edge(ret, after, ret_kind);
                        }
                    }
                }
            }
        }
        g
    }

    fn add_edge(&mut self, from: InstrId, to: InstrId, kind: EdgeKind) {
        self.succs[from.index()].push((to, kind));
        self.preds[to.index()].push((from, kind));
    }

    /// Forward neighbors of a statement.
    pub fn succs(&self, id: InstrId) -> &[(InstrId, EdgeKind)] {
        &self.succs[id.index()]
    }

    /// Backward neighbors of a statement.
    pub fn preds(&self, id: InstrId) -> &[(InstrId, EdgeKind)] {
        &self.preds[id.index()]
    }

    /// Statements in backward breadth-first order from `start` (inclusive).
    ///
    /// This is the traversal order of the flow-sensitive backward slicer:
    /// statements nearer the failure come first, which is also the order AsT
    /// extends its tracked window (σ statements back from the failure).
    pub fn backward_order(&self, start: InstrId) -> Vec<InstrId> {
        let mut seen = vec![false; self.succs.len()];
        let mut order = Vec::new();
        let mut q = VecDeque::new();
        q.push_back(start);
        seen[start.index()] = true;
        while let Some(s) = q.pop_front() {
            order.push(s);
            for &(p, _) in self.preds(s) {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    q.push_back(p);
                }
            }
        }
        order
    }

    /// Count of graph edges (for tests/diagnostics).
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }
}

fn resolve_callee(
    callee: &Callee,
    address_taken: &HashSet<FuncId>,
    program: &Program,
) -> Vec<FuncId> {
    match callee {
        Callee::Direct(f) => vec![*f],
        Callee::Indirect(_) => {
            // All address-taken functions may be the target.
            let mut v: Vec<FuncId> = address_taken.iter().copied().collect();
            v.sort_unstable();
            let _ = program;
            v
        }
    }
}

/// The first statement (instruction or terminator) of a block.
fn first_stmt(program: &Program, f: FuncId, b: crate::types::BlockId) -> InstrId {
    let block = program.function(f).block(b);
    block
        .instrs
        .first()
        .map(|i| i.id)
        .unwrap_or_else(|| block.term.id())
}

/// The statement after position `idx` in block `b` (the terminator if `idx`
/// is the last instruction).
fn stmt_after(program: &Program, f: FuncId, b: crate::types::BlockId, idx: usize) -> InstrId {
    let block = program.function(f).block(b);
    block
        .instrs
        .get(idx + 1)
        .map(|i| i.id)
        .unwrap_or_else(|| block.term.id())
}

/// All `ret` statement ids of a function.
fn rets_of(program: &Program, f: FuncId) -> Vec<InstrId> {
    program
        .function(f)
        .blocks
        .iter()
        .filter_map(|b| match &b.term {
            Terminator::Ret { id, .. } => Some(*id),
            _ => None,
        })
        .collect()
}

/// Convenience: the position of a statement (re-exported for planners).
pub fn stmt_pos(program: &Program, id: InstrId) -> Option<StmtPos> {
    program.stmt_pos(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn caller_callee() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let helper = {
            let mut h = pb.function("helper", &["x"]);
            let x = h.var("x");
            let one = h.const_i64("one", 1);
            let y = h.add("y", x.into(), one.into());
            h.ret(Some(y.into()));
            h.finish()
        };
        let mut m = pb.function("main", &[]);
        let a = m.const_i64("a", 5);
        m.call_direct("r", helper, &[a.into()]);
        let r = m.var("r");
        m.print(&[r.into()]);
        m.ret(None);
        m.finish();
        pb.finish().unwrap()
    }

    #[test]
    fn call_and_return_edges_exist() {
        let p = caller_callee();
        let g = Icfg::build_icfg(&p);
        let main = p.function_by_name("main").unwrap();
        let call_id = main.blocks[0].instrs[1].id;
        let helper = p.function_by_name("helper").unwrap();
        let helper_entry = helper.blocks[0].instrs[0].id;
        assert!(g
            .succs(call_id)
            .iter()
            .any(|&(t, k)| t == helper_entry && k == EdgeKind::Call));
        // Return edge: helper's ret -> the print after the call.
        let helper_ret = helper.blocks[0].term.id();
        let print_id = main.blocks[0].instrs[2].id;
        assert!(g
            .succs(helper_ret)
            .iter()
            .any(|&(t, k)| t == print_id && k == EdgeKind::Return));
    }

    #[test]
    fn spawn_edges_only_in_ticfg() {
        let mut pb = ProgramBuilder::new("t");
        let worker = {
            let mut w = pb.function("worker", &["arg"]);
            w.ret(None);
            w.finish()
        };
        let mut m = pb.function("main", &[]);
        m.spawn(Some("t"), Callee::Direct(worker), 0.into());
        let t = m.var("t");
        m.join(t.into());
        m.ret(None);
        m.finish();
        let p = pb.finish().unwrap();

        let icfg = Icfg::build_icfg(&p);
        let ticfg = Icfg::build_ticfg(&p);
        let main = p.function_by_name("main").unwrap();
        let spawn_id = main.blocks[0].instrs[0].id;
        let worker_f = p.function_by_name("worker").unwrap();
        let worker_entry = worker_f.blocks[0].term.id(); // empty body: terminator only
        assert!(!icfg
            .succs(spawn_id)
            .iter()
            .any(|&(_, k)| k == EdgeKind::ThreadCreate));
        assert!(ticfg
            .succs(spawn_id)
            .iter()
            .any(|&(t2, k)| t2 == worker_entry && k == EdgeKind::ThreadCreate));
        assert!(ticfg.edge_count() > icfg.edge_count());
    }

    #[test]
    fn backward_order_reaches_caller_through_call_edge() {
        let p = caller_callee();
        let g = Icfg::build_ticfg(&p);
        let main = p.function_by_name("main").unwrap();
        let helper = p.function_by_name("helper").unwrap();
        let helper_add = helper.blocks[0].instrs[1].id;
        let order = g.backward_order(helper_add);
        // Walking backward from inside helper must reach main's const
        // through the call edge.
        let main_const = main.blocks[0].instrs[0].id;
        assert!(order.contains(&main_const));
        assert_eq!(order[0], helper_add);
    }

    #[test]
    fn indirect_call_targets_address_taken_functions() {
        let mut pb = ProgramBuilder::new("t");
        let cb = {
            let mut f = pb.function("callback", &["x"]);
            f.ret(None);
            f.finish()
        };
        let other = {
            let mut f = pb.function("never_taken", &["x"]);
            f.ret(None);
            f.finish()
        };
        let mut m = pb.function("main", &[]);
        let fp = m.func_addr("fp", cb);
        m.call(None, Callee::Indirect(fp.into()), &[0.into()]);
        m.ret(None);
        m.finish();
        let p = pb.finish().unwrap();
        let g = Icfg::build_ticfg(&p);
        let main = p.function_by_name("main").unwrap();
        let icall = main.blocks[0].instrs[1].id;
        let targets = g.call_targets.get(&icall).unwrap();
        assert!(targets.contains(&cb));
        assert!(
            !targets.contains(&other),
            "functions whose address is never taken are not indirect targets"
        );
    }

    #[test]
    fn seq_edges_cover_every_block() {
        let p = caller_callee();
        let g = Icfg::build_icfg(&p);
        // Every non-terminator statement has at least one successor.
        for f in &p.functions {
            for b in &f.blocks {
                for i in &b.instrs {
                    assert!(
                        !g.succs(i.id).is_empty(),
                        "instruction {} has no successors",
                        i.id
                    );
                }
            }
        }
    }
}
