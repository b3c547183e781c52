//! Static lock-order-graph deadlock detection.
//!
//! The VM can *observe* a deadlock when one happens; this pass predicts
//! them before any run. It reuses the race detector's flow-sensitive
//! lockset analysis, through the [`AnalysisCtx`]: every `lock p`
//! statement acquires the abstract mutex cells `p` may denote while the
//! statement's lockset names the mutexes certainly already held, so each
//! `(held, acquired)` pair is an edge in a lock-order graph over abstract
//! locations. A cycle in that graph — thread A takes `m1` then `m2`,
//! thread B takes `m2` then `m1` — is the classic ABBA shape, reported as
//! a `GA011` warning by [`DeadlockLintPass`].
//!
//! Edges connect through [`Loc::overlaps`] rather than equality so a
//! widened lock (`queue[*]`) still matches a precise acquisition
//! (`queue[1]`); self-overlapping edges (re-acquiring a cell already
//! held) are skipped, since recursive locking is a different bug class
//! the VM already traps dynamically.

use std::collections::BTreeSet;

use gist_ir::{InstrId, Op, Program, SrcLoc};

use crate::diag::Diagnostic;
use crate::pass::{AnalysisCtx, Pass};
use crate::points_to::Loc;

/// One acquisition-order edge: `held` was certainly locked when `acquired`
/// was taken at statement `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockOrderEdge {
    /// A mutex certainly held at the acquisition.
    pub held: Loc,
    /// The mutex being acquired.
    pub acquired: Loc,
    /// The acquiring `lock` statement.
    pub at: InstrId,
}

/// A cycle in the lock-order graph: the locks, in acquisition order, and
/// the `lock` statements witnessing each edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockCycle {
    /// The locks on the cycle (each acquired while the previous is held).
    pub locks: Vec<Loc>,
    /// The `lock` statements witnessing each edge, aligned with `locks`.
    pub sites: Vec<InstrId>,
}

impl DeadlockCycle {
    /// Renders `a -> b -> a` with source-level lock names.
    pub fn render(&self, program: &Program) -> String {
        let mut names: Vec<String> = self
            .locks
            .iter()
            .map(|l| l.origin.display(program))
            .collect();
        if let Some(first) = names.first().cloned() {
            names.push(first);
        }
        names.join(" -> ")
    }
}

/// The deadlock detector's output.
#[derive(Clone, Debug, Default)]
pub struct DeadlockAnalysis {
    /// All acquisition-order edges found.
    pub edges: Vec<LockOrderEdge>,
    /// Distinct cycles, shortest first.
    pub cycles: Vec<DeadlockCycle>,
}

impl DeadlockAnalysis {
    /// True if the lock-order graph is acyclic.
    pub fn is_clean(&self) -> bool {
        self.cycles.is_empty()
    }
}

/// Runs the detector over `cx`'s locksets and points-to.
pub fn analyze(cx: &AnalysisCtx<'_>) -> DeadlockAnalysis {
    let (program, stmt_ls, pts) = (cx.program, cx.locksets(), cx.points_to());
    let mut edges: Vec<LockOrderEdge> = Vec::new();
    for f in &program.functions {
        for b in &f.blocks {
            for instr in &b.instrs {
                let Op::MutexLock { addr } = &instr.op else {
                    continue;
                };
                let acquired = pts.operand_origins(f.id, *addr);
                let Some(held) = stmt_ls.get(&instr.id) else {
                    continue;
                };
                for &h in held {
                    for &a in &acquired {
                        if h.overlaps(&a) {
                            continue; // re-acquisition, not an ordering edge
                        }
                        let e = LockOrderEdge {
                            held: h,
                            acquired: a,
                            at: instr.id,
                        };
                        if !edges.contains(&e) {
                            edges.push(e);
                        }
                    }
                }
            }
        }
    }
    let cycles = find_cycles(&edges);
    DeadlockAnalysis { edges, cycles }
}

/// Enumerates simple cycles by walking edges from each start edge until a
/// lock overlapping the start's `held` reappears. Cycles are deduplicated
/// by their lock set and reported shortest-first.
fn find_cycles(edges: &[LockOrderEdge]) -> Vec<DeadlockCycle> {
    let mut cycles: Vec<DeadlockCycle> = Vec::new();
    let mut seen: BTreeSet<Vec<Loc>> = BTreeSet::new();
    for start in edges {
        // DFS over acquisition edges, path = locks acquired so far.
        let mut stack: Vec<(Loc, Vec<Loc>, Vec<InstrId>)> = vec![(
            start.acquired,
            vec![start.held, start.acquired],
            vec![start.at],
        )];
        let mut visited: BTreeSet<Loc> = BTreeSet::new();
        while let Some((cur, path, sites)) = stack.pop() {
            if !visited.insert(cur) {
                continue;
            }
            for e in edges {
                if !e.held.overlaps(&cur) {
                    continue;
                }
                if e.acquired.overlaps(&start.held) {
                    // Closed the loop back to the start's held lock.
                    let locks = path.clone();
                    let mut ss = sites.clone();
                    ss.push(e.at);
                    let mut key: Vec<Loc> = locks.clone();
                    key.sort();
                    key.dedup();
                    if seen.insert(key) {
                        cycles.push(DeadlockCycle { locks, sites: ss });
                    }
                    continue;
                }
                if path.iter().any(|l| l.overlaps(&e.acquired)) {
                    continue; // already on the path
                }
                let mut p2 = path.clone();
                p2.push(e.acquired);
                let mut s2 = sites.clone();
                s2.push(e.at);
                stack.push((e.acquired, p2, s2));
            }
        }
    }
    cycles.sort_by_key(|c| c.locks.len());
    cycles
}

/// The deadlock detector packaged as a lint [`Pass`]: each lock-order
/// cycle is reported as a `GA011` warning.
#[derive(Default)]
pub struct DeadlockLintPass {
    /// Cap on reported cycles (default 5).
    pub limit: Option<usize>,
}

impl Pass for DeadlockLintPass {
    fn name(&self) -> &'static str {
        "deadlock-lint"
    }

    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic> {
        let program = cx.program;
        let limit = self.limit.unwrap_or(5);
        analyze(cx)
            .cycles
            .iter()
            .take(limit)
            .map(|c| {
                let site = c.sites.first().copied();
                let loc = site
                    .and_then(|s| program.stmt_loc(s))
                    .unwrap_or(SrcLoc::UNKNOWN);
                Diagnostic::warning(
                    "GA011",
                    format!("potential deadlock: lock-order cycle {}", c.render(program)),
                )
                .at(loc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::builder::ProgramBuilder;
    use gist_ir::{Callee, Operand};

    fn finish_with_main(pb: ProgramBuilder) -> Program {
        let mut p = pb.finish().unwrap();
        if let Some(main) = p.function_by_name("main") {
            p.entry = main.id;
        }
        p
    }

    /// main locks a then b; a spawned worker locks in `worker_order`.
    fn two_lock_program(worker_ab: bool) -> Program {
        let mut pb = ProgramBuilder::new("dl");
        let a = pb.global("lock_a", 0);
        let b = pb.global("lock_b", 0);
        let worker = {
            let mut w = pb.function("worker", &["x"]);
            let (first, second) = if worker_ab { (a, b) } else { (b, a) };
            w.lock(Operand::Global(first));
            w.lock(Operand::Global(second));
            w.unlock(Operand::Global(second));
            w.unlock(Operand::Global(first));
            w.ret(None);
            w.finish()
        };
        let mut f = pb.function("main", &[]);
        f.spawn(None, Callee::Direct(worker), Operand::Const(0));
        f.lock(Operand::Global(a));
        f.lock(Operand::Global(b));
        f.unlock(Operand::Global(b));
        f.unlock(Operand::Global(a));
        f.ret(None);
        f.finish();
        finish_with_main(pb)
    }

    #[test]
    fn abba_order_inversion_is_a_cycle() {
        let p = two_lock_program(false);
        let d = analyze(&AnalysisCtx::new(&p));
        assert!(
            !d.is_clean(),
            "inverted acquisition order must cycle: {:?}",
            d.edges
        );
        let c = &d.cycles[0];
        assert_eq!(c.locks.len(), 2, "two-lock ABBA cycle: {c:?}");
        // The lint reports it.
        let pm = crate::pass::PassManager::new().with_pass(DeadlockLintPass::default());
        let diags = pm.run(&p);
        assert!(diags.iter().any(|d| d.code == "GA011"), "{diags:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let p = two_lock_program(true);
        let d = analyze(&AnalysisCtx::new(&p));
        assert!(
            d.is_clean(),
            "consistent order must not cycle: {:?}",
            d.cycles
        );
        assert!(!d.edges.is_empty(), "a->b edges still exist");
    }

    #[test]
    fn single_lock_program_has_no_edges() {
        let mut pb = ProgramBuilder::new("dl");
        let a = pb.global("lock_a", 0);
        let mut f = pb.function("main", &[]);
        f.lock(Operand::Global(a));
        f.unlock(Operand::Global(a));
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let d = analyze(&AnalysisCtx::new(&p));
        assert!(d.edges.is_empty());
        assert!(d.is_clean());
    }

    #[test]
    fn three_lock_cycle_is_found() {
        // t1: a then b; t2: b then c; t3: c then a.
        let mut pb = ProgramBuilder::new("dl3");
        let a = pb.global("la", 0);
        let b = pb.global("lb", 0);
        let c = pb.global("lc", 0);
        let pairs = [(a, b), (b, c), (c, a)];
        let mut workers = Vec::new();
        for (i, (x, y)) in pairs.iter().enumerate() {
            let mut w = pb.function(&format!("w{i}"), &["p"]);
            w.lock(Operand::Global(*x));
            w.lock(Operand::Global(*y));
            w.unlock(Operand::Global(*y));
            w.unlock(Operand::Global(*x));
            w.ret(None);
            workers.push(w.finish());
        }
        let mut f = pb.function("main", &[]);
        for w in &workers {
            f.spawn(None, Callee::Direct(*w), Operand::Const(0));
        }
        f.ret(None);
        f.finish();
        let p = finish_with_main(pb);
        let d = analyze(&AnalysisCtx::new(&p));
        assert!(!d.is_clean(), "three-way cycle: {:?}", d.edges);
        assert!(
            d.cycles.iter().any(|cy| cy.locks.len() == 3),
            "{:?}",
            d.cycles
        );
    }
}
