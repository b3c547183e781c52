//! Dominator and postdominator analyses.
//!
//! Gist's instrumentation planner (paper §3.2.2–§3.2.3) needs three queries:
//!
//! * **strict dominance** — to skip starting control-flow tracking for a
//!   slice statement that is already covered by an earlier one,
//! * **immediate postdominator** — tracking is stopped "after the statement
//!   and before its immediate postdominator",
//! * **immediate dominator** — a watchpoint is placed "before the access and
//!   after the immediate dominator of that access".
//!
//! The implementation is the classic Cooper–Harvey–Kennedy iterative
//! algorithm over reverse postorder, run forward for dominators and on the
//! reversed CFG (with a virtual exit) for postdominators.

use crate::cfg::Cfg;
use crate::types::BlockId;

/// A dominator tree over blocks of one function.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// `idom[b]` is the immediate dominator of block `b`; the entry (and
    /// unreachable blocks) have `None`.
    idom: Vec<Option<BlockId>>,
    /// Depth of each node in the dominator tree (entry = 0).
    depth: Vec<u32>,
    reachable: Vec<bool>,
}

impl DomTree {
    /// Computes the dominator tree from a CFG.
    pub fn dominators(cfg: &Cfg) -> DomTree {
        Self::compute(
            cfg.len(),
            &cfg.rpo,
            |b| cfg.preds[b.index()].clone(),
            &cfg.reachable,
        )
    }

    /// Computes the postdominator tree from a CFG.
    ///
    /// Multiple exits are joined by a virtual exit node; blocks that cannot
    /// reach any exit (e.g. infinite loops) are treated as unreachable in
    /// the postdominator tree, matching what an LLVM `PostDominatorTree`
    /// reports.
    pub fn postdominators(cfg: &Cfg) -> DomTree {
        let n = cfg.len();
        if n == 0 {
            return DomTree {
                idom: Vec::new(),
                depth: Vec::new(),
                reachable: Vec::new(),
            };
        }
        // Build the reversed graph with a virtual root `n` connected from
        // every exit, then run the same iterative algorithm.
        let virt = n;
        let mut rsuccs: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for (b, ss) in cfg.succs.iter().enumerate() {
            for s in ss {
                rsuccs[s.index()].push(b);
            }
        }
        for e in &cfg.exits {
            rsuccs[virt].push(e.index());
        }
        // Postorder on the reversed graph from the virtual root.
        let mut seen = vec![false; n + 1];
        let mut post: Vec<usize> = Vec::with_capacity(n + 1);
        let mut stack: Vec<(usize, usize)> = vec![(virt, 0)];
        seen[virt] = true;
        while let Some(&mut (b, ref mut cursor)) = stack.last_mut() {
            if *cursor < rsuccs[b].len() {
                let c = rsuccs[b][*cursor];
                *cursor += 1;
                if !seen[c] {
                    seen[c] = true;
                    stack.push((c, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse(); // now reverse postorder, starting with virt
        let rpo: Vec<BlockId> = post.iter().map(|&i| BlockId(i as u32)).collect();
        let reachable: Vec<bool> = seen[..n].to_vec();
        // Predecessors in the reversed graph = successors in the original,
        // plus virt for exits.
        let preds_of = |b: BlockId| -> Vec<BlockId> {
            let bi = b.index();
            if bi == virt {
                return Vec::new();
            }
            let mut v: Vec<BlockId> = cfg.succs[bi].iter().map(|s| BlockId(s.0)).collect();
            if cfg.exits.contains(&b) {
                v.push(BlockId(virt as u32));
            }
            v
        };
        let mut tree = Self::compute(n + 1, &rpo, preds_of, &seen);
        // Strip the virtual node: anything immediately postdominated by it
        // becomes a root (None).
        for i in 0..n {
            if tree.idom[i] == Some(BlockId(virt as u32)) {
                tree.idom[i] = None;
            }
        }
        tree.idom.truncate(n);
        tree.depth.truncate(n);
        tree.reachable = reachable;
        tree
    }

    /// Shared iterative CHK core. `rpo` must start with the root.
    fn compute(
        n: usize,
        rpo: &[BlockId],
        preds_of: impl Fn(BlockId) -> Vec<BlockId>,
        reachable: &[bool],
    ) -> DomTree {
        let mut idom: Vec<Option<usize>> = vec![None; n];
        if rpo.is_empty() {
            return DomTree {
                idom: Vec::new(),
                depth: Vec::new(),
                reachable: reachable.to_vec(),
            };
        }
        let root = rpo[0].index();
        idom[root] = Some(root);
        let mut rpo_idx = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_idx[b.index()] = i;
        }
        let intersect = |idom: &[Option<usize>], rpo_idx: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_idx[a] > rpo_idx[b] {
                    a = idom[a].expect("processed");
                }
                while rpo_idx[b] > rpo_idx[a] {
                    b = idom[b].expect("processed");
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let bi = b.index();
                let mut new_idom: Option<usize> = None;
                for p in preds_of(b) {
                    let pi = p.index();
                    if rpo_idx[pi] == usize::MAX || idom[pi].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => pi,
                        Some(cur) => intersect(&idom, &rpo_idx, pi, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[bi] != Some(ni) {
                        idom[bi] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Convert to tree form: root's idom becomes None; compute depths.
        let mut out_idom: Vec<Option<BlockId>> = vec![None; n];
        for (i, d) in idom.iter().enumerate() {
            if i != root {
                if let Some(d) = d {
                    out_idom[i] = Some(BlockId(*d as u32));
                }
            }
        }
        let mut depth = vec![0u32; n];
        // Depths by repeated walking (n is small for our programs).
        for (i, slot) in depth.iter_mut().enumerate() {
            let mut d = 0;
            let mut cur = i;
            while let Some(p) = out_idom[cur] {
                d += 1;
                cur = p.index();
                if d as usize > n {
                    break; // defensive: malformed tree
                }
            }
            *slot = d;
        }
        DomTree {
            idom: out_idom,
            depth,
            reachable: reachable.to_vec(),
        }
    }

    /// The immediate dominator (or postdominator) of `b`.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.index()).copied().flatten()
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        if !self.reachable.get(b.index()).copied().unwrap_or(false) {
            return false;
        }
        let mut cur = b;
        let mut steps = 0usize;
        while let Some(p) = self.idom(cur) {
            if p == a {
                return true;
            }
            cur = p;
            steps += 1;
            if steps > self.idom.len() {
                return false;
            }
        }
        false
    }

    /// True if `a` *strictly* dominates `b` (paper's `sdom`).
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Depth of a node in the tree.
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth.get(b.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::program::Program;

    /// entry(0) -> then(1), else(2); both -> exit(3).
    fn diamond() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let c = f.const_i64("c", 1);
        let t = f.new_block("then");
        let e = f.new_block("else");
        let x = f.new_block("exit");
        f.condbr(c.into(), t, e);
        f.switch_to(t);
        f.br(x);
        f.switch_to(e);
        f.br(x);
        f.switch_to(x);
        f.ret(None);
        f.finish();
        pb.finish().unwrap()
    }

    #[test]
    fn diamond_dominators() {
        let p = diamond();
        let cfg = Cfg::build(&p.functions[0]);
        let dom = DomTree::dominators(&cfg);
        assert_eq!(dom.idom(BlockId(0)), None);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(0)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        assert!(dom.strictly_dominates(BlockId(0), BlockId(1)));
        assert!(!dom.strictly_dominates(BlockId(0), BlockId(0)));
    }

    #[test]
    fn diamond_postdominators() {
        let p = diamond();
        let cfg = Cfg::build(&p.functions[0]);
        let pdom = DomTree::postdominators(&cfg);
        // exit postdominates everything.
        assert_eq!(pdom.idom(BlockId(0)), Some(BlockId(3)));
        assert_eq!(pdom.idom(BlockId(1)), Some(BlockId(3)));
        assert_eq!(pdom.idom(BlockId(2)), Some(BlockId(3)));
        assert_eq!(pdom.idom(BlockId(3)), None);
        assert!(pdom.dominates(BlockId(3), BlockId(0)));
    }

    #[test]
    fn loop_dominators() {
        // entry(0) -> head(1); head -> body(2)|exit(3); body -> head.
        let mut pb = ProgramBuilder::new("t");
        let g = pb.global("n", 3);
        let mut f = pb.function("main", &[]);
        let head = f.new_block("head");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        f.br(head);
        f.switch_to(head);
        let v = f.load("v", g.into());
        f.condbr(v.into(), body, exit);
        f.switch_to(body);
        f.br(head);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let cfg = Cfg::build(&p.functions[0]);
        let dom = DomTree::dominators(&cfg);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(1)));
        let pdom = DomTree::postdominators(&cfg);
        // head postdominates entry and body; exit postdominates head.
        assert!(pdom.dominates(BlockId(1), BlockId(0)));
        assert!(pdom.dominates(BlockId(1), BlockId(2)));
        assert_eq!(pdom.idom(BlockId(1)), Some(BlockId(3)));
    }

    #[test]
    fn depth_increases_down_tree() {
        let p = diamond();
        let cfg = Cfg::build(&p.functions[0]);
        let dom = DomTree::dominators(&cfg);
        assert_eq!(dom.depth(BlockId(0)), 0);
        assert_eq!(dom.depth(BlockId(1)), 1);
        assert_eq!(dom.depth(BlockId(3)), 1);
    }

    #[test]
    fn single_block_trees() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let cfg = Cfg::build(&p.functions[0]);
        let dom = DomTree::dominators(&cfg);
        let pdom = DomTree::postdominators(&cfg);
        assert_eq!(dom.idom(BlockId(0)), None);
        assert_eq!(pdom.idom(BlockId(0)), None);
        assert!(dom.dominates(BlockId(0), BlockId(0)));
    }
}
