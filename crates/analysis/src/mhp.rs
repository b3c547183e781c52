//! May-happen-in-parallel (MHP) analysis over the TICFG.
//!
//! The third static pillar next to value flow ([`crate::svfg`]) and path
//! feasibility: a thread-structure-aware happens-before relation. The
//! slicer answers *which values reach the failure*; this module answers
//! *which statements can actually overlap in time*, so the lint suite
//! stops reporting never-parallel pairs as races, the planner stops
//! burning watchpoint slots on never-parallel stores, and the AsT loop
//! stops testing statically-impossible interleaving hypotheses.
//!
//! # Construction
//!
//! Thread contexts come from the analysis context's thread model, which
//! the race detector reads too: the main thread plus one context per
//! static `spawn` site. Happens-before edges come from thread structure
//! only — locks order nothing (they only exclude):
//!
//! * **Spawn**: every statement that must complete before a spawn
//!   executes (strict dominance in the spawning function, plus whole
//!   bodies of functions callable only from that dominating region)
//!   happens-before everything the spawned thread runs.
//! * **Join**: a `join` whose thread-id operand is the spawn's result
//!   variable closes the thread's lifetime: statements the join
//!   strictly dominates happen-after everything the joined thread ran.
//! * **Transitive thread order**: when the join of spawn *i* strictly
//!   dominates spawn *j*, all of thread *i* precedes all of thread *j*.
//!
//! Ordering claims are only made for spawn sites that execute at most
//! once (multi-instance spawn sites — a spawn in a CFG cycle, in a
//! function that may run more than once, or under such a thread — get no
//! happens-before edges and are additionally parallel with themselves).
//! Missing a join or a dominance fact therefore errs toward *more*
//! parallelism, which is the sound direction for a may-analysis: the
//! `tests/mhp_sound.rs` gate replays every bugbase journal and rejects
//! any false "never parallel" verdict.
//!
//! # Lattice
//!
//! Per statement pair the analysis decides one of four facts, ordered
//! by strength: `MustPrecede` (a happens-before path orders the pair
//! the same way in every execution) > `Sequential` (the pair never runs
//! on two overlapping threads) > `Excluded` (the pair may interleave
//! but a common lock serializes it) > `Parallel` (no ordering and no
//! exclusion). [`Mhp::may_happen_in_parallel`] is true for the bottom
//! two: lock exclusion serializes *access*, not *order*, so an excluded
//! pair still interleaves.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gist_ir::icfg::Ticfg;
use gist_ir::{BlockId, FuncId, InstrId, Op, Operand, Program};

use crate::dataflow::StmtSet;
use crate::pass::{AccessOp, AnalysisCtx, ThreadModel};
use crate::points_to::{Loc, MemOrigin};
use crate::race::Lockset;

/// The per-pair verdict lattice (strongest fact first).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OrderFact {
    /// A happens-before path orders the pair; it can never overlap.
    MustPrecede,
    /// The pair never runs on two concurrently-live threads.
    Sequential,
    /// The pair may interleave, but a common lock serializes it.
    Excluded,
    /// No ordering and no common lock: the pair may overlap in time.
    Parallel,
}

/// One lock's concurrent-region summary: the statements holding it,
/// grouped per thread context and function, plus which region pairs may
/// actually contend at runtime.
#[derive(Clone, Debug)]
pub struct LockSummary {
    /// The lock cell.
    pub lock: Loc,
    /// Regions holding the lock, one per (context, function) group.
    pub regions: Vec<LockRegion>,
    /// Indices into `regions` of pairs that may contend at runtime.
    pub contending: Vec<(usize, usize)>,
}

/// A set of statements holding one lock under one thread context.
#[derive(Clone, Debug)]
pub struct LockRegion {
    /// Thread context index (0 = main, i+1 = spawn site i).
    pub ctx: usize,
    /// Function the region lives in.
    pub func: FuncId,
    /// Statements executed while the lock is held.
    pub stmts: BTreeSet<InstrId>,
}

/// Per-function strict block dominance pairs.
type DomPairs = BTreeMap<FuncId, BTreeSet<(BlockId, BlockId)>>;

/// The solved may-happen-in-parallel relation over one program.
pub struct Mhp<'p> {
    /// The program; its statement index answers position queries.
    program: &'p Program,
    /// The thread contexts (0 = main thread, i+1 = the thread of spawn
    /// site i); every statement runs under its function's contexts.
    threads: Arc<ThreadModel>,
    /// Per spawn index: statements that must complete before the spawn.
    pre_spawn: Vec<StmtSet>,
    /// Per spawn index: statements ordered after the matching join.
    post_join: Vec<StmtSet>,
    /// `(i, j)`: thread `i` is joined before thread `j` is spawned.
    ctx_order: BTreeSet<(usize, usize)>,
    /// Flow-sensitive locksets indexed by statement id (for exclusion
    /// facts), shared with the analysis context that computed them.
    locksets: Arc<[Option<Lockset>]>,
    /// Strict block dominance, per function.
    dom_pairs: DomPairs,
}

impl<'p> Mhp<'p> {
    /// Computes the relation over a program and its TICFG.
    pub fn compute(program: &'p Program, ticfg: &'p Ticfg) -> Mhp<'p> {
        Mhp::build(&AnalysisCtx::with_ticfg(program, ticfg))
    }

    /// Computes the relation from `cx`'s TICFG, thread model and locksets.
    pub(crate) fn build(cx: &AnalysisCtx<'p>) -> Mhp<'p> {
        Builder {
            program: cx.program,
            ticfg: cx.ticfg(),
        }
        .build(Arc::clone(cx.threads()), Arc::clone(cx.locksets()))
    }

    /// True when the program has any `spawn` statement.
    pub fn has_threads(&self) -> bool {
        !self.threads.spawn_sites().is_empty()
    }

    /// The static spawn statements, in program order.
    pub fn spawn_sites(&self) -> &[InstrId] {
        self.threads.spawn_sites()
    }

    /// The strongest static fact about the pair.
    pub fn order_fact(&self, a: InstrId, b: InstrId) -> OrderFact {
        if a != b && (self.must_precede(a, b) || self.must_precede(b, a)) {
            return OrderFact::MustPrecede;
        }
        if !self.may_happen_in_parallel(a, b) {
            return OrderFact::Sequential;
        }
        if self.common_lock(a, b) {
            return OrderFact::Excluded;
        }
        OrderFact::Parallel
    }

    /// May `a` and `b` overlap in time? True for [`OrderFact::Parallel`]
    /// and [`OrderFact::Excluded`] — a lock serializes the pair but does
    /// not order it, so both interleavings remain possible.
    pub fn may_happen_in_parallel(&self, a: InstrId, b: InstrId) -> bool {
        if a == b {
            return self.self_parallel(a);
        }
        if self.must_precede(a, b) || self.must_precede(b, a) {
            return false;
        }
        self.parallel_contexts(a, b)
    }

    /// Does `a` complete before `b` starts, in every execution? Sound
    /// but incomplete: only thread-structure edges (dominance within a
    /// function, spawn, join, join-before-spawn) are claimed; `false`
    /// means "unknown", not "may reorder".
    pub fn must_precede(&self, a: InstrId, b: InstrId) -> bool {
        if a == b {
            return false;
        }
        let (Some(ca), Some(cb)) = (self.ctxs(a), self.ctxs(b)) else {
            return false;
        };
        // Intra-function strict dominance. Valid only when the function
        // has a single live invocation: one thread context, and that
        // context not multi-instance. A routine two spawn sites share
        // runs concurrently with itself — one invocation's `a` does not
        // precede the other invocation's `b` — so it gets no claim.
        if ca == cb && ca.len() == 1 {
            let c = *ca.iter().next().expect("nonempty");
            if !self.threads.multi(c) && self.sdom(a, b) {
                return true;
            }
        }
        for (i, pre) in self.pre_spawn.iter().enumerate() {
            let ctx = i + 1;
            // Spawn edge: a fully precedes spawn i, b only runs on
            // thread i.
            if pre.contains(a) && !cb.is_empty() && cb.iter().all(|&c| c == ctx) {
                return true;
            }
            // Join edge: a only runs on thread i, b is after its join.
            if self.post_join[i].contains(b) && !ca.is_empty() && ca.iter().all(|&c| c == ctx) {
                return true;
            }
        }
        // Thread i joined before thread j spawned.
        let only = |cs: &BTreeSet<usize>| -> Option<usize> {
            if cs.len() == 1 && !cs.contains(&0) {
                cs.iter().next().map(|&c| c - 1)
            } else {
                None
            }
        };
        if let (Some(i), Some(j)) = (only(ca), only(cb)) {
            if self.ctx_order.contains(&(i, j)) {
                return true;
            }
        }
        false
    }

    /// A pair of thread contexts — one carrying `a`, one carrying `b` —
    /// under which the two statements may overlap, when one exists.
    /// Deterministic (the numerically smallest pair wins). An equal
    /// pair is returned only for multi-instance spawn contexts, where
    /// two live instances of the same site can race each other.
    pub fn parallel_ctx_pair(&self, a: InstrId, b: InstrId) -> Option<(usize, usize)> {
        let (ca, cb) = (self.ctxs(a)?, self.ctxs(b)?);
        let mut best: Option<(usize, usize)> = None;
        for &i in ca {
            for &j in cb {
                if self.ctx_pair_parallel(i, j, a, b) {
                    let cand = (i, j);
                    if best.map(|prev| cand < prev).unwrap_or(true) {
                        best = Some(cand);
                    }
                }
            }
        }
        best
    }

    /// True when the two statements hold a common lock, so a mutex
    /// serializes (but does not order) the pair.
    pub fn common_lock(&self, a: InstrId, b: InstrId) -> bool {
        match (self.locksets.get(a.index()), self.locksets.get(b.index())) {
            (Some(Some(la)), Some(Some(lb))) => la.intersection(lb).next().is_some(),
            _ => false,
        }
    }

    /// Memory-writing statements (stores and frees) with no may-parallel
    /// access to the same cell on another thread — their interleavings
    /// cannot matter, so the planner can skip watching them for
    /// cross-thread discovery. Loads, stores, frees, locks and unlocks
    /// in `cx`'s access table count as accesses; intrinsics do not.
    /// Empty for single-threaded programs (every store would qualify
    /// there, and the data-flow pipeline still needs them).
    pub fn never_parallel_stores(&self, cx: &AnalysisCtx<'_>) -> BTreeSet<InstrId> {
        if !self.has_threads() {
            return BTreeSet::new();
        }
        let accesses: Vec<(InstrId, BTreeSet<MemOrigin>, bool)> = cx
            .accesses()
            .iter()
            .filter(|(_, a)| a.op != AccessOp::Intrinsic && !a.cells.is_empty())
            .map(|(s, a)| {
                let origins = a.cells.iter().map(|l| l.origin).collect();
                (s, origins, matches!(a.op, AccessOp::Store | AccessOp::Free))
            })
            .collect();
        let mut out = BTreeSet::new();
        for (s, origins, is_write) in &accesses {
            if !is_write {
                continue;
            }
            let has_parallel_partner = accesses.iter().any(|(t, torigins, _)| {
                t != s
                    && origins.intersection(torigins).next().is_some()
                    && self.may_happen_in_parallel(*s, *t)
            });
            if !has_parallel_partner {
                out.insert(*s);
            }
        }
        out
    }

    /// Per-lock concurrent-region summaries: who holds each lock, under
    /// which thread context, and which region pairs may contend.
    pub fn lock_summaries(&self) -> Vec<LockSummary> {
        let mut by_lock: BTreeMap<Loc, BTreeMap<(usize, FuncId), BTreeSet<InstrId>>> =
            BTreeMap::new();
        for (i, ls) in self.locksets.iter().enumerate() {
            let Some(ls) = ls else {
                continue;
            };
            let s = InstrId(i as u32);
            let Some(pos) = self.program.stmt_pos(s) else {
                continue;
            };
            let Some(ctxs) = self.ctxs(s) else {
                continue;
            };
            for lock in ls.iter() {
                for &ctx in ctxs {
                    by_lock
                        .entry(*lock)
                        .or_default()
                        .entry((ctx, pos.func))
                        .or_default()
                        .insert(s);
                }
            }
        }
        by_lock
            .into_iter()
            .map(|(lock, groups)| {
                let regions: Vec<LockRegion> = groups
                    .into_iter()
                    .map(|((ctx, func), stmts)| LockRegion { ctx, func, stmts })
                    .collect();
                let mut contending = Vec::new();
                for i in 0..regions.len() {
                    for j in (i + 1)..regions.len() {
                        let parallel = regions[i].stmts.iter().any(|&a| {
                            regions[j]
                                .stmts
                                .iter()
                                .any(|&b| self.may_happen_in_parallel(a, b))
                        });
                        if parallel {
                            contending.push((i, j));
                        }
                    }
                }
                LockSummary {
                    lock,
                    regions,
                    contending,
                }
            })
            .collect()
    }

    /// A statement racing with itself: a multi-instance spawn (two live
    /// instances of one site), or two *different* unordered contexts
    /// both carrying the statement (a routine shared by two concurrent
    /// spawn sites races its own code).
    fn self_parallel(&self, s: InstrId) -> bool {
        let Some(ctxs) = self.ctxs(s) else {
            return false;
        };
        ctxs.iter()
            .any(|&i| ctxs.iter().any(|&j| self.ctx_pair_parallel(i, j, s, s)))
    }

    /// Context-level parallelism with the spawn/join windows applied.
    fn parallel_contexts(&self, a: InstrId, b: InstrId) -> bool {
        let (Some(ca), Some(cb)) = (self.ctxs(a), self.ctxs(b)) else {
            return false;
        };
        ca.iter()
            .any(|&i| cb.iter().any(|&j| self.ctx_pair_parallel(i, j, a, b)))
    }

    /// May context instance `i` of `a` overlap context instance `j` of
    /// `b`?
    fn ctx_pair_parallel(&self, i: usize, j: usize, a: InstrId, b: InstrId) -> bool {
        if i == j {
            // Same spawn site: parallel only when several instances may
            // be live at once.
            return self.threads.multi(i);
        }
        match (i, j) {
            (0, j) => {
                // Main-side statement vs thread j - 1: serialized only
                // when a is confined to before the spawn or after the
                // join of that thread.
                let t = j - 1;
                !(self.pre_spawn[t].contains(a) || self.post_join[t].contains(a))
            }
            (i, 0) => {
                let t = i - 1;
                !(self.pre_spawn[t].contains(b) || self.post_join[t].contains(b))
            }
            (i, j) => {
                let (ti, tj) = (i - 1, j - 1);
                !(self.ctx_order.contains(&(ti, tj)) || self.ctx_order.contains(&(tj, ti)))
            }
        }
    }

    /// The thread contexts `s` may run under; `None` when no context
    /// reaches its function (or `s` is not a statement).
    fn ctxs(&self, s: InstrId) -> Option<&BTreeSet<usize>> {
        let ctxs = self.threads.ctxs(self.program.stmt_func(s)?);
        (!ctxs.is_empty()).then_some(ctxs)
    }

    /// Strict statement-level dominance within one function.
    fn sdom(&self, a: InstrId, b: InstrId) -> bool {
        let (Some(pa), Some(pb)) = (self.program.stmt_pos(a), self.program.stmt_pos(b)) else {
            return false;
        };
        if pa.func != pb.func {
            return false;
        }
        if pa.block == pb.block {
            return pa.index < pb.index;
        }
        self.dom_pairs
            .get(&pa.func)
            .map(|d| d.contains(&(pa.block, pb.block)))
            .unwrap_or(false)
    }
}

struct Builder<'p, 't> {
    program: &'p Program,
    ticfg: &'t Ticfg,
}

impl<'p> Builder<'p, '_> {
    fn build(self, threads: Arc<ThreadModel>, locksets: Arc<[Option<Lockset>]>) -> Mhp<'p> {
        let program = self.program;
        let ticfg = self.ticfg;
        let model = Arc::clone(&threads);
        let spawn_sites = model.spawn_sites();

        // Strict block-dominance pairs per function.
        let mut dom_pairs: DomPairs = BTreeMap::new();
        for (fi, f) in program.functions.iter().enumerate() {
            let dt = &ticfg.doms[fi];
            let pairs = dom_pairs.entry(f.id).or_default();
            for a in &f.blocks {
                for b in &f.blocks {
                    if a.id != b.id && dt.strictly_dominates(a.id, b.id) {
                        pairs.insert((a.id, b.id));
                    }
                }
            }
        }

        let no_stmts = StmtSet::new(program.stmt_count());
        let mut mhp = Mhp {
            program,
            threads,
            pre_spawn: vec![no_stmts.clone(); spawn_sites.len()],
            post_join: vec![no_stmts; spawn_sites.len()],
            ctx_order: BTreeSet::new(),
            locksets,
            dom_pairs,
        };

        // Pre-spawn and post-join regions for single-instance spawns.
        let joins = self.match_joins(&model);
        for (idx, &s) in spawn_sites.iter().enumerate() {
            if model.multi(idx + 1) {
                continue; // no ordering claims for re-executing spawns
            }
            let pre = self.closed_region(&mhp, s, true);
            mhp.pre_spawn[idx] = pre;
            if let Some(&join) = joins.get(&idx) {
                let post = self.closed_region(&mhp, join, false);
                mhp.post_join[idx] = post;
            }
        }

        // Thread order: join(i) strictly dominates spawn(j).
        let mut order: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (i, _) in spawn_sites.iter().enumerate() {
            let Some(&join_i) = joins.get(&i) else {
                continue;
            };
            for (j, &spawn_j) in spawn_sites.iter().enumerate() {
                if i == j || model.multi(i + 1) || model.multi(j + 1) {
                    continue;
                }
                if mhp.sdom(join_i, spawn_j) {
                    order.insert((i, j));
                }
            }
        }
        mhp.ctx_order = order;
        mhp
    }

    /// Matches each single-instance spawn to the unique `join` on its
    /// result variable within the spawning function. Ambiguous or
    /// memory-routed thread ids match nothing (sound: fewer HB edges).
    fn match_joins(&self, threads: &ThreadModel) -> BTreeMap<usize, InstrId> {
        let program = self.program;
        let mut out = BTreeMap::new();
        for (idx, &s) in threads.spawn_sites().iter().enumerate() {
            if threads.multi(idx + 1) {
                continue;
            }
            let Some(Op::ThreadCreate {
                dst: Some(tid_var), ..
            }) = program.instr(s).map(|i| &i.op)
            else {
                continue;
            };
            let Some(func) = program.stmt_func(s) else {
                continue;
            };
            let f = program.function(func);
            // All joins in the same function on exactly that variable;
            // a redefinition of the variable disqualifies the match.
            let mut joins = Vec::new();
            let mut redefined = false;
            for b in &f.blocks {
                for i in &b.instrs {
                    match &i.op {
                        Op::ThreadJoin {
                            tid: Operand::Var(v),
                        } if v == tid_var => joins.push(i.id),
                        op => {
                            if i.id != s && op.def() == Some(*tid_var) {
                                redefined = true;
                            }
                        }
                    }
                }
            }
            if joins.len() == 1 && !redefined {
                out.insert(idx, joins[0]);
            }
        }
        out
    }

    /// The closed happens-before region around an anchor statement:
    /// statements in the anchor's function that strictly dominate it
    /// (`before = true`) or are strictly dominated by it (`before =
    /// false`), plus whole bodies of functions whose every callsite lies
    /// inside the region (greatest fixpoint, so a function called both
    /// inside and outside the region is evicted).
    fn closed_region(&self, mhp: &Mhp<'_>, anchor: InstrId, before: bool) -> StmtSet {
        let program = self.program;
        let mut region = StmtSet::new(program.stmt_count());
        let Some(anchor_func) = program.stmt_func(anchor) else {
            return region;
        };
        for b in &program.function(anchor_func).blocks {
            for id in b.stmt_ids() {
                let ordered = if before {
                    mhp.sdom(id, anchor)
                } else {
                    mhp.sdom(anchor, id)
                };
                if ordered {
                    region.insert(id);
                }
            }
        }

        // Greatest fixpoint over whole-function inclusion: start from
        // every single-context function other than the anchor's, evict
        // any with a callsite outside the current region.
        let mut funcs: BTreeSet<FuncId> = program
            .functions
            .iter()
            .map(|f| f.id)
            .filter(|&fid| fid != anchor_func && fid != program.entry)
            .filter(|&fid| mhp.threads.ctxs(fid).len() == 1)
            .collect();
        loop {
            let mut evicted = false;
            for fid in funcs.clone() {
                let sites = self.ticfg.callers.get(&fid).cloned().unwrap_or_default();
                let ok = !sites.is_empty()
                    && sites.iter().all(|site| {
                        // A spawn site inside a pre-region only proves
                        // the routine *starts* before the anchor, not
                        // that it completes — evict it. (For a post
                        // region, starting after the anchor is enough.)
                        let is_spawn = program
                            .instr(*site)
                            .map(|i| matches!(i.op, Op::ThreadCreate { .. }))
                            .unwrap_or(false);
                        if before && is_spawn {
                            return false;
                        }
                        region.contains(*site)
                            || program
                                .stmt_func(*site)
                                .map(|sf| funcs.contains(&sf))
                                .unwrap_or(false)
                    });
                if !ok {
                    funcs.remove(&fid);
                    evicted = true;
                }
            }
            if !evicted {
                break;
            }
        }
        for fid in funcs {
            for id in program.function(fid).stmt_ids() {
                region.insert(id);
            }
        }
        region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::icfg::Icfg;
    use gist_ir::parser::parse_program;

    /// A parsed program and its TICFG; tests compute the relation with
    /// `Mhp::compute(&p, &g)`, which borrows both.
    fn program_of(text: &str) -> (Program, Ticfg) {
        let p = parse_program("t", text).unwrap();
        let g = Icfg::build_ticfg(&p);
        (p, g)
    }

    const SPAWN_JOIN: &str = r#"
global g = 0
fn worker(arg) {
entry:
  store $g, 1
  ret
}
fn main() {
entry:
  store $g, 7
  t = spawn worker(0)
  v = load $g
  join t
  w = load $g
  print w
  ret
}
"#;

    #[test]
    fn pre_spawn_store_is_ordered_before_the_worker() {
        let (p, g) = program_of(SPAWN_JOIN);
        let m = Mhp::compute(&p, &g);
        let worker_store = p.function_by_name("worker").unwrap().blocks[0].instrs[0].id;
        let main_f = p.function_by_name("main").unwrap();
        let main_init = main_f.blocks[0].instrs[0].id;
        let mid_load = main_f.blocks[0].instrs[2].id;
        let post_load = main_f.blocks[0].instrs[4].id;

        assert!(m.has_threads());
        assert!(m.must_precede(main_init, worker_store), "init before spawn");
        assert!(!m.may_happen_in_parallel(main_init, worker_store));
        // Between spawn and join: genuinely parallel.
        assert!(m.may_happen_in_parallel(mid_load, worker_store));
        assert!(!m.must_precede(mid_load, worker_store));
        // After the join: ordered again.
        assert!(
            m.must_precede(worker_store, post_load),
            "join closes the window"
        );
        assert!(!m.may_happen_in_parallel(post_load, worker_store));
    }

    #[test]
    fn sequential_program_has_no_parallel_pairs() {
        let (p, g) = program_of(
            r#"
global g = 0
fn main() {
entry:
  store $g, 1
  v = load $g
  print v
  ret
}
"#,
        );
        let m = Mhp::compute(&p, &g);
        assert!(!m.has_threads());
        let ids: Vec<InstrId> = p.all_stmt_ids().collect();
        for &a in &ids {
            for &b in &ids {
                assert!(!m.may_happen_in_parallel(a, b), "{a} || {b}");
            }
        }
    }

    #[test]
    fn two_joined_threads_in_sequence_are_ordered() {
        let (p, g) = program_of(
            r#"
global g = 0
fn w1(arg) {
entry:
  store $g, 1
  ret
}
fn w2(arg) {
entry:
  store $g, 2
  ret
}
fn main() {
entry:
  a = spawn w1(0)
  join a
  b = spawn w2(0)
  join b
  ret
}
"#,
        );
        let m = Mhp::compute(&p, &g);
        let s1 = p.function_by_name("w1").unwrap().blocks[0].instrs[0].id;
        let s2 = p.function_by_name("w2").unwrap().blocks[0].instrs[0].id;
        assert!(m.must_precede(s1, s2), "w1 joined before w2 spawned");
        assert!(!m.may_happen_in_parallel(s1, s2));
    }

    #[test]
    fn concurrent_threads_without_order_are_parallel() {
        let (p, g) = program_of(
            r#"
global g = 0
fn w1(arg) {
entry:
  store $g, 1
  ret
}
fn w2(arg) {
entry:
  store $g, 2
  ret
}
fn main() {
entry:
  a = spawn w1(0)
  b = spawn w2(0)
  join a
  join b
  ret
}
"#,
        );
        let m = Mhp::compute(&p, &g);
        let s1 = p.function_by_name("w1").unwrap().blocks[0].instrs[0].id;
        let s2 = p.function_by_name("w2").unwrap().blocks[0].instrs[0].id;
        assert!(m.may_happen_in_parallel(s1, s2));
        assert!(!m.must_precede(s1, s2));
    }

    #[test]
    fn spawn_in_loop_is_self_parallel_and_unordered() {
        let (p, g) = program_of(
            r#"
global g = 0
global n = 0
fn w(arg) {
entry:
  store $g, 1
  ret
}
fn main() {
entry:
  br head
head:
  t = spawn w(0)
  c = load $n
  condbr c, head, done
done:
  ret
}
"#,
        );
        let m = Mhp::compute(&p, &g);
        let ws = p.function_by_name("w").unwrap().blocks[0].instrs[0].id;
        assert!(m.may_happen_in_parallel(ws, ws), "loop spawn races itself");
        // No ordering claims at all for the multi spawn.
        let main_f = p.function_by_name("main").unwrap();
        let head_load = main_f.blocks[1].instrs[1].id;
        assert!(m.may_happen_in_parallel(head_load, ws));
    }

    #[test]
    fn common_lock_is_excluded_but_still_mhp() {
        let (p, g) = program_of(
            r#"
global g = 0
global lk = 0
fn w(arg) {
entry:
  lock $lk
  store $g, 1
  unlock $lk
  ret
}
fn main() {
entry:
  t = spawn w(0)
  lock $lk
  v = load $g
  unlock $lk
  join t
  ret
}
"#,
        );
        let m = Mhp::compute(&p, &g);
        let ws = p.function_by_name("w").unwrap().blocks[0].instrs[1].id;
        let mv = p.function_by_name("main").unwrap().blocks[0].instrs[2].id;
        assert!(
            m.may_happen_in_parallel(ws, mv),
            "locks serialize, not order"
        );
        assert_eq!(m.order_fact(ws, mv), OrderFact::Excluded);
        // The lock summary reports the two contending regions.
        let summaries = m.lock_summaries();
        assert!(!summaries.is_empty());
        let s = &summaries[0];
        assert!(s.regions.len() >= 2, "{s:?}");
        assert!(!s.contending.is_empty(), "{s:?}");
    }

    #[test]
    fn never_parallel_stores_spares_racing_writes() {
        let (p, _) = program_of(SPAWN_JOIN);
        let cx = AnalysisCtx::new(&p);
        let never = cx.mhp().never_parallel_stores(&cx);
        let worker_store = p.function_by_name("worker").unwrap().blocks[0].instrs[0].id;
        let main_init = p.function_by_name("main").unwrap().blocks[0].instrs[0].id;
        // The worker's store races the mid-window load: kept.
        assert!(!never.contains(&worker_store), "{never:?}");
        // The pre-spawn init is ordered before every other access to
        // the cell: droppable.
        assert!(never.contains(&main_init), "{never:?}");
    }

    #[test]
    fn never_parallel_is_empty_without_threads() {
        let (p, _) = program_of(
            r#"
global g = 0
fn main() {
entry:
  store $g, 1
  v = load $g
  print v
  ret
}
"#,
        );
        let cx = AnalysisCtx::new(&p);
        assert!(cx.mhp().never_parallel_stores(&cx).is_empty());
    }

    #[test]
    fn order_fact_lattice_is_consistent() {
        let (p, g) = program_of(SPAWN_JOIN);
        let m = Mhp::compute(&p, &g);
        let main_f = p.function_by_name("main").unwrap();
        let init = main_f.blocks[0].instrs[0].id;
        let worker_store = p.function_by_name("worker").unwrap().blocks[0].instrs[0].id;
        let mid_load = main_f.blocks[0].instrs[2].id;
        assert_eq!(m.order_fact(init, worker_store), OrderFact::MustPrecede);
        assert_eq!(m.order_fact(worker_store, init), OrderFact::MustPrecede);
        assert_eq!(m.order_fact(mid_load, worker_store), OrderFact::Parallel);
        assert_eq!(m.order_fact(init, mid_load), OrderFact::MustPrecede);
    }
}
