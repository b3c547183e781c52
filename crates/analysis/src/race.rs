//! Static lockset-based data race detection.
//!
//! The pipeline (in the Eraser/RELAY tradition, adapted to MiniC):
//!
//! 1. **Thread contexts.** The analysis context's thread model, which MHP
//!    reads too, assigns each statement the threads that may execute it:
//!    the main thread plus one context per `spawn` site, each running the
//!    functions it reaches over call edges. A spawn that may start several
//!    live threads (in a loop, in a function that may run more than once,
//!    or under such a thread) marks its context multi-instance. Statements
//!    in `main` that dominate every spawn — initialization code — shed
//!    their main-thread membership, like Eraser's virgin state.
//! 2. **Thread escape.** The access table names, from points-to, the
//!    abstract cells each access touches; an origin touched from two
//!    different contexts (or twice from one multiply-spawned context) is
//!    shared.
//! 3. **Locksets.** A flow-sensitive, interprocedural analysis computes
//!    the set of mutexes certainly held before every access: `lock` adds
//!    the mutex's abstract cells, `unlock` removes them, control-flow
//!    joins intersect, and a callee starts with the intersection of its
//!    call sites' locksets.
//! 4. **Conflicts.** Two accesses on overlapping shared cells, from
//!    different-able contexts, at least one a write or free, with
//!    *disjoint* locksets, form a [`RaceCandidate`]. Candidates are ranked
//!    by a suspiciousness score (heap cells, inconsistent locking, exact
//!    cell overlap, frees, and write-write pairs score highest).
//!
//! The ranking is what downstream consumers use: the watchpoint planner
//! arms the four debug registers at the highest-ranked accesses first, and
//! the Gist server seeds the first AsT iteration with candidate statements
//! so root-cause accesses outside the alias-free slice (a racing `free`,
//! say) are tracked from the first recurrence.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gist_ir::icfg::Ticfg;
use gist_ir::{FuncId, InstrId, Op, Program, SrcLoc, Terminator};

use crate::diag::Diagnostic;
use crate::pass::{AccessOp, AccessTable, AnalysisCtx, Pass, ThreadModel};
use crate::points_to::{Loc, MemOrigin};

/// A set of abstract mutex cells held at a program point.
pub type Lockset = BTreeSet<Loc>;

/// Lockset intersection — the join of the lockset lattice (paper-style
/// "locks certainly held"). Exposed for property testing.
pub fn lockset_intersect(a: &Lockset, b: &Lockset) -> Lockset {
    a.intersection(b).copied().collect()
}

/// How a statement touches memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A `load`.
    Read,
    /// A `store`.
    Write,
    /// A `free` (conflicts with everything on the origin).
    Free,
    /// A `lock`/`unlock` on the cell itself (use-after-free fodder).
    Sync,
}

impl AccessKind {
    fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Free)
    }

    /// Short lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Free => "free",
            AccessKind::Sync => "sync",
        }
    }
}

/// One side of a race candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceEndpoint {
    /// The accessing statement.
    pub stmt: InstrId,
    /// How it accesses the cell.
    pub kind: AccessKind,
    /// Locks certainly held at the access.
    pub lockset: Lockset,
}

/// A ranked pair of accesses that may race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceCandidate {
    /// The shared allocation the pair collides on.
    pub origin: MemOrigin,
    /// The common concrete cell offset, when both sides pin one down.
    pub offset: Option<i64>,
    /// The endpoint with the smaller statement id.
    pub first: RaceEndpoint,
    /// The endpoint with the larger statement id.
    pub second: RaceEndpoint,
    /// Suspiciousness score (higher = ranked earlier).
    pub score: i32,
}

impl RaceCandidate {
    /// Both statements of the pair.
    pub fn stmts(&self) -> [InstrId; 2] {
        [self.first.stmt, self.second.stmt]
    }
}

/// The race detector's output: candidates sorted best-first.
#[derive(Clone, Debug, Default)]
pub struct RaceAnalysis {
    /// Ranked candidates (best first).
    pub candidates: Vec<RaceCandidate>,
}

impl RaceAnalysis {
    /// True if no candidate was found (e.g. a sequential program).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Candidate statements in rank order, deduplicated: the seed set for
    /// Adaptive Slice Tracking and the priority order for watchpoints.
    pub fn ranked_stmts(&self) -> Vec<InstrId> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for c in &self.candidates {
            for s in c.stmts() {
                if seen.insert(s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Renders the ranked candidate table shown by `repro -- races`.
    pub fn render_table(&self, program: &Program) -> String {
        if self.candidates.is_empty() {
            return "  (no race candidates)\n".to_owned();
        }
        let mut out = String::new();
        for (i, c) in self.candidates.iter().enumerate() {
            let cell = match c.offset {
                Some(o) => format!("{}[{o}]", c.origin.display(program)),
                None => c.origin.display(program),
            };
            out.push_str(&format!(
                "  #{:<2} score {:>2}  {cell}\n      {}  <->  {}\n",
                i + 1,
                c.score,
                render_endpoint(program, &c.first),
                render_endpoint(program, &c.second),
            ));
        }
        out
    }
}

fn render_endpoint(program: &Program, e: &RaceEndpoint) -> String {
    let where_ = program
        .stmt_loc(e.stmt)
        .map(|l| program.source_map.display(l))
        .unwrap_or_else(|| e.stmt.to_string());
    let locks = if e.lockset.is_empty() {
        "{}".to_owned()
    } else {
        let names: Vec<String> = e
            .lockset
            .iter()
            .map(|l| l.origin.display(program))
            .collect();
        format!("{{{}}}", names.join(", "))
    };
    format!("{where_} {} {locks}", e.kind.label())
}

/// Runs the race detector over a fresh [`AnalysisCtx`].
pub fn analyze(program: &Program) -> RaceAnalysis {
    candidates(&AnalysisCtx::new(program))
}

/// The ranked race candidates over `cx`'s facts.
pub(crate) fn candidates(cx: &AnalysisCtx<'_>) -> RaceAnalysis {
    let mut d = Detector::new(cx);
    d.find_pre_spawn_region();
    let mut accesses = d.collect_accesses();
    let locksets = cx.locksets();
    for a in &mut accesses {
        a.lockset = locksets
            .get(a.stmt.index())
            .cloned()
            .flatten()
            .unwrap_or_default();
    }
    let shared = d.shared_origins(&accesses);
    d.pair_up(&accesses, &shared)
}

/// The flow-sensitive lockset stage alone: the locks certainly held
/// before each statement, indexed by statement id. `None` marks a
/// statement the stage never reached (a function no context enters). The
/// lock-order deadlock detector ([`crate::deadlock`]) builds its
/// acquisition graph from it.
pub(crate) fn locksets(cx: &AnalysisCtx<'_>) -> Vec<Option<Lockset>> {
    Detector::new(cx).locksets()
}

/// Origins accessed from two different-able thread contexts, without
/// pre-spawn suppression (see [`AnalysisCtx::shared_origins`]).
pub(crate) fn shared_origins(cx: &AnalysisCtx<'_>) -> BTreeSet<MemOrigin> {
    let d = Detector::new(cx);
    d.shared_origins(&d.collect_accesses())
}

/// One shared-memory access, annotated with everything the pairing step
/// needs.
struct AccessRec {
    stmt: InstrId,
    kind: AccessKind,
    locs: BTreeSet<Loc>,
    /// The thread-model contexts that may run the access.
    ctxs: BTreeSet<usize>,
    /// Locks certainly held at the access (filled in before pairing).
    lockset: Lockset,
}

struct Detector<'a> {
    program: &'a Program,
    ticfg: &'a Ticfg,
    threads: &'a ThreadModel,
    accesses: &'a AccessTable,
    /// Functions only ever called before the first spawn (init code).
    pre_spawn_funcs: BTreeSet<FuncId>,
    /// Whether pre-spawn suppression applies (all spawns are in `main`).
    suppression: bool,
}

impl<'a> Detector<'a> {
    /// A detector over `cx`'s TICFG, thread model and access table.
    fn new(cx: &'a AnalysisCtx<'_>) -> Self {
        Detector {
            program: cx.program,
            ticfg: cx.ticfg(),
            threads: cx.threads(),
            accesses: cx.accesses(),
            pre_spawn_funcs: BTreeSet::new(),
            suppression: false,
        }
    }

    /// Computes the pre-spawn (initialization) region of the main thread:
    /// statements in `main` that dominate every spawn site, plus functions
    /// called only from there. Bails out (suppresses nothing) when spawns
    /// happen outside `main`.
    fn find_pre_spawn_region(&mut self) {
        let (program, threads) = (self.program, self.threads);
        if threads.spawn_sites().is_empty() {
            return;
        }
        let entry = program.entry;
        self.suppression = threads
            .spawn_sites()
            .iter()
            .all(|&s| program.stmt_func(s) == Some(entry));
        if !self.suppression {
            return;
        }
        // Functions reachable from any spawned context can run concurrently
        // no matter where they're called from: only main-thread-only ones
        // can be init code.
        let in_main = |f: FuncId| threads.ctxs(f).contains(&0);
        let mut pre: BTreeSet<FuncId> = program
            .functions
            .iter()
            .map(|f| f.id)
            .filter(|&f| f != entry && threads.ctxs(f).iter().eq(&[0]))
            .collect();
        // Greatest fixpoint: a function stays "pre-spawn" only while every
        // main-thread call site into it is itself pre-spawn.
        loop {
            let mut evict: Vec<FuncId> = Vec::new();
            for &f in &pre {
                let callers = self.ticfg.callers.get(&f).map_or(&[][..], Vec::as_slice);
                let all_pre = callers
                    .iter()
                    .all(|&site| match self.program.stmt_func(site) {
                        Some(g) if g == entry => self.stmt_is_pre_spawn(site),
                        Some(g) => !in_main(g) || pre.contains(&g),
                        None => true,
                    });
                if !all_pre {
                    evict.push(f);
                }
            }
            if evict.is_empty() {
                break;
            }
            for f in evict {
                pre.remove(&f);
            }
        }
        self.pre_spawn_funcs = pre;
    }

    /// True if a statement in `main` executes before every spawn site.
    fn stmt_is_pre_spawn(&self, stmt: InstrId) -> bool {
        let entry = self.program.entry;
        let Some(pos) = self.program.stmt_pos(stmt) else {
            return false;
        };
        debug_assert_eq!(pos.func, entry);
        let dom = &self.ticfg.doms[entry.index()];
        self.threads.spawn_sites().iter().all(|&site| {
            let Some(spos) = self.program.stmt_pos(site) else {
                return false;
            };
            if pos.block == spos.block {
                pos.index < spos.index
            } else {
                dom.strictly_dominates(pos.block, spos.block)
            }
        })
    }

    /// Whether an access sheds its main-thread membership (init code).
    fn suppressed_in_main(&self, stmt: InstrId, func: FuncId) -> bool {
        if !self.suppression {
            return false;
        }
        if func == self.program.entry {
            self.stmt_is_pre_spawn(stmt)
        } else {
            self.pre_spawn_funcs.contains(&func)
        }
    }

    /// Flow-sensitive, interprocedural lockset analysis: the locks
    /// certainly held before each statement, indexed by statement id.
    fn locksets(&self) -> Vec<Option<Lockset>> {
        let program = self.program;
        let mut stmt_ls: Vec<Option<Lockset>> = vec![None; program.stmt_count()];
        // None = not yet observed (top of the "intersection of call sites"
        // lattice). The entry and all spawn routines start lock-free.
        let mut entry_ls: BTreeMap<FuncId, Option<Lockset>> = BTreeMap::new();
        entry_ls.insert(program.entry, Some(Lockset::new()));
        for site in self.threads.spawn_sites() {
            for &t in self
                .ticfg
                .call_targets
                .get(site)
                .map_or(&[][..], Vec::as_slice)
            {
                entry_ls.insert(t, Some(Lockset::new()));
            }
        }
        // Locks a function certainly still holds at return, beyond what it
        // was entered with.
        let mut gains: BTreeMap<FuncId, Lockset> = BTreeMap::new();

        for _round in 0..32 {
            let mut changed = false;
            for f in &program.functions {
                if f.blocks.is_empty() {
                    continue;
                }
                let Some(Some(entry_set)) = entry_ls.get(&f.id).cloned() else {
                    continue;
                };
                // Per-block dataflow with intersection joins.
                let nblocks = f.blocks.len();
                let mut ins: Vec<Option<Lockset>> = vec![None; nblocks];
                ins[0] = Some(entry_set.clone());
                let mut worklist: VecDeque<usize> = VecDeque::from([0]);
                let mut ret_ls: Vec<Lockset> = Vec::new();
                let mut callee_updates: Vec<(FuncId, Lockset)> = Vec::new();
                let mut iterations = 0usize;
                while let Some(bi) = worklist.pop_front() {
                    iterations += 1;
                    if iterations > nblocks * 64 {
                        break; // defensive bound
                    }
                    let Some(mut ls) = ins[bi].clone() else {
                        continue;
                    };
                    let b = &f.blocks[bi];
                    for instr in &b.instrs {
                        stmt_ls[instr.id.index()] = Some(ls.clone());
                        match &instr.op {
                            Op::MutexLock { .. } => {
                                ls.extend(self.accesses.cells(instr.id));
                            }
                            Op::MutexUnlock { .. } => {
                                for loc in self.accesses.cells(instr.id) {
                                    ls.remove(loc);
                                }
                            }
                            Op::Call { .. } => {
                                for &t in self
                                    .ticfg
                                    .call_targets
                                    .get(&instr.id)
                                    .map_or(&[][..], Vec::as_slice)
                                {
                                    callee_updates.push((t, ls.clone()));
                                    ls.extend(gains.get(&t).cloned().unwrap_or_default());
                                }
                            }
                            _ => {}
                        }
                    }
                    stmt_ls[b.term.id().index()] = Some(ls.clone());
                    if matches!(b.term, Terminator::Ret { .. }) {
                        ret_ls.push(ls.difference(&entry_set).copied().collect());
                    }
                    for succ in b.term.successors() {
                        if succ.index() >= nblocks {
                            continue;
                        }
                        let merged = match &ins[succ.index()] {
                            None => ls.clone(),
                            Some(prev) => lockset_intersect(prev, &ls),
                        };
                        if ins[succ.index()].as_ref() != Some(&merged) {
                            ins[succ.index()] = Some(merged);
                            worklist.push_back(succ.index());
                        }
                    }
                }
                // Net lock gain: held at every return.
                let gain = ret_ls
                    .into_iter()
                    .reduce(|a, b| lockset_intersect(&a, &b))
                    .unwrap_or_default();
                if gains.get(&f.id) != Some(&gain) {
                    gains.insert(f.id, gain);
                    changed = true;
                }
                // Callee entry locksets: intersection over call sites.
                for (t, ls) in callee_updates {
                    let next = match entry_ls.get(&t) {
                        Some(Some(prev)) => lockset_intersect(prev, &ls),
                        _ => ls,
                    };
                    if entry_ls.get(&t) != Some(&Some(next.clone())) {
                        entry_ls.insert(t, Some(next));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        stmt_ls
    }

    /// Every memory access on a known cell, with the contexts that may
    /// run it and an empty lockset. A free's cells cover its whole origin.
    fn collect_accesses(&self) -> Vec<AccessRec> {
        let mut out = Vec::new();
        for (stmt, access) in self.accesses.iter() {
            let kind = match access.op {
                AccessOp::Load => AccessKind::Read,
                AccessOp::Store => AccessKind::Write,
                AccessOp::Free => AccessKind::Free,
                AccessOp::Lock | AccessOp::Unlock => AccessKind::Sync,
                AccessOp::Intrinsic => continue,
            };
            if access.cells.is_empty() {
                continue;
            }
            let func = self
                .program
                .stmt_func(stmt)
                .expect("accesses are statements");
            let mut ctxs = self.threads.ctxs(func).clone();
            if self.suppressed_in_main(stmt, func) {
                ctxs.remove(&0);
            }
            if ctxs.is_empty() {
                continue;
            }
            out.push(AccessRec {
                stmt,
                kind,
                locs: access.footprint(),
                ctxs,
                lockset: Lockset::new(),
            });
        }
        out
    }

    /// Origins reachable from at least two different-able thread contexts.
    fn shared_origins(&self, accesses: &[AccessRec]) -> BTreeSet<MemOrigin> {
        let mut origin_ctxs: BTreeMap<MemOrigin, BTreeSet<usize>> = BTreeMap::new();
        for a in accesses {
            for loc in &a.locs {
                origin_ctxs
                    .entry(loc.origin)
                    .or_default()
                    .extend(a.ctxs.iter().copied());
            }
        }
        origin_ctxs
            .into_iter()
            .filter(|(_, ctxs)| ctxs.len() >= 2 || ctxs.iter().any(|&c| self.threads.multi(c)))
            .map(|(o, _)| o)
            .collect()
    }

    fn pair_up(&self, accesses: &[AccessRec], shared: &BTreeSet<MemOrigin>) -> RaceAnalysis {
        // (min stmt, max stmt) -> best candidate for the pair.
        let mut best: BTreeMap<(InstrId, InstrId), RaceCandidate> = BTreeMap::new();
        for (i, a) in accesses.iter().enumerate() {
            for b in accesses.iter().skip(i + 1) {
                if !kind_pair_ok(a.kind, b.kind) {
                    continue;
                }
                if !self.ctx_pair_ok(&a.ctxs, &b.ctxs) {
                    continue;
                }
                if !lockset_intersect(&a.lockset, &b.lockset).is_empty() {
                    continue;
                }
                let Some((origin, offset, score)) = self.best_collision(a, b, shared) else {
                    continue;
                };
                let (first, second) = if a.stmt <= b.stmt { (a, b) } else { (b, a) };
                let cand = RaceCandidate {
                    origin,
                    offset,
                    first: endpoint(first),
                    second: endpoint(second),
                    score,
                };
                let key = (first.stmt, second.stmt);
                match best.get(&key) {
                    Some(prev) if prev.score >= cand.score => {}
                    _ => {
                        best.insert(key, cand);
                    }
                }
            }
        }
        let mut candidates: Vec<RaceCandidate> = best.into_values().collect();
        candidates.sort_by(|a, b| {
            b.score
                .cmp(&a.score)
                .then(a.first.stmt.cmp(&b.first.stmt))
                .then(a.second.stmt.cmp(&b.second.stmt))
        });
        RaceAnalysis { candidates }
    }

    /// The highest-scoring shared origin both accesses may collide on.
    fn best_collision(
        &self,
        a: &AccessRec,
        b: &AccessRec,
        shared: &BTreeSet<MemOrigin>,
    ) -> Option<(MemOrigin, Option<i64>, i32)> {
        let mut best: Option<(MemOrigin, Option<i64>, i32)> = None;
        let a_origins: BTreeSet<MemOrigin> = a.locs.iter().map(|l| l.origin).collect();
        for origin in a_origins {
            if !shared.contains(&origin) {
                continue;
            }
            let a_offs: Vec<Option<i64>> = a
                .locs
                .iter()
                .filter(|l| l.origin == origin)
                .map(|l| l.offset)
                .collect();
            let b_offs: Vec<Option<i64>> = b
                .locs
                .iter()
                .filter(|l| l.origin == origin)
                .map(|l| l.offset)
                .collect();
            if b_offs.is_empty() {
                continue;
            }
            let mut concrete: Option<i64> = None;
            let mut overlaps = false;
            for &oa in &a_offs {
                for &ob in &b_offs {
                    match (oa, ob) {
                        (Some(x), Some(y)) if x == y => {
                            overlaps = true;
                            concrete = Some(x);
                        }
                        (None, _) | (_, None) => overlaps = true,
                        _ => {}
                    }
                }
            }
            if !overlaps {
                continue;
            }
            let score = score_pair(origin, concrete.is_some(), a, b);
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((origin, concrete, score));
            }
        }
        best
    }

    /// Two context sets can race if they contain different contexts, or
    /// share only a context whose spawn site runs more than once.
    fn ctx_pair_ok(&self, a: &BTreeSet<usize>, b: &BTreeSet<usize>) -> bool {
        if a.len() == 1 && b.len() == 1 && a == b {
            return a.iter().any(|&c| self.threads.multi(c));
        }
        !a.is_empty() && !b.is_empty()
    }
}

fn endpoint(a: &AccessRec) -> RaceEndpoint {
    RaceEndpoint {
        stmt: a.stmt,
        kind: a.kind,
        lockset: a.lockset.clone(),
    }
}

fn kind_pair_ok(a: AccessKind, b: AccessKind) -> bool {
    use AccessKind::*;
    match (a, b) {
        (Sync, Sync) => false,
        (Sync, k) | (k, Sync) => k.is_write(),
        (Read, Read) => false,
        (x, y) => x.is_write() || y.is_write(),
    }
}

/// The suspiciousness score of a colliding pair. Heap cells, inconsistent
/// locking, exact cell overlap, frees, and double-writes are the signals
/// that correlate with the bugbase's real root causes.
fn score_pair(origin: MemOrigin, same_concrete_cell: bool, a: &AccessRec, b: &AccessRec) -> i32 {
    let mut s = 0;
    if matches!(origin, MemOrigin::Heap(_)) {
        s += 4;
    }
    // Inconsistent locking: one side holds a lock the other does not. A lock
    // on the raced cell itself (e.g. holding a mutex while it is freed under
    // us) does not count — that is a lifetime bug, not a locking-discipline
    // signal, and the free endpoint already earns its own bonus.
    let foreign_lock = |r: &AccessRec| r.lockset.iter().any(|l| l.origin != origin);
    if foreign_lock(a) || foreign_lock(b) {
        s += 3;
    }
    if same_concrete_cell {
        s += 3;
    }
    if a.kind == AccessKind::Free || b.kind == AccessKind::Free {
        s += 2;
    }
    if a.kind.is_write() && b.kind.is_write() {
        s += 2;
    }
    if (a.kind.is_write() && b.kind == AccessKind::Read)
        || (a.kind == AccessKind::Read && b.kind.is_write())
    {
        s += 1;
    }
    s
}

/// The race detector packaged as a lint [`Pass`]: the top candidates are
/// reported as `GA010` warnings.
#[derive(Default)]
pub struct RaceLintPass;

/// Race candidates [`RaceLintPass`] reports at most.
const LINT_LIMIT: usize = 5;

impl Pass for RaceLintPass {
    fn name(&self) -> &'static str {
        "race-lint"
    }

    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic> {
        let program = cx.program;
        cx.races()
            .candidates
            .iter()
            .take(LINT_LIMIT)
            .map(|c| {
                let loc = program.stmt_loc(c.first.stmt).unwrap_or(SrcLoc::UNKNOWN);
                Diagnostic::warning(
                    "GA010",
                    format!(
                        "possible data race on {}: {} {} vs {} {}",
                        c.origin.display(program),
                        program
                            .stmt_loc(c.first.stmt)
                            .map(|l| program.source_map.display(l))
                            .unwrap_or_default(),
                        c.first.kind.label(),
                        program
                            .stmt_loc(c.second.stmt)
                            .map(|l| program.source_map.display(l))
                            .unwrap_or_default(),
                        c.second.kind.label(),
                    ),
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

    /// The builder leaves `entry` at fn0; point it at `main` (tests here
    /// define worker routines first).
    fn finish_with_main(pb: ProgramBuilder) -> Program {
        let mut p = pb.finish().unwrap();
        if let Some(main) = p.function_by_name("main") {
            p.entry = main.id;
        }
        p
    }

    /// main spawns a worker; both touch `counter`. `guard` selects which
    /// sides take the lock.
    fn racy(guard_main: bool, guard_worker: bool) -> Program {
        let mut pb = ProgramBuilder::new("racy");
        let counter = pb.global("counter", 0);
        let lk = pb.global("lk", 0);
        let worker = {
            let mut w = pb.function("worker", &["arg"]);
            if guard_worker {
                w.lock(Operand::Global(lk));
            }
            w.load("v", Operand::Global(counter));
            if guard_worker {
                w.unlock(Operand::Global(lk));
            }
            w.ret(None);
            w.finish()
        };
        let mut f = pb.function("main", &[]);
        let t = f
            .spawn(Some("t"), Callee::Direct(worker), Operand::Const(0))
            .unwrap();
        if guard_main {
            f.lock(Operand::Global(lk));
        }
        f.store(Operand::Global(counter), Operand::Const(1));
        if guard_main {
            f.unlock(Operand::Global(lk));
        }
        f.join(t.into());
        f.ret(None);
        f.finish();
        finish_with_main(pb)
    }

    #[test]
    fn unguarded_store_load_pair_is_found() {
        let analysis = analyze(&racy(false, false));
        assert!(!analysis.is_empty(), "expected a candidate");
        let top = &analysis.candidates[0];
        assert_eq!(top.first.kind, AccessKind::Read);
        assert_eq!(top.second.kind, AccessKind::Write);
        assert!(matches!(top.origin, MemOrigin::Global(_)));
        assert_eq!(analysis.ranked_stmts().len(), 2);
    }

    #[test]
    fn consistent_locking_silences_the_pair() {
        let analysis = analyze(&racy(true, true));
        assert!(
            analysis.is_empty(),
            "consistently guarded accesses must not race: {:?}",
            analysis.candidates
        );
    }

    #[test]
    fn inconsistent_locking_ranks_above_no_locking() {
        let none = analyze(&racy(false, false));
        let one_side = analyze(&racy(false, true));
        assert!(!one_side.is_empty());
        assert!(
            one_side.candidates[0].score > none.candidates[0].score,
            "lock held on one side only is the classic lockset violation"
        );
    }

    #[test]
    fn init_writes_before_spawn_are_suppressed() {
        // main initializes `counter` before spawning; only the post-spawn
        // store may race with the worker's load.
        let mut pb = ProgramBuilder::new("init");
        let counter = pb.global("counter", 0);
        let worker = {
            let mut w = pb.function("worker", &["arg"]);
            w.load("v", Operand::Global(counter));
            w.ret(None);
            w.finish()
        };
        let mut f = pb.function("main", &[]);
        f.store(Operand::Global(counter), Operand::Const(7)); // init
        let t = f
            .spawn(Some("t"), Callee::Direct(worker), Operand::Const(0))
            .unwrap();
        f.store(Operand::Global(counter), Operand::Const(1)); // racy
        f.join(t.into());
        f.ret(None);
        f.finish();
        let program = finish_with_main(pb);
        let init_store = program.functions[1].blocks[0].instrs[0].id;
        let analysis = analyze(&program);
        assert!(!analysis.is_empty());
        for c in &analysis.candidates {
            assert!(
                !c.stmts().contains(&init_store),
                "pre-spawn init store must not be reported: {c:?}"
            );
        }
    }

    #[test]
    fn free_during_use_is_the_top_candidate() {
        // main allocates a cell, publishes it, spawns a worker that locks
        // through it, then frees it while the worker may still be running.
        let mut pb = ProgramBuilder::new("uaf");
        let slot = pb.global("slot", 0);
        let worker = {
            let mut w = pb.function("worker", &["arg"]);
            let m = w.load("m", Operand::Global(slot));
            w.lock(m.into());
            w.unlock(m.into());
            w.ret(None);
            w.finish()
        };
        let mut f = pb.function("main", &[]);
        let m = f.alloc("m", Operand::Const(1));
        f.store(Operand::Global(slot), m.into());
        f.spawn(Some("t"), Callee::Direct(worker), Operand::Const(0));
        f.free(m.into());
        f.ret(None);
        f.finish();
        let program = finish_with_main(pb);
        let analysis = analyze(&program);
        assert!(!analysis.is_empty());
        let top = &analysis.candidates[0];
        assert!(
            matches!(top.origin, MemOrigin::Heap(_)),
            "use-after-free on the heap cell should rank first: {top:?}"
        );
        assert!(top.first.kind == AccessKind::Free || top.second.kind == AccessKind::Free);
    }

    /// `main` calls `start` twice and `start` spawns `worker`, so two
    /// workers may run at once: the spawn site is multi-instance (MHP's
    /// rule, which the thread model gives the race detector too), and the
    /// worker's load and store of `counter` race each other.
    #[test]
    fn helper_called_twice_spawns_racing_workers() {
        let p = gist_ir::parser::parse_program(
            "t",
            r#"
global counter = 0
fn worker(arg) {
entry:
  v = load $counter
  w = add v, 1
  store $counter, w
  ret
}
fn start(x) {
entry:
  t = spawn worker(x)
  ret
}
fn main() {
entry:
  call start(1)
  call start(2)
  ret
}
"#,
        )
        .unwrap();
        let cx = AnalysisCtx::new(&p);
        let worker = &p.function_by_name("worker").unwrap().blocks[0];
        let (load, store) = (worker.instrs[0].id, worker.instrs[2].id);
        let counter = MemOrigin::Global(p.globals[0].id);
        assert!(cx.mhp().may_happen_in_parallel(load, store));
        assert!(cx.shared_origins().contains(&counter));
        assert!(
            cx.races()
                .candidates
                .iter()
                .any(|c| c.origin == counter && c.stmts() == [load, store]),
            "{:?}",
            cx.races().candidates
        );
    }

    #[test]
    fn sequential_programs_have_no_candidates() {
        let mut pb = ProgramBuilder::new("seq");
        let g = pb.global("g", 0);
        let mut f = pb.function("main", &[]);
        f.store(Operand::Global(g), Operand::Const(1));
        f.load("v", Operand::Global(g));
        f.ret(None);
        f.finish();
        let analysis = analyze(&finish_with_main(pb));
        assert!(analysis.is_empty());
    }

    #[test]
    fn lockset_intersection_basics() {
        let o = MemOrigin::Global(gist_ir::GlobalId(0));
        let a: Lockset = [Loc::at(o, 0), Loc::at(o, 1)].into_iter().collect();
        let b: Lockset = [Loc::at(o, 1)].into_iter().collect();
        assert_eq!(lockset_intersect(&a, &b), b);
        assert_eq!(lockset_intersect(&a, &a), a);
        assert_eq!(lockset_intersect(&b, &a), lockset_intersect(&a, &b));
    }

    #[test]
    fn table_renders_ranked_rows() {
        let program = racy(false, false);
        let analysis = analyze(&program);
        let table = analysis.render_table(&program);
        assert!(table.contains("#1"), "{table}");
        assert!(table.contains("global `counter`"), "{table}");
    }
}
