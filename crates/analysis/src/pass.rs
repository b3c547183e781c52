//! A small pass framework for static analyses, and the context that owns a
//! program's whole-program facts.
//!
//! An [`AnalysisCtx`] builds each fact — the TICFG, the thread model,
//! points-to, the access table, locksets, shared origins, race candidates,
//! MHP, constants, the def index, the SVFG and the lifetime pairs — on
//! first use and at most once, so every pass, lint and client reading
//! from one context shares a single copy. The thread model (spawn sites,
//! the thread contexts that may run each function, multi-instance
//! spawns) is the one the race detector and MHP both read; the access
//! table is the one place that asks points-to which cells a memory
//! access touches. The [`PassManager`] runs a list of passes over one
//! context and collects their diagnostics into one sorted report,
//! mirroring how the paper's prototype chains LLVM analysis passes on the
//! Gist server before computing instrumentation plans.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

use gist_ir::icfg::{Icfg, Ticfg};
use gist_ir::{BlockId, FuncId, InstrId, Op, Operand, Program};

use crate::dataflow::ConstProp;
use crate::diag::{sort_diagnostics, Diagnostic};
use crate::lint::{self, LifetimePair};
use crate::mhp::Mhp;
use crate::points_to::{Loc, LocSet, MemOrigin, PointsTo};
use crate::race::{self, Lockset, RaceAnalysis};
use crate::svfg::{DefIndex, Svfg};

/// The whole-program facts of one program, each built on first use.
pub struct AnalysisCtx<'p> {
    /// The program under analysis.
    pub program: &'p Program,
    /// A TICFG the caller already built, used instead of building one.
    given_ticfg: Option<&'p Ticfg>,
    ticfg: OnceLock<Ticfg>,
    threads: OnceLock<Arc<ThreadModel>>,
    points_to: OnceLock<PointsTo>,
    accesses: OnceLock<AccessTable>,
    locksets: OnceLock<Arc<[Option<Lockset>]>>,
    shared_origins: OnceLock<BTreeSet<MemOrigin>>,
    races: OnceLock<RaceAnalysis>,
    mhp: OnceLock<Mhp<'p>>,
    consts: OnceLock<ConstProp>,
    defs: OnceLock<DefIndex>,
    svfg: OnceLock<Svfg>,
    lifetime_pairs: OnceLock<Vec<LifetimePair>>,
}

impl<'p> AnalysisCtx<'p> {
    /// Creates a context for `program`. Nothing is computed up front.
    pub fn new(program: &'p Program) -> Self {
        AnalysisCtx {
            program,
            given_ticfg: None,
            ticfg: OnceLock::new(),
            threads: OnceLock::new(),
            points_to: OnceLock::new(),
            accesses: OnceLock::new(),
            locksets: OnceLock::new(),
            shared_origins: OnceLock::new(),
            races: OnceLock::new(),
            mhp: OnceLock::new(),
            consts: OnceLock::new(),
            defs: OnceLock::new(),
            svfg: OnceLock::new(),
            lifetime_pairs: OnceLock::new(),
        }
    }

    /// A context that reads `ticfg` instead of building its own.
    pub(crate) fn with_ticfg(program: &'p Program, ticfg: &'p Ticfg) -> Self {
        AnalysisCtx {
            given_ticfg: Some(ticfg),
            ..AnalysisCtx::new(program)
        }
    }

    /// The thread-interprocedural CFG.
    pub fn ticfg(&self) -> &Ticfg {
        match self.given_ticfg {
            Some(ticfg) => ticfg,
            None => self.ticfg.get_or_init(|| Icfg::build_ticfg(self.program)),
        }
    }

    /// The thread model: spawn sites, the contexts that may run each
    /// function, and the multi-instance spawns. Shared with MHP, which
    /// outlives a context built only to compute it.
    pub(crate) fn threads(&self) -> &Arc<ThreadModel> {
        self.threads
            .get_or_init(|| Arc::new(ThreadModel::build(self.program, self.ticfg())))
    }

    /// The Andersen-style points-to result.
    pub fn points_to(&self) -> &PointsTo {
        self.points_to
            .get_or_init(|| PointsTo::compute(self.program, self.ticfg()))
    }

    /// Each memory-access statement's op and cells.
    pub(crate) fn accesses(&self) -> &AccessTable {
        self.accesses
            .get_or_init(|| AccessTable::build(self.program, self.points_to()))
    }

    /// The locks certainly held before each statement, indexed by
    /// statement id (`None` where the lockset stage never reached).
    /// Pre-spawn suppression does not touch locksets, so one table serves
    /// the race detector, MHP, the deadlock detector and the atomicity
    /// lint; MHP shares it instead of copying it.
    pub(crate) fn locksets(&self) -> &Arc<[Option<Lockset>]> {
        self.locksets.get_or_init(|| race::locksets(self).into())
    }

    /// Memory origins accessible from more than one thread context (or
    /// from a multiply-spawned one): the cells where cross-thread aliasing
    /// matters. Single-threaded programs have none.
    ///
    /// This is not the race detector's internal shared set: pre-spawn
    /// suppression is deliberately *not* applied, because initialization
    /// writes to a cell that later escapes still belong in a slice.
    pub fn shared_origins(&self) -> &BTreeSet<MemOrigin> {
        self.shared_origins
            .get_or_init(|| race::shared_origins(self))
    }

    /// The ranked race candidates.
    pub fn races(&self) -> &RaceAnalysis {
        self.races.get_or_init(|| race::candidates(self))
    }

    /// The may-happen-in-parallel relation.
    pub fn mhp(&self) -> &Mhp<'p> {
        self.mhp.get_or_init(|| Mhp::build(self))
    }

    /// Sparse constant propagation.
    pub fn consts(&self) -> &ConstProp {
        self.consts
            .get_or_init(|| ConstProp::compute(self.program, self.ticfg()))
    }

    /// Register defs, global writes and the cells each store or free
    /// writes.
    pub fn defs(&self) -> &DefIndex {
        self.defs
            .get_or_init(|| DefIndex::build(self.program, self.accesses()))
    }

    /// The shared-cell alias pull of `s`: the stores and frees other than
    /// `s` whose written cells overlap a thread-shared cell `s` touches,
    /// in statement-id order. A free's own cells count as touched as they
    /// are, not widened. The slicer pulls these writes into a slice and
    /// the SVFG turns them into `Interleaved` edges, each through its own
    /// filter.
    pub fn shared_alias_writes(&self, s: InstrId) -> Vec<InstrId> {
        let shared = self.shared_origins();
        let cells: Vec<Loc> = self
            .accesses()
            .cells(s)
            .iter()
            .filter(|l| shared.contains(&l.origin))
            .copied()
            .collect();
        if cells.is_empty() {
            return Vec::new();
        }
        self.defs()
            .write_locs
            .iter()
            .filter(|(&w, wlocs)| {
                w != s && wlocs.iter().any(|wl| cells.iter().any(|c| wl.overlaps(c)))
            })
            .map(|(&w, _)| w)
            .collect()
    }

    /// The sparse value-flow graph.
    pub fn svfg(&self) -> &Svfg {
        self.svfg.get_or_init(|| Svfg::build(self))
    }

    /// The free→use pairs behind the `GA020`/`GA021` findings, in report
    /// order. The lifetime and order lints and the predicted sketches all
    /// read this one copy.
    pub fn lifetime_pairs(&self) -> &[LifetimePair] {
        self.lifetime_pairs
            .get_or_init(|| lint::lifetime_pairs(self))
    }
}

/// A program's thread structure. Context 0 is the main thread and context
/// `i + 1` the thread started at spawn site `i`; a function runs under
/// every context that reaches it over call edges (a spawn opens its own
/// context).
pub(crate) struct ThreadModel {
    /// Static `spawn` statements, in program order.
    spawn_sites: Vec<InstrId>,
    /// Per function, the contexts that may run it (empty when none does).
    func_ctxs: Vec<BTreeSet<usize>>,
    /// Per spawn site, whether it may start several live threads.
    multi: Vec<bool>,
}

impl ThreadModel {
    fn build(program: &Program, ticfg: &Ticfg) -> ThreadModel {
        let spawn_sites: Vec<InstrId> = program
            .functions
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i.op, Op::ThreadCreate { .. }))
            .map(|i| i.id)
            .collect();
        let mut func_ctxs = vec![BTreeSet::new(); program.functions.len()];
        let roots = std::iter::once(vec![program.entry]).chain(
            spawn_sites
                .iter()
                .map(|s| ticfg.call_targets.get(s).cloned().unwrap_or_default()),
        );
        for (ctx, roots) in roots.enumerate() {
            let mut queue: VecDeque<FuncId> = roots.into();
            while let Some(f) = queue.pop_front() {
                if !func_ctxs[f.index()].insert(ctx) {
                    continue;
                }
                for i in program.function(f).blocks.iter().flat_map(|b| &b.instrs) {
                    if matches!(i.op, Op::Call { .. }) {
                        queue.extend(ticfg.call_targets.get(&i.id).into_iter().flatten());
                    }
                }
            }
        }
        // A spawn may start several live threads when it re-executes (its
        // block is on a CFG cycle), when its function may run more than
        // once (it is not the entry and has other than one caller or one
        // context), or when its function runs under such a thread.
        let pos_of = |s: InstrId| program.stmt_pos(s).expect("spawn sites are statements");
        let mut multi: Vec<bool> = spawn_sites
            .iter()
            .map(|&s| {
                let pos = pos_of(s);
                let callers = ticfg.callers.get(&pos.func).map_or(0, Vec::len);
                let ctxs = func_ctxs[pos.func.index()].len();
                (pos.func != program.entry && (callers != 1 || ctxs != 1))
                    || block_in_cycle(ticfg, pos.func, pos.block)
            })
            .collect();
        loop {
            let mut grew = false;
            for (i, &s) in spawn_sites.iter().enumerate() {
                let nested = func_ctxs[pos_of(s).func.index()]
                    .iter()
                    .any(|&c| c > 0 && multi[c - 1]);
                if nested && !multi[i] {
                    multi[i] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        ThreadModel {
            spawn_sites,
            func_ctxs,
            multi,
        }
    }

    /// The static spawn statements, in program order.
    pub(crate) fn spawn_sites(&self) -> &[InstrId] {
        &self.spawn_sites
    }

    /// The contexts that may run `func` (empty when none reaches it).
    pub(crate) fn ctxs(&self, func: FuncId) -> &BTreeSet<usize> {
        &self.func_ctxs[func.index()]
    }

    /// True when `ctx` is a spawned thread whose site may start several
    /// live threads.
    pub(crate) fn multi(&self, ctx: usize) -> bool {
        ctx > 0 && self.multi[ctx - 1]
    }
}

/// True if `block` sits on a CFG cycle within its function.
fn block_in_cycle(ticfg: &Ticfg, func: FuncId, block: BlockId) -> bool {
    let cfg = &ticfg.cfgs[func.index()];
    let mut seen = BTreeSet::new();
    let mut queue: VecDeque<BlockId> = cfg.succs[block.index()].iter().copied().collect();
    while let Some(b) = queue.pop_front() {
        if b == block {
            return true;
        }
        if seen.insert(b) {
            queue.extend(cfg.succs[b.index()].iter().copied());
        }
    }
    false
}

/// What a memory-access statement does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AccessOp {
    Load,
    Store,
    Free,
    Lock,
    Unlock,
    Intrinsic,
}

/// One memory-access statement of the [`AccessTable`].
pub(crate) struct Access {
    pub(crate) op: AccessOp,
    /// The cells the address may denote; for an intrinsic, every origin
    /// an argument may point into, at an unknown offset.
    pub(crate) cells: LocSet,
}

impl Access {
    /// The cells the access may clobber or invalidate: its cells, except
    /// that a free covers its whole origin.
    pub(crate) fn footprint(&self) -> LocSet {
        match self.op {
            AccessOp::Free => self.cells.iter().map(|l| Loc::anywhere(l.origin)).collect(),
            _ => self.cells.clone(),
        }
    }

    /// The one cell a store certainly writes: its only cell, when that
    /// cell's offset is known.
    pub(crate) fn strong_cell(&self) -> Option<Loc> {
        match self.cells.first() {
            Some(&only) if self.op == AccessOp::Store && self.cells.len() == 1 => {
                only.offset.map(|_| only)
            }
            _ => None,
        }
    }
}

/// Every memory-access statement's op and cells, indexed by statement id.
pub(crate) struct AccessTable {
    by_stmt: Vec<Option<Access>>,
}

impl AccessTable {
    fn build(program: &Program, pts: &PointsTo) -> AccessTable {
        let mut by_stmt: Vec<Option<Access>> = (0..program.stmt_count()).map(|_| None).collect();
        for f in &program.functions {
            for instr in f.blocks.iter().flat_map(|b| &b.instrs) {
                let origins = |addr: &Operand| pts.operand_origins(f.id, *addr);
                let (op, cells) = match &instr.op {
                    Op::Load { addr, .. } => (AccessOp::Load, origins(addr)),
                    Op::Store { addr, .. } => (AccessOp::Store, origins(addr)),
                    Op::Free { addr } => (AccessOp::Free, origins(addr)),
                    Op::MutexLock { addr } => (AccessOp::Lock, origins(addr)),
                    Op::MutexUnlock { addr } => (AccessOp::Unlock, origins(addr)),
                    Op::Intrinsic { args, .. } => (
                        AccessOp::Intrinsic,
                        args.iter()
                            .flat_map(origins)
                            .map(|l| Loc::anywhere(l.origin))
                            .collect(),
                    ),
                    _ => continue,
                };
                by_stmt[instr.id.index()] = Some(Access { op, cells });
            }
        }
        AccessTable { by_stmt }
    }

    /// The access at `s`, when `s` is a memory-access statement.
    pub(crate) fn get(&self, s: InstrId) -> Option<&Access> {
        self.by_stmt.get(s.index())?.as_ref()
    }

    /// The cells `s` touches (none for a statement that is no access).
    pub(crate) fn cells(&self, s: InstrId) -> &LocSet {
        static NONE: LocSet = LocSet::new();
        self.get(s).map_or(&NONE, |a| &a.cells)
    }

    /// Every access, in statement-id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (InstrId, &Access)> {
        self.by_stmt
            .iter()
            .enumerate()
            .filter_map(|(i, a)| Some((InstrId(i as u32), a.as_ref()?)))
    }
}

/// One static analysis that reports diagnostics.
pub trait Pass {
    /// Short name used in reports and debugging.
    fn name(&self) -> &'static str;
    /// Runs the pass, returning its findings.
    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic>;
}

/// Runs a sequence of passes over one shared context.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Creates an empty pass manager.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Appends a pass (builder style).
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Names of the registered passes, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs all passes over `program` and returns the sorted diagnostics.
    pub fn run(&self, program: &Program) -> Vec<Diagnostic> {
        let cx = AnalysisCtx::new(program);
        let mut diags = Vec::new();
        for pass in &self.passes {
            diags.extend(pass.run(&cx));
        }
        sort_diagnostics(&mut diags);
        diags
    }
}

/// The default pipeline: the IR verifier followed by the dataflow lints
/// (race, lock-order deadlock, dead store).
pub fn default_passes() -> PassManager {
    PassManager::new()
        .with_pass(crate::verify::VerifierPass)
        .with_pass(crate::race::RaceLintPass)
        .with_pass(crate::deadlock::DeadlockLintPass)
        .with_pass(crate::dataflow::DeadStoreLintPass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::builder::ProgramBuilder;

    fn tiny_program() -> Program {
        let mut pb = ProgramBuilder::new("tiny");
        let mut f = pb.function("main", &[]);
        f.ret(None);
        f.finish();
        pb.finish().unwrap()
    }

    #[test]
    fn default_pipeline_accepts_a_trivial_program() {
        let p = tiny_program();
        let pm = default_passes();
        assert_eq!(
            pm.pass_names(),
            vec!["verify", "race-lint", "deadlock-lint", "dead-store-lint"]
        );
        assert!(pm.run(&p).is_empty());
    }

    #[test]
    fn ticfg_is_built_lazily_and_cached() {
        let p = tiny_program();
        let cx = AnalysisCtx::new(&p);
        assert!(cx.ticfg.get().is_none() && cx.points_to.get().is_none());
        let ticfg: *const Ticfg = cx.ticfg();
        // Later calls, direct or through a dependent fact, reuse the graph.
        cx.points_to();
        assert!(std::ptr::eq(ticfg, cx.ticfg()));
        assert!(cx.svfg.get().is_none(), "nothing asked for the SVFG");
        // The SVFG build fills the context's def index, and later readers
        // (the slicer) get that same copy.
        assert!(cx.defs.get().is_none(), "nothing asked for the def index");
        cx.svfg();
        let defs: *const DefIndex = cx.defs.get().expect("the SVFG reads the shared index");
        assert!(std::ptr::eq(defs, cx.defs()));
    }
}
