//! The `gist-lint` detector suite: static bug detectors built on the
//! sparse value-flow graph ([`crate::svfg::Svfg`]) and the
//! may-happen-in-parallel relation ([`crate::mhp::Mhp`]).
//!
//! Four detector families, each reporting rustc-style diagnostics whose
//! `note:` lines spell out the value-flow chain behind the finding:
//!
//! * **Lifetime** ([`UafLintPass`]) — `GA020` use-after-free and `GA021`
//!   double-free. Same-thread findings come from a forward TICFG walk
//!   from each `free`, stopped at re-executions of the freed cell's
//!   allocation site (so a free-then-realloc loop is not a false
//!   positive); cross-thread findings come from race candidates with a
//!   `free` endpoint (the pbzip2 shape: the mutex freed under a thread
//!   still locking it), screened by the MHP relation so a free that is
//!   ordered after the last use (a free past the `join`, say) no longer
//!   surfaces.
//! * **Atomicity** ([`AtomicityLintPass`]) — `GA022`
//!   atomicity-violation candidates: a shared cell accessed both with
//!   and without lock protection, where a remote access can interleave
//!   between two same-thread accesses. Candidates are classified and
//!   ranked by the classic access-interleaving patterns
//!   ([`AvPattern`]: RWR, WWR, RWW, WRW); remotes that cannot overlap
//!   the local window (MHP-negative against both endpoints) are
//!   dropped.
//! * **Null flow** ([`NullFlowLintPass`]) — `GA023` Casper-style null
//!   provenance: a stored constant zero that flows along SVFG memory
//!   edges into a load whose result is then dereferenced. A branch that
//!   checks the loaded pointer against zero on every path to the
//!   dereference suppresses the finding; an interleaved (cross-thread)
//!   null store that is ordered *after* the dereference cannot reach it
//!   and is dropped.
//! * **Ordering** ([`OrderLintPass`]) — `GA024` order violations:
//!   cross-thread use-before-init (a heap load with a may-parallel
//!   initializing store and no store ordered before it) and
//!   free-before-last-use (an unordered free/use pair the race arm
//!   cannot see because a common lock hides it — locks serialize, they
//!   do not order).
//!
//! All four are silent on sequential memory-safe programs by
//! construction: the cross-thread arms need shared origins / race
//! candidates / an MHP relation with actual threads, and the
//! same-thread arms need a real free→use path or a null store that
//! actually reaches a dereference.
//!
//! When several SVFG chains reach the same (finding, statement) pair,
//! the shortest chain (resolved deterministically by source location,
//! then statement id) backs the diagnostic, and literally duplicated
//! note lines are removed while preserving note order.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use gist_ir::icfg::Ticfg;
use gist_ir::{FuncId, InstrId, Op, Operand, Program, SrcLoc};

use crate::dataflow::ConstVal;
use crate::diag::Diagnostic;
use crate::mhp::OrderFact;
use crate::pass::{AccessOp, AnalysisCtx, Pass, PassManager};
use crate::points_to::MemOrigin;
use crate::race::AccessKind;
use crate::svfg::SvfgEdgeKind;

/// The atomicity-violation interleaving patterns, in rank order (most
/// failure-prone first, per the AVIO-style classification): the letters
/// are (local access, remote access, local access).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AvPattern {
    /// read — remote write — read: the two local reads see different
    /// values of what should be one consistent snapshot.
    Rwr,
    /// write — remote write — read: the local read gets the remote value
    /// instead of its own thread's write.
    Wwr,
    /// read — remote write — write: the local write clobbers the remote
    /// one based on a stale read.
    Rww,
    /// write — remote read — write: the remote read observes an
    /// intermediate value between two local writes.
    Wrw,
}

impl AvPattern {
    /// Classifies a (local, remote, local) access triple, if it matches
    /// one of the four serializability-violating patterns. Frees count as
    /// writes.
    pub fn classify(
        first: AccessKind,
        remote: AccessKind,
        second: AccessKind,
    ) -> Option<AvPattern> {
        let w = |k: AccessKind| matches!(k, AccessKind::Write | AccessKind::Free);
        let r = |k: AccessKind| matches!(k, AccessKind::Read);
        match (first, remote, second) {
            (f, rem, s) if r(f) && w(rem) && r(s) => Some(AvPattern::Rwr),
            (f, rem, s) if w(f) && w(rem) && r(s) => Some(AvPattern::Wwr),
            (f, rem, s) if r(f) && w(rem) && w(s) => Some(AvPattern::Rww),
            (f, rem, s) if w(f) && r(rem) && w(s) => Some(AvPattern::Wrw),
            _ => None,
        }
    }

    /// The pattern's canonical label.
    pub fn label(self) -> &'static str {
        match self {
            AvPattern::Rwr => "RWR",
            AvPattern::Wwr => "WWR",
            AvPattern::Rww => "RWW",
            AvPattern::Wrw => "WRW",
        }
    }
}

/// Findings each lint pass of this module reports at most.
const LIMIT: usize = 8;

pub(crate) fn loc_of(program: &Program, s: InstrId) -> SrcLoc {
    program.stmt_loc(s).unwrap_or(SrcLoc::UNKNOWN)
}

pub(crate) fn where_of(program: &Program, s: InstrId) -> String {
    program
        .stmt_loc(s)
        .map(|l| program.source_map.display(l))
        .unwrap_or_else(|| s.to_string())
}

/// Removes literally duplicated note lines, preserving first-seen order.
/// Distinct SVFG chains that land on the same (finding, statement) pair
/// render the same note text; one copy carries all the information.
fn dedup_notes(mut d: Diagnostic) -> Diagnostic {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    d.notes.retain(|n| seen.insert(n.clone()));
    d
}

/// A free→use lifetime pair backing a `GA020`/`GA021` finding.
#[derive(Clone, Copy, Debug)]
pub struct LifetimePair {
    /// The freeing statement.
    pub free: InstrId,
    /// The later use (or second free).
    pub used: InstrId,
    /// The freed cell.
    pub origin: MemOrigin,
    /// The cell's allocation site.
    pub alloc_site: InstrId,
    /// True when the pair comes from the cross-thread (race) arm.
    pub cross_thread: bool,
}

/// Computes the lifetime pairs the `GA020`/`GA021` diagnostics report
/// (read them through [`AnalysisCtx::lifetime_pairs`]): the same-thread
/// forward-reach arm plus the cross-thread race arm, the latter screened
/// by MHP (a free ordered after the last use — past the `join`, say — is
/// not a lifetime bug).
pub(crate) fn lifetime_pairs(cx: &AnalysisCtx<'_>) -> Vec<LifetimePair> {
    let (program, accesses, mhp) = (cx.program, cx.accesses(), cx.mhp());
    let mut found: Vec<LifetimePair> = Vec::new();
    let mut seen: BTreeSet<(InstrId, InstrId)> = BTreeSet::new();

    // Same-thread arm: forward walk from each free, stopping at the
    // freed origin's allocation site (a re-executed `alloc` makes the
    // pointer valid again, so flows through it are not lifetime bugs).
    for (free_id, free) in accesses.iter().filter(|(_, a)| a.op == AccessOp::Free) {
        for l in &free.cells {
            let MemOrigin::Heap(alloc_site) = l.origin else {
                continue; // frees of non-heap memory are GA0xx verifier turf
            };
            for reached in forward_reach(cx.ticfg(), free_id, alloc_site) {
                let touches = accesses.cells(reached).iter().any(|r| r.origin == l.origin);
                if reached == free_id || !touches {
                    continue;
                }
                if seen.insert((free_id, reached)) {
                    found.push(LifetimePair {
                        free: free_id,
                        used: reached,
                        origin: l.origin,
                        alloc_site,
                        cross_thread: false,
                    });
                }
            }
        }
    }

    // Cross-thread arm: race candidates with a free endpoint. The
    // racing access has no program-order edge from the free, so the
    // forward walk cannot see it; the race detector's context and
    // lockset reasoning establishes that the two can conflict, and the
    // MHP relation screens pairs the thread structure orders anyway.
    for c in &cx.races().candidates {
        let (free_ep, other_ep) = match (c.first.kind, c.second.kind) {
            (AccessKind::Free, _) => (&c.first, &c.second),
            (_, AccessKind::Free) => (&c.second, &c.first),
            _ => continue,
        };
        let MemOrigin::Heap(alloc_site) = c.origin else {
            continue;
        };
        // Keep genuinely-unordered pairs, and pairs where the free is
        // guaranteed first (a definite use-after-free). A use that is
        // ordered before the free (e.g. the free sits after the join)
        // is a false positive the race detector cannot rule out.
        let ordered_safe = mhp.must_precede(other_ep.stmt, free_ep.stmt);
        let can_conflict = mhp.may_happen_in_parallel(free_ep.stmt, other_ep.stmt)
            || mhp.must_precede(free_ep.stmt, other_ep.stmt);
        if ordered_safe || !can_conflict {
            continue;
        }
        if seen.insert((free_ep.stmt, other_ep.stmt)) {
            found.push(LifetimePair {
                free: free_ep.stmt,
                used: other_ep.stmt,
                origin: c.origin,
                alloc_site,
                cross_thread: true,
            });
        }
    }

    found.sort_by_key(|p| (loc_of(program, p.used), p.free, p.used));
    found
}

/// `GA020` use-after-free / `GA021` double-free along value flows.
#[derive(Default)]
pub struct UafLintPass;

/// Builds the GA020/GA021 diagnostic for a free→use pair.
fn lifetime_finding(program: &Program, p: &LifetimePair) -> Diagnostic {
    let is_double_free = program
        .instr(p.used)
        .map(|i| matches!(i.op, Op::Free { .. }))
        .unwrap_or(false);
    let cell = p.origin.display(program);
    let how = if p.cross_thread {
        "may race with"
    } else {
        "is reached by"
    };
    let d = if is_double_free {
        Diagnostic::warning(
            "GA021",
            format!(
                "double free of {cell}: the free at {} {how} another free",
                where_of(program, p.free)
            ),
        )
    } else {
        Diagnostic::warning(
            "GA020",
            format!(
                "use after free of {cell}: freed at {}, {} the use",
                where_of(program, p.free),
                if p.cross_thread {
                    "which may race with"
                } else {
                    "on a path to"
                },
            ),
        )
    };
    d.at(loc_of(program, p.used))
        .with_note(format!("allocated at {}", where_of(program, p.alloc_site)))
        .with_note(format!("freed at {}", where_of(program, p.free)))
        .with_note(format!(
            "{} at {}",
            if is_double_free {
                "freed again"
            } else {
                "used"
            },
            where_of(program, p.used)
        ))
}

/// Statements forward-reachable from `from` in the TICFG without passing
/// through `stop` (the allocation site whose re-execution revalidates the
/// freed pointer).
fn forward_reach(ticfg: &Ticfg, from: InstrId, stop: InstrId) -> Vec<InstrId> {
    let mut seen: BTreeSet<InstrId> = BTreeSet::new();
    let mut q: VecDeque<InstrId> = VecDeque::from([from]);
    while let Some(s) = q.pop_front() {
        for &(n, _) in ticfg.succs(s) {
            if n == stop {
                continue;
            }
            if seen.insert(n) {
                q.push_back(n);
            }
        }
    }
    seen.into_iter().collect()
}

impl Pass for UafLintPass {
    fn name(&self) -> &'static str {
        "uaf-lint"
    }

    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic> {
        cx.lifetime_pairs()
            .iter()
            .take(LIMIT)
            .map(|p| dedup_notes(lifetime_finding(cx.program, p)))
            .collect()
    }
}

/// One ranked atomicity-violation candidate backing a `GA022` finding.
#[derive(Clone, Copy, Debug)]
pub struct AvCandidate {
    /// The interleaving pattern, in rank order.
    pub pattern: AvPattern,
    /// The inconsistently-locked cell.
    pub origin: MemOrigin,
    /// First local access.
    pub first: InstrId,
    /// The remote access that can interleave.
    pub remote: InstrId,
    /// Second local access.
    pub second: InstrId,
}

/// Computes the best atomicity-violation candidate per inconsistently
/// locked origin. Remote accesses the MHP relation orders entirely
/// before or after the local window cannot interleave and are skipped.
pub fn atomicity_candidates(cx: &AnalysisCtx<'_>) -> Vec<AvCandidate> {
    let (program, stmt_ls, accesses) = (cx.program, cx.locksets(), cx.accesses());
    let (feas, mhp) = (&cx.svfg().feasibility, cx.mhp());

    // Per-origin locking consistency: some access protected, some not.
    let mut locked: BTreeSet<MemOrigin> = BTreeSet::new();
    let mut unlocked: BTreeSet<MemOrigin> = BTreeSet::new();
    let mut data_accesses: Vec<(InstrId, FuncId, AccessKind, BTreeSet<MemOrigin>)> = Vec::new();
    for (stmt, access) in accesses.iter() {
        let kind = match access.op {
            AccessOp::Load => AccessKind::Read,
            AccessOp::Store => AccessKind::Write,
            AccessOp::Free => AccessKind::Free,
            _ => continue,
        };
        let origins: BTreeSet<MemOrigin> = access.cells.iter().map(|l| l.origin).collect();
        if origins.is_empty() {
            continue;
        }
        let has_lock = matches!(stmt_ls.get(stmt.index()), Some(Some(ls)) if !ls.is_empty());
        for &o in &origins {
            if has_lock {
                locked.insert(o);
            } else {
                unlocked.insert(o);
            }
        }
        let func = program.stmt_func(stmt).expect("accesses are statements");
        data_accesses.push((stmt, func, kind, origins));
    }
    let inconsistent: BTreeSet<MemOrigin> = locked.intersection(&unlocked).copied().collect();

    // A race candidate supplies the (local, remote) skeleton: the two
    // sides can interleave. Complete it with a second local access on
    // the same origin reachable from (or reaching) the local side.
    let mut best: HashMap<MemOrigin, (AvPattern, InstrId, InstrId, InstrId)> = HashMap::new();
    for c in &cx.races().candidates {
        if !inconsistent.contains(&c.origin) {
            continue;
        }
        for (local, remote) in [(&c.first, &c.second), (&c.second, &c.first)] {
            let Some(lfunc) = program.stmt_func(local.stmt) else {
                continue;
            };
            for (partner, pfunc, pkind, porigins) in &data_accesses {
                if *partner == local.stmt || *pfunc != lfunc {
                    continue;
                }
                if !porigins.contains(&c.origin) {
                    continue;
                }
                // Order the local pair by intra-procedural flow.
                let triples = [
                    (local.stmt, local.kind, *partner, *pkind),
                    (*partner, *pkind, local.stmt, local.kind),
                ];
                for (s1, k1, s2, k2) in triples {
                    if !feas.intra_path_feasible(program, s1, s2) || s1 == s2 {
                        continue;
                    }
                    // MHP screen: the remote must be able to land
                    // inside the (s1, s2) window — a remote ordered
                    // before s1 or after s2 by thread structure cannot.
                    if !mhp.may_happen_in_parallel(remote.stmt, s1)
                        && !mhp.may_happen_in_parallel(remote.stmt, s2)
                    {
                        continue;
                    }
                    let Some(pattern) = AvPattern::classify(k1, remote.kind, k2) else {
                        continue;
                    };
                    let cand = (pattern, s1, remote.stmt, s2);
                    match best.get(&c.origin) {
                        Some(prev) if *prev <= cand => {}
                        _ => {
                            best.insert(c.origin, cand);
                        }
                    }
                }
            }
        }
    }
    let mut out: Vec<AvCandidate> = best
        .into_iter()
        .map(|(origin, (pattern, first, remote, second))| AvCandidate {
            pattern,
            origin,
            first,
            remote,
            second,
        })
        .collect();
    out.sort_by_key(|c| (c.pattern, loc_of(program, c.first), c.first, c.remote));
    out
}

/// `GA022` atomicity-violation candidates on inconsistently-locked
/// shared cells, ranked by interleaving pattern.
#[derive(Default)]
pub struct AtomicityLintPass;

impl Pass for AtomicityLintPass {
    fn name(&self) -> &'static str {
        "atomicity-lint"
    }

    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic> {
        let program = cx.program;
        atomicity_candidates(cx)
            .into_iter()
            .take(LIMIT)
            .map(|c| {
                let cell = c.origin.display(program);
                let d = Diagnostic::warning(
                    "GA022",
                    format!(
                        "atomicity violation ({}) on {cell}: a remote access can interleave \
                         between two same-thread accesses",
                        c.pattern.label()
                    ),
                )
                .at(loc_of(program, c.first))
                .with_note(format!(
                    "local {} at {}",
                    kind_at(program, c.first),
                    where_of(program, c.first)
                ))
                .with_note(format!(
                    "remote {} at {} can interleave here",
                    kind_at(program, c.remote),
                    where_of(program, c.remote)
                ))
                .with_note(format!(
                    "local {} at {}",
                    kind_at(program, c.second),
                    where_of(program, c.second)
                ))
                .with_note("cell is lock-protected on some accesses but not all".to_owned());
                dedup_notes(d)
            })
            .collect()
    }
}

pub(crate) fn kind_at(program: &Program, s: InstrId) -> &'static str {
    match program.instr(s).map(|i| &i.op) {
        Some(Op::Load { .. }) => "read",
        Some(Op::Store { .. }) => "write",
        Some(Op::Free { .. }) => "free",
        Some(Op::MutexLock { .. }) | Some(Op::MutexUnlock { .. }) => "sync",
        _ => "access",
    }
}

/// One null-store→load→dereference chain backing a `GA023` finding.
#[derive(Clone, Copy, Debug)]
pub struct NullFlow {
    /// The store of constant zero.
    pub store: InstrId,
    /// The load the zero flows into.
    pub load: InstrId,
    /// The dereference of the loaded value.
    pub deref: InstrId,
    /// True when the store reaches the load across threads.
    pub interleaved: bool,
}

/// Computes null-flow chains. When several loads connect the same
/// (store, dereference) pair, the chain through the earliest-located
/// load is kept (the shortest chain, resolved deterministically by
/// source location then statement id). Cross-thread stores that the
/// thread structure orders after the dereference cannot reach it and
/// are dropped.
pub fn null_flows(cx: &AnalysisCtx<'_>) -> Vec<NullFlow> {
    let (program, svfg, consts, mhp) = (cx.program, cx.svfg(), cx.consts(), cx.mhp());
    // (store, deref) -> best (loc, load, interleaved)
    let mut best: BTreeMap<(InstrId, InstrId), (SrcLoc, InstrId, bool)> = BTreeMap::new();

    for f in &program.functions {
        for b in &f.blocks {
            for instr in &b.instrs {
                // A dereference through a register address.
                let addr = match &instr.op {
                    Op::Load { addr, .. }
                    | Op::Store { addr, .. }
                    | Op::Free { addr }
                    | Op::MutexLock { addr }
                    | Op::MutexUnlock { addr } => *addr,
                    _ => continue,
                };
                let Operand::Var(v) = addr else { continue };
                let deref = instr.id;
                if !svfg.feasibility.stmt_live(program, deref) {
                    continue;
                }
                // The pointer's reaching loads.
                for e in svfg.edges_in(deref) {
                    if e.kind != SvfgEdgeKind::Direct {
                        continue;
                    }
                    let load = e.def;
                    let Some(Op::Load { dst, .. }) = program.instr(load).map(|i| &i.op) else {
                        continue;
                    };
                    if *dst != v {
                        continue;
                    }
                    // Null stores flowing into that load's cell.
                    for we in svfg.edges_in(load) {
                        if !matches!(we.kind, SvfgEdgeKind::Memory | SvfgEdgeKind::Interleaved) {
                            continue;
                        }
                        let w = we.def;
                        let Some(Op::Store { value, .. }) = program.instr(w).map(|i| &i.op) else {
                            continue;
                        };
                        let wfunc = program.stmt_func(w).expect("indexed");
                        if consts.operand_const(wfunc, *value) != ConstVal::Const(0) {
                            continue;
                        }
                        let interleaved = we.kind == SvfgEdgeKind::Interleaved;
                        // A cross-thread store ordered after the load
                        // can never be the value the load observes.
                        if interleaved && mhp.must_precede(load, w) {
                            continue;
                        }
                        // Suppressed when a null check guards every
                        // path from the load to the dereference.
                        if !svfg
                            .feasibility
                            .reachable_with_null(program, load, deref, v)
                        {
                            continue;
                        }
                        let key = (w, deref);
                        let cand = (loc_of(program, load), load, interleaved);
                        match best.get(&key) {
                            Some(prev) if *prev <= cand => {}
                            _ => {
                                best.insert(key, cand);
                            }
                        }
                    }
                }
            }
        }
    }
    let mut out: Vec<NullFlow> = best
        .into_iter()
        .map(|((store, deref), (_, load, interleaved))| NullFlow {
            store,
            load,
            deref,
            interleaved,
        })
        .collect();
    out.sort_by_key(|n| (loc_of(program, n.deref), n.store, n.deref));
    out
}

/// `GA023` null-value flow into a dereference (Casper-style provenance).
#[derive(Default)]
pub struct NullFlowLintPass;

impl Pass for NullFlowLintPass {
    fn name(&self) -> &'static str {
        "null-flow-lint"
    }

    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic> {
        let program = cx.program;
        null_flows(cx)
            .into_iter()
            .take(LIMIT)
            .map(|n| {
                let d = Diagnostic::warning(
                    "GA023",
                    format!(
                        "possible null dereference: the value stored at {} may be \
                         zero when dereferenced",
                        where_of(program, n.store)
                    ),
                )
                .at(loc_of(program, n.deref))
                .with_note(format!("null (0) stored at {}", where_of(program, n.store)))
                .with_note(format!("loaded at {}", where_of(program, n.load)))
                .with_note(format!(
                    "dereferenced without a null check at {}",
                    where_of(program, n.deref)
                ));
                dedup_notes(d)
            })
            .collect()
    }
}

/// What a `GA024` order violation looks like.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OrderViolationKind {
    /// A load may run before any store initializes the heap cell.
    UseBeforeInit,
    /// A free and a use with no happens-before edge between them.
    FreeBeforeUse,
}

/// One cross-thread order violation backing a `GA024` finding.
#[derive(Clone, Copy, Debug)]
pub struct OrderViolation {
    /// The violation shape.
    pub kind: OrderViolationKind,
    /// The statement that should run first (the init store / the use).
    pub expected_first: InstrId,
    /// The statement that may overtake it (the use / the free).
    pub racing: InstrId,
    /// The cell the pair touches.
    pub origin: MemOrigin,
    /// True when a common lock serializes (but does not order) the pair.
    pub lock_excluded: bool,
}

/// Computes cross-thread order violations: heap loads no initializing
/// store is ordered before, and unordered free/use pairs that the race
/// arm misses because a common lock hides them. Pairs the lifetime
/// detector already reports are skipped.
pub fn order_violations(cx: &AnalysisCtx<'_>) -> Vec<OrderViolation> {
    let (program, mhp) = (cx.program, cx.mhp());
    if !mhp.has_threads() {
        return Vec::new();
    }
    let (accesses, shared, svfg) = (cx.accesses(), cx.shared_origins(), cx.svfg());

    // All live data accesses on shared origins.
    let mut reads: Vec<(InstrId, MemOrigin)> = Vec::new();
    let mut writes: Vec<(InstrId, MemOrigin)> = Vec::new();
    let mut frees: Vec<(InstrId, MemOrigin)> = Vec::new();
    let mut uses: Vec<(InstrId, MemOrigin)> = Vec::new();
    for (stmt, access) in accesses.iter() {
        if !svfg.feasibility.stmt_live(program, stmt) {
            continue;
        }
        // A free counts once per origin, whatever offsets it may name.
        let origins = access.footprint().into_iter().map(|l| l.origin);
        for o in origins.filter(|o| shared.contains(o)) {
            match access.op {
                AccessOp::Load => {
                    reads.push((stmt, o));
                    uses.push((stmt, o));
                }
                AccessOp::Store => {
                    writes.push((stmt, o));
                    uses.push((stmt, o));
                }
                AccessOp::Lock | AccessOp::Unlock => uses.push((stmt, o)),
                AccessOp::Free => frees.push((stmt, o)),
                AccessOp::Intrinsic => {}
            }
        }
    }

    let reported: BTreeSet<(InstrId, InstrId)> = cx
        .lifetime_pairs()
        .iter()
        .flat_map(|p| [(p.free, p.used), (p.used, p.free)])
        .collect();

    let mut out: Vec<OrderViolation> = Vec::new();
    let mut seen: BTreeSet<(InstrId, InstrId)> = BTreeSet::new();

    // Use-before-init: a heap load with a may-parallel store and no
    // store ordered before it. Globals are initialized at startup, so
    // only heap cells (initialized by explicit stores) qualify.
    for &(load, o) in &reads {
        if !matches!(o, MemOrigin::Heap(_)) {
            continue;
        }
        let stores_o: Vec<InstrId> = writes
            .iter()
            .filter(|&&(_, wo)| wo == o)
            .map(|&(w, _)| w)
            .collect();
        if stores_o.is_empty() {
            continue;
        }
        if stores_o.iter().any(|&s| mhp.must_precede(s, load)) {
            continue; // some initialization is ordered before the use
        }
        let Some(&racing_init) = stores_o
            .iter()
            .find(|&&s| mhp.may_happen_in_parallel(load, s))
        else {
            continue;
        };
        if seen.insert((racing_init, load)) {
            out.push(OrderViolation {
                kind: OrderViolationKind::UseBeforeInit,
                expected_first: racing_init,
                racing: load,
                origin: o,
                lock_excluded: mhp.common_lock(racing_init, load),
            });
        }
    }

    // Free-before-last-use: an unordered free/use pair. The lifetime
    // detector's race arm already covers lock-free pairs; this arm
    // catches the ones a common lock hides (locks serialize, they do
    // not order).
    for &(free, o) in &frees {
        for &(used, uo) in &uses {
            if uo != o || used == free {
                continue;
            }
            if reported.contains(&(free, used)) {
                continue;
            }
            let fact = mhp.order_fact(free, used);
            if !matches!(fact, OrderFact::Parallel | OrderFact::Excluded) {
                continue;
            }
            if seen.insert((used, free)) {
                out.push(OrderViolation {
                    kind: OrderViolationKind::FreeBeforeUse,
                    expected_first: used,
                    racing: free,
                    origin: o,
                    lock_excluded: fact == OrderFact::Excluded,
                });
            }
        }
    }

    out.sort_by_key(|v| {
        (
            loc_of(program, v.racing),
            loc_of(program, v.expected_first),
            v.racing,
        )
    });
    out
}

/// `GA024` cross-thread order violations (use-before-init and
/// free-before-last-use with no happens-before edge).
#[derive(Default)]
pub struct OrderLintPass;

impl Pass for OrderLintPass {
    fn name(&self) -> &'static str {
        "order-lint"
    }

    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic> {
        let program = cx.program;
        order_violations(cx)
            .into_iter()
            .take(LIMIT)
            .map(|v| {
                let cell = v.origin.display(program);
                let d = match v.kind {
                    OrderViolationKind::UseBeforeInit => Diagnostic::warning(
                        "GA024",
                        format!(
                            "order violation on {cell}: the read at {} may run before \
                             the initializing store",
                            where_of(program, v.racing)
                        ),
                    )
                    .at(loc_of(program, v.racing))
                    .with_note(format!(
                        "initialized at {}",
                        where_of(program, v.expected_first)
                    ))
                    .with_note(format!("read at {}", where_of(program, v.racing)))
                    .with_note("no happens-before edge orders the pair".to_owned()),
                    OrderViolationKind::FreeBeforeUse => Diagnostic::warning(
                        "GA024",
                        format!(
                            "order violation on {cell}: the free at {} may run before \
                             the last use",
                            where_of(program, v.racing)
                        ),
                    )
                    .at(loc_of(program, v.racing))
                    .with_note(format!("used at {}", where_of(program, v.expected_first)))
                    .with_note(format!("freed at {}", where_of(program, v.racing)))
                    .with_note("no happens-before edge orders the pair".to_owned()),
                };
                let d = if v.lock_excluded {
                    d.with_note(
                        "a common lock serializes the pair but does not order it".to_owned(),
                    )
                } else {
                    d
                };
                dedup_notes(d)
            })
            .collect()
    }
}

/// The `gist-lint` pipeline: the IR verifier (malformed programs fail
/// fast) followed by the four SVFG/MHP-based detectors.
pub fn lint_passes() -> PassManager {
    PassManager::new()
        .with_pass(crate::verify::VerifierPass)
        .with_pass(UafLintPass)
        .with_pass(AtomicityLintPass)
        .with_pass(NullFlowLintPass)
        .with_pass(OrderLintPass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;

    fn lint(text: &str) -> Vec<Diagnostic> {
        let p = parse_program("t", text).unwrap();
        lint_passes().run(&p)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn sequential_store_load_is_clean() {
        let diags = lint(
            r#"
global g = 0
fn main() {
entry:
  store $g, 7
  v = load $g
  assert v, "boom"
  ret
}
"#,
        );
        assert!(diags.is_empty(), "clean sequential program: {diags:?}");
    }

    #[test]
    fn same_thread_use_after_free_found() {
        let diags = lint(
            r#"
fn main() {
entry:
  p = alloc 1
  store p, 7
  free p
  v = load p
  print v
  ret
}
"#,
        );
        assert!(codes(&diags).contains(&"GA020"), "{diags:?}");
        let uaf = diags.iter().find(|d| d.code == "GA020").unwrap();
        assert_eq!(uaf.notes.len(), 3, "alloc/free/use chain: {:?}", uaf.notes);
    }

    #[test]
    fn same_thread_double_free_found() {
        let diags = lint(
            r#"
fn main() {
entry:
  p = alloc 1
  free p
  free p
  ret
}
"#,
        );
        assert!(codes(&diags).contains(&"GA021"), "{diags:?}");
    }

    #[test]
    fn free_then_realloc_in_loop_is_clean() {
        // The freed pointer is re-allocated before reuse: the allocation
        // site on the path revalidates it.
        let diags = lint(
            r#"
global n = 0
fn main() {
entry:
  br head
head:
  p = alloc 1
  store p, 7
  free p
  c = load $n
  condbr c, head, done
done:
  ret
}
"#,
        );
        assert!(
            !codes(&diags).contains(&"GA020") && !codes(&diags).contains(&"GA021"),
            "realloc on the back edge revalidates the pointer: {diags:?}"
        );
    }

    #[test]
    fn cross_thread_racing_free_found() {
        let diags = lint(
            r#"
fn cons(q) {
entry:
  m = load q
  lock m
  unlock m
  ret
}
fn main() {
entry:
  q = alloc 1
  mu = alloc 1
  store q, mu
  t = spawn cons(q)
  free mu
  store q, 0
  join t
  ret
}
"#,
        );
        assert!(
            codes(&diags).contains(&"GA020"),
            "racing free of the mutex is a cross-thread UAF: {diags:?}"
        );
    }

    #[test]
    fn free_after_join_is_not_a_cross_thread_uaf() {
        // Identical shape, but the free happens after the join: the
        // thread structure orders every worker access before the free,
        // so the MHP screen suppresses the race-arm candidate.
        let diags = lint(
            r#"
fn cons(q) {
entry:
  m = load q
  lock m
  unlock m
  ret
}
fn main() {
entry:
  q = alloc 1
  mu = alloc 1
  store q, mu
  t = spawn cons(q)
  join t
  free mu
  store q, 0
  ret
}
"#,
        );
        assert!(
            !codes(&diags).contains(&"GA020") && !codes(&diags).contains(&"GA024"),
            "the join orders the free after the last use: {diags:?}"
        );
    }

    #[test]
    fn inconsistently_locked_shared_counter_is_an_atomicity_candidate() {
        let diags = lint(
            r#"
global counter = 0
global lk = 0
fn worker(arg) {
entry:
  lock $lk
  v = load $counter
  w = add v, 1
  store $counter, w
  unlock $lk
  ret
}
fn main() {
entry:
  t = spawn worker(0)
  a = load $counter
  b = add a, 1
  store $counter, b
  join t
  ret
}
"#,
        );
        let av: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "GA022").collect();
        assert!(!av.is_empty(), "unlocked RMW on a locked cell: {diags:?}");
        assert!(
            av[0].message.contains("RWR")
                || av[0].message.contains("WWR")
                || av[0].message.contains("RWW")
                || av[0].message.contains("WRW"),
            "pattern named in the message: {}",
            av[0].message
        );
    }

    #[test]
    fn consistently_locked_counter_is_clean() {
        let diags = lint(
            r#"
global counter = 0
global lk = 0
fn worker(arg) {
entry:
  lock $lk
  v = load $counter
  w = add v, 1
  store $counter, w
  unlock $lk
  ret
}
fn main() {
entry:
  t = spawn worker(0)
  lock $lk
  a = load $counter
  b = add a, 1
  store $counter, b
  unlock $lk
  join t
  ret
}
"#,
        );
        assert!(
            !codes(&diags).contains(&"GA022"),
            "consistent locking: {diags:?}"
        );
    }

    #[test]
    fn null_flow_into_dereference_found_and_guard_suppresses() {
        let found = lint(
            r#"
global slot = 0
fn main() {
entry:
  store $slot, 0
  m = load $slot
  lock m
  ret
}
"#,
        );
        assert!(codes(&found).contains(&"GA023"), "{found:?}");
        let guarded = lint(
            r#"
global slot = 0
fn main() {
entry:
  store $slot, 0
  m = load $slot
  z = cmp eq m, 0
  condbr z, skip, use
use:
  lock m
  br skip
skip:
  ret
}
"#,
        );
        assert!(
            !codes(&guarded).contains(&"GA023"),
            "null check guards the lock: {guarded:?}"
        );
    }

    #[test]
    fn unordered_heap_init_is_an_order_violation() {
        // The initializing store races the worker's read: no
        // happens-before edge guarantees the cell is set first.
        let diags = lint(
            r#"
fn worker(q) {
entry:
  v = load q
  print v
  ret
}
fn main() {
entry:
  q = alloc 1
  t = spawn worker(q)
  store q, 7
  join t
  ret
}
"#,
        );
        assert!(
            codes(&diags).contains(&"GA024"),
            "use may precede init: {diags:?}"
        );
        let d = diags.iter().find(|d| d.code == "GA024").unwrap();
        assert!(
            d.message.contains("before"),
            "names the ordering problem: {}",
            d.message
        );
    }

    #[test]
    fn ordered_heap_init_is_clean() {
        // Same program, but the store dominates the spawn: ordered.
        let diags = lint(
            r#"
fn worker(q) {
entry:
  v = load q
  print v
  ret
}
fn main() {
entry:
  q = alloc 1
  store q, 7
  t = spawn worker(q)
  join t
  ret
}
"#,
        );
        assert!(
            !codes(&diags).contains(&"GA024"),
            "pre-spawn init is ordered: {diags:?}"
        );
    }

    #[test]
    fn lock_hidden_unordered_free_is_an_order_violation() {
        // Both sides hold the same lock, so the lockset race arm is
        // silent — but the lock only serializes the pair; nothing
        // orders the free after the worker's use.
        let diags = lint(
            r#"
global cell = 0
global lk = 0
fn worker(arg) {
entry:
  lock $lk
  p = load $cell
  v = load p
  unlock $lk
  ret
}
fn main() {
entry:
  b = alloc 1
  store b, 5
  store $cell, b
  t = spawn worker(0)
  lock $lk
  free b
  unlock $lk
  join t
  ret
}
"#,
        );
        let order: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "GA024").collect();
        assert!(
            !order.is_empty(),
            "lock-excluded free/use pair is unordered: {diags:?}"
        );
        assert!(
            order
                .iter()
                .any(|d| d.notes.iter().any(|n| n.contains("common lock"))),
            "the lock-exclusion note is present: {order:?}"
        );
    }

    #[test]
    fn notes_are_deduplicated() {
        let d = Diagnostic::warning("GA020", "x")
            .with_note("a".to_owned())
            .with_note("b".to_owned())
            .with_note("a".to_owned());
        let d = dedup_notes(d);
        assert_eq!(d.notes, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn av_pattern_classification() {
        use AccessKind::*;
        assert_eq!(AvPattern::classify(Read, Write, Read), Some(AvPattern::Rwr));
        assert_eq!(
            AvPattern::classify(Write, Write, Read),
            Some(AvPattern::Wwr)
        );
        assert_eq!(
            AvPattern::classify(Read, Write, Write),
            Some(AvPattern::Rww)
        );
        assert_eq!(
            AvPattern::classify(Write, Read, Write),
            Some(AvPattern::Wrw)
        );
        assert_eq!(AvPattern::classify(Read, Read, Read), None);
        assert_eq!(AvPattern::classify(Free, Write, Read), Some(AvPattern::Wwr));
    }

    #[test]
    fn lint_pipeline_names() {
        assert_eq!(
            lint_passes().pass_names(),
            vec![
                "verify",
                "uaf-lint",
                "atomicity-lint",
                "null-flow-lint",
                "order-lint"
            ]
        );
    }
}
