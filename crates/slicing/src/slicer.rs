//! The backward slicer (Algorithm 1) and the [`Slice`] it produces.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use gist_analysis::points_to::{Loc, LocSet};
use gist_analysis::svfg::{Svfg, SvfgEdgeKind};
use gist_analysis::AnalysisCtx;
use gist_ir::icfg::Icfg;
use gist_ir::{InstrId, Op, Operand, Program, Terminator};

use crate::cdep::ControlDeps;
use crate::items::{stmt_uses, DefUse, SliceItem};

/// How the slicer resolves heap data dependences.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AliasMode {
    /// Consult the points-to analysis: a memory access pulls in the
    /// feasible stores/frees on may-aliasing cells (the default).
    PointsTo,
    /// No alias analysis at all: only syntactic global links (the PR-1
    /// behaviour, kept for the `--dataflow` ablation).
    None,
    /// Every pointer write may alias every pointer read (the blow-up the
    /// paper's §3.1 warns about, kept for the alias ablation).
    Crude,
}

/// A static backward slice: the statements that may affect the failing
/// statement, ordered by backward distance from it.
#[derive(Clone, Debug)]
pub struct Slice {
    /// The slicing criterion (the failing statement).
    pub criterion: InstrId,
    /// Slice statements sorted by distance from the criterion (the
    /// criterion itself first). AsT's σ-prefix tracks `ordered[..σ]`.
    pub ordered: Vec<InstrId>,
    members: HashSet<InstrId>,
}

impl Slice {
    /// Builds a slice from an unordered member set plus a distance metric.
    fn new(criterion: InstrId, members: HashSet<InstrId>, dist: &HashMap<InstrId, u64>) -> Slice {
        let mut ordered: Vec<InstrId> = members.iter().copied().collect();
        ordered.sort_by_key(|s| (dist.get(s).copied().unwrap_or(u64::MAX), s.0));
        Slice {
            criterion,
            ordered,
            members,
        }
    }

    /// Number of statements in the slice (IR unit of Table 1).
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// True if the slice is empty (cannot happen for a valid criterion).
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, id: InstrId) -> bool {
        self.members.contains(&id)
    }

    /// The first `sigma` statements backward from the failure — the portion
    /// AsT tracks in one iteration (§3.2.1).
    pub fn prefix(&self, sigma: usize) -> &[InstrId] {
        &self.ordered[..sigma.min(self.ordered.len())]
    }

    /// Distinct source lines covered (source-LOC unit of Table 1).
    pub fn source_loc_count(&self, program: &Program) -> usize {
        program.source_loc_count(self.ordered.iter())
    }

    /// Slice statements in program order (for display).
    pub fn in_program_order(&self) -> Vec<InstrId> {
        let mut v = self.ordered.clone();
        v.sort_unstable();
        v
    }
}

/// The static slicer. Holds the program's whole-program facts in one
/// [`AnalysisCtx`] so multiple slices can be computed cheaply (Gist's
/// server reuses them across failures, and reads its race, MHP and
/// constant facts from the same context).
///
/// Construction builds the TICFG, points-to, def/use and control deps.
/// The remaining facts are built on first use: the thread-shared origins
/// at the first alias-aware [`StaticSlicer::compute`], and the SVFG at the
/// first [`StaticSlicer::compute_with_svfg`].
pub struct StaticSlicer<'p> {
    program: &'p Program,
    facts: AnalysisCtx<'p>,
    defuse: DefUse,
    cdeps: ControlDeps,
    /// Abstract cells written by each store/free, for alias-aware data
    /// dependences. Frees are widened to their whole origin.
    write_locs: BTreeMap<InstrId, LocSet>,
}

impl<'p> StaticSlicer<'p> {
    /// Builds the slicer's analyses (TICFG, def/use, control deps,
    /// points-to).
    pub fn new(program: &'p Program) -> StaticSlicer<'p> {
        let facts = AnalysisCtx::new(program);
        let pts = facts.points_to();
        let mut write_locs: BTreeMap<InstrId, LocSet> = BTreeMap::new();
        for f in &program.functions {
            for b in &f.blocks {
                for instr in &b.instrs {
                    let locs = match &instr.op {
                        Op::Store { addr, .. } => pts.operand_origins(f.id, *addr),
                        Op::Free { addr } => pts
                            .operand_origins(f.id, *addr)
                            .into_iter()
                            .map(|l| Loc::anywhere(l.origin))
                            .collect(),
                        _ => continue,
                    };
                    if !locs.is_empty() {
                        write_locs.insert(instr.id, locs);
                    }
                }
            }
        }
        StaticSlicer {
            program,
            facts,
            defuse: DefUse::build(program),
            cdeps: ControlDeps::build(program),
            write_locs,
        }
    }

    /// The program's whole-program facts (shared with the Gist server,
    /// the planner and the sketch engine).
    pub fn facts(&self) -> &AnalysisCtx<'p> {
        &self.facts
    }

    /// The sparse value-flow graph: def-use chains with 1-CFA call/return
    /// binding and path-feasibility pruning, which
    /// [`StaticSlicer::compute_with_svfg`] walks instead of the
    /// flow-insensitive item worklist.
    pub fn svfg(&self) -> &Svfg {
        self.facts.svfg()
    }

    /// The abstract cells a slice statement may read (or, for a store,
    /// overwrite): the alias-aware counterpart of `stmt_uses`.
    fn access_locs(&self, id: InstrId) -> LocSet {
        let Some(func) = self.program.stmt_func(id) else {
            return LocSet::new();
        };
        let Some(instr) = self.program.instr(id) else {
            return LocSet::new();
        };
        let pts = self.facts.points_to();
        match &instr.op {
            Op::Intrinsic { args, .. } => {
                let mut locs = LocSet::new();
                for a in args {
                    for l in pts.operand_origins(func, *a) {
                        locs.insert(Loc::anywhere(l.origin));
                    }
                }
                locs
            }
            op => op
                .access_addr()
                .map(|addr| pts.operand_origins(func, addr))
                .unwrap_or_default(),
        }
    }

    /// The TICFG (shared with the instrumentation planner).
    pub fn ticfg(&self) -> &Icfg {
        self.facts.ticfg()
    }

    /// Computes the backward-feasible statement set and distances.
    ///
    /// Feasibility is backward reachability in the TICFG *plus* the
    /// concurrent extension: any statement forward-reachable from a spawn
    /// that is itself backward-reachable may interleave with the failing
    /// thread (this is what puts `main`'s `f->mut = NULL` into the pbzip2
    /// slice even though no TICFG path leads from it to the crash in
    /// `cons`). The TICFG "represents an overapproximation of all the
    /// possible dynamic control flow behaviors" (§3.1).
    fn feasible(&self, criterion: InstrId) -> HashMap<InstrId, u64> {
        let ticfg = self.ticfg();
        let mut dist: HashMap<InstrId, u64> = HashMap::new();
        // Backward BFS.
        let mut q = VecDeque::new();
        dist.insert(criterion, 0);
        q.push_back(criterion);
        while let Some(s) = q.pop_front() {
            let d = dist[&s];
            for &(p, _) in ticfg.preds(s) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(p) {
                    e.insert(d + 1);
                    q.push_back(p);
                }
            }
        }
        // Concurrent extension: forward BFS from backward-reachable spawns.
        let spawns: Vec<(InstrId, u64)> = dist
            .iter()
            .filter(|(s, _)| {
                self.program
                    .instr(**s)
                    .map(|i| matches!(i.op, Op::ThreadCreate { .. }))
                    .unwrap_or(false)
            })
            .map(|(s, d)| (*s, *d))
            .collect();
        for (spawn, d0) in spawns {
            let mut fq = VecDeque::new();
            fq.push_back((spawn, d0));
            while let Some((s, d)) = fq.pop_front() {
                for &(n, _) in ticfg.succs(s) {
                    let nd = d + 1;
                    let better = dist.get(&n).map(|&old| nd < old).unwrap_or(true);
                    if better {
                        dist.insert(n, nd);
                        fq.push_back((n, nd));
                    }
                }
            }
        }
        dist
    }

    /// Computes the backward slice for a failing statement (Algorithm 1),
    /// with alias-aware data dependences: a memory access in the slice
    /// pulls in every feasible store/free on a may-aliasing cell, so heap
    /// writes through a *different pointer name* (the pbzip2 `store q, 0`
    /// / `free mu` shape) enter the slice natively instead of waiting for
    /// runtime watchpoints or race-detector seeding.
    pub fn compute(&self, criterion: InstrId) -> Slice {
        self.compute_inner(criterion, AliasMode::PointsTo)
    }

    /// Ablation: the alias-free slice (only syntactic global links). This
    /// was the default before the points-to integration; `repro dataflow`
    /// compares it against [`StaticSlicer::compute`].
    pub fn compute_without_alias(&self, criterion: InstrId) -> Slice {
        self.compute_inner(criterion, AliasMode::None)
    }

    /// Ablation: the slice a *crude may-alias analysis* would produce.
    ///
    /// The paper chose not to use static alias analysis because "in
    /// practice, it can be over 50% inaccurate, which would increase the
    /// static slice size that Gist would have to monitor at runtime"
    /// (§3.1). This variant models that choice's alternative: every
    /// pointer-based memory write in the feasible region may alias every
    /// pointer-based read that enters the slice, so all of them join the
    /// slice. Comparing `compute_with_crude_alias(c).len()` against
    /// `compute(c).len()` quantifies the monitoring blow-up a precision-
    /// free alias analysis would cost (bench: `repro ablations`).
    pub fn compute_with_crude_alias(&self, criterion: InstrId) -> Slice {
        self.compute_inner(criterion, AliasMode::Crude)
    }

    /// Computes the backward slice over the sparse value-flow graph.
    ///
    /// Instead of the flow-insensitive item worklist, this walks SVFG
    /// edges backward from the criterion with 1-CFA context binding
    /// (return edges record the call site; parameter edges only ascend to
    /// a matching one) plus the control-dependence closure. Every pull is
    /// a filtered version of what [`StaticSlicer::compute`] would pull —
    /// reaching-def filtering, path-feasibility pruning, and context
    /// matching only *remove* statements — so the SVFG slice is a subset
    /// of the legacy slice for the same criterion, and the distances are
    /// value-flow hops rather than raw TICFG steps (the re-ranking signal
    /// the instrumentation planner consumes).
    pub fn compute_with_svfg(&self, criterion: InstrId) -> Slice {
        let svfg = self.svfg();
        let feasible = self.feasible(criterion);
        let mut dist: HashMap<InstrId, u64> = HashMap::new();
        let mut members: HashSet<InstrId> = HashSet::new();
        let mut seen: HashSet<(InstrId, Option<InstrId>)> = HashSet::new();
        let mut q: VecDeque<(InstrId, Option<InstrId>, u64)> = VecDeque::new();
        seen.insert((criterion, None));
        q.push_back((criterion, None, 0));
        while let Some((s, ctx, d)) = q.pop_front() {
            members.insert(s);
            let e = dist.entry(s).or_insert(d);
            if *e > d {
                *e = d;
            }
            for edge in svfg.edges_in(s) {
                let (next_ctx, ok) = match edge.kind {
                    // Descending into a callee: remember the call site.
                    SvfgEdgeKind::Ret(c) => (Some(c), true),
                    // Ascending to a caller: only through the call site we
                    // came in by (or any, if the walk started here).
                    SvfgEdgeKind::Param(c) => (None, ctx.is_none() || ctx == Some(c)),
                    _ => (ctx, true),
                };
                if !ok || !feasible.contains_key(&edge.def) {
                    continue;
                }
                if seen.insert((edge.def, next_ctx)) {
                    q.push_back((edge.def, next_ctx, d + 1));
                }
            }
            for br in self.cdeps.controlling_branches(self.program, s) {
                if feasible.contains_key(&br) && seen.insert((br, ctx)) {
                    q.push_back((br, ctx, d + 1));
                }
            }
        }
        Slice::new(criterion, members, &dist)
    }

    /// The control context of `stmts`: each statement's controlling
    /// branches plus the register defs feeding the branch conditions (via
    /// direct SVFG edges), restricted to members of `slice`.
    ///
    /// The sketch engine backfills these so a concise early-σ sketch still
    /// shows the branch that steered execution into the failure (the
    /// `if (!rc)` of the Apache sketch) even when adaptive tracking stops
    /// before σ grows past it.
    pub fn control_context(
        &self,
        stmts: impl IntoIterator<Item = InstrId>,
        slice: &Slice,
    ) -> std::collections::BTreeSet<InstrId> {
        let mut out = std::collections::BTreeSet::new();
        for s in stmts {
            for br in self.cdeps.controlling_branches(self.program, s) {
                if !slice.contains(br) {
                    continue;
                }
                out.insert(br);
                for edge in self.svfg().edges_in(br) {
                    if edge.kind == SvfgEdgeKind::Direct && slice.contains(edge.def) {
                        out.insert(edge.def);
                    }
                }
            }
        }
        out
    }

    fn compute_inner(&self, criterion: InstrId, alias: AliasMode) -> Slice {
        let feasible = self.feasible(criterion);
        let crude_alias = alias == AliasMode::Crude;
        // Crude alias mode: collect every pointer-based memory write once.
        let aliasing_writes: Vec<InstrId> = if crude_alias {
            self.program
                .all_stmt_ids()
                .filter(|&id| {
                    self.program
                        .instr(id)
                        .map(|i| {
                            i.op.is_memory_write()
                                && matches!(i.op.access_addr(), Some(Operand::Var(_)))
                        })
                        .unwrap_or(false)
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut alias_seeded = false;
        let mut slice: HashSet<InstrId> = HashSet::new();
        let mut item_q: VecDeque<SliceItem> = VecDeque::new();
        let mut seen_items: HashSet<SliceItem> = HashSet::new();
        let mut stmt_q: VecDeque<InstrId> = VecDeque::new();

        stmt_q.push_back(criterion);

        let push_item =
            |item: SliceItem, seen: &mut HashSet<SliceItem>, q: &mut VecDeque<SliceItem>| {
                if seen.insert(item) {
                    q.push_back(item);
                }
            };

        while !stmt_q.is_empty() || !item_q.is_empty() {
            // Drain newly added statements first: collect their items and
            // control dependences.
            while let Some(s) = stmt_q.pop_front() {
                if !slice.insert(s) {
                    continue;
                }
                for u in stmt_uses(self.program, s) {
                    push_item(u, &mut seen_items, &mut item_q);
                }
                // Alias-aware data dependences: a memory access in the
                // slice pulls in every feasible store/free on a
                // may-aliasing *thread-shared* cell. This is what puts
                // pbzip2's `store q, 0` and `free mu` — writes through
                // *different pointer names* than the criterion's read —
                // into the static slice without race-detector seeding.
                // Cells confined to one thread are skipped: their flows
                // are already on def-use chains, and pulling them would
                // inflate sequential slices (the §3.1 blow-up).
                if alias == AliasMode::PointsTo {
                    let shared = self.facts.shared_origins();
                    let locs: LocSet = self
                        .access_locs(s)
                        .into_iter()
                        .filter(|l| shared.contains(&l.origin))
                        .collect();
                    if !locs.is_empty() {
                        for (&w, wlocs) in &self.write_locs {
                            if w != s
                                && feasible.contains_key(&w)
                                && !slice.contains(&w)
                                && wlocs.iter().any(|wl| locs.iter().any(|rl| wl.overlaps(rl)))
                            {
                                stmt_q.push_back(w);
                            }
                        }
                    }
                }
                // Crude alias: the first pointer-based read in the slice
                // pulls in every pointer-based write that may reach it.
                if crude_alias && !alias_seeded {
                    let is_ptr_read = self
                        .program
                        .instr(s)
                        .map(|i| {
                            i.op.is_memory_access()
                                && matches!(i.op.access_addr(), Some(Operand::Var(_)))
                        })
                        .unwrap_or(false);
                    if is_ptr_read {
                        alias_seeded = true;
                        for &w in &aliasing_writes {
                            if feasible.contains_key(&w) && !slice.contains(&w) {
                                stmt_q.push_back(w);
                            }
                        }
                    }
                }
                // getRetValues: a call whose result is consumed pulls in the
                // callees' return statements and returned items.
                if let Some(instr) = self.program.instr(s) {
                    if let Op::Call { dst: Some(_), .. } = &instr.op {
                        if let Some(targets) = self.ticfg().call_targets.get(&s) {
                            for &callee in targets {
                                for b in &self.program.function(callee).blocks {
                                    if let Terminator::Ret {
                                        id, value: Some(v), ..
                                    } = &b.term
                                    {
                                        if feasible.contains_key(id) {
                                            stmt_q.push_back(*id);
                                        }
                                        if let Operand::Var(rv) = v {
                                            push_item(
                                                SliceItem::Reg(callee, *rv),
                                                &mut seen_items,
                                                &mut item_q,
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                // Control dependences: the branches deciding s.
                for br in self.cdeps.controlling_branches(self.program, s) {
                    if feasible.contains_key(&br) && !slice.contains(&br) {
                        stmt_q.push_back(br);
                    }
                }
            }
            // Process one item.
            if let Some(item) = item_q.pop_front() {
                match item {
                    SliceItem::Reg(f, v) => {
                        // Defining statements of the register.
                        if let Some(defs) = self.defuse.reg_defs.get(&(f, v)) {
                            for &d in defs {
                                if feasible.contains_key(&d) && !slice.contains(&d) {
                                    stmt_q.push_back(d);
                                }
                            }
                        }
                        // getArgValues: parameters flow from callsites.
                        let func = self.program.function(f);
                        if (v.0 as usize) < func.params.len() {
                            let arg_idx = v.0 as usize;
                            if let Some(callers) = self.ticfg().callers.get(&f) {
                                for &cs in callers {
                                    if !feasible.contains_key(&cs) {
                                        continue;
                                    }
                                    if !slice.contains(&cs) {
                                        stmt_q.push_back(cs);
                                    }
                                    // The actual argument operand.
                                    if let Some(instr) = self.program.instr(cs) {
                                        let arg = match &instr.op {
                                            Op::Call { args, .. } => args.get(arg_idx).copied(),
                                            Op::ThreadCreate { arg, .. } if arg_idx == 0 => {
                                                Some(*arg)
                                            }
                                            _ => None,
                                        };
                                        if let Some(a) = arg {
                                            let caller =
                                                self.program.stmt_func(cs).expect("indexed");
                                            match a {
                                                Operand::Var(av) => push_item(
                                                    SliceItem::Reg(caller, av),
                                                    &mut seen_items,
                                                    &mut item_q,
                                                ),
                                                Operand::Global(g) => push_item(
                                                    SliceItem::Global(g),
                                                    &mut seen_items,
                                                    &mut item_q,
                                                ),
                                                Operand::Const(_) => {}
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    SliceItem::Global(g) => {
                        if let Some(writes) = self.defuse.global_writes.get(&g) {
                            for &w in writes {
                                if feasible.contains_key(&w) && !slice.contains(&w) {
                                    stmt_q.push_back(w);
                                }
                            }
                        }
                    }
                }
            }
        }
        Slice::new(criterion, slice, &feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;

    fn slice_for(text: &str, func: &str, block: usize, idx: usize) -> (Program, Slice) {
        let p = parse_program("t", text).unwrap();
        let f = p.function_by_name(func).unwrap();
        let crit = if idx == usize::MAX {
            f.blocks[block].term.id()
        } else {
            f.blocks[block].instrs[idx].id
        };
        let slicer = StaticSlicer::new(&p);
        let s = slicer.compute(crit);
        (p, s)
    }

    #[test]
    fn straightline_dataflow_chain() {
        let (p, s) = slice_for(
            r#"
fn main() {
entry:
  a = const 1
  b = const 2
  c = add a, b
  d = mul c, 2
  unused = const 99
  assert d, "boom"
  ret
}
"#,
            "main",
            0,
            5,
        );
        let main = &p.functions[0];
        let names_in_slice: Vec<&str> = main.blocks[0]
            .instrs
            .iter()
            .filter(|i| s.contains(i.id))
            .filter_map(|i| i.op.def().map(|v| main.var_name(v)))
            .collect();
        assert!(names_in_slice.contains(&"a"));
        assert!(names_in_slice.contains(&"b"));
        assert!(names_in_slice.contains(&"c"));
        assert!(names_in_slice.contains(&"d"));
        assert!(
            !names_in_slice.contains(&"unused"),
            "irrelevant statement excluded: {names_in_slice:?}"
        );
        // Criterion is first in backward order.
        assert_eq!(s.ordered[0], s.criterion);
    }

    #[test]
    fn interprocedural_through_return_value() {
        let (p, s) = slice_for(
            r#"
fn mk(x) {
entry:
  y = add x, 1
  ret y
}
fn main() {
entry:
  a = const 41
  r = call mk(a)
  assert r, "boom"
  ret
}
"#,
            "main",
            0,
            2,
        );
        let mk = p.function_by_name("mk").unwrap();
        let add_stmt = mk.blocks[0].instrs[0].id;
        let ret_stmt = mk.blocks[0].term.id();
        assert!(s.contains(add_stmt), "callee computation in slice");
        assert!(s.contains(ret_stmt), "callee return in slice");
        let main = p.function_by_name("main").unwrap();
        assert!(s.contains(main.blocks[0].instrs[0].id), "argument source");
        assert!(s.contains(main.blocks[0].instrs[1].id), "the call itself");
    }

    #[test]
    fn interprocedural_through_arguments() {
        // The criterion is inside the callee; the actual argument at the
        // callsite must be in the slice (getArgValues).
        let (p, s) = slice_for(
            r#"
fn check(v) {
entry:
  assert v, "boom"
  ret
}
fn main() {
entry:
  a = const 0
  call check(a)
  ret
}
"#,
            "check",
            0,
            0,
        );
        let main = p.function_by_name("main").unwrap();
        assert!(s.contains(main.blocks[0].instrs[0].id), "a = const 0");
        assert!(s.contains(main.blocks[0].instrs[1].id), "callsite");
    }

    #[test]
    fn globals_link_stores_to_loads() {
        let (p, s) = slice_for(
            r#"
global g = 0
global other = 0
fn main() {
entry:
  store $g, 7
  store $other, 8
  v = load $g
  assert v, "boom"
  ret
}
"#,
            "main",
            0,
            3,
        );
        let main = &p.functions[0];
        assert!(s.contains(main.blocks[0].instrs[0].id), "store $g");
        assert!(
            !s.contains(main.blocks[0].instrs[1].id),
            "store to unrelated global excluded"
        );
    }

    #[test]
    fn control_dependences_pull_in_branches() {
        let (p, s) = slice_for(
            r#"
global g = 0
fn main() {
entry:
  c = load $g
  z = cmp eq c, 0
  condbr z, danger, safe
danger:
  x = load 0
  br safe
safe:
  ret
}
"#,
            "main",
            1,
            0,
        );
        let main = &p.functions[0];
        let branch = main.blocks[0].term.id();
        let cmp = main.blocks[0].instrs[1].id;
        let load_g = main.blocks[0].instrs[0].id;
        assert!(s.contains(branch), "controlling branch in slice");
        assert!(s.contains(cmp), "branch condition in slice");
        assert!(s.contains(load_g), "condition's data source in slice");
    }

    #[test]
    fn pbzip2_shape_cross_thread_statements_included() {
        // Criterion: the lock in cons. The slice must include main's
        // free/store-NULL even though they are in a sibling thread region.
        let text = r#"
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
"#;
        let (p, s) = slice_for(text, "cons", 0, 1);
        let main = p.function_by_name("main").unwrap();
        let free_stmt = main.blocks[0].instrs[4].id;
        let store_null = main.blocks[0].instrs[5].id;
        let spawn_stmt = main.blocks[0].instrs[3].id;
        let alloc_q = main.blocks[0].instrs[0].id;
        assert!(s.contains(spawn_stmt), "spawn in slice (arg source)");
        assert!(s.contains(alloc_q), "q's allocation in slice");
        let cons = p.function_by_name("cons").unwrap();
        assert!(s.contains(cons.blocks[0].instrs[0].id), "m = load q");
        // The root-cause stores write through *pointer registers* under
        // different names than cons's read of `q` and lock of `m`. The
        // points-to analysis proves both pairs may alias, so the
        // alias-aware slicer includes them statically.
        assert!(s.contains(store_null), "aliasing store found statically");
        assert!(s.contains(free_stmt), "aliasing free found statically");
    }

    #[test]
    fn pbzip2_shape_without_alias_misses_the_racing_writes() {
        // The alias-free ablation reproduces the PR-1 slice: the writes
        // through pointer names are invisible to syntactic data flow and
        // only runtime watchpoints / race seeding would recover them.
        let text = r#"
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
"#;
        let p = parse_program("t", text).unwrap();
        let cons = p.function_by_name("cons").unwrap();
        let crit = cons.blocks[0].instrs[1].id;
        let slicer = StaticSlicer::new(&p);
        let s = slicer.compute_without_alias(crit);
        let main = p.function_by_name("main").unwrap();
        let free_stmt = main.blocks[0].instrs[4].id;
        let store_null = main.blocks[0].instrs[5].id;
        assert!(!s.contains(store_null), "alias-free slice misses the store");
        assert!(!s.contains(free_stmt), "alias-free slice misses the free");
        // The alias-aware slice is a superset of the alias-free one.
        let aware = slicer.compute(crit);
        for id in &s.ordered {
            assert!(aware.contains(*id), "alias-aware slice is a superset");
        }
    }

    #[test]
    fn aliased_heap_write_two_names_one_cell() {
        // Two pointer registers name the same heap cell across threads;
        // the write goes through one name in `main`, the read through the
        // other in the spawned thread. The points-to analysis must connect
        // them — no race detector involved.
        let text = r#"
fn reader(q) {
entry:
  v = load q
  assert v, "boom"
  ret
}
fn main() {
entry:
  p = alloc 4
  t = spawn reader(p)
  r = gep p, 0
  store r, 7
  join t
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let reader = p.function_by_name("reader").unwrap();
        let crit = reader.blocks[0].instrs[1].id;
        let slicer = StaticSlicer::new(&p);
        let s = slicer.compute(crit);
        let main = p.function_by_name("main").unwrap();
        let store_r = main.blocks[0].instrs[3].id;
        assert!(
            s.contains(store_r),
            "write through the aliased name is in the slice"
        );
        assert!(
            !slicer.compute_without_alias(crit).contains(store_r),
            "the alias-free ablation misses it"
        );
    }

    #[test]
    fn distinct_heap_cells_do_not_alias_into_the_slice() {
        // Precision check: a store to a *different* allocation must not be
        // pulled in by the alias-aware pass, even across threads.
        let text = r#"
fn reader(q) {
entry:
  v = load q
  assert v, "boom"
  ret
}
fn main() {
entry:
  p = alloc 4
  other = alloc 4
  t = spawn reader(p)
  store other, 9
  join t
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let reader = p.function_by_name("reader").unwrap();
        let crit = reader.blocks[0].instrs[1].id;
        let slicer = StaticSlicer::new(&p);
        let s = slicer.compute(crit);
        let main = p.function_by_name("main").unwrap();
        let store_other = main.blocks[0].instrs[3].id;
        assert!(
            !s.contains(store_other),
            "write to a distinct allocation stays out of the slice"
        );
    }

    #[test]
    fn thread_confined_aliased_writes_left_to_watchpoints() {
        // In a sequential program the same two-names-one-cell shape is
        // *not* pulled statically: the cell never escapes its thread, so
        // the flow is left to runtime watchpoint discovery (the paper's
        // §3.1 rationale for skipping whole-program alias analysis — a
        // sequential slice must not balloon).
        let text = r#"
fn main() {
entry:
  p = alloc 4
  r = gep p, 0
  store r, 7
  v = load p
  assert v, "boom"
  ret
}
"#;
        let (p, s) = slice_for(text, "main", 0, 4);
        let main = &p.functions[0];
        let store_r = main.blocks[0].instrs[2].id;
        assert!(
            !s.contains(store_r),
            "thread-confined aliased write stays out of the static slice"
        );
    }

    #[test]
    fn sigma_prefix_is_distance_ordered() {
        let (_, s) = slice_for(
            r#"
fn main() {
entry:
  a = const 1
  b = add a, 1
  c = add b, 1
  assert c, "boom"
  ret
}
"#,
            "main",
            0,
            3,
        );
        assert_eq!(s.prefix(1), &[s.criterion]);
        assert_eq!(s.prefix(2).len(), 2);
        assert!(s.prefix(100).len() <= s.len());
        // Distances weakly increase along `ordered`.
        assert_eq!(s.ordered[0], s.criterion);
    }

    #[test]
    fn unreachable_code_is_not_in_slice() {
        let (p, s) = slice_for(
            r#"
global g = 0
fn never() {
entry:
  store $g, 1
  ret
}
fn main() {
entry:
  v = load $g
  assert v, "boom"
  ret
}
"#,
            "main",
            0,
            1,
        );
        // `never` is never called: its store is not backward-feasible.
        let never = p.function_by_name("never").unwrap();
        assert!(
            !s.contains(never.blocks[0].instrs[0].id),
            "store in uncalled function excluded by flow-sensitivity"
        );
    }

    #[test]
    fn no_alias_analysis_pointer_stores_missed() {
        // Under the alias-free ablation a cross-thread store through a
        // pointer that aliases the loaded global is *not* found statically
        // (the PR-1 behaviour: runtime watchpoints add it later). The
        // alias-aware default finds it.
        let text = r#"
global cell = 0
fn reader(unused) {
entry:
  v = load $cell
  assert v, "boom"
  ret
}
fn main() {
entry:
  t = spawn reader(0)
  p = gep $cell, 0
  store p, 5
  join t
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let reader = p.function_by_name("reader").unwrap();
        let crit = reader.blocks[0].instrs[1].id;
        let main = p.function_by_name("main").unwrap();
        let store_p = main.blocks[0].instrs[2].id;
        let slicer = StaticSlicer::new(&p);
        let without = slicer.compute_without_alias(crit);
        assert!(
            !without.contains(store_p),
            "alias-free slice misses the store through the pointer"
        );
        let with = slicer.compute(crit);
        assert!(
            with.contains(store_p),
            "alias-aware slice resolves the pointer to $cell"
        );
    }

    #[test]
    fn svfg_slice_is_subset_and_keeps_pbzip2_root_cause() {
        let text = r#"
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
"#;
        let p = parse_program("t", text).unwrap();
        let cons = p.function_by_name("cons").unwrap();
        let crit = cons.blocks[0].instrs[1].id;
        let slicer = StaticSlicer::new(&p);
        let svfg = slicer.compute_with_svfg(crit);
        let legacy = slicer.compute(crit);
        for id in &svfg.ordered {
            assert!(legacy.contains(*id), "SVFG slice ⊆ legacy slice");
        }
        let main = p.function_by_name("main").unwrap();
        assert!(
            svfg.contains(main.blocks[0].instrs[4].id),
            "racing free survives the sparse slice"
        );
        assert!(
            svfg.contains(main.blocks[0].instrs[5].id),
            "racing store-null survives the sparse slice"
        );
        assert_eq!(svfg.ordered[0], svfg.criterion);
    }

    #[test]
    fn svfg_slice_prunes_constprop_dead_stores() {
        // The legacy slicer pulls both stores of $g; the SVFG slice drops
        // the one behind `if (1)`'s dead arm.
        let text = r#"
global g = 0
fn main() {
entry:
  c = const 1
  condbr c, yes, no
no:
  store $g, 7
  br done
yes:
  store $g, 9
  br done
done:
  v = load $g
  assert v, "boom"
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let main = &p.functions[0];
        // Block ids follow first-reference order: entry, yes, no, done.
        let store_live = main.blocks[1].instrs[0].id;
        let store_dead = main.blocks[2].instrs[0].id;
        let load = main.blocks[3].instrs[0].id;
        let slicer = StaticSlicer::new(&p);
        let legacy = slicer.compute(load);
        let sparse = slicer.compute_with_svfg(load);
        assert!(legacy.contains(store_dead), "legacy over-approximates");
        assert!(!sparse.contains(store_dead), "SVFG slice prunes it");
        assert!(sparse.contains(store_live));
        assert!(sparse.len() < legacy.len());
    }

    #[test]
    fn svfg_slice_context_sensitivity_drops_unrelated_call_chain() {
        // Two calls to the same identity function; the criterion consumes
        // r1, so b (the other call's argument) must stay out.
        let text = r#"
fn id(x) {
entry:
  ret x
}
fn main() {
entry:
  a = const 1
  b = const 2
  r1 = call id(a)
  r2 = call id(b)
  assert r1, "boom"
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let main = p.function_by_name("main").unwrap();
        let a_def = main.blocks[0].instrs[0].id;
        let b_def = main.blocks[0].instrs[1].id;
        let crit = main.blocks[0].instrs[4].id;
        let slicer = StaticSlicer::new(&p);
        let sparse = slicer.compute_with_svfg(crit);
        assert!(sparse.contains(a_def), "r1's argument source in slice");
        assert!(
            !sparse.contains(b_def),
            "the other call site's argument stays out (1-CFA)"
        );
        // The legacy slicer, being context-insensitive, keeps both.
        assert!(slicer.compute(crit).contains(b_def));
    }

    #[test]
    fn slice_len_counts_match_membership() {
        let (_, s) = slice_for(
            "fn main() {\nentry:\n  a = const 1\n  assert a, \"x\"\n  ret\n}\n",
            "main",
            0,
            1,
        );
        assert_eq!(s.len(), s.ordered.len());
        for id in &s.ordered {
            assert!(s.contains(*id));
        }
    }
}
