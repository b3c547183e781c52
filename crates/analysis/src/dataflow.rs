//! A generic monotone dataflow framework over the TICFG.
//!
//! Gist's server-side pipeline needs several classic dataflow facts —
//! which definitions reach the failure, which registers and cells are
//! still live, which operands are compile-time constants — and each
//! downstream consumer (the slicer, the watchpoint planner, the sketch
//! builder) wants a different one. Rather than hand-rolling a fixpoint
//! per client, this module provides one worklist solver ([`solve`])
//! parameterised by a [`DataflowAnalysis`]: a direction, a join, and a
//! per-statement transfer function. Interprocedural propagation falls out
//! of solving over the TICFG directly: `Call`/`Return` and
//! `ThreadCreate`/`ThreadJoin` edges carry facts across function and
//! thread boundaries, which is exactly the summary behaviour Algorithm 1
//! assumes when it slices across `pthread_create`.
//!
//! Three flagship analyses ship on the framework (the fourth, the
//! lock-order deadlock detector, lives in [`crate::deadlock`]):
//!
//! * [`Liveness`] — backward register liveness,
//! * [`ReachingDefs`] — forward reaching definitions covering both
//!   register defs and memory writes (with strong kills for stores whose
//!   points-to target is a single concrete cell), and
//! * [`MemLiveness`] — backward liveness of abstract memory cells, whose
//!   complement ([`dead_stores`]) tells the watchpoint planner which
//!   stores can never be observed again and therefore never deserve one
//!   of the four debug registers.
//!
//! [`ConstProp`] is the sparse variant: MiniC registers are in SSA form
//! (the verifier's GA003 enforces def-dominates-use), so constantness is
//! a property of the register, not the program point, and a worklist over
//! defs converges without per-point fact maps.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use gist_ir::icfg::Ticfg;
use gist_ir::{BinKind, FuncId, InstrId, Op, Operand, Program, Terminator, Value, VarId};

use crate::diag::Diagnostic;
use crate::pass::{AnalysisCtx, Pass};
use crate::points_to::{Loc, LocSet, PointsTo};

/// Which way facts flow through the TICFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors.
    Forward,
    /// Facts flow from successors to predecessors.
    Backward,
}

/// A monotone dataflow problem: a fact lattice, a direction, a join, and
/// a per-statement transfer function. The framework handles worklist
/// scheduling and interprocedural edges.
pub trait DataflowAnalysis {
    /// The lattice element attached to each program point.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The least element, used to initialise non-boundary points.
    fn bottom(&self) -> Self::Fact;

    /// The fact at boundary nodes (program entry for forward problems,
    /// thread exits for backward ones). Defaults to [`Self::bottom`].
    fn boundary(&self) -> Self::Fact {
        self.bottom()
    }

    /// Joins `from` into `into`, returning true if `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Applies one statement's transfer function in place. `id` may name
    /// an instruction or a terminator.
    fn transfer(&self, program: &Program, id: InstrId, fact: &mut Self::Fact);
}

/// The fixpoint of a dataflow problem: one fact before and one after each
/// statement, in *program* order regardless of analysis direction.
pub struct Solution<F> {
    before: HashMap<InstrId, F>,
    after: HashMap<InstrId, F>,
    bottom: F,
}

impl<F> Solution<F> {
    /// The fact holding just before `id` executes.
    pub fn before(&self, id: InstrId) -> &F {
        self.before.get(&id).unwrap_or(&self.bottom)
    }

    /// The fact holding just after `id` executes.
    pub fn after(&self, id: InstrId) -> &F {
        self.after.get(&id).unwrap_or(&self.bottom)
    }
}

/// Runs the worklist solver for `analysis` over the whole TICFG.
pub fn solve<A: DataflowAnalysis>(
    program: &Program,
    ticfg: &Ticfg,
    analysis: &A,
) -> Solution<A::Fact> {
    let forward = analysis.direction() == Direction::Forward;
    let nodes: Vec<InstrId> = program.all_stmt_ids().collect();
    // The program entry's first statement is always a boundary node in
    // forward problems, even if a back edge points at it.
    let entry_stmt = program
        .functions
        .get(program.entry.index())
        .and_then(|f| f.blocks.first())
        .map(|b| b.stmt_ids().next().expect("block has a terminator"));

    let mut before: HashMap<InstrId, A::Fact> = HashMap::new();
    let mut after: HashMap<InstrId, A::Fact> = HashMap::new();
    let mut work: VecDeque<InstrId> = if forward {
        nodes.iter().copied().collect()
    } else {
        nodes.iter().rev().copied().collect()
    };
    let mut queued: BTreeSet<InstrId> = nodes.iter().copied().collect();

    while let Some(n) = work.pop_front() {
        queued.remove(&n);
        // Input fact: join over flow-predecessors' outputs, plus the
        // boundary fact at boundary nodes.
        let flow_preds = if forward {
            ticfg.preds(n)
        } else {
            ticfg.succs(n)
        };
        let is_boundary = if forward {
            flow_preds.is_empty() || Some(n) == entry_stmt
        } else {
            flow_preds.is_empty()
        };
        let mut input = if is_boundary {
            analysis.boundary()
        } else {
            analysis.bottom()
        };
        for &(p, _) in flow_preds {
            let out = if forward {
                after.get(&p)
            } else {
                before.get(&p)
            };
            if let Some(out) = out {
                analysis.join(&mut input, out);
            }
        }
        let mut output = input.clone();
        analysis.transfer(program, n, &mut output);
        let (in_map, out_map) = if forward {
            (&mut before, &mut after)
        } else {
            (&mut after, &mut before)
        };
        in_map.insert(n, input);
        let changed = out_map.get(&n) != Some(&output);
        if changed {
            out_map.insert(n, output);
            let flow_succs = if forward {
                ticfg.succs(n)
            } else {
                ticfg.preds(n)
            };
            for &(s, _) in flow_succs {
                if queued.insert(s) {
                    work.push_back(s);
                }
            }
        }
    }
    Solution {
        before,
        after,
        bottom: analysis.bottom(),
    }
}

/// A set of registers, qualified by owning function so interprocedural
/// propagation cannot confuse same-numbered registers of different
/// functions.
pub type VarSet = BTreeSet<(FuncId, VarId)>;

/// Backward register liveness over the TICFG.
pub struct Liveness;

impl DataflowAnalysis for Liveness {
    type Fact = VarSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> VarSet {
        VarSet::new()
    }

    fn join(&self, into: &mut VarSet, from: &VarSet) -> bool {
        let n = into.len();
        into.extend(from.iter().copied());
        into.len() != n
    }

    fn transfer(&self, program: &Program, id: InstrId, fact: &mut VarSet) {
        let Some(func) = program.stmt_func(id) else {
            return;
        };
        if let Some(instr) = program.instr(id) {
            if let Some(d) = instr.op.def() {
                fact.remove(&(func, d));
            }
            for u in instr.op.uses() {
                if let Some(v) = u.as_var() {
                    fact.insert((func, v));
                }
            }
        } else if let Some(term) = program.terminator(id) {
            for u in term.uses() {
                if let Some(v) = u.as_var() {
                    fact.insert((func, v));
                }
            }
        }
    }
}

/// Solves register liveness; `before(use_site)` contains every register
/// that may still be read on some path from there.
pub fn live_variables(program: &Program, ticfg: &Ticfg) -> Solution<VarSet> {
    solve(program, ticfg, &Liveness)
}

/// Forward reaching definitions: which defining statements (register defs
/// and memory writes) may have produced the values visible at a point.
///
/// Register defs are never killed — MiniC is SSA, so a register's one def
/// reaches every use it dominates. Stores are killed strongly when a later
/// store certainly overwrites the same single concrete cell.
pub struct ReachingDefs {
    /// Store statements whose points-to target is one concrete cell.
    strong: BTreeMap<InstrId, Loc>,
}

impl ReachingDefs {
    /// Precomputes the strong-update map from the points-to result.
    pub fn new(program: &Program, pts: &PointsTo) -> Self {
        let mut strong = BTreeMap::new();
        for f in &program.functions {
            for b in &f.blocks {
                for instr in &b.instrs {
                    if let Op::Store { addr, .. } = &instr.op {
                        let targets = pts.operand_origins(f.id, *addr);
                        if targets.len() == 1 {
                            let only = *targets.iter().next().expect("len checked");
                            if only.offset.is_some() {
                                strong.insert(instr.id, only);
                            }
                        }
                    }
                }
            }
        }
        ReachingDefs { strong }
    }

    /// True if `id` is a definition this analysis tracks.
    fn is_def(op: &Op) -> bool {
        op.def().is_some() || matches!(op, Op::Store { .. } | Op::Free { .. })
    }
}

impl DataflowAnalysis for ReachingDefs {
    type Fact = BTreeSet<InstrId>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> BTreeSet<InstrId> {
        BTreeSet::new()
    }

    fn join(&self, into: &mut BTreeSet<InstrId>, from: &BTreeSet<InstrId>) -> bool {
        let n = into.len();
        into.extend(from.iter().copied());
        into.len() != n
    }

    fn transfer(&self, program: &Program, id: InstrId, fact: &mut BTreeSet<InstrId>) {
        let Some(instr) = program.instr(id) else {
            return;
        };
        if let Some(cell) = self.strong.get(&id) {
            // This store certainly hits `cell`: earlier stores that could
            // only have written that same cell are overwritten for sure.
            fact.retain(|d| *d == id || self.strong.get(d) != Some(cell));
        }
        if Self::is_def(&instr.op) {
            fact.insert(id);
        }
    }
}

/// Solves reaching definitions; `before(failing)` is the def set the
/// sketch builder prunes against.
pub fn reaching_definitions(
    program: &Program,
    ticfg: &Ticfg,
    pts: &PointsTo,
) -> Solution<BTreeSet<InstrId>> {
    solve(program, ticfg, &ReachingDefs::new(program, pts))
}

/// Backward liveness of abstract memory cells: a cell is live at a point
/// if some path from there may still read it (a `load`, a `free`, a
/// `lock`/`unlock`, or an intrinsic walking the allocation).
pub struct MemLiveness<'a> {
    pts: &'a PointsTo,
}

impl<'a> MemLiveness<'a> {
    /// Builds the problem over a points-to result.
    pub fn new(pts: &'a PointsTo) -> Self {
        MemLiveness { pts }
    }
}

impl DataflowAnalysis for MemLiveness<'_> {
    type Fact = LocSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> LocSet {
        LocSet::new()
    }

    fn join(&self, into: &mut LocSet, from: &LocSet) -> bool {
        let n = into.len();
        into.extend(from.iter().copied());
        into.len() != n
    }

    fn transfer(&self, program: &Program, id: InstrId, fact: &mut LocSet) {
        let Some(func) = program.stmt_func(id) else {
            return;
        };
        let Some(instr) = program.instr(id) else {
            return;
        };
        match &instr.op {
            Op::Load { addr, .. }
            | Op::Free { addr }
            | Op::MutexLock { addr }
            | Op::MutexUnlock { addr } => {
                fact.extend(self.pts.operand_origins(func, *addr));
            }
            Op::Intrinsic { args, .. } => {
                // strlen/memcpy/memset walk whole allocations; keep every
                // cell they may touch live.
                for a in args {
                    for loc in self.pts.operand_origins(func, *a) {
                        fact.insert(Loc::anywhere(loc.origin));
                    }
                }
            }
            Op::Store { addr, .. } => {
                let targets = self.pts.operand_origins(func, *addr);
                if targets.len() == 1 {
                    let only = *targets.iter().next().expect("len checked");
                    if only.offset.is_some() {
                        fact.remove(&only);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Stores whose written cell can never be observed again: no later load,
/// free, lock, or intrinsic on any TICFG path may touch any cell the
/// store may write. Watchpoints on these are wasted debug registers.
pub fn dead_stores(cx: &AnalysisCtx<'_>) -> BTreeSet<InstrId> {
    let (program, pts) = (cx.program, cx.points_to());
    let live = solve(program, cx.ticfg(), &MemLiveness::new(pts));
    let mut dead = BTreeSet::new();
    for f in &program.functions {
        for b in &f.blocks {
            for instr in &b.instrs {
                let Op::Store { addr, .. } = &instr.op else {
                    continue;
                };
                let targets = pts.operand_origins(f.id, *addr);
                if targets.is_empty() {
                    continue; // unknown address: keep it watchable
                }
                let live_after = live.after(instr.id);
                if targets
                    .iter()
                    .all(|t| !live_after.iter().any(|l| l.overlaps(t)))
                {
                    dead.insert(instr.id);
                }
            }
        }
    }
    dead
}

/// A constant lattice value: unknown (no def evaluated yet), one constant,
/// or provably varying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConstVal {
    /// No evaluated definition yet (the lattice bottom).
    Unknown,
    /// Always this value.
    Const(Value),
    /// More than one value (the lattice top).
    Varies,
}

impl ConstVal {
    fn merge(self, other: ConstVal) -> ConstVal {
        match (self, other) {
            (ConstVal::Unknown, x) | (x, ConstVal::Unknown) => x,
            (ConstVal::Const(a), ConstVal::Const(b)) if a == b => ConstVal::Const(a),
            _ => ConstVal::Varies,
        }
    }
}

/// Sparse interprocedural constant propagation.
///
/// Registers are SSA, so each has one def and constantness is flow
/// independent; parameters join over call sites and call results join over
/// callee returns. Loads and inputs are `Varies` — runtime memory is the
/// dynamic trace's job, this analysis only fills in what must hold on
/// *every* run.
#[derive(Debug, Default)]
pub struct ConstProp {
    vals: BTreeMap<(FuncId, VarId), ConstVal>,
    rets: BTreeMap<FuncId, ConstVal>,
}

impl ConstProp {
    /// Runs the propagation to fixpoint.
    pub fn compute(program: &Program, ticfg: &Ticfg) -> ConstProp {
        let mut cp = ConstProp::default();
        // The workload chooses entry inputs; entry params (if any) vary.
        for &p in &program.function(program.entry).params {
            cp.merge_var(program.entry, p, ConstVal::Varies);
        }
        loop {
            let mut changed = false;
            for f in &program.functions {
                for b in &f.blocks {
                    for instr in &b.instrs {
                        changed |= cp.transfer(program, ticfg, f.id, instr.id, &instr.op);
                    }
                    if let Terminator::Ret { value, .. } = &b.term {
                        let v = match value {
                            Some(op) => cp.operand_const(f.id, *op),
                            None => ConstVal::Varies,
                        };
                        changed |= cp.merge_ret(f.id, v);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        cp
    }

    fn transfer(
        &mut self,
        program: &Program,
        ticfg: &Ticfg,
        func: FuncId,
        id: InstrId,
        op: &Op,
    ) -> bool {
        match op {
            Op::Const { dst, value } => self.merge_var(func, *dst, ConstVal::Const(*value)),
            Op::Bin { dst, kind, a, b } => {
                let v = match (self.operand_const(func, *a), self.operand_const(func, *b)) {
                    (ConstVal::Const(x), ConstVal::Const(y)) => fold_bin(*kind, x, y),
                    (ConstVal::Varies, _) | (_, ConstVal::Varies) => ConstVal::Varies,
                    _ => ConstVal::Unknown,
                };
                self.merge_var(func, *dst, v)
            }
            Op::Cmp { dst, kind, a, b } => {
                let v = match (self.operand_const(func, *a), self.operand_const(func, *b)) {
                    (ConstVal::Const(x), ConstVal::Const(y)) => ConstVal::Const(kind.eval(x, y)),
                    (ConstVal::Varies, _) | (_, ConstVal::Varies) => ConstVal::Varies,
                    _ => ConstVal::Unknown,
                };
                self.merge_var(func, *dst, v)
            }
            Op::Call { dst, args, .. } => {
                let mut changed = false;
                let mut ret = ConstVal::Unknown;
                let targets = ticfg.call_targets.get(&id).map_or(&[][..], Vec::as_slice);
                for &target in targets {
                    let params = program.function(target).params.clone();
                    for (param, arg) in params.iter().zip(args) {
                        let v = self.operand_const(func, *arg);
                        changed |= self.merge_var(target, *param, v);
                    }
                    ret = ret.merge(self.rets.get(&target).copied().unwrap_or(ConstVal::Unknown));
                }
                if targets.is_empty() {
                    ret = ConstVal::Varies; // unresolved indirect call
                }
                if let Some(d) = dst {
                    changed |= self.merge_var(func, *d, ret);
                }
                changed
            }
            Op::ThreadCreate { dst, arg, .. } => {
                let mut changed = false;
                for &target in ticfg.call_targets.get(&id).map_or(&[][..], Vec::as_slice) {
                    if let Some(&param) = program.function(target).params.first() {
                        let v = self.operand_const(func, *arg);
                        changed |= self.merge_var(target, param, v);
                    }
                }
                if let Some(d) = dst {
                    changed |= self.merge_var(func, *d, ConstVal::Varies);
                }
                changed
            }
            _ => match op.def() {
                // Loads, allocations, geps, inputs, intrinsics: runtime
                // dependent as far as this analysis is concerned.
                Some(d) => self.merge_var(func, d, ConstVal::Varies),
                None => false,
            },
        }
    }

    fn merge_var(&mut self, func: FuncId, var: VarId, v: ConstVal) -> bool {
        let slot = self.vals.entry((func, var)).or_insert(ConstVal::Unknown);
        let next = slot.merge(v);
        let changed = *slot != next;
        *slot = next;
        changed
    }

    fn merge_ret(&mut self, func: FuncId, v: ConstVal) -> bool {
        let slot = self.rets.entry(func).or_insert(ConstVal::Unknown);
        let next = slot.merge(v);
        let changed = *slot != next;
        *slot = next;
        changed
    }

    /// The lattice value of an operand in `func`.
    pub fn operand_const(&self, func: FuncId, op: Operand) -> ConstVal {
        match op {
            Operand::Const(c) => ConstVal::Const(c),
            Operand::Var(v) => self
                .vals
                .get(&(func, v))
                .copied()
                .unwrap_or(ConstVal::Unknown),
            // A global operand is the global's *address*; its runtime value
            // is fixed but useless as a value annotation.
            Operand::Global(_) => ConstVal::Varies,
        }
    }

    /// The proven constant value of an operand, if there is one.
    pub fn operand_value(&self, func: FuncId, op: Operand) -> Option<Value> {
        match self.operand_const(func, op) {
            ConstVal::Const(c) => Some(c),
            _ => None,
        }
    }
}

/// The dead-store analysis packaged as a lint [`Pass`]: stores whose cell
/// is never observed again are reported as `GA012` warnings.
#[derive(Default)]
pub struct DeadStoreLintPass {
    /// Cap on reported stores (default 5).
    pub limit: Option<usize>,
}

impl Pass for DeadStoreLintPass {
    fn name(&self) -> &'static str {
        "dead-store-lint"
    }

    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic> {
        let program = cx.program;
        let limit = self.limit.unwrap_or(5);
        dead_stores(cx)
            .iter()
            .take(limit)
            .map(|&id| {
                let loc = program.stmt_loc(id).unwrap_or(gist_ir::SrcLoc::UNKNOWN);
                Diagnostic::warning(
                    "GA012",
                    "stored value is never read, freed, or synchronized on any path".to_owned(),
                )
                .at(loc)
            })
            .collect()
    }
}

/// Folds a binary operation on two constants, mirroring VM semantics.
/// Division and remainder by zero are VM *failures*, not values, so they
/// fold to `Varies` rather than pretending a result exists.
fn fold_bin(kind: BinKind, a: Value, b: Value) -> ConstVal {
    let v = match kind {
        BinKind::Add => a.wrapping_add(b),
        BinKind::Sub => a.wrapping_sub(b),
        BinKind::Mul => a.wrapping_mul(b),
        BinKind::Div => {
            if b == 0 {
                return ConstVal::Varies;
            }
            a.wrapping_div(b)
        }
        BinKind::Rem => {
            if b == 0 {
                return ConstVal::Varies;
            }
            a.wrapping_rem(b)
        }
        BinKind::And => a & b,
        BinKind::Or => a | b,
        BinKind::Xor => a ^ b,
        BinKind::Shl => a.wrapping_shl((b & 63) as u32),
        BinKind::Shr => a.wrapping_shr((b & 63) as u32),
    };
    ConstVal::Const(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::builder::ProgramBuilder;
    use gist_ir::icfg::Icfg;
    use gist_ir::{Callee, Operand};

    fn var(program: &Program, func: FuncId, name: &str) -> VarId {
        let idx = program.functions[func.index()]
            .var_names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no var {name}"));
        VarId(idx as u32)
    }

    #[test]
    fn liveness_kills_defs_and_resurrects_uses() {
        // main: a = 1; b = a + 1; print b
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let a = f.const_i64("a", 1);
        let b = f.bin("b", BinKind::Add, a.into(), Operand::Const(1));
        f.print(&[b.into()]);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&p);
        let live = live_variables(&p, &ticfg);
        let main = p.entry;
        let ids: Vec<InstrId> = p.all_stmt_ids().collect();
        // Before `b = a + 1`, `a` is live and `b` is not.
        assert!(live.before(ids[1]).contains(&(main, var(&p, main, "a"))));
        assert!(!live.before(ids[1]).contains(&(main, var(&p, main, "b"))));
        // After the print, nothing is live.
        assert!(live.after(ids[2]).is_empty());
        // Before the first statement, nothing is live (a is defined here).
        assert!(!live.before(ids[0]).contains(&(main, var(&p, main, "a"))));
    }

    #[test]
    fn liveness_crosses_call_boundaries() {
        // callee uses its param; the caller's argument register must be
        // live before the call.
        let mut pb = ProgramBuilder::new("t");
        let callee = {
            let mut g = pb.function("g", &["x"]);
            g.print(&[Operand::Var(VarId(0))]);
            g.ret(None);
            g.finish()
        };
        let mut f = pb.function("main", &[]);
        let a = f.const_i64("a", 7);
        f.call(None, Callee::Direct(callee), &[a.into()]);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&p);
        let live = live_variables(&p, &ticfg);
        let main = p.function_by_name("main").unwrap().id;
        let call_id = p.functions[main.index()].blocks[0].instrs[1].id;
        // The callee's param is live at its entry, and that fact reaches
        // the call site through the Call edge.
        assert!(live.before(call_id).contains(&(callee, VarId(0))));
    }

    #[test]
    fn reaching_defs_sees_defs_across_calls_and_kills_strong_stores() {
        // main: store $g, 1; store $g, 2; v = load $g
        // The second store strongly kills the first.
        let mut pb = ProgramBuilder::new("t");
        let g = pb.global("g", 0);
        let mut f = pb.function("main", &[]);
        f.store(Operand::Global(g), Operand::Const(1));
        f.store(Operand::Global(g), Operand::Const(2));
        f.load("v", Operand::Global(g));
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&p);
        let pts = PointsTo::compute(&p, &ticfg);
        let rd = reaching_definitions(&p, &ticfg, &pts);
        let ids: Vec<InstrId> = p.all_stmt_ids().collect();
        let at_load = rd.before(ids[2]);
        assert!(at_load.contains(&ids[1]), "second store reaches the load");
        assert!(
            !at_load.contains(&ids[0]),
            "first store is strongly killed: {at_load:?}"
        );
    }

    #[test]
    fn branch_join_keeps_both_stores_reaching() {
        let mut pb = ProgramBuilder::new("t");
        let g = pb.global("g", 0);
        let mut f = pb.function("main", &[]);
        let c = f.read_input("c", 0);
        let then_bb = f.new_block("then");
        let else_bb = f.new_block("else");
        let join_bb = f.new_block("join");
        f.condbr(c.into(), then_bb, else_bb);
        f.switch_to(then_bb);
        f.store(Operand::Global(g), Operand::Const(1));
        f.br(join_bb);
        f.switch_to(else_bb);
        f.store(Operand::Global(g), Operand::Const(2));
        f.br(join_bb);
        f.switch_to(join_bb);
        f.load("v", Operand::Global(g));
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&p);
        let pts = PointsTo::compute(&p, &ticfg);
        let rd = reaching_definitions(&p, &ticfg, &pts);
        let main = p.entry;
        let store_then = p.functions[main.index()].blocks[1].instrs[0].id;
        let store_else = p.functions[main.index()].blocks[2].instrs[0].id;
        let load = p.functions[main.index()].blocks[3].instrs[0].id;
        let at_load = rd.before(load);
        assert!(at_load.contains(&store_then));
        assert!(at_load.contains(&store_else));
    }

    #[test]
    fn dead_store_is_found_and_live_store_is_kept() {
        // scratch is written and never read; out is written then loaded.
        let mut pb = ProgramBuilder::new("t");
        let scratch = pb.global("scratch", 0);
        let out = pb.global("out", 0);
        let mut f = pb.function("main", &[]);
        f.store(Operand::Global(scratch), Operand::Const(1));
        f.store(Operand::Global(out), Operand::Const(2));
        f.load("v", Operand::Global(out));
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let dead = dead_stores(&AnalysisCtx::new(&p));
        let ids: Vec<InstrId> = p.all_stmt_ids().collect();
        assert!(dead.contains(&ids[0]), "scratch store is dead: {dead:?}");
        assert!(!dead.contains(&ids[1]), "out store is observed");
        let _ = (scratch, out);
    }

    #[test]
    fn overwritten_then_read_store_is_not_dead() {
        // store g, 1; load g; store g, 2; load g — both stores observed.
        let mut pb = ProgramBuilder::new("t");
        let g = pb.global("g", 0);
        let mut f = pb.function("main", &[]);
        f.store(Operand::Global(g), Operand::Const(1));
        f.load("a", Operand::Global(g));
        f.store(Operand::Global(g), Operand::Const(2));
        f.load("b", Operand::Global(g));
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let dead = dead_stores(&AnalysisCtx::new(&p));
        assert!(dead.is_empty(), "every store is read back: {dead:?}");
    }

    #[test]
    fn freed_allocation_keeps_its_stores_live() {
        // A store into a buffer that is later freed must stay watchable:
        // the racing-free pattern depends on it.
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let p_ = f.alloc("p", Operand::Const(1));
        f.store(p_.into(), Operand::Const(7));
        f.free(p_.into());
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let dead = dead_stores(&AnalysisCtx::new(&p));
        assert!(dead.is_empty(), "free observes the cell: {dead:?}");
    }

    #[test]
    fn constprop_folds_chains_and_calls() {
        let mut pb = ProgramBuilder::new("t");
        let callee = {
            let mut g = pb.function("twice", &["x"]);
            let x = VarId(0);
            let r = g.bin("r", BinKind::Mul, x.into(), Operand::Const(2));
            g.ret(Some(r.into()));
            g.finish()
        };
        let mut f = pb.function("main", &[]);
        let a = f.const_i64("a", 21);
        f.call(Some("b"), Callee::Direct(callee), &[a.into()]);
        let b = f.var("b");
        let c = f.bin("c", BinKind::Add, b.into(), Operand::Const(0));
        f.print(&[c.into()]);
        f.ret(None);
        f.finish();
        let mut p = pb.finish().unwrap();
        p.entry = p.function_by_name("main").unwrap().id;
        let ticfg = Icfg::build_ticfg(&p);
        let cp = ConstProp::compute(&p, &ticfg);
        let main = p.function_by_name("main").unwrap().id;
        assert_eq!(
            cp.operand_value(main, Operand::Var(var(&p, main, "c"))),
            Some(42)
        );
        assert_eq!(
            cp.operand_value(callee, Operand::Var(var(&p, callee, "r"))),
            Some(42)
        );
    }

    #[test]
    fn constprop_divergent_params_and_div_by_zero_vary() {
        let mut pb = ProgramBuilder::new("t");
        let callee = {
            let mut g = pb.function("id", &["x"]);
            g.ret(Some(Operand::Var(VarId(0))));
            g.finish()
        };
        let mut f = pb.function("main", &[]);
        f.call(Some("a"), Callee::Direct(callee), &[Operand::Const(1)]);
        f.call(Some("b"), Callee::Direct(callee), &[Operand::Const(2)]);
        let d = f.bin("d", BinKind::Div, Operand::Const(1), Operand::Const(0));
        f.print(&[d.into()]);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&p);
        let cp = ConstProp::compute(&p, &ticfg);
        let main = p.function_by_name("main").unwrap().id;
        // Two call sites with different constants: the param varies, so
        // both results vary.
        assert_eq!(
            cp.operand_value(main, Operand::Var(var(&p, main, "a"))),
            None
        );
        assert_eq!(cp.operand_value(callee, Operand::Var(VarId(0))), None);
        // Division by zero is a failure, not a constant.
        assert_eq!(
            cp.operand_value(main, Operand::Var(var(&p, main, "d"))),
            None
        );
    }

    #[test]
    fn solver_reaches_fixpoint_on_loops() {
        // A counting loop: liveness of the loop counter must converge and
        // keep the counter live on the back edge.
        let mut pb = ProgramBuilder::new("t");
        let g = pb.global("g", 0);
        let mut f = pb.function("main", &[]);
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        f.br(body);
        f.switch_to(body);
        let v = f.load("v", Operand::Global(g));
        let c = f.cmp("c", gist_ir::CmpKind::Lt, v.into(), Operand::Const(10));
        f.condbr(c.into(), body, exit);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&p);
        let live = live_variables(&p, &ticfg);
        let main = p.entry;
        let cmp_id = p.functions[main.index()].blocks[1].instrs[1].id;
        assert!(live.before(cmp_id).contains(&(main, var(&p, main, "v"))));
        let _ = g;
    }
}
