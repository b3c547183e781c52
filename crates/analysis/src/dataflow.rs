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
//! Facts are statement-indexed: a [`Solution`] keeps one vector of facts
//! before and one after the statements, indexed by [`InstrId::index`]
//! (program statement ids are dense). Reaching definitions are
//! [`StmtSet`] bitsets with a precomputed def mask and one kill mask per
//! strongly updated cell, so on these programs a fact is usually one
//! 64-bit word.
//!
//! [`ConstProp`] is the sparse variant: MiniC registers are in SSA form
//! (the verifier's GA003 enforces def-dominates-use), so constantness is
//! a property of the register, not the program point, and a worklist over
//! defs converges without per-point fact maps.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gist_ir::icfg::Ticfg;
use gist_ir::{BinKind, FuncId, InstrId, Op, Operand, Program, Terminator, Value, VarId};

use crate::diag::Diagnostic;
use crate::pass::{AccessOp, AccessTable, AnalysisCtx, Pass};
use crate::points_to::{Loc, LocSet};

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
/// statement, in *program* order regardless of analysis direction. Both
/// tables are vectors indexed by [`InstrId::index`].
pub struct Solution<F> {
    before: Vec<F>,
    after: Vec<F>,
    bottom: F,
}

impl<F> Solution<F> {
    /// The fact holding just before `id` executes (bottom for an id
    /// outside the program).
    pub fn before(&self, id: InstrId) -> &F {
        self.before.get(id.index()).unwrap_or(&self.bottom)
    }

    /// The fact holding just after `id` executes (bottom for an id
    /// outside the program).
    pub fn after(&self, id: InstrId) -> &F {
        self.after.get(id.index()).unwrap_or(&self.bottom)
    }
}

/// Runs the worklist solver for `analysis` over the whole TICFG.
///
/// Every statement starts queued, in program order (reversed for backward
/// problems), and every fact starts at bottom. A statement re-queues its
/// flow-successors only when its output fact changes, so a first visit
/// whose output is still bottom re-queues nothing. That is sound because
/// every statement is visited at least once and joining bottom into a
/// fact must leave it unchanged: bottom is the identity of `join`, as it
/// is for the set unions of every analysis here.
pub fn solve<A: DataflowAnalysis>(
    program: &Program,
    ticfg: &Ticfg,
    analysis: &A,
) -> Solution<A::Fact> {
    let forward = analysis.direction() == Direction::Forward;
    let bottom = analysis.bottom();
    let count = program.stmt_count();
    // The program entry's first statement is always a boundary node in
    // forward problems, even if a back edge points at it.
    let entry_stmt = program
        .functions
        .get(program.entry.index())
        .and_then(|f| f.blocks.first())
        .map(|b| b.stmt_ids().next().expect("block has a terminator"));

    let mut before: Vec<A::Fact> = vec![bottom.clone(); count];
    let mut after: Vec<A::Fact> = vec![bottom.clone(); count];
    let nodes: Vec<InstrId> = program.all_stmt_ids().collect();
    let mut work: VecDeque<InstrId> = if forward {
        nodes.into_iter().collect()
    } else {
        nodes.into_iter().rev().collect()
    };
    let mut queued = vec![true; count];

    while let Some(n) = work.pop_front() {
        queued[n.index()] = false;
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
        let (in_facts, out_facts) = if forward {
            (&mut before, &mut after)
        } else {
            (&mut after, &mut before)
        };
        for &(p, _) in flow_preds {
            analysis.join(&mut input, &out_facts[p.index()]);
        }
        let mut output = input.clone();
        analysis.transfer(program, n, &mut output);
        in_facts[n.index()] = input;
        if out_facts[n.index()] != output {
            out_facts[n.index()] = output;
            let flow_succs = if forward {
                ticfg.succs(n)
            } else {
                ticfg.preds(n)
            };
            for &(s, _) in flow_succs {
                if !std::mem::replace(&mut queued[s.index()], true) {
                    work.push_back(s);
                }
            }
        }
    }
    Solution {
        before,
        after,
        bottom,
    }
}

/// A dense set of statements: one bit per statement id of a program,
/// packed into 64-bit words. It is the fact type of [`ReachingDefs`],
/// where a join is a word-wise OR.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct StmtSet {
    words: Vec<u64>,
}

impl StmtSet {
    /// An empty set with room for the statements `0..stmt_count`.
    pub fn new(stmt_count: usize) -> Self {
        StmtSet {
            words: vec![0; stmt_count.div_ceil(64)],
        }
    }

    /// True if `id` is in the set (false for an id beyond its room).
    pub fn contains(&self, id: InstrId) -> bool {
        let i = id.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Adds `id`, which must lie within the set's room.
    pub fn insert(&mut self, id: InstrId) {
        let i = id.index();
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Adds every member of `other`; true if the set grew.
    pub fn union_with(&mut self, other: &StmtSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let next = *w | o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// Removes every member of `other`.
    pub fn difference_with(&mut self, other: &StmtSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// The members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(InstrId(wi as u32 * 64 + bit))
            })
        })
    }
}

impl std::fmt::Debug for StmtSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
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
///
/// Facts are [`StmtSet`] bitsets. The def set and the kill masks are
/// precomputed, so a transfer is two word-wise operations and no IR lookup.
pub struct ReachingDefs {
    /// Number of statements in the program: every fact's room.
    stmt_count: usize,
    /// Every tracked definition: register defs, stores and frees.
    defs: StmtSet,
    /// Per statement: for a strong store, the index into `kills` of the
    /// one concrete cell it certainly writes.
    strong: Vec<Option<usize>>,
    /// Per strong cell: every strong store to that cell.
    kills: Vec<StmtSet>,
}

impl ReachingDefs {
    /// Precomputes the def set and the strong-kill masks from `cx`'s
    /// access table. A store is strong when its address has one points-to
    /// target with a known offset; stores to an equal [`Loc`] share one
    /// kill mask.
    pub fn new(cx: &AnalysisCtx<'_>) -> Self {
        let (program, accesses) = (cx.program, cx.accesses());
        let stmt_count = program.stmt_count();
        let mut defs = StmtSet::new(stmt_count);
        let mut strong = vec![None; stmt_count];
        let mut kills: Vec<StmtSet> = Vec::new();
        let mut cells: BTreeMap<Loc, usize> = BTreeMap::new();
        for b in program.functions.iter().flat_map(|f| &f.blocks) {
            for instr in &b.instrs {
                if Self::is_def(&instr.op) {
                    defs.insert(instr.id);
                }
                let Some(only) = accesses.get(instr.id).and_then(|a| a.strong_cell()) else {
                    continue;
                };
                let cell = *cells.entry(only).or_insert_with(|| {
                    kills.push(StmtSet::new(stmt_count));
                    kills.len() - 1
                });
                kills[cell].insert(instr.id);
                strong[instr.id.index()] = Some(cell);
            }
        }
        ReachingDefs {
            stmt_count,
            defs,
            strong,
            kills,
        }
    }

    /// True if `id` is a definition this analysis tracks.
    fn is_def(op: &Op) -> bool {
        op.def().is_some() || matches!(op, Op::Store { .. } | Op::Free { .. })
    }
}

impl DataflowAnalysis for ReachingDefs {
    type Fact = StmtSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> StmtSet {
        StmtSet::new(self.stmt_count)
    }

    fn join(&self, into: &mut StmtSet, from: &StmtSet) -> bool {
        into.union_with(from)
    }

    fn transfer(&self, _program: &Program, id: InstrId, fact: &mut StmtSet) {
        if let Some(&Some(cell)) = self.strong.get(id.index()) {
            // This store certainly hits `cell`: earlier stores that could
            // only have written that same cell are overwritten for sure.
            // The store itself is a def, so it is set again below.
            fact.difference_with(&self.kills[cell]);
        }
        if self.defs.contains(id) {
            fact.insert(id);
        }
    }
}

/// Solves reaching definitions. [`crate::svfg::Svfg`] keeps a `Direct` or
/// `Memory` edge only when its def is in `before(use)`; that is the one
/// consumer (sketch steps are pruned by TICFG reachability, not by this).
/// For N statements the solution holds 2·N·⌈N/64⌉ words: one word per
/// fact up to 64 statements, about 25 MB at N = 10,000.
pub fn reaching_definitions(cx: &AnalysisCtx<'_>) -> Solution<StmtSet> {
    solve(cx.program, cx.ticfg(), &ReachingDefs::new(cx))
}

/// Backward liveness of abstract memory cells: a cell is live at a point
/// if some path from there may still read it (a `load`, a `free`, a
/// `lock`/`unlock`, or an intrinsic walking the allocation).
pub struct MemLiveness<'a> {
    accesses: &'a AccessTable,
}

impl<'a> MemLiveness<'a> {
    /// Builds the problem over `cx`'s access table.
    pub fn new(cx: &'a AnalysisCtx<'_>) -> Self {
        MemLiveness {
            accesses: cx.accesses(),
        }
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

    fn transfer(&self, _program: &Program, id: InstrId, fact: &mut LocSet) {
        let Some(access) = self.accesses.get(id) else {
            return;
        };
        // A store kills the one cell it certainly writes; every other
        // access keeps its cells live (an intrinsic's cells are whole
        // allocations, which strlen/memcpy/memset walk).
        match access.op {
            AccessOp::Store => {
                if let Some(cell) = access.strong_cell() {
                    fact.remove(&cell);
                }
            }
            _ => fact.extend(access.cells.iter().copied()),
        }
    }
}

/// Stores whose written cell can never be observed again: no later load,
/// free, lock, or intrinsic on any TICFG path may touch any cell the
/// store may write. Watchpoints on these are wasted debug registers.
pub fn dead_stores(cx: &AnalysisCtx<'_>) -> BTreeSet<InstrId> {
    let live = solve(cx.program, cx.ticfg(), &MemLiveness::new(cx));
    let mut dead = BTreeSet::new();
    for (id, access) in cx.accesses().iter() {
        // A store to an unknown address stays watchable.
        if access.op != AccessOp::Store || access.cells.is_empty() {
            continue;
        }
        let live_after = live.after(id);
        if access
            .cells
            .iter()
            .all(|t| !live_after.iter().any(|l| l.overlaps(t)))
        {
            dead.insert(id);
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
pub struct DeadStoreLintPass;

/// Dead stores [`DeadStoreLintPass`] reports at most.
const LINT_LIMIT: usize = 5;

impl Pass for DeadStoreLintPass {
    fn name(&self) -> &'static str {
        "dead-store-lint"
    }

    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic> {
        let program = cx.program;
        dead_stores(cx)
            .iter()
            .take(LINT_LIMIT)
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
        let rd = reaching_definitions(&AnalysisCtx::new(&p));
        let ids: Vec<InstrId> = p.all_stmt_ids().collect();
        let at_load = rd.before(ids[2]);
        assert!(at_load.contains(ids[1]), "second store reaches the load");
        assert!(
            !at_load.contains(ids[0]),
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
        let rd = reaching_definitions(&AnalysisCtx::new(&p));
        let main = p.entry;
        let store_then = p.functions[main.index()].blocks[1].instrs[0].id;
        let store_else = p.functions[main.index()].blocks[2].instrs[0].id;
        let load = p.functions[main.index()].blocks[3].instrs[0].id;
        let at_load = rd.before(load);
        assert!(at_load.contains(store_then));
        assert!(at_load.contains(store_else));
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
