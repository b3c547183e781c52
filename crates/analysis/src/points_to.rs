//! Flow-insensitive, field-sensitive points-to analysis.
//!
//! The race detector needs to know, for every memory access, *which*
//! abstract cells the address operand may denote. MiniC pointers come from
//! three places — globals, `alloc` sites, and `stack_alloc` sites — so an
//! abstract location ([`Loc`]) is an allocation origin ([`MemOrigin`]) plus
//! an optional concrete cell offset (`None` = any offset, the analysis'
//! top). The analysis is a classic Andersen-style inclusion fixpoint:
//!
//! * allocation instructions generate `{(site, offset 0)}`,
//! * `gep` shifts offsets (constant offsets stay precise, variable ones
//!   widen to `None`; a set holding too many precise offsets of one origin
//!   widens it too, so shifts on a loop's back edge converge),
//! * stores write the value's points-to set into the pointed-to cells,
//!   loads read it back, and
//! * calls, spawns, and returns copy sets between argument and parameter
//!   registers interprocedurally, using the TICFG's call-target resolution
//!   (which also resolves indirect calls and thread start routines).
//!
//! It deliberately mirrors what the paper's prototype gets from LLVM's
//! data-structure analysis when resolving `pthread_create` targets: cheap,
//! conservative, and good enough to name the shared cells.

use std::collections::{BTreeMap, BTreeSet};

use gist_ir::icfg::Ticfg;
use gist_ir::{BinKind, FuncId, GlobalId, InstrId, Op, Operand, Program, Terminator, VarId};

/// Where an abstract memory cell was allocated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemOrigin {
    /// A global variable.
    Global(GlobalId),
    /// A heap allocation, named by its `alloc` instruction.
    Heap(InstrId),
    /// A stack allocation, named by its `stack_alloc` instruction.
    Stack(InstrId),
}

impl MemOrigin {
    /// Renders the origin with source names, e.g. `` global `queue` `` or
    /// `heap@pbzip2.c:1060`.
    pub fn display(&self, program: &Program) -> String {
        match self {
            MemOrigin::Global(g) => format!("global `{}`", program.globals[g.index()].name),
            MemOrigin::Heap(site) => format!(
                "heap@{}",
                program
                    .stmt_loc(*site)
                    .map(|l| program.source_map.display(l))
                    .unwrap_or_else(|| site.to_string())
            ),
            MemOrigin::Stack(site) => format!(
                "stack@{}",
                program
                    .stmt_loc(*site)
                    .map(|l| program.source_map.display(l))
                    .unwrap_or_else(|| site.to_string())
            ),
        }
    }
}

/// An abstract memory location: an origin plus an optional cell offset.
/// `offset == None` means "some cell of this origin" (unknown offset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// The allocation the cell belongs to.
    pub origin: MemOrigin,
    /// The concrete cell index, when statically known.
    pub offset: Option<i64>,
}

impl Loc {
    /// A location at a known offset.
    pub fn at(origin: MemOrigin, offset: i64) -> Self {
        Loc {
            origin,
            offset: Some(offset),
        }
    }

    /// A location at an unknown offset within its origin.
    pub fn anywhere(origin: MemOrigin) -> Self {
        Loc {
            origin,
            offset: None,
        }
    }

    /// True if two locations may denote the same cell: same origin and
    /// equal concrete offsets, or either offset unknown.
    pub fn overlaps(&self, other: &Loc) -> bool {
        self.origin == other.origin
            && match (self.offset, other.offset) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// A set of abstract locations.
pub type LocSet = BTreeSet<Loc>;

/// The most precise offsets one set holds per origin. One more widens the
/// origin to an unknown offset, so a pointer advanced in a loop or through
/// recursive calls converges instead of growing a new offset each round.
const MAX_OFFSETS: usize = 16;

/// The result of the points-to fixpoint.
#[derive(Debug, Default)]
pub struct PointsTo {
    /// Register points-to sets, per function.
    vars: BTreeMap<(FuncId, VarId), LocSet>,
    /// Contents of abstract cells (what a load from the cell may yield).
    cells: BTreeMap<Loc, LocSet>,
    /// What each function's `ret <value>` may return.
    rets: BTreeMap<FuncId, LocSet>,
}

impl PointsTo {
    /// Runs the fixpoint over `program` using `ticfg` for call resolution.
    pub fn compute(program: &Program, ticfg: &Ticfg) -> PointsTo {
        let mut pt = PointsTo::default();
        loop {
            let mut changed = false;
            for f in &program.functions {
                for b in &f.blocks {
                    for instr in &b.instrs {
                        changed |= pt.transfer(program, ticfg, f.id, instr.id, &instr.op);
                    }
                    if let Terminator::Ret {
                        value: Some(op), ..
                    } = &b.term
                    {
                        let set = pt.operand_origins(f.id, *op);
                        changed |= union_into(pt.rets.entry(f.id).or_default(), set);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        pt
    }

    /// Applies one instruction's transfer function; returns true if any
    /// set grew.
    fn transfer(
        &mut self,
        program: &Program,
        ticfg: &Ticfg,
        func: FuncId,
        id: InstrId,
        op: &Op,
    ) -> bool {
        match op {
            Op::Alloc { dst, .. } => self.add_var(
                func,
                *dst,
                [Loc::at(MemOrigin::Heap(id), 0)].into_iter().collect(),
            ),
            Op::StackAlloc { dst, .. } => self.add_var(
                func,
                *dst,
                [Loc::at(MemOrigin::Stack(id), 0)].into_iter().collect(),
            ),
            Op::Gep { dst, base, offset } => {
                let base_set = self.operand_origins(func, *base);
                let shifted: LocSet = base_set
                    .into_iter()
                    .map(|loc| match *offset {
                        Operand::Const(c) => shift_loc(loc, c),
                        _ => Loc::anywhere(loc.origin),
                    })
                    .collect();
                self.add_var(func, *dst, shifted)
            }
            Op::Bin { dst, kind, a, b } => {
                // Pointer arithmetic through plain arithmetic. Adding or
                // subtracting a constant is just a `gep` spelled
                // differently, so precise offsets shift instead of
                // widening — otherwise a later constant-offset `gep` on
                // the result would stay widened even though every source
                // is precise. Anything else loses the offsets.
                let delta = |ptr: &Operand, off: &Operand, negate: bool| -> Option<(LocSet, i64)> {
                    if let Operand::Const(c) = *off {
                        let set = self.operand_origins(func, *ptr);
                        if !set.is_empty() {
                            return Some((set, if negate { -c } else { c }));
                        }
                    }
                    None
                };
                let shifted = match kind {
                    BinKind::Add => delta(a, b, false).or_else(|| delta(b, a, false)),
                    // `const - ptr` is not an address; only `ptr - const`
                    // keeps its origin.
                    BinKind::Sub => delta(a, b, true),
                    _ => None,
                };
                let out: LocSet = match shifted {
                    Some((set, d)) => set.into_iter().map(|loc| shift_loc(loc, d)).collect(),
                    None => {
                        let mut widened: LocSet = BTreeSet::new();
                        for operand in [a, b] {
                            for loc in self.operand_origins(func, *operand) {
                                widened.insert(Loc::anywhere(loc.origin));
                            }
                        }
                        widened
                    }
                };
                self.add_var(func, *dst, out)
            }
            Op::Load { dst, addr } => {
                let mut contents: LocSet = BTreeSet::new();
                for loc in self.operand_origins(func, *addr) {
                    contents.extend(self.cell_contents(&loc));
                }
                self.add_var(func, *dst, contents)
            }
            Op::Store { addr, value } => {
                let targets = self.operand_origins(func, *addr);
                let vals = self.operand_origins(func, *value);
                let mut changed = false;
                for loc in targets {
                    changed |= union_into(self.cells.entry(loc).or_default(), vals.clone());
                }
                changed
            }
            Op::Call { dst, args, .. } => {
                let mut changed = false;
                for &target in ticfg.call_targets.get(&id).map_or(&[][..], Vec::as_slice) {
                    let params = program.function(target).params.clone();
                    for (param, arg) in params.iter().zip(args) {
                        let set = self.operand_origins(func, *arg);
                        changed |= self.add_var(target, *param, set);
                    }
                    if let Some(d) = dst {
                        let ret = self.rets.get(&target).cloned().unwrap_or_default();
                        changed |= self.add_var(func, *d, ret);
                    }
                }
                changed
            }
            Op::ThreadCreate { arg, .. } => {
                let mut changed = false;
                for &target in ticfg.call_targets.get(&id).map_or(&[][..], Vec::as_slice) {
                    if let Some(&param) = program.function(target).params.first() {
                        let set = self.operand_origins(func, *arg);
                        changed |= self.add_var(target, param, set);
                    }
                }
                changed
            }
            _ => false,
        }
    }

    fn add_var(&mut self, func: FuncId, var: VarId, set: LocSet) -> bool {
        if set.is_empty() {
            return false;
        }
        union_into(self.vars.entry((func, var)).or_default(), set)
    }

    /// The abstract locations an operand may denote when used as an
    /// address. A global operand evaluates to the global's base address.
    pub fn operand_origins(&self, func: FuncId, op: Operand) -> LocSet {
        match op {
            Operand::Global(g) => [Loc::at(MemOrigin::Global(g), 0)].into_iter().collect(),
            Operand::Var(v) => self.vars.get(&(func, v)).cloned().unwrap_or_default(),
            Operand::Const(_) => BTreeSet::new(),
        }
    }

    /// What a load through `loc` may yield: the contents of the matching
    /// concrete cell plus any unknown-offset writes to the same origin (and
    /// everything, when the load offset itself is unknown).
    fn cell_contents(&self, loc: &Loc) -> LocSet {
        self.cells
            .iter()
            .filter(|(cell, _)| cell.overlaps(loc))
            .flat_map(|(_, contents)| contents.iter().copied())
            .collect()
    }
}

/// Shifts a location by a constant cell delta. Widened locations stay
/// widened: an unknown offset plus a constant is still unknown.
fn shift_loc(loc: Loc, delta: i64) -> Loc {
    Loc {
        offset: loc.offset.map(|o| o.saturating_add(delta)),
        ..loc
    }
}

/// Adds `src` to `dst`; returns true if `dst` grew. The widening is
/// monotone: an origin at an unknown offset absorbs its precise offsets,
/// and an origin past [`MAX_OFFSETS`] precise offsets widens to unknown.
fn union_into(dst: &mut LocSet, src: LocSet) -> bool {
    let mut changed = false;
    for loc in src {
        let anywhere = Loc::anywhere(loc.origin);
        if dst.contains(&loc) || dst.contains(&anywhere) {
            continue;
        }
        changed = true;
        let precise = dst
            .range(anywhere..)
            .take_while(|l| l.origin == loc.origin)
            .count();
        if loc.offset.is_none() || precise == MAX_OFFSETS {
            dst.retain(|l| l.origin != loc.origin);
            dst.insert(anywhere);
        } else {
            dst.insert(loc);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::builder::ProgramBuilder;
    use gist_ir::icfg::Icfg;
    use gist_ir::Callee;

    #[test]
    fn alloc_flows_through_store_load_and_calls() {
        // main: p = alloc 2; store $cell, p; worker(x): q = load $cell.
        let mut pb = ProgramBuilder::new("t");
        let cell = pb.global("cell", 0);
        let worker = {
            let mut w = pb.function("worker", &["x"]);
            w.load("q", Operand::Global(cell));
            w.ret(None);
            w.finish()
        };
        let mut f = pb.function("main", &[]);
        let p = f.alloc("p", Operand::Const(2));
        f.store(Operand::Global(cell), p.into());
        f.call(None, Callee::Direct(worker), &[Operand::Const(0)]);
        f.ret(None);
        f.finish();
        let prog = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&prog);
        let pt = PointsTo::compute(&prog, &ticfg);

        let alloc_id = prog.functions[1].blocks[0].instrs[0].id;
        let q = prog.functions[0]
            .var_names
            .iter()
            .position(|n| n == "q")
            .map(|i| VarId(i as u32))
            .unwrap();
        let q_set = pt.vars.get(&(worker, q)).cloned().unwrap_or_default();
        assert!(
            q_set.contains(&Loc::at(MemOrigin::Heap(alloc_id), 0)),
            "load in worker must see main's allocation, got {q_set:?}"
        );
    }

    #[test]
    fn gep_shifts_constant_offsets_and_widens_variable_ones() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let p = f.alloc("p", Operand::Const(4));
        f.gep("q", p.into(), Operand::Const(3));
        let i = f.read_input("i", 0);
        f.gep("r", p.into(), i.into());
        f.ret(None);
        f.finish();
        let prog = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&prog);
        let pt = PointsTo::compute(&prog, &ticfg);
        let main = prog.entry;
        let var = |name: &str| {
            let idx = prog.functions[main.index()]
                .var_names
                .iter()
                .position(|n| n == name)
                .unwrap();
            VarId(idx as u32)
        };
        let alloc_id = prog.functions[main.index()].blocks[0].instrs[0].id;
        let q = pt.vars.get(&(main, var("q"))).unwrap();
        assert!(q.contains(&Loc::at(MemOrigin::Heap(alloc_id), 3)));
        let r = pt.vars.get(&(main, var("r"))).unwrap();
        assert!(r.contains(&Loc::anywhere(MemOrigin::Heap(alloc_id))));
    }

    #[test]
    fn spawn_arg_reaches_routine_param() {
        let mut pb = ProgramBuilder::new("t");
        let routine = {
            let mut w = pb.function("worker", &["arg"]);
            w.load("v", Operand::Var(VarId(0)));
            w.ret(None);
            w.finish()
        };
        let mut f = pb.function("main", &[]);
        let p = f.alloc("p", Operand::Const(1));
        f.spawn(None, Callee::Direct(routine), p.into());
        f.ret(None);
        f.finish();
        let prog = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&prog);
        let pt = PointsTo::compute(&prog, &ticfg);
        let arg_set = pt
            .vars
            .get(&(routine, VarId(0)))
            .cloned()
            .unwrap_or_default();
        assert_eq!(arg_set.len(), 1, "routine param points at the allocation");
        assert!(matches!(
            arg_set.iter().next().unwrap().origin,
            MemOrigin::Heap(_)
        ));
    }

    #[test]
    fn constant_gep_on_arithmetic_derived_pointer_stays_precise() {
        // q = p add 2 is pointer arithmetic with a constant: it used to
        // widen q's offset, and the constant-offset gep on q then stayed
        // widened even though every source was precise. Both must now
        // track exact cells.
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let p = f.alloc("p", Operand::Const(8));
        let q = f.add("q", p.into(), Operand::Const(2));
        f.gep("r", q.into(), Operand::Const(1));
        f.sub("s", q.into(), Operand::Const(2));
        f.ret(None);
        f.finish();
        let prog = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&prog);
        let pt = PointsTo::compute(&prog, &ticfg);
        let main = prog.entry;
        let alloc_id = prog.functions[main.index()].blocks[0].instrs[0].id;
        let var = |name: &str| {
            let idx = prog.functions[main.index()]
                .var_names
                .iter()
                .position(|n| n == name)
                .unwrap();
            VarId(idx as u32)
        };
        let h = MemOrigin::Heap(alloc_id);
        assert_eq!(
            pt.vars.get(&(main, var("q"))).unwrap(),
            &[Loc::at(h, 2)].into_iter().collect::<LocSet>(),
            "p add 2 keeps the precise offset"
        );
        assert_eq!(
            pt.vars.get(&(main, var("r"))).unwrap(),
            &[Loc::at(h, 3)].into_iter().collect::<LocSet>(),
            "gep on the arithmetic-derived pointer stays precise"
        );
        assert_eq!(
            pt.vars.get(&(main, var("s"))).unwrap(),
            &[Loc::at(h, 0)].into_iter().collect::<LocSet>(),
            "ptr sub const shifts back"
        );
    }

    #[test]
    fn non_constant_arithmetic_still_widens() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let p = f.alloc("p", Operand::Const(4));
        let i = f.read_input("i", 0);
        f.add("q", p.into(), i.into());
        f.sub("t", Operand::Const(9), p.into());
        f.ret(None);
        f.finish();
        let prog = pb.finish().unwrap();
        let ticfg = Icfg::build_ticfg(&prog);
        let pt = PointsTo::compute(&prog, &ticfg);
        let main = prog.entry;
        let var = |name: &str| {
            let idx = prog.functions[main.index()]
                .var_names
                .iter()
                .position(|n| n == name)
                .unwrap();
            VarId(idx as u32)
        };
        for name in ["q", "t"] {
            let set = pt.vars.get(&(main, var(name))).unwrap();
            assert!(
                set.iter().all(|l| l.offset.is_none()),
                "{name} must be widened, got {set:?}"
            );
        }
    }

    #[test]
    fn pointer_advanced_in_a_loop_widens_and_converges() {
        // Each round of `p = add p, 1` on the back edge shifts every
        // offset of `p` by one: unbounded, the fixpoint would gain a new
        // precise offset per round.
        let prog = gist_ir::parser::parse_program(
            "m",
            r#"
fn main() {
entry:
  p = alloc 2 @ m.c:1
  br loop @ m.c:2
loop:
  p = add p, 1 @ m.c:3
  c = cmp eq p, 0 @ m.c:4
  condbr c, out, loop @ m.c:4
out:
  ret @ m.c:5
}
"#,
        )
        .unwrap();
        let ticfg = Icfg::build_ticfg(&prog);
        let pt = PointsTo::compute(&prog, &ticfg);
        let main = prog.entry;
        let alloc_id = prog.functions[main.index()].blocks[0].instrs[0].id;
        let p = VarId(
            prog.functions[main.index()]
                .var_names
                .iter()
                .position(|n| n == "p")
                .unwrap() as u32,
        );
        assert_eq!(
            pt.vars.get(&(main, p)).unwrap(),
            &[Loc::anywhere(MemOrigin::Heap(alloc_id))]
                .into_iter()
                .collect::<LocSet>(),
            "p holds the allocation at an unknown offset"
        );
    }

    #[test]
    fn overlap_respects_offsets() {
        let o = MemOrigin::Global(GlobalId(0));
        assert!(Loc::at(o, 1).overlaps(&Loc::at(o, 1)));
        assert!(!Loc::at(o, 1).overlaps(&Loc::at(o, 2)));
        assert!(Loc::at(o, 1).overlaps(&Loc::anywhere(o)));
        assert!(!Loc::at(o, 1).overlaps(&Loc::at(MemOrigin::Global(GlobalId(1)), 1)));
    }
}
