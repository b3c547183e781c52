//! Properties of the sparse value-flow graph (SVFG).
//!
//! Checked exhaustively over every bugbase program and every statement,
//! which is stronger than sampling: the miniatures are small enough that
//! the full cross-product runs in well under a second.
//!
//! 1. Intra-thread SVFG edges agree with reaching definitions: a
//!    `Direct` (register) or `Memory` (same-thread store) edge `def → use`
//!    only exists if `def` is in the reaching-defs fact before `use`.
//!    `Interleaved` edges deliberately carry no such guarantee, and
//!    `Param`/`Ret` edges cross call boundaries where the def site itself
//!    (the call or return) is the reaching definition.
//! 2. Sparse slices are subsets of legacy slices: for every criterion,
//!    every statement in `compute_with_svfg` also appears in `compute`.
//!    The SVFG prunes; it must never invent dependencies.
//! 3. The bitset reaching definitions equal a set-based reference at
//!    every statement, before and after, on the bugbase and on seeded
//!    synthetic programs.

use std::collections::{BTreeMap, BTreeSet};

use gist_analysis::{reaching_definitions, AnalysisCtx, Loc, PointsTo, SvfgEdgeKind};
use gist_bugbase::synth::{self, PatternKind, SplitMix64};
use gist_ir::icfg::Ticfg;
use gist_ir::{InstrId, Op, Program};
use gist_slicing::StaticSlicer;

fn all_instrs(program: &Program) -> Vec<InstrId> {
    program
        .functions
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.instrs.iter())
        .map(|i| i.id)
        .collect()
}

#[test]
fn intra_thread_edges_agree_with_reaching_defs() {
    for bug in gist_bugbase::all_bugs() {
        let program = &bug.program;
        let cx = AnalysisCtx::new(program);
        let rd = reaching_definitions(&cx);
        let svfg = cx.svfg();
        for use_site in svfg.use_sites() {
            for edge in svfg.edges_in(use_site) {
                if !matches!(edge.kind, SvfgEdgeKind::Direct | SvfgEdgeKind::Memory) {
                    continue;
                }
                assert!(
                    rd.before(use_site).contains(edge.def),
                    "{}: {:?} edge {:?} -> {:?} has no reaching definition",
                    bug.name,
                    edge.kind,
                    edge.def,
                    use_site,
                );
            }
        }
    }
}

/// One reaching-definitions fact per statement id.
type Facts = Vec<BTreeSet<InstrId>>;

/// Reaching definitions with `BTreeSet` facts: a store whose address has
/// one points-to target with a known offset kills every other such store
/// to an equal cell, every def adds itself, and a round-robin pass over
/// all statements repeats until nothing changes. It shares no code with
/// the worklist solver, including its change detection.
fn reference_reaching_defs(program: &Program, ticfg: &Ticfg, pts: &PointsTo) -> (Facts, Facts) {
    let mut defs: BTreeSet<InstrId> = BTreeSet::new();
    let mut strong: BTreeMap<InstrId, Loc> = BTreeMap::new();
    for f in &program.functions {
        for instr in f.blocks.iter().flat_map(|b| b.instrs.iter()) {
            if instr.op.def().is_some() || matches!(instr.op, Op::Store { .. } | Op::Free { .. }) {
                defs.insert(instr.id);
            }
            if let Op::Store { addr, .. } = &instr.op {
                let targets = pts.operand_origins(f.id, *addr);
                match targets.iter().next() {
                    Some(only) if targets.len() == 1 && only.offset.is_some() => {
                        strong.insert(instr.id, *only);
                    }
                    _ => {}
                }
            }
        }
    }
    let mut before: Facts = vec![BTreeSet::new(); program.stmt_count()];
    let mut after: Facts = before.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for s in program.all_stmt_ids() {
            let mut input = BTreeSet::new();
            for &(p, _) in ticfg.preds(s) {
                input.extend(after[p.index()].iter().copied());
            }
            let mut output = input.clone();
            if let Some(cell) = strong.get(&s) {
                output.retain(|d| *d == s || strong.get(d) != Some(cell));
            }
            if defs.contains(&s) {
                output.insert(s);
            }
            changed |= before[s.index()] != input || after[s.index()] != output;
            before[s.index()] = input;
            after[s.index()] = output;
        }
    }
    (before, after)
}

/// The bitset solution equals the set-based reference at every statement
/// of 251 programs: the 11 bugbase programs, 24 seeded synthetic programs
/// per injected pattern (216) and 24 clean controls. A wrong kill mask, a
/// missed def bit or a solver that stops re-queuing too early fails it.
#[test]
fn bitset_reaching_defs_match_a_set_based_reference() {
    let mut programs: Vec<(String, Program)> = gist_bugbase::all_bugs()
        .into_iter()
        .map(|b| (b.name.to_owned(), b.program))
        .collect();
    let mut stream = SplitMix64::new(3);
    for _ in 0..24 {
        for pattern in PatternKind::INJECTED {
            let bug = synth::generate_with_pattern(stream.next_u64(), pattern);
            programs.push((bug.name, bug.program));
        }
    }
    for _ in 0..24 {
        let bug = synth::generate_control(stream.next_u64());
        programs.push((bug.name, bug.program));
    }
    assert_eq!(programs.len(), 251);
    for (name, program) in &programs {
        let cx = AnalysisCtx::new(program);
        let rd = reaching_definitions(&cx);
        let (before, after) = reference_reaching_defs(program, cx.ticfg(), cx.points_to());
        for s in program.all_stmt_ids() {
            let got_before: BTreeSet<InstrId> = rd.before(s).iter().collect();
            let got_after: BTreeSet<InstrId> = rd.after(s).iter().collect();
            assert_eq!(got_before, before[s.index()], "{name}: before {s:?}");
            assert_eq!(got_after, after[s.index()], "{name}: after {s:?}");
        }
    }
}

#[test]
fn svfg_slices_are_subsets_of_legacy_slices() {
    for bug in gist_bugbase::all_bugs() {
        let slicer = StaticSlicer::new(&bug.program);
        for criterion in all_instrs(&bug.program) {
            let legacy = slicer.compute(criterion);
            let sparse = slicer.compute_with_svfg(criterion);
            for &s in sparse.in_program_order().iter() {
                assert!(
                    legacy.contains(s),
                    "{}: criterion {:?}: sparse slice member {:?} missing from legacy slice",
                    bug.name,
                    criterion,
                    s,
                );
            }
            assert!(
                sparse.contains(criterion),
                "{}: sparse slice must contain its own criterion {:?}",
                bug.name,
                criterion,
            );
        }
    }
}
