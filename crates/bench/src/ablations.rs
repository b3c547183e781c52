//! Ablation studies for the design decisions DESIGN.md calls out.
//!
//! 1. **No alias analysis** (paper §3.1): slice sizes with a crude
//!    may-alias overapproximation vs the paper's runtime-discovery design.
//! 2. **sdom/ipdom start-stop optimization** (§3.2.2): instrumentation
//!    points and PT driver transitions with and without the optimization.
//! 3. **AsT multiplicative growth** (§3.2.1): failure recurrences to the
//!    final sketch for doubling vs linear σ growth.
//! 4. **F-measure β = 0.5** (§3.3): how often the top-ranked predictor
//!    changes when β favors recall instead of precision.
//! 5. **Static race ranking** (`gist-analysis`): failure recurrences to
//!    the final sketch with race-candidate seeding and rank-ordered
//!    watchpoints on vs off.

use gist_bugbase::{all_bugs, BugSpec};
use gist_coop::{diagnose_bug, EvalConfig};
use gist_core::ast::Growth;
use gist_predictors::rank;
use gist_slicing::StaticSlicer;
use gist_tracking::{Planner, TrackerRuntime};
use gist_vm::{RunOutcome, Vm};

/// Slice blow-up without/with crude alias analysis.
#[derive(Clone, Debug)]
pub struct AliasRow {
    /// Bug name.
    pub bug: String,
    /// Paper-style slice size (no alias analysis).
    pub no_alias: usize,
    /// Slice size with the crude may-alias overapproximation.
    pub crude_alias: usize,
}

/// Ablation 1: slice sizes with and without crude alias analysis.
pub fn alias_ablation() -> Vec<AliasRow> {
    all_bugs()
        .iter()
        .filter_map(|bug| {
            let (_, report) = bug.find_failure(500)?;
            let slicer = StaticSlicer::new(&bug.program);
            Some(AliasRow {
                bug: bug.name.to_owned(),
                no_alias: slicer.compute_without_alias(report.failing_stmt).len(),
                crude_alias: slicer.compute_with_crude_alias(report.failing_stmt).len(),
            })
        })
        .collect()
}

/// Instrumentation cost with/without the sdom optimization.
#[derive(Clone, Debug)]
pub struct SdomRow {
    /// Bug name.
    pub bug: String,
    /// Instrumentation points with the optimization.
    pub points_sdom: usize,
    /// Instrumentation points without it.
    pub points_no_sdom: usize,
    /// PT driver transitions per run with the optimization.
    pub transitions_sdom: f64,
    /// PT driver transitions per run without it.
    pub transitions_no_sdom: f64,
}

/// Ablation 2: the strict-dominance start/stop optimization.
pub fn sdom_ablation(runs_per_bug: u64) -> Vec<SdomRow> {
    all_bugs()
        .iter()
        .filter_map(|bug| {
            let (_, report) = bug.find_failure(500)?;
            let slicer = StaticSlicer::new(&bug.program);
            let slice = slicer.compute(report.failing_stmt);
            let planner = Planner::new(&bug.program, slicer.ticfg());
            let tracked = slice.prefix(8);
            let with = planner.plan(tracked, 0);
            let without = planner.plan_without_sdom(tracked, 0);
            let transitions = |patch: &gist_tracking::InstrumentationPatch| -> f64 {
                let mut total = 0u64;
                for i in 0..runs_per_bug {
                    let mut tracker = TrackerRuntime::new(&bug.program, patch.clone(), 4);
                    let mut vm = Vm::new(&bug.program, bug.vm_config(40_000 + i));
                    vm.run(&mut [&mut tracker]);
                    total += tracker.finish().pt_transitions;
                }
                total as f64 / runs_per_bug.max(1) as f64
            };
            Some(SdomRow {
                bug: bug.name.to_owned(),
                points_sdom: with.instrumentation_points(),
                points_no_sdom: without.instrumentation_points(),
                transitions_sdom: transitions(&with),
                transitions_no_sdom: transitions(&without),
            })
        })
        .collect()
}

/// Latency comparison for AsT growth strategies.
#[derive(Clone, Debug)]
pub struct GrowthRow {
    /// Bug name.
    pub bug: String,
    /// Recurrences with multiplicative (doubling) growth.
    pub multiplicative: usize,
    /// Recurrences with linear (+2) growth.
    pub linear: usize,
}

/// Ablation 3: multiplicative vs linear σ growth.
pub fn growth_ablation() -> Vec<GrowthRow> {
    all_bugs()
        .iter()
        .map(|bug| {
            let run = |growth: Growth| {
                diagnose_bug(
                    bug,
                    &EvalConfig {
                        growth,
                        max_iterations: 24,
                        ..EvalConfig::default()
                    },
                )
                .recurrences
            };
            GrowthRow {
                bug: bug.name.to_owned(),
                multiplicative: run(Growth::Multiplicative),
                linear: run(Growth::Linear(2)),
            }
        })
        .collect()
}

/// β-sweep outcome for one bug.
#[derive(Clone, Debug)]
pub struct BetaRow {
    /// Bug name.
    pub bug: String,
    /// Precision of the top predictor at β = 0.5 (the paper's choice).
    pub precision_beta_half: f64,
    /// Precision of the top predictor at β = 2 (recall-favoring).
    pub precision_beta_two: f64,
}

/// Ablation 4: β = 0.5 favors precise predictors (few false positives in
/// front of the developer); β = 2 would rank high-recall noisy ones up.
pub fn beta_ablation(bug: &BugSpec, runs: u64) -> Option<BetaRow> {
    use gist_core::server::observations;
    let (_, report) = bug.find_failure(500)?;
    let slicer = StaticSlicer::new(&bug.program);
    let slice = slicer.compute(report.failing_stmt);
    let planner = Planner::new(&bug.program, slicer.ticfg());
    let patch = planner.plan(slice.prefix(8), 0);
    let signature = report.signature();
    let obs: Vec<_> = (0..runs)
        .map(|i| {
            let mut tracker = TrackerRuntime::new(&bug.program, patch.clone(), 4);
            let mut vm = Vm::new(&bug.program, bug.vm_config(70_000 + i));
            let r = vm.run(&mut [&mut tracker]);
            let failing = match r.outcome {
                RunOutcome::Failed(rep) => rep.signature() == signature,
                RunOutcome::Finished => false,
            };
            observations(&tracker.finish(), failing)
        })
        .collect();
    let top_precision = |beta: f64| {
        rank(&obs, beta)
            .first()
            .map(|s| s.precision())
            .unwrap_or(0.0)
    };
    Some(BetaRow {
        bug: bug.name.to_owned(),
        precision_beta_half: top_precision(0.5),
        precision_beta_two: top_precision(2.0),
    })
}

/// Recurrences-to-sketch with and without race ranking for one bug.
#[derive(Clone, Debug)]
pub struct RankingRow {
    /// Bug name.
    pub bug: String,
    /// Failure recurrences with seeding + watch ordering enabled.
    pub recurrences_on: usize,
    /// Failure recurrences with both disabled (slice order only).
    pub recurrences_off: usize,
    /// Root cause reached with ranking on.
    pub found_on: bool,
    /// Root cause reached with ranking off.
    pub found_off: bool,
}

/// Ablation 5: the static race detector's seeding + watch ordering.
pub fn ranking_ablation() -> Vec<RankingRow> {
    all_bugs()
        .iter()
        .map(|bug| {
            let run = |enable: bool| {
                diagnose_bug(
                    bug,
                    &EvalConfig {
                        enable_race_ranking: enable,
                        ..EvalConfig::default()
                    },
                )
            };
            let on = run(true);
            let off = run(false);
            RankingRow {
                bug: bug.name.to_owned(),
                recurrences_on: on.recurrences,
                recurrences_off: off.recurrences,
                found_on: on.found_root_cause,
                found_off: off.found_root_cause,
            }
        })
        .collect()
}

/// One bug's row of the `--dataflow` ablation: alias-aware slicing ×
/// dead-store pruning (`gist-analysis` dataflow results in the pipeline).
#[derive(Clone, Debug)]
pub struct DataflowRow {
    /// Bug name.
    pub bug: String,
    /// Static slice size without alias analysis (PR-1 behaviour).
    pub slice_no_alias: usize,
    /// Static slice size with points-to alias-aware pulling.
    pub slice_alias: usize,
    /// Root-cause statements inside the alias-free static slice.
    pub root_in_slice_no_alias: bool,
    /// Root-cause statements inside the alias-aware static slice.
    pub root_in_slice_alias: bool,
    /// Watchpoint candidates for the full slice (pre-budget pool the
    /// 4-register groups are drawn from), no dead-store filter.
    pub watchpoints_unpruned: usize,
    /// Watchpoint candidates with liveness-based dead stores removed.
    pub watchpoints_pruned: usize,
    /// Overall accuracy for (alias, dead-store pruning) =
    /// (on,on), (on,off), (off,on), (off,off).
    pub overall: [f64; 4],
    /// Root cause found, same configuration order.
    pub found: [bool; 4],
}

/// Computes one bug's `--dataflow` row.
pub fn dataflow_row(bug: &BugSpec) -> Option<DataflowRow> {
    let (_, report) = bug.find_failure(500)?;
    let slicer = StaticSlicer::new(&bug.program);
    let no_alias = slicer.compute_without_alias(report.failing_stmt);
    let alias = slicer.compute(report.failing_stmt);
    let root = bug.root_cause_stmts();
    let in_slice = |s: &gist_slicing::Slice| root.iter().all(|&r| s.contains(r));

    // Watchpoint plans over the full alias-aware slice, with and without
    // the dead-store filter.
    let mut dead = gist_analysis::dead_stores(slicer.facts());
    dead.remove(&report.failing_stmt);
    let unpruned = Planner::new(&bug.program, slicer.ticfg())
        .watch_candidates(&alias.ordered)
        .len();
    let pruned = Planner::new(&bug.program, slicer.ticfg())
        .with_dead_store_filter(dead)
        .watch_candidates(&alias.ordered)
        .len();

    let run = |alias_on: bool, dsp_on: bool| {
        diagnose_bug(
            bug,
            &EvalConfig {
                enable_alias_slicing: alias_on,
                enable_dead_store_pruning: dsp_on,
                ..EvalConfig::default()
            },
        )
    };
    let evals = [
        run(true, true),
        run(true, false),
        run(false, true),
        run(false, false),
    ];
    Some(DataflowRow {
        bug: bug.name.to_owned(),
        slice_no_alias: no_alias.len(),
        slice_alias: alias.len(),
        root_in_slice_no_alias: in_slice(&no_alias),
        root_in_slice_alias: in_slice(&alias),
        watchpoints_unpruned: unpruned,
        watchpoints_pruned: pruned,
        overall: [
            evals[0].overall,
            evals[1].overall,
            evals[2].overall,
            evals[3].overall,
        ],
        found: [
            evals[0].found_root_cause,
            evals[1].found_root_cause,
            evals[2].found_root_cause,
            evals[3].found_root_cause,
        ],
    })
}

/// The full `--dataflow` ablation across the bugbase.
pub fn dataflow_ablation() -> Vec<DataflowRow> {
    all_bugs().iter().filter_map(dataflow_row).collect()
}

/// One bug's row of the `svfg` ablation: sparse value-flow slicing with
/// path-feasibility pruning vs the flow-insensitive worklist slicer.
#[derive(Clone, Debug)]
pub struct SvfgRow {
    /// Bug name.
    pub bug: String,
    /// Legacy (flow-insensitive, alias-aware) slice size.
    pub slice_legacy: usize,
    /// Sparse value-flow slice size (1-CFA + feasibility pruning).
    pub slice_svfg: usize,
    /// Root-cause statements inside the sparse slice.
    pub root_in_slice_svfg: bool,
    /// Watchpoint candidate pool drawn from the legacy slice.
    pub watchpoints_legacy: usize,
    /// Watchpoint candidate pool drawn from the sparse slice.
    pub watchpoints_svfg: usize,
    /// Overall accuracy with sparse slicing + value-flow watch ranking.
    pub overall_on: f64,
    /// Overall accuracy with the legacy slicer.
    pub overall_off: f64,
    /// Root cause found with sparse slicing on / off.
    pub found: [bool; 2],
}

/// Computes one bug's `svfg` row.
pub fn svfg_row(bug: &BugSpec) -> Option<SvfgRow> {
    let (_, report) = bug.find_failure(500)?;
    let slicer = StaticSlicer::new(&bug.program);
    let legacy = slicer.compute(report.failing_stmt);
    let sparse = slicer.compute_with_svfg(report.failing_stmt);
    let root = bug.root_cause_stmts();
    let run = |on: bool| {
        diagnose_bug(
            bug,
            &EvalConfig {
                enable_svfg_slicing: on,
                ..EvalConfig::default()
            },
        )
    };
    let on = run(true);
    let off = run(false);
    // The legacy pool is slice-order candidates; the sparse pool adds the
    // value-flow distance filter the sparse pipeline plans with.
    let legacy_pool = Planner::new(&bug.program, slicer.ticfg())
        .watch_candidates(&legacy.ordered)
        .len();
    let distances = slicer.svfg().backward_value_flow(report.failing_stmt);
    let sparse_pool = Planner::new(&bug.program, slicer.ticfg())
        .with_distance_rank(distances)
        .watch_candidates(&sparse.ordered)
        .len();
    Some(SvfgRow {
        bug: bug.name.to_owned(),
        slice_legacy: legacy.len(),
        slice_svfg: sparse.len(),
        root_in_slice_svfg: root.iter().all(|&r| sparse.contains(r)),
        watchpoints_legacy: legacy_pool,
        watchpoints_svfg: sparse_pool,
        overall_on: on.overall,
        overall_off: off.overall,
        found: [on.found_root_cause, off.found_root_cause],
    })
}

/// The full `svfg` ablation across the bugbase.
pub fn svfg_ablation() -> Vec<SvfgRow> {
    all_bugs().iter().filter_map(svfg_row).collect()
}

/// Renders the `svfg` ablation as text.
pub fn svfg_text() -> String {
    let rows = svfg_ablation();
    let mut out = String::new();
    out.push_str("SVFG ablation — sparse value-flow slicing + feasibility pruning\n\n");
    out.push_str(&format!(
        "{:<18} {:>9} {:>9} {:>5} {:>8} {:>8} {:>8} {:>8}\n",
        "bug", "slice-l", "slice-s", "rc-s", "wp-l", "wp-s", "A(on)", "A(off)"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<18} {:>9} {:>9} {:>5} {:>8} {:>8} {:>8.1} {:>8.1}\n",
            r.bug,
            r.slice_legacy,
            r.slice_svfg,
            if r.root_in_slice_svfg { "yes" } else { "no" },
            r.watchpoints_legacy,
            r.watchpoints_svfg,
            r.overall_on,
            r.overall_off,
        ));
    }
    let n = rows.len().max(1) as f64;
    out.push_str(&format!(
        "\naverage overall: sparse {:.1}%  legacy {:.1}%\n",
        rows.iter().map(|r| r.overall_on).sum::<f64>() / n,
        rows.iter().map(|r| r.overall_off).sum::<f64>() / n,
    ));
    out.push_str(&format!(
        "watchpoint pool: {} legacy -> {} with sparse value-flow slicing\n",
        rows.iter().map(|r| r.watchpoints_legacy).sum::<usize>(),
        rows.iter().map(|r| r.watchpoints_svfg).sum::<usize>(),
    ));
    out
}

/// One bug's row of the `mhp` ablation: happens-before/MHP pruning of
/// interleaving hypotheses and never-parallel watchpoint candidates vs
/// the unpruned pipeline.
#[derive(Clone, Debug)]
pub struct MhpRow {
    /// Bug name.
    pub bug: String,
    /// Watchpoint candidate pool without MHP pruning.
    pub pool_off: usize,
    /// Watchpoint candidate pool with never-parallel stores dropped.
    pub pool_on: usize,
    /// AsT iterations to convergence with MHP pruning on / off.
    pub iterations: [usize; 2],
    /// Overall accuracy with MHP pruning on / off.
    pub overall: [f64; 2],
    /// Root cause found with MHP pruning on / off.
    pub found: [bool; 2],
}

/// Computes one bug's `mhp` row.
pub fn mhp_row(bug: &BugSpec) -> Option<MhpRow> {
    let (_, report) = bug.find_failure(500)?;
    let slicer = StaticSlicer::new(&bug.program);
    let sparse = slicer.compute_with_svfg(report.failing_stmt);
    let distances = slicer.svfg().backward_value_flow(report.failing_stmt);
    // Mirror the server's watchpoint pool: sparse slice, value-flow
    // distance ranking, and (on the MHP side) never-parallel stores
    // dropped — the failing statement always stays watchable.
    let pool_off = Planner::new(&bug.program, slicer.ticfg())
        .with_distance_rank(distances.clone())
        .watch_candidates(&sparse.ordered)
        .len();
    let facts = slicer.facts();
    let mut never_parallel = facts
        .mhp()
        .never_parallel_stores(&bug.program, facts.points_to());
    never_parallel.remove(&report.failing_stmt);
    let pool_on = Planner::new(&bug.program, slicer.ticfg())
        .with_distance_rank(distances)
        .with_mhp_filter(never_parallel)
        .watch_candidates(&sparse.ordered)
        .len();
    let run = |on: bool| {
        diagnose_bug(
            bug,
            &EvalConfig {
                enable_mhp: on,
                ..EvalConfig::default()
            },
        )
    };
    let on = run(true);
    let off = run(false);
    Some(MhpRow {
        bug: bug.name.to_owned(),
        pool_off,
        pool_on,
        iterations: [on.iterations, off.iterations],
        overall: [on.overall, off.overall],
        found: [on.found_root_cause, off.found_root_cause],
    })
}

/// The full `mhp` ablation across the bugbase.
pub fn mhp_ablation() -> Vec<MhpRow> {
    all_bugs().iter().filter_map(mhp_row).collect()
}

/// Renders the `mhp` ablation as text.
pub fn mhp_text() -> String {
    let rows = mhp_ablation();
    let mut out = String::new();
    out.push_str("MHP ablation — happens-before pruning of hypotheses and watchpoints\n\n");
    out.push_str(&format!(
        "{:<18} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8} {:>6} {:>7}\n",
        "bug", "pool", "pool-mhp", "iter", "iter-mhp", "A(on)", "A(off)", "found", "found-"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<18} {:>8} {:>8} {:>8} {:>9} {:>8.1} {:>8.1} {:>6} {:>7}\n",
            r.bug,
            r.pool_off,
            r.pool_on,
            r.iterations[1],
            r.iterations[0],
            r.overall[0],
            r.overall[1],
            if r.found[0] { "yes" } else { "no" },
            if r.found[1] { "yes" } else { "no" },
        ));
    }
    let n = rows.len().max(1) as f64;
    out.push_str(&format!(
        "\naverage overall: mhp {:.1}%  unpruned {:.1}%\n",
        rows.iter().map(|r| r.overall[0]).sum::<f64>() / n,
        rows.iter().map(|r| r.overall[1]).sum::<f64>() / n,
    ));
    out.push_str(&format!(
        "watchpoint pool: {} unpruned -> {} with MHP never-parallel pruning\n",
        rows.iter().map(|r| r.pool_off).sum::<usize>(),
        rows.iter().map(|r| r.pool_on).sum::<usize>(),
    ));
    out.push_str(&format!(
        "AsT iterations: {} unpruned -> {} with MHP hypothesis pruning\n",
        rows.iter().map(|r| r.iterations[1]).sum::<usize>(),
        rows.iter().map(|r| r.iterations[0]).sum::<usize>(),
    ));
    out
}

/// Renders the `--dataflow` ablation as text.
pub fn dataflow_text() -> String {
    let rows = dataflow_ablation();
    let mut out = String::new();
    out.push_str("Dataflow ablation — alias-aware slicing x dead-store pruning\n\n");
    out.push_str(&format!(
        "{:<18} {:>9} {:>9} {:>5} {:>5} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8}\n",
        "bug",
        "slice-na",
        "slice-a",
        "rc-na",
        "rc-a",
        "wp",
        "wp-dsp",
        "A(a,d)",
        "A(a,-)",
        "A(-,d)",
        "A(-,-)"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<18} {:>9} {:>9} {:>5} {:>5} {:>7} {:>7} {:>8.1} {:>8.1} {:>8.1} {:>8.1}\n",
            r.bug,
            r.slice_no_alias,
            r.slice_alias,
            if r.root_in_slice_no_alias {
                "yes"
            } else {
                "no"
            },
            if r.root_in_slice_alias { "yes" } else { "no" },
            r.watchpoints_unpruned,
            r.watchpoints_pruned,
            r.overall[0],
            r.overall[1],
            r.overall[2],
            r.overall[3],
        ));
    }
    let n = rows.len().max(1) as f64;
    let avg = |i: usize| rows.iter().map(|r| r.overall[i]).sum::<f64>() / n;
    out.push_str(&format!(
        "\naverage overall: alias+dsp {:.1}%  alias {:.1}%  dsp {:.1}%  neither {:.1}%\n",
        avg(0),
        avg(1),
        avg(2),
        avg(3)
    ));
    out.push_str(&format!(
        "planned watchpoints: {} unpruned -> {} with dead-store pruning\n",
        rows.iter().map(|r| r.watchpoints_unpruned).sum::<usize>(),
        rows.iter().map(|r| r.watchpoints_pruned).sum::<usize>(),
    ));
    out
}

/// Renders all ablations as text.
pub fn ablations_text() -> String {
    let mut out = String::new();
    out.push_str("Ablation 1 — alias analysis (paper §3.1: avoided; >50% inaccurate)\n\n");
    out.push_str(&format!(
        "{:<18} {:>16} {:>18}\n",
        "bug", "no alias (Gist)", "crude may-alias"
    ));
    for r in alias_ablation() {
        out.push_str(&format!(
            "{:<18} {:>16} {:>18}\n",
            r.bug, r.no_alias, r.crude_alias
        ));
    }
    out.push_str("\nAblation 2 — sdom/ipdom start-stop optimization (§3.2.2)\n\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>14} {:>12} {:>14}\n",
        "bug", "points", "points(no)", "trans/run", "trans/run(no)"
    ));
    for r in sdom_ablation(15) {
        out.push_str(&format!(
            "{:<18} {:>12} {:>14} {:>12.1} {:>14.1}\n",
            r.bug, r.points_sdom, r.points_no_sdom, r.transitions_sdom, r.transitions_no_sdom
        ));
    }
    out.push_str("\nAblation 3 — AsT growth: recurrences to final sketch (§3.2.1)\n\n");
    out.push_str(&format!(
        "{:<18} {:>16} {:>12}\n",
        "bug", "multiplicative", "linear(+2)"
    ));
    for r in growth_ablation() {
        out.push_str(&format!(
            "{:<18} {:>16} {:>12}\n",
            r.bug, r.multiplicative, r.linear
        ));
    }
    out.push_str("\nAblation 4 — F-measure β (§3.3: β=0.5 favors precision)\n\n");
    out.push_str(&format!(
        "{:<18} {:>14} {:>14}\n",
        "bug", "P(top) β=0.5", "P(top) β=2"
    ));
    for bug in all_bugs() {
        if let Some(r) = beta_ablation(&bug, 80) {
            out.push_str(&format!(
                "{:<18} {:>14.2} {:>14.2}\n",
                r.bug, r.precision_beta_half, r.precision_beta_two
            ));
        }
    }
    out.push_str(&crate::races::ranking_text());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_bugbase::bug_by_name;

    #[test]
    fn crude_alias_never_shrinks_a_slice() {
        for r in alias_ablation() {
            assert!(
                r.crude_alias >= r.no_alias,
                "{}: {} < {}",
                r.bug,
                r.crude_alias,
                r.no_alias
            );
        }
    }

    #[test]
    fn crude_alias_blows_up_pointer_heavy_slices() {
        let rows = alias_ablation();
        // The design decision must matter somewhere: at least a third of
        // the bugs see their monitored slice grow.
        let grew = rows.iter().filter(|r| r.crude_alias > r.no_alias).count();
        assert!(grew * 3 >= rows.len(), "{rows:?}");
    }

    #[test]
    fn sdom_optimization_saves_instrumentation() {
        let rows = sdom_ablation(6);
        for r in &rows {
            assert!(
                r.points_sdom <= r.points_no_sdom,
                "{}: {} > {}",
                r.bug,
                r.points_sdom,
                r.points_no_sdom
            );
        }
        // And strictly saves driver transitions overall.
        let with: f64 = rows.iter().map(|r| r.transitions_sdom).sum();
        let without: f64 = rows.iter().map(|r| r.transitions_no_sdom).sum();
        assert!(with <= without, "with {with} vs without {without}");
    }

    #[test]
    fn race_ranking_never_costs_recurrences_overall() {
        let rows = ranking_ablation();
        assert_eq!(rows.len(), 11);
        let on: usize = rows.iter().map(|r| r.recurrences_on).sum();
        let off: usize = rows.iter().map(|r| r.recurrences_off).sum();
        assert!(on <= off, "ranking on cost more recurrences: {on} > {off}");
        // And it never loses a root cause the unranked pipeline found.
        for r in &rows {
            assert!(
                r.found_on || !r.found_off,
                "{}: ranking lost the root cause",
                r.bug
            );
        }
    }

    #[test]
    fn dataflow_alias_recovers_pbzip2_racing_free_statically() {
        // The ISSUE's acceptance criterion: alias-aware slicing puts the
        // racing `free`/`store q, 0` into pbzip2's *static* slice (no
        // race-seeding fallback), and dead-store pruning trims the
        // watchpoint pool without costing accuracy.
        let bug = bug_by_name("pbzip2-1").unwrap();
        let r = dataflow_row(&bug).unwrap();
        assert!(
            r.root_in_slice_alias,
            "alias-aware slice holds the racing writes: {r:?}"
        );
        assert!(
            !r.root_in_slice_no_alias,
            "the alias-free slice misses them: {r:?}"
        );
        assert!(r.found[0], "full configuration reaches the root cause");
        assert!(
            r.watchpoints_pruned < r.watchpoints_unpruned,
            "dead-store pruning frees a watch slot: {r:?}"
        );
        assert!(
            r.overall[0] >= r.overall[1] - 1e-9,
            "pruning does not cost accuracy: {r:?}"
        );
    }

    #[test]
    fn dead_store_pruning_shrinks_watch_candidate_pool() {
        use gist_tracking::Planner;
        let mut total_unpruned = 0usize;
        let mut total_pruned = 0usize;
        for bug in all_bugs() {
            let Some((_, report)) = bug.find_failure(500) else {
                continue;
            };
            let slicer = StaticSlicer::new(&bug.program);
            let slice = slicer.compute(report.failing_stmt);
            let mut dead = gist_analysis::dead_stores(slicer.facts());
            dead.remove(&report.failing_stmt);
            let unpruned = Planner::new(&bug.program, slicer.ticfg())
                .watch_candidates(&slice.ordered)
                .len();
            let pruned = Planner::new(&bug.program, slicer.ticfg())
                .with_dead_store_filter(dead)
                .watch_candidates(&slice.ordered)
                .len();
            assert!(pruned <= unpruned, "{}: {pruned} > {unpruned}", bug.name);
            total_unpruned += unpruned;
            total_pruned += pruned;
        }
        assert!(
            total_pruned < total_unpruned,
            "pruning never fired: {total_pruned} vs {total_unpruned}"
        );
    }

    #[test]
    fn svfg_slices_are_subsets_and_shrink_the_watch_pool() {
        let rows = svfg_ablation();
        assert_eq!(rows.len(), 11);
        for r in &rows {
            assert!(
                r.slice_svfg <= r.slice_legacy,
                "{}: sparse slice grew: {} > {}",
                r.bug,
                r.slice_svfg,
                r.slice_legacy
            );
            assert!(
                r.root_in_slice_svfg,
                "{}: pruning lost the root cause",
                r.bug
            );
            assert!(r.found[0], "{}: sparse pipeline lost the root cause", r.bug);
        }
        let legacy: usize = rows.iter().map(|r| r.watchpoints_legacy).sum();
        let sparse: usize = rows.iter().map(|r| r.watchpoints_svfg).sum();
        assert!(
            sparse < legacy,
            "sparse slicing never freed a watch slot: {sparse} vs {legacy}"
        );
    }

    #[test]
    fn mhp_pruning_shrinks_the_pool_at_unchanged_accuracy() {
        let rows = mhp_ablation();
        assert_eq!(rows.len(), 11);
        for r in &rows {
            assert!(
                r.pool_on <= r.pool_off,
                "{}: MHP pruning grew the pool: {} > {}",
                r.bug,
                r.pool_on,
                r.pool_off
            );
            assert_eq!(
                r.found[0], r.found[1],
                "{}: MHP pruning changed root-cause discovery",
                r.bug
            );
            assert!(
                r.overall[0] >= r.overall[1] - 1e-9,
                "{}: MHP pruning cost accuracy: {:.1} < {:.1}",
                r.bug,
                r.overall[0],
                r.overall[1]
            );
        }
        let off: usize = rows.iter().map(|r| r.pool_off).sum();
        let on: usize = rows.iter().map(|r| r.pool_on).sum();
        let iter_on: usize = rows.iter().map(|r| r.iterations[0]).sum();
        let iter_off: usize = rows.iter().map(|r| r.iterations[1]).sum();
        assert!(
            on < off || (on == off && iter_on < iter_off),
            "MHP pruning never fired: pool {on} vs {off}, iterations {iter_on} vs {iter_off}"
        );
    }

    #[test]
    fn beta_half_top_predictor_is_precise_for_pbzip2() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let r = beta_ablation(&bug, 80).unwrap();
        assert!(
            r.precision_beta_half >= r.precision_beta_two - 1e-9,
            "{r:?}"
        );
    }
}
