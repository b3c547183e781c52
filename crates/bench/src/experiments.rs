//! Experiment drivers, one per table/figure.

use std::sync::Arc;

use gist_baselines::{CostModel, Recorder, SoftwareTracer};
use gist_bugbase::{all_bugs, bug_by_name, BugSpec};
use gist_coop::{diagnose_bug, BugEvaluation, EvalConfig};
use gist_core::server::CostSummary;
use gist_pt::{PtConfig, PtDriver, PtTracer};
use gist_slicing::StaticSlicer;
use gist_tracking::{Planner, PreparedPatch, TrackerRuntime};
use gist_vm::{CompiledProgram, Vm};

use crate::trace_tool::{kind_line, Journal};

/// Table 1: full diagnosis of every bug with the paper's defaults
/// (σ₀ = 2, multiplicative growth, β = 0.5).
pub fn table1() -> Vec<BugEvaluation> {
    all_bugs()
        .iter()
        .map(|bug| diagnose_bug(bug, &EvalConfig::default()))
        .collect()
}

/// One bar group of Fig. 10: overall accuracy per tracking configuration.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// Bug short name.
    pub bug: String,
    /// Static slicing only.
    pub static_only: f64,
    /// Static slicing + Intel PT control-flow tracking.
    pub with_control_flow: f64,
    /// Full Gist (+ watchpoint data-flow tracking).
    pub full: f64,
}

/// Fig. 10: contribution of each technique to sketch accuracy.
pub fn fig10() -> Vec<Fig10Row> {
    all_bugs()
        .iter()
        .map(|bug| {
            let run = |cf: bool, df: bool| {
                diagnose_bug(
                    bug,
                    &EvalConfig {
                        enable_control_flow: cf,
                        enable_data_flow: df,
                        // Legacy slicing in every arm: Fig. 10 isolates the
                        // *runtime tracking* techniques, and the sparse
                        // value-flow slice (its own `repro knobs` arm) would
                        // otherwise statically subsume part of what
                        // data-flow tracking discovers dynamically.
                        enable_svfg_slicing: false,
                        // Same σ budget in all configurations so the
                        // comparison isolates the tracking technique.
                        stop_at_root_cause: false,
                        max_iterations: 5,
                        failing_per_iteration: 4,
                        ..EvalConfig::default()
                    },
                )
                .overall
            };
            Fig10Row {
                bug: bug.name.to_owned(),
                static_only: run(false, false),
                with_control_flow: run(true, false),
                full: run(true, true),
            }
        })
        .collect()
}

/// One point of Fig. 11: average client overhead at a fixed tracked size.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Tracked slice size (statements).
    pub slice_size: usize,
    /// Average modeled overhead percentage across bugs.
    pub overhead_pct: f64,
}

/// Fig. 11: overhead as a function of tracked slice size.
pub fn fig11(runs_per_point: u64) -> Vec<Fig11Row> {
    let model = CostModel::default();
    let bugs = all_bugs();
    let mut rows = Vec::new();
    for size in (2..=24).step_by(2) {
        let mut pcts = Vec::new();
        for bug in &bugs {
            if let Some(cost) = tracked_cost(bug, size, runs_per_point) {
                pcts.push(model.gist_overhead_pct(&cost));
            }
        }
        let avg = pcts.iter().sum::<f64>() / pcts.len().max(1) as f64;
        rows.push(Fig11Row {
            slice_size: size,
            overhead_pct: avg,
        });
    }
    rows
}

/// Runs `n` production runs of `bug` tracking the first `size` slice
/// statements, returning the aggregate cost. As the server does, it
/// compiles the program once and prepares each watch group's patch once;
/// run `i` carries group `i % groups`.
fn tracked_cost(bug: &BugSpec, size: usize, n: u64) -> Option<CostSummary> {
    let (_, report) = bug.find_failure(500)?;
    let slicer = StaticSlicer::new(&bug.program);
    let slice = slicer.compute(report.failing_stmt);
    let planner = Planner::new(&bug.program, slicer.ticfg());
    let tracked = slice.prefix(size);
    let patches: Vec<Arc<PreparedPatch>> = (0..planner.watch_groups(tracked))
        .map(|g| Arc::new(PreparedPatch::new(&bug.program, planner.plan(tracked, g))))
        .collect();
    let compiled = Arc::new(CompiledProgram::compile(&bug.program));
    let mut cost = CostSummary::default();
    for i in 0..n {
        let patch = Arc::clone(&patches[(i as usize) % patches.len()]);
        let mut tracker = TrackerRuntime::with_prepared(&bug.program, patch, 4);
        let mut vm = Vm::with_compiled(
            &bug.program,
            Arc::clone(&compiled),
            bug.vm_config(10_000 + i),
        );
        let result = vm.run(&mut [&mut tracker]);
        cost.absorb(&tracker.finish(), result.steps);
    }
    Some(cost)
}

/// One point of Fig. 12: the σ₀ tradeoff.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Initial σ.
    pub sigma0: usize,
    /// Average overall accuracy across bugs (percent).
    pub avg_accuracy: f64,
    /// Average failure recurrences to the final sketch.
    pub avg_recurrences: f64,
}

/// Fig. 12: initial slice size vs accuracy and latency.
pub fn fig12() -> Vec<Fig12Row> {
    let bugs = all_bugs();
    [2usize, 4, 8, 16, 23, 32]
        .into_iter()
        .map(|sigma0| {
            let mut acc = Vec::new();
            let mut rec = Vec::new();
            for bug in &bugs {
                let eval = diagnose_bug(
                    bug,
                    &EvalConfig {
                        sigma0,
                        ..EvalConfig::default()
                    },
                );
                acc.push(eval.overall);
                rec.push(eval.recurrences as f64);
            }
            Fig12Row {
                sigma0,
                avg_accuracy: acc.iter().sum::<f64>() / acc.len().max(1) as f64,
                avg_recurrences: rec.iter().sum::<f64>() / rec.len().max(1) as f64,
            }
        })
        .collect()
}

/// One bar pair of Fig. 13: full-tracing overheads per program.
#[derive(Clone, Debug)]
pub struct Fig13Row {
    /// Bug / program name.
    pub program: String,
    /// Record/replay modeled overhead (percent).
    pub rr_pct: f64,
    /// Intel PT full-tracing modeled overhead (percent).
    pub pt_pct: f64,
    /// rr log bytes per run (average).
    pub rr_bytes: f64,
    /// PT trace bytes per run (average).
    pub pt_bytes: f64,
    /// PT trace bits per retired statement.
    pub bits_per_retired: f64,
}

/// Fig. 13: Mozilla-rr-style record/replay vs Intel PT, full tracing.
pub fn fig13(runs: u64) -> Vec<Fig13Row> {
    let model = CostModel::default();
    all_bugs()
        .iter()
        .map(|bug| {
            let mut rr_events = 0u64;
            let mut rr_bytes = 0u64;
            let mut pt_bytes = 0u64;
            let mut retired = 0u64;
            for seed in 0..runs {
                let cfg = bug.vm_config(seed);
                let rec = Recorder::record(&bug.program, cfg.clone());
                rr_events += rec.event_count();
                rr_bytes += rec.log_bytes() as u64;
                let mut tracer =
                    PtTracer::new(&bug.program, PtDriver::always_on(), PtConfig::default());
                let mut vm = Vm::new(&bug.program, cfg);
                let r = vm.run(&mut [&mut tracer]);
                tracer.finish();
                pt_bytes += tracer.total_bytes() as u64;
                retired += r.steps;
            }
            Fig13Row {
                program: bug.name.to_owned(),
                rr_pct: model.rr_overhead_pct(rr_events, retired),
                pt_pct: model.pt_full_overhead_pct(pt_bytes, retired),
                rr_bytes: rr_bytes as f64 / runs.max(1) as f64,
                pt_bytes: pt_bytes as f64 / runs.max(1) as f64,
                bits_per_retired: if retired == 0 {
                    0.0
                } else {
                    pt_bytes as f64 * 8.0 / retired as f64
                },
            }
        })
        .collect()
}

/// One row of the §5.3 overhead breakdown at σ = 2.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Bug short name.
    pub bug: String,
    /// Total Gist overhead (percent).
    pub total_pct: f64,
    /// Control-flow tracking share (PT bytes + transitions).
    pub control_flow_pct: f64,
    /// Data-flow tracking share (traps + debug-register ops).
    pub data_flow_pct: f64,
}

/// §5.3: per-bug client overhead with AsT's initial σ = 2.
pub fn overhead_sigma2(runs_per_bug: u64) -> Vec<OverheadRow> {
    let model = CostModel::default();
    all_bugs()
        .iter()
        .filter_map(|bug| {
            let cost = tracked_cost(bug, 2, runs_per_bug)?;
            let cf = cost.pt_bytes as f64 * model.pt_byte
                + cost.pt_transitions as f64 * model.pt_transition;
            let df = cost.watch_traps as f64 * model.watch_trap
                + cost.ptrace_ops as f64 * model.ptrace_op;
            let denom = cost.total_retired as f64;
            Some(OverheadRow {
                bug: bug.name.to_owned(),
                total_pct: 100.0 * (cf + df) / denom,
                control_flow_pct: 100.0 * cf / denom,
                data_flow_pct: 100.0 * df / denom,
            })
        })
        .collect()
}

/// §6: software control-flow tracing overhead factors per program.
pub fn swtrace_rows(runs: u64) -> Vec<(String, f64)> {
    let model = CostModel::default();
    all_bugs()
        .iter()
        .map(|bug| {
            let mut stmts = 0u64;
            let mut branches = 0u64;
            for seed in 0..runs {
                let mut sw = SoftwareTracer::new();
                let mut vm = Vm::new(&bug.program, bug.vm_config(seed));
                vm.run(&mut [&mut sw]);
                stmts += sw.instrumented_stmts;
                branches += sw.recorded_branches;
            }
            (
                bug.name.to_owned(),
                model.sw_trace_overhead_pct(stmts, branches),
            )
        })
        .collect()
}

/// Renders a bug's final failure sketch (Figs. 1, 7, 8).
pub fn sketch_for(name: &str) -> Option<String> {
    let bug = bug_by_name(name)?;
    let eval = diagnose_bug(&bug, &EvalConfig::default());
    Some(eval.sketch.render())
}

/// Renders a bug's failure sketch with its provenance chains resolved
/// against the diagnosis's own flight-recorder journal (`repro -- sketch
/// <bug> --explain`). The journal is reset first so the explain output
/// covers exactly this diagnosis.
pub fn sketch_for_explained(name: &str) -> Option<String> {
    let bug = bug_by_name(name)?;
    gist_obs::reset();
    let eval = diagnose_bug(&bug, &EvalConfig::default());
    let journal = Journal::from_events(gist_obs::journal::drain().0);
    // `render_explain` prints each chain entry's seq itself.
    let resolve = |seq: u64| journal.event_by_seq(seq).map(|e| kind_line(&e.kind));
    Some(gist_sketch::render::render_explain(&eval.sketch, &resolve))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_costs_are_monotone_in_slice_size_overall() {
        // The overhead curve rises with the tracked slice size (the paper's
        // Fig. 11 shows monotone growth with flat stretches); compare the
        // first and last points rather than every adjacent pair.
        let rows = fig11(6);
        assert!(rows.len() >= 5);
        assert!(
            rows.last().unwrap().overhead_pct >= rows.first().unwrap().overhead_pct,
            "{rows:?}"
        );
    }

    #[test]
    fn fig13_rr_dominates_pt_everywhere() {
        for row in fig13(4) {
            assert!(
                row.rr_pct > row.pt_pct,
                "{}: rr {:.1}% vs pt {:.1}%",
                row.program,
                row.rr_pct,
                row.pt_pct
            );
            assert!(row.rr_bytes > row.pt_bytes);
        }
    }

    #[test]
    fn sketch_renders_for_the_figure_bugs() {
        for name in ["pbzip2-1", "curl-965", "apache-21287"] {
            let s = sketch_for(name).expect("bug exists");
            assert!(s.contains("Failure Sketch"), "{name}: {s}");
            assert!(s.contains("Thread T"), "{name}");
        }
    }
}
