//! The per-bug evaluation harness behind Table 1 and Figs. 9/10/12.

use gist_bugbase::BugSpec;
use gist_core::ast::Growth;
use gist_core::server::CostSummary;
use gist_core::{diagnose_until, CoverageTarget, GistConfig, GistServer};
use gist_sketch::accuracy::{measure, Accuracy};
use gist_sketch::FailureSketch;

use crate::fleet::{FleetConfig, SimulatedFleet};

/// Evaluation knobs (mirrors the paper's experimental parameters). Every
/// `enable_*` toggle is on by default; `repro knobs` turns each off alone
/// and tabulates its effect.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Initial σ (paper default 2; Fig. 12 sweeps this).
    pub sigma0: usize,
    /// σ growth strategy.
    pub growth: Growth,
    /// Failure recurrences gathered per AsT iteration.
    pub failing_per_iteration: usize,
    /// Run budget per iteration.
    pub max_runs_per_iteration: usize,
    /// AsT iteration cap.
    pub max_iterations: usize,
    /// Track control flow (Intel PT) — Fig. 10 ablation.
    pub enable_control_flow: bool,
    /// Track data flow (watchpoints) — Fig. 10 ablation.
    pub enable_data_flow: bool,
    /// Seed tracking and order watchpoints from the static race detector
    /// (`gist-analysis`).
    pub enable_race_ranking: bool,
    /// Alias-aware slicing via points-to.
    pub enable_alias_slicing: bool,
    /// Sparse value-flow (SVFG) slicing with path-feasibility pruning.
    pub enable_svfg_slicing: bool,
    /// Happens-before/MHP pruning of interleaving hypotheses and the
    /// watchpoint pool.
    pub enable_mhp: bool,
    /// Dead-store pruning of watchpoint plans.
    pub enable_dead_store_pruning: bool,
    /// Fleet shape.
    pub fleet: FleetConfig,
    /// Keep iterating until the sketch covers the ideal sketch and the
    /// root cause (true — the paper's developer refining to the *best*
    /// sketch), or only until AsT saturates (false).
    pub stop_at_root_cause: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            sigma0: 2,
            growth: Growth::Multiplicative,
            failing_per_iteration: 6,
            max_runs_per_iteration: 600,
            max_iterations: 12,
            enable_control_flow: true,
            enable_data_flow: true,
            enable_race_ranking: true,
            enable_alias_slicing: true,
            enable_svfg_slicing: true,
            enable_mhp: true,
            enable_dead_store_pruning: true,
            fleet: FleetConfig::default(),
            stop_at_root_cause: true,
        }
    }
}

impl EvalConfig {
    /// The server configuration these knobs select, with the rendered
    /// sketch's `title` and `bug_class`.
    pub fn gist_config(&self, title: String, bug_class: String) -> GistConfig {
        GistConfig {
            sigma0: self.sigma0,
            growth: self.growth,
            beta: 0.5,
            failing_runs_per_iteration: self.failing_per_iteration,
            max_runs_per_iteration: self.max_runs_per_iteration,
            max_iterations: self.max_iterations,
            enable_control_flow: self.enable_control_flow,
            enable_data_flow: self.enable_data_flow,
            enable_race_ranking: self.enable_race_ranking,
            enable_alias_slicing: self.enable_alias_slicing,
            enable_svfg_slicing: self.enable_svfg_slicing,
            enable_mhp: self.enable_mhp,
            enable_dead_store_pruning: self.enable_dead_store_pruning,
            title,
            bug_class,
        }
    }
}

/// The outcome of evaluating Gist on one bug (one Table 1 row plus the
/// Fig. 9 accuracy bars).
#[derive(Clone, Debug)]
pub struct BugEvaluation {
    /// Bug short name.
    pub bug: String,
    /// Static slice size in source lines (our miniature).
    pub slice_src: usize,
    /// Static slice size in IR statements.
    pub slice_instrs: usize,
    /// Ideal sketch size in source lines.
    pub ideal_src: usize,
    /// Ideal sketch size in IR statements.
    pub ideal_instrs: usize,
    /// Gist sketch size in source lines.
    pub sketch_src: usize,
    /// Gist sketch size in IR statements.
    pub sketch_instrs: usize,
    /// Failure recurrences consumed.
    pub recurrences: usize,
    /// Total production runs consumed.
    pub total_runs: usize,
    /// AsT iterations.
    pub iterations: usize,
    /// Final σ.
    pub final_sigma: usize,
    /// Relevance accuracy A_R (percent).
    pub relevance: f64,
    /// Ordering accuracy A_O (percent).
    pub ordering: f64,
    /// Overall accuracy A (percent).
    pub overall: f64,
    /// Whether the final sketch contains all root-cause statements.
    pub found_root_cause: bool,
    /// Aggregate client cost counters.
    pub cost: CostSummary,
    /// The rendered final sketch.
    pub sketch: FailureSketch,
}

/// Runs the full Gist pipeline on one bug and scores the result.
pub fn diagnose_bug(bug: &BugSpec, cfg: &EvalConfig) -> BugEvaluation {
    let (_, report) = bug
        .find_failure(2_000)
        .unwrap_or_else(|| panic!("{}: bug never manifests", bug.name));
    let server = GistServer::new(
        &bug.program,
        cfg.gist_config(
            format!("Failure Sketch for {}", bug.display),
            bug.class.label().to_owned(),
        ),
    );
    let mut fleet = SimulatedFleet::for_bug(bug, cfg.fleet.clone());
    // Stop once every ideal-sketch and root-cause line is on the sketch.
    let target = if cfg.stop_at_root_cause {
        CoverageTarget::from_groups(
            bug.ideal_lines
                .iter()
                .chain(&bug.root_cause_lines)
                .map(|&(file, line)| bug.stmts_at(file, line))
                .collect(),
        )
    } else {
        // An unachievable target: run AsT to saturation (ablations).
        CoverageTarget::from_groups(vec![Vec::new()])
    };
    let ideal_set = bug.ideal_stmts();
    let result = diagnose_until(&server, &report, &mut fleet, Some(&ideal_set), &target);

    let ideal = bug.ideal_sketch();
    let acc: Accuracy = measure(&result.sketch, &ideal);
    let sketch_stmts = result.sketch.stmts();
    let found = {
        let s: std::collections::BTreeSet<_> = sketch_stmts.iter().copied().collect();
        bug.root_cause_covered(&s)
    };
    BugEvaluation {
        bug: bug.name.to_owned(),
        slice_src: result.slice.source_loc_count(&bug.program),
        slice_instrs: result.slice.len(),
        ideal_src: ideal.source_loc,
        ideal_instrs: ideal.stmts.len(),
        sketch_src: bug.program.source_loc_count(sketch_stmts.iter()),
        sketch_instrs: sketch_stmts.len(),
        recurrences: result.recurrences,
        total_runs: result.total_runs,
        iterations: result.iterations,
        final_sigma: result.final_sigma,
        relevance: acc.relevance,
        ordering: acc.ordering,
        overall: acc.overall(),
        found_root_cause: found,
        cost: result.cost,
        sketch: result.sketch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_bugbase::bug_by_name;

    #[test]
    fn pbzip2_diagnosis_finds_root_cause_with_high_accuracy() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let eval = diagnose_bug(&bug, &EvalConfig::default());
        assert!(eval.found_root_cause, "sketch: {}", eval.sketch.render());
        assert!(
            eval.overall >= 70.0,
            "overall accuracy {:.1}%, sketch:\n{}",
            eval.overall,
            eval.sketch.render()
        );
        assert!(eval.recurrences >= 1);
        assert!(eval.slice_instrs >= eval.sketch_instrs / 2);
    }

    #[test]
    fn curl_diagnosis_is_sequential_and_accurate() {
        let bug = bug_by_name("curl-965").unwrap();
        let eval = diagnose_bug(&bug, &EvalConfig::default());
        assert!(eval.found_root_cause, "sketch: {}", eval.sketch.render());
        assert!(eval.overall >= 70.0, "overall {:.1}", eval.overall);
        assert!(eval.sketch.failure_type.contains("Sequential"));
    }

    #[test]
    fn static_only_is_less_accurate_than_full_gist() {
        let bug = bug_by_name("apache-21287").unwrap();
        let full = diagnose_bug(&bug, &EvalConfig::default());
        let static_only = diagnose_bug(
            &bug,
            &EvalConfig {
                enable_control_flow: false,
                enable_data_flow: false,
                stop_at_root_cause: false,
                max_iterations: 4,
                ..EvalConfig::default()
            },
        );
        assert!(
            full.overall >= static_only.overall,
            "full {:.1} vs static {:.1}",
            full.overall,
            static_only.overall
        );
    }
}
