//! Dynamic evaluation of synthetic bugs: the full AsT loop against an
//! injected, machine-checkable ground truth.
//!
//! [`diagnose_synth`] is the synthetic twin of [`crate::diagnose_bug`]:
//! find a failing run that matches the injected failure, hand the report
//! to the Gist server over a simulated fleet, and stop AsT as soon as the
//! sketch covers the injected root-cause lines (a
//! [`gist_core::CoverageTarget`] built from the ground truth). The result
//! scores sketch accuracy against the generator's ideal sketch, which is
//! what `repro bench --synthetic` aggregates into a recovery rate.

use gist_bugbase::synth::{synth_config, SynthBug};
use gist_core::{diagnose_until, CoverageTarget, GistServer};
use gist_sketch::accuracy::{measure, Accuracy};
use gist_sketch::FailureSketch;

use crate::evaluate::EvalConfig;
use crate::fleet::SimulatedFleet;

/// The outcome of diagnosing one synthetic bug.
#[derive(Clone, Debug)]
pub struct SynthEvaluation {
    /// `synth-<seed:08x>-<pattern>`.
    pub bug: String,
    /// The generation seed.
    pub seed: u64,
    /// The injected pattern's family label.
    pub family: String,
    /// The injected pattern's slug.
    pub pattern: String,
    /// Whether a matching failing run manifested within the seed budget.
    pub manifested: bool,
    /// Whether the converged sketch covers every root-cause line
    /// (the recovery criterion).
    pub recovered: bool,
    /// Relevance accuracy A_R (percent) vs the injected ideal sketch.
    pub relevance: f64,
    /// Ordering accuracy A_O (percent).
    pub ordering: f64,
    /// Overall accuracy A (percent).
    pub overall: f64,
    /// AsT iterations consumed.
    pub iterations: usize,
    /// Total simulated production runs consumed.
    pub total_runs: usize,
    /// Final sketch statement count.
    pub sketch_instrs: usize,
    /// The rendered final sketch (kept for failure forensics).
    pub sketch: Option<FailureSketch>,
}

/// Seed budget when searching for a manifesting run. Every template's
/// per-seed failure probability is well above 5%, so 400 seeds push the
/// miss probability below 1e-8 per bug.
pub const MANIFEST_SEEDS: u64 = 400;

/// Runs the full Gist pipeline on one synthetic bug and scores the
/// result against its ground truth.
pub fn diagnose_synth(bug: &SynthBug, cfg: &EvalConfig) -> SynthEvaluation {
    let mut eval = SynthEvaluation {
        bug: bug.name.clone(),
        seed: bug.seed,
        family: bug.truth.pattern.family().label().to_owned(),
        pattern: bug.truth.pattern.slug().to_owned(),
        manifested: false,
        recovered: false,
        relevance: 0.0,
        ordering: 0.0,
        overall: 0.0,
        iterations: 0,
        total_runs: 0,
        sketch_instrs: 0,
        sketch: None,
    };
    let Some((_, report)) = bug.find_failure(MANIFEST_SEEDS) else {
        return eval;
    };
    eval.manifested = true;

    let server = GistServer::new(
        &bug.program,
        cfg.gist_config(
            format!("Failure Sketch for {}", bug.name),
            eval.family.clone(),
        ),
    );
    let mut fleet = SimulatedFleet::new(&bug.program, synth_config, cfg.fleet.clone());
    let target = if cfg.stop_at_root_cause {
        CoverageTarget::from_groups(
            bug.truth
                .root_cause_lines
                .iter()
                .map(|&l| bug.stmts_at(l))
                .collect(),
        )
    } else {
        // An unachievable target: run AsT to saturation (ablations).
        CoverageTarget::from_groups(vec![Vec::new()])
    };
    let ideal_set = bug.ideal_stmts();
    let result = diagnose_until(&server, &report, &mut fleet, Some(&ideal_set), &target);

    let acc: Accuracy = measure(&result.sketch, &bug.ideal_sketch());
    let stmts: std::collections::BTreeSet<_> = result.sketch.stmts().into_iter().collect();
    eval.recovered = bug.root_cause_covered(&stmts);
    eval.relevance = acc.relevance;
    eval.ordering = acc.ordering;
    eval.overall = acc.overall();
    eval.iterations = result.iterations;
    eval.total_runs = result.total_runs;
    eval.sketch_instrs = stmts.len();
    eval.sketch = Some(result.sketch);
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_bugbase::synth::{generate_with_pattern, PatternKind};

    #[test]
    fn uaf_injection_is_recovered_end_to_end() {
        let bug = generate_with_pattern(3, PatternKind::UseAfterFree);
        let eval = diagnose_synth(&bug, &EvalConfig::default());
        assert!(eval.manifested, "{}: no failing run", bug.name);
        assert!(
            eval.recovered,
            "{}: sketch missed the root cause:\n{}",
            bug.name,
            eval.sketch.map(|s| s.render()).unwrap_or_default()
        );
    }
}
