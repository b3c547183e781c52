//! `bugbase`: the paper's 11 evaluation bugs through `diagnose_bug`, one
//! round of all 11 per segment.
//!
//! It is the paper's evaluation set (Table 1, Fig. 9). Most of a
//! diagnosis is the client path — fleet, VM, tracking, watchpoints, PT —
//! on the sequential (batch 1) fleet, so it shows client-side changes
//! without the work-stealing pool.

use std::collections::BTreeSet;
use std::time::Instant;

use gist_bugbase::{all_bugs, BugSpec};
use gist_coop::{diagnose_bug, BugEvaluation, EvalConfig, SimulatedFleet};
use gist_core::GistServer;
use gist_sketch::accuracy::measure;
use gist_sketch::FailureSketch;
use gist_vm::FailureReport;

use super::{
    gist_config, record_quality, replay_collected, replay_static, traced_diagnose, Bench, Checks,
};
use crate::layers::{Layers, TimedFleet};

/// Seeds searched for a failing run, as in `diagnose_bug`.
const FAILURE_SEEDS: u64 = 2_000;

/// What must repeat exactly in every round: recurrences, runs,
/// iterations, overall accuracy and root-cause recovery.
type Fingerprint = (usize, usize, usize, u64, bool);

fn fingerprint(e: &BugEvaluation) -> Fingerprint {
    (
        e.recurrences,
        e.total_runs,
        e.iterations,
        e.overall.to_bits(),
        e.found_root_cause,
    )
}

pub(crate) struct Bugbase {
    bugs: Vec<BugSpec>,
    eval: EvalConfig,
    /// This segment's evaluations, checked after the segment.
    evals: Vec<BugEvaluation>,
    /// Each bug's outcome in the warm-up round.
    reference: Vec<Fingerprint>,
    /// Bug index and failure of each diagnosis in the first traced
    /// segment, for the replays.
    replay: Vec<(usize, FailureReport)>,
}

impl Bugbase {
    pub fn setup() -> Bugbase {
        let mut b = Bugbase {
            bugs: all_bugs(),
            eval: EvalConfig::default(),
            evals: Vec::new(),
            reference: Vec::new(),
            replay: Vec::new(),
        };
        b.run_segment(0, &mut Vec::new());
        b.reference = b.evals.drain(..).map(|e| fingerprint(&e)).collect();
        b
    }

    /// The evaluation harness's stop rule: the sketch covers the ideal
    /// sketch and the root cause.
    fn stop(&self, bug: &BugSpec, sketch: &FailureSketch) -> bool {
        if !self.eval.stop_at_root_cause {
            return false;
        }
        let stmts: BTreeSet<_> = sketch.stmts().into_iter().collect();
        bug.ideal_covered(&stmts) && bug.root_cause_covered(&stmts)
    }

    fn config(&self, bug: &BugSpec) -> gist_core::GistConfig {
        gist_config(
            &self.eval,
            format!("Failure Sketch for {}", bug.display),
            bug.class.label().to_owned(),
        )
    }
}

impl Bench for Bugbase {
    fn run_segment(&mut self, _i: usize, requests: &mut Vec<f64>) -> u64 {
        for bug in &self.bugs {
            let t0 = Instant::now();
            let eval = diagnose_bug(bug, &self.eval);
            requests.push(t0.elapsed().as_secs_f64());
            self.evals.push(eval);
        }
        self.bugs.len() as u64
    }

    fn check_segment(&mut self, i: usize, checks: &mut Checks) {
        let violations = gist_bench::expectations::check(&self.evals);
        for (e, reference) in self.evals.iter().zip(&self.reference) {
            let repeated = fingerprint(e) == *reference;
            if !repeated {
                checks.violations.push(format!(
                    "segment {i}: {} diagnosed differently from the warm-up round",
                    e.bug
                ));
            }
            let prefix = format!("{}:", e.bug);
            if !repeated || violations.iter().any(|v| v.starts_with(&prefix)) {
                checks.failed += 1;
            }
        }
        checks
            .violations
            .extend(violations.into_iter().map(|v| format!("segment {i}: {v}")));
        self.evals.clear();
    }

    fn traced_segment(&mut self, i: usize, layers: &mut Layers) {
        for (idx, bug) in self.bugs.iter().enumerate() {
            let (seed, report) = layers
                .time("bugbase.find_failure_ms", || {
                    bug.find_failure(FAILURE_SEEDS)
                })
                .unwrap_or_else(|| panic!("{}: bug never manifests", bug.name));
            layers.add("bugbase.find_failure_seeds", (seed + 1) as f64);
            let ideal = bug.ideal_stmts();
            let result = traced_diagnose(
                layers,
                &bug.program,
                self.config(bug),
                || SimulatedFleet::for_bug(bug, self.eval.fleet.clone()),
                |server, fleet| {
                    server.diagnose(&report, fleet, Some(&ideal), &mut |s| self.stop(bug, s))
                },
            );
            let stmts: BTreeSet<_> = result.sketch.stmts().into_iter().collect();
            let overall = measure(&result.sketch, &bug.ideal_sketch()).overall();
            record_quality(layers, overall, bug.root_cause_covered(&stmts));
            layers.items += 1;
            if i == 1 {
                self.replay.push((idx, report));
            }
        }
    }

    fn replays(&mut self, layers: &mut Layers) {
        for (idx, report) in std::mem::take(&mut self.replay) {
            let bug = &self.bugs[idx];
            replay_static(layers, &bug.program, &report);
            let server = GistServer::new(&bug.program, self.config(bug));
            let mut fleet = TimedFleet::collecting(
                SimulatedFleet::for_bug(bug, self.eval.fleet.clone()),
                report.signature(),
            );
            let ideal = bug.ideal_stmts();
            server.diagnose(&report, &mut fleet, Some(&ideal), &mut |s| {
                self.stop(bug, s)
            });
            replay_collected(
                layers,
                &bug.program,
                bug.make_config,
                self.eval.fleet.num_cores,
                &fleet.collected(),
            );
        }
    }

    fn accounted_timers(&self) -> &'static [&'static str] {
        &[
            "bugbase.find_failure_ms",
            "core.server_new_ms",
            "core.diagnose_ms",
        ]
    }
}
