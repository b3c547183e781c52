//! `synth`: seeded synthetic bugs through `diagnose_synth`, 80 new
//! programs per segment.
//!
//! Every program is new, so compilation, slicer construction, static
//! analysis and the PT decode cache all start cold: server-side set-up
//! weighs far more than on `bugbase`, and the fleet's decode cache misses.
//! Programs are generated before the segment timer starts.

use std::collections::BTreeSet;
use std::time::Instant;

use gist_bench::expectations::{SYNTH_LINT_FLOOR, SYNTH_RECOVERY_FLOOR};
use gist_bench::synth_report::static_check;
use gist_bugbase::synth::{self, synth_config, SplitMix64, SynthBug};
use gist_coop::synth_eval::MANIFEST_SEEDS;
use gist_coop::{diagnose_synth, EvalConfig, SimulatedFleet, SynthEvaluation};
use gist_core::{diagnose_until, CoverageTarget, GistConfig, GistServer};
use gist_sketch::accuracy::measure;
use gist_vm::FailureReport;

use super::{
    gist_config, record_quality, replay_collected, replay_static, traced_diagnose, Bench, Checks,
};
use crate::layers::{Layers, TimedFleet};

/// Programs per segment.
const PER_SEGMENT: usize = 80;

/// Segments whose programs also get the static ground-truth check
/// (lint and prediction conformance).
const STATIC_CHECK_SEGMENTS: usize = 2;

pub(crate) struct Synth {
    seed: u64,
    eval: EvalConfig,
    /// The current segment's programs.
    bugs: Vec<SynthBug>,
    evals: Vec<SynthEvaluation>,
    diagnosed: u64,
    recovered: u64,
    statically_checked: u64,
    lint_ok: u64,
    /// Generation seed and failure of each diagnosis in the first traced
    /// segment, for the replays.
    replay: Vec<(u64, FailureReport)>,
}

/// The generation seeds of segment `i`: draws `i·80 .. (i+1)·80` of the
/// workload seed's SplitMix64 stream.
fn segment_seeds(seed: u64, i: usize) -> Vec<u64> {
    let mut stream = SplitMix64::new(seed);
    for _ in 0..i * PER_SEGMENT {
        stream.next_u64();
    }
    (0..PER_SEGMENT).map(|_| stream.next_u64()).collect()
}

/// The coverage target `diagnose_synth` stops at.
fn target(bug: &SynthBug, eval: &EvalConfig) -> CoverageTarget {
    if eval.stop_at_root_cause {
        CoverageTarget::from_groups(
            bug.truth
                .root_cause_lines
                .iter()
                .map(|&l| bug.stmts_at(l))
                .collect(),
        )
    } else {
        CoverageTarget::from_groups(vec![Vec::new()])
    }
}

impl Synth {
    pub fn setup(seed: u64) -> Synth {
        let mut s = Synth {
            seed,
            eval: EvalConfig::default(),
            bugs: Vec::new(),
            evals: Vec::new(),
            diagnosed: 0,
            recovered: 0,
            statically_checked: 0,
            lint_ok: 0,
            replay: Vec::new(),
        };
        s.prepare(0);
        s.run_segment(0, &mut Vec::new());
        s.evals.clear();
        s
    }

    fn config(&self, bug: &SynthBug) -> GistConfig {
        gist_config(
            &self.eval,
            format!("Failure Sketch for {}", bug.name),
            bug.truth.pattern.family().label().to_owned(),
        )
    }
}

impl Bench for Synth {
    fn prepare(&mut self, i: usize) {
        self.bugs = segment_seeds(self.seed, i)
            .into_iter()
            .map(synth::generate)
            .collect();
    }

    fn run_segment(&mut self, _i: usize, requests: &mut Vec<f64>) -> u64 {
        for bug in &self.bugs {
            let t0 = Instant::now();
            let eval = diagnose_synth(bug, &self.eval);
            requests.push(t0.elapsed().as_secs_f64());
            self.evals.push(eval);
        }
        self.bugs.len() as u64
    }

    fn check_segment(&mut self, i: usize, checks: &mut Checks) {
        for e in self.evals.drain(..) {
            self.diagnosed += 1;
            if e.manifested && e.recovered {
                self.recovered += 1;
            } else {
                checks.failed += 1;
            }
        }
        if i <= STATIC_CHECK_SEGMENTS {
            for bug in &self.bugs {
                self.statically_checked += 1;
                let c = static_check(bug);
                self.lint_ok += u64::from(c.lint_ok && c.predict_ok != Some(false));
            }
        }
    }

    fn final_checks(&mut self, checks: &mut Checks) {
        let recovery = 100.0 * self.recovered as f64 / self.diagnosed.max(1) as f64;
        if recovery < SYNTH_RECOVERY_FLOOR {
            checks.violations.push(format!(
                "synthetic recovery {recovery:.1}% below the floor {SYNTH_RECOVERY_FLOOR:.1}%"
            ));
        }
        let lint = 100.0 * self.lint_ok as f64 / self.statically_checked.max(1) as f64;
        if lint < SYNTH_LINT_FLOOR {
            checks.violations.push(format!(
                "synthetic static conformance {lint:.1}% below the floor {SYNTH_LINT_FLOOR:.1}%"
            ));
        }
    }

    fn traced_segment(&mut self, i: usize, layers: &mut Layers) {
        for bug in &self.bugs {
            layers.items += 1;
            let found = layers.time("bugbase.find_failure_ms", || {
                bug.find_failure(MANIFEST_SEEDS)
            });
            let Some((seed, report)) = found else {
                layers.add("bugbase.find_failure_seeds", MANIFEST_SEEDS as f64);
                continue;
            };
            layers.add("bugbase.find_failure_seeds", (seed + 1) as f64);
            let target = target(bug, &self.eval);
            let ideal = bug.ideal_stmts();
            let result = traced_diagnose(
                layers,
                &bug.program,
                self.config(bug),
                || SimulatedFleet::new(&bug.program, synth_config, self.eval.fleet.clone()),
                |server, fleet| diagnose_until(server, &report, fleet, Some(&ideal), &target),
            );
            let stmts: BTreeSet<_> = result.sketch.stmts().into_iter().collect();
            let overall = measure(&result.sketch, &bug.ideal_sketch()).overall();
            record_quality(layers, overall, bug.root_cause_covered(&stmts));
            if i == 1 {
                self.replay.push((bug.seed, report));
            }
        }
    }

    fn replays(&mut self, layers: &mut Layers) {
        for (seed, report) in std::mem::take(&mut self.replay) {
            let bug = synth::generate(seed);
            replay_static(layers, &bug.program, &report);
            let server = GistServer::new(&bug.program, self.config(&bug));
            let mut fleet = TimedFleet::collecting(
                SimulatedFleet::new(&bug.program, synth_config, self.eval.fleet.clone()),
                report.signature(),
            );
            let ideal = bug.ideal_stmts();
            diagnose_until(
                &server,
                &report,
                &mut fleet,
                Some(&ideal),
                &target(&bug, &self.eval),
            );
            replay_collected(
                layers,
                &bug.program,
                synth_config,
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
