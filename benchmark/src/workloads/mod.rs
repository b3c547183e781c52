//! The four workloads and what they share.
//!
//! Each workload is a closed loop with one client: the next item starts
//! only after the previous one finished. Its timed loop is cut into
//! segments of fixed work, so two commits do identical work per segment.

mod analyze;
mod bugbase;
mod fleet;
mod synth;

use gist_coop::{EvalConfig, SimulatedFleet};
use gist_core::{DiagnosisResult, Fleet, GistConfig, GistServer};
use gist_ir::Program;
use gist_slicing::StaticSlicer;
use gist_vm::{CompiledProgram, FailureReport, VmConfig};

use crate::layers::{Collected, Layers, TimedFleet};
use crate::Workload;

/// Outcome checks, made outside every timed segment.
#[derive(Default)]
pub(crate) struct Checks {
    /// Items whose output was wrong.
    pub failed: u64,
    /// Human-readable reasons; any makes the run incorrect.
    pub violations: Vec<String>,
}

/// One workload's inputs and state. Segment 0 is the warm-up run during
/// set-up; the timed loop and the traced pass both run segments `1..`.
pub(crate) trait Bench {
    /// Threads the timed loop keeps busy (the calibration kernel runs on
    /// as many).
    fn threads(&self) -> usize {
        1
    }

    /// Checks on the inputs themselves, made once.
    fn check_inputs(&mut self, _checks: &mut Checks) {}

    /// Untimed preparation of segment `i`'s inputs.
    fn prepare(&mut self, _i: usize) {}

    /// Segment `i`'s fixed work. Pushes one latency in seconds per
    /// request and returns the items completed.
    fn run_segment(&mut self, i: usize, requests: &mut Vec<f64>) -> u64;

    /// Checks segment `i`'s outputs.
    fn check_segment(&mut self, _i: usize, _checks: &mut Checks) {}

    /// Checks after the timed loop.
    fn final_checks(&mut self, _checks: &mut Checks) {}

    /// Untimed reset to the state the timed loop started from.
    fn begin_traced(&mut self) {}

    /// Segment `i` again, each public call under a benchmark timer.
    fn traced_segment(&mut self, i: usize, layers: &mut Layers);

    /// Single-layer replays on inputs of the first traced segment.
    fn replays(&mut self, layers: &mut Layers);

    /// The timers whose sum accounts for one untraced item.
    fn accounted_timers(&self) -> &'static [&'static str];
}

/// Builds a workload's inputs and runs its warm-up segment.
pub(crate) fn setup(workload: Workload, seed: u64) -> Box<dyn Bench> {
    match workload {
        Workload::Bugbase => Box::new(bugbase::Bugbase::setup()),
        Workload::Synth => Box::new(synth::Synth::setup(seed)),
        Workload::Fleet => Box::new(fleet::FleetBench::setup()),
        Workload::Analyze => Box::new(analyze::Analyze::setup(seed)),
    }
}

/// Patches whose runs are replayed per diagnosis, and seeds per patch.
const REPLAY_PATCHES: usize = 3;
const REPLAY_SEEDS: u64 = 4;

/// The server configuration `diagnose_bug` and `diagnose_synth` build
/// from the default [`EvalConfig`].
fn gist_config(eval: &EvalConfig, title: String, bug_class: String) -> GistConfig {
    GistConfig {
        sigma0: eval.sigma0,
        growth: eval.growth,
        beta: 0.5,
        failing_runs_per_iteration: eval.failing_per_iteration,
        max_runs_per_iteration: eval.max_runs_per_iteration,
        max_iterations: eval.max_iterations,
        enable_control_flow: eval.enable_control_flow,
        enable_data_flow: eval.enable_data_flow,
        enable_race_ranking: eval.enable_race_ranking,
        enable_alias_slicing: eval.enable_alias_slicing,
        enable_svfg_slicing: eval.enable_svfg_slicing,
        enable_mhp: eval.enable_mhp,
        enable_dead_store_pruning: eval.enable_dead_store_pruning,
        title,
        bug_class,
    }
}

/// The server and fleet half of a traced diagnosis: `GistServer::new`,
/// then `diagnose` over a [`TimedFleet`], each under a timer. The fleet
/// is built after the server, as the evaluation harness does.
fn traced_diagnose<'p>(
    layers: &mut Layers,
    program: &'p Program,
    config: GistConfig,
    make_fleet: impl FnOnce() -> SimulatedFleet<'p>,
    diagnose: impl FnOnce(&GistServer<'p>, &mut dyn Fleet) -> DiagnosisResult,
) -> DiagnosisResult {
    let server = layers.time("core.server_new_ms", || GistServer::new(program, config));
    let inner = make_fleet();
    let before = inner.contention_stats();
    let mut fleet = TimedFleet::new(inner);
    let t0 = std::time::Instant::now();
    let result = diagnose(&server, &mut fleet);
    let secs = t0.elapsed().as_secs_f64();
    layers.sample("core.diagnose_ms", secs);
    layers.sample("core.server_self_ms", secs - fleet.total());
    for &call in &fleet.calls {
        layers.sample("coop.next_run_us", call);
    }
    layers.fleet_s += fleet.total();
    layers.absorb_fleet(&fleet.inner, &before);
    layers.add("core.recurrences_per_diagnosis", result.recurrences as f64);
    result
}

/// Records one diagnosis's sketch quality (summed; averaged per item at
/// the end of the pass).
fn record_quality(layers: &mut Layers, overall: f64, found: bool) {
    layers.add("sketch.accuracy_pct", overall);
    layers.add(
        "sketch.root_cause_recovery_pct",
        if found { 100.0 } else { 0.0 },
    );
}

/// Times the static layers a diagnosis of `report` uses, one call each:
/// compilation, slicer construction, the SVFG slice, race detection,
/// MHP and points-to.
fn replay_static(layers: &mut Layers, program: &Program, report: &FailureReport) {
    layers.time("vm.compile_ms", || CompiledProgram::compile(program));
    let slicer = replay_analyses(layers, program);
    let slice = layers.time("slicing.slice_ms", || {
        slicer.compute_with_svfg(report.failing_stmt)
    });
    layers.add("slicing.slice_stmts", slice.len() as f64);
}

/// Times `StaticSlicer::new` and the whole-program analyses over its
/// TICFG, and returns the slicer.
fn replay_analyses<'p>(layers: &mut Layers, program: &'p Program) -> StaticSlicer<'p> {
    let slicer = layers.time("slicing.slicer_new_ms", || StaticSlicer::new(program));
    layers.time("analysis.race_ms", || gist_analysis::analyze(program));
    layers.time("analysis.mhp_ms", || {
        gist_analysis::Mhp::compute(program, slicer.ticfg())
    });
    layers.time("analysis.points_to_ms", || {
        gist_analysis::PointsTo::compute(program, slicer.ticfg())
    });
    slicer
}

/// Ranks what a collecting fleet saw and replays runs of the first
/// patches it shipped.
fn replay_collected(
    layers: &mut Layers,
    program: &Program,
    make_config: fn(u64) -> VmConfig,
    num_cores: u32,
    collected: &Collected,
) {
    layers.time("predictors.rank_ms", || {
        gist_predictors::rank(&collected.observations, 0.5)
    });
    for patch in collected.patches.iter().take(REPLAY_PATCHES) {
        layers.replay_runs(program, make_config, num_cores, patch, 0..REPLAY_SEEDS);
    }
}
