//! `fleet`: tracked production runs of pbzip2-1 through
//! `Fleet::next_run`, under the fixed 8-statement group-0 patch the
//! repository's throughput bench ships. 3072 runs per segment, requested
//! in 64-run collection rounds.
//!
//! Almost all of the work is the per-run client path. It is the only
//! workload with batch > 1, so the only one that uses the work-stealing
//! pool and the hit-heavy shared decode cache.

use std::hint::black_box;
use std::time::Instant;

use gist_bugbase::{bug_by_name, BugSpec};
use gist_coop::{FleetConfig, FleetStats, SimulatedFleet};
use gist_core::Fleet;
use gist_slicing::StaticSlicer;
use gist_tracking::{InstrumentationPatch, Planner};
use gist_vm::CompiledProgram;

use super::{Bench, Checks};
use crate::layers::Layers;

/// Runs per collection round (one request) and rounds per segment.
const ROUND: usize = 64;
const ROUNDS: usize = 48;
/// Untimed runs before the first segment.
const WARMUP_RUNS: usize = 1024;
/// Run ids whose failures must agree between batch 1 and the pool.
const EQUIVALENCE_RUNS: usize = 3072;
/// Seeds of the bare-versus-tracked replays.
const REPLAY_SEEDS: u64 = 256;

/// Batch size: one run per available core, at most 4.
fn batch() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn config(batch: usize) -> FleetConfig {
    FleetConfig {
        endpoints: 64,
        num_cores: 4,
        batch,
        workers: None,
    }
}

/// The throughput bench's patch: the first watch group over an
/// 8-statement slice prefix of the bug's failure.
fn throughput_patch(bug: &BugSpec) -> InstrumentationPatch {
    let (_, report) = bug
        .find_failure(2_000)
        .unwrap_or_else(|| panic!("{}: bug never manifests", bug.name));
    let slicer = StaticSlicer::new(&bug.program);
    let slice = slicer.compute(report.failing_stmt);
    let planner = Planner::new(&bug.program, slicer.ticfg());
    planner.plan(slice.prefix(8), 0)
}

pub(crate) struct FleetBench {
    /// Leaked once per set-up: the fleet borrows the program for as long
    /// as the process measures it.
    bug: &'static BugSpec,
    patch: InstrumentationPatch,
    batch: usize,
    fleet: SimulatedFleet<'static>,
    /// Contention statistics when the traced pass started.
    traced_from: FleetStats,
}

impl FleetBench {
    pub fn setup() -> FleetBench {
        let bug: &'static BugSpec = Box::leak(Box::new(
            bug_by_name("pbzip2-1").expect("bugbase has pbzip2-1"),
        ));
        let patch = throughput_patch(bug);
        let batch = batch();
        let fleet = warm_fleet(bug, &patch, batch);
        FleetBench {
            bug,
            patch,
            batch,
            fleet,
            traced_from: FleetStats::default(),
        }
    }
}

/// A fresh fleet that has run the warm-up runs.
fn warm_fleet(
    bug: &'static BugSpec,
    patch: &InstrumentationPatch,
    batch: usize,
) -> SimulatedFleet<'static> {
    let mut fleet = SimulatedFleet::for_bug(bug, config(batch));
    for _ in 0..WARMUP_RUNS {
        black_box(fleet.next_run(patch));
    }
    fleet
}

/// Failing runs among the first [`EQUIVALENCE_RUNS`] run ids.
fn failing_runs(bug: &BugSpec, patch: &InstrumentationPatch, batch: usize) -> usize {
    let mut fleet = SimulatedFleet::for_bug(bug, config(batch));
    (0..EQUIVALENCE_RUNS)
        .filter(|_| fleet.next_run(patch).outcome.is_some())
        .count()
}

impl Bench for FleetBench {
    fn threads(&self) -> usize {
        self.batch
    }

    fn run_segment(&mut self, _i: usize, requests: &mut Vec<f64>) -> u64 {
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            for _ in 0..ROUND {
                black_box(self.fleet.next_run(&self.patch));
            }
            requests.push(t0.elapsed().as_secs_f64());
        }
        (ROUNDS * ROUND) as u64
    }

    fn final_checks(&mut self, checks: &mut Checks) {
        let sequential = failing_runs(self.bug, &self.patch, 1);
        let pooled = failing_runs(self.bug, &self.patch, self.batch);
        if sequential != pooled {
            checks.failed += sequential.abs_diff(pooled) as u64;
            checks.violations.push(format!(
                "failing runs over the first {EQUIVALENCE_RUNS} run ids: {sequential} at batch 1, \
                 {pooled} at batch {}",
                self.batch
            ));
        }
    }

    fn begin_traced(&mut self) {
        self.fleet = warm_fleet(self.bug, &self.patch, self.batch);
        self.traced_from = self.fleet.contention_stats();
    }

    fn traced_segment(&mut self, _i: usize, layers: &mut Layers) {
        for _ in 0..ROUNDS * ROUND {
            let t0 = Instant::now();
            black_box(self.fleet.next_run(&self.patch));
            let secs = t0.elapsed().as_secs_f64();
            layers.sample("coop.next_run_us", secs);
            layers.fleet_s += secs;
        }
        layers.items += (ROUNDS * ROUND) as u64;
    }

    fn replays(&mut self, layers: &mut Layers) {
        layers.absorb_fleet(&self.fleet, &self.traced_from);
        let program = &self.bug.program;
        layers.time("vm.compile_ms", || CompiledProgram::compile(program));
        layers.replay_runs(
            program,
            self.bug.make_config,
            config(self.batch).num_cores,
            &self.patch,
            0..REPLAY_SEEDS,
        );
    }

    fn accounted_timers(&self) -> &'static [&'static str] {
        &["coop.next_run_us"]
    }
}
