//! Differential test: metrics counters are batch-size independent.
//!
//! The gist-obs determinism contract says counters observe only *logical*
//! events, so running the same work through a sequential fleet (batch=1)
//! and a parallel one (batch=8, real pool worker threads forced) must
//! produce byte-identical counter snapshots — any divergence means some
//! counter leaked execution shape. The workload covers every bugbase bug
//! under its shipped patch *and* a pinned-seed synthetic sample, so the
//! pooled path (static chunks over channels, decode-cache shards, batch-end
//! journal flushes) is exercised against both program families.
//!
//! One `#[test]` in its own integration binary: the comparison reads the
//! process-global metrics registry, which other tests in the same process
//! would pollute.

use gist_bugbase::all_bugs;
use gist_bugbase::synth::{generate, synth_config, SynthBug};
use gist_coop::{FleetConfig, SimulatedFleet};
use gist_core::Fleet;
use gist_slicing::StaticSlicer;
use gist_tracking::{InstrumentationPatch, Planner};
use gist_vm::VmConfig;

/// Runs per bug per arm; a multiple of the batch size so batch=8 executes
/// exactly the same runs as batch=1 (no over-prefetch at the tail).
const RUNS: usize = 16;
const BATCH: usize = 8;
/// Forced pool worker threads for the batched arm: real cross-thread
/// chunks even on one-core machines.
const WORKERS: usize = 3;
/// Pinned generation seeds for the synthetic sample (seeds whose bugs
/// manifest are kept; generation is fully deterministic, so both arms see
/// the identical sample).
const SYNTH_SEEDS: [u64; 6] = [0, 1, 2, 3, 4, 5];
/// Synthetic bugs retained from the pinned seeds.
const SYNTH_SAMPLE: usize = 3;

fn planned_patch(
    program: &gist_ir::Program,
    failing_stmt: gist_ir::InstrId,
) -> InstrumentationPatch {
    let slicer = StaticSlicer::new(program);
    let slice = slicer.compute(failing_stmt);
    let planner = Planner::new(program, slicer.ticfg());
    planner.plan(slice.prefix(8), 0)
}

/// One differential workload: a program, its seeded workload constructor,
/// and the patch the server would ship.
struct Work {
    program: gist_ir::Program,
    make_config: fn(u64) -> VmConfig,
    patch: InstrumentationPatch,
}

fn workload() -> Vec<Work> {
    let mut work = Vec::new();
    for bug in all_bugs() {
        let (_, report) = bug.find_failure(2_000).expect("bug manifests");
        let patch = planned_patch(&bug.program, report.failing_stmt);
        work.push(Work {
            program: bug.program.clone(),
            make_config: bug.make_config,
            patch,
        });
    }
    let synths: Vec<SynthBug> = SYNTH_SEEDS
        .iter()
        .map(|&s| generate(s))
        .filter(|b| b.find_failure(2_000).is_some())
        .take(SYNTH_SAMPLE)
        .collect();
    assert!(
        !synths.is_empty(),
        "at least one pinned synthetic seed must manifest"
    );
    for bug in &synths {
        let (_, report) = bug.find_failure(2_000).expect("filtered to manifesting");
        let patch = planned_patch(&bug.program, report.failing_stmt);
        work.push(Work {
            program: bug.program.clone(),
            make_config: synth_config,
            patch,
        });
    }
    work
}

/// Drives every workload through `RUNS` fleet runs at the given batch size
/// and returns the rendered counter section of the metrics snapshot.
fn counters_with(work: &[Work], batch: usize, workers: Option<usize>) -> String {
    gist_obs::reset();
    for w in work {
        let mut fleet = SimulatedFleet::new(
            &w.program,
            w.make_config,
            FleetConfig {
                endpoints: 8,
                num_cores: 4,
                batch,
                workers,
            },
        );
        for _ in 0..RUNS {
            let _ = Fleet::next_run(&mut fleet, &w.patch);
        }
    }
    let snap = gist_obs::snapshot();
    format!("{:?}", snap.counters)
}

#[test]
fn counter_snapshots_agree_across_batch_sizes() {
    // Plan patches up front so their (counter-producing) failure searches
    // happen outside the measured window, identically for both arms.
    let work = workload();
    assert!(
        work.len() > gist_bugbase::all_bugs().len(),
        "synthetic sample extends the bugbase workload"
    );
    let sequential = counters_with(&work, 1, None);
    let batched = counters_with(&work, BATCH, Some(WORKERS));
    assert!(
        !sequential.contains("fleet.runs_dispatched\": 0"),
        "sanity: runs were dispatched and counted"
    );
    assert_eq!(
        sequential, batched,
        "counters must observe logical events only; a counter that differs \
         across batch sizes is recording execution shape (use a histogram)"
    );
}
