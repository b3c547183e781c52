//! Allocation budget of the client path: what one production run costs the
//! allocator once an executor is warm.
//!
//! An endpoint stays up between runs: its trace buffers, debug registers,
//! thread table and register files are its own, and only the shipped patch
//! changes from run to run. So a warm executor should allocate little more
//! than the run's report. This binary counts allocations plus
//! reallocations on the calling thread while it drives:
//!
//! * a warm batch-1 `SimulatedFleet` on pbzip2-1 under the `fleet`
//!   benchmark workload's patch, for 2,048 `next_run` calls;
//! * a warm loop of bare runs on one recycled `VmScratch`;
//! * a default-config diagnosis of every bugbase bug, per run consumed
//!   (the server's work included).
//!
//! One `#[test]` in its own integration binary: the counting allocator is
//! process-wide, and the count is kept per thread (a const thread-local),
//! so the harness's other threads add nothing to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gist_bugbase::{all_bugs, bug_by_name, BugSpec};
use gist_coop::{diagnose_bug, EvalConfig, FleetConfig, SimulatedFleet};
use gist_core::Fleet;
use gist_slicing::StaticSlicer;
use gist_tracking::{InstrumentationPatch, Planner};
use gist_vm::{CompiledProgram, Vm, VmScratch};

thread_local! {
    /// Allocations plus reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation
/// against the calling thread.
struct Counting;

fn count() {
    // A thread being torn down may allocate after its thread-locals are
    // gone; such allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count touches only a
// `Cell` in a const thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations plus reallocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Counted runs of each warm loop.
const RUNS: u64 = 2_048;
/// Untimed runs that warm an executor first.
const WARMUP_RUNS: u64 = 1_024;

/// The `fleet` workload's patch: the first watch group over an
/// 8-statement slice prefix of the bug's failure.
fn planned_patch(bug: &BugSpec) -> InstrumentationPatch {
    let (_, report) = bug.find_failure(2_000).expect("bug manifests");
    let slicer = StaticSlicer::new(&bug.program);
    let slice = slicer.compute(report.failing_stmt);
    let planner = Planner::new(&bug.program, slicer.ticfg());
    planner.plan(slice.prefix(8), 0)
}

/// Allocations per `next_run` of a warm batch-1 fleet.
fn per_fleet_run(bug: &BugSpec) -> f64 {
    let patch = planned_patch(bug);
    let config = FleetConfig {
        endpoints: 64,
        num_cores: 4,
        batch: 1,
        workers: None,
    };
    let mut fleet = SimulatedFleet::for_bug(bug, config);
    for _ in 0..WARMUP_RUNS {
        std::hint::black_box(fleet.next_run(&patch));
    }
    let n = allocations_in(|| {
        for _ in 0..RUNS {
            std::hint::black_box(fleet.next_run(&patch));
        }
    });
    n as f64 / RUNS as f64
}

/// Allocations per bare run on one recycled `VmScratch`.
fn per_bare_run(bug: &BugSpec) -> f64 {
    let compiled = Arc::new(CompiledProgram::compile(&bug.program));
    let mut scratch = VmScratch::default();
    let mut run = |seed: u64| {
        let config = bug.vm_config(seed);
        let mut vm = Vm::with_scratch(
            &bug.program,
            Arc::clone(&compiled),
            config,
            std::mem::take(&mut scratch),
        );
        std::hint::black_box(vm.run(&mut []));
        scratch = vm.into_scratch();
    };
    (0..WARMUP_RUNS).for_each(&mut run);
    let n = allocations_in(|| (WARMUP_RUNS..WARMUP_RUNS + RUNS).for_each(&mut run));
    n as f64 / RUNS as f64
}

/// Allocations per run consumed over default-config diagnoses of every
/// bugbase bug, failure search and server work included.
fn per_diagnosis_run() -> f64 {
    let bugs = all_bugs();
    let config = EvalConfig::default();
    let mut runs = 0;
    let n = allocations_in(|| {
        for bug in &bugs {
            runs += diagnose_bug(bug, &config).total_runs;
        }
    });
    n as f64 / runs as f64
}

#[test]
fn warm_runs_stay_within_their_allocation_budget() {
    let bug = bug_by_name("pbzip2-1").expect("bugbase has pbzip2-1");
    let fleet = per_fleet_run(&bug);
    let bare = per_bare_run(&bug);
    let diagnosis = per_diagnosis_run();
    eprintln!(
        "allocations per run: fleet {fleet:.1}, bare {bare:.1}, bugbase diagnosis {diagnosis:.1}"
    );
    // Before executors kept their VM threads, register files, trace
    // buffers and tracker: 50.4 per fleet run, 13.8 per bare run and 84.6
    // per diagnosis run.
    assert!(fleet <= 30.0, "{fleet:.1} allocations per warm fleet run");
    assert!(bare <= 5.0, "{bare:.1} allocations per warm bare run");
    assert!(
        diagnosis <= 62.0,
        "{diagnosis:.1} allocations per bugbase diagnosis run"
    );
}
