//! The journal describes the patches that ship. With control flow off,
//! and again with data flow off, every `tracking.plan` event of every
//! bugbase diagnosis matches (tracked, watch and byte counts) the patch
//! the fleet received in the run that follows it, every run's patch was
//! journaled in its AsT iteration, and the patch bytes the diagnosis
//! charges are the sum over its runs of the patches received.
//!
//! One `#[test]` in its own integration binary: the journal is a
//! process-global sink, so this cannot share a process with other
//! event-producing tests.

use std::collections::HashMap;

use gist_bugbase::all_bugs;
use gist_coop::{EvalConfig, SimulatedFleet};
use gist_core::{Fleet, GistServer};
use gist_obs::EventKind;
use gist_tracking::InstrumentationPatch;

/// `(tracked, watch, bytes)` of a patch, as `tracking.plan` records it.
fn shape(patch: &InstrumentationPatch) -> (u64, u64, u64) {
    (
        patch.tracked.len() as u64,
        patch.watch_accesses.len() as u64,
        patch.shipped_size() as u64,
    )
}

#[test]
fn journaled_plans_are_the_patches_the_fleet_received() {
    let modes = [
        (
            "control flow off",
            EvalConfig {
                enable_control_flow: false,
                ..EvalConfig::default()
            },
        ),
        (
            "data flow off",
            EvalConfig {
                enable_data_flow: false,
                ..EvalConfig::default()
            },
        ),
    ];
    for (mode, cfg) in modes {
        for bug in all_bugs() {
            let label = format!("{} {mode}", bug.name);
            let (_, report) = bug.find_failure(2_000).unwrap();
            let server =
                GistServer::new(&bug.program, cfg.gist_config(label.clone(), "test".into()));
            let mut fleet = SimulatedFleet::for_bug(&bug, cfg.fleet.clone());
            let mut received: HashMap<u64, InstrumentationPatch> = HashMap::new();
            let mut recording = |patch: &InstrumentationPatch| {
                let run = fleet.next_run(patch);
                received.insert(run.run_id, patch.clone());
                run
            };
            gist_obs::reset();
            let mut iterations = 0;
            let result = server.diagnose(&report, &mut recording, None, &mut |_| {
                iterations += 1;
                iterations == 4
            });
            let (events, stats) = gist_obs::journal::drain();
            assert_eq!(stats.events_overwritten, 0, "{label}: ring overflowed");

            let bytes: u64 = received.values().map(|p| shape(p).2).sum();
            assert_eq!(bytes, result.cost.patch_bytes, "{label}: bytes charged");
            // Walk the diagnosis in journal order: a plan is followed by
            // the first run that carries its patch, and each run carries
            // a patch journaled earlier in the same iteration.
            let mut pending = None;
            let mut journaled: Vec<(u64, u64, u64)> = Vec::new();
            let mut runs = 0;
            for ev in &events {
                match ev.kind {
                    EventKind::IterationStarted { .. } => journaled.clear(),
                    EventKind::PatchPlanned {
                        tracked,
                        watch,
                        bytes,
                        ..
                    } => {
                        assert_eq!(pending, None, "{label}: a plan no run carried");
                        pending = Some((tracked, watch, bytes));
                        journaled.push((tracked, watch, bytes));
                    }
                    EventKind::RunStarted { run, .. } => {
                        runs += 1;
                        let got = shape(&received[&run]);
                        if let Some(planned) = pending.take() {
                            assert_eq!(planned, got, "{label}: run {run} after its plan");
                        }
                        assert!(
                            journaled.contains(&got),
                            "{label}: run {run} carried a patch not journaled: {got:?}"
                        );
                    }
                    _ => {}
                }
            }
            assert_eq!(runs, received.len(), "{label}: every run journaled");
            assert_eq!(runs, result.total_runs, "{label}");
        }
    }
}
