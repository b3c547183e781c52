//! End-to-end integration: the full Gist pipeline on every bugbase bug.
//!
//! This is the repository's Table-1-shaped smoke test: for each of the 11
//! bugs, diagnosis must find the root cause, the sketch must be a sensible
//! subset of the program, and the latency must be a handful of failure
//! recurrences — the paper reports 2–5.

use std::cell::Cell;
use std::collections::BTreeSet;

use gist_bugbase::{all_bugs, bug_by_name, BugClass};
use gist_coop::{diagnose_bug, EvalConfig, SimulatedFleet};
use gist_core::{AstController, ClientRunData, Fleet, GistServer, TrackingPlan};
use gist_ir::{FuncId, InstrId};
use gist_tracking::plan::WATCH_BUDGET;
use gist_tracking::InstrumentationPatch;
use gist_vm::{FailureReport, StackFrame};

#[test]
fn every_bug_diagnoses_to_its_root_cause() {
    for bug in all_bugs() {
        let eval = diagnose_bug(&bug, &EvalConfig::default());
        assert!(
            eval.found_root_cause,
            "{}: root cause missing from sketch\n{}",
            bug.name,
            eval.sketch.render()
        );
        assert!(
            eval.recurrences >= 1,
            "{}: no failure recurrence consumed",
            bug.name
        );
        assert!(
            eval.sketch_instrs > 0 && eval.sketch_instrs <= bug.program_stmts(),
            "{}: sketch size {} out of range",
            bug.name,
            eval.sketch_instrs
        );
        // The slice is a subset of the program; the sketch focuses further
        // (Table 1's shape: slice ≥ sketch for the larger slices).
        assert!(
            eval.slice_instrs <= bug.program_stmts(),
            "{}: slice bigger than program",
            bug.name
        );
    }
}

#[test]
fn concurrency_bugs_get_order_predictors_sequential_get_value_or_branch() {
    for bug in all_bugs() {
        let eval = diagnose_bug(&bug, &EvalConfig::default());
        let cats: Vec<&str> = eval
            .sketch
            .predictors
            .iter()
            .filter(|p| p.f_measure(0.5) > 0.0)
            .map(|p| p.predictor.category())
            .collect();
        match bug.class {
            BugClass::Sequential => assert!(
                cats.contains(&"value") || cats.contains(&"branch"),
                "{}: sequential bug needs a value/branch predictor, got {cats:?}",
                bug.name
            ),
            BugClass::Concurrency => assert!(
                !cats.is_empty(),
                "{}: no failure predictor emerged",
                bug.name
            ),
        }
    }
}

#[test]
fn sketches_render_with_type_line_and_threads() {
    for bug in all_bugs() {
        let eval = diagnose_bug(&bug, &EvalConfig::default());
        let text = eval.sketch.render();
        assert!(
            text.contains(bug.class.label()),
            "{}: type line missing",
            bug.name
        );
        assert!(text.contains("Thread T"), "{}: no thread column", bug.name);
        if bug.class == BugClass::Concurrency {
            assert!(
                eval.sketch.threads.len() >= 2,
                "{}: concurrency sketch should span threads: {}",
                bug.name,
                text
            );
        }
    }
}

#[test]
fn race_ranking_never_regresses_sketch_accuracy() {
    // Race-candidate seeding recovers statements the alias-free slice
    // misses (pbzip2's free) and the watch ordering lets strong order
    // predictors emerge in fewer recurrences. Faster convergence can stop
    // AsT before the σ-prefix swallows every ideal statement, so a bug may
    // trade a few points of sketch completeness for halved latency — but
    // in aggregate accuracy must not regress, no single bug may fall off a
    // cliff, and every bug must stay above the 70% quality bar it already
    // meets without ranking. Ranking must also never cost recurrences in
    // total, nor leave a root cause to the unranked pipeline alone.
    let mut sum_on = 0.0;
    let mut sum_off = 0.0;
    let (mut recurrences_on, mut recurrences_off) = (0, 0);
    for bug in all_bugs() {
        let on = diagnose_bug(&bug, &EvalConfig::default());
        let off = diagnose_bug(
            &bug,
            &EvalConfig {
                enable_race_ranking: false,
                ..EvalConfig::default()
            },
        );
        sum_on += on.overall;
        sum_off += off.overall;
        recurrences_on += on.recurrences;
        recurrences_off += off.recurrences;
        assert!(
            on.found_root_cause || !off.found_root_cause,
            "{}: only the unranked pipeline found the root cause",
            bug.name
        );
        assert!(
            on.overall >= off.overall - 10.0,
            "{}: accuracy fell off a cliff with ranking on: {:.1}% vs {:.1}%",
            bug.name,
            on.overall,
            off.overall
        );
        assert!(
            on.overall >= 70.0 || off.overall < 70.0,
            "{}: ranking dragged accuracy below the bar: {:.1}% vs {:.1}%",
            bug.name,
            on.overall,
            off.overall
        );
    }
    assert!(
        sum_on >= sum_off - 1e-9,
        "aggregate accuracy regressed with ranking on: {:.1} vs {:.1}",
        sum_on,
        sum_off
    );
    assert!(
        recurrences_on <= recurrences_off,
        "ranking cost recurrences: {recurrences_on} > {recurrences_off}"
    );
}

#[test]
fn diagnosis_latency_is_a_handful_of_recurrences() {
    // The paper's Table 1 reports 2–5 recurrences per bug (with one
    // failing run gathered per iteration). Our harness gathers several
    // failing runs per iteration for statistical strength; the equivalent
    // latency bound is recurrences ≤ iterations × failing_per_iteration
    // with few iterations.
    let cfg = EvalConfig {
        failing_per_iteration: 1,
        ..EvalConfig::default()
    };
    for bug in all_bugs() {
        let eval = diagnose_bug(&bug, &cfg);
        assert!(
            eval.recurrences <= 16,
            "{}: took {} recurrences",
            bug.name,
            eval.recurrences
        );
    }
}

/// §3.2.3's cooperative partition, which planning one patch per (AsT
/// iteration, watch group) relies on. For the tracked set of every AsT
/// iteration of every bugbase diagnosis (run to saturation, a superset of
/// the default stop rule's iterations), rebuilt in the server's order
/// (σ-prefix, race seeds, then discovered statements by id): the
/// `watch_accesses` of groups `0..watch_groups(tracked)` are pairwise
/// disjoint, each holds at most `WATCH_BUDGET` sites, their union is
/// `watch_candidates(tracked)`, group `g + groups` plans the same patch
/// as group `g`, and every patch the fleet received is one of these plans.
#[test]
fn watch_groups_partition_the_candidates_of_every_tracked_set() {
    let cfg = EvalConfig::default();
    for bug in all_bugs() {
        let (_, report) = bug.find_failure(2_000).unwrap();
        let server = GistServer::new(
            &bug.program,
            cfg.gist_config(bug.name.into(), "test".into()),
        );
        let mut fleet = SimulatedFleet::for_bug(&bug, cfg.fleet.clone());
        // (iteration, patch) for each distinct patch of each iteration.
        let mut shipped: Vec<(usize, InstrumentationPatch)> = Vec::new();
        let iteration = Cell::new(0);
        let mut recording = |patch: &InstrumentationPatch| {
            let seen = shipped
                .iter()
                .any(|(i, p)| *i == iteration.get() && p == patch);
            if !seen {
                shipped.push((iteration.get(), patch.clone()));
            }
            fleet.next_run(patch)
        };
        let result = server.diagnose(&report, &mut recording, None, &mut |_| {
            iteration.set(iteration.get() + 1);
            false
        });
        let TrackingPlan { race_seed, planner } = server.analyze(&report, &result.slice);
        let mut ast = AstController::with_sigma(result.slice.clone(), cfg.sigma0, cfg.growth);
        for i in 0..result.iterations {
            let patches: Vec<&InstrumentationPatch> = shipped
                .iter()
                .filter(|(at, _)| *at == i)
                .map(|(_, p)| p)
                .collect();
            let tracked_set = &patches[0].tracked;
            let mut tracked: Vec<InstrId> = ast.tracked_portion().to_vec();
            for &s in race_seed.iter().chain(tracked_set) {
                if !tracked.contains(&s) {
                    tracked.push(s);
                }
            }
            assert_eq!(
                tracked.iter().copied().collect::<BTreeSet<_>>(),
                *tracked_set,
                "{} iteration {i}: the rebuilt tracked set is the shipped one",
                bug.name
            );
            let groups = planner.watch_groups(&tracked);
            let plans: Vec<InstrumentationPatch> =
                (0..groups).map(|g| planner.plan(&tracked, g)).collect();
            let mut union = BTreeSet::new();
            for (g, plan) in plans.iter().enumerate() {
                assert!(
                    plan.watch_accesses.len() <= WATCH_BUDGET,
                    "{} iteration {i}: group {g} over budget",
                    bug.name
                );
                assert!(
                    plan.watch_accesses.is_disjoint(&union),
                    "{} iteration {i}: group {g} overlaps an earlier group",
                    bug.name
                );
                union.extend(&plan.watch_accesses);
                assert_eq!(
                    planner.plan(&tracked, g + groups),
                    *plan,
                    "{} iteration {i}: group {} wraps to group {g}",
                    bug.name,
                    g + groups
                );
            }
            let candidates: BTreeSet<InstrId> =
                planner.watch_candidates(&tracked).into_iter().collect();
            assert_eq!(union, candidates, "{} iteration {i}", bug.name);
            for patch in patches {
                assert!(
                    plans.contains(patch),
                    "{} iteration {i}: shipped a patch of no watch group",
                    bug.name
                );
            }
            ast.advance();
        }
    }
}

#[test]
fn reports_from_another_program_are_rejected_without_runs() {
    let pbzip2 = bug_by_name("pbzip2-1").unwrap();
    let (_, own) = pbzip2.find_failure(2_000).unwrap();
    let (_, foreign) = bug_by_name("curl-965")
        .unwrap()
        .find_failure(2_000)
        .unwrap();
    let frame = |func, iid| {
        let mut r = own.clone();
        r.stack.push(StackFrame { func, iid });
        r
    };
    let hostile = [
        foreign,
        FailureReport {
            failing_stmt: InstrId(100_000),
            ..own.clone()
        },
        frame(FuncId(10_000), own.failing_stmt),
        frame(own.stack[0].func, InstrId(100_000)),
    ];
    let server = GistServer::new(
        &pbzip2.program,
        EvalConfig::default().gist_config("pbzip2-1".into(), "test".into()),
    );
    assert_eq!(server.check_report(&own), Ok(()));
    for report in &hostile {
        assert!(server.check_report(report).is_err(), "{report:?}");
        let mut fleet = |_: &InstrumentationPatch| -> ClientRunData {
            panic!("a rejected report consumed a production run")
        };
        let result = server.diagnose(report, &mut fleet, None, &mut |_| true);
        assert_eq!(
            (result.iterations, result.recurrences, result.total_runs),
            (0, 0, 0)
        );
        assert!(result.sketch.is_empty() && result.slice.is_empty());
    }
}
