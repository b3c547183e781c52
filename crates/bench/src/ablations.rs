//! Ablation studies for the design decisions DESIGN.md calls out.
//!
//! 1. **No alias analysis** (paper §3.1): slice sizes with a crude
//!    may-alias overapproximation vs the paper's runtime-discovery design.
//! 2. **sdom/ipdom start-stop optimization** (§3.2.2): instrumentation
//!    points and PT driver transitions with and without the optimization.
//! 3. **AsT multiplicative growth** (§3.2.1): failure recurrences to the
//!    final sketch for doubling vs linear σ growth.
//! 4. **F-measure β = 0.5** (§3.3): how often the top-ranked predictor
//!    changes when β favors recall instead of precision.
//!
//! The knob table (`repro knobs`) measures every `enable_*` toggle of
//! [`EvalConfig`] the same way: each arm turns one toggle off, and every
//! arm diagnoses the bugbase and a fixed draw of synthetic bugs.

use gist_bugbase::synth::{self, SplitMix64, SynthBug};
use gist_bugbase::{all_bugs, BugSpec};
use gist_coop::{diagnose_bug, diagnose_synth, BugEvaluation, EvalConfig, SynthEvaluation};
use gist_core::ast::Growth;
use gist_predictors::rank;
use gist_slicing::StaticSlicer;
use gist_tracking::{Planner, TrackerRuntime};
use gist_vm::{RunOutcome, Vm};

/// Slice blow-up without/with crude alias analysis.
#[derive(Clone, Debug)]
pub struct AliasRow {
    /// Bug name.
    pub bug: String,
    /// Paper-style slice size (no alias analysis).
    pub no_alias: usize,
    /// Slice size with the crude may-alias overapproximation.
    pub crude_alias: usize,
}

/// Ablation 1: slice sizes with and without crude alias analysis.
pub fn alias_ablation() -> Vec<AliasRow> {
    all_bugs()
        .iter()
        .filter_map(|bug| {
            let (_, report) = bug.find_failure(500)?;
            let slicer = StaticSlicer::new(&bug.program);
            Some(AliasRow {
                bug: bug.name.to_owned(),
                no_alias: slicer.compute_without_alias(report.failing_stmt).len(),
                crude_alias: slicer.compute_with_crude_alias(report.failing_stmt).len(),
            })
        })
        .collect()
}

/// Instrumentation cost with/without the sdom optimization.
#[derive(Clone, Debug)]
pub struct SdomRow {
    /// Bug name.
    pub bug: String,
    /// Instrumentation points with the optimization.
    pub points_sdom: usize,
    /// Instrumentation points without it.
    pub points_no_sdom: usize,
    /// PT driver transitions per run with the optimization.
    pub transitions_sdom: f64,
    /// PT driver transitions per run without it.
    pub transitions_no_sdom: f64,
}

/// Ablation 2: the strict-dominance start/stop optimization.
pub fn sdom_ablation(runs_per_bug: u64) -> Vec<SdomRow> {
    all_bugs()
        .iter()
        .filter_map(|bug| {
            let (_, report) = bug.find_failure(500)?;
            let slicer = StaticSlicer::new(&bug.program);
            let slice = slicer.compute(report.failing_stmt);
            let planner = Planner::new(&bug.program, slicer.ticfg());
            let tracked = slice.prefix(8);
            let with = planner.plan(tracked, 0);
            let without = planner.plan_without_sdom(tracked, 0);
            let transitions = |patch: &gist_tracking::InstrumentationPatch| -> f64 {
                let mut total = 0u64;
                for i in 0..runs_per_bug {
                    let mut tracker = TrackerRuntime::new(&bug.program, patch.clone(), 4);
                    let mut vm = Vm::new(&bug.program, bug.vm_config(40_000 + i));
                    vm.run(&mut [&mut tracker]);
                    total += tracker.finish().pt_transitions;
                }
                total as f64 / runs_per_bug.max(1) as f64
            };
            Some(SdomRow {
                bug: bug.name.to_owned(),
                points_sdom: with.instrumentation_points(),
                points_no_sdom: without.instrumentation_points(),
                transitions_sdom: transitions(&with),
                transitions_no_sdom: transitions(&without),
            })
        })
        .collect()
}

/// Latency comparison for AsT growth strategies.
#[derive(Clone, Debug)]
pub struct GrowthRow {
    /// Bug name.
    pub bug: String,
    /// Recurrences with multiplicative (doubling) growth.
    pub multiplicative: usize,
    /// Recurrences with linear (+2) growth.
    pub linear: usize,
}

/// Ablation 3: multiplicative vs linear σ growth.
pub fn growth_ablation() -> Vec<GrowthRow> {
    all_bugs()
        .iter()
        .map(|bug| {
            let run = |growth: Growth| {
                diagnose_bug(
                    bug,
                    &EvalConfig {
                        growth,
                        max_iterations: 24,
                        ..EvalConfig::default()
                    },
                )
                .recurrences
            };
            GrowthRow {
                bug: bug.name.to_owned(),
                multiplicative: run(Growth::Multiplicative),
                linear: run(Growth::Linear(2)),
            }
        })
        .collect()
}

/// β-sweep outcome for one bug.
#[derive(Clone, Debug)]
pub struct BetaRow {
    /// Bug name.
    pub bug: String,
    /// Precision of the top predictor at β = 0.5 (the paper's choice).
    pub precision_beta_half: f64,
    /// Precision of the top predictor at β = 2 (recall-favoring).
    pub precision_beta_two: f64,
}

/// Ablation 4: β = 0.5 favors precise predictors (few false positives in
/// front of the developer); β = 2 would rank high-recall noisy ones up.
pub fn beta_ablation(bug: &BugSpec, runs: u64) -> Option<BetaRow> {
    use gist_core::server::observations;
    let (_, report) = bug.find_failure(500)?;
    let slicer = StaticSlicer::new(&bug.program);
    let slice = slicer.compute(report.failing_stmt);
    let planner = Planner::new(&bug.program, slicer.ticfg());
    let patch = planner.plan(slice.prefix(8), 0);
    let signature = report.signature();
    let obs: Vec<_> = (0..runs)
        .map(|i| {
            let mut tracker = TrackerRuntime::new(&bug.program, patch.clone(), 4);
            let mut vm = Vm::new(&bug.program, bug.vm_config(70_000 + i));
            let r = vm.run(&mut [&mut tracker]);
            let failing = match r.outcome {
                RunOutcome::Failed(rep) => rep.signature() == signature,
                RunOutcome::Finished => false,
            };
            observations(&tracker.finish(), failing)
        })
        .collect();
    let top_precision = |beta: f64| {
        rank(&obs, beta)
            .first()
            .map(|s| s.precision())
            .unwrap_or(0.0)
    };
    Some(BetaRow {
        bug: bug.name.to_owned(),
        precision_beta_half: top_precision(0.5),
        precision_beta_two: top_precision(2.0),
    })
}

/// A knob table arm: its row label and the edit that turns a toggle off.
pub type Knob = (&'static str, fn(&mut EvalConfig));

/// One entry per `enable_*` field of [`EvalConfig`].
pub const KNOBS: [Knob; 7] = [
    ("race ranking", |c| c.enable_race_ranking = false),
    ("alias slicing", |c| c.enable_alias_slicing = false),
    ("SVFG slicing", |c| c.enable_svfg_slicing = false),
    ("MHP", |c| c.enable_mhp = false),
    ("dead-store pruning", |c| {
        c.enable_dead_store_pruning = false
    }),
    ("control flow", |c| c.enable_control_flow = false),
    ("data flow", |c| c.enable_data_flow = false),
];

/// Synthetic bugs per arm in `repro knobs`.
pub const KNOB_SYNTH_BUGS: usize = 1000;

/// One arm of the knob table at one `failing_per_iteration` ("fpi").
#[derive(Clone, Debug)]
pub struct KnobRow {
    /// Failing runs gathered per AsT iteration.
    pub fpi: usize,
    /// The toggle turned off, or `"(none)"` for the default arm.
    pub off: &'static str,
    /// One evaluation per bugbase bug, in `all_bugs` order.
    pub bugs: Vec<BugEvaluation>,
    /// One evaluation per synthetic bug, in draw order, without its
    /// sketch: `repro knobs` keeps 16,000 of these, and their sketches
    /// would raise its peak memory from 90 to 118 MB.
    pub synth: Vec<SynthEvaluation>,
}

/// The knob table: the default configuration and each [`KNOBS`] toggle
/// off alone, at fpi 1 and 6, over the 11 bugbase bugs and the first `n`
/// synthetic bugs drawn from `SplitMix64::new(1)`. Arms run one after
/// another, in table order.
pub fn knob_rows(n: usize) -> Vec<KnobRow> {
    let bugs = all_bugs();
    let mut draws = SplitMix64::new(1);
    let synth_bugs: Vec<SynthBug> = (0..n).map(|_| synth::generate(draws.next_u64())).collect();
    let default_arm: Knob = ("(none)", |_| {});
    let mut rows = Vec::new();
    for fpi in [1, 6] {
        for (off, turn_off) in std::iter::once(default_arm).chain(KNOBS) {
            let mut cfg = EvalConfig {
                failing_per_iteration: fpi,
                ..EvalConfig::default()
            };
            turn_off(&mut cfg);
            rows.push(KnobRow {
                fpi,
                off,
                bugs: bugs.iter().map(|b| diagnose_bug(b, &cfg)).collect(),
                synth: synth_bugs
                    .iter()
                    .map(|b| SynthEvaluation {
                        sketch: None,
                        ..diagnose_synth(b, &cfg)
                    })
                    .collect(),
            });
        }
    }
    rows
}

/// Renders knob rows as a markdown table.
pub fn knobs_text(rows: &[KnobRow]) -> String {
    let mut out = String::from(
        "Knob table — each EvalConfig toggle off alone (11 bugbase bugs, synthetic bugs from SplitMix64::new(1))\n\n\
         | fpi | toggle off | bugbase A | found | recurrences | runs | synth recovered | synth A | synth runs |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let mean = |sum: f64, n: usize| sum / n.max(1) as f64;
        let synth_runs = r.synth.iter().map(|e| e.total_runs).sum::<usize>();
        out.push_str(&format!(
            "| {} | {} | {:.1}% | {}/{} | {} | {} | {}/{} | {:.1}% | {} |\n",
            r.fpi,
            r.off,
            mean(r.bugs.iter().map(|e| e.overall).sum(), r.bugs.len()),
            r.bugs.iter().filter(|e| e.found_root_cause).count(),
            r.bugs.len(),
            r.bugs.iter().map(|e| e.recurrences).sum::<usize>(),
            r.bugs.iter().map(|e| e.total_runs).sum::<usize>(),
            r.synth
                .iter()
                .filter(|e| e.manifested && e.recovered)
                .count(),
            r.synth.len(),
            mean(r.synth.iter().map(|e| e.overall).sum(), r.synth.len()),
            thousands(synth_runs),
        ));
    }
    out
}

/// `25614` -> `"25,614"`.
fn thousands(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Renders all ablations as text.
pub fn ablations_text() -> String {
    let mut out = String::new();
    out.push_str("Ablation 1 — alias analysis (paper §3.1: avoided; >50% inaccurate)\n\n");
    out.push_str(&format!(
        "{:<18} {:>16} {:>18}\n",
        "bug", "no alias (Gist)", "crude may-alias"
    ));
    for r in alias_ablation() {
        out.push_str(&format!(
            "{:<18} {:>16} {:>18}\n",
            r.bug, r.no_alias, r.crude_alias
        ));
    }
    out.push_str("\nAblation 2 — sdom/ipdom start-stop optimization (§3.2.2)\n\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>14} {:>12} {:>14}\n",
        "bug", "points", "points(no)", "trans/run", "trans/run(no)"
    ));
    for r in sdom_ablation(15) {
        out.push_str(&format!(
            "{:<18} {:>12} {:>14} {:>12.1} {:>14.1}\n",
            r.bug, r.points_sdom, r.points_no_sdom, r.transitions_sdom, r.transitions_no_sdom
        ));
    }
    out.push_str("\nAblation 3 — AsT growth: recurrences to final sketch (§3.2.1)\n\n");
    out.push_str(&format!(
        "{:<18} {:>16} {:>12}\n",
        "bug", "multiplicative", "linear(+2)"
    ));
    for r in growth_ablation() {
        out.push_str(&format!(
            "{:<18} {:>16} {:>12}\n",
            r.bug, r.multiplicative, r.linear
        ));
    }
    out.push_str("\nAblation 4 — F-measure β (§3.3: β=0.5 favors precision)\n\n");
    out.push_str(&format!(
        "{:<18} {:>14} {:>14}\n",
        "bug", "P(top) β=0.5", "P(top) β=2"
    ));
    for bug in all_bugs() {
        if let Some(r) = beta_ablation(&bug, 80) {
            out.push_str(&format!(
                "{:<18} {:>14.2} {:>14.2}\n",
                r.bug, r.precision_beta_half, r.precision_beta_two
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_bugbase::bug_by_name;

    #[test]
    fn crude_alias_never_shrinks_a_slice() {
        for r in alias_ablation() {
            assert!(
                r.crude_alias >= r.no_alias,
                "{}: {} < {}",
                r.bug,
                r.crude_alias,
                r.no_alias
            );
        }
    }

    #[test]
    fn crude_alias_blows_up_pointer_heavy_slices() {
        let rows = alias_ablation();
        // The design decision must matter somewhere: at least a third of
        // the bugs see their monitored slice grow.
        let grew = rows.iter().filter(|r| r.crude_alias > r.no_alias).count();
        assert!(grew * 3 >= rows.len(), "{rows:?}");
    }

    #[test]
    fn sdom_optimization_saves_instrumentation() {
        let rows = sdom_ablation(6);
        for r in &rows {
            assert!(
                r.points_sdom <= r.points_no_sdom,
                "{}: {} > {}",
                r.bug,
                r.points_sdom,
                r.points_no_sdom
            );
        }
        // And strictly saves driver transitions overall.
        let with: f64 = rows.iter().map(|r| r.transitions_sdom).sum();
        let without: f64 = rows.iter().map(|r| r.transitions_no_sdom).sum();
        assert!(with <= without, "with {with} vs without {without}");
    }

    /// Static pruning never grows the watch pool: the dead-store filter on
    /// the alias-aware slice, the SVFG slice with value-flow ranking, and
    /// the MHP filter on top of it. Runs no diagnosis.
    #[test]
    fn dead_store_pruning_shrinks_watch_candidate_pool() {
        // Pool totals over the bugbase: alias-aware slice, + dead-store
        // filter, SVFG slice, SVFG slice + MHP filter.
        let mut totals = [0usize; 4];
        for bug in all_bugs() {
            let (_, report) = bug.find_failure(500).expect("every bug manifests");
            let crit = report.failing_stmt;
            let slicer = StaticSlicer::new(&bug.program);
            let facts = slicer.facts();
            let legacy = slicer.compute(crit);
            let sparse = slicer.compute_with_svfg(crit);
            let root = bug.root_cause_stmts();
            let holds_root = |s: &gist_slicing::Slice| root.iter().all(|&r| s.contains(r));
            assert!(
                holds_root(&sparse),
                "{}: SVFG slice lost the root cause",
                bug.name
            );

            let mut dead = gist_analysis::dead_stores(facts);
            dead.remove(&crit);
            let mut never_parallel = facts.mhp().never_parallel_stores(facts);
            never_parallel.remove(&crit);
            let distances = facts.svfg().backward_value_flow(crit);
            let planner = || Planner::new(&bug.program, slicer.ticfg());
            let pools = [
                planner().watch_candidates(&legacy.ordered).len(),
                planner()
                    .with_dead_store_filter(dead)
                    .watch_candidates(&legacy.ordered)
                    .len(),
                planner()
                    .with_distance_rank(distances.clone())
                    .watch_candidates(&sparse.ordered)
                    .len(),
                planner()
                    .with_distance_rank(distances)
                    .with_mhp_filter(never_parallel)
                    .watch_candidates(&sparse.ordered)
                    .len(),
            ];
            assert!(
                pools[1] <= pools[0] && pools[2] <= pools[0] && pools[3] <= pools[2],
                "{}: a pruner grew the pool: {pools:?}",
                bug.name
            );
            if bug.name == "pbzip2-1" {
                // Alias-aware slicing reaches the racing `free`/`store q, 0`
                // statically; the alias-free slice misses them.
                assert!(
                    holds_root(&legacy),
                    "alias-aware slice misses the root cause"
                );
                let no_alias = slicer.compute_without_alias(crit);
                assert!(
                    !holds_root(&no_alias),
                    "alias-free slice holds the root cause"
                );
                assert!(
                    pools[1] < pools[0],
                    "no dead store freed a watch slot: {pools:?}"
                );
            }
            for (total, pool) in totals.iter_mut().zip(pools) {
                *total += pool;
            }
        }
        // DESIGN.md and README quote these totals (44 -> 42 dead-store,
        // 44 -> 35 SVFG, 35 -> 29 MHP); update them together.
        assert_eq!(totals, [44, 42, 35, 29]);
    }

    #[test]
    fn knob_table_turns_each_toggle_off_alone() {
        let rows = knob_rows(4);
        let arms = [
            "(none)",
            "race ranking",
            "alias slicing",
            "SVFG slicing",
            "MHP",
            "dead-store pruning",
            "control flow",
            "data flow",
        ];
        let names: Vec<(usize, &str)> = rows.iter().map(|r| (r.fpi, r.off)).collect();
        let want: Vec<(usize, &str)> = [1, 6]
            .into_iter()
            .flat_map(|fpi| arms.map(|a| (fpi, a)))
            .collect();
        assert_eq!(names, want);
        assert!(rows
            .iter()
            .all(|r| r.bugs.len() == 11 && r.synth.len() == 4));
        for fpi in [1, 6] {
            let arm = |off: &str| rows.iter().find(|r| (r.fpi, r.off) == (fpi, off)).unwrap();
            let default = arm("(none)");
            for e in &default.bugs {
                assert!(
                    e.found_root_cause,
                    "fpi {fpi}: {} missed its root cause",
                    e.bug
                );
            }
            // MHP pruning never changes root-cause discovery and never
            // costs a bug accuracy.
            for (on, off) in default.bugs.iter().zip(&arm("MHP").bugs) {
                assert_eq!(
                    on.found_root_cause, off.found_root_cause,
                    "fpi {fpi}: {}",
                    on.bug
                );
                assert!(
                    on.overall >= off.overall - 1e-9,
                    "fpi {fpi}: {}: MHP pruning cost accuracy: {:.1} < {:.1}",
                    on.bug,
                    on.overall,
                    off.overall
                );
            }
            // Dead-store pruning costs pbzip2-1 no accuracy.
            let pbzip2 = |off: &str| {
                arm(off)
                    .bugs
                    .iter()
                    .find(|e| e.bug == "pbzip2-1")
                    .unwrap()
                    .overall
            };
            assert!(
                pbzip2("(none)") >= pbzip2("dead-store pruning") - 1e-9,
                "fpi {fpi}: dead-store pruning cost pbzip2-1 accuracy"
            );
        }
        // The whole table, byte for byte, pins every toggle-off path of the
        // diagnosis loop. To accept a change:
        // UPDATE_GOLDEN=1 cargo test -p gist-bench --lib knob_table
        let golden =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/knobs-4.txt");
        let text = knobs_text(&rows);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&golden, &text).expect("write the knob golden");
        } else {
            let want = std::fs::read_to_string(&golden)
                .unwrap_or_else(|e| panic!("{}: {e}; run with UPDATE_GOLDEN=1", golden.display()));
            assert_eq!(
                text,
                want,
                "knob table differs from {} (UPDATE_GOLDEN=1 to accept)",
                golden.display()
            );
        }
    }

    #[test]
    fn beta_half_top_predictor_is_precise_for_pbzip2() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let r = beta_ablation(&bug, 80).unwrap();
        assert!(
            r.precision_beta_half >= r.precision_beta_two - 1e-9,
            "{r:?}"
        );
    }
}
