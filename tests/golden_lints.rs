//! Golden snapshot tests for the gist-lint detector suite.
//!
//! Every bugbase bug's lint report (the value-flow detectors GA020–GA023
//! plus the shared verifier/dead-store passes) is pinned byte-for-byte
//! under `tests/golden/<bug>.lints`. A detector or SVFG change that alters
//! any finding fails here with a line diff.
//!
//! The synthetic programs of the `analyze` benchmark workload are pinned
//! too, one line each, in `tests/golden/synth-analyze.txt`: every
//! diagnostic's code and location, the number of predicted sketches, and
//! an FNV-1a hash of the rendered lint report plus the predictions.
//!
//! The race detector and the default pass pipeline are pinned the same
//! way: `tests/golden/races.txt` holds what `repro races` and
//! `gist-analyze --bugbase` print, and `tests/golden/synth-races.txt`
//! holds one line per `analyze` workload program with the default
//! pipeline's codes and locations and an FNV-1a hash of its report, the
//! race table, the dead stores and the never-parallel stores.
//!
//! To accept intentional changes, regenerate the snapshots:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gist-bench --test golden_lints
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use gist_analysis::{
    analyze, dead_stores, default_passes, lint_all, lint_passes, predicted_sketches,
    render_prediction, render_report, AnalysisCtx, Diagnostic, Severity,
};
use gist_bugbase::synth::{self, PatternKind, SplitMix64, SynthBug};
use gist_ir::Program;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// A readable line diff: every differing line as `-expected` / `+actual`.
fn line_diff(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            if let Some(e) = e {
                let _ = writeln!(out, "  line {:>3} - {e}", i + 1);
            }
            if let Some(a) = a {
                let _ = writeln!(out, "  line {:>3} + {a}", i + 1);
            }
        }
    }
    out
}

/// Renders one bug's lint report exactly as `gist-analyze lint` prints it.
fn lint_report(bug: &gist_bugbase::BugSpec) -> String {
    let pm = lint_passes();
    let diags = pm.run(&bug.program);
    if diags.is_empty() {
        format!("ok: no findings ({} passes)\n", pm.pass_names().len())
    } else {
        render_report(Some(&bug.program), &diags)
    }
}

/// Compares `rendered` with the golden file `file`, or rewrites the file
/// under `UPDATE_GOLDEN`. A mismatch is pushed onto `failures`.
fn check_golden(what: &str, file: &str, rendered: &str, failures: &mut Vec<String>) {
    let path = golden_dir().join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let golden = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!(
                "{what}: no golden snapshot at {} ({e}); run with UPDATE_GOLDEN=1",
                path.display()
            ));
            return;
        }
    };
    if golden != rendered {
        failures.push(format!(
            "{what}: output differs from {} (UPDATE_GOLDEN=1 to accept):\n{}",
            path.display(),
            line_diff(&golden, rendered)
        ));
    }
}

fn check_bug(bug: &gist_bugbase::BugSpec, failures: &mut Vec<String>) {
    let file = format!("{}.lints", bug.name);
    check_golden(bug.name, &file, &lint_report(bug), failures);
}

#[test]
fn lint_reports_match_golden_snapshots() {
    let mut failures = Vec::new();
    for bug in &gist_bugbase::all_bugs() {
        check_bug(bug, &mut failures);
    }
    assert!(
        failures.is_empty(),
        "{} lint report(s) changed:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The synthetic programs of the `analyze` benchmark workload at seed 1:
/// 23 rounds of the 9 injected patterns, then 22 clean controls, all
/// drawn from one `SplitMix64::new(1)` stream.
fn analyze_workload_programs() -> Vec<SynthBug> {
    let mut stream = SplitMix64::new(1);
    let mut bugs = Vec::new();
    for _ in 0..23 {
        for pattern in PatternKind::INJECTED {
            bugs.push(synth::generate_with_pattern(stream.next_u64(), pattern));
        }
    }
    bugs.extend((0..22).map(|_| synth::generate_control(stream.next_u64())));
    bugs
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Appends each diagnostic's ` code@location` to `line`.
fn push_diag_locs(line: &mut String, program: &Program, diags: &[Diagnostic]) {
    for d in diags {
        let loc = if d.loc.is_unknown() {
            "<unknown>".to_owned()
        } else {
            program.source_map.display(d.loc)
        };
        let _ = write!(line, " {}@{loc}", d.code);
    }
}

/// One program's golden line: its name, each diagnostic's code and
/// location, the number of predicted sketches, and an FNV-1a hash of the
/// rendered lint report plus the rendered predictions.
fn synth_line(name: &str, program: &Program) -> String {
    let diags = lint_all(program);
    let preds = predicted_sketches(program);
    let mut line = name.to_owned();
    push_diag_locs(&mut line, program, &diags);
    let mut rendered = render_report(Some(program), &diags);
    rendered.extend(preds.iter().map(render_prediction));
    let _ = writeln!(
        line,
        " predicted={} fnv={:016x}",
        preds.len(),
        fnv1a(rendered.as_bytes())
    );
    line
}

/// The lint and prediction output of the `analyze` workload's synthetic
/// programs is pinned line by line in `tests/golden/synth-analyze.txt`.
#[test]
fn analyze_workload_synthetic_output_matches_golden() {
    let bugs = analyze_workload_programs();
    assert_eq!(bugs.len(), 23 * 9 + 22);
    let rendered: String = bugs
        .iter()
        .map(|b| synth_line(&b.name, &b.program))
        .collect();
    let mut failures = Vec::new();
    check_golden(
        "synth-analyze",
        "synth-analyze.txt",
        &rendered,
        &mut failures,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The default pipeline's report for one program, as `gist-analyze`
/// prints it under the program's header.
fn default_report(program: &Program, diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        let passes = default_passes().pass_names().len();
        format!("ok: no findings ({passes} passes)\n")
    } else {
        format!("{}\n", render_report(Some(program), diags))
    }
}

/// One program's race golden line: its name, each default-pipeline
/// diagnostic's code and location, and an FNV-1a hash of the default
/// report, the race table, the dead stores and the never-parallel stores.
fn synth_race_line(name: &str, program: &Program) -> String {
    let diags = default_passes().run(program);
    let cx = AnalysisCtx::new(program);
    let mut line = name.to_owned();
    push_diag_locs(&mut line, program, &diags);
    let mut rendered = default_report(program, &diags);
    rendered.push_str(&analyze(program).render_table(program));
    let _ = writeln!(rendered, "dead stores {:?}", dead_stores(&cx));
    let never_parallel = cx.mhp().never_parallel_stores(&cx);
    let _ = writeln!(rendered, "never-parallel stores {never_parallel:?}");
    let _ = writeln!(line, " fnv={:016x}", fnv1a(rendered.as_bytes()));
    line
}

/// The ranked race candidates (`repro races`) and the default pipeline's
/// report (`gist-analyze --bugbase`) over the bugbase are pinned in
/// `tests/golden/races.txt`, and the same facts over the `analyze`
/// workload's synthetic programs line by line in
/// `tests/golden/synth-races.txt`.
#[test]
fn race_tables_and_default_pipeline_match_golden() {
    let mut bugbase = format!("{}\n", gist_bench::races::races_text());
    for bug in &gist_bugbase::all_bugs() {
        let diags = default_passes().run(&bug.program);
        let _ = write!(
            bugbase,
            "=== {} ({}) ===\n{}",
            bug.name,
            bug.display,
            default_report(&bug.program, &diags)
        );
    }
    let synthetic: String = analyze_workload_programs()
        .iter()
        .map(|b| synth_race_line(&b.name, &b.program))
        .collect();
    let mut failures = Vec::new();
    check_golden("races", "races.txt", &bugbase, &mut failures);
    check_golden("synth-races", "synth-races.txt", &synthetic, &mut failures);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The detectors never report an error-severity diagnostic on the bugbase
/// (the miniatures are real bugs, flagged as warnings) and never flag the
/// sequential single-thread programs with a concurrency lint.
#[test]
fn lint_suite_flags_known_bugs_without_false_positives() {
    let concurrency_codes = ["GA020", "GA021", "GA022", "GA024"];
    for bug in gist_bugbase::all_bugs() {
        let diags = lint_passes().run(&bug.program);
        for d in &diags {
            assert_eq!(
                d.severity,
                Severity::Warning,
                "{}: lint {} must be a warning on runnable bugbase code",
                bug.name,
                d.code
            );
        }
        let threads = bug.program.functions.iter().any(|f| {
            f.blocks
                .iter()
                .flat_map(|b| b.instrs.iter())
                .any(|i| matches!(i.op, gist_ir::Op::ThreadCreate { .. }))
        });
        if !threads {
            for d in &diags {
                assert!(
                    !concurrency_codes.contains(&d.code),
                    "{}: sequential program flagged with concurrency lint {}",
                    bug.name,
                    d.code
                );
            }
        }
    }
}
