//! `gist-analyze` output is deterministic: repeated runs over the same
//! inputs produce byte-identical stdout, in every mode (default and lint
//! pipelines, text and `--json` rendering).
//!
//! Determinism is what makes the golden-lint gate and the CI findings
//! artifact meaningful — a nondeterministically ordered report would churn
//! on every run.
//!
//! The exit-status contract also covers output failures: a stdout that
//! cannot be written ends the run with status 2, never a panic, in
//! `gist-analyze`, `repro` and `gist-trace`.

use std::process::Command;

fn run(args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_gist-analyze"))
        .args(args)
        .output()
        .expect("spawn gist-analyze");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.code().unwrap_or(-1),
    )
}

fn assert_repeatable(args: &[&str]) -> String {
    let (first, code1) = run(args);
    let (second, code2) = run(args);
    assert_eq!(code1, code2, "{args:?}: exit code changed between runs");
    assert_eq!(
        first, second,
        "{args:?}: output differs between identical runs"
    );
    assert!(!first.is_empty(), "{args:?}: produced no output");
    first
}

#[test]
fn default_pipeline_text_output_is_byte_identical() {
    let out = assert_repeatable(&["--bugbase"]);
    assert!(out.contains("=== apache-45605"), "per-bug headers present");
}

#[test]
fn lint_pipeline_text_output_is_byte_identical() {
    let out = assert_repeatable(&["lint", "--bugbase"]);
    assert!(out.contains("GA020"), "lint suite ran: UAF finding present");
}

#[test]
fn json_output_is_byte_identical_and_parses() {
    for args in [
        &["--json", "--bugbase"][..],
        &["lint", "--json", "--bugbase"][..],
    ] {
        let out = assert_repeatable(args);
        let parsed = gist_obs::json::Json::parse(&out)
            .unwrap_or_else(|e| panic!("{args:?}: --json output does not parse: {e}"));
        match parsed {
            gist_obs::json::Json::Arr(programs) => {
                assert_eq!(
                    programs.len(),
                    gist_bugbase::all_bugs().len(),
                    "{args:?}: one JSON object per bugbase program"
                );
            }
            other => panic!("{args:?}: expected a top-level array, got {other:?}"),
        }
    }
}

/// A stdout whose reader is gone ends the run with exit status 2 and one
/// line on stderr, not a panic, in `gist-analyze`, `repro` and
/// `gist-trace` alike. The child's stdout is the write end of a pipe whose
/// read end is already closed, so every write fails.
#[test]
fn closed_stdout_exits_2_without_panicking() {
    let journal = concat!(env!("CARGO_MANIFEST_DIR"), "/../../JOURNAL_gist.bin");
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_gist-analyze"), &["--bugbase"][..]),
        (
            env!("CARGO_BIN_EXE_gist-analyze"),
            &["lint", "--bugbase"][..],
        ),
        (
            env!("CARGO_BIN_EXE_gist-analyze"),
            &["predict", "--json", "--bugbase"][..],
        ),
        (env!("CARGO_BIN_EXE_repro"), &["races"][..]),
        (env!("CARGO_BIN_EXE_gist-trace"), &["summary", journal][..]),
    ] {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn the tool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}
