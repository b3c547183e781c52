//! The bench report's determinism contract: the whole `BENCH_gist.json`
//! report and its binary journal must be byte-identical across same-seed
//! runs, and the journal must be complete (no ring overwrites).
//!
//! One in-process `#[test]` in its own integration binary: the bench
//! resets and reads the process-global metrics registry, so it cannot
//! share a process with other metric-producing tests. The other tests run
//! the `repro` binary as a child process and share no state with it.

use std::path::Path;
use std::process::Command;

use gist_bench::bench_report;
use gist_obs::json::Json;

#[test]
fn deterministic_section_is_byte_identical_across_runs() {
    // A cheap subset (one single- and one multi-iteration diagnosis) keeps
    // the double full-pipeline run affordable in debug builds; `repro bench`
    // exercises the full bugbase.
    let subset = ["pbzip2-1", "curl-965", "apache-45605"];
    let (first, evals) = bench_report::run(Some(&subset));
    assert_eq!(evals.len(), subset.len(), "all subset bugs diagnosed");
    let (second, _) = bench_report::run(Some(&subset));
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "the whole report must be identical under fixed seeds"
    );
    // The flight-recorder journal carries no wall-clock fields, so it is
    // part of the determinism contract too.
    assert_eq!(
        first.journal_binary, second.journal_binary,
        "binary journal must be byte-identical under fixed seeds"
    );
    assert!(
        !gist_obs::journal::parse_binary(&first.journal_binary)
            .expect("the drained journal parses")
            .0
            .is_empty(),
        "diagnoses journal events"
    );
    assert_eq!(
        first.journal_stats.events_overwritten, 0,
        "the bench must not overflow the ring"
    );

    let Json::Obj(fields) = first.to_value() else {
        panic!("the report is a JSON object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["schema", "deterministic"]);
}

/// The synthetic bench writes its own report; run without `--out` from
/// the repository root, it must leave the committed golden alone.
#[test]
fn synthetic_bench_never_writes_the_committed_report() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("synthetic-bench-default-out");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench", "--synthetic", "1", "--seed", "1"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("BENCH_gist.json").exists());
    let report = std::fs::read_to_string(dir.join("SYNTH_bench.json")).expect("SYNTH_bench.json");
    assert!(report.contains("gist-bench-synth/v1"), "{report}");
}

/// `bench` takes only `--out PATH`: an unknown argument is a usage error
/// before any diagnosis runs, not a path to write the report to.
#[test]
fn bench_rejects_an_unknown_argument_and_writes_nothing() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-unknown-argument");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench", "--bogus"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(written.is_empty(), "repro bench --bogus wrote {written:?}");
}

/// Every command takes exactly its documented arguments: an unknown flag,
/// a flag without its value, a repeated flag or an extra argument is a
/// usage error before any work, and writes nothing.
#[test]
fn commands_reject_arguments_they_do_not_document_and_write_nothing() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("undocumented-arguments");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for args in [
        &["bench", "--synthetic", "1", "--seed", "1", "--bogus"][..],
        &["bench", "--synthetic", "1", "--seed"],
        &["bench", "--synthetic", "1", "--out"],
        &["bench", "--synthetic", "1", "--seed", "1", "--seed", "2"],
        &["bench", "--synthetic"],
        &["table1", "extra"],
        &["knobs", "--out", "x"],
        &["sketch"],
        &["sketch", "pbzip2-1", "--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(stderr.contains("usage: repro "), "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} printed output");
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("read scratch dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert!(written.is_empty(), "repro {args:?} wrote {written:?}");
    }
}
