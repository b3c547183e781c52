//! The bench report's determinism contract: the whole `BENCH_gist.json`
//! report and its binary journal must be byte-identical across same-seed
//! runs, and the journal must be complete (no ring overwrites).
//!
//! One `#[test]` in its own integration binary: the bench resets and reads
//! the process-global metrics registry, so it cannot share a process with
//! other metric-producing tests.

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
