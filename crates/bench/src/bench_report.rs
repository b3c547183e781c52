//! `repro -- bench`: the deterministic bugbase report.
//!
//! Drives the full bugbase through [`gist_coop::diagnose_bug`] and writes
//! `BENCH_gist.json` as `{schema, deterministic}`, where `deterministic`
//! holds the per-bug diagnosis rows plus the counter/histogram snapshot.
//! Under fixed seeds the whole report is **byte-identical** across runs
//! (the gist-obs determinism contract), so CI diffs it against the
//! committed file. Wall-clock speed is measured by the repository
//! benchmark (`benchmark/`), not here.

use gist_bugbase::all_bugs;
use gist_coop::{diagnose_bug, BugEvaluation, EvalConfig};
use gist_obs::json::Json;
use gist_obs::JournalStats;

/// One bench run's output.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Per-bug rows + metrics snapshot; byte-identical across same-seed runs.
    pub deterministic: Json,
    /// The flight-recorder journal of the diagnoses in the canonical
    /// binary format (`JOURNAL_gist.bin`); byte-identical across same-seed
    /// runs.
    pub journal_binary: Vec<u8>,
    /// The journal's overwrite accounting from the drain. Any overwritten
    /// event leaves a gap in the journal.
    pub journal_stats: JournalStats,
}

impl BenchReport {
    /// The full report as a JSON value.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("gist-bench/v2".into())),
            ("deterministic".into(), self.deterministic.clone()),
        ])
    }

    /// Pretty-printed JSON (what `BENCH_gist.json` holds).
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Compact JSON of only the deterministic section.
    pub fn deterministic_json(&self) -> String {
        self.deterministic.render()
    }
}

fn bug_row(eval: &BugEvaluation) -> Json {
    Json::Obj(vec![
        ("recurrences".into(), Json::U64(eval.recurrences as u64)),
        ("total_runs".into(), Json::U64(eval.total_runs as u64)),
        ("iterations".into(), Json::U64(eval.iterations as u64)),
        ("final_sigma".into(), Json::U64(eval.final_sigma as u64)),
        ("slice_instrs".into(), Json::U64(eval.slice_instrs as u64)),
        ("sketch_instrs".into(), Json::U64(eval.sketch_instrs as u64)),
        ("relevance".into(), Json::F64(eval.relevance)),
        ("ordering".into(), Json::F64(eval.ordering)),
        ("overall".into(), Json::F64(eval.overall)),
        ("found_root_cause".into(), Json::Bool(eval.found_root_cause)),
        ("pt_bytes".into(), Json::U64(eval.cost.pt_bytes)),
        ("watch_traps".into(), Json::U64(eval.cost.watch_traps)),
        (
            "instrumentation_points".into(),
            Json::U64(eval.cost.instrumentation_points),
        ),
        ("patch_bytes".into(), Json::U64(eval.cost.patch_bytes)),
    ])
}

/// Runs the bench: every bugbase bug through `diagnose_bug` (or the named
/// subset, for cheap determinism tests), then drains the journal.
///
/// Resets the global metrics registry first, so the snapshot covers exactly
/// this run — callers that share the process with other metric producers
/// (tests in the same binary) get polluted counters; run bench in its own
/// process for byte-stable output.
pub fn run(filter: Option<&[&str]>) -> (BenchReport, Vec<BugEvaluation>) {
    gist_obs::reset();
    let mut rows: Vec<(String, Json)> = Vec::new();
    let mut evals = Vec::new();
    for bug in all_bugs() {
        if let Some(names) = filter {
            if !names.contains(&bug.name) {
                continue;
            }
        }
        let eval = diagnose_bug(&bug, &EvalConfig::default());
        rows.push((bug.name.to_owned(), bug_row(&eval)));
        evals.push(eval);
    }
    let deterministic = Json::Obj(vec![
        ("bugs".into(), Json::Obj(rows)),
        ("metrics".into(), gist_obs::snapshot().deterministic_value()),
    ]);
    let (journal_binary, journal_stats) = gist_obs::journal::drain_binary();
    (
        BenchReport {
            deterministic,
            journal_binary,
            journal_stats,
        },
        evals,
    )
}
