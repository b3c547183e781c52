//! `repro -- bench`: the perf-trajectory emitter.
//!
//! Drives the full bugbase through [`gist_coop::diagnose_bug`] with metrics
//! enabled and writes `BENCH_gist.json`. The report has two top-level
//! sections:
//!
//! * `deterministic` — per-bug diagnosis rows plus the counter/histogram
//!   snapshot. Under fixed seeds this section is **byte-identical** across
//!   runs (the gist-obs determinism contract), so CI can diff it against a
//!   committed baseline.
//! * `throughput` — execution rates: instrs/sec, runs/sec, and batch
//!   scaling with machine-aware arms (1/2/4/…/N for N =
//!   [`std::thread::available_parallelism`]) plus per-arm fleet contention
//!   statistics. Wall-clock derived; never compared byte-for-byte.
//! * `timing` — wall-clock per bug and span timers. Real time; never
//!   compared byte-for-byte.

use std::time::Instant;

use gist_bugbase::{all_bugs, bug_by_name, BugSpec};
use gist_coop::{diagnose_bug, BugEvaluation, EvalConfig, FleetConfig, SimulatedFleet};
use gist_core::Fleet;
use gist_obs::json::Json;
use gist_slicing::StaticSlicer;
use gist_tracking::{InstrumentationPatch, Planner};

/// Baseline runs per batch arm of the throughput measurement; the actual
/// count is rounded up by [`throughput_runs`] to a common multiple of
/// every arm so each arm executes exactly the same runs.
const THROUGHPUT_RUNS_BASE: u64 = 512;

/// The machine-aware batch-scaling arms: 1, 2, 4, … doubling up to the
/// machine's [`std::thread::available_parallelism`] N, with N itself
/// appended when it is not a power of two. One core yields just `[1]` —
/// parallel arms would only measure oversubscription noise.
pub fn throughput_batches() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut arms = Vec::new();
    let mut b = 1usize;
    while b <= cores {
        arms.push(b);
        b *= 2;
    }
    if *arms.last().expect("at least batch=1") != cores {
        arms.push(cores);
    }
    arms
}

/// Runs per batch arm: the smallest multiple of every arm's batch size
/// that is ≥ [`THROUGHPUT_RUNS_BASE`], so no arm over-prefetches at the
/// tail and all arms execute identical run sets.
pub fn throughput_runs(batches: &[usize]) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let lcm = batches
        .iter()
        .fold(1u64, |l, &b| l / gcd(l, b as u64) * b as u64);
    THROUGHPUT_RUNS_BASE.div_ceil(lcm) * lcm
}

/// One bench run's output, split along the determinism contract.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Per-bug rows + metrics snapshot; byte-identical across same-seed runs.
    pub deterministic: Json,
    /// Execution-rate measurements (instrs/sec, runs/sec, batch scaling).
    /// Wall-clock derived, so excluded from the determinism contract.
    pub throughput: Json,
    /// Wall-clock timings; informational only.
    pub timing: Json,
    /// The flight-recorder journal of the deterministic section in the
    /// canonical binary format (`JOURNAL_gist.bin`). Drained *before* the
    /// throughput section runs, so it covers only the sequential (batch=1)
    /// diagnoses and is byte-identical across same-seed runs. Empty under
    /// `metrics-off`.
    pub journal_binary: Vec<u8>,
    /// The JSONL export of [`BenchReport::journal_binary`]
    /// (`JOURNAL_gist.jsonl`); same events, same determinism contract.
    pub journal: String,
}

impl BenchReport {
    /// The full report as a JSON value.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("gist-bench/v1".into())),
            ("deterministic".into(), self.deterministic.clone()),
            ("throughput".into(), self.throughput.clone()),
            ("timing".into(), self.timing.clone()),
        ])
    }

    /// Pretty-printed JSON (what `BENCH_gist.json` holds).
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Compact JSON of only the deterministic section (what determinism
    /// tests compare byte-for-byte).
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

/// A representative instrumentation patch for throughput runs: plan the
/// first watch group over an 8-statement slice prefix of the bug's failure.
fn throughput_patch(bug: &BugSpec) -> InstrumentationPatch {
    let (_, report) = bug
        .find_failure(2_000)
        .unwrap_or_else(|| panic!("{}: bug never manifests", bug.name));
    let slicer = StaticSlicer::new(&bug.program);
    let slice = slicer.compute(report.failing_stmt);
    let planner = Planner::new(&bug.program, slicer.ticfg());
    let tracked = slice.prefix(8).to_vec();
    planner.plan(&tracked, 0)
}

/// One batch arm of the throughput measurement.
#[derive(Clone, Debug)]
pub struct ThroughputArm {
    /// Parallel batch size of this arm.
    pub batch: usize,
    /// Tracked fleet runs per second.
    pub runs_per_sec: f64,
    /// Retired VM instructions per second (0 under `metrics-off`, which
    /// compiles the `vm.instr_retired` counter away).
    pub instrs_per_sec: f64,
    /// Pool worker threads the arm's fleet spawned.
    pub pool_workers: usize,
    /// Per-executor contention statistics (runs, chunk waits, decode-shard
    /// hit ratios) harvested from the arm's fleet.
    pub contention: gist_coop::FleetStats,
}

/// Measures fleet throughput over `runs` tracked runs of pbzip2-1 for each
/// batch size: runs/sec from wall-clock, instrs/sec from the
/// `vm.instr_retired` counter delta over the same interval.
pub fn fleet_throughput(runs: u64, batches: &[usize]) -> Vec<ThroughputArm> {
    let bug = bug_by_name("pbzip2-1").expect("bugbase has pbzip2-1");
    let patch = throughput_patch(&bug);
    let retired = gist_obs::counter!("vm.instr_retired");
    batches
        .iter()
        .map(|&batch| {
            let mut fleet = SimulatedFleet::for_bug(
                &bug,
                FleetConfig {
                    endpoints: 64,
                    num_cores: 4,
                    batch,
                    workers: None,
                },
            );
            let instrs0 = retired.get();
            let t0 = Instant::now();
            for _ in 0..runs {
                let _ = Fleet::next_run(&mut fleet, &patch);
            }
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            ThroughputArm {
                batch,
                runs_per_sec: runs as f64 / secs,
                instrs_per_sec: (retired.get() - instrs0) as f64 / secs,
                pool_workers: fleet.pool_workers(),
                contention: fleet.contention_stats(),
            }
        })
        .collect()
}

/// Renders the throughput arms as the report's `throughput` section:
/// headline `runs_per_sec` / `instrs_per_sec` (the best arm) plus a
/// `batch_scaling` table keyed by batch size with per-arm rates, speedup
/// relative to batch=1, pool size, and contention statistics.
fn throughput_value(runs_per_arm: u64, arms: &[ThroughputArm]) -> Json {
    let batch1 = arms
        .iter()
        .find(|a| a.batch == 1)
        .map_or(0.0, |a| a.runs_per_sec);
    let best = arms
        .iter()
        .fold(None::<&ThroughputArm>, |best, a| match best {
            Some(b) if b.runs_per_sec >= a.runs_per_sec => Some(b),
            _ => Some(a),
        });
    let scaling = arms
        .iter()
        .map(|a| {
            (
                a.batch.to_string(),
                Json::Obj(vec![
                    ("runs_per_sec".into(), Json::F64(a.runs_per_sec)),
                    ("instrs_per_sec".into(), Json::F64(a.instrs_per_sec)),
                    (
                        "speedup_vs_batch1".into(),
                        Json::F64(if batch1 > 0.0 {
                            a.runs_per_sec / batch1
                        } else {
                            0.0
                        }),
                    ),
                    ("pool_workers".into(), Json::U64(a.pool_workers as u64)),
                    ("contention".into(), a.contention.to_value()),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("runs_per_arm".into(), Json::U64(runs_per_arm)),
        (
            "available_parallelism".into(),
            Json::U64(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1),
            ),
        ),
        (
            "runs_per_sec".into(),
            Json::F64(best.map_or(0.0, |a| a.runs_per_sec)),
        ),
        (
            "instrs_per_sec".into(),
            Json::F64(best.map_or(0.0, |a| a.instrs_per_sec)),
        ),
        ("batch_scaling".into(), Json::Obj(scaling)),
    ])
}

/// Runs the bench: every bugbase bug through `diagnose_bug` (or the named
/// subset, for cheap determinism tests), then the throughput measurement.
///
/// Resets the global metrics registry first, so the snapshot covers exactly
/// this run — callers that share the process with other metric producers
/// (tests in the same binary) get polluted counters; run bench in its own
/// process for byte-stable output.
pub fn run(filter: Option<&[&str]>) -> (BenchReport, Vec<BugEvaluation>) {
    gist_obs::reset();
    let t_total = Instant::now();
    let mut rows: Vec<(String, Json)> = Vec::new();
    let mut wall: Vec<(String, Json)> = Vec::new();
    let mut evals = Vec::new();
    for bug in all_bugs() {
        if let Some(names) = filter {
            if !names.contains(&bug.name) {
                continue;
            }
        }
        let t0 = Instant::now();
        let eval = diagnose_bug(&bug, &EvalConfig::default());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        rows.push((bug.name.to_owned(), bug_row(&eval)));
        wall.push((bug.name.to_owned(), Json::F64(ms)));
        evals.push(eval);
    }
    let snapshot = gist_obs::snapshot();
    let deterministic = Json::Obj(vec![
        ("bugs".into(), Json::Obj(rows)),
        ("metrics".into(), snapshot.deterministic_value()),
    ]);
    // Drain the journal before the throughput section: its batch>1 arms
    // record events from racing worker threads, which must not leak into
    // the deterministic journal. The cost split backs the overhead claim:
    // `encode_ms` is the amortized in-flush frame encoding, `drain_ms` is
    // the binary take (the ring already holds wire frames — draining the
    // canonical journal is a sort plus one concatenation), `export_ms` is
    // the decode + JSONL render (export only — not part of the always-on
    // recording path).
    let encode_ms = gist_obs::journal::encode_ms();
    let t_drain = Instant::now();
    let (journal_binary, stats) = gist_obs::journal::drain_binary();
    let drain_ms = t_drain.elapsed().as_secs_f64() * 1e3;
    let t_export = Instant::now();
    let (events, _) = gist_obs::journal::parse_binary(&journal_binary)
        .expect("the drained binary journal parses");
    let journal = gist_obs::journal::to_jsonl(&events);
    let export_ms = t_export.elapsed().as_secs_f64() * 1e3;

    let batches = throughput_batches();
    let runs_per_arm = throughput_runs(&batches);
    let arms = fleet_throughput(runs_per_arm, &batches);
    let throughput = throughput_value(runs_per_arm, &arms);
    let total_ms = t_total.elapsed().as_secs_f64() * 1e3;
    // The always-on recorder cost relative to the whole bench: encoding
    // plus draining. CI bench-smoke gates this ratio at ≤ 3%.
    let overhead_ratio = if total_ms > 0.0 {
        (encode_ms + drain_ms) / total_ms
    } else {
        0.0
    };
    let journal_overhead = Json::Obj(vec![
        ("events_recorded".into(), Json::U64(events.len() as u64)),
        (
            "events_overwritten".into(),
            Json::U64(stats.events_overwritten),
        ),
        ("oldest_seq".into(), Json::U64(stats.oldest_seq)),
        (
            "binary_bytes".into(),
            Json::U64(journal_binary.len() as u64),
        ),
        ("jsonl_bytes".into(), Json::U64(journal.len() as u64)),
        ("encode_ms".into(), Json::F64(encode_ms)),
        ("drain_ms".into(), Json::F64(drain_ms)),
        ("export_ms".into(), Json::F64(export_ms)),
        ("overhead_ratio".into(), Json::F64(overhead_ratio)),
    ]);
    let timing = Json::Obj(vec![
        ("total_ms".into(), Json::F64(total_ms)),
        ("per_bug_ms".into(), Json::Obj(wall)),
        ("spans".into(), snapshot.timers_value()),
        ("journal".into(), journal_overhead),
        (
            "metrics_feature".into(),
            Json::Str(
                if cfg!(feature = "metrics-off") {
                    "off"
                } else {
                    "on"
                }
                .into(),
            ),
        ),
    ]);

    (
        BenchReport {
            deterministic,
            throughput,
            timing,
            journal_binary,
            journal,
        },
        evals,
    )
}
