//! One workload's run: repeated set-up, the calibrated timed loop, the
//! checks, and the optional traced pass.

use std::time::Instant;

use gist_obs::json::Json;

use crate::calibration;
use crate::json;
use crate::layers::{ratio, Layers};
use crate::metrics::{spec, Better, Summary, END_TO_END, PER_LAYER};
use crate::workloads::{self, Checks};
use crate::Workload;

/// Set-ups per run; `setup_s` is the median of their calibrated times.
const SETUP_REPEATS: usize = 11;

/// Segments of the traced pass (and of the determinism digest) when the
/// run is measured in seconds.
const TRACE_SEGMENTS: usize = 10;

/// The percentile at the fast end that timings are read at: the fastest
/// tenth of the segments, and of the calibration kernel's runs.
const FAST_END: f64 = 10.0;

/// How long the timed loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Whole segments until this many seconds have passed (at least
    /// [`TRACE_SEGMENTS`], so the digest covers the traced segments).
    Seconds(f64),
    /// Exactly this many segments, in the timed loop and in the traced
    /// pass alike.
    Segments(usize),
}

impl Budget {
    fn traced_segments(self) -> usize {
        match self {
            Budget::Seconds(_) => TRACE_SEGMENTS,
            Budget::Segments(n) => n.max(1),
        }
    }

    fn done(self, segments: usize, elapsed_s: f64) -> bool {
        segments >= self.traced_segments()
            && match self {
                Budget::Seconds(s) => elapsed_s >= s,
                Budget::Segments(n) => segments >= n,
            }
    }
}

/// One timed segment, as measured (uncalibrated).
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// Wall-clock seconds of the segment's work.
    pub secs: f64,
    /// Items it completed.
    pub items: u64,
    /// Median request latency, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, in milliseconds.
    pub p99_ms: f64,
    /// The calibration kernel's time right after it.
    pub calibration_ms: f64,
}

/// `f` of every segment, multiplied by `factor`, read at the fast end:
/// the [`FAST_END`]-th percentile from the top for a rate, from the
/// bottom for a time.
fn fast_end(segments: &[Segment], factor: f64, better: Better, f: fn(&Segment) -> f64) -> Summary {
    let values: Vec<f64> = segments.iter().map(|s| f(s) * factor).collect();
    let p = match better {
        Better::Higher => 100.0 - FAST_END,
        Better::Lower => FAST_END,
    };
    Summary::percentile_of(&values, p)
}

/// Everything one run measured and checked.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Its input seed.
    pub seed: u64,
    /// Whether the traced pass ran (and per-layer metrics are reported).
    pub traced: bool,
    /// Items attempted in the timed loop.
    pub attempted: u64,
    /// Items whose output was wrong.
    pub failed: u64,
    /// Reasons the run is incorrect; empty when correct.
    pub violations: Vec<String>,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Per-layer metrics, in [`PER_LAYER`] order; empty unless traced.
    pub per_layer: Vec<(&'static str, Summary)>,
    /// FNV-1a of the gist-obs deterministic snapshot after the first
    /// traced-pass-length stretch of timed segments.
    pub digest: u64,
    /// The same digest over the traced pass, when it ran.
    pub traced_digest: Option<u64>,
    /// Uncalibrated values and calibration data, for information only.
    pub info: Vec<(&'static str, f64)>,
    /// Every timed segment's raw time, items and calibration.
    pub segments: Vec<Segment>,
}

impl Outcome {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The metrics the result line carries: end-to-end untraced,
    /// per-layer traced.
    fn reported(&self) -> &[(&'static str, Summary)] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// One `metric workload value unit` line per metric measured.
    pub fn lines(&self) -> Vec<String> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|(name, s)| {
                let unit = spec(name).expect("every reported metric has a spec").unit;
                format!("{name} {} {} {unit}", self.workload.name(), s.value)
            })
            .collect()
    }

    /// The digest line: the timed loop's digest, and the traced pass's.
    pub fn digest_line(&self) -> String {
        let traced = self
            .traced_digest
            .map_or_else(|| "-".to_owned(), |d| format!("{d:016x}"));
        format!(
            "digest {} timed {:016x} traced {traced}",
            self.workload.name(),
            self.digest
        )
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// reported metrics with their units.
    pub fn result_line(&self) -> String {
        let metrics = self
            .reported()
            .iter()
            .map(|(name, s)| {
                let unit = spec(name).expect("every reported metric has a spec").unit;
                (
                    (*name).to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::F64(s.value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        json::render(&Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }

    /// The full record for a result file: every metric with its
    /// quartiles, p90 and sample count, the digests, the violations and
    /// the informational values.
    pub fn detail(&self) -> Json {
        let table = |rows: &[(&'static str, Summary)]| {
            Json::Obj(
                rows.iter()
                    .map(|(name, s)| {
                        (
                            (*name).to_owned(),
                            Json::Obj(vec![
                                ("value".into(), Json::F64(s.value)),
                                (
                                    "unit".into(),
                                    Json::Str(spec(name).expect("spec").unit.into()),
                                ),
                                ("samples".into(), Json::U64(s.samples as u64)),
                                ("q1".into(), Json::F64(s.q1)),
                                ("q3".into(), Json::F64(s.q3)),
                                ("p90".into(), Json::F64(s.p90)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("seed".into(), Json::U64(self.seed)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            (
                "violations".into(),
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            (
                "traced_digest".into(),
                self.traced_digest
                    .map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
            ),
            ("end_to_end".into(), table(&self.end_to_end)),
            ("per_layer".into(), table(&self.per_layer)),
            (
                "info".into(),
                Json::Obj(
                    self.info
                        .iter()
                        .map(|&(k, v)| (k.to_owned(), Json::F64(v)))
                        .collect(),
                ),
            ),
            (
                "segments".into(),
                Json::Arr(
                    self.segments
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![
                                Json::F64(s.secs),
                                Json::U64(s.items),
                                Json::F64(s.p50_ms),
                                Json::F64(s.p99_ms),
                                Json::F64(s.calibration_ms),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// FNV-1a over the deterministic (counter and histogram) snapshot.
fn digest(snapshot: &gist_obs::MetricsSnapshot) -> u64 {
    snapshot
        .deterministic_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `workload` on the inputs `seed` selects: set-up
/// [`SETUP_REPEATS`] times, the timed loop under `budget`, the checks,
/// and — with `trace` — the traced pass.
pub fn run(workload: Workload, seed: u64, budget: Budget, trace: bool) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    let mut peak_rss = 0.0;
    for repeat in 0..SETUP_REPEATS {
        drop(bench.take());
        let t0 = Instant::now();
        let built = workloads::setup(workload, seed);
        let secs = t0.elapsed().as_secs_f64();
        if repeat == 0 {
            // Before the calibration kernel's own memory can count.
            peak_rss = peak_rss_mb();
        }
        setup_s.push(secs * calibration::REFERENCE_MS / calibration::measure(built.threads()));
        bench = Some(built);
    }
    let mut bench = bench.expect("at least one set-up");
    let mut checks = Checks::default();
    bench.check_inputs(&mut checks);

    let traced_segments = budget.traced_segments();
    let threads = bench.threads();
    let mut segments: Vec<Segment> = Vec::new();
    let mut requests = Vec::new();
    let mut timed_digest = 0;
    gist_obs::reset();
    let started = Instant::now();
    for i in 1.. {
        bench.prepare(i);
        requests.clear();
        let t0 = Instant::now();
        let items = bench.run_segment(i, &mut requests);
        let secs = t0.elapsed().as_secs_f64();
        bench.check_segment(i, &mut checks);
        drop(gist_obs::journal::drain_binary());
        if i == traced_segments {
            timed_digest = digest(&gist_obs::snapshot());
        }
        segments.push(Segment {
            secs,
            items,
            p50_ms: Summary::percentile_of(&requests, 50.0).value * 1e3,
            p99_ms: Summary::percentile_of(&requests, 99.0).value * 1e3,
            calibration_ms: calibration::measure(threads),
        });
        if budget.done(i, started.elapsed().as_secs_f64()) {
            break;
        }
    }
    bench.final_checks(&mut checks);

    // On a shared host interference only ever adds time, so the fastest
    // tenth of the segments is the closest a run gets to the uncontended
    // machine, and the fastest tenth of the kernel's runs measures that
    // machine's speed. Their ratio carries from run to run; a median
    // would move with how long the host happened to be contended.
    let calibrations: Vec<f64> = segments.iter().map(|s| s.calibration_ms).collect();
    let kernel_fast_ms = Summary::percentile_of(&calibrations, FAST_END).value;
    let time_scale = calibration::REFERENCE_MS / kernel_fast_ms;
    let rate: fn(&Segment) -> f64 = |s| s.items as f64 / s.secs;
    let p50: fn(&Segment) -> f64 = |s| s.p50_ms;
    let p99: fn(&Segment) -> f64 = |s| s.p99_ms;
    let end_to_end = vec![
        (
            "throughput_per_s",
            fast_end(&segments, 1.0 / time_scale, Better::Higher, rate),
        ),
        (
            "latency_p50_ms",
            fast_end(&segments, time_scale, Better::Lower, p50),
        ),
        (
            "latency_p99_ms",
            fast_end(&segments, time_scale, Better::Lower, p99),
        ),
        ("peak_rss_mb", Summary::scalar(peak_rss)),
        ("setup_s", Summary::median_of(&setup_s)),
    ];
    debug_assert!(end_to_end
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.name)));
    let raw_items_per_s = fast_end(&segments, 1.0, Better::Higher, rate).value;
    let calibration_ms = Summary::median_of(&calibrations).value;
    let info = vec![
        ("segment_count", segments.len() as f64),
        ("raw_throughput_per_s", raw_items_per_s),
        (
            "raw_latency_p50_ms",
            fast_end(&segments, 1.0, Better::Lower, p50).value,
        ),
        (
            "raw_latency_p99_ms",
            fast_end(&segments, 1.0, Better::Lower, p99).value,
        ),
        ("calibration_ms", calibration_ms),
        ("calibration_fast_ms", kernel_fast_ms),
        ("calibration_reference_ms", calibration::REFERENCE_MS),
        (
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        ),
    ];

    let mut outcome = Outcome {
        workload,
        seed,
        traced: trace,
        attempted: segments.iter().map(|s| s.items).sum(),
        failed: checks.failed,
        violations: checks.violations,
        end_to_end,
        per_layer: Vec::new(),
        digest: timed_digest,
        traced_digest: None,
        info,
        segments,
    };
    if trace {
        let (mut layers, traced) = traced_pass(bench.as_mut(), traced_segments, &mut outcome);
        layers.set("bench.calibration_ms", calibration_ms);
        layers.set("bench.raw_items_per_s", raw_items_per_s);
        // The traced segments against the same segments of the timed loop.
        let untraced: Vec<(f64, f64)> = outcome.segments[..traced.len()]
            .iter()
            .map(|s| (s.secs / s.items.max(1) as f64, s.calibration_ms))
            .collect();
        let (traced_s, untraced_s) = (fast_item_s(&traced), fast_item_s(&untraced));
        layers.set(
            "bench.trace_overhead_pct",
            100.0 * ratio(traced_s - untraced_s, untraced_s),
        );
        outcome.per_layer = layers.finish();
        debug_assert!(outcome
            .per_layer
            .iter()
            .map(|m| m.0)
            .eq(PER_LAYER.iter().map(|m| m.name)));
    }
    for (name, s) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        if !s.value.is_finite() {
            outcome.violations.push(format!("{name} is not finite"));
        }
    }
    outcome
}

/// Calibrated seconds per item at the fast end of `(seconds per item,
/// calibration ms)` samples, one per segment.
fn fast_item_s(samples: &[(f64, f64)]) -> f64 {
    let per_item: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let kernel: Vec<f64> = samples.iter().map(|s| s.1).collect();
    Summary::percentile_of(&per_item, FAST_END).value * calibration::REFERENCE_MS
        / Summary::percentile_of(&kernel, FAST_END).value
}

/// The traced pass: the first `segments` segments again with timers
/// around every public call, the journal drained and exported after
/// each, then the single-layer replays. Also returns, per traced
/// segment, the seconds per item that the workload's accounted timers sum
/// to and the calibration after it.
fn traced_pass(
    bench: &mut dyn workloads::Bench,
    segments: usize,
    outcome: &mut Outcome,
) -> (Layers, Vec<(f64, f64)>) {
    bench.begin_traced();
    gist_obs::reset();
    let mut layers = Layers::default();
    let timers = bench.accounted_timers();
    let accounted = |layers: &Layers| -> f64 { timers.iter().map(|t| layers.timer_total(t)).sum() };
    let mut accounted_item_s = Vec::with_capacity(segments);
    for i in 1..=segments {
        bench.prepare(i);
        let (before, items_before) = (accounted(&layers), layers.items);
        bench.traced_segment(i, &mut layers);
        let items = (layers.items - items_before).max(1) as f64;
        accounted_item_s.push((
            (accounted(&layers) - before) / items,
            calibration::measure(bench.threads()),
        ));
        let (bytes, stats) = layers.time("obs.journal_drain_ms", gist_obs::journal::drain_binary);
        let events = layers.time("obs.journal_export_ms", || {
            let (events, _) =
                gist_obs::journal::parse_binary(&bytes).expect("a drained journal parses");
            std::hint::black_box(gist_obs::journal::to_jsonl(&events));
            events.len()
        });
        layers.add("obs.journal_events", events as f64);
        layers.add("obs.journal_bytes", bytes.len() as f64);
        layers.add("obs.journal_overwritten", stats.events_overwritten as f64);
    }
    let items = layers.items.max(1) as f64;
    layers.set(
        "obs.journal_encode_ms",
        gist_obs::journal::encode_ms() / items,
    );
    for name in [
        "sketch.accuracy_pct",
        "sketch.root_cause_recovery_pct",
        "core.recurrences_per_diagnosis",
    ] {
        let total = layers.value(name);
        layers.set(name, total / items);
    }
    let snapshot = gist_obs::snapshot();
    let traced_digest = digest(&snapshot);
    if traced_digest != outcome.digest {
        outcome.violations.push(format!(
            "determinism digest of the traced pass {traced_digest:016x} differs from the \
             timed loop's {:016x}",
            outcome.digest
        ));
    }
    outcome.traced_digest = Some(traced_digest);
    layers.absorb_snapshot(&snapshot);
    bench.replays(&mut layers);
    let instrs = layers.value("vm.instr_retired");
    layers.set("vm.instrs_per_s", ratio(instrs, layers.fleet_s));
    (layers, accounted_item_s)
}
