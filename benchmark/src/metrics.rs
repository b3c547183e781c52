//! The metrics the benchmark reports — names, units, directions and
//! regression bounds, exactly as `BENCHMARK.json` lists them — and the
//! order statistics they are computed with.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, hit ratios).
    Higher,
    /// Smaller values are better (latency, work done, memory).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name, unique across both tables.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off. An *item*
/// is one diagnosis (bugbase, synth), one production run (fleet) or one
/// analyzed program (analyze); a *request* is one item, except on fleet,
/// where it is one 64-run collection round. Throughput and latency are
/// read at the fast tenth of the run's segments and calibrated by the
/// fast tenth of the kernel's runs; peak RSS is read after the first
/// set-up, before the calibration kernel first runs; set-up is the median
/// of several calibrated set-ups. The bounds are as tight as this benchmark's
/// run-to-run spread on a shared 2-vCPU host allows (see `README.md`).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("throughput_per_s", "1/s", Higher, 0.20),
    e2e("latency_p50_ms", "ms", Lower, 0.20),
    e2e("latency_p99_ms", "ms", Lower, 0.22),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer numbers from the separate traced pass, grouped by the
/// module that does the work. Times named `_ms`/`_us` from a benchmark
/// timer are the median per call; span- and counter-derived values are
/// per traced pass (counts) or per item (times). A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // vm
    layer("vm.compile_ms", "ms", Lower),
    layer("vm.run_bare_us", "us", Lower),
    layer("vm.instr_retired", "count", Lower),
    layer("vm.sched_picks", "count", Lower),
    layer("vm.picks_per_instr", "ratio", Lower),
    layer("vm.instrs_per_s", "1/s", Higher),
    layer("vm.preemptions", "count", Lower),
    // tracking, watch, pt encode
    layer("tracking.observer_us", "us", Lower),
    layer("tracking.plan_ms", "ms", Lower),
    layer("tracking.plans", "count", Lower),
    layer("tracking.missed_arm_ratio", "ratio", Lower),
    layer("watch.armed", "count", Lower),
    layer("watch.traps", "count", Lower),
    layer("pt.bytes_encoded", "bytes", Lower),
    layer("pt.packets_encoded", "count", Lower),
    // pt decode
    layer("pt.finish_us", "us", Lower),
    layer("pt.decode_ms", "ms", Lower),
    layer("pt.decodes", "count", Lower),
    layer("pt.bytes_decoded", "bytes", Lower),
    layer("pt.decode_cache_hit_ratio", "ratio", Higher),
    layer("pt.packets_dropped", "count", Lower),
    // coop
    layer("coop.next_run_us", "us", Lower),
    layer("coop.worker_ms", "ms", Lower),
    layer("coop.runs_dispatched", "count", Lower),
    layer("coop.runs_discarded", "count", Lower),
    layer("coop.useful_run_ratio", "ratio", Higher),
    layer("coop.pool_workers", "count", Higher),
    layer("coop.steals", "count", Lower),
    layer("coop.queue_wait_us", "us", Lower),
    // bugbase
    layer("bugbase.find_failure_ms", "ms", Lower),
    layer("bugbase.find_failure_seeds", "count", Lower),
    // slicing, analysis
    layer("slicing.slicer_new_ms", "ms", Lower),
    layer("slicing.slice_ms", "ms", Lower),
    layer("slicing.slice_stmts", "count", Lower),
    layer("analysis.race_ms", "ms", Lower),
    layer("analysis.mhp_ms", "ms", Lower),
    layer("analysis.points_to_ms", "ms", Lower),
    layer("analysis.lint_ms", "ms", Lower),
    layer("analysis.predict_ms", "ms", Lower),
    layer("analysis.findings", "count", Lower),
    layer("analysis.lint_conformance_pct", "%", Higher),
    // core, predictors, sketch
    layer("core.diagnose_ms", "ms", Lower),
    layer("core.server_self_ms", "ms", Lower),
    layer("core.server_new_ms", "ms", Lower),
    layer("core.iterations", "count", Lower),
    layer("core.runs_consumed", "count", Lower),
    layer("core.useful_run_ratio", "ratio", Higher),
    layer("core.recurrences_per_diagnosis", "count", Lower),
    layer("core.slice_ms", "ms", Lower),
    layer("core.analyze_ms", "ms", Lower),
    layer("core.rank_ms", "ms", Lower),
    layer("core.sketch_ms", "ms", Lower),
    layer("predictors.rank_ms", "ms", Lower),
    layer("sketch.accuracy_pct", "%", Higher),
    layer("sketch.root_cause_recovery_pct", "%", Higher),
    // obs journal
    layer("obs.journal_events", "count", Lower),
    layer("obs.journal_encode_ms", "ms", Lower),
    layer("obs.journal_drain_ms", "ms", Lower),
    layer("obs.journal_bytes", "bytes", Lower),
    layer("obs.journal_overwritten", "count", Lower),
    layer("obs.journal_export_ms", "ms", Lower),
    // benchmark
    layer("bench.calibration_ms", "ms", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.raw_items_per_s", "1/s", Higher),
];

/// Looks a metric up in either table.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// A reported value with the distribution it was drawn from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub value: f64,
    /// Samples behind it (1 for a single count or ratio).
    pub samples: usize,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// 90th percentile of the samples.
    pub p90: f64,
}

impl Summary {
    /// A single value: a count, ratio or total.
    pub fn scalar(value: f64) -> Summary {
        Summary {
            value,
            samples: 1,
            q1: value,
            q3: value,
            p90: value,
        }
    }

    /// The `p`-th percentile of `samples` as the value, with its spread.
    /// Empty samples summarize to 0.
    pub fn percentile_of(samples: &[f64], p: f64) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            value: percentile(&sorted, p),
            samples: sorted.len(),
            q1: percentile(&sorted, 25.0),
            q3: percentile(&sorted, 75.0),
            p90: percentile(&sorted, 90.0),
        }
    }

    /// The median of `samples` as the value, with its spread.
    pub fn median_of(samples: &[f64]) -> Summary {
        Summary::percentile_of(samples, 50.0)
    }
}

/// The `p`-th percentile (0–100) of ascending `sorted`, interpolating
/// linearly between closest ranks; 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so spreads
/// printed here match the ones the acceptance rule computes. Fewer than
/// two values collapse to the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_interpolates_and_handles_small_inputs() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[0.0, 10.0], 25.0), 2.5);
    }

    #[test]
    fn names_are_unique_and_bounds_only_on_end_to_end() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
