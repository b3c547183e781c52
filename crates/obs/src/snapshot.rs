//! Point-in-time metric snapshots with deterministic ordering.

use std::collections::BTreeMap;

use crate::json::Json;

/// Snapshot of one [`crate::Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// `(bucket lower bound, samples in bucket)`, ascending, non-empty
    /// buckets only.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Renders as a `{count, sum, max, buckets}` [`Json`] object.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::U64(self.count)),
            ("sum".into(), Json::U64(self.sum)),
            ("max".into(), Json::U64(self.max)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(floor, n)| Json::Arr(vec![Json::U64(floor), Json::U64(n)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Snapshot of one span [`crate::Timer`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimerSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock nanoseconds across spans.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

/// A point-in-time copy of every registered metric, keyed by name in sorted
/// ([`BTreeMap`]) order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values. Deterministic under fixed seeds.
    pub counters: BTreeMap<String, u64>,
    /// Histogram contents. Deterministic under fixed seeds.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timers keyed by `/`-joined span path. Wall-clock — excluded from
    /// the determinism contract.
    pub timers: BTreeMap<String, TimerSnapshot>,
}

impl MetricsSnapshot {
    /// The deterministic portion (counters and histograms, no timers) as a
    /// [`Json`] value with sorted keys.
    pub fn deterministic_value(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::U64(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Compact JSON for the deterministic portion. Byte-identical across
    /// runs with the same seeds.
    pub fn deterministic_json(&self) -> String {
        self.deterministic_value().render()
    }
}
