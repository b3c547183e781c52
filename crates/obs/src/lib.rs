//! `gist-obs` — zero-dependency observability for the Gist pipeline.
//!
//! The paper's pitch is *low-overhead, always-on* in-production diagnosis
//! (§5.3 measures per-stage runtime cost), so the reproduction needs a way to
//! measure itself that is cheap enough to leave enabled. This crate provides
//! exactly three primitives, all process-global and lock-free on the hot
//! path:
//!
//! * [`Counter`] — a monotonic relaxed [`std::sync::atomic::AtomicU64`].
//! * [`Histogram`] — log₂-bucketed sample distribution (65 buckets cover the
//!   full `u64` range) with count / sum / max.
//! * span timers — [`span`] returns an RAII guard; nested guards on one
//!   thread form a `/`-joined path (`"diagnose/collect/pt.decode"`), and the
//!   elapsed wall-clock time is recorded against that path on drop. Work
//!   dispatched to other threads parents explicitly: capture a
//!   [`SpanHandle`] with [`current_span_handle`] before dispatch and open
//!   worker spans with [`span_under`], so (for example) fleet worker spans
//!   nest under `server.collect` instead of surfacing at the top level.
//!
//! # Naming scheme
//!
//! Metric names are `<layer>.<noun>` in `snake_case` — `vm.instr_retired`,
//! `pt.buffer_overflows`, `watch.traps`, `tracking.patch_bytes`,
//! `server.iterations`, `fleet.runs_dispatched`. Span names reuse the layer
//! prefix (`"server.collect"`); the recorded timer key is the full stack
//! path, so one leaf can appear under several parents.
//!
//! # Determinism contract
//!
//! Counters and histograms observe only *logical* events (instructions
//! retired, packets encoded, watchpoints hit), so under fixed seeds their
//! [`MetricsSnapshot`] content — and the byte output of
//! [`MetricsSnapshot::deterministic_json`] — is identical run-to-run and
//! independent of thread interleaving. Timers measure wall-clock and are
//! explicitly excluded; they appear only in [`MetricsSnapshot::timers`].
//! Anything whose value depends on execution *shape* rather than logical
//! work (e.g. fleet batch occupancy) must be recorded as a histogram, never
//! a counter, so counter snapshots stay comparable across batch sizes.
//!
//! # Cost
//!
//! Recording is always on and not free. On the repository benchmark's
//! `fleet` workload (2 vCPUs, pooled batches of 2), stubbing out every
//! journal, span, counter and histogram call cut the dispatcher's traced
//! time per run from 18.9 to 15.9 µs (median of 6 runs each). The
//! calibrated throughput gain it showed (+29%) is mostly the benchmark's
//! calibration kernel reading slower in the stubbed build: raw runs/s
//! rose only 7.5%, inside the run-to-run spread.

mod counter;
pub mod event;
mod handle;
mod histogram;
pub mod journal;
pub mod json;
mod registry;
mod snapshot;
mod timer;
pub mod wire;

pub use counter::Counter;
pub use event::{EventKind, EventRecord};
pub use handle::{CounterHandle, HistogramHandle};
pub use histogram::{bucket_floor, bucket_of, Histogram, NUM_BUCKETS};
pub use journal::{begin_trace, end_trace, Cursor, DrainChunk, JournalStats};
pub use registry::{counter_by_name, histogram_by_name};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, TimerSnapshot};
pub use timer::{current_span_handle, span, span_under, SpanGuard, SpanHandle, Timer};

/// Returns a point-in-time copy of every registered metric, keyed by name
/// with [`std::collections::BTreeMap`] (sorted, deterministic) ordering.
pub fn snapshot() -> MetricsSnapshot {
    registry::snapshot_all()
}

/// Resets every registered metric to zero.
///
/// Registrations themselves are kept (metric storage is leaked by design),
/// so previously resolved handles stay valid. Benchmarks call this before a
/// measured section; tests that compare snapshots must run in their own
/// process (one `#[test]` per integration binary) because the registry is
/// process-global.
pub fn reset() {
    registry::reset_all();
    journal::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handle_resolves_to_same_counter() {
        let a = counter!("obs_test.handle_identity");
        let b = counter_by_name("obs_test.handle_identity");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn histogram_counts_sum_and_max() {
        let h = histogram!("obs_test.histogram_basic");
        for v in [0, 1, 1, 7, 1024] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1033);
        assert_eq!(snap.max, 1024);
        // value 0 -> bucket floor 0; 1,1 -> floor 1; 7 -> floor 4; 1024 -> floor 1024
        assert_eq!(snap.buckets, vec![(0, 1), (1, 2), (4, 1), (1024, 1)]);
    }

    #[test]
    fn bucket_math_covers_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(2), 2);
        assert_eq!(bucket_floor(3), 4);
        for v in [0u64, 1, 2, 3, 5, 100, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(bucket_floor(b) <= v);
            if b + 1 < NUM_BUCKETS {
                assert!(v < bucket_floor(b + 1));
            }
        }
    }

    #[test]
    fn span_paths_nest_per_thread() {
        {
            let _outer = span("obs_test.outer");
            let _inner = span("obs_test.inner");
        }
        let snap = snapshot();
        assert!(snap.timers.contains_key("obs_test.outer"));
        assert!(snap.timers.contains_key("obs_test.outer/obs_test.inner"));
    }

    #[test]
    fn span_under_parents_across_threads() {
        {
            let _outer = span("obs_test.dispatch");
            let h = current_span_handle();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = span_under(&h, "obs_test.worker");
                    let _leaf = span("obs_test.leaf");
                });
            });
        }
        let snap = snapshot();
        assert!(snap
            .timers
            .contains_key("obs_test.dispatch/obs_test.worker"));
        assert!(snap
            .timers
            .contains_key("obs_test.dispatch/obs_test.worker/obs_test.leaf"));
        // The worker span must NOT also appear as a top-level path.
        assert!(!snap.timers.contains_key("obs_test.worker"));
    }

    #[test]
    fn snapshot_orders_names_and_renders_deterministically() {
        counter_by_name("obs_test.z_last").add(4);
        counter_by_name("obs_test.a_first").add(9);
        let snap = snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let json = snap.deterministic_json();
        assert!(json.find("obs_test.a_first").unwrap() < json.find("obs_test.z_last").unwrap());
        assert_eq!(json, snapshot().deterministic_json());
    }

    #[test]
    fn json_escapes_and_formats() {
        use json::Json;
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a\"b\\c\nd\u{1}".into())),
            ("n".into(), Json::U64(u64::MAX)),
            ("f".into(), Json::F64(1.5)),
            ("b".into(), Json::Bool(true)),
            ("arr".into(), Json::Arr(vec![Json::Null, Json::U64(0)])),
        ]);
        assert_eq!(
            v.render(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\",\"n\":18446744073709551615,\"f\":1.500,\"b\":true,\"arr\":[null,0]}"
        );
        assert_eq!(Json::F64(f64::NAN).render(), "null");
    }
}
