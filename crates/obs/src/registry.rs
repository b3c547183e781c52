//! The process-global metric registry.
//!
//! Metric storage is allocated once per name and leaked ([`Box::leak`]), so
//! resolved `&'static` references stay valid forever and the hot path never
//! takes a lock — only first-time resolution does. [`crate::reset`] zeroes
//! values but keeps registrations.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::counter::Counter;
use crate::histogram::Histogram;
use crate::snapshot::MetricsSnapshot;
use crate::timer::Timer;

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    timers: Mutex<BTreeMap<String, &'static Timer>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        timers: Mutex::new(BTreeMap::new()),
    })
}

/// Returns the process-wide counter named `name`, registering it on first
/// use. Prefer the [`crate::counter!`] macro on hot paths — it caches the
/// lookup per call site.
pub fn counter_by_name(name: &'static str) -> &'static Counter {
    let mut map = registry().counters.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// Returns the process-wide histogram named `name`, registering it on first
/// use. Prefer the [`crate::histogram!`] macro on hot paths.
pub fn histogram_by_name(name: &'static str) -> &'static Histogram {
    let mut map = registry().histograms.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Returns the timer for a `/`-joined span path (dynamic key: paths are
/// built from the per-thread span stack).
pub(crate) fn timer_by_path(path: &str) -> &'static Timer {
    let mut map = registry().timers.lock().unwrap();
    if let Some(t) = map.get(path) {
        return t;
    }
    let t: &'static Timer = Box::leak(Box::new(Timer::new()));
    map.insert(path.to_owned(), t);
    t
}

pub(crate) fn snapshot_all() -> MetricsSnapshot {
    let reg = registry();
    let mut snap = MetricsSnapshot::default();
    for (name, c) in reg.counters.lock().unwrap().iter() {
        snap.counters.insert((*name).to_owned(), c.get());
    }
    for (name, h) in reg.histograms.lock().unwrap().iter() {
        snap.histograms.insert((*name).to_owned(), h.snapshot());
    }
    for (path, t) in reg.timers.lock().unwrap().iter() {
        snap.timers.insert(path.clone(), t.snapshot());
    }
    snap
}

pub(crate) fn reset_all() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().values() {
        c.reset();
    }
    for h in reg.histograms.lock().unwrap().values() {
        h.reset();
    }
    for t in reg.timers.lock().unwrap().values() {
        t.reset();
    }
}
