//! Outside-in per-layer measurement for the traced pass: benchmark-owned
//! timers around public calls, a timing [`Fleet`] wrapper, and readers
//! for the gist-obs counters and spans the layers already keep.
//!
//! Nothing here reaches into a crate's internals; every number is taken
//! at a public boundary, so the trace needs no code in the system under
//! test.

use std::collections::BTreeMap;
use std::time::Instant;

use gist_coop::{FleetStats, SimulatedFleet};
use gist_core::{ClientRunData, Fleet};
use gist_ir::Program;
use gist_obs::MetricsSnapshot;
use gist_predictors::RunObservations;
use gist_tracking::{InstrumentationPatch, TrackerRuntime};
use gist_vm::{Vm, VmConfig};

use crate::metrics::{Summary, PER_LAYER};

/// Per-layer numbers collected by one traced pass.
#[derive(Default)]
pub(crate) struct Layers {
    /// Timer samples in seconds, keyed by metric name.
    timers: BTreeMap<&'static str, Vec<f64>>,
    /// Counts, totals and ratios, keyed by metric name.
    values: BTreeMap<&'static str, f64>,
    /// Items the traced pass completed (the per-item denominator).
    pub items: u64,
    /// Seconds spent in the fleet's `next_run` (the VM's busy time).
    pub fleet_s: f64,
    /// Decode-cache shard probes answered and missed, over all fleets.
    shard_hits: f64,
    shard_misses: f64,
}

impl Layers {
    /// Runs `f` under the timer `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.sample(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Records one timer sample, in seconds.
    pub fn sample(&mut self, name: &'static str, secs: f64) {
        self.timers.entry(name).or_default().push(secs);
    }

    /// Adds to a running total.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    /// Sets a value outright.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// A running total so far (0 if never added to).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of a timer's samples, in seconds.
    pub fn timer_total(&self, name: &str) -> f64 {
        self.timers.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Reads the layers' own counters and span totals from `snap`, taken
    /// at the end of the traced segments. Counts are totals over the pass;
    /// span times are per item.
    pub fn absorb_snapshot(&mut self, snap: &MetricsSnapshot) {
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        for (metric, name) in [
            ("vm.instr_retired", "vm.instr_retired"),
            ("vm.sched_picks", "vm.sched_picks"),
            ("vm.preemptions", "vm.preemptions"),
            ("tracking.plans", "tracking.plans"),
            ("watch.armed", "watch.armed"),
            ("watch.traps", "watch.traps"),
            ("pt.bytes_encoded", "pt.bytes_encoded"),
            ("pt.packets_encoded", "pt.packets_encoded"),
            ("pt.decodes", "pt.decodes"),
            ("pt.bytes_decoded", "pt.bytes_decoded"),
            ("pt.packets_dropped", "pt.packets_dropped"),
            ("coop.runs_dispatched", "fleet.runs_dispatched"),
            ("core.iterations", "server.iterations"),
            ("core.runs_consumed", "server.runs_consumed"),
        ] {
            self.set(metric, counter(name));
        }
        let discarded = snap
            .histograms
            .get("fleet.runs_discarded")
            .map_or(0.0, |h| h.sum as f64);
        self.set("coop.runs_discarded", discarded);
        let dispatched = counter("fleet.runs_dispatched");
        self.set(
            "coop.useful_run_ratio",
            ratio(dispatched, dispatched + discarded),
        );
        self.set(
            "vm.picks_per_instr",
            ratio(counter("vm.sched_picks"), counter("vm.instr_retired")),
        );
        let missed = counter("tracking.missed_arms");
        self.set(
            "tracking.missed_arm_ratio",
            ratio(missed, missed + counter("watch.armed")),
        );
        self.set(
            "core.useful_run_ratio",
            ratio(
                counter("server.recurrences"),
                counter("server.runs_consumed"),
            ),
        );
        let items = self.items.max(1) as f64;
        for (metric, span) in [
            ("tracking.plan_ms", "tracking.plan"),
            ("pt.decode_ms", "pt.decode"),
            ("coop.worker_ms", "fleet.worker"),
            ("core.slice_ms", "server.slice"),
            ("core.analyze_ms", "server.analyze"),
            ("core.rank_ms", "server.rank"),
            ("core.sketch_ms", "server.sketch"),
        ] {
            // A span's path names its callers; sum every path it ends.
            let ns: u64 = snap
                .timers
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some(span))
                .map(|(_, t)| t.total_ns)
                .sum();
            self.set(metric, ns as f64 / 1e6 / items);
        }
    }

    /// Folds one fleet's contention statistics (the part gathered since
    /// `before`) into the pool totals.
    pub fn absorb_fleet(&mut self, fleet: &SimulatedFleet, before: &FleetStats) {
        let after = fleet.contention_stats();
        let sum = |s: &FleetStats, f: fn(&gist_coop::WorkerStats) -> u64| -> f64 {
            s.workers.iter().map(f).sum::<u64>() as f64
        };
        self.add(
            "coop.steals",
            sum(&after, |w| w.steals) - sum(before, |w| w.steals),
        );
        self.add(
            "coop.queue_wait_us",
            sum(&after, |w| w.wait_hist().sum) - sum(before, |w| w.wait_hist().sum),
        );
        self.shard_hits += sum(&after, |w| w.shard_hits) - sum(before, |w| w.shard_hits);
        self.shard_misses += sum(&after, |w| w.shard_misses) - sum(before, |w| w.shard_misses);
        let workers = self
            .value("coop.pool_workers")
            .max(fleet.pool_workers() as f64);
        self.set("coop.pool_workers", workers);
        self.set(
            "pt.decode_cache_hit_ratio",
            ratio(self.shard_hits, self.shard_hits + self.shard_misses),
        );
    }

    /// Times bare and tracked runs of `program` under `patch` on each of
    /// `seeds`, plus the tracked run's `TrackerRuntime::finish`.
    pub fn replay_runs(
        &mut self,
        program: &Program,
        make_config: fn(u64) -> VmConfig,
        num_cores: u32,
        patch: &InstrumentationPatch,
        seeds: std::ops::Range<u64>,
    ) {
        for seed in seeds {
            let t0 = Instant::now();
            let bare = Vm::new(program, make_config(seed)).run(&mut []);
            let bare_s = t0.elapsed().as_secs_f64();
            let mut tracker = TrackerRuntime::new(program, patch.clone(), num_cores);
            let t0 = Instant::now();
            let tracked = Vm::new(program, make_config(seed)).run(&mut [&mut tracker]);
            let tracked_s = t0.elapsed().as_secs_f64();
            std::hint::black_box((bare.steps, tracked.steps));
            self.time("pt.finish_us", || tracker.finish());
            self.sample("vm.run_bare_us", bare_s);
            self.sample("tracking.observer_us", tracked_s - bare_s);
        }
    }

    /// The per-layer table: one summary per [`PER_LAYER`] metric, in
    /// table order. Timers report their median per call in the metric's
    /// unit; a metric nothing recorded reports 0.
    pub fn finish(&self) -> Vec<(&'static str, Summary)> {
        PER_LAYER
            .iter()
            .map(|m| {
                let summary = match self.timers.get(m.name) {
                    Some(secs) => {
                        let scale = match m.unit {
                            "us" => 1e6,
                            "ms" => 1e3,
                            _ => 1.0,
                        };
                        let scaled: Vec<f64> = secs.iter().map(|s| s * scale).collect();
                        Summary::median_of(&scaled)
                    }
                    None => Summary::scalar(self.value(m.name)),
                };
                (m.name, summary)
            })
            .collect()
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A [`Fleet`] wrapper that times every `next_run` and forwards the
/// server's prefetch hint. With `collect` on it also keeps what the
/// replays need: each run's predictor observations and the distinct
/// patches shipped, in order.
pub(crate) struct TimedFleet<F> {
    pub inner: F,
    /// Seconds spent in each `next_run`.
    pub calls: Vec<f64>,
    collect: Option<Collected>,
}

/// Runs and patches a collecting [`TimedFleet`] saw.
pub(crate) struct Collected {
    /// Signature of the failure being diagnosed.
    signature: u64,
    pub observations: Vec<RunObservations>,
    pub patches: Vec<InstrumentationPatch>,
}

impl<F: Fleet> TimedFleet<F> {
    /// Times only.
    pub fn new(inner: F) -> Self {
        TimedFleet {
            inner,
            calls: Vec::new(),
            collect: None,
        }
    }

    /// Times and collects observations and patches for a diagnosis of
    /// the failure with `signature`.
    pub fn collecting(inner: F, signature: u64) -> Self {
        TimedFleet {
            inner,
            calls: Vec::new(),
            collect: Some(Collected {
                signature,
                observations: Vec::new(),
                patches: Vec::new(),
            }),
        }
    }

    /// What a collecting fleet saw.
    pub fn collected(self) -> Collected {
        self.collect.expect("a collecting fleet")
    }

    /// Seconds spent in the wrapped fleet.
    pub fn total(&self) -> f64 {
        self.calls.iter().sum()
    }
}

impl<F: Fleet> Fleet for TimedFleet<F> {
    fn next_run(&mut self, patch: &InstrumentationPatch) -> ClientRunData {
        let t0 = Instant::now();
        let run = self.inner.next_run(patch);
        self.calls.push(t0.elapsed().as_secs_f64());
        if let Some(c) = &mut self.collect {
            let failing = run.matches_failure(c.signature);
            c.observations
                .push(gist_core::server::observations(&run.trace, failing));
            if !c.patches.contains(patch) {
                c.patches.push(patch.clone());
            }
        }
        run
    }

    fn hint_runs_remaining(&mut self, remaining: u64) {
        self.inner.hint_runs_remaining(remaining);
    }
}
