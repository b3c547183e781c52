//! MHP soundness gate: the static may-happen-in-parallel relation must
//! never rule out an interleaving the dynamic pipeline actually observed.
//!
//! Every bugbase diagnosis is replayed against a fresh flight-recorder
//! journal, and the `watch.hit` stream is mined for *observed-parallel*
//! statement pairs under a mutual-span-containment criterion: within one
//! production run, each thread's activity span is `[first, last]` over
//! its hit sequence numbers, and a cross-thread pair counts as observed
//! in parallel only when each access falls strictly inside the *other*
//! thread's span — both threads were provably mid-flight around both
//! accesses. Any static cross-thread ordering claim (pre-spawn,
//! post-join, join-before-spawn chaining) implies the spans separate, so
//! `may_happen_in_parallel` must say yes for every such pair. The run
//! partition itself is pinned too: every mined run holds hits from
//! exactly one `run.start` window of its journaling thread, so hits of
//! two runs are never merged into one.
//!
//! One `#[test]` in its own integration binary: the journal is a
//! process-global sink, so this cannot share a process with other
//! event-producing tests.

use std::collections::{BTreeMap, BTreeSet};

use gist_analysis::Mhp;
use gist_bugbase::all_bugs;
use gist_coop::{diagnose_bug, EvalConfig};
use gist_ir::InstrId;
use gist_obs::{EventKind, EventRecord};
use gist_slicing::StaticSlicer;

/// One attributed watchpoint hit: `(statement, thread, run-local seq,
/// journal seq)`.
type Hit = (InstrId, u32, u64, u64);

/// Groups the journal's `watch.hit` events into per-run hit lists.
/// Batched production runs execute on parallel fleet workers, so events
/// from different runs interleave in the global journal — but one run's
/// events are all journaled by the same worker thread, in order. The
/// stream is therefore partitioned by the *journaling* thread first;
/// within a worker's stream, `run.start` delimits runs, with a `hit_seq`
/// reset (each run numbers accesses from a fresh counter) as a backstop.
fn runs_from_journal(events: &[EventRecord]) -> Vec<Vec<Hit>> {
    let mut runs: Vec<Vec<Hit>> = Vec::new();
    let mut per_worker: BTreeMap<u32, (Vec<Hit>, Option<u64>)> = BTreeMap::new();
    for e in events {
        let (current, last_seq) = per_worker.entry(e.tid).or_default();
        match e.kind {
            EventKind::RunStarted { .. } => {
                if !current.is_empty() {
                    runs.push(std::mem::take(current));
                }
                *last_seq = None;
            }
            EventKind::WatchHit {
                iid,
                hit_tid,
                hit_seq,
                ..
            } => {
                if last_seq.is_some_and(|prev| hit_seq <= prev) && !current.is_empty() {
                    runs.push(std::mem::take(current));
                }
                *last_seq = Some(hit_seq);
                current.push((InstrId(iid), hit_tid, hit_seq, e.seq));
            }
            _ => {}
        }
    }
    for (_, (current, _)) in per_worker {
        if !current.is_empty() {
            runs.push(current);
        }
    }
    runs
}

/// The `run.start` window of every `watch.hit`, keyed by the hit's
/// journal seq: its journaling thread and how many `run.start` events
/// that thread had journaled before it (0 = none yet).
fn run_windows(events: &[EventRecord]) -> BTreeMap<u64, (u32, u64)> {
    let mut started: BTreeMap<u32, u64> = BTreeMap::new();
    let mut windows = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::RunStarted { .. } => *started.entry(e.tid).or_default() += 1,
            EventKind::WatchHit { .. } => {
                let window = started.get(&e.tid).copied().unwrap_or(0);
                windows.insert(e.seq, (e.tid, window));
            }
            _ => {}
        }
    }
    windows
}

/// The observed-parallel pairs of one run: cross-thread hit pairs where
/// each access lands strictly inside the other thread's activity span.
fn observed_parallel(run: &[Hit]) -> Vec<(InstrId, InstrId)> {
    let mut spans: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for &(_, tid, seq, _) in run {
        let span = spans.entry(tid).or_insert((seq, seq));
        span.0 = span.0.min(seq);
        span.1 = span.1.max(seq);
    }
    let mut pairs = Vec::new();
    for &(a, ta, sa, _) in run {
        for &(b, tb, sb, _) in run {
            if ta >= tb {
                continue;
            }
            let (lo_b, hi_b) = spans[&tb];
            let (lo_a, hi_a) = spans[&ta];
            if lo_b < sa && sa < hi_b && lo_a < sb && sb < hi_a {
                pairs.push((a, b));
            }
        }
    }
    pairs.sort();
    pairs.dedup();
    pairs
}

#[test]
fn observed_parallel_pairs_are_mhp_positive() {
    let mut checked = 0usize;
    for bug in all_bugs() {
        gist_obs::reset();
        let _ = diagnose_bug(&bug, &EvalConfig::default());
        let (events, _) = gist_obs::journal::drain();
        let slicer = StaticSlicer::new(&bug.program);
        let mhp = Mhp::compute(&bug.program, slicer.ticfg());
        let windows = run_windows(&events);
        for run in runs_from_journal(&events) {
            let owners: BTreeSet<(u32, u64)> = run.iter().map(|h| windows[&h.3]).collect();
            assert!(
                owners.len() == 1 && owners.iter().all(|&(_, window)| window > 0),
                "{}: a mined run must hold the hits of exactly one run.start \
                 window of its journaling thread, got (thread, window) {owners:?}",
                bug.name,
            );
            for (a, b) in observed_parallel(&run) {
                assert!(
                    mhp.may_happen_in_parallel(a, b),
                    "{}: statements {a:?} and {b:?} were observed in \
                     parallel (mutual span containment) but MHP claims \
                     they never interleave: {:?}",
                    bug.name,
                    mhp.order_fact(a, b),
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 0,
        "the gate never fired: no observed-parallel pairs in any journal"
    );
}
