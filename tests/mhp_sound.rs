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
//! `may_happen_in_parallel` must say yes for every such pair.
//!
//! One `#[test]` in its own integration binary: the journal is a
//! process-global sink, so this cannot share a process with other
//! event-producing tests.

use std::collections::BTreeMap;

use gist_analysis::Mhp;
use gist_bugbase::all_bugs;
use gist_coop::{diagnose_bug, EvalConfig};
use gist_ir::InstrId;
use gist_slicing::StaticSlicer;

/// One attributed watchpoint hit: `(statement, thread, run-local seq)`.
type Hit = (InstrId, u32, u64);

/// Groups the journal's `watch.hit` events into per-run hit lists.
/// Batched production runs execute on parallel fleet workers, so events
/// from different runs interleave in the global journal — but one run's
/// events are all journaled by the same worker thread, in order. The
/// stream is therefore partitioned by the *journaling* thread first;
/// within a worker's stream, `run.started` delimits runs, with a
/// `hit_seq` reset (each run numbers accesses from a fresh counter) as a
/// backstop.
fn runs_from_journal(events: &[gist_obs::JournalEvent]) -> Vec<Vec<Hit>> {
    let mut runs: Vec<Vec<Hit>> = Vec::new();
    let mut per_worker: BTreeMap<u64, (Vec<Hit>, Option<u64>)> = BTreeMap::new();
    for e in events {
        let worker = u64::from(e.tid);
        if e.kind == "run.started" {
            let (current, last_seq) = per_worker.entry(worker).or_default();
            if !current.is_empty() {
                runs.push(std::mem::take(current));
            }
            *last_seq = None;
            continue;
        }
        if e.kind != "watch.hit" {
            continue;
        }
        let (Some(iid), Some(tid), Some(seq)) = (
            e.field_u64("iid"),
            e.field_u64("hit_tid"),
            e.field_u64("hit_seq"),
        ) else {
            continue;
        };
        let (current, last_seq) = per_worker.entry(worker).or_default();
        if last_seq.is_some_and(|prev| seq <= prev) && !current.is_empty() {
            runs.push(std::mem::take(current));
        }
        *last_seq = Some(seq);
        current.push((InstrId(iid as u32), tid as u32, seq));
    }
    for (_, (current, _)) in per_worker {
        if !current.is_empty() {
            runs.push(current);
        }
    }
    runs
}

/// The observed-parallel pairs of one run: cross-thread hit pairs where
/// each access lands strictly inside the other thread's activity span.
fn observed_parallel(run: &[Hit]) -> Vec<(InstrId, InstrId)> {
    let mut spans: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for &(_, tid, seq) in run {
        let span = spans.entry(tid).or_insert((seq, seq));
        span.0 = span.0.min(seq);
        span.1 = span.1.max(seq);
    }
    let mut pairs = Vec::new();
    for &(a, ta, sa) in run {
        for &(b, tb, sb) in run {
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
        let events = gist_obs::journal::to_events(&gist_obs::journal::drain());
        let slicer = StaticSlicer::new(&bug.program);
        let mhp = Mhp::compute(&bug.program, slicer.ticfg());
        for run in runs_from_journal(&events) {
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
