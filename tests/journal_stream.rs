//! Streaming-drain contract, end to end: cursored incremental drains
//! ([`gist_obs::journal::drain_since`]) deliver every event **exactly
//! once** — no duplicates, no drops — while producers are still running,
//! and the live tail of a real diagnosis sees the same journal a batch
//! drain would.
//!
//! Three phases, one `#[test]`:
//!
//! 1. Four producer threads hammer the journal while the main thread
//!    tails it with a cursor; the union of all chunks is exactly the
//!    recorded seq set.
//! 2. A deliberately tiny ring overwrites most of a burst: the drain
//!    reports the loss precisely (`events_overwritten`, `oldest_seq`) and
//!    `gist-trace summary` surfaces it as a gap warning.
//! 3. `LiveTail` follows a real `diagnose_bug` on another thread
//!    (the `gist-trace follow` machinery); the streamed journal answers a
//!    promotion-provenance query mid-diagnosis shape and, re-rendered,
//!    is byte-identical to a clean same-seed batch drain.
//!
//! One `#[test]` in its own integration binary: the journal ring and
//! cursor generation are process-global, so this cannot share a process
//! with other event-producing tests.

use std::collections::BTreeSet;

use gist_bench::trace_tool::{Journal, LiveTail};
use gist_obs::journal::{self, DEFAULT_RING_CAPACITY};
use gist_obs::EventKind;

/// Phase 1: concurrent producers vs. a tailing cursor — exactly-once.
fn concurrent_tail_is_exactly_once() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 5_000;
    journal::reset();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut delivered = 0u64;
    let mut cursor = journal::Cursor::default();
    let mut overwritten = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        journal::record(EventKind::RunStarted {
                            run: t * PER_THREAD + i,
                            seed: t,
                        });
                    }
                    journal::flush_local();
                })
            })
            .collect();
        // Tail while producers run; each chunk must be all-new seqs.
        loop {
            let done = handles.iter().all(|h| h.is_finished());
            let chunk = journal::drain_since(cursor);
            cursor = chunk.cursor;
            overwritten += chunk.overwritten;
            for e in &chunk.events {
                assert!(seen.insert(e.seq), "seq #{} delivered twice", e.seq);
                delivered += 1;
            }
            if done {
                break;
            }
            std::thread::yield_now();
        }
    });
    // Producer threads have been joined by the scope; their exit-time TLS
    // flushes are ordered before this final poll.
    let chunk = journal::drain_since(cursor);
    overwritten += chunk.overwritten;
    for e in &chunk.events {
        assert!(seen.insert(e.seq), "seq #{} delivered twice", e.seq);
        delivered += 1;
    }
    assert_eq!(overwritten, 0, "ring must not overflow in this phase");
    assert_eq!(delivered, THREADS * PER_THREAD, "every event delivered");
    assert_eq!(
        (seen.iter().next(), seen.iter().next_back()),
        (Some(&1), Some(&(THREADS * PER_THREAD))),
        "delivered seqs are exactly 1..=N"
    );
}

/// Phase 2: a tiny ring loses events loudly, not silently.
fn overwrites_are_accounted_and_warned() {
    const CAPACITY: usize = 256;
    const RECORDED: u64 = 1_000;
    journal::set_ring_capacity(CAPACITY);
    journal::reset();
    for i in 0..RECORDED {
        journal::record(EventKind::RunStarted { run: i, seed: 0 });
    }
    journal::flush_local();
    let (events, stats) = journal::drain();
    // Restore the shared ring before asserting (capacity survives reset).
    journal::set_ring_capacity(DEFAULT_RING_CAPACITY);
    journal::reset();
    assert_eq!(events.len(), CAPACITY, "ring retains exactly its capacity");
    assert_eq!(
        stats.events_overwritten,
        RECORDED - CAPACITY as u64,
        "every overwrite is counted"
    );
    assert_eq!(
        stats.oldest_seq,
        RECORDED - CAPACITY as u64 + 1,
        "oldest retained seq names the survivor after the loss"
    );
    assert_eq!(
        events.first().map(|e| e.seq),
        Some(stats.oldest_seq),
        "drained events start at oldest_seq"
    );
    // The loss must be visible to journal consumers: summary leads with a
    // gap warning naming the overwritten count.
    let snapshot = Journal::load_bytes(&journal::to_binary(&events, &stats)).expect("binary loads");
    let summary = snapshot.summary_text();
    assert!(
        summary.contains("WARNING") && summary.contains("744 events overwritten"),
        "summary must warn about the gap, got:\n{summary}"
    );
}

/// Phase 3: live-tail a real diagnosis; the stream answers provenance
/// queries and matches a clean batch drain byte-for-byte.
fn live_tail_of_a_diagnosis_matches_batch_drain() {
    let bug = gist_bugbase::bug_by_name("pbzip2-1").expect("pbzip2-1 in bugbase");
    journal::reset();
    let cfg = gist_coop::EvalConfig::default();
    let handle = {
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let bug = gist_bugbase::bug_by_name("pbzip2-1").expect("pbzip2-1 in bugbase");
            gist_coop::diagnose_bug(&bug, &cfg)
        })
    };
    let mut tail = LiveTail::new();
    loop {
        // Liveness is sampled *before* the poll so a flush racing the
        // thread's exit lands in the next turn or the final poll below.
        let finished = handle.is_finished();
        tail.poll();
        if finished {
            break;
        }
        std::thread::yield_now();
    }
    handle.join().expect("diagnosis thread");
    tail.poll();
    assert_eq!(tail.overwritten, 0, "follow must not miss events");
    let seqs: BTreeSet<u64> = tail.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs.len(), tail.events.len(), "no event delivered twice");
    assert!(!tail.events.is_empty(), "diagnosis journals events");

    // The streamed journal answers the Lumos-style question mid-tail
    // consumers ask: which watch hit promoted this statement?
    let streamed = tail.journal();
    let promotions = streamed.query_promotions(None);
    assert!(
        !promotions.is_empty(),
        "pbzip2-1 diagnosis promotes at least one statement"
    );
    assert!(
        promotions.iter().any(|l| l.contains("watch.hit")),
        "at least one promotion resolves to its discovering watch hit:\n{}",
        promotions.join("\n")
    );

    // Exactly-once, proven against ground truth: a clean same-seed
    // diagnosis batch-drained in one go renders the same JSONL.
    journal::reset();
    gist_coop::diagnose_bug(&bug, &cfg);
    let (clean, _) = journal::drain();
    assert_eq!(
        journal::to_jsonl(&streamed.events),
        journal::to_jsonl(&clean),
        "streamed journal must equal a clean batch drain byte-for-byte"
    );
}

#[test]
fn streaming_drains_never_duplicate_or_drop() {
    concurrent_tail_is_exactly_once();
    overwrites_are_accounted_and_warned();
    live_tail_of_a_diagnosis_matches_batch_drain();
}
