//! The flight-recorder journal: lock-free-per-thread buffering of
//! [`EventRecord`]s over a bounded ring of binary frames, drained either
//! wholesale (batch exports) or incrementally through stable cursors
//! (live tailing), with JSONL and Chrome `trace_event` as export formats.
//!
//! # Architecture
//!
//! ```text
//! record()  ──► thread-local Vec (no lock)
//!                  │ every FLUSH_EVERY events / flush_local() / thread exit
//!                  ▼ encode to wire frames (varint, ~10–30 B/event)
//!              bounded global ring of frames (brief mutex push)
//!                  │                          │
//!        drain() / drain_binary()         drain_since(cursor)
//!        take-and-clear, seq-sorted       incremental tail, no clear
//! ```
//!
//! The ring is **bounded** ([`DEFAULT_RING_CAPACITY`] frames): when full,
//! the oldest frames are overwritten and counted — a runaway loop costs
//! bounded memory and an explicit `events_overwritten` tally (surfaced by
//! [`drain`], the binary journal's meta frame, and the
//! `gist-trace summary` gap warning) instead of either unbounded growth
//! or the old silent `MAX_EVENTS` drop-to-0-sentinel behavior.
//!
//! # Ordering and determinism
//!
//! Sequence numbers come from one process-global relaxed atomic, so the
//! drained journal (sorted by seq) is totally ordered. Records carry *no*
//! wall-clock field: under fixed seeds and sequential execution (fleet
//! batch = 1, the deterministic bench configuration) the journal — binary
//! frames and JSONL export alike — is **byte-identical** across runs.
//! Under parallel execution (batch > 1) events still record safely, but
//! interleaving makes seq assignment racy.
//!
//! # Streaming drains
//!
//! [`drain_since`] reads the ring without clearing it and returns a new
//! [`Cursor`]. Cursors index the ring's monotonic *arrival order* (not
//! seq watermarks — cross-thread flushes arrive out of seq order, and a
//! watermark would drop late arrivals), so a consumer polling
//! `drain_since` sees every frame **exactly once**: no duplicates, no
//! drops, except frames overwritten before the consumer reached them,
//! which are counted in [`DrainChunk::overwritten`]. This is what
//! `gist-trace follow` and the journal_stream test tail.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

pub use crate::event::{EventKind, EventRecord};
use crate::json::Json;
pub use crate::wire::{parse_binary, to_binary, JournalStats};

/// Default ring capacity in frames. At typical frame sizes (10–30 bytes)
/// a full ring costs ~20–30 MB; the full-bugbase bench records ~25k
/// events, so overwrite only triggers on runaway loops — which now lose
/// the *oldest* events with accounting instead of silently dropping the
/// newest.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// Thread-local buffer length that triggers a flush to the global ring.
const FLUSH_EVERY: usize = 256;

static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static CURRENT_TRACE: AtomicU64 = AtomicU64::new(0);
/// Reset epoch: bumped by [`reset`] so stale thread-local buffers (and
/// their cached thread indices) are discarded lazily, and so cursors from
/// before a reset read as "start over" instead of aliasing new positions.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
/// Cumulative nanoseconds spent encoding events to wire frames (the
/// journal's per-flush cost); read by [`encode_ms`].
static ENCODE_NANOS: AtomicU64 = AtomicU64::new(0);

/// Inline capacity of a ring frame. Typical frames run 10–30 bytes
/// (varints), so nearly every frame stores inline and the ring makes no
/// per-event heap allocation; long labels/paths spill to a box.
const FRAME_INLINE: usize = 30;

/// Frame byte storage: inline for the common small frame, boxed beyond
/// [`FRAME_INLINE`].
enum FrameBytes {
    Inline { len: u8, buf: [u8; FRAME_INLINE] },
    Spilled(Box<[u8]>),
}

impl FrameBytes {
    fn copy_from(bytes: &[u8]) -> FrameBytes {
        if bytes.len() <= FRAME_INLINE {
            let mut buf = [0u8; FRAME_INLINE];
            buf[..bytes.len()].copy_from_slice(bytes);
            FrameBytes::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            FrameBytes::Spilled(bytes.into())
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            FrameBytes::Inline { len, buf } => &buf[..usize::from(*len)],
            FrameBytes::Spilled(b) => b,
        }
    }
}

/// One encoded event held by the ring: the frame bytes plus the seq
/// (kept unencoded for sorting/accounting without a decode).
struct Frame {
    seq: u64,
    bytes: FrameBytes,
}

/// The bounded global ring of encoded frames, in arrival (push) order.
struct Ring {
    frames: VecDeque<Frame>,
    /// Arrival index of `frames[0]`.
    start_pos: u64,
    /// Arrival index the next push will get.
    end_pos: u64,
    /// Frames overwritten this epoch.
    overwritten: u64,
    capacity: usize,
}

impl Ring {
    fn push(&mut self, frame: Frame) {
        if self.frames.len() >= self.capacity.max(1) {
            self.frames.pop_front();
            self.start_pos += 1;
            self.overwritten += 1;
        }
        self.frames.push_back(frame);
        self.end_pos += 1;
    }
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            frames: VecDeque::new(),
            start_pos: 0,
            end_pos: 0,
            overwritten: 0,
            capacity: DEFAULT_RING_CAPACITY,
        })
    })
}

fn lock_ring() -> std::sync::MutexGuard<'static, Ring> {
    ring().lock().unwrap_or_else(|e| e.into_inner())
}

struct LocalBuf {
    generation: u64,
    tid: u32,
    events: Vec<EventRecord>,
}

impl LocalBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        // Events from a stale epoch must not leak into the new journal.
        if self.generation == GENERATION.load(Ordering::Relaxed) {
            // Encode outside the ring lock: only the pushes serialize.
            // Scratch buffers are reused across the whole flush, so small
            // frames (the overwhelming majority) allocate nothing.
            let t0 = std::time::Instant::now();
            let mut body = Vec::with_capacity(40);
            let mut frame = Vec::with_capacity(48);
            let frames: Vec<Frame> = self
                .events
                .drain(..)
                .map(|e| {
                    frame.clear();
                    crate::wire::encode_event_into(&e, &mut body, &mut frame);
                    Frame {
                        seq: e.seq,
                        bytes: FrameBytes::copy_from(&frame),
                    }
                })
                .collect();
            ENCODE_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let mut ring = lock_ring();
            for f in frames {
                ring.push(f);
            }
        } else {
            self.events.clear();
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const {
        RefCell::new(LocalBuf {
            generation: u64::MAX,
            tid: 0,
            events: Vec::new(),
        })
    };
}

/// A stable position in the journal's arrival order, for incremental
/// drains via [`drain_since`]. `Cursor::default()` reads from the
/// beginning. Cursors survive across polls; a [`reset`] invalidates them
/// (the generation mismatch makes the next drain start over).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cursor {
    generation: u64,
    pos: u64,
}

/// One incremental drain result: the newly arrived events (sorted by seq
/// within the chunk), how many frames the consumer *missed* (overwritten
/// before this poll reached them), and the cursor to pass to the next
/// [`drain_since`] call.
#[derive(Clone, Debug, Default)]
pub struct DrainChunk {
    /// Events that arrived since the cursor, sorted by seq.
    pub events: Vec<EventRecord>,
    /// Frames lost between the cursor and the oldest retained frame:
    /// non-zero only when the ring overwrote faster than the consumer
    /// polled (or a full [`drain`] consumed frames out from under it).
    pub overwritten: u64,
    /// Position after this chunk; pass to the next [`drain_since`].
    pub cursor: Cursor,
}

/// Records one event, returning its sequence number (0 = not recorded:
/// during thread teardown). The [`crate::event!`] macro is shorthand for
/// this call.
pub fn record(kind: EventKind) -> u64 {
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let trace = CURRENT_TRACE.load(Ordering::Relaxed);
    LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let generation = GENERATION.load(Ordering::Relaxed);
            if l.generation != generation {
                l.events.clear();
                l.generation = generation;
                l.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32;
            }
            let tid = l.tid;
            l.events.push(EventRecord {
                seq,
                trace,
                tid,
                kind,
            });
            if l.events.len() >= FLUSH_EVERY {
                l.flush();
            }
            seq
        })
        .unwrap_or(0)
}

/// Starts a diagnosis trace: allocates the next trace id, makes it
/// current (all events until [`end_trace`] carry it — including events
/// from fleet worker threads), and records a `trace.start` event carrying
/// `label`. Returns the trace id.
pub fn begin_trace(label: &str) -> u64 {
    let id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    CURRENT_TRACE.store(id, Ordering::Relaxed);
    record(EventKind::TraceStarted {
        label: label.to_owned(),
    });
    id
}

/// Ends the current diagnosis trace: records `trace.finish` and clears
/// the current trace id.
pub fn end_trace(iterations: u64, recurrences: u64) {
    record(EventKind::TraceFinished {
        iterations,
        recurrences,
    });
    CURRENT_TRACE.store(0, Ordering::Relaxed);
}

/// Flushes the calling thread's buffered events into the global ring
/// without draining it. Thread-local buffers otherwise flush every
/// `FLUSH_EVERY` events and at thread exit — persistent worker threads
/// call this at batch end, and the core server calls it at each AsT
/// iteration boundary, so streaming consumers ([`drain_since`]) see
/// events at those checkpoints rather than `FLUSH_EVERY` granularity.
pub fn flush_local() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

/// Flushes the calling thread's buffer and takes every buffered event,
/// sorted by sequence number, plus the epoch's overwrite accounting: how
/// many events the bounded ring discarded, and the oldest seq that
/// survived (the binary journal's meta frame, see [`to_binary`]). The
/// journal is empty afterwards (recording continues; seq numbers keep
/// growing until [`reset`]).
pub fn drain() -> (Vec<EventRecord>, JournalStats) {
    parse_binary(&drain_binary().0).expect("ring frames decode")
}

/// Takes the whole journal as a complete **binary journal** — header, all
/// frames sorted by seq, trailing meta frame — without decoding anything:
/// the ring already holds wire-encoded frames, so this is a sort plus one
/// concatenation. Byte-identical to [`to_binary`] over [`drain`]'s output,
/// and the cheapest way to persist the journal (what `repro -- bench`
/// writes). The journal is empty afterwards, like [`drain`].
pub fn drain_binary() -> (Vec<u8>, JournalStats) {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
    let (frames, overwritten) = {
        let mut ring = lock_ring();
        ring.start_pos = ring.end_pos;
        (std::mem::take(&mut ring.frames), ring.overwritten)
    };
    let mut frames: Vec<Frame> = frames.into();
    frames.sort_unstable_by_key(|f| f.seq);
    let stats = JournalStats {
        events_overwritten: overwritten,
        oldest_seq: frames.first().map_or(0, |f| f.seq),
    };
    let total: usize = frames.iter().map(|f| f.bytes.as_slice().len()).sum();
    let mut out = Vec::with_capacity(total + 24);
    out.extend_from_slice(&crate::wire::MAGIC);
    crate::wire::put_varint(crate::wire::VERSION, &mut out);
    for f in &frames {
        out.extend_from_slice(f.bytes.as_slice());
    }
    crate::wire::encode_meta(&stats, &mut out);
    (out, stats)
}

/// Incremental drain: every frame that arrived since `cursor`, without
/// clearing the ring. See the module docs for the exactly-once guarantee.
/// Flushes the calling thread first, so a single-threaded recorder can
/// tail itself; events from *other* threads appear once those threads
/// flush (fleet batch boundaries, server iteration boundaries, or thread
/// exit).
pub fn drain_since(cursor: Cursor) -> DrainChunk {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
    let ring = lock_ring();
    let generation = GENERATION.load(Ordering::Relaxed);
    // A cursor from another epoch restarts from the beginning.
    let pos = if cursor.generation == generation {
        cursor.pos.min(ring.end_pos)
    } else {
        0
    };
    let start = pos.max(ring.start_pos);
    let mut events: Vec<EventRecord> = ring
        .frames
        .iter()
        .skip((start - ring.start_pos) as usize)
        .map(|f| crate::wire::decode_event(f.bytes.as_slice()).expect("ring frame decodes"))
        .collect();
    events.sort_by_key(|e| e.seq);
    DrainChunk {
        events,
        overwritten: start - pos,
        cursor: Cursor {
            generation,
            pos: ring.end_pos,
        },
    }
}

/// Cumulative milliseconds spent encoding events into wire frames this
/// epoch — the journal's amortized per-flush encoding cost.
pub fn encode_ms() -> f64 {
    ENCODE_NANOS.load(Ordering::Relaxed) as f64 / 1e6
}

/// Overrides the ring capacity (in frames), trimming immediately if the
/// ring already holds more. The capacity persists across [`reset`] calls;
/// tests that shrink it must restore [`DEFAULT_RING_CAPACITY`].
pub fn set_ring_capacity(capacity: usize) {
    let mut ring = lock_ring();
    ring.capacity = capacity.max(1);
    while ring.frames.len() > ring.capacity {
        ring.frames.pop_front();
        ring.start_pos += 1;
        ring.overwritten += 1;
    }
}

/// Resets the journal: clears the ring and its accounting, restarts seq
/// and trace-id counters at 1, and bumps the epoch so stale thread-local
/// buffers and pre-reset cursors are discarded. Called from
/// [`crate::reset`].
pub fn reset() {
    GENERATION.fetch_add(1, Ordering::Relaxed);
    NEXT_TID.store(0, Ordering::Relaxed);
    NEXT_SEQ.store(1, Ordering::Relaxed);
    NEXT_TRACE.store(1, Ordering::Relaxed);
    CURRENT_TRACE.store(0, Ordering::Relaxed);
    ENCODE_NANOS.store(0, Ordering::Relaxed);
    {
        let mut ring = lock_ring();
        ring.frames.clear();
        ring.start_pos = 0;
        ring.end_pos = 0;
        ring.overwritten = 0;
    }
    let _ = LOCAL.try_with(|l| l.borrow_mut().events.clear());
}

/// Renders drained records as the deterministic JSONL **export**: one
/// compact JSON object per line, sorted by seq, no wall-clock fields.
/// JSONL is an export format; [`to_binary`] is the canonical journal.
pub fn to_jsonl(events: &[EventRecord]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_value().render());
        out.push('\n');
    }
    out
}

/// Builds a Chrome `trace_event` export (the `chrome://tracing` /
/// Perfetto JSON format) from journal records.
///
/// `span.begin` / `span.end` become `B` / `E` duration events; everything
/// else becomes a thread-scoped instant (`i`) event carrying its payload
/// as `args`. The journal has no wall-clock, so timestamps are synthesized
/// from sequence numbers (1 seq = 1 µs): relative ordering and nesting are
/// faithful, durations are logical.
///
/// The export is well-formed for *any* input — including unbalanced
/// spans (a guard still open at drain time, or an `E` whose `B` predates
/// a reset): an `E` without a matching open `B` on its thread is dropped,
/// an `E` that closes an outer span first closes the inner ones, and
/// spans still open at the end are closed with synthetic `E` events.
pub fn chrome_trace(events: &[EventRecord]) -> Json {
    let mut out: Vec<Json> = Vec::new();
    // Per-tid stack of open span names.
    let mut open: std::collections::BTreeMap<u32, Vec<String>> = std::collections::BTreeMap::new();
    let mut max_ts = 0u64;
    let base = |e: &EventRecord, ph: &str, name: &str, ts: u64| -> Vec<(String, Json)> {
        vec![
            ("name".into(), Json::Str(name.to_owned())),
            ("ph".into(), Json::Str(ph.to_owned())),
            ("ts".into(), Json::U64(ts)),
            ("pid".into(), Json::U64(1)),
            ("tid".into(), Json::U64(u64::from(e.tid))),
        ]
    };
    for e in events {
        max_ts = max_ts.max(e.seq);
        match &e.kind {
            EventKind::SpanBegin { path } => {
                out.push(Json::Obj(base(e, "B", path, e.seq)));
                open.entry(e.tid).or_default().push(path.clone());
            }
            EventKind::SpanEnd { path } => {
                let stack = open.entry(e.tid).or_default();
                let Some(pos) = stack.iter().rposition(|p| p == path) else {
                    continue; // no matching B on this thread: drop
                };
                // Close inner spans first so B/E stay properly nested.
                while stack.len() > pos {
                    let inner = stack.pop().expect("stack non-empty");
                    out.push(Json::Obj(base(e, "E", &inner, e.seq)));
                }
            }
            kind => {
                let mut members = base(e, "i", kind.kind_str(), e.seq);
                members.push(("s".into(), Json::Str("t".into())));
                members.push(("args".into(), kind.data_value()));
                out.push(Json::Obj(members));
            }
        }
    }
    // Close spans still open at drain time, innermost first.
    for (tid, stack) in &mut open {
        while let Some(inner) = stack.pop() {
            max_ts += 1;
            out.push(Json::Obj(vec![
                ("name".into(), Json::Str(inner)),
                ("ph".into(), Json::Str("E".into())),
                ("ts".into(), Json::U64(max_ts)),
                ("pid".into(), Json::U64(1)),
                ("tid".into(), Json::U64(u64::from(*tid))),
            ]));
        }
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(out)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
}

/// Records the flight-recorder event built by the given [`EventKind`]
/// constructor expression, returning its journal sequence number (0 when
/// not recorded).
///
/// ```
/// let seq = gist_obs::event!(RunStarted { run: 1, seed: 42 });
/// # let _ = seq;
/// ```
#[macro_export]
macro_rules! event {
    ($($kind:tt)+) => {
        $crate::journal::record($crate::journal::EventKind::$($kind)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the journal is process-global; these tests run in one binary
    // alongside the metric tests, so they only assert properties robust
    // to interleaving (or run single-threaded logic on owned data).
    // Ring-capacity and cursor exactly-once behavior live in the
    // single-test integration binary tests/journal_stream.rs.

    #[test]
    fn record_and_drain_round_trip() {
        let seq = record(EventKind::RunStarted { run: 7, seed: 9 });
        assert!(seq > 0);
        let (events, _) = drain();
        let mine: Vec<_> = events.iter().filter(|e| e.seq == seq).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(
            mine[0].kind,
            EventKind::RunStarted { run: 7, seed: 9 },
            "payload survives buffering and the frame encode/decode"
        );
        // Drained output is sorted by seq.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn drain_since_does_not_duplicate_own_events() {
        let seq = record(EventKind::WatchArmed {
            addr: 0x10,
            slot: 1,
        });
        // A sibling test's full drain() can steal the event between our
        // flush and read, so presence in the first chunk is not asserted;
        // exactly-once (no re-delivery) always is.
        let chunk = drain_since(Cursor::default());
        let next = drain_since(chunk.cursor);
        assert!(
            next.events.iter().all(|e| e.seq != seq),
            "cursor re-delivered an event"
        );
    }

    #[test]
    fn binary_round_trips_and_is_compact() {
        let records = vec![
            EventRecord {
                seq: 1,
                trace: 1,
                tid: 0,
                kind: EventKind::TraceStarted {
                    label: "Failure Sketch for t \"quoted\"".into(),
                },
            },
            EventRecord {
                seq: 2,
                trace: 1,
                tid: 0,
                kind: EventKind::WatchHit {
                    iid: 5,
                    addr: 0x1000,
                    value: -3,
                    hit_seq: 44,
                    hit_tid: 1,
                    discovered: true,
                },
            },
        ];
        let stats = JournalStats {
            events_overwritten: 7,
            oldest_seq: 1,
        };
        let bin = to_binary(&records, &stats);
        let (decoded, got) = parse_binary(&bin).expect("parses");
        assert_eq!(decoded, records);
        assert_eq!(got, stats);
        assert!(
            bin.len() * 2 < to_jsonl(&records).len(),
            "binary should be far smaller than the JSONL export"
        );
    }

    #[test]
    fn chrome_trace_balances_unmatched_spans() {
        let begin = |path: &str| EventKind::SpanBegin { path: path.into() };
        let end = |path: &str| EventKind::SpanEnd { path: path.into() };
        let ev = |seq, tid, kind| EventRecord {
            seq,
            trace: 0,
            tid,
            kind,
        };
        // tid 0: orphan end, then an open begin never closed;
        // tid 1: end closes the outer span while inner is open.
        let events = vec![
            ev(1, 0, end("orphan")),
            ev(2, 0, begin("open")),
            ev(3, 1, begin("outer")),
            ev(4, 1, begin("outer/inner")),
            ev(5, 1, end("outer")),
        ];
        let chrome = chrome_trace(&events);
        let Json::Obj(members) = &chrome else {
            panic!("chrome export is an object")
        };
        let Json::Arr(items) = &members[0].1 else {
            panic!("traceEvents is an array")
        };
        // Per-tid stack discipline over the output.
        let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
        for item in items {
            let Json::Obj(f) = item else { panic!() };
            let get = |n: &str| f.iter().find(|(k, _)| k == n).map(|(_, v)| v.clone());
            let Some(Json::Str(ph)) = get("ph") else {
                panic!()
            };
            let Some(Json::Str(name)) = get("name") else {
                panic!()
            };
            let Some(Json::U64(tid)) = get("tid") else {
                panic!()
            };
            match ph.as_str() {
                "B" => stacks.entry(tid).or_default().push(name),
                "E" => assert_eq!(
                    stacks.entry(tid).or_default().pop().as_deref(),
                    Some(name.as_str()),
                    "E must close the innermost open B"
                ),
                _ => {}
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
        }
    }

    #[test]
    fn event_macro_returns_seq() {
        let seq = crate::event!(PatchPlanned {
            tracked: 4,
            watch: 2,
            group: 0,
            bytes: 64,
        });
        assert!(seq > 0);
        let _ = drain();
    }
}
