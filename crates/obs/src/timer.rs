//! Wall-clock span timers with RAII guards and hierarchical naming.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::snapshot::TimerSnapshot;

/// Accumulated wall-clock time for one span path.
///
/// Timers measure real time and are therefore *excluded* from the
/// determinism contract: they appear in [`crate::MetricsSnapshot::timers`]
/// but never in [`crate::MetricsSnapshot::deterministic_json`].
#[derive(Debug, Default)]
pub struct Timer {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Timer {
    /// Creates an empty timer.
    pub const fn new() -> Self {
        Timer {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one span of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Copies the current contents out.
    pub fn snapshot(&self) -> TimerSnapshot {
        TimerSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`span`]; records the elapsed time against the
/// span's stack path when dropped.
#[must_use = "a span records its duration when the guard is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    start: Instant,
    path: String,
}

/// Opens a span named `name`, nested under any spans already open on this
/// thread.
///
/// The timer key is the `/`-joined stack of open span names, so
/// `span("diagnose")` followed by `span("collect")` records under
/// `"diagnose"` and `"diagnose/collect"`. Guards must be dropped in LIFO
/// order (the natural scoping order) for paths to stay well-formed. Work
/// handed to another thread starts from an empty stack there.
pub fn span(name: &'static str) -> SpanGuard {
    push_segment(name.to_owned())
}

fn push_segment(segment: String) -> SpanGuard {
    let path = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(segment);
        s.join("/")
    });
    // Mirror the span into the flight-recorder journal so the Chrome
    // export can show it as a B/E duration pair. Journaled *before* the
    // clock read so the recording cost is outside the measured span.
    crate::journal::record(crate::event::EventKind::SpanBegin { path: path.clone() });
    SpanGuard {
        start: Instant::now(),
        path,
    }
}

/// A cheap, sendable token naming an open span's full path.
///
/// Spans nest per *thread*: work handed to a worker thread starts from an
/// empty span stack there, so its spans would surface at the top level of
/// the timer snapshot even though, logically, they run inside the span that
/// dispatched them. Capture a handle with [`current_span_handle`] on the
/// dispatching thread, send it (it is `Send + Sync`), and open worker
/// spans with [`span_under`] to parent them explicitly.
#[derive(Clone, Debug, Default)]
pub struct SpanHandle {
    path: String,
}

/// Captures the calling thread's current span path as a [`SpanHandle`].
///
/// With no spans open the handle is empty and [`span_under`] degrades to a
/// plain top-level [`span`].
pub fn current_span_handle() -> SpanHandle {
    SpanHandle {
        path: SPAN_STACK.with(|s| s.borrow().join("/")),
    }
}

/// Opens a span named `name` nested under `parent` — a handle captured on
/// the dispatching thread. Further plain [`span`] calls on this thread
/// nest inside it.
///
/// If this thread already has spans open (the dispatch-thread case, where
/// `parent` describes exactly those spans), the parent is redundant and
/// the span nests under the local stack instead — so the same call site
/// produces the same path whether the work ran inline or on a worker.
pub fn span_under(parent: &SpanHandle, name: &'static str) -> SpanGuard {
    let local_open = SPAN_STACK.with(|s| !s.borrow().is_empty());
    if local_open || parent.path.is_empty() {
        push_segment(name.to_owned())
    } else {
        push_segment(format!("{}/{}", parent.path, name))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        crate::registry::timer_by_path(&self.path).record_ns(ns);
        crate::journal::record(crate::event::EventKind::SpanEnd {
            path: std::mem::take(&mut self.path),
        });
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}
