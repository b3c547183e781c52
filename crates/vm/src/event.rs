//! The VM's event stream and the observer interface.
//!
//! Every architectural event a real CPU would expose to Gist's tracking
//! machinery is modeled as an [`Event`]: retired statements (Intel PT's
//! "retired instruction" accounting), conditional branch outcomes (PT TNT
//! bits), indirect transfers (PT TIP packets), and memory accesses with
//! values (what hardware watchpoints trap on). Events carry:
//!
//! * `seq` — a global sequence number establishing the total order the
//!   paper obtains from atomic watchpoint handling (§4),
//! * `core` — the virtual core, because Intel PT traces are only ordered
//!   *per core* (§6), a property the PT simulator must honor,
//! * `tid` — the executing thread.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use gist_ir::{FuncId, InstrId, Value};

/// Read/write classification of a memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (includes `free` and mutex state updates).
    Write,
}

/// One architectural event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A statement retired.
    Retired {
        /// Global sequence number.
        seq: u64,
        /// Executing thread.
        tid: u32,
        /// Virtual core.
        core: u32,
        /// The statement.
        iid: InstrId,
    },
    /// A conditional branch resolved (source of PT TNT bits).
    Branch {
        /// Global sequence number.
        seq: u64,
        /// Executing thread.
        tid: u32,
        /// Virtual core.
        core: u32,
        /// The `condbr` statement.
        iid: InstrId,
        /// Whether the true edge was taken.
        taken: bool,
    },
    /// An indirect control transfer: indirect call target resolved, or a
    /// return to a dynamic address (source of PT TIP packets).
    IndirectTransfer {
        /// Global sequence number.
        seq: u64,
        /// Executing thread.
        tid: u32,
        /// Virtual core.
        core: u32,
        /// The call/return statement.
        iid: InstrId,
        /// The target statement (callee entry or return site).
        target: InstrId,
    },
    /// The address-computation step immediately *before* a memory access.
    ///
    /// Real memory accesses are preceded by address computation, and that
    /// is where Gist inserts its watchpoint-arming instrumentation
    /// ("before the access and after the immediate dominator of that
    /// access", §3.2.3). The VM executes accesses in two scheduler steps —
    /// `PreAccess`, then [`Event::Mem`] — so other threads can interleave
    /// between arming and the access, exactly as on real hardware.
    PreAccess {
        /// Global sequence number.
        seq: u64,
        /// Executing thread.
        tid: u32,
        /// Virtual core.
        core: u32,
        /// The access statement about to execute.
        iid: InstrId,
        /// Read or write.
        kind: AccessKind,
        /// The address that will be accessed.
        addr: u64,
        /// True if the address is in a stack region.
        is_stack: bool,
    },
    /// A memory access (source of watchpoint traps).
    Mem {
        /// Global sequence number.
        seq: u64,
        /// Executing thread.
        tid: u32,
        /// Virtual core.
        core: u32,
        /// The accessing statement.
        iid: InstrId,
        /// Read or write.
        kind: AccessKind,
        /// The accessed address.
        addr: u64,
        /// The value read, or the value being written.
        value: Value,
        /// True if the address is in a thread's stack region (Gist does not
        /// watch stack variables, §3.2.3).
        is_stack: bool,
    },
    /// A function was entered (via call, spawn, or program start).
    Enter {
        /// Global sequence number.
        seq: u64,
        /// Executing thread.
        tid: u32,
        /// Virtual core.
        core: u32,
        /// The entered function.
        func: FuncId,
    },
    /// A function returned.
    ///
    /// The Intel PT simulator uses `to` to decide between RET compression
    /// (the matching call was traced, so the decoder can pop its stack) and
    /// an explicit TIP packet.
    Return {
        /// Global sequence number.
        seq: u64,
        /// Executing thread.
        tid: u32,
        /// Virtual core.
        core: u32,
        /// The `ret` statement.
        iid: InstrId,
        /// The statement control resumes at, or `None` if the outermost
        /// frame returned (thread exit).
        to: Option<InstrId>,
    },
    /// A thread was created.
    Spawn {
        /// Global sequence number.
        seq: u64,
        /// The creating thread.
        tid: u32,
        /// Virtual core of the creator.
        core: u32,
        /// The created thread.
        child: u32,
    },
    /// A thread finished.
    ThreadExit {
        /// Global sequence number.
        seq: u64,
        /// The exiting thread.
        tid: u32,
        /// Virtual core.
        core: u32,
    },
    /// The run failed; this is always the final event of a failing run.
    Failure {
        /// Global sequence number.
        seq: u64,
        /// The failing thread.
        tid: u32,
        /// Virtual core.
        core: u32,
        /// The statement at which the failure manifested.
        iid: InstrId,
    },
}

impl Event {
    /// The global sequence number of the event.
    #[inline]
    pub fn seq(&self) -> u64 {
        match self {
            Event::Retired { seq, .. }
            | Event::Branch { seq, .. }
            | Event::IndirectTransfer { seq, .. }
            | Event::Return { seq, .. }
            | Event::PreAccess { seq, .. }
            | Event::Mem { seq, .. }
            | Event::Enter { seq, .. }
            | Event::Spawn { seq, .. }
            | Event::ThreadExit { seq, .. }
            | Event::Failure { seq, .. } => *seq,
        }
    }

    /// The thread that produced the event.
    #[inline]
    pub fn tid(&self) -> u32 {
        match self {
            Event::Retired { tid, .. }
            | Event::Branch { tid, .. }
            | Event::IndirectTransfer { tid, .. }
            | Event::Return { tid, .. }
            | Event::PreAccess { tid, .. }
            | Event::Mem { tid, .. }
            | Event::Enter { tid, .. }
            | Event::Spawn { tid, .. }
            | Event::ThreadExit { tid, .. }
            | Event::Failure { tid, .. } => *tid,
        }
    }

    /// The virtual core that produced the event.
    #[inline]
    pub fn core(&self) -> u32 {
        match self {
            Event::Retired { core, .. }
            | Event::Branch { core, .. }
            | Event::IndirectTransfer { core, .. }
            | Event::Return { core, .. }
            | Event::PreAccess { core, .. }
            | Event::Mem { core, .. }
            | Event::Enter { core, .. }
            | Event::Spawn { core, .. }
            | Event::ThreadExit { core, .. }
            | Event::Failure { core, .. } => *core,
        }
    }
}

/// Consumes the VM's event stream.
///
/// Gist's client runtime, the Intel PT simulator, the watchpoint unit, and
/// the record/replay baseline all implement this trait; they are attached
/// to a [`crate::Vm`] run and see its events in global order: every event,
/// unless the observer has a [`DeliveryFilter`].
pub trait Observer {
    /// Called for every delivered event, in increasing `seq` order.
    fn on_event(&mut self, ev: &Event);

    /// The observer's delivery filter, which the VM reads at the start of
    /// each run. `None`, the default, delivers every event.
    fn filter(&self) -> Option<&DeliveryFilter> {
        None
    }
}

/// Which events of a run an observer needs, decided the way the hardware
/// under Gist's client decides which ones reach software (§3.2.2–3.2.3):
/// Intel PT emits packets only on cores where it is enabled, and the debug
/// registers trap only on accesses they cover.
///
/// Before the compiled VM builds a `Retired`, `Branch`, `IndirectTransfer`,
/// `PreAccess` or `Mem` event for a filtered observer, it checks the
/// filter. On a *hot* core (see [`LiveFilter`]) each of them is delivered.
/// Elsewhere a `Retired` is delivered only at a statement whose bits meet
/// `retired_at`, a `PreAccess` only at one whose bits meet
/// `pre_access_at`, a `Mem` only inside an armed range, and a `Branch` or
/// `IndirectTransfer` never. Every other kind is always delivered. A
/// skipped event still takes its `seq`, so the numbering is the one an
/// unfiltered observer sees.
///
/// An observer's filter must skip only events on which it would do
/// nothing. The tree-walk oracle ignores filters and delivers every event.
#[derive(Clone, Debug)]
pub struct DeliveryFilter {
    /// Per-statement bits, indexed by `InstrId`.
    stmts: Arc<[u8]>,
    /// Bits of `stmts` at which a `Retired` is delivered on any core.
    retired_at: u8,
    /// Bits of `stmts` at which a `PreAccess` is delivered on any core.
    pre_access_at: u8,
    /// The part the observer changes during a run.
    live: Arc<LiveFilter>,
}

impl DeliveryFilter {
    /// A filter over per-statement bits `stmts` and the observer's `live`
    /// state; see [`DeliveryFilter`] for what the masks select.
    pub fn new(stmts: Arc<[u8]>, retired_at: u8, pre_access_at: u8, live: Arc<LiveFilter>) -> Self {
        DeliveryFilter {
            stmts,
            retired_at,
            pre_access_at,
            live,
        }
    }

    /// The part the observer changes during a run.
    pub fn live(&self) -> &LiveFilter {
        &self.live
    }

    /// Readies the filter for a run over statement bits `stmts`, in place:
    /// the masks stay, and the live part returns to [`LiveFilter::new`].
    pub fn reset(&mut self, stmts: Arc<[u8]>) {
        self.stmts = stmts;
        self.live.reset();
    }

    /// True if statement `iid`'s bits meet `mask`; a statement beyond the
    /// bits is delivered.
    #[inline]
    fn at(&self, iid: InstrId, mask: u8) -> bool {
        self.stmts.get(iid.index()).is_none_or(|b| b & mask != 0)
    }

    /// True if a `Retired` of `iid` on `core` is delivered.
    #[inline]
    pub(crate) fn retired(&self, core: u32, iid: InstrId) -> bool {
        self.live.hot(core) || self.at(iid, self.retired_at)
    }

    /// True if a `Branch` or `IndirectTransfer` on `core` is delivered.
    #[inline]
    pub(crate) fn control(&self, core: u32) -> bool {
        self.live.hot(core)
    }

    /// True if a `PreAccess` of `iid` on `core` is delivered.
    #[inline]
    pub(crate) fn pre_access(&self, core: u32, iid: InstrId) -> bool {
        self.live.hot(core) || self.at(iid, self.pre_access_at)
    }

    /// True if a `Mem` access to `addr` on `core` is delivered.
    #[inline]
    pub(crate) fn mem(&self, core: u32, addr: u64) -> bool {
        self.live.hot(core) || self.live.covers(addr)
    }
}

/// The part of a [`DeliveryFilter`] that its observer changes during a
/// run: which cores are hot, and up to [`LiveFilter::RANGES`] armed
/// address ranges. The observer writes it while handling an event and the
/// VM reads it before building the next one, on the same thread; the
/// fields are relaxed atomics only so that an observer holding one stays
/// `Send`.
#[derive(Debug)]
pub struct LiveFilter {
    /// Bit `c` set: core `c` is hot. Cores from 64 up are always hot.
    hot: AtomicU64,
    /// Armed ranges as `[start, length]`; an empty slot has length 0.
    ranges: [[AtomicU64; 2]; LiveFilter::RANGES],
}

impl Default for LiveFilter {
    fn default() -> Self {
        LiveFilter::new()
    }
}

impl LiveFilter {
    /// Number of address ranges (x86 has four debug registers).
    pub const RANGES: usize = 4;

    /// Every core hot, no range armed: delivers every event.
    pub fn new() -> Self {
        LiveFilter {
            hot: AtomicU64::new(u64::MAX),
            ranges: Default::default(),
        }
    }

    /// Returns to the state [`LiveFilter::new`] builds.
    fn reset(&self) {
        self.hot.store(u64::MAX, Relaxed);
        for [start, len] in &self.ranges {
            start.store(0, Relaxed);
            len.store(0, Relaxed);
        }
    }

    /// Marks `core` hot or not. Cores from 64 up stay hot.
    pub fn set_hot(&self, core: u32, hot: bool) {
        if core < 64 {
            let bit = 1u64 << core;
            let mask = self.hot.load(Relaxed);
            self.hot
                .store(if hot { mask | bit } else { mask & !bit }, Relaxed);
        }
    }

    /// Arms range `slot` (below [`LiveFilter::RANGES`]) over `addrs`.
    pub fn arm(&self, slot: usize, addrs: std::ops::Range<u64>) {
        let [start, len] = &self.ranges[slot];
        start.store(addrs.start, Relaxed);
        len.store(addrs.end.saturating_sub(addrs.start), Relaxed);
    }

    /// True if `core` is hot.
    #[inline]
    pub(crate) fn hot(&self, core: u32) -> bool {
        self.hot
            .load(Relaxed)
            .checked_shr(core)
            .is_none_or(|m| m & 1 != 0)
    }

    /// True if an armed range covers `addr`.
    #[inline]
    pub(crate) fn covers(&self, addr: u64) -> bool {
        self.ranges
            .iter()
            .any(|[start, len]| addr.wrapping_sub(start.load(Relaxed)) < len.load(Relaxed))
    }
}

/// A trivial observer that stores all events (used in tests and by the
/// record/replay baseline).
#[derive(Default, Debug)]
pub struct EventLog {
    /// The recorded events.
    pub events: Vec<Event>,
}

impl Observer for EventLog {
    fn on_event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let evs = [
            Event::Retired {
                seq: 1,
                tid: 2,
                core: 3,
                iid: InstrId(4),
            },
            Event::Branch {
                seq: 5,
                tid: 6,
                core: 7,
                iid: InstrId(8),
                taken: true,
            },
            Event::Mem {
                seq: 9,
                tid: 10,
                core: 11,
                iid: InstrId(12),
                kind: AccessKind::Read,
                addr: 13,
                value: 14,
                is_stack: false,
            },
            Event::Failure {
                seq: 15,
                tid: 16,
                core: 17,
                iid: InstrId(18),
            },
        ];
        assert_eq!(evs[0].seq(), 1);
        assert_eq!(evs[1].tid(), 6);
        assert_eq!(evs[2].core(), 11);
        assert_eq!(evs[3].seq(), 15);
    }

    #[test]
    fn event_log_records_in_order() {
        let mut log = EventLog::default();
        for i in 0..5 {
            log.on_event(&Event::Retired {
                seq: i,
                tid: 0,
                core: 0,
                iid: InstrId(0),
            });
        }
        assert_eq!(log.events.len(), 5);
        assert!(log.events.windows(2).all(|w| w[0].seq() < w[1].seq()));
    }
}
