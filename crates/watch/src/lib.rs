//! A hardware watchpoint simulator modeled on x86 debug registers.
//!
//! Gist tracks data flow "using hardware watchpoints present in modern
//! processors (e.g., x86 has 4 hardware watchpoints)" (§3.2.3). This crate
//! reproduces the mechanism:
//!
//! * [`WatchUnit`] holds **4 slots** (DR0–DR3 semantics). Arming a fifth
//!   address fails with [`WatchError::NoFreeSlot`] — the scarcity that
//!   forces Gist's cooperative partitioning of addresses across runs.
//! * The unit observes the VM's memory events; a matching access produces a
//!   [`WatchHit`] carrying the global sequence number, so the hit log is a
//!   **total order across threads and cores** — the property Intel PT
//!   lacks and Gist needs for diagnosing concurrency bugs (§3.2.3, §6).
//! * `ptrace`-style operation counters let overhead models charge the cost
//!   of attach/detach and register writes (§4, §6).
//!
//! # Examples
//!
//! ```
//! use gist_watch::{WatchCondition, WatchUnit};
//!
//! let mut unit = WatchUnit::new();
//! let slot = unit.set(0x1000, 1, WatchCondition::ReadWrite).unwrap();
//! assert_eq!(slot, 0);
//! assert!(unit.is_watched(0x1000));
//! unit.clear(slot).unwrap();
//! assert!(!unit.is_watched(0x1000));
//! ```

use gist_ir::{InstrId, Value};
use gist_vm::{AccessKind, Event, Observer};

/// Number of hardware watchpoint slots (x86 DR0–DR3).
pub const NUM_SLOTS: usize = 4;

/// When a watchpoint fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchCondition {
    /// Fire on writes only (x86 R/W bits = 01).
    WriteOnly,
    /// Fire on reads and writes (x86 R/W bits = 11).
    ReadWrite,
}

impl WatchCondition {
    /// True if an access of `kind` triggers this condition.
    pub fn matches(self, kind: AccessKind) -> bool {
        match self {
            WatchCondition::WriteOnly => kind == AccessKind::Write,
            WatchCondition::ReadWrite => true,
        }
    }
}

/// An armed watchpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Watchpoint {
    /// Watched base address.
    pub addr: u64,
    /// Watched length in cells (x86 allows 1/2/4/8 bytes; we allow any
    /// positive cell count ≤ 8).
    pub len: u64,
    /// Trigger condition.
    pub condition: WatchCondition,
}

impl Watchpoint {
    /// True if an access at `addr` of kind `kind` triggers this watchpoint.
    pub fn triggers(&self, addr: u64, kind: AccessKind) -> bool {
        addr >= self.addr && addr < self.addr + self.len && self.condition.matches(kind)
    }
}

/// A recorded watchpoint trap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchHit {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Accessing thread.
    pub tid: u32,
    /// Virtual core.
    pub core: u32,
    /// The accessing statement (the "program counter" Gist logs, §4).
    pub iid: InstrId,
    /// The accessed address.
    pub addr: u64,
    /// The value read or written.
    pub value: Value,
    /// Read or write.
    pub kind: AccessKind,
    /// Which slot fired.
    pub slot: usize,
}

/// Errors from watchpoint management.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchError {
    /// All 4 slots are armed.
    NoFreeSlot,
    /// The slot index is out of range or empty.
    BadSlot,
    /// The address is already watched (the paper's active-set check).
    AlreadyWatched,
    /// Length must be 1..=8 cells.
    BadLength,
}

impl std::fmt::Display for WatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchError::NoFreeSlot => write!(f, "all {NUM_SLOTS} watchpoint slots in use"),
            WatchError::BadSlot => write!(f, "invalid or empty watchpoint slot"),
            WatchError::AlreadyWatched => write!(f, "address already watched"),
            WatchError::BadLength => write!(f, "watch length must be 1..=8"),
        }
    }
}

impl std::error::Error for WatchError {}

/// The debug-register file plus its hit log and cost counters.
#[derive(Clone, Debug, Default)]
pub struct WatchUnit {
    slots: [Option<Watchpoint>; NUM_SLOTS],
    hits: Vec<WatchHit>,
    /// Register writes performed (each is one ptrace `POKEUSER` analog).
    ptrace_ops: u64,
    /// Traps delivered.
    traps: u64,
    /// Accesses that were checked but did not trap.
    checked: u64,
}

impl WatchUnit {
    /// Creates a unit with all slots free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a watchpoint. Returns the slot used.
    ///
    /// Enforces the paper's active-set rule: arming an address that is
    /// already watched is rejected rather than wasting a second register.
    pub fn set(
        &mut self,
        addr: u64,
        len: u64,
        condition: WatchCondition,
    ) -> Result<usize, WatchError> {
        if len == 0 || len > 8 {
            return Err(WatchError::BadLength);
        }
        if self.is_watched(addr) {
            return Err(WatchError::AlreadyWatched);
        }
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => {
                gist_obs::counter!("watch.no_free_slot").inc();
                return Err(WatchError::NoFreeSlot);
            }
        };
        self.slots[slot] = Some(Watchpoint {
            addr,
            len,
            condition,
        });
        self.ptrace_ops += 1;
        gist_obs::counter!("watch.armed").inc();
        gist_obs::event!(WatchArmed {
            addr,
            slot: slot as u64,
        });
        Ok(slot)
    }

    /// Clears a slot.
    pub fn clear(&mut self, slot: usize) -> Result<(), WatchError> {
        match self.slots.get_mut(slot) {
            Some(s @ Some(_)) => {
                *s = None;
                self.ptrace_ops += 1;
                Ok(())
            }
            _ => Err(WatchError::BadSlot),
        }
    }

    /// Clears whichever slot watches `addr`, if any.
    pub fn clear_addr(&mut self, addr: u64) -> bool {
        for s in &mut self.slots {
            if let Some(w) = s {
                if w.addr == addr {
                    *s = None;
                    self.ptrace_ops += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Clears all slots.
    pub fn clear_all(&mut self) {
        for s in &mut self.slots {
            if s.is_some() {
                *s = None;
                self.ptrace_ops += 1;
            }
        }
    }

    /// Returns the unit to the state [`WatchUnit::new`] builds: every slot
    /// free, and the hit log and counters empty. Unlike
    /// [`WatchUnit::clear_all`], it models a new run on the same hardware,
    /// so it counts no register writes.
    pub fn reset(&mut self) {
        self.slots = [None; NUM_SLOTS];
        self.hits.clear();
        self.ptrace_ops = 0;
        self.traps = 0;
        self.checked = 0;
    }

    /// True if some slot's base address is exactly `addr` (active-set check).
    pub fn is_watched(&self, addr: u64) -> bool {
        self.slots.iter().flatten().any(|w| w.addr == addr)
    }

    /// Number of free slots.
    pub fn free_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// The currently armed watchpoints.
    pub fn armed(&self) -> Vec<(usize, Watchpoint)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|w| (i, w)))
            .collect()
    }

    /// The hit log, in global order.
    pub fn hits(&self) -> &[WatchHit] {
        &self.hits
    }

    /// Drains the hit log.
    pub fn take_hits(&mut self) -> Vec<WatchHit> {
        std::mem::take(&mut self.hits)
    }

    /// Traps delivered so far.
    pub fn traps(&self) -> u64 {
        self.traps
    }

    /// ptrace-style register operations performed.
    pub fn ptrace_ops(&self) -> u64 {
        self.ptrace_ops
    }

    /// Memory accesses checked (hit or miss).
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Feeds one memory access through the unit.
    #[inline]
    // The argument list mirrors the fields of a trap frame; bundling them
    // into a struct would only rename the problem.
    #[allow(clippy::too_many_arguments)]
    pub fn check_access(
        &mut self,
        seq: u64,
        tid: u32,
        core: u32,
        iid: InstrId,
        kind: AccessKind,
        addr: u64,
        value: Value,
    ) {
        self.checked += 1;
        if self.slots.iter().all(Option::is_none) {
            return;
        }
        for (slot, w) in self.slots.iter().enumerate() {
            if let Some(w) = w {
                if w.triggers(addr, kind) {
                    self.traps += 1;
                    gist_obs::counter!("watch.traps").inc();
                    self.hits.push(WatchHit {
                        seq,
                        tid,
                        core,
                        iid,
                        addr,
                        value,
                        kind,
                        slot,
                    });
                    // Real debug registers deliver one trap per access even
                    // if multiple registers match; first match wins.
                    break;
                }
            }
        }
    }
}

impl Observer for WatchUnit {
    fn on_event(&mut self, ev: &Event) {
        if let Event::Mem {
            seq,
            tid,
            core,
            iid,
            kind,
            addr,
            value,
            ..
        } = ev
        {
            self.check_access(*seq, *tid, *core, *iid, *kind, *addr, *value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_slots_then_exhausted() {
        let mut u = WatchUnit::new();
        for i in 0..NUM_SLOTS as u64 {
            u.set(0x1000 + i, 1, WatchCondition::ReadWrite).unwrap();
        }
        assert_eq!(u.free_slots(), 0);
        assert_eq!(
            u.set(0x2000, 1, WatchCondition::ReadWrite),
            Err(WatchError::NoFreeSlot)
        );
    }

    #[test]
    fn duplicate_address_rejected() {
        let mut u = WatchUnit::new();
        u.set(0x1000, 1, WatchCondition::ReadWrite).unwrap();
        assert_eq!(
            u.set(0x1000, 1, WatchCondition::WriteOnly),
            Err(WatchError::AlreadyWatched)
        );
    }

    #[test]
    fn clear_frees_slot_for_reuse() {
        let mut u = WatchUnit::new();
        let s = u.set(0x1000, 1, WatchCondition::ReadWrite).unwrap();
        u.clear(s).unwrap();
        assert_eq!(u.free_slots(), NUM_SLOTS);
        let s2 = u.set(0x3000, 1, WatchCondition::ReadWrite).unwrap();
        assert_eq!(s2, s, "freed slot is reused");
    }

    #[test]
    fn clear_addr_and_clear_all() {
        let mut u = WatchUnit::new();
        u.set(0x1, 1, WatchCondition::ReadWrite).unwrap();
        u.set(0x2, 1, WatchCondition::ReadWrite).unwrap();
        assert!(u.clear_addr(0x1));
        assert!(!u.clear_addr(0x99));
        u.clear_all();
        assert_eq!(u.free_slots(), NUM_SLOTS);
    }

    #[test]
    fn reset_restores_a_new_unit() {
        let mut u = WatchUnit::new();
        u.set(0x10, 1, WatchCondition::ReadWrite).unwrap();
        u.check_access(1, 0, 0, InstrId(0), AccessKind::Read, 0x10, 5);
        u.reset();
        assert_eq!(u.free_slots(), NUM_SLOTS);
        assert!(u.hits().is_empty());
        assert_eq!((u.ptrace_ops(), u.traps(), u.checked()), (0, 0, 0));
    }

    #[test]
    fn bad_length_rejected() {
        let mut u = WatchUnit::new();
        assert_eq!(
            u.set(0x1, 0, WatchCondition::ReadWrite),
            Err(WatchError::BadLength)
        );
        assert_eq!(
            u.set(0x1, 9, WatchCondition::ReadWrite),
            Err(WatchError::BadLength)
        );
    }

    #[test]
    fn write_only_ignores_reads() {
        let mut u = WatchUnit::new();
        u.set(0x10, 1, WatchCondition::WriteOnly).unwrap();
        u.check_access(1, 0, 0, InstrId(0), AccessKind::Read, 0x10, 5);
        assert!(u.hits().is_empty());
        u.check_access(2, 0, 0, InstrId(0), AccessKind::Write, 0x10, 6);
        assert_eq!(u.hits().len(), 1);
        assert_eq!(u.hits()[0].value, 6);
    }

    #[test]
    fn length_covers_a_range() {
        let mut u = WatchUnit::new();
        u.set(0x100, 4, WatchCondition::ReadWrite).unwrap();
        u.check_access(1, 0, 0, InstrId(0), AccessKind::Read, 0x103, 1);
        u.check_access(2, 0, 0, InstrId(0), AccessKind::Read, 0x104, 2);
        assert_eq!(u.hits().len(), 1, "0x104 is out of range");
    }

    #[test]
    fn hits_preserve_global_order() {
        let mut u = WatchUnit::new();
        u.set(0x10, 1, WatchCondition::ReadWrite).unwrap();
        // Accesses from different threads arrive in seq order.
        u.check_access(5, 1, 1, InstrId(10), AccessKind::Write, 0x10, 1);
        u.check_access(9, 0, 0, InstrId(20), AccessKind::Read, 0x10, 1);
        u.check_access(12, 1, 1, InstrId(10), AccessKind::Write, 0x10, 2);
        let seqs: Vec<u64> = u.hits().iter().map(|h| h.seq).collect();
        assert_eq!(seqs, vec![5, 9, 12]);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "total order");
    }

    #[test]
    fn observer_integration_with_vm() {
        use gist_ir::parser::parse_program;
        use gist_vm::{Vm, VmConfig};
        let p = parse_program(
            "t",
            r#"
global x = 0
fn main() {
entry:
  store $x, 1
  v = load $x
  store $x, 2
  ret
}
"#,
        )
        .unwrap();
        let mut unit = WatchUnit::new();
        // Globals start at 0x1000 in the VM's layout.
        unit.set(0x1000, 1, WatchCondition::ReadWrite).unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut unit]);
        let kinds: Vec<AccessKind> = unit.hits().iter().map(|h| h.kind).collect();
        assert_eq!(
            kinds,
            vec![AccessKind::Write, AccessKind::Read, AccessKind::Write]
        );
        let values: Vec<i64> = unit.hits().iter().map(|h| h.value).collect();
        assert_eq!(values, vec![1, 1, 2]);
    }

    #[test]
    fn ptrace_ops_counted() {
        let mut u = WatchUnit::new();
        let s = u.set(0x1, 1, WatchCondition::ReadWrite).unwrap();
        u.clear(s).unwrap();
        assert_eq!(u.ptrace_ops(), 2);
    }
}
