//! Monotonic atomic counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// Increments use [`Ordering::Relaxed`]: each addition is atomic and never
/// lost, but no ordering is implied relative to other metrics. Addition is
/// commutative, so totals are independent of thread interleaving — the
/// property the determinism contract relies on.
#[derive(Debug, Default)]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero, usable in `static` items.
    pub const fn new() -> Self {
        Counter {
            cell: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}
