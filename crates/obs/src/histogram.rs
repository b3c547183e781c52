//! Log₂-bucketed histograms.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::snapshot::HistogramSnapshot;

/// Number of buckets. Bucket 0 holds the value 0; bucket `i` (1..=64) holds
/// values in `[2^(i-1), 2^i)`, so the full `u64` range is covered.
pub const NUM_BUCKETS: usize = 65;

/// Index of the bucket `v` falls into.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A log₂-bucketed histogram of `u64` samples with count, sum and max.
///
/// All fields are relaxed atomics; recording is lock-free and commutative,
/// so contents under fixed seeds are thread-interleaving independent.
/// Snapshots are expected to be taken quiescently (no concurrent writers) —
/// a racing snapshot may see a sample in `count` but not yet in `sum`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A copy of the current contents, read like [`Histogram::snapshot`].
impl Clone for Histogram {
    fn clone(&self) -> Self {
        let copy = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        Histogram {
            buckets: std::array::from_fn(|i| copy(&self.buckets[i])),
            count: copy(&self.count),
            sum: copy(&self.sum),
            max: copy(&self.max),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram, usable in `static` items.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies the current contents out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_floor(i), n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}
