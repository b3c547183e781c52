//! The calibration kernel: fixed CPU and memory work that shares no code
//! with the system under test.
//!
//! The benchmark runs on shared hosts whose speed drifts between and
//! within processes. Timing this kernel after every segment measures the
//! host's speed as the run goes, and scaling the run's timings by
//! [`REFERENCE_MS`] over the kernel's time cancels the drift that both
//! share. The kernel must stay independent of the workspace: a change to
//! the system under test must never change the yardstick it is measured
//! with (the smoke test checks that this file names no workspace crate).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Words the kernel fills, sorts and indexes per thread (1 MiB of `u64`).
const WORDS: usize = 128 * 1024;

/// Kernel repetitions per calibration; the median is reported.
const REPEATS: usize = 3;

/// The kernel's median time on the reference host (2 vCPU, one thread),
/// in milliseconds. Calibrated timings read as if measured on that host.
pub const REFERENCE_MS: f64 = 10.8;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One kernel pass: SplitMix64 fill, `sort_unstable`, then a `BTreeMap`
/// build keyed in a scrambled order. Returns a checksum so the work
/// cannot be optimized away.
fn kernel(seed: u64) -> u64 {
    let mut state = seed;
    let mut words: Vec<u64> = (0..WORDS).map(|_| splitmix64(&mut state)).collect();
    words.sort_unstable();
    let map: BTreeMap<u64, usize> = words
        .iter()
        .enumerate()
        .map(|(i, &w)| (w.rotate_left(29), i))
        .collect();
    map.iter()
        .step_by(4096)
        .fold(0u64, |acc, (&k, &v)| acc ^ k ^ v as u64)
}

/// Runs the kernel on `threads` threads at once, [`REPEATS`] times, and
/// returns the median wall time of one concurrent pass in milliseconds.
pub fn measure(threads: usize) -> f64 {
    let threads = threads.max(1);
    let mut times: Vec<f64> = (0..REPEATS)
        .map(|rep| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| s.spawn(move || black_box(kernel(black_box((rep * 64 + t) as u64)))))
                    .collect();
                for h in handles {
                    h.join().expect("calibration thread panicked");
                }
            });
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPEATS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_seed_dependent() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
    }

    #[test]
    fn measure_reports_a_positive_time() {
        let ms = measure(2);
        assert!(ms.is_finite() && ms > 0.0, "{ms}");
    }
}
