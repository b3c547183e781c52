//! Thread schedulers.
//!
//! Concurrency failures in the paper's evaluation manifest only under
//! particular interleavings. The VM therefore makes the schedule a
//! first-class, *seeded* input: the same `(program, inputs, schedule seed)`
//! triple always produces the identical execution, which is what lets the
//! cooperative fleet (gist-coop) explore many production schedules while
//! each individual run stays reproducible for tests.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Picks which runnable thread executes the next statement.
pub trait Scheduler {
    /// Chooses one entry of `runnable` (non-empty, sorted by tid).
    fn pick(&mut self, runnable: &[u32]) -> u32;
}

/// Round-robin with a fixed quantum of statements.
#[derive(Clone, Debug)]
pub struct RoundRobin {
    quantum: u64,
    current: Option<u32>,
    used: u64,
}

impl RoundRobin {
    /// Creates a round-robin scheduler with the given quantum (statements
    /// per turn).
    pub fn new(quantum: u64) -> Self {
        RoundRobin {
            quantum: quantum.max(1),
            current: None,
            used: 0,
        }
    }
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, runnable: &[u32]) -> u32 {
        if let Some(cur) = self.current {
            if self.used < self.quantum && runnable.contains(&cur) {
                self.used += 1;
                return cur;
            }
            // Rotate to the next runnable tid after `cur`.
            let next = runnable
                .iter()
                .copied()
                .find(|&t| t > cur)
                .unwrap_or(runnable[0]);
            self.current = Some(next);
            self.used = 1;
            return next;
        }
        self.current = Some(runnable[0]);
        self.used = 1;
        runnable[0]
    }
}

/// Uniformly random scheduling with a seed — the "production noise" model.
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: StdRng,
    /// Keep-or-preempt threshold on a draw's top 53 bits: the previous
    /// thread continues when `draw >> 11 >= keep_at`, which happens with
    /// probability `1 - preempt`.
    keep_at: u64,
    last: Option<u32>,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed with the default preemption
    /// probability (0.2).
    pub fn new(seed: u64) -> Self {
        Self::with_preempt(seed, 0.2)
    }

    /// Creates a random scheduler with an explicit preemption probability.
    ///
    /// A uniform `f64` draw is `(next_u64() >> 11) / 2^53` exactly, so
    /// `draw >= preempt` holds iff `next_u64() >> 11 >= ceil(preempt * 2^53)`
    /// (the product is exact: scaling by a power of two). A NaN preempt
    /// never compares true, so it never keeps the previous thread.
    pub fn with_preempt(seed: u64, preempt: f64) -> Self {
        let keep_at = if preempt.is_nan() {
            u64::MAX
        } else {
            (preempt.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
        };
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
            keep_at,
            last: None,
        }
    }
}

/// `x % n` for a non-zero `n`. Constant divisors for the thread counts
/// programs actually run let the compiler replace the 64-bit division
/// with a multiply.
#[inline]
fn reduce(x: u64, n: usize) -> usize {
    (match n {
        1 => 0,
        2 => x % 2,
        3 => x % 3,
        4 => x % 4,
        5 => x % 5,
        6 => x % 6,
        7 => x % 7,
        8 => x % 8,
        _ => x % n as u64,
    }) as usize
}

impl Scheduler for RandomScheduler {
    #[inline]
    fn pick(&mut self, runnable: &[u32]) -> u32 {
        if let [only] = *runnable {
            // A forced pick: both outcomes of the keep draw pick `only`,
            // so consume the draws the general path below would without
            // branching on their values. The keep draw is a coin flip at
            // the preemption rates the bugbase runs, and a branch on it
            // is mispredicted about half the time.
            if self.last == Some(only) {
                let keep = (self.rng.next_u64() >> 11) >= self.keep_at;
                self.rng.advance(u64::from(!keep));
            } else {
                self.rng.advance(1);
                self.last = Some(only);
            }
            return only;
        }
        if let Some(last) = self.last {
            if runnable.contains(&last) && (self.rng.next_u64() >> 11) >= self.keep_at {
                return last;
            }
        }
        let choice = runnable[reduce(self.rng.next_u64(), runnable.len())];
        self.last = Some(choice);
        choice
    }
}

/// Replays an explicit schedule: a list of tids, consumed one per step.
/// When the list is exhausted (or the scheduled tid is not runnable),
/// falls back to the lowest runnable tid. Used by tests to force the
/// exact interleavings of the paper's figures.
#[derive(Clone, Debug)]
pub struct FixedSchedule {
    script: Vec<u32>,
    pos: usize,
}

impl FixedSchedule {
    /// Creates a fixed schedule from a script of tids.
    pub fn new(script: Vec<u32>) -> Self {
        FixedSchedule { script, pos: 0 }
    }
}

impl Scheduler for FixedSchedule {
    fn pick(&mut self, runnable: &[u32]) -> u32 {
        while self.pos < self.script.len() {
            let want = self.script[self.pos];
            self.pos += 1;
            if runnable.contains(&want) {
                return want;
            }
        }
        runnable[0]
    }
}

/// A serializable description of a scheduler, so run configurations can be
/// shipped between Gist's server and clients.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedulerKind {
    /// [`RoundRobin`] with the given quantum.
    RoundRobin {
        /// Statements per turn.
        quantum: u64,
    },
    /// [`RandomScheduler`] with seed and preemption probability.
    Random {
        /// RNG seed.
        seed: u64,
        /// Preemption probability per step.
        preempt: f64,
    },
    /// [`FixedSchedule`] with an explicit script.
    Fixed {
        /// The tid script.
        script: Vec<u32>,
    },
}

impl SchedulerKind {
    /// Instantiates the scheduler.
    pub fn build(&self) -> AnyScheduler {
        match self {
            SchedulerKind::RoundRobin { quantum } => {
                AnyScheduler::RoundRobin(RoundRobin::new(*quantum))
            }
            SchedulerKind::Random { seed, preempt } => {
                AnyScheduler::Random(RandomScheduler::with_preempt(*seed, *preempt))
            }
            SchedulerKind::Fixed { script } => {
                AnyScheduler::Fixed(FixedSchedule::new(script.clone()))
            }
        }
    }
}

/// A built [`SchedulerKind`], dispatched statically: the VM picks once per
/// step, so the pick must inline into its loop rather than go through a
/// vtable.
#[derive(Clone, Debug)]
pub enum AnyScheduler {
    /// A [`RoundRobin`].
    RoundRobin(RoundRobin),
    /// A [`RandomScheduler`].
    Random(RandomScheduler),
    /// A [`FixedSchedule`].
    Fixed(FixedSchedule),
}

impl Scheduler for AnyScheduler {
    #[inline]
    fn pick(&mut self, runnable: &[u32]) -> u32 {
        match self {
            AnyScheduler::RoundRobin(s) => s.pick(runnable),
            AnyScheduler::Random(s) => s.pick(runnable),
            AnyScheduler::Fixed(s) => s.pick(runnable),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_after_quantum() {
        let mut rr = RoundRobin::new(2);
        let runnable = vec![0, 1, 2];
        let picks: Vec<u32> = (0..8).map(|_| rr.pick(&runnable)).collect();
        assert_eq!(picks, vec![0, 0, 1, 1, 2, 2, 0, 0]);
    }

    #[test]
    fn round_robin_skips_non_runnable() {
        let mut rr = RoundRobin::new(1);
        assert_eq!(rr.pick(&[0, 1]), 0);
        // Thread 1 no longer runnable: wraps back to 0.
        assert_eq!(rr.pick(&[0]), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let runnable = vec![0, 1, 2, 3];
        let picks = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..64).map(|_| s.pick(&runnable)).collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8), "different seeds should differ");
    }

    #[test]
    fn random_respects_runnable_set() {
        let mut s = RandomScheduler::new(3);
        for _ in 0..100 {
            let pick = s.pick(&[2, 5]);
            assert!(pick == 2 || pick == 5);
        }
    }

    #[test]
    fn fixed_schedule_replays_script() {
        let mut s = FixedSchedule::new(vec![1, 1, 0, 1]);
        let runnable = vec![0, 1];
        assert_eq!(s.pick(&runnable), 1);
        assert_eq!(s.pick(&runnable), 1);
        assert_eq!(s.pick(&runnable), 0);
        assert_eq!(s.pick(&runnable), 1);
        // Script exhausted: lowest runnable.
        assert_eq!(s.pick(&runnable), 0);
    }

    #[test]
    fn fixed_schedule_skips_blocked_entries() {
        let mut s = FixedSchedule::new(vec![3, 1]);
        // 3 is not runnable; falls through to 1.
        assert_eq!(s.pick(&[0, 1]), 1);
    }

    #[test]
    fn scheduler_kind_builds_equivalent_scheduler() {
        let cases: [(SchedulerKind, Box<dyn Scheduler>); 3] = [
            (
                SchedulerKind::RoundRobin { quantum: 3 },
                Box::new(RoundRobin::new(3)),
            ),
            (
                SchedulerKind::Random {
                    seed: 11,
                    preempt: 0.5,
                },
                Box::new(RandomScheduler::with_preempt(11, 0.5)),
            ),
            (
                SchedulerKind::Fixed {
                    script: vec![2, 2, 0, 1, 7, 1],
                },
                Box::new(FixedSchedule::new(vec![2, 2, 0, 1, 7, 1])),
            ),
        ];
        let runnable = vec![0, 1, 2];
        for (kind, mut expected) in cases {
            let mut built = kind.build();
            for i in 0..32 {
                assert_eq!(
                    built.pick(&runnable),
                    expected.pick(&runnable),
                    "{kind:?} pick {i}"
                );
            }
        }
    }

    /// The pick formula before the integer threshold: a float draw
    /// against `preempt`, then `gen_range` for the thread index.
    fn float_formula_pick(
        rng: &mut StdRng,
        preempt: f64,
        last: &mut Option<u32>,
        runnable: &[u32],
    ) -> u32 {
        use rand::Rng;
        let preempt = preempt.clamp(0.0, 1.0);
        if let Some(l) = *last {
            if runnable.contains(&l) && rng.gen::<f64>() >= preempt {
                return l;
            }
        }
        let choice = runnable[rng.gen_range(0..runnable.len())];
        *last = Some(choice);
        choice
    }

    #[test]
    fn random_pick_matches_float_formula_draw_for_draw() {
        for n in 1..=8u32 {
            let all: Vec<u32> = (0..n).collect();
            for preempt in [0.0, 0.1, 0.5, 0.55, 0.65, 1.0, f64::NAN] {
                for seed in [0, 1, 7, 0xdead_beef] {
                    let mut fast = RandomScheduler::with_preempt(seed, preempt);
                    let mut rng = fast.rng.clone();
                    let mut last = None;
                    for i in 0..10_000u64 {
                        // Drop one thread now and then, so the keep branch
                        // also meets a `last` that is not runnable.
                        let skip = (i % 7 == 3 && n > 1).then_some((i % n as u64) as u32);
                        let runnable: Vec<u32> =
                            all.iter().copied().filter(|&t| Some(t) != skip).collect();
                        let want = float_formula_pick(&mut rng, preempt, &mut last, &runnable);
                        assert_eq!(
                            fast.pick(&runnable),
                            want,
                            "n {n} preempt {preempt} seed {seed} pick {i}"
                        );
                        assert_eq!(
                            fast.rng.clone().next_u64(),
                            rng.clone().next_u64(),
                            "n {n} preempt {preempt} seed {seed}: draw count diverged at pick {i}"
                        );
                    }
                }
            }
        }
    }
}
