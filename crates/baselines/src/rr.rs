//! A record/replay system (the Mozilla rr stand-in of Fig. 13).
//!
//! Recording captures (a) every scheduling decision — the source of
//! nondeterminism in the VM — and (b) the full architectural event stream.
//! Replay re-executes the program under the recorded schedule and verifies
//! the event streams are identical, which is the correctness property a
//! record/replay debugger provides ("record executions and allow
//! developers to replay the failing ones", §1).
//!
//! The cost asymmetry against Intel PT is structural: rr must persist
//! *everything* (schedule + data values) while PT writes a fraction of a
//! bit per instruction of control flow — that asymmetry, not absolute
//! numbers, is what Fig. 13 shows.

use gist_ir::Program;
use gist_vm::event::EventLog;
use gist_vm::{Event, RunResult, Scheduler, Vm, VmConfig};

/// A scheduler wrapper that records every pick.
struct RecordingScheduler<S> {
    inner: S,
    picks: Vec<u32>,
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn pick(&mut self, runnable: &[u32]) -> u32 {
        let p = self.inner.pick(runnable);
        self.picks.push(p);
        p
    }
}

/// A replay scheduler: consumes recorded picks verbatim.
struct ReplayScheduler {
    picks: Vec<u32>,
    pos: usize,
    /// True if a pick ever diverged from the recording.
    diverged: bool,
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, runnable: &[u32]) -> u32 {
        if let Some(&want) = self.picks.get(self.pos) {
            self.pos += 1;
            if runnable.contains(&want) {
                return want;
            }
            self.diverged = true;
        } else {
            self.diverged = true;
        }
        runnable[0]
    }
}

/// One recorded execution.
pub struct RecordedRun {
    /// The recorded scheduling decisions.
    pub schedule: Vec<u32>,
    /// The recorded event stream.
    pub events: Vec<Event>,
    /// The run's result.
    pub result: RunResult,
}

impl RecordedRun {
    /// Size of the recording in bytes (serialized events + schedule),
    /// the quantity compared against PT trace bytes in Fig. 13.
    ///
    /// Events are costed at their text-serialized size (one line per
    /// event), which is how rr-style tools persist annotated event logs.
    pub fn log_bytes(&self) -> usize {
        let ev: usize = self.events.iter().map(|e| format!("{e:?}").len() + 1).sum();
        ev + self.schedule.len() * std::mem::size_of::<u32>()
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> u64 {
        self.events.len() as u64
    }
}

/// The recorder.
pub struct Recorder;

impl Recorder {
    /// Records one run of `program` under `config`.
    pub fn record(program: &Program, config: VmConfig) -> RecordedRun {
        let mut sched = RecordingScheduler {
            inner: config.scheduler.build(),
            picks: Vec::new(),
        };
        let mut log = EventLog::default();
        let mut vm = Vm::new(program, config);
        let result = vm.run_with(&mut sched, &mut [&mut log]);
        RecordedRun {
            schedule: sched.picks,
            events: log.events,
            result,
        }
    }

    /// Replays a recording; returns `true` if the replayed event stream is
    /// identical to the recorded one (deterministic replay achieved).
    pub fn replay(program: &Program, config: VmConfig, recording: &RecordedRun) -> bool {
        let mut sched = ReplayScheduler {
            picks: recording.schedule.clone(),
            pos: 0,
            diverged: false,
        };
        let mut log = EventLog::default();
        let mut vm = Vm::new(program, config);
        let result = vm.run_with(&mut sched, &mut [&mut log]);
        !sched.diverged
            && log.events == recording.events
            && result.outcome == recording.result.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_bugbase::bug_by_name;
    use gist_vm::RunOutcome;

    #[test]
    fn record_then_replay_is_identical() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        for seed in 0..12 {
            let cfg = bug.vm_config(seed);
            let rec = Recorder::record(&bug.program, cfg.clone());
            assert!(
                Recorder::replay(&bug.program, cfg, &rec),
                "seed {seed} replay diverged"
            );
        }
    }

    #[test]
    fn replay_reproduces_failures() {
        let bug = bug_by_name("memcached-127").unwrap();
        let (seed, _) = bug.find_failure(300).expect("manifests");
        let cfg = bug.vm_config(seed);
        let rec = Recorder::record(&bug.program, cfg.clone());
        assert!(matches!(rec.result.outcome, RunOutcome::Failed(_)));
        assert!(Recorder::replay(&bug.program, cfg, &rec));
    }

    #[test]
    fn tampered_schedule_fails_verification() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let cfg = bug.vm_config(1);
        let mut rec = Recorder::record(&bug.program, cfg.clone());
        if rec.schedule.len() > 4 {
            rec.schedule.truncate(2);
        }
        // With the schedule cut short the replay falls back to default
        // picks; the event streams almost surely diverge — and the
        // verifier must say so rather than claim success.
        let ok = Recorder::replay(&bug.program, cfg, &rec);
        assert!(!ok, "verification must detect a broken recording");
    }

    #[test]
    fn log_volume_dwarfs_pt_traces() {
        use gist_pt::{PtConfig, PtDriver, PtTracer};
        let bug = bug_by_name("curl-965").unwrap();
        let cfg = bug.vm_config(1);
        let rec = Recorder::record(&bug.program, cfg.clone());
        let mut tracer = PtTracer::new(&bug.program, PtDriver::always_on(), PtConfig::default());
        let mut vm = Vm::new(&bug.program, cfg);
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        let pt_bytes = tracer.total_bytes();
        assert!(
            rec.log_bytes() > pt_bytes * 10,
            "rr log ({}) should dwarf PT trace ({})",
            rec.log_bytes(),
            pt_bytes
        );
    }
}
