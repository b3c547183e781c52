//! The repository benchmark: four workloads that together cover Gist's
//! client path, server loop and static analyses, each measured end to
//! end with tracing off and then layer by layer in a separate traced
//! pass.
//!
//! Timings are taken in segments of fixed work and scaled by a
//! [`calibration`] kernel timed after every segment; end-to-end values
//! are medians over segments (throughput) or percentiles over requests
//! (latency). Every measurement is taken from outside, through the
//! workspace's public functions. See `README.md` for the workloads, the
//! metrics and how to compare two commits.

pub mod calibration;
pub mod compare;
pub mod json;
mod layers;
pub mod metrics;
mod run;
mod workloads;

pub use run::{run, Budget, Outcome};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 11 bugs through `diagnose_bug`.
    Bugbase,
    /// Seeded synthetic bugs through `diagnose_synth`.
    Synth,
    /// Tracked pbzip2-1 runs through the fleet's `next_run`.
    Fleet,
    /// Lints and predicted sketches over 240 programs.
    Analyze,
}

impl Workload {
    /// Every workload, in the order a full run measures them.
    pub const ALL: [Workload; 4] = [
        Workload::Bugbase,
        Workload::Synth,
        Workload::Fleet,
        Workload::Analyze,
    ];

    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bugbase => "bugbase",
            Workload::Synth => "synth",
            Workload::Fleet => "fleet",
            Workload::Analyze => "analyze",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}
