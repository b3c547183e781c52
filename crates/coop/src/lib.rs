//! The cooperative setting of the paper (§3, §5): "multiple instances of
//! the same software execute in a data center or in multiple users'
//! machines. Gist's server side performs offline analysis and distributes
//! instrumentation to its client side."
//!
//! The paper's own evaluation *simulates* this fleet (1,136 simulated user
//! endpoints) because Broadwell parts with Intel PT were scarce in 2015;
//! we do the same:
//!
//! * [`fleet::SimulatedFleet`] — N endpoints, each with its own workload
//!   seed stream; runs execute on the MiniC VM under the shipped
//!   [`gist_tracking::InstrumentationPatch`]. Batches of runs can execute
//!   on a persistent pool of OS worker threads fed over `std::sync::mpsc`
//!   channels — per-run determinism is preserved because seeds are
//!   assigned before dispatch.
//! * [`evaluate`] — the per-bug evaluation harness: seeds a diagnosis with
//!   the first failure report, drives [`gist_core::GistServer`] against
//!   the fleet until the sketch contains the bug's root cause, and scores
//!   the result against the hand-built ideal sketch (§5.2). Every row of
//!   Table 1 and every bar of Figs. 9/10/12 comes from this harness.

pub mod evaluate;
pub mod fleet;
pub mod synth_eval;

pub use evaluate::{diagnose_bug, BugEvaluation, EvalConfig};
pub use fleet::{FleetConfig, FleetStats, SimulatedFleet, WorkerStats};
pub use synth_eval::{diagnose_synth, SynthEvaluation};
