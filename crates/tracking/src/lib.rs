//! Instrumentation planning and runtime tracking (paper §3.2.2–§3.2.3).
//!
//! Gist "statically determines the locations where control flow tracking
//! should start and stop at runtime" and inserts "a small amount of
//! instrumentation ... mainly to start/stop Intel PT tracking and place a
//! hardware watchpoint" (§4). This crate has both halves:
//!
//! * [`plan::Planner`] — given the σ-prefix of a static slice, computes
//!   **PT start points** (each predecessor block of a tracked statement's
//!   block; callsites for entry blocks), **PT stop points** (after a
//!   tracked statement that does not strictly dominate the next one,
//!   before its immediate postdominator), applying the paper's `sdom`
//!   optimization, and **watchpoint placements** (before each shared
//!   memory access, after its immediate dominator), partitioned
//!   cooperatively when more than 4 addresses are needed.
//! * [`patch::InstrumentationPatch`] — the serializable artifact shipped
//!   to production runs (the `bsdiff` patch analog of §4), with size
//!   accounting.
//! * [`runtime::TrackerRuntime`] — the client-side observer that executes
//!   a patch during a VM run: toggles the PT driver at start/stop points,
//!   arms hardware watchpoints at access sites (respecting the 4-slot
//!   budget and the active-set rule), and collects the run's trace:
//!   decoded control flow, ordered watchpoint hits, and the statements
//!   *discovered* by watchpoints that static slicing missed.

pub mod patch;
pub mod plan;
pub mod runtime;

pub use patch::InstrumentationPatch;
pub use plan::Planner;
pub use runtime::{PreparedPatch, RunTrace, TrackerRuntime};
