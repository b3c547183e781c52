//! Gist — the failure-sketching engine (SOSP'15).
//!
//! This crate wires the substrates together into the pipeline of the
//! paper's Fig. 2:
//!
//! 1. a [`gist_vm::FailureReport`] arrives from production ①,
//! 2. the server computes a static backward slice ([`gist_slicing`]),
//! 3. **Adaptive Slice Tracking** ([`ast`]) picks a σ-statement portion
//!    (σ = 2 initially, doubling per iteration, §3.2.1), the planner
//!    ([`gist_tracking`]) turns it into an
//!    [`gist_tracking::InstrumentationPatch`], and the patch ships to
//!    production runs ②,
//! 4. runs come back with decoded Intel PT control flow and ordered
//!    watchpoint hits; [`refine`] intersects the slice with what executed
//!    and adds watchpoint-discovered statements ③,
//! 5. failing and successful runs feed the statistical predictor ranking
//!    ([`gist_predictors`]) ④,
//! 6. the sketch [`engine`] assembles the failure sketch ⑤ — per-thread
//!    columns, time steps, best predictors highlighted.
//!
//! The production fleet is abstracted by the [`client::Fleet`] trait so the
//! same server drives the simulated data center of `gist-coop`, the
//! in-process test fleets in this crate, and the benchmark harness.

pub mod ast;
pub mod client;
pub mod engine;
pub mod eval;
pub mod refine;
pub mod server;

pub use ast::AstController;
pub use client::{ClientRunData, Fleet};
pub use engine::SketchBuilder;
pub use eval::{diagnose_until, CoverageTarget};
pub use refine::Refinement;
pub use server::{DiagnosisResult, GistConfig, GistServer};
