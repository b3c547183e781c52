//! Deterministic multithreaded interpreter for MiniC programs.
//!
//! This crate is the "production run" substrate of the failure-sketching
//! reproduction: where the paper's Gist observes real executions of Apache
//! or SQLite on real CPUs, we observe MiniC programs executing on this VM.
//!
//! The VM provides what Gist's runtime needs from an execution environment:
//!
//! * **threads** with a seeded, preemptive [`sched`]uler, so concurrency
//!   bugs manifest on some schedules and not others,
//! * **memory** with allocation-state tracking ([`mem`]), so segfaults,
//!   double frees, and use-after-frees are detected exactly where a real
//!   process would trap,
//! * an **event stream** ([`event::Event`]) carrying retired statements,
//!   branch outcomes (consumed by the Intel PT simulator), and memory
//!   accesses with values (consumed by the watchpoint unit), each stamped
//!   with a global sequence number and a virtual core, and delivered to an
//!   observer only where its hardware would raise it
//!   ([`event::DeliveryFilter`]),
//! * **failure reports** ([`failure::FailureReport`]) with stack traces and
//!   failure signatures, matching the paper's "coredump, stack trace" input
//!   to Gist (§3) and its failure-matching footnote (same program counter +
//!   stack trace).
//!
//! # Examples
//!
//! ```
//! use gist_ir::parser::parse_program;
//! use gist_vm::{Vm, VmConfig, RunOutcome};
//!
//! let p = parse_program("demo", r#"
//! fn main() {
//! entry:
//!   x = const 40
//!   y = add x, 2
//!   print y
//!   ret
//! }
//! "#).unwrap();
//! let mut vm = Vm::new(&p, VmConfig::default());
//! let out = vm.run(&mut []);
//! assert!(matches!(out.outcome, RunOutcome::Finished));
//! assert_eq!(out.output, vec![42]);
//! ```

pub mod compiled;
pub mod event;
pub mod failure;
pub mod mem;
pub mod sched;
pub mod thread;
#[cfg(feature = "treewalk")]
pub mod treewalk;
pub mod vm;

pub use compiled::CompiledProgram;
pub use event::{AccessKind, DeliveryFilter, Event, LiveFilter, Observer};
pub use failure::{FailureKind, FailureReport, StackFrame};
pub use mem::{MemScratch, Memory};
pub use sched::{
    AnyScheduler, FixedSchedule, RandomScheduler, RoundRobin, Scheduler, SchedulerKind,
};
#[cfg(feature = "treewalk")]
pub use treewalk::TreeWalkVm;
pub use vm::{Input, RunOutcome, RunResult, Vm, VmConfig, VmScratch};
