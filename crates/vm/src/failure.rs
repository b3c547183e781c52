//! Failure kinds, reports, and signatures.

use gist_ir::{FuncId, InstrId, Program, SrcLoc};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The kind of a detected failure.
///
/// Gist "can understand common failures, such as crashes, assertion
/// violations, and hangs" (§3.3); these are the crash classes our VM traps.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Dereference of NULL or an unmapped address.
    SegFault {
        /// The faulting address.
        addr: u64,
    },
    /// Access to freed heap memory.
    UseAfterFree {
        /// The faulting address.
        addr: u64,
    },
    /// `free` of an already-freed allocation.
    DoubleFree {
        /// The allocation base.
        addr: u64,
    },
    /// `free` of an address that is not an allocation base.
    InvalidFree {
        /// The bogus address.
        addr: u64,
    },
    /// An `assert` whose condition evaluated to zero.
    AssertFail {
        /// The assertion message.
        msg: String,
    },
    /// Division or remainder by zero.
    DivByZero,
    /// All live threads are blocked.
    Deadlock,
    /// The step budget was exhausted (likely livelock/hang).
    Hang,
    /// An `unreachable` terminator was executed.
    UnreachableExecuted,
    /// `unlock` of a mutex the thread does not hold.
    UnlockNotHeld {
        /// The mutex cell address.
        addr: u64,
    },
}

impl FailureKind {
    /// A short stable label (used in sketch headers, e.g. the paper's
    /// "Type: Concurrency bug, segmentation fault").
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::SegFault { .. } => "segmentation fault",
            FailureKind::UseAfterFree { .. } => "use after free",
            FailureKind::DoubleFree { .. } => "double free",
            FailureKind::InvalidFree { .. } => "invalid free",
            FailureKind::AssertFail { .. } => "assertion failure",
            FailureKind::DivByZero => "division by zero",
            FailureKind::Deadlock => "deadlock",
            FailureKind::Hang => "hang",
            FailureKind::UnreachableExecuted => "unreachable executed",
            FailureKind::UnlockNotHeld { .. } => "unlock of unheld mutex",
        }
    }

    /// The per-kind failure counter (`vm.failures.*` namespace), interned
    /// at its call site, so counting a failed run takes no registry lock.
    pub fn counter(&self) -> &'static gist_obs::Counter {
        match self {
            FailureKind::SegFault { .. } => gist_obs::counter!("vm.failures.segfault"),
            FailureKind::UseAfterFree { .. } => gist_obs::counter!("vm.failures.use_after_free"),
            FailureKind::DoubleFree { .. } => gist_obs::counter!("vm.failures.double_free"),
            FailureKind::InvalidFree { .. } => gist_obs::counter!("vm.failures.invalid_free"),
            FailureKind::AssertFail { .. } => gist_obs::counter!("vm.failures.assert_fail"),
            FailureKind::DivByZero => gist_obs::counter!("vm.failures.div_by_zero"),
            FailureKind::Deadlock => gist_obs::counter!("vm.failures.deadlock"),
            FailureKind::Hang => gist_obs::counter!("vm.failures.hang"),
            FailureKind::UnreachableExecuted => gist_obs::counter!("vm.failures.unreachable"),
            FailureKind::UnlockNotHeld { .. } => gist_obs::counter!("vm.failures.unlock_not_held"),
        }
    }
}

/// One frame of a failure stack trace.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StackFrame {
    /// The function.
    pub func: FuncId,
    /// The statement being executed (or the callsite, for outer frames).
    pub iid: InstrId,
}

/// What Gist receives when a failure occurs in production: the analog of
/// the paper's "failure report (e.g., coredump, stack trace)" (§3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureReport {
    /// Program name.
    pub program: String,
    /// What went wrong.
    pub kind: FailureKind,
    /// The statement where the failure manifested (the slicing criterion).
    pub failing_stmt: InstrId,
    /// The failing thread.
    pub tid: u32,
    /// Stack trace of the failing thread, innermost frame first.
    pub stack: Vec<StackFrame>,
    /// Source location of the failing statement, if known.
    pub loc: Option<SrcLoc>,
}

impl FailureReport {
    /// A stable signature identifying "the same failure" across runs.
    ///
    /// The paper matches failures across production runs by "the program
    /// counters and stack traces of those executions" (§3, footnote 1); we
    /// hash exactly those (plus the failure class, so e.g. a hang and a
    /// segfault at the same statement are distinct failures).
    pub fn signature(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.program.hash(&mut h);
        std::mem::discriminant(&self.kind).hash(&mut h);
        self.failing_stmt.hash(&mut h);
        for f in &self.stack {
            f.func.hash(&mut h);
        }
        h.finish()
    }

    /// Human-readable one-line summary.
    pub fn summary(&self, program: &Program) -> String {
        let loc = self
            .loc
            .map(|l| program.source_map.display(l))
            .unwrap_or_else(|| "<unknown>".to_owned());
        let stack: Vec<&str> = self
            .stack
            .iter()
            .map(|f| program.function(f.func).name.as_str())
            .collect();
        format!(
            "{} at {} ({}) in thread {}: [{}]",
            self.kind.label(),
            self.failing_stmt,
            loc,
            self.tid,
            stack.join(" <- ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(stmt: u32, kind: FailureKind) -> FailureReport {
        FailureReport {
            program: "p".into(),
            kind,
            failing_stmt: InstrId(stmt),
            tid: 1,
            stack: vec![StackFrame {
                func: FuncId(0),
                iid: InstrId(stmt),
            }],
            loc: None,
        }
    }

    #[test]
    fn same_failure_same_signature() {
        let a = report(5, FailureKind::SegFault { addr: 0 });
        let b = report(5, FailureKind::SegFault { addr: 0x10 });
        // Same stmt/class/stack: same failure even if the faulting address
        // differs run to run (heap layout noise).
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn different_stmt_different_signature() {
        let a = report(5, FailureKind::SegFault { addr: 0 });
        let b = report(6, FailureKind::SegFault { addr: 0 });
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn different_kind_different_signature() {
        let a = report(5, FailureKind::SegFault { addr: 0 });
        let b = report(5, FailureKind::Deadlock);
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            FailureKind::AssertFail { msg: "x".into() }.label(),
            "assertion failure"
        );
        assert_eq!(FailureKind::DoubleFree { addr: 1 }.label(), "double free");
    }
}
