//! Threads and call frames of the compiled engine.

use gist_ir::{FuncId, InstrId, Value};

/// Why a thread cannot currently run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockReason {
    /// Waiting to acquire the mutex at this address.
    Mutex(u64),
    /// Waiting for this thread to exit.
    Join(u32),
}

/// Scheduling state of a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadState {
    /// Can be scheduled.
    Runnable,
    /// Blocked on a mutex or join.
    Blocked(BlockReason),
    /// Exited.
    Finished,
}

/// One activation record.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The function.
    pub func: FuncId,
    /// Index of the next instruction in the program's code array
    /// (see `gist_vm::compiled`).
    pub pc: u32,
    /// Register file; a register never written reads as 0.
    pub vars: Vec<Value>,
    /// The caller's register that receives the return value, if any.
    pub ret_dst: Option<u32>,
    /// The callsite statement in the caller (for stack traces).
    pub callsite: Option<InstrId>,
    /// True once the address-computation step of the upcoming memory
    /// access has executed (two-phase accesses; see
    /// [`crate::event::Event::PreAccess`]).
    pub pre_access_done: bool,
}

impl Frame {
    /// Creates a frame for `func`, entered at `pc`, with `nvars`
    /// registers, binding `args` to the first registers.
    pub fn new(func: FuncId, pc: u32, nvars: usize, args: &[Value]) -> Frame {
        let mut vars = vec![0; nvars];
        vars[..args.len()].copy_from_slice(args);
        Frame {
            func,
            pc,
            vars,
            ret_dst: None,
            callsite: None,
            pre_access_done: false,
        }
    }
}

/// A VM thread. The running frame is held inline; the suspended callers
/// wait in a stack beside it.
#[derive(Clone, Debug)]
pub struct Thread {
    /// Thread id (0 = main).
    pub tid: u32,
    /// Virtual core the thread is pinned to.
    pub core: u32,
    /// The running (innermost) frame.
    pub top: Frame,
    /// Suspended callers, outermost first.
    pub callers: Vec<Frame>,
    /// Scheduling state.
    pub state: ThreadState,
}

impl Thread {
    /// Creates a thread whose outermost frame runs `func(args)` from `pc`.
    pub fn new(tid: u32, core: u32, func: FuncId, pc: u32, nvars: usize, args: &[Value]) -> Thread {
        Thread {
            tid,
            core,
            top: Frame::new(func, pc, nvars, args),
            callers: Vec::new(),
            state: ThreadState::Runnable,
        }
    }

    /// True if the thread can be scheduled.
    pub fn is_runnable(&self) -> bool {
        self.state == ThreadState::Runnable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_binds_args_to_leading_vars() {
        let f = Frame::new(FuncId(0), 0, 4, &[10, 20]);
        assert_eq!(f.vars, vec![10, 20, 0, 0]);
    }

    #[test]
    fn thread_starts_runnable_with_one_frame() {
        let t = Thread::new(1, 0, FuncId(2), 7, 3, &[5]);
        assert!(t.is_runnable());
        assert!(t.callers.is_empty());
        assert_eq!(t.top.func, FuncId(2));
        assert_eq!(t.top.pc, 7);
    }

    #[test]
    fn blocked_thread_is_not_runnable() {
        let mut t = Thread::new(1, 0, FuncId(0), 0, 0, &[]);
        t.state = ThreadState::Blocked(BlockReason::Mutex(0x10));
        assert!(!t.is_runnable());
        t.state = ThreadState::Finished;
        assert!(!t.is_runnable());
    }
}
