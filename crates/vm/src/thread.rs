//! Threads and call frames.

use gist_ir::{BlockId, FuncId, InstrId, Value, VarId};

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
///
/// The frame carries *two* program counters: `pc` indexes the function's
/// flat compiled instruction stream (the engine [`crate::Vm`] dispatches
/// over), while `block`/`index` address the IR tree (used by the legacy
/// tree-walk engine kept for differential testing). Each engine maintains
/// only its own counter.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The function.
    pub func: FuncId,
    /// Index of the next instruction in the compiled stream
    /// (see `gist_vm::compiled`).
    pub pc: usize,
    /// Current block.
    pub block: BlockId,
    /// Index of the next statement within the block
    /// (`== instrs.len()` means the terminator is next).
    pub index: usize,
    /// Register file; a register never written reads as 0.
    pub vars: Vec<Value>,
    /// Where the return value goes in the caller, if anywhere.
    pub ret_dst: Option<VarId>,
    /// The callsite statement in the caller (for stack traces).
    pub callsite: Option<InstrId>,
    /// True once the address-computation step of the upcoming memory
    /// access has executed (two-phase accesses; see
    /// [`crate::event::Event::PreAccess`]).
    pub pre_access_done: bool,
}

impl Frame {
    /// Creates a frame for `func` with `nvars` registers, binding `args`
    /// to the first registers.
    pub fn new(func: FuncId, nvars: usize, args: &[Value]) -> Frame {
        let mut vars = vec![0; nvars];
        vars[..args.len()].copy_from_slice(args);
        Frame {
            func,
            pc: 0,
            block: BlockId(0),
            index: 0,
            vars,
            ret_dst: None,
            callsite: None,
            pre_access_done: false,
        }
    }
}

/// A VM thread.
#[derive(Clone, Debug)]
pub struct Thread {
    /// Thread id (0 = main).
    pub tid: u32,
    /// Virtual core the thread is pinned to.
    pub core: u32,
    /// Call stack; last frame is innermost.
    pub frames: Vec<Frame>,
    /// Scheduling state.
    pub state: ThreadState,
    /// Mutex cells currently held by this thread.
    pub held_mutexes: Vec<u64>,
}

impl Thread {
    /// Creates a thread whose outermost frame runs `func(args)`.
    pub fn new(tid: u32, core: u32, func: FuncId, nvars: usize, args: &[Value]) -> Thread {
        Thread {
            tid,
            core,
            frames: vec![Frame::new(func, nvars, args)],
            state: ThreadState::Runnable,
            held_mutexes: Vec::new(),
        }
    }

    /// The innermost frame.
    pub fn top(&self) -> &Frame {
        self.frames.last().expect("live thread has a frame")
    }

    /// The innermost frame, mutably.
    pub fn top_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("live thread has a frame")
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
        let f = Frame::new(FuncId(0), 4, &[10, 20]);
        assert_eq!(f.vars, vec![10, 20, 0, 0]);
    }

    #[test]
    fn thread_starts_runnable_with_one_frame() {
        let t = Thread::new(1, 0, FuncId(2), 3, &[5]);
        assert!(t.is_runnable());
        assert_eq!(t.frames.len(), 1);
        assert_eq!(t.top().func, FuncId(2));
        assert_eq!(t.top().block, BlockId(0));
        assert_eq!(t.top().index, 0);
    }

    #[test]
    fn blocked_thread_is_not_runnable() {
        let mut t = Thread::new(1, 0, FuncId(0), 0, &[]);
        t.state = ThreadState::Blocked(BlockReason::Mutex(0x10));
        assert!(!t.is_runnable());
        t.state = ThreadState::Finished;
        assert!(!t.is_runnable());
    }
}
