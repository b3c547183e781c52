//! The legacy tree-walking interpreter, kept as the differential oracle
//! for the precompiled engine.
//!
//! This is the pre-compilation execution engine, preserved byte-for-byte in
//! behavior: it re-resolves `function -> block -> instr` on every step and
//! clones each `Op` before executing it. [`crate::Vm`] replaced it on the
//! hot path with the flat stream from [`crate::compiled`]; this module is
//! compiled only under the `treewalk` cargo feature so the
//! compiled-vs-treewalk differential test (and nothing shipped) can run
//! the whole bugbase through both engines and assert identical failures,
//! event streams, and watchpoint hits.
//!
//! Keep the execution semantics here frozen. If the event protocol must
//! change, change both engines and let the differential test arbitrate.

use gist_ir::{
    BinKind, BlockId, Callee, FuncId, InstrId, Op, Operand, Program, Terminator, Value, VarId,
};

use crate::event::{AccessKind, Event, Observer};
use crate::failure::{FailureKind, FailureReport, StackFrame};
use crate::mem::Memory;
use crate::thread::{BlockReason, ThreadState};
use crate::vm::{Input, RunOutcome, RunResult, VmConfig};

/// One activation record, addressed by block and statement index.
#[derive(Clone, Debug)]
struct Frame {
    func: FuncId,
    block: BlockId,
    /// Index of the next statement within the block
    /// (`== instrs.len()` means the terminator is next).
    index: usize,
    /// Register file; a register never written reads as 0.
    vars: Vec<Value>,
    /// Where the return value goes in the caller, if anywhere.
    ret_dst: Option<VarId>,
    /// The callsite statement in the caller (for stack traces).
    callsite: Option<InstrId>,
    /// True once the address-computation step of the upcoming memory
    /// access has executed.
    pre_access_done: bool,
}

impl Frame {
    fn new(func: FuncId, nvars: usize, args: &[Value]) -> Frame {
        let mut vars = vec![0; nvars];
        vars[..args.len()].copy_from_slice(args);
        Frame {
            func,
            block: BlockId(0),
            index: 0,
            vars,
            ret_dst: None,
            callsite: None,
            pre_access_done: false,
        }
    }
}

/// A thread of the tree-walk engine.
#[derive(Clone, Debug)]
struct Thread {
    tid: u32,
    core: u32,
    /// Call stack; last frame is innermost.
    frames: Vec<Frame>,
    state: ThreadState,
}

impl Thread {
    fn new(tid: u32, core: u32, func: FuncId, nvars: usize, args: &[Value]) -> Thread {
        Thread {
            tid,
            core,
            frames: vec![Frame::new(func, nvars, args)],
            state: ThreadState::Runnable,
        }
    }

    fn top(&self) -> &Frame {
        self.frames.last().expect("live thread has a frame")
    }

    fn top_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("live thread has a frame")
    }

    fn is_runnable(&self) -> bool {
        self.state == ThreadState::Runnable
    }
}

/// The legacy tree-walking interpreter.
pub struct TreeWalkVm<'p> {
    program: &'p Program,
    config: VmConfig,
    mem: Memory,
    threads: Vec<Thread>,
    /// Mutex cell address -> owner tid.
    mutex_owners: std::collections::HashMap<u64, u32>,
    /// Materialized input values (after string interning).
    input_values: Vec<Value>,
    output: Vec<Value>,
    seq: u64,
    steps: u64,
    sched_picks: u64,
    preemptions: u64,
    last_picked: Option<u32>,
    retired_per_core: Vec<u64>,
    branches: u64,
    indirect_transfers: u64,
    mem_accesses: u64,
}

/// Signal raised by one statement's execution.
enum Exec {
    /// Statement completed; advance past it.
    Continue,
    /// Control already transferred (branch, call, ret); don't advance.
    Jumped,
    /// The thread must block and retry this statement when woken.
    Block(BlockReason),
    /// The run fails here.
    Fail(FailureKind),
    /// The thread exited.
    Exited,
}

impl<'p> TreeWalkVm<'p> {
    /// Creates a VM for one run of `program`.
    pub fn new(program: &'p Program, config: VmConfig) -> TreeWalkVm<'p> {
        let mut mem = Memory::new(program);
        let input_values = config
            .inputs
            .iter()
            .map(|i| match i {
                Input::Scalar(v) => *v,
                Input::Str(chars) => mem.intern_string(chars) as Value,
            })
            .collect();
        let entry = program.entry;
        let nvars = program.function(entry).num_vars();
        let threads = vec![Thread::new(0, 0, entry, nvars, &[])];
        let cores = config.num_cores.max(1);
        TreeWalkVm {
            program,
            config,
            mem,
            threads,
            mutex_owners: std::collections::HashMap::new(),
            input_values,
            output: Vec::new(),
            seq: 0,
            steps: 0,
            sched_picks: 0,
            preemptions: 0,
            last_picked: None,
            retired_per_core: vec![0; cores as usize],
            branches: 0,
            indirect_transfers: 0,
            mem_accesses: 0,
        }
    }

    /// Read-only view of memory (for tests and diagnostics).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn emit(&mut self, observers: &mut [&mut dyn Observer], ev: Event) {
        for o in observers.iter_mut() {
            o.on_event(&ev);
        }
    }

    /// Runs the program to completion or failure using the configured
    /// scheduler.
    pub fn run(&mut self, observers: &mut [&mut dyn Observer]) -> RunResult {
        let mut scheduler = self.config.scheduler.build();
        self.run_with(&mut scheduler, observers)
    }

    /// Runs the program with an externally supplied scheduler (used by the
    /// record/replay baseline, which records every scheduling pick).
    pub fn run_with<S: crate::sched::Scheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
        observers: &mut [&mut dyn Observer],
    ) -> RunResult {
        let entry = self.program.entry;
        {
            let seq = self.next_seq();
            self.emit(
                observers,
                Event::Enter {
                    seq,
                    tid: 0,
                    core: 0,
                    func: entry,
                },
            );
        }
        loop {
            let runnable: Vec<u32> = self
                .threads
                .iter()
                .filter(|t| t.is_runnable())
                .map(|t| t.tid)
                .collect();
            if runnable.is_empty() {
                let blocked: Vec<&Thread> = self
                    .threads
                    .iter()
                    .filter(|t| matches!(t.state, ThreadState::Blocked(_)))
                    .collect();
                if blocked.is_empty() {
                    // Everything finished.
                    return self.result(RunOutcome::Finished);
                }
                // Deadlock at the first blocked thread's current statement.
                let t = blocked[0].tid;
                let iid = self.current_stmt(t);
                let report = self.report(t, iid, FailureKind::Deadlock);
                let (core, seq) = (self.threads[t as usize].core, self.next_seq());
                self.emit(
                    observers,
                    Event::Failure {
                        seq,
                        tid: t,
                        core,
                        iid,
                    },
                );
                return self.result(RunOutcome::Failed(report));
            }
            if self.steps >= self.config.max_steps {
                let t = runnable[0];
                let iid = self.current_stmt(t);
                let report = self.report(t, iid, FailureKind::Hang);
                let (core, seq) = (self.threads[t as usize].core, self.next_seq());
                self.emit(
                    observers,
                    Event::Failure {
                        seq,
                        tid: t,
                        core,
                        iid,
                    },
                );
                return self.result(RunOutcome::Failed(report));
            }
            let tid = scheduler.pick(&runnable);
            debug_assert!(runnable.contains(&tid));
            self.sched_picks += 1;
            if let Some(prev) = self.last_picked {
                if prev != tid && runnable.contains(&prev) {
                    self.preemptions += 1;
                }
            }
            self.last_picked = Some(tid);
            if let Some(outcome) = self.step_thread(tid, observers) {
                return self.result(outcome);
            }
        }
    }

    fn result(&self, outcome: RunOutcome) -> RunResult {
        // Metrics are flushed in bulk here, once per run, so the per-step
        // hot path carries no atomic traffic.
        gist_obs::counter!("vm.runs").inc();
        gist_obs::counter!("vm.instr_retired").add(self.steps);
        gist_obs::counter!("vm.sched_picks").add(self.sched_picks);
        gist_obs::counter!("vm.preemptions").add(self.preemptions);
        gist_obs::counter!("vm.branches").add(self.branches);
        gist_obs::counter!("vm.mem_accesses").add(self.mem_accesses);
        gist_obs::counter!("vm.threads_spawned").add(self.threads.len() as u64);
        match &outcome {
            RunOutcome::Failed(report) => report.kind.counter().inc(),
            RunOutcome::Finished => gist_obs::counter!("vm.runs_finished").inc(),
        }
        RunResult {
            outcome,
            output: self.output.clone(),
            steps: self.steps,
            retired_per_core: self.retired_per_core.clone(),
            branches: self.branches,
            indirect_transfers: self.indirect_transfers,
            mem_accesses: self.mem_accesses,
            threads: self.threads.len() as u32,
            sched_picks: self.sched_picks,
            preemptions: self.preemptions,
        }
    }

    /// The statement the thread will execute next.
    fn current_stmt(&self, tid: u32) -> InstrId {
        let frame = self.threads[tid as usize].top();
        let block = self.program.function(frame.func).block(frame.block);
        if frame.index < block.instrs.len() {
            block.instrs[frame.index].id
        } else {
            block.term.id()
        }
    }

    fn report(&self, tid: u32, iid: InstrId, kind: FailureKind) -> FailureReport {
        let t = &self.threads[tid as usize];
        let mut stack = Vec::new();
        // Innermost first: current statement, then callsites outward.
        for (i, f) in t.frames.iter().enumerate().rev() {
            let frame_iid = if i == t.frames.len() - 1 {
                iid
            } else {
                t.frames[i + 1].callsite.unwrap_or(iid)
            };
            stack.push(StackFrame {
                func: f.func,
                iid: frame_iid,
            });
        }
        FailureReport {
            program: self.program.name.clone(),
            kind,
            failing_stmt: iid,
            tid,
            stack,
            loc: self.program.stmt_loc(iid),
        }
    }

    /// Executes one statement of thread `tid`. Returns `Some(outcome)` if
    /// the run ended.
    fn step_thread(&mut self, tid: u32, observers: &mut [&mut dyn Observer]) -> Option<RunOutcome> {
        let iid = self.current_stmt(tid);
        let core = self.threads[tid as usize].core;
        let frame = self.threads[tid as usize].top();
        let func = frame.func;
        let block = frame.block;
        let index = frame.index;
        let b = self.program.function(func).block(block);

        // Two-phase memory accesses: the first scheduling step of an
        // access computes its address and emits PreAccess (the watchpoint
        // arm point); the access itself executes on a later step, so other
        // threads may interleave in between — as on real hardware.
        if index < b.instrs.len() && !self.threads[tid as usize].top().pre_access_done {
            if let Some(addr_op) = b.instrs[index].op.access_addr() {
                let kind = if b.instrs[index].op.is_memory_write() {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let addr = self.eval(tid, addr_op) as u64;
                self.threads[tid as usize].top_mut().pre_access_done = true;
                if addr != 0 {
                    let seq = self.next_seq();
                    self.emit(
                        observers,
                        Event::PreAccess {
                            seq,
                            tid,
                            core,
                            iid,
                            kind,
                            addr,
                            is_stack: Memory::is_stack_addr(addr),
                        },
                    );
                    return None;
                }
                // NULL address: the access will fault; no arm point.
            }
        }

        let exec = if index < b.instrs.len() {
            let op = b.instrs[index].op.clone();
            self.exec_op(tid, iid, &op, observers)
        } else {
            let term = b.term.clone();
            self.exec_term(tid, &term, observers)
        };

        match exec {
            Exec::Block(reason) => {
                // Do not retire the statement; the thread retries it.
                self.threads[tid as usize].state = ThreadState::Blocked(reason);
                return None;
            }
            Exec::Fail(kind) => {
                self.retire(tid, core, iid, observers);
                let report = self.report(tid, iid, kind);
                let seq = self.next_seq();
                self.emit(
                    observers,
                    Event::Failure {
                        seq,
                        tid,
                        core,
                        iid,
                    },
                );
                return Some(RunOutcome::Failed(report));
            }
            Exec::Continue => {
                self.retire(tid, core, iid, observers);
                let f = self.threads[tid as usize].top_mut();
                f.index += 1;
                f.pre_access_done = false;
            }
            Exec::Jumped => {
                self.retire(tid, core, iid, observers);
                self.threads[tid as usize].top_mut().pre_access_done = false;
            }
            Exec::Exited => {
                self.retire(tid, core, iid, observers);
                self.threads[tid as usize].state = ThreadState::Finished;
                let seq = self.next_seq();
                self.emit(observers, Event::ThreadExit { seq, tid, core });
                self.wake_joiners(tid);
            }
        }
        None
    }

    fn retire(&mut self, tid: u32, core: u32, iid: InstrId, observers: &mut [&mut dyn Observer]) {
        self.steps += 1;
        self.retired_per_core[core as usize] += 1;
        let seq = self.next_seq();
        self.emit(
            observers,
            Event::Retired {
                seq,
                tid,
                core,
                iid,
            },
        );
    }

    fn eval(&self, tid: u32, op: Operand) -> Value {
        match op {
            Operand::Const(v) => v,
            Operand::Global(g) => self.mem.global_base(g) as Value,
            Operand::Var(v) => self.threads[tid as usize].top().vars[v.index()],
        }
    }

    fn set_var(&mut self, tid: u32, var: VarId, value: Value) {
        self.threads[tid as usize].top_mut().vars[var.index()] = value;
    }

    fn emit_mem(
        &mut self,
        observers: &mut [&mut dyn Observer],
        tid: u32,
        iid: InstrId,
        kind: AccessKind,
        addr: u64,
        value: Value,
    ) {
        self.mem_accesses += 1;
        let core = self.threads[tid as usize].core;
        let seq = self.next_seq();
        self.emit(
            observers,
            Event::Mem {
                seq,
                tid,
                core,
                iid,
                kind,
                addr,
                value,
                is_stack: Memory::is_stack_addr(addr),
            },
        );
    }

    fn exec_op(
        &mut self,
        tid: u32,
        iid: InstrId,
        op: &Op,
        observers: &mut [&mut dyn Observer],
    ) -> Exec {
        match op {
            Op::Const { dst, value } => {
                self.set_var(tid, *dst, *value);
                Exec::Continue
            }
            Op::Bin { dst, kind, a, b } => {
                let (a, b) = (self.eval(tid, *a), self.eval(tid, *b));
                let r = match kind {
                    BinKind::Add => a.wrapping_add(b),
                    BinKind::Sub => a.wrapping_sub(b),
                    BinKind::Mul => a.wrapping_mul(b),
                    BinKind::Div => {
                        if b == 0 {
                            return Exec::Fail(FailureKind::DivByZero);
                        }
                        a.wrapping_div(b)
                    }
                    BinKind::Rem => {
                        if b == 0 {
                            return Exec::Fail(FailureKind::DivByZero);
                        }
                        a.wrapping_rem(b)
                    }
                    BinKind::And => a & b,
                    BinKind::Or => a | b,
                    BinKind::Xor => a ^ b,
                    BinKind::Shl => a.wrapping_shl(b as u32 & 63),
                    BinKind::Shr => a.wrapping_shr(b as u32 & 63),
                };
                self.set_var(tid, *dst, r);
                Exec::Continue
            }
            Op::Cmp { dst, kind, a, b } => {
                let r = kind.eval(self.eval(tid, *a), self.eval(tid, *b));
                self.set_var(tid, *dst, r);
                Exec::Continue
            }
            Op::Load { dst, addr } => {
                let a = self.eval(tid, *addr) as u64;
                match self.mem.load(a) {
                    Ok(v) => {
                        self.emit_mem(observers, tid, iid, AccessKind::Read, a, v);
                        self.set_var(tid, *dst, v);
                        Exec::Continue
                    }
                    Err(k) => Exec::Fail(k),
                }
            }
            Op::Store { addr, value } => {
                let a = self.eval(tid, *addr) as u64;
                let v = self.eval(tid, *value);
                match self.mem.store(a, v) {
                    Ok(()) => {
                        self.emit_mem(observers, tid, iid, AccessKind::Write, a, v);
                        Exec::Continue
                    }
                    Err(k) => Exec::Fail(k),
                }
            }
            Op::Gep { dst, base, offset } => {
                let r = self.eval(tid, *base).wrapping_add(self.eval(tid, *offset));
                self.set_var(tid, *dst, r);
                Exec::Continue
            }
            Op::Alloc { dst, size } => {
                let n = self.eval(tid, *size).max(0) as u64;
                let base = self.mem.heap_alloc(n);
                self.set_var(tid, *dst, base as Value);
                Exec::Continue
            }
            Op::StackAlloc { dst, size } => {
                let n = self.eval(tid, *size).max(0) as u64;
                match self.mem.stack_alloc(tid, n) {
                    Ok(base) => {
                        self.set_var(tid, *dst, base as Value);
                        Exec::Continue
                    }
                    Err(k) => Exec::Fail(k),
                }
            }
            Op::Free { addr } => {
                let a = self.eval(tid, *addr) as u64;
                match self.mem.heap_free(a) {
                    Ok(()) => {
                        if a != 0 {
                            self.emit_mem(observers, tid, iid, AccessKind::Write, a, 0);
                        }
                        Exec::Continue
                    }
                    Err(k) => Exec::Fail(k),
                }
            }
            Op::Call { dst, callee, args } => self.do_call(tid, iid, *dst, callee, args, observers),
            Op::FuncAddr { dst, func } => {
                let v = Program::FUNC_ADDR_BASE + func.index() as Value;
                self.set_var(tid, *dst, v);
                Exec::Continue
            }
            Op::ThreadCreate { dst, routine, arg } => {
                let target = match self.resolve_callee(tid, routine) {
                    Ok(f) => f,
                    Err(k) => return Exec::Fail(k),
                };
                let arg = self.eval(tid, *arg);
                let child = self.threads.len() as u32;
                let core = child % self.config.num_cores.max(1);
                let nvars = self.program.function(target).num_vars();
                self.threads
                    .push(Thread::new(child, core, target, nvars, &[arg]));
                if let Some(d) = dst {
                    self.set_var(tid, *d, child as Value);
                }
                let parent_core = self.threads[tid as usize].core;
                let seq = self.next_seq();
                self.emit(
                    observers,
                    Event::Spawn {
                        seq,
                        tid,
                        core: parent_core,
                        child,
                    },
                );
                let seq = self.next_seq();
                self.emit(
                    observers,
                    Event::Enter {
                        seq,
                        tid: child,
                        core,
                        func: target,
                    },
                );
                Exec::Continue
            }
            Op::ThreadJoin { tid: target } => {
                let target = self.eval(tid, *target);
                if target < 0 || target as usize >= self.threads.len() {
                    // Joining an invalid tid: treat as a no-op, like joining
                    // an already-detached pthread id.
                    return Exec::Continue;
                }
                let target = target as u32;
                if self.threads[target as usize].state == ThreadState::Finished {
                    Exec::Continue
                } else {
                    Exec::Block(BlockReason::Join(target))
                }
            }
            Op::MutexLock { addr } => {
                let a = self.eval(tid, *addr) as u64;
                // Validate the mutex cell is accessible (NULL / freed mutex
                // is the pbzip2 #1 crash).
                if let Err(k) = self.mem.load(a) {
                    return Exec::Fail(k);
                }
                match self.mutex_owners.get(&a) {
                    Some(&owner) if owner != tid => Exec::Block(BlockReason::Mutex(a)),
                    Some(_) => {
                        // Recursive lock: deadlock with self. Model as block
                        // (will be reported as deadlock if nothing wakes it).
                        Exec::Block(BlockReason::Mutex(a))
                    }
                    None => {
                        self.mutex_owners.insert(a, tid);
                        if let Err(k) = self.mem.store(a, 1) {
                            return Exec::Fail(k);
                        }
                        self.emit_mem(observers, tid, iid, AccessKind::Write, a, 1);
                        Exec::Continue
                    }
                }
            }
            Op::MutexUnlock { addr } => {
                let a = self.eval(tid, *addr) as u64;
                if let Err(k) = self.mem.load(a) {
                    return Exec::Fail(k);
                }
                match self.mutex_owners.get(&a) {
                    Some(&owner) if owner == tid => {
                        self.mutex_owners.remove(&a);
                        if let Err(k) = self.mem.store(a, 0) {
                            return Exec::Fail(k);
                        }
                        self.emit_mem(observers, tid, iid, AccessKind::Write, a, 0);
                        self.wake_mutex_waiters(a);
                        Exec::Continue
                    }
                    _ => Exec::Fail(FailureKind::UnlockNotHeld { addr: a }),
                }
            }
            Op::Assert { cond, msg } => {
                if self.eval(tid, *cond) == 0 {
                    Exec::Fail(FailureKind::AssertFail { msg: msg.clone() })
                } else {
                    Exec::Continue
                }
            }
            Op::Print { args } => {
                let vals: Vec<Value> = args.iter().map(|&a| self.eval(tid, a)).collect();
                self.output.extend(vals);
                Exec::Continue
            }
            Op::Intrinsic { dst, kind, args } => {
                self.exec_intrinsic(tid, iid, *dst, *kind, args, observers)
            }
            Op::ReadInput { dst, index } => {
                let v = self.input_values.get(*index).copied().unwrap_or(0);
                self.set_var(tid, *dst, v);
                Exec::Continue
            }
            Op::Nop => Exec::Continue,
        }
    }

    fn exec_intrinsic(
        &mut self,
        tid: u32,
        iid: InstrId,
        dst: Option<VarId>,
        kind: gist_ir::IntrinsicKind,
        args: &[Operand],
        observers: &mut [&mut dyn Observer],
    ) -> Exec {
        use gist_ir::IntrinsicKind as I;
        match kind {
            I::Strlen => {
                let p = args.first().map(|&a| self.eval(tid, a)).unwrap_or(0) as u64;
                let mut len = 0u64;
                loop {
                    match self.mem.load(p + len) {
                        Ok(0) => break,
                        Ok(v) => {
                            if len == 0 {
                                self.emit_mem(observers, tid, iid, AccessKind::Read, p, v);
                            }
                            len += 1;
                        }
                        Err(k) => return Exec::Fail(k),
                    }
                    if len > 1 << 20 {
                        return Exec::Fail(FailureKind::Hang);
                    }
                }
                if let Some(d) = dst {
                    self.set_var(tid, d, len as Value);
                }
                Exec::Continue
            }
            I::Memset => {
                let p = args.first().map(|&a| self.eval(tid, a)).unwrap_or(0) as u64;
                let v = args.get(1).map(|&a| self.eval(tid, a)).unwrap_or(0);
                let n = args.get(2).map(|&a| self.eval(tid, a)).unwrap_or(0).max(0) as u64;
                for i in 0..n {
                    if let Err(k) = self.mem.store(p + i, v) {
                        return Exec::Fail(k);
                    }
                }
                if n > 0 {
                    self.emit_mem(observers, tid, iid, AccessKind::Write, p, v);
                }
                if let Some(d) = dst {
                    self.set_var(tid, d, p as Value);
                }
                Exec::Continue
            }
            I::Memcpy => {
                let d = args.first().map(|&a| self.eval(tid, a)).unwrap_or(0) as u64;
                let s = args.get(1).map(|&a| self.eval(tid, a)).unwrap_or(0) as u64;
                let n = args.get(2).map(|&a| self.eval(tid, a)).unwrap_or(0).max(0) as u64;
                for i in 0..n {
                    let v = match self.mem.load(s + i) {
                        Ok(v) => v,
                        Err(k) => return Exec::Fail(k),
                    };
                    if let Err(k) = self.mem.store(d + i, v) {
                        return Exec::Fail(k);
                    }
                }
                if n > 0 {
                    self.emit_mem(observers, tid, iid, AccessKind::Write, d, 0);
                }
                if let Some(dv) = dst {
                    self.set_var(tid, dv, d as Value);
                }
                Exec::Continue
            }
        }
    }

    fn resolve_callee(&self, tid: u32, callee: &Callee) -> Result<FuncId, FailureKind> {
        match callee {
            Callee::Direct(f) => Ok(*f),
            Callee::Indirect(op) => {
                let v = self.eval(tid, *op);
                let idx = v - Program::FUNC_ADDR_BASE;
                if v < Program::FUNC_ADDR_BASE || idx as usize >= self.program.functions.len() {
                    return Err(FailureKind::SegFault { addr: v as u64 });
                }
                Ok(FuncId(idx as u32))
            }
        }
    }

    fn do_call(
        &mut self,
        tid: u32,
        iid: InstrId,
        dst: Option<VarId>,
        callee: &Callee,
        args: &[Operand],
        observers: &mut [&mut dyn Observer],
    ) -> Exec {
        let target = match self.resolve_callee(tid, callee) {
            Ok(f) => f,
            Err(k) => return Exec::Fail(k),
        };
        let argv: Vec<Value> = args.iter().map(|&a| self.eval(tid, a)).collect();
        // Advance past the call before pushing, so `ret` resumes after it.
        self.threads[tid as usize].top_mut().index += 1;
        let nvars = self.program.function(target).num_vars();
        let mut frame = Frame::new(target, nvars, &argv);
        frame.ret_dst = dst;
        frame.callsite = Some(iid);
        self.threads[tid as usize].frames.push(frame);
        let core = self.threads[tid as usize].core;
        if matches!(callee, Callee::Indirect(_)) {
            self.indirect_transfers += 1;
            let entry_block = self.program.function(target).entry();
            let entry_stmt = {
                let b = self.program.function(target).block(entry_block);
                b.instrs
                    .first()
                    .map(|i| i.id)
                    .unwrap_or_else(|| b.term.id())
            };
            let seq = self.next_seq();
            self.emit(
                observers,
                Event::IndirectTransfer {
                    seq,
                    tid,
                    core,
                    iid,
                    target: entry_stmt,
                },
            );
        }
        let seq = self.next_seq();
        self.emit(
            observers,
            Event::Enter {
                seq,
                tid,
                core,
                func: target,
            },
        );
        Exec::Jumped
    }

    fn exec_term(
        &mut self,
        tid: u32,
        term: &Terminator,
        observers: &mut [&mut dyn Observer],
    ) -> Exec {
        match term {
            Terminator::Br { target, .. } => {
                let f = self.threads[tid as usize].top_mut();
                f.block = *target;
                f.index = 0;
                Exec::Jumped
            }
            Terminator::CondBr {
                id,
                cond,
                then_bb,
                else_bb,
                ..
            } => {
                let taken = self.eval(tid, *cond) != 0;
                self.branches += 1;
                let core = self.threads[tid as usize].core;
                let seq = self.next_seq();
                self.emit(
                    observers,
                    Event::Branch {
                        seq,
                        tid,
                        core,
                        iid: *id,
                        taken,
                    },
                );
                let f = self.threads[tid as usize].top_mut();
                f.block = if taken { *then_bb } else { *else_bb };
                f.index = 0;
                Exec::Jumped
            }
            Terminator::Ret { id, value, .. } => {
                let rv = value.map(|v| self.eval(tid, v));
                let frame = self.threads[tid as usize]
                    .frames
                    .pop()
                    .expect("ret needs a frame");
                let core = self.threads[tid as usize].core;
                if self.threads[tid as usize].frames.is_empty() {
                    let seq = self.next_seq();
                    self.emit(
                        observers,
                        Event::Return {
                            seq,
                            tid,
                            core,
                            iid: *id,
                            to: None,
                        },
                    );
                    return Exec::Exited;
                }
                if let (Some(dst), Some(v)) = (frame.ret_dst, rv) {
                    self.set_var(tid, dst, v);
                }
                let to = Some(self.current_stmt(tid));
                let seq = self.next_seq();
                self.emit(
                    observers,
                    Event::Return {
                        seq,
                        tid,
                        core,
                        iid: *id,
                        to,
                    },
                );
                Exec::Jumped
            }
            Terminator::Unreachable { .. } => Exec::Fail(FailureKind::UnreachableExecuted),
        }
    }

    fn wake_mutex_waiters(&mut self, addr: u64) {
        for t in &mut self.threads {
            if t.state == ThreadState::Blocked(BlockReason::Mutex(addr)) {
                t.state = ThreadState::Runnable;
            }
        }
    }

    fn wake_joiners(&mut self, exited: u32) {
        for t in &mut self.threads {
            if t.state == ThreadState::Blocked(BlockReason::Join(exited)) {
                t.state = ThreadState::Runnable;
            }
        }
    }
}
