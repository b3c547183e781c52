//! The interpreter.
//!
//! Execution dispatches over a [`CompiledProgram`] — a flat, dense lowering
//! of the IR produced once per program (see [`crate::compiled`]) — rather
//! than re-walking the `function -> block -> instr` tree on every step.
//! Each thread ([`crate::thread::Thread`]) holds its running frame inline,
//! so a step reaches its instruction and operands in a few loads. The
//! common ops run inline in one `match` (`Vm::step_thread`); the rest run
//! out of line.
//! The observable behavior (event stream, failure reports, counters) is
//! identical to the legacy tree-walk engine, which is retained under the
//! `treewalk` feature as a differential-testing oracle.

use std::sync::Arc;

use gist_ir::{BinKind, FuncId, InstrId, Program, Value};

use crate::compiled::{CCallee, COp, CompiledProgram, Slot};
use crate::event::{AccessKind, Event, Observer};
use crate::failure::{FailureKind, FailureReport, StackFrame};
use crate::mem::{FxHashMap, MemScratch, Memory};
use crate::sched::{Scheduler, SchedulerKind};
use crate::thread::{draw_regs, BlockReason, Frame, Thread, ThreadState};

/// One workload input: scalars are read directly by `input n`; strings are
/// materialized on the heap and `input n` yields their base pointer.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// A scalar value.
    Scalar(Value),
    /// A NUL-terminated string (one character per cell).
    Str(Vec<Value>),
}

impl Input {
    /// Builds a string input from ASCII text.
    pub fn str_from(text: &str) -> Input {
        Input::Str(text.chars().map(|c| c as Value).collect())
    }
}

/// VM configuration: the full description of a production run.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// The scheduler (defaults to round-robin with quantum 1).
    pub scheduler: SchedulerKind,
    /// Workload inputs.
    pub inputs: Vec<Input>,
    /// Step budget before the run is declared a [`FailureKind::Hang`].
    pub max_steps: u64,
    /// Number of virtual cores (threads are pinned `core = tid % cores`).
    pub num_cores: u32,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            scheduler: SchedulerKind::RoundRobin { quantum: 1 },
            inputs: Vec::new(),
            max_steps: 1_000_000,
            num_cores: 4,
        }
    }
}

/// How a run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutcome {
    /// All threads exited normally.
    Finished,
    /// The run failed.
    Failed(FailureReport),
}

impl RunOutcome {
    /// Returns the failure report if the run failed.
    pub fn failure(&self) -> Option<&FailureReport> {
        match self {
            RunOutcome::Failed(r) => Some(r),
            RunOutcome::Finished => None,
        }
    }
}

/// The result of a completed run plus its accounting counters, which the
/// overhead models (gist-baselines) convert into slowdown percentages.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Values printed by the program.
    pub output: Vec<Value>,
    /// Total statements retired.
    pub steps: u64,
    /// Statements retired per virtual core.
    pub retired_per_core: Vec<u64>,
    /// Conditional branches executed.
    pub branches: u64,
    /// Indirect transfers executed.
    pub indirect_transfers: u64,
    /// Memory accesses executed.
    pub mem_accesses: u64,
    /// Number of threads that ever existed.
    pub threads: u32,
    /// Scheduler decisions taken (≥ steps: address-computation steps and
    /// blocked lock/join retries also consume a pick).
    pub sched_picks: u64,
    /// Involuntary context switches: picks where the previously running
    /// thread was still runnable but a different thread got the core.
    pub preemptions: u64,
}

/// Recycled allocations of a finished [`Vm`], kept by whoever runs one
/// program after another (a fleet executor, a failure search).
///
/// [`Vm::into_scratch`] tears a VM down to its memory segments, its thread
/// table, runnable list, mutex-owner map and input values, all emptied,
/// and every register file its frames held, on a free list. The next
/// run's VM, built with [`Vm::with_scratch`], reuses their capacity
/// instead of growing them from empty: spawns and calls draw register
/// files from the free list, zeroed, and `ret` puts a callee's back.
/// Purely an allocation-reuse mechanism: nothing of a previous run
/// survives the emptying and zeroing, so a scratch-built VM is
/// behaviorally identical to a fresh one.
#[derive(Debug, Default)]
pub struct VmScratch {
    mem: MemScratch,
    threads: Vec<Thread>,
    runnable: Vec<u32>,
    mutex_owners: FxHashMap<u64, u32>,
    input_values: Vec<Value>,
    regs: Vec<Vec<Value>>,
}

/// The MiniC virtual machine.
pub struct Vm<'p> {
    program: &'p Program,
    /// The lowered program the engine dispatches over; shared read-only
    /// across all VMs running the same program.
    compiled: Arc<CompiledProgram>,
    config: VmConfig,
    mem: Memory,
    threads: Vec<Thread>,
    /// Tids of the runnable threads, rebuilt when `runnable_stale` is set.
    runnable: Vec<u32>,
    /// Register files of returned frames, drawn again by calls and spawns.
    free_regs: Vec<Vec<Value>>,
    /// Mutex cell address -> owner tid.
    mutex_owners: FxHashMap<u64, u32>,
    /// Materialized input values (after string interning).
    input_values: Vec<Value>,
    output: Vec<Value>,
    seq: u64,
    steps: u64,
    sched_picks: u64,
    preemptions: u64,
    last_picked: Option<u32>,
    /// Set by every thread-state change (spawn, block, wake, exit): the
    /// run loop rebuilds its runnable-tid list only when this is set.
    runnable_stale: bool,
    retired_per_core: Vec<u64>,
    branches: u64,
    indirect_transfers: u64,
    mem_accesses: u64,
}

/// What an out-of-line op did to its thread. It fits in two registers:
/// a failure, the one large outcome, is boxed.
enum Flow {
    /// The statement completed, and the op moved the pc; retire it.
    Retire,
    /// Only the address step of a two-phase access ran (see [`arms`]).
    Armed,
    /// The thread must block and retry this statement when woken.
    Block(BlockReason),
    /// The run fails here.
    Fail(Box<FailureKind>),
    /// The thread exited.
    Exited,
}

const _: () = assert!(std::mem::size_of::<Flow>() <= 16);

impl<'p> Vm<'p> {
    /// Creates a VM for one run of `program`, compiling it first. A caller
    /// that runs one program many times compiles it once and uses
    /// [`Vm::with_compiled`] instead.
    pub fn new(program: &'p Program, config: VmConfig) -> Vm<'p> {
        Vm::with_compiled(program, Arc::new(CompiledProgram::compile(program)), config)
    }

    /// Creates a VM executing an already-lowered `program`. The caller is
    /// responsible for `compiled` being [`CompiledProgram::compile`] of
    /// `program`; a fleet compiles once and clones the `Arc` per worker.
    pub fn with_compiled(
        program: &'p Program,
        compiled: Arc<CompiledProgram>,
        config: VmConfig,
    ) -> Vm<'p> {
        Vm::with_scratch(program, compiled, config, VmScratch::default())
    }

    /// Like [`Vm::with_compiled`], but recycling a previous run's
    /// allocations.
    pub fn with_scratch(
        program: &'p Program,
        compiled: Arc<CompiledProgram>,
        config: VmConfig,
        scratch: VmScratch,
    ) -> Vm<'p> {
        debug_assert!(
            compiled.matches(program),
            "compiled program does not correspond to the IR it runs"
        );
        let VmScratch {
            mem,
            mut threads,
            runnable,
            mutex_owners,
            mut input_values,
            regs: mut free_regs,
        } = scratch;
        let mut mem = Memory::with_scratch(program, mem);
        debug_assert_eq!(
            mem.global_bases(),
            &compiled.global_bases[..],
            "compile-time global layout must mirror Memory::new"
        );
        input_values.extend(config.inputs.iter().map(|i| match i {
            Input::Scalar(v) => *v,
            Input::Str(chars) => mem.intern_string(chars) as Value,
        }));
        let entry = program.entry;
        let f = &compiled.funcs[entry.index()];
        let vars = draw_regs(&mut free_regs, f.num_vars, &[]);
        threads.push(Thread::new(0, 0, entry, f.entry, vars));
        let cores = config.num_cores.max(1);
        Vm {
            program,
            compiled,
            config,
            mem,
            threads,
            runnable,
            free_regs,
            mutex_owners,
            input_values,
            output: Vec::new(),
            seq: 0,
            steps: 0,
            sched_picks: 0,
            preemptions: 0,
            last_picked: None,
            runnable_stale: true,
            retired_per_core: vec![0; cores as usize],
            branches: 0,
            indirect_transfers: 0,
            mem_accesses: 0,
        }
    }

    /// Tears the VM down to its reusable allocations (see [`VmScratch`]):
    /// every table emptied, every frame's register file on the free list.
    pub fn into_scratch(mut self) -> VmScratch {
        for t in self.threads.drain(..) {
            self.free_regs.push(t.top.vars);
            self.free_regs.extend(t.callers.into_iter().map(|f| f.vars));
        }
        self.runnable.clear();
        self.mutex_owners.clear();
        self.input_values.clear();
        VmScratch {
            mem: self.mem.into_scratch(),
            threads: self.threads,
            runnable: self.runnable,
            mutex_owners: self.mutex_owners,
            input_values: self.input_values,
            regs: self.free_regs,
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

    /// Runs the program to completion or failure using the configured
    /// scheduler.
    pub fn run(&mut self, observers: &mut [&mut dyn Observer]) -> RunResult {
        let mut scheduler = self.config.scheduler.build();
        self.run_with(&mut scheduler, observers)
    }

    /// Runs the program with an externally supplied scheduler (used by the
    /// record/replay baseline, which records every scheduling pick).
    pub fn run_with<S: Scheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
        observers: &mut [&mut dyn Observer],
    ) -> RunResult {
        // The run loop keeps the runnable list in a local; it goes back to
        // the VM, for the scratch, when the run ends.
        let mut runnable = std::mem::take(&mut self.runnable);
        let result = self.run_loop(scheduler, observers, &mut runnable);
        self.runnable = runnable;
        result
    }

    /// The scheduling loop of [`Vm::run_with`].
    #[inline]
    fn run_loop<S: Scheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
        observers: &mut [&mut dyn Observer],
        runnable: &mut Vec<u32>,
    ) -> RunResult {
        // One Arc clone for the whole run; `comp` and `self` are disjoint
        // borrows, so the dispatch loop reads compiled code while mutating
        // VM state without per-step refcount traffic.
        let comp = Arc::clone(&self.compiled);
        let entry = self.program.entry;
        let seq = self.next_seq();
        emit(
            observers,
            Event::Enter {
                seq,
                tid: 0,
                core: 0,
                func: entry,
            },
        );
        self.runnable_stale = true;
        loop {
            if self.runnable_stale {
                self.runnable_stale = false;
                runnable.clear();
                runnable.extend(
                    self.threads
                        .iter()
                        .filter(|t| t.is_runnable())
                        .map(|t| t.tid),
                );
            }
            if runnable.is_empty() {
                let blocked = self
                    .threads
                    .iter()
                    .find(|t| matches!(t.state, ThreadState::Blocked(_)));
                let Some(blocked) = blocked else {
                    // Everything finished.
                    return self.result(RunOutcome::Finished);
                };
                // Deadlock at the first blocked thread's current statement.
                let t = blocked.tid;
                return self.stop(t, FailureKind::Deadlock, observers);
            }
            if self.steps >= self.config.max_steps {
                return self.stop(runnable[0], FailureKind::Hang, observers);
            }
            let tid = scheduler.pick(runnable);
            debug_assert!(runnable.contains(&tid));
            self.sched_picks += 1;
            if let Some(prev) = self.last_picked {
                if prev != tid && runnable.contains(&prev) {
                    self.preemptions += 1;
                }
            }
            self.last_picked = Some(tid);
            if let Some(outcome) = self.step_thread(&comp, tid, observers) {
                return self.result(outcome);
            }
        }
    }

    /// Ends the run with a failure of thread `tid` at its current
    /// statement that no statement raised (deadlock, hang).
    fn stop(
        &mut self,
        tid: u32,
        kind: FailureKind,
        observers: &mut [&mut dyn Observer],
    ) -> RunResult {
        let iid = self.current_stmt(tid);
        let report = self.report(tid, iid, kind);
        let (core, seq) = (self.threads[tid as usize].core, self.next_seq());
        emit(
            observers,
            Event::Failure {
                seq,
                tid,
                core,
                iid,
            },
        );
        self.result(RunOutcome::Failed(report))
    }

    fn result(&mut self, outcome: RunOutcome) -> RunResult {
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
            output: std::mem::take(&mut self.output),
            steps: self.steps,
            retired_per_core: std::mem::take(&mut self.retired_per_core),
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
        self.compiled.code[self.threads[tid as usize].top.pc as usize].iid
    }

    fn report(&self, tid: u32, iid: InstrId, kind: FailureKind) -> FailureReport {
        let t = &self.threads[tid as usize];
        // Innermost first: current statement, then callsites outward.
        let mut stack = Vec::with_capacity(t.callers.len() + 1);
        stack.push(StackFrame {
            func: t.top.func,
            iid,
        });
        let mut callsite = t.top.callsite;
        for f in t.callers.iter().rev() {
            stack.push(StackFrame {
                func: f.func,
                iid: callsite.unwrap_or(iid),
            });
            callsite = f.callsite;
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

    /// Executes one step of thread `tid`: a statement, or the address step
    /// of a two-phase access. Returns `Some(outcome)` if the run ended.
    ///
    /// The ops that make up almost every step (bin, cmp, condbr, br, load,
    /// store) run here, in one `match` over the running frame's registers;
    /// the rest run out of line in [`Vm::step_cold`].
    #[inline]
    fn step_thread(
        &mut self,
        comp: &CompiledProgram,
        tid: u32,
        observers: &mut [&mut dyn Observer],
    ) -> Option<RunOutcome> {
        let t = &mut self.threads[tid as usize];
        let core = t.core;
        let ci = &comp.code[t.top.pc as usize];
        let iid = ci.iid;
        let regs = &mut t.top.vars[..];
        match ci.op {
            COp::Bin { dst, kind, a, b } => {
                let (a, b) = (slot(regs, a), slot(regs, b));
                let r = match kind {
                    BinKind::Add => a.wrapping_add(b),
                    BinKind::Sub => a.wrapping_sub(b),
                    BinKind::Mul => a.wrapping_mul(b),
                    BinKind::Div | BinKind::Rem if b == 0 => {
                        return self.fail(tid, core, iid, FailureKind::DivByZero, observers);
                    }
                    BinKind::Div => a.wrapping_div(b),
                    BinKind::Rem => a.wrapping_rem(b),
                    BinKind::And => a & b,
                    BinKind::Or => a | b,
                    BinKind::Xor => a ^ b,
                    BinKind::Shl => a.wrapping_shl(b as u32 & 63),
                    BinKind::Shr => a.wrapping_shr(b as u32 & 63),
                };
                regs[dst as usize] = r;
                t.top.pc += 1;
            }
            COp::Cmp { dst, kind, a, b } => {
                regs[dst as usize] = kind.eval(slot(regs, a), slot(regs, b));
                t.top.pc += 1;
            }
            COp::Jump { to } => t.top.pc = to,
            COp::CondBr {
                cond,
                then_to,
                else_to,
            } => {
                let taken = slot(regs, cond) != 0;
                t.top.pc = if taken { then_to } else { else_to };
                self.branches += 1;
                let seq = self.next_seq();
                emit(
                    observers,
                    Event::Branch {
                        seq,
                        tid,
                        core,
                        iid,
                        taken,
                    },
                );
            }
            COp::Load { dst, addr } => {
                let a = slot(regs, addr) as u64;
                if arms(&mut t.top.pre_access_done, a) {
                    self.arm(tid, core, iid, AccessKind::Read, a, observers);
                    return None;
                }
                let v = match self.mem.load(a) {
                    Ok(v) => v,
                    Err(k) => return self.fail(tid, core, iid, k, observers),
                };
                regs[dst as usize] = v;
                t.top.pc += 1;
                t.top.pre_access_done = false;
                self.emit_mem(observers, tid, core, iid, AccessKind::Read, a, v);
            }
            COp::Store { addr, value } => {
                let (a, v) = (slot(regs, addr) as u64, slot(regs, value));
                if arms(&mut t.top.pre_access_done, a) {
                    self.arm(tid, core, iid, AccessKind::Write, a, observers);
                    return None;
                }
                if let Err(k) = self.mem.store(a, v) {
                    return self.fail(tid, core, iid, k, observers);
                }
                t.top.pc += 1;
                t.top.pre_access_done = false;
                self.emit_mem(observers, tid, core, iid, AccessKind::Write, a, v);
            }
            _ => return self.step_cold(comp, tid, core, iid, &ci.op, observers),
        }
        self.retire(tid, core, iid, observers);
        None
    }

    /// Steps the rarer ops, out of line so that [`Vm::step_thread`] stays
    /// small enough to inline into the run loop.
    #[inline(never)]
    fn step_cold(
        &mut self,
        comp: &CompiledProgram,
        tid: u32,
        core: u32,
        iid: InstrId,
        op: &COp,
        observers: &mut [&mut dyn Observer],
    ) -> Option<RunOutcome> {
        match self.exec_cold(comp, tid, core, iid, op, observers) {
            Flow::Retire => {
                self.threads[tid as usize].top.pre_access_done = false;
                self.retire(tid, core, iid, observers);
            }
            Flow::Armed => {}
            Flow::Block(reason) => {
                // Do not retire the statement; the thread retries it.
                self.threads[tid as usize].state = ThreadState::Blocked(reason);
                self.runnable_stale = true;
            }
            Flow::Fail(kind) => return self.fail(tid, core, iid, *kind, observers),
            Flow::Exited => {
                self.retire(tid, core, iid, observers);
                self.threads[tid as usize].state = ThreadState::Finished;
                self.runnable_stale = true;
                let seq = self.next_seq();
                emit(observers, Event::ThreadExit { seq, tid, core });
                self.wake_joiners(tid);
            }
        }
        None
    }

    /// Retires the failing statement and ends the run with its report.
    #[cold]
    #[inline(never)]
    fn fail(
        &mut self,
        tid: u32,
        core: u32,
        iid: InstrId,
        kind: FailureKind,
        observers: &mut [&mut dyn Observer],
    ) -> Option<RunOutcome> {
        self.retire(tid, core, iid, observers);
        let report = self.report(tid, iid, kind);
        let seq = self.next_seq();
        emit(
            observers,
            Event::Failure {
                seq,
                tid,
                core,
                iid,
            },
        );
        Some(RunOutcome::Failed(report))
    }

    fn retire(&mut self, tid: u32, core: u32, iid: InstrId, observers: &mut [&mut dyn Observer]) {
        self.steps += 1;
        self.retired_per_core[core as usize] += 1;
        let seq = self.next_seq();
        emit(
            observers,
            Event::Retired {
                seq,
                tid,
                core,
                iid,
            },
        );
    }

    /// Emits the arm point of a two-phase access (see [`arms`]).
    fn arm(
        &mut self,
        tid: u32,
        core: u32,
        iid: InstrId,
        kind: AccessKind,
        addr: u64,
        observers: &mut [&mut dyn Observer],
    ) {
        let seq = self.next_seq();
        emit(
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
    }

    /// Reads an operand of thread `tid`'s running frame.
    fn val(&self, tid: u32, s: Slot) -> Value {
        slot(&self.threads[tid as usize].top.vars, s)
    }

    /// Writes a register of thread `tid`'s running frame.
    fn set_slot(&mut self, tid: u32, dst: u32, value: Value) {
        self.threads[tid as usize].top.vars[dst as usize] = value;
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_mem(
        &mut self,
        observers: &mut [&mut dyn Observer],
        tid: u32,
        core: u32,
        iid: InstrId,
        kind: AccessKind,
        addr: u64,
        value: Value,
    ) {
        self.mem_accesses += 1;
        let seq = self.next_seq();
        emit(
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

    /// Executes one of the ops [`Vm::step_thread`] does not step inline.
    fn exec_cold(
        &mut self,
        comp: &CompiledProgram,
        tid: u32,
        core: u32,
        iid: InstrId,
        op: &COp,
        observers: &mut [&mut dyn Observer],
    ) -> Flow {
        let fail = |kind| Flow::Fail(Box::new(kind));
        match op {
            COp::Const { dst, value } | COp::FuncAddr { dst, value } => {
                self.set_slot(tid, *dst, *value);
            }
            COp::Gep { dst, base, offset } => {
                let r = self.val(tid, *base).wrapping_add(self.val(tid, *offset));
                self.set_slot(tid, *dst, r);
            }
            COp::Alloc { dst, size } => {
                let n = self.val(tid, *size).max(0) as u64;
                let base = self.mem.heap_alloc(n);
                self.set_slot(tid, *dst, base as Value);
            }
            COp::StackAlloc { dst, size } => {
                let n = self.val(tid, *size).max(0) as u64;
                match self.mem.stack_alloc(tid, n) {
                    Ok(base) => self.set_slot(tid, *dst, base as Value),
                    Err(k) => return fail(k),
                }
            }
            COp::Free { addr } => {
                let a = self.val(tid, *addr) as u64;
                if arms(&mut self.threads[tid as usize].top.pre_access_done, a) {
                    self.arm(tid, core, iid, AccessKind::Write, a, observers);
                    return Flow::Armed;
                }
                if let Err(k) = self.mem.heap_free(a) {
                    return fail(k);
                }
                if a != 0 {
                    self.emit_mem(observers, tid, core, iid, AccessKind::Write, a, 0);
                }
            }
            COp::Call { dst, callee, args } => {
                return self.call(comp, tid, core, iid, *dst, *callee, args, observers)
            }
            COp::ThreadCreate { dst, routine, arg } => {
                let target = match self.resolve_callee(comp, tid, *routine) {
                    Ok(f) => f,
                    Err(k) => return fail(k),
                };
                let arg = self.val(tid, *arg);
                let child = self.threads.len() as u32;
                let child_core = child % self.config.num_cores.max(1);
                let f = &comp.funcs[target];
                let vars = draw_regs(&mut self.free_regs, f.num_vars, &[arg]);
                self.threads.push(Thread::new(
                    child,
                    child_core,
                    FuncId(target as u32),
                    f.entry,
                    vars,
                ));
                self.runnable_stale = true;
                if let Some(d) = dst {
                    self.set_slot(tid, *d, child as Value);
                }
                let seq = self.next_seq();
                emit(
                    observers,
                    Event::Spawn {
                        seq,
                        tid,
                        core,
                        child,
                    },
                );
                let seq = self.next_seq();
                emit(
                    observers,
                    Event::Enter {
                        seq,
                        tid: child,
                        core: child_core,
                        func: FuncId(target as u32),
                    },
                );
            }
            COp::ThreadJoin { tid: target } => {
                let target = self.val(tid, *target);
                // Joining an invalid tid is a no-op, like joining an
                // already-detached pthread id.
                if let Some(t) = usize::try_from(target)
                    .ok()
                    .and_then(|t| self.threads.get(t))
                {
                    if t.state != ThreadState::Finished {
                        return Flow::Block(BlockReason::Join(target as u32));
                    }
                }
            }
            COp::MutexLock { addr } => {
                let a = self.val(tid, *addr) as u64;
                if arms(&mut self.threads[tid as usize].top.pre_access_done, a) {
                    self.arm(tid, core, iid, AccessKind::Write, a, observers);
                    return Flow::Armed;
                }
                // Validate the mutex cell is accessible (NULL / freed mutex
                // is the pbzip2 #1 crash).
                if let Err(k) = self.mem.load(a) {
                    return fail(k);
                }
                if self.mutex_owners.contains_key(&a) {
                    // Held by another thread, or by this one: a recursive
                    // lock deadlocks with itself (reported as a deadlock if
                    // nothing wakes it).
                    return Flow::Block(BlockReason::Mutex(a));
                }
                self.mutex_owners.insert(a, tid);
                if let Err(k) = self.mem.store(a, 1) {
                    return fail(k);
                }
                self.emit_mem(observers, tid, core, iid, AccessKind::Write, a, 1);
            }
            COp::MutexUnlock { addr } => {
                let a = self.val(tid, *addr) as u64;
                if arms(&mut self.threads[tid as usize].top.pre_access_done, a) {
                    self.arm(tid, core, iid, AccessKind::Write, a, observers);
                    return Flow::Armed;
                }
                if let Err(k) = self.mem.load(a) {
                    return fail(k);
                }
                if self.mutex_owners.get(&a) != Some(&tid) {
                    return fail(FailureKind::UnlockNotHeld { addr: a });
                }
                self.mutex_owners.remove(&a);
                if let Err(k) = self.mem.store(a, 0) {
                    return fail(k);
                }
                self.emit_mem(observers, tid, core, iid, AccessKind::Write, a, 0);
                self.wake_mutex_waiters(a);
            }
            COp::Assert { cond, msg } => {
                if self.val(tid, *cond) == 0 {
                    return fail(FailureKind::AssertFail {
                        msg: msg.as_ref().to_string(),
                    });
                }
            }
            COp::Print { args } => {
                for &a in args.iter() {
                    let v = self.val(tid, a);
                    self.output.push(v);
                }
            }
            COp::Intrinsic { dst, kind, args } => {
                if let Err(k) = self.intrinsic(tid, core, iid, *dst, *kind, args, observers) {
                    return fail(k);
                }
            }
            COp::ReadInput { dst, index } => {
                let v = self.input_values.get(*index).copied().unwrap_or(0);
                self.set_slot(tid, *dst, v);
            }
            COp::Nop => {}
            COp::Ret { value } => return self.ret(tid, core, iid, *value, observers),
            COp::Unreachable => return fail(FailureKind::UnreachableExecuted),
            COp::Bin { .. }
            | COp::Cmp { .. }
            | COp::Load { .. }
            | COp::Store { .. }
            | COp::Jump { .. }
            | COp::CondBr { .. } => unreachable!("stepped inline by Vm::step_thread"),
        }
        self.threads[tid as usize].top.pc += 1;
        Flow::Retire
    }

    #[allow(clippy::too_many_arguments)]
    fn intrinsic(
        &mut self,
        tid: u32,
        core: u32,
        iid: InstrId,
        dst: Option<u32>,
        kind: gist_ir::IntrinsicKind,
        args: &[Slot],
        observers: &mut [&mut dyn Observer],
    ) -> Result<(), FailureKind> {
        use gist_ir::IntrinsicKind as I;
        let arg = |vm: &Self, i: usize| args.get(i).map(|&a| vm.val(tid, a)).unwrap_or(0);
        let r = match kind {
            I::Strlen => {
                let p = arg(self, 0) as u64;
                let mut len = 0u64;
                loop {
                    match self.mem.load(p + len)? {
                        0 => break,
                        v => {
                            if len == 0 {
                                self.emit_mem(observers, tid, core, iid, AccessKind::Read, p, v);
                            }
                            len += 1;
                        }
                    }
                    if len > 1 << 20 {
                        return Err(FailureKind::Hang);
                    }
                }
                len as Value
            }
            I::Memset => {
                let (p, v, n) = (
                    arg(self, 0) as u64,
                    arg(self, 1),
                    arg(self, 2).max(0) as u64,
                );
                for i in 0..n {
                    self.mem.store(p + i, v)?;
                }
                if n > 0 {
                    self.emit_mem(observers, tid, core, iid, AccessKind::Write, p, v);
                }
                p as Value
            }
            I::Memcpy => {
                let (d, s, n) = (
                    arg(self, 0) as u64,
                    arg(self, 1) as u64,
                    arg(self, 2).max(0) as u64,
                );
                for i in 0..n {
                    let v = self.mem.load(s + i)?;
                    self.mem.store(d + i, v)?;
                }
                if n > 0 {
                    self.emit_mem(observers, tid, core, iid, AccessKind::Write, d, 0);
                }
                d as Value
            }
        };
        if let Some(d) = dst {
            self.set_slot(tid, d, r);
        }
        Ok(())
    }

    /// Resolves a call target to a dense function index.
    fn resolve_callee(
        &self,
        comp: &CompiledProgram,
        tid: u32,
        callee: CCallee,
    ) -> Result<usize, FailureKind> {
        match callee {
            CCallee::Direct(f) => Ok(f as usize),
            CCallee::Indirect(slot) => {
                let v = self.val(tid, slot);
                let idx = v - Program::FUNC_ADDR_BASE;
                if v < Program::FUNC_ADDR_BASE || idx as usize >= comp.funcs.len() {
                    return Err(FailureKind::SegFault { addr: v as u64 });
                }
                Ok(idx as usize)
            }
        }
    }

    /// Enters `callee` with zeroed registers drawn from the free list, the
    /// arguments in the first ones, and suspends the caller after the call.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        comp: &CompiledProgram,
        tid: u32,
        core: u32,
        iid: InstrId,
        dst: Option<u32>,
        callee: CCallee,
        args: &[Slot],
        observers: &mut [&mut dyn Observer],
    ) -> Flow {
        let target = match self.resolve_callee(comp, tid, callee) {
            Ok(f) => f,
            Err(k) => return Flow::Fail(Box::new(k)),
        };
        let f = &comp.funcs[target];
        let t = &mut self.threads[tid as usize];
        let vars = draw_regs(&mut self.free_regs, f.num_vars, &[]);
        let mut frame = Frame::new(FuncId(target as u32), f.entry, vars);
        for (var, &a) in frame.vars.iter_mut().zip(args) {
            *var = slot(&t.top.vars, a);
        }
        frame.ret_dst = dst;
        frame.callsite = Some(iid);
        // Advance past the call before suspending, so `ret` resumes after it.
        t.top.pc += 1;
        let caller = std::mem::replace(&mut t.top, frame);
        t.callers.push(caller);
        if matches!(callee, CCallee::Indirect(_)) {
            self.indirect_transfers += 1;
            let seq = self.next_seq();
            emit(
                observers,
                Event::IndirectTransfer {
                    seq,
                    tid,
                    core,
                    iid,
                    target: f.entry_stmt,
                },
            );
        }
        let seq = self.next_seq();
        emit(
            observers,
            Event::Enter {
                seq,
                tid,
                core,
                func: FuncId(target as u32),
            },
        );
        Flow::Retire
    }

    /// Leaves the running frame: resumes the caller and writes the return
    /// value; the outermost `ret` exits the thread.
    fn ret(
        &mut self,
        tid: u32,
        core: u32,
        iid: InstrId,
        value: Option<Slot>,
        observers: &mut [&mut dyn Observer],
    ) -> Flow {
        let rv = value.map(|v| self.val(tid, v));
        let t = &mut self.threads[tid as usize];
        let Some(caller) = t.callers.pop() else {
            let seq = self.next_seq();
            emit(
                observers,
                Event::Return {
                    seq,
                    tid,
                    core,
                    iid,
                    to: None,
                },
            );
            return Flow::Exited;
        };
        let callee = std::mem::replace(&mut t.top, caller);
        if let (Some(dst), Some(v)) = (callee.ret_dst, rv) {
            t.top.vars[dst as usize] = v;
        }
        self.free_regs.push(callee.vars);
        let to = Some(self.current_stmt(tid));
        let seq = self.next_seq();
        emit(
            observers,
            Event::Return {
                seq,
                tid,
                core,
                iid,
                to,
            },
        );
        Flow::Retire
    }

    fn wake_mutex_waiters(&mut self, addr: u64) {
        for t in &mut self.threads {
            if t.state == ThreadState::Blocked(BlockReason::Mutex(addr)) {
                t.state = ThreadState::Runnable;
                self.runnable_stale = true;
            }
        }
    }

    fn wake_joiners(&mut self, exited: u32) {
        for t in &mut self.threads {
            if t.state == ThreadState::Blocked(BlockReason::Join(exited)) {
                t.state = ThreadState::Runnable;
                self.runnable_stale = true;
            }
        }
    }
}

fn emit(observers: &mut [&mut dyn Observer], ev: Event) {
    for o in observers.iter_mut() {
        o.on_event(&ev);
    }
}

/// Reads an operand against a frame's registers.
#[inline(always)]
fn slot(regs: &[Value], s: Slot) -> Value {
    match s {
        Slot::Const(v) => v,
        Slot::Var(i) => regs[i as usize],
    }
}

/// True on the first step of a two-phase access to a non-NULL address.
///
/// The first scheduling step of a memory access computes its address and
/// emits `PreAccess` (the watchpoint arm point, see [`Vm::arm`]); the
/// access itself executes on a later step, so other threads may interleave
/// in between — as on real hardware. The first step marks the running
/// frame either way; a NULL address gets no arm point, and the access runs
/// at once and faults.
#[inline(always)]
fn arms(pre_access_done: &mut bool, addr: u64) -> bool {
    !std::mem::replace(pre_access_done, true) && addr != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventLog;
    use gist_ir::parser::parse_program;

    fn run_text(text: &str) -> RunResult {
        let p = parse_program("t", text).unwrap();
        Vm::new(&p, VmConfig::default()).run(&mut [])
    }

    fn run_text_cfg(text: &str, cfg: VmConfig) -> RunResult {
        let p = parse_program("t", text).unwrap();
        Vm::new(&p, cfg).run(&mut [])
    }

    #[test]
    fn arithmetic_and_print() {
        let r =
            run_text("fn main() {\nentry:\n  x = const 6\n  y = mul x, 7\n  print y\n  ret\n}\n");
        assert_eq!(r.outcome, RunOutcome::Finished);
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn loop_counts_down() {
        let r = run_text(
            r#"
global n = 5
fn main() {
entry:
  br head
head:
  v = load $n
  c = cmp gt v, 0
  condbr c, body, exit
body:
  d = sub v, 1
  store $n, d
  br head
exit:
  print v
  ret
}
"#,
        );
        assert_eq!(r.outcome, RunOutcome::Finished);
        assert_eq!(r.output, vec![0]);
        assert_eq!(r.branches, 6, "five taken + one not-taken");
    }

    #[test]
    fn call_and_return_value() {
        let r = run_text(
            r#"
fn add1(x) {
entry:
  y = add x, 1
  ret y
}
fn main() {
entry:
  r = call add1(41)
  print r
  ret
}
"#,
        );
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn indirect_call_resolves() {
        let r = run_text(
            r#"
fn double(x) {
entry:
  y = mul x, 2
  ret y
}
fn main() {
entry:
  fp = funcaddr double
  r = icall fp(21)
  print r
  ret
}
"#,
        );
        assert_eq!(r.output, vec![42]);
        assert_eq!(r.indirect_transfers, 1);
    }

    #[test]
    fn null_deref_produces_segfault_report() {
        let r = run_text("fn main() {\nentry:\n  x = load 0\n  ret\n}\n");
        let report = r.outcome.failure().expect("must fail");
        assert!(matches!(report.kind, FailureKind::SegFault { addr: 0 }));
        assert_eq!(report.tid, 0);
        assert_eq!(report.stack.len(), 1);
    }

    #[test]
    fn double_free_detected() {
        let r = run_text("fn main() {\nentry:\n  p = alloc 2\n  free p\n  free p\n  ret\n}\n");
        let report = r.outcome.failure().expect("must fail");
        assert!(matches!(report.kind, FailureKind::DoubleFree { .. }));
    }

    #[test]
    fn assert_failure_carries_message() {
        let r = run_text("fn main() {\nentry:\n  z = const 0\n  assert z, \"boom\"\n  ret\n}\n");
        match &r.outcome.failure().unwrap().kind {
            FailureKind::AssertFail { msg } => assert_eq!(msg, "boom"),
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn div_by_zero_detected() {
        let r = run_text(
            "fn main() {\nentry:\n  a = const 1\n  b = const 0\n  c = div a, b\n  ret\n}\n",
        );
        assert!(matches!(
            r.outcome.failure().unwrap().kind,
            FailureKind::DivByZero
        ));
    }

    #[test]
    fn spawn_join_and_shared_memory() {
        let r = run_text(
            r#"
global x = 0
fn worker(arg) {
entry:
  store $x, arg
  ret
}
fn main() {
entry:
  t = spawn worker(9)
  join t
  v = load $x
  print v
  ret
}
"#,
        );
        assert_eq!(r.outcome, RunOutcome::Finished);
        assert_eq!(r.output, vec![9]);
        assert_eq!(r.threads, 2);
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        // Two threads increment a counter 100 times each under a lock;
        // result must be 200 under any schedule.
        let text = r#"
global m = 0
global count = 0
fn worker(arg) {
entry:
  i = const 0
  br head
head:
  c = cmp lt i, 100
  condbr c, body, exit
body:
  lock $m
  v = load $count
  v2 = add v, 1
  store $count, v2
  unlock $m
  i = add i, 1
  br head
exit:
  ret
}
fn main() {
entry:
  t1 = spawn worker(0)
  t2 = spawn worker(0)
  join t1
  join t2
  v = load $count
  print v
  ret
}
"#;
        for seed in 0..5 {
            let r = run_text_cfg(
                text,
                VmConfig {
                    scheduler: SchedulerKind::Random { seed, preempt: 0.5 },
                    ..VmConfig::default()
                },
            );
            assert_eq!(r.outcome, RunOutcome::Finished, "seed {seed}");
            assert_eq!(r.output, vec![200], "seed {seed}");
        }
    }

    #[test]
    fn racy_increment_loses_updates_on_some_schedule() {
        // Without the lock, some random schedule must lose an update.
        let text = r#"
global count = 0
fn worker(arg) {
entry:
  i = const 0
  br head
head:
  c = cmp lt i, 20
  condbr c, body, exit
body:
  v = load $count
  v2 = add v, 1
  store $count, v2
  i = add i, 1
  br head
exit:
  ret
}
fn main() {
entry:
  t1 = spawn worker(0)
  t2 = spawn worker(0)
  join t1
  join t2
  v = load $count
  print v
  ret
}
"#;
        let mut lost = false;
        for seed in 0..20 {
            let r = run_text_cfg(
                text,
                VmConfig {
                    scheduler: SchedulerKind::Random { seed, preempt: 0.7 },
                    ..VmConfig::default()
                },
            );
            if r.output != vec![40] {
                lost = true;
                break;
            }
        }
        assert!(lost, "expected at least one schedule to lose an update");
    }

    #[test]
    fn deadlock_detected() {
        let text = r#"
global a = 0
global b = 0
fn t2body(arg) {
entry:
  lock $b
  lock $a
  unlock $a
  unlock $b
  ret
}
fn main() {
entry:
  t = spawn t2body(0)
  lock $a
  lock $b
  unlock $b
  unlock $a
  join t
  ret
}
"#;
        // Force the interleaving: main locks a, t2 locks b, then both block.
        let mut deadlocked = false;
        for seed in 0..50 {
            let r = run_text_cfg(
                text,
                VmConfig {
                    scheduler: SchedulerKind::Random { seed, preempt: 0.8 },
                    ..VmConfig::default()
                },
            );
            if let Some(rep) = r.outcome.failure() {
                assert!(matches!(rep.kind, FailureKind::Deadlock));
                deadlocked = true;
                break;
            }
        }
        assert!(deadlocked, "expected some schedule to deadlock");
    }

    #[test]
    fn hang_detected_via_step_budget() {
        let r = run_text_cfg(
            "fn main() {\nentry:\n  br entry\n}\n",
            VmConfig {
                max_steps: 1000,
                ..VmConfig::default()
            },
        );
        assert!(matches!(
            r.outcome.failure().unwrap().kind,
            FailureKind::Hang
        ));
    }

    #[test]
    fn unlock_of_null_mutex_segfaults_like_pbzip2() {
        // The pbzip2 #1 pattern: main frees/NULLs the mutex while the
        // consumer still uses it.
        let text = r#"
fn cons(q) {
entry:
  m = load q
  lock m
  unlock m
  ret
}
fn main() {
entry:
  q = alloc 1
  m = alloc 1
  store q, m
  t = spawn cons(q)
  free m
  store q, 0
  join t
  ret
}
"#;
        let mut segfaulted = false;
        for seed in 0..40 {
            let r = run_text_cfg(
                text,
                VmConfig {
                    scheduler: SchedulerKind::Random { seed, preempt: 0.6 },
                    ..VmConfig::default()
                },
            );
            if let Some(rep) = r.outcome.failure() {
                assert!(
                    matches!(
                        rep.kind,
                        FailureKind::SegFault { .. } | FailureKind::UseAfterFree { .. }
                    ),
                    "unexpected failure {:?}",
                    rep.kind
                );
                segfaulted = true;
            }
        }
        assert!(segfaulted, "some schedule must crash");
    }

    #[test]
    fn string_inputs_are_materialized() {
        let p = parse_program(
            "t",
            r#"
fn main() {
entry:
  s = input 0
  n = strlen s
  print n
  ret
}
"#,
        )
        .unwrap();
        let mut vm = Vm::new(
            &p,
            VmConfig {
                inputs: vec![Input::str_from("{}{")],
                ..VmConfig::default()
            },
        );
        let r = vm.run(&mut []);
        assert_eq!(r.output, vec![3]);
    }

    #[test]
    fn determinism_same_seed_same_event_stream() {
        let text = r#"
global x = 0
fn worker(arg) {
entry:
  v = load $x
  v2 = add v, arg
  store $x, v2
  ret
}
fn main() {
entry:
  t1 = spawn worker(1)
  t2 = spawn worker(2)
  join t1
  join t2
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let events = |seed: u64| {
            let mut log = EventLog::default();
            let cfg = VmConfig {
                scheduler: SchedulerKind::Random { seed, preempt: 0.5 },
                ..VmConfig::default()
            };
            Vm::new(&p, cfg).run(&mut [&mut log]);
            log.events
        };
        assert_eq!(events(42), events(42));
    }

    #[test]
    fn stack_trace_spans_calls() {
        let text = r#"
fn inner(x) {
entry:
  v = load 0
  ret
}
fn outer(x) {
entry:
  r = call inner(x)
  ret
}
fn main() {
entry:
  r = call outer(1)
  ret
}
"#;
        let r = run_text(text);
        let rep = r.outcome.failure().unwrap();
        assert_eq!(rep.stack.len(), 3);
        // Innermost frame is inner's load.
        assert_eq!(rep.stack[0].iid, rep.failing_stmt);
    }

    #[test]
    fn callee_registers_start_zeroed_where_a_deeper_call_left_values() {
        // `mid` and `deep` (one and two frames down) write registers 1-3,
        // and then `probe` gets a frame at mid's depth; its never-written
        // registers 2-4 must still read 0, whether frames take fresh
        // memory, reuse a returned frame's, or share one register stack.
        let r = run_text(
            r#"
fn deep(x) {
entry:
  y = add x, 100
  z = mul y, 3
  ret z
}
fn mid(x) {
entry:
  p = add x, 1
  q = add x, 2
  r = call deep(x)
  ret r
}
fn probe(x) {
entry:
  c = cmp ne x, 0
  condbr c, set, done
set:
  u = const 55
  v = const 56
  w = const 57
  br done
done:
  print u, v, w
  ret
}
fn main() {
entry:
  a = call mid(7)
  print a
  call probe(0)
  ret
}
"#,
        );
        assert_eq!(r.outcome, RunOutcome::Finished);
        assert_eq!(r.output, vec![321, 0, 0, 0]);
    }

    /// `down(n)` recurses n deep and returns n + (n-1) + ... + 1; `base`
    /// is the base case's body before its `ret 0`.
    fn recursion(depth: Value, base: &str) -> (Program, RunResult) {
        let text = format!(
            r#"
fn down(n) {{
entry:
  c = cmp le n, 0
  condbr c, base, step
base:
{base}
  ret 0
step:
  m = sub n, 1
  r = call down(m)
  s = add r, n
  ret s
}}
fn main() {{
entry:
  d = input 0
  v = call down(d)
  print v
  ret
}}
"#
        );
        let p = parse_program("t", &text).unwrap();
        let cfg = VmConfig {
            inputs: vec![Input::Scalar(depth)],
            ..VmConfig::default()
        };
        let r = Vm::new(&p, cfg).run(&mut []);
        (p, r)
    }

    #[test]
    fn deep_recursion_returns_the_right_value() {
        let (_, r) = recursion(300, "");
        assert_eq!(r.outcome, RunOutcome::Finished);
        assert_eq!(r.output, vec![300 * 301 / 2]);
    }

    #[test]
    fn failure_at_the_bottom_of_deep_recursion_reports_every_frame() {
        // The base case loads from address n = 0: a segfault 301 frames
        // down (300 recursive calls below main's).
        let (p, r) = recursion(300, "  v = load n");
        let rep = r.outcome.failure().expect("the NULL load must fail");
        assert!(matches!(rep.kind, FailureKind::SegFault { addr: 0 }));
        let func = |name: &str| p.function_by_name(name).unwrap();
        let call_in = |name: &str| {
            func(name)
                .blocks
                .iter()
                .flat_map(|b| &b.instrs)
                .find(|i| matches!(i.op, gist_ir::Op::Call { .. }))
                .unwrap()
                .id
        };
        let (down, main) = (func("down").id, func("main").id);
        assert_eq!(rep.stack.len(), 302);
        // Innermost first: the failing load, then each caller at its call.
        assert_eq!(
            rep.stack[0],
            StackFrame {
                func: down,
                iid: rep.failing_stmt
            }
        );
        for f in &rep.stack[1..301] {
            assert_eq!(
                *f,
                StackFrame {
                    func: down,
                    iid: call_in("down")
                }
            );
        }
        assert_eq!(
            rep.stack[301],
            StackFrame {
                func: main,
                iid: call_in("main")
            }
        );
    }

    #[test]
    fn retired_per_core_sums_to_steps() {
        let text = r#"
fn worker(arg) {
entry:
  x = add arg, 1
  ret
}
fn main() {
entry:
  t1 = spawn worker(0)
  t2 = spawn worker(1)
  t3 = spawn worker(2)
  join t1
  join t2
  join t3
  ret
}
"#;
        let r = run_text(text);
        assert_eq!(r.outcome, RunOutcome::Finished);
        let total: u64 = r.retired_per_core.iter().sum();
        assert_eq!(total, r.steps);
        assert!(r.retired_per_core.iter().filter(|&&c| c > 0).count() > 1);
    }

    #[test]
    fn output_reflects_partial_progress_on_failure() {
        let r = run_text("fn main() {\nentry:\n  x = const 1\n  print x\n  y = load 0\n  ret\n}\n");
        assert!(r.outcome.failure().is_some());
        assert_eq!(r.output, vec![1]);
    }

    #[test]
    fn stack_overflow_faults_instead_of_aliasing_the_next_stack() {
        // Main's allocation would cross its 1 MiB region into thread 1's;
        // the worker's store must not land in main's cell.
        let r = run_text(
            r#"
fn worker(arg) {
entry:
  s = stackalloc 1
  store s, 9
  ret
}
fn main() {
entry:
  s = stackalloc 1048577
  top = gep s, 1048576
  store top, 7
  t = spawn worker(0)
  join t
  v = load top
  print v
  ret
}
"#,
        );
        let report = r.outcome.failure().expect("the overflow must fail");
        assert_eq!(
            report.kind,
            FailureKind::SegFault {
                addr: crate::mem::STACK_BASE + crate::mem::STACK_SIZE
            }
        );
        assert!(r.output.is_empty());
    }

    #[test]
    fn scratch_reuse_is_behaviorally_identical() {
        let text = r#"
global x = 3
fn main() {
entry:
  p = alloc 4
  store p, 11
  v = load p
  w = load $x
  s = add v, w
  print s
  free p
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let mut scratch = VmScratch::default();
        for _ in 0..3 {
            let mut vm = Vm::with_scratch(&p, Arc::clone(&compiled), VmConfig::default(), scratch);
            let mut log = EventLog::default();
            let r = vm.run(&mut [&mut log]);
            assert_eq!(r.outcome, RunOutcome::Finished);
            assert_eq!(r.output, vec![14]);
            scratch = vm.into_scratch();

            let mut fresh_log = EventLog::default();
            let fr = Vm::new(&p, VmConfig::default()).run(&mut [&mut fresh_log]);
            assert_eq!(fr.output, r.output);
            assert_eq!(fresh_log.events, log.events, "scratch must not leak state");
        }
    }
}
