//! The client-side runtime tracker: executes an instrumentation patch
//! during a production run.
//!
//! A patch is prepared once ([`PreparedPatch`]: the patch, its dense
//! per-statement index and the program's PT code map) and shared by
//! `Arc` with every run that carries it, as Gist ships one patch to every
//! endpoint of a watch group (§4). [`TrackerRuntime::new`] prepares a
//! patch for a single run; [`TrackerRuntime::with_prepared`] takes a shared
//! one, and the two give the same run trace.
//!
//! A run pays for tracking only where the hardware would raise events.
//! The tracker's [`DeliveryFilter`] tells the VM which events it needs:
//! any event on a *hot* core (PT enabled, a trace window open, a resume
//! pending, or no PT buffer yet), a `Retired` at a PT stop or start
//! point, a `PreAccess` at a watch arm point, and a `Mem` inside an armed
//! debug register. The VM builds no other `Retired`, `Branch`,
//! `IndirectTransfer`, `PreAccess` or `Mem` event for it, and these are
//! exactly the ones on which [`TrackerRuntime`] would do nothing. Of the
//! events that arrive, one from a thread with tracing off and no open
//! window still does not reach the tracer ([`PtTracer::idle`]).
//!
//! An endpoint stays up between runs, so a tracker is reusable:
//! [`TrackerRuntime::reset`] readies it for the next run under that run's
//! patch. It keeps the PT buffers, trace windows, debug registers and
//! per-statement bitmap of its previous runs, emptied in place, and a
//! reset tracker gives the same run trace as a new one.

use std::collections::BTreeSet;
use std::sync::Arc;

use gist_ir::{InstrId, Program};
use gist_pt::{CodeMap, DecodeError, DecodedTrace, PtConfig, PtDriver, PtTracer, TraceBuffer};
use gist_vm::{DeliveryFilter, Event, Observer};
use gist_watch::{WatchCondition, WatchError, WatchHit, WatchUnit};

use crate::patch::InstrumentationPatch;

/// Everything one tracked production run sends back to Gist's server:
/// decoded control flow, ordered data-flow hits, discovered statements,
/// and cost counters.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// Decoded per-core control flow.
    pub decoded: DecodedTrace,
    /// Watchpoint hits in global (total) order.
    pub hits: Vec<WatchHit>,
    /// Journal seq of the `watch.hit` event for each entry of `hits`
    /// (parallel vector; 0 for an event that was not recorded). Lets the
    /// server build sketch-step provenance chains without re-deriving
    /// attribution.
    pub hit_events: Vec<u64>,
    /// Journal seq of this run's `pt.decoded` event (0 when not recorded).
    pub decode_event: u64,
    /// Tracked statements that actually executed (slice ∩ executed —
    /// refinement's "remove statements that don't get executed", §3).
    pub executed_tracked: BTreeSet<InstrId>,
    /// Statements discovered by watchpoints that were *not* tracked —
    /// the alias-analysis gap the runtime closes (§3.2.3).
    pub discovered: BTreeSet<InstrId>,
    /// Branch outcomes at tracked conditional branches: `(tid, stmt, taken)`.
    pub branches: Vec<(u32, InstrId, bool)>,
    /// Encoded PT bytes produced.
    pub pt_bytes: usize,
    /// PT driver on/off transitions (ioctl count).
    pub pt_transitions: u64,
    /// Statements retired while PT was on.
    pub traced_retired: u64,
    /// Watchpoint traps delivered.
    pub watch_traps: u64,
    /// ptrace-style debug-register operations.
    pub ptrace_ops: u64,
    /// Accesses that should have been watched but found no free slot
    /// (would be covered by another cooperative run).
    pub missed_arms: u64,
}

/// Per-statement patch bit: arm a watchpoint at this access.
const P_WATCH: u8 = 1;
/// Per-statement patch bit: stop tracing after this statement retires.
const P_OFF_AFTER: u8 = 2;
/// Per-statement patch bit: start tracing after this statement retires.
const P_ON_AFTER: u8 = 4;
/// Per-statement patch bit: resume tracing when a `ret` returns here.
const P_ON_RETURN_TO: u8 = 8;
/// Per-statement patch bit: the statement is tracked.
const P_TRACKED: u8 = 16;

// Each armed debug register is one range of the delivery filter.
const _: () = assert!(gist_watch::NUM_SLOTS <= gist_vm::LiveFilter::RANGES);

/// A patch prepared for execution: the patch plus the dense lookups every
/// run under it consults, so neither the per-event hot path (`on_event`
/// runs for every retired statement and memory access of the production
/// run) nor `finish` probes a `BTreeSet` or walks the IR. Immutable once
/// built: prepare a shipped patch once and share it by `Arc` with every
/// run that carries it.
#[derive(Debug)]
pub struct PreparedPatch {
    patch: InstrumentationPatch,
    /// OR of `P_*` bits per statement, indexed by `InstrId`; shared with
    /// the delivery filter of every run under the patch.
    stmt: Arc<[u8]>,
    /// Functions with a start point at their entry, indexed by `FuncId`.
    on_enter: Vec<bool>,
    /// The program's code map, which the tracer and the decoder read.
    code: CodeMap,
}

impl PreparedPatch {
    /// Indexes `patch` over `program`'s statements and functions.
    pub fn new(program: &Program, patch: InstrumentationPatch) -> Self {
        let mut stmt = vec![0u8; program.stmt_count()];
        let mut mark = |set: &BTreeSet<InstrId>, bit: u8| {
            for s in set {
                stmt[s.index()] |= bit;
            }
        };
        mark(&patch.watch_accesses, P_WATCH);
        mark(&patch.pt_off_after, P_OFF_AFTER);
        mark(&patch.pt_on_after, P_ON_AFTER);
        mark(&patch.pt_on_return_to, P_ON_RETURN_TO);
        mark(&patch.tracked, P_TRACKED);
        let mut on_enter = vec![false; program.functions.len()];
        for f in &patch.pt_on_enter {
            on_enter[f.index()] = true;
        }
        PreparedPatch {
            patch,
            stmt: stmt.into(),
            on_enter,
            code: CodeMap::new(program),
        }
    }

    /// The patch itself.
    pub fn patch(&self) -> &InstrumentationPatch {
        &self.patch
    }

    /// True if `stmt` is one of the patch's tracked statements.
    fn tracks(&self, stmt: InstrId) -> bool {
        self.stmt
            .get(stmt.index())
            .is_some_and(|bits| bits & P_TRACKED != 0)
    }
}

/// The runtime tracker. Attach to a VM run as an [`Observer`]; call
/// [`TrackerRuntime::finish`] afterwards to decode and collect the trace,
/// and [`TrackerRuntime::reset`] before running it again.
pub struct TrackerRuntime {
    prepared: Arc<PreparedPatch>,
    tracer: PtTracer,
    watch: WatchUnit,
    /// Cores with a resume point pending until the `ret` retires, indexed
    /// by core and grown on first sight of a core. The VM emits
    /// `Return { to }` while executing the `ret`, before its `Retired`
    /// event; applying the resume immediately would let a `pt_off_after`
    /// on the `ret` itself clobber it.
    pending_resume: Vec<bool>,
    missed_arms: u64,
    /// Per statement: executed in the decoded trace (built by `finish`).
    executed: Vec<bool>,
    /// What the VM delivers to this tracker. Its per-statement bits are
    /// the patch's, and its live part follows the tracer's per-core state,
    /// the pending resumes and the armed debug registers: `on_event`
    /// updates it where they change.
    filter: DeliveryFilter,
}

impl TrackerRuntime {
    /// Creates a tracker for one run under the given patch, preparing the
    /// patch for this run alone. Runs that share a patch should prepare it
    /// once and use [`TrackerRuntime::with_prepared`]; both give the same
    /// run trace.
    pub fn new(program: &Program, patch: InstrumentationPatch, num_cores: u32) -> Self {
        let prepared = Arc::new(PreparedPatch::new(program, patch));
        Self::with_prepared(program, prepared, num_cores)
    }

    /// Creates a tracker for one run under a patch prepared for `program`.
    pub fn with_prepared(program: &Program, prepared: Arc<PreparedPatch>, num_cores: u32) -> Self {
        debug_assert_eq!(
            prepared.stmt.len(),
            program.stmt_count(),
            "patch of another program"
        );
        let tracer = PtTracer::with_code_map(
            prepared.code.clone(),
            PtDriver::new(),
            PtConfig {
                num_cores,
                ..PtConfig::default()
            },
        );
        let filter = DeliveryFilter::new(
            Arc::clone(&prepared.stmt),
            P_OFF_AFTER | P_ON_AFTER,
            P_WATCH,
            Arc::default(),
        );
        let mut tracker = TrackerRuntime {
            prepared,
            tracer,
            watch: WatchUnit::new(),
            pending_resume: vec![false; num_cores.max(1) as usize],
            missed_arms: 0,
            executed: Vec::new(),
            filter,
        };
        tracker.start();
        tracker
    }

    /// Readies the tracker for its next run, under `prepared`, from any
    /// state: a finished run or one cut short. It then gives the same run
    /// trace as [`TrackerRuntime::with_prepared`] with the core count it
    /// was built for; the PT tracer, the debug registers and the
    /// per-core state and the delivery filter are emptied in place rather
    /// than rebuilt.
    pub fn reset(&mut self, prepared: Arc<PreparedPatch>) {
        self.tracer.reset(prepared.code.clone());
        self.watch.reset();
        self.pending_resume.fill(false);
        self.missed_arms = 0;
        self.filter.reset(Arc::clone(&prepared.stmt));
        self.prepared = prepared;
        self.start();
    }

    /// Applies the patch's run-start state to the PT driver, and marks
    /// which cores start hot.
    fn start(&mut self) {
        if self.prepared.patch.pt_on_at_start {
            // A tracked statement sits in the program entry's first block
            // (or this is a full-trace plan): tracing starts enabled.
            self.tracer.driver_mut().set_default(true);
        }
        for core in 0..self.tracer.buffers().len() as u32 {
            self.refresh(core);
        }
    }

    /// Recomputes whether `core` is hot: unless the tracer is idle there
    /// and no resume is pending on it, the VM delivers every event of the
    /// core.
    fn refresh(&self, core: u32) {
        let pending = self.pending_resume.get(core as usize) == Some(&true);
        self.filter
            .live()
            .set_hot(core, pending || !self.tracer.idle_core(core));
    }

    /// Decodes the PT trace in place and packages the run's results. The
    /// tracker stays whole; [`TrackerRuntime::reset`] readies it for
    /// another run.
    pub fn finish(&mut self) -> RunTrace {
        self.tracer.finish();
        let pt_bytes = self.tracer.total_bytes();
        let traced_retired = self.tracer.traced_retired();
        let prepared = &*self.prepared;
        let decoded = decode(&prepared.code, self.tracer.buffers()).unwrap_or_else(|e| {
            // An undecodable trace yields an empty one; refinement then
            // simply learns nothing from this run. Surface in tests via
            // debug assertions.
            debug_assert!(false, "PT decode failed: {e}");
            DecodedTrace::default()
        });
        let decode_event = gist_obs::event!(TraceDecoded {
            stmts: decoded.per_core.iter().map(Vec::len).sum::<usize>() as u64,
            branches: decoded.branches.len() as u64,
            bytes: pt_bytes as u64,
        });
        // A per-statement bitmap of the decoded trace: cheaper than
        // hashing every executed statement into a set.
        let executed = &mut self.executed;
        executed.clear();
        executed.resize(prepared.stmt.len(), false);
        for &(_, s) in decoded.per_core.iter().flatten() {
            if let Some(e) = executed.get_mut(s.index()) {
                *e = true;
            }
        }
        let executed_tracked: BTreeSet<InstrId> = prepared
            .patch
            .tracked
            .iter()
            .copied()
            .filter(|s| executed[s.index()])
            .collect();
        let hits = self.watch.take_hits();
        let discovered: BTreeSet<InstrId> = hits
            .iter()
            .map(|h| h.iid)
            .filter(|&s| !prepared.tracks(s))
            .collect();
        // One journal event per hit, in the same (total) order as `hits`;
        // `hit_events[i]` is the provenance anchor for `hits[i]`.
        let hit_events: Vec<u64> = hits
            .iter()
            .map(|h| {
                gist_obs::event!(WatchHit {
                    iid: h.iid.0,
                    addr: h.addr,
                    value: h.value,
                    hit_seq: h.seq,
                    hit_tid: h.tid,
                    discovered: !prepared.tracks(h.iid),
                })
            })
            .collect();
        let branches: Vec<(u32, InstrId, bool)> = decoded
            .branches
            .iter()
            .filter(|&&(_, s, _)| prepared.tracks(s))
            .map(|&(t, s, k)| (t, s, k))
            .collect();
        gist_obs::counter!("tracking.runs_traced").inc();
        gist_obs::counter!("tracking.discovered_stmts").add(discovered.len() as u64);
        gist_obs::counter!("tracking.missed_arms").add(self.missed_arms);
        gist_obs::histogram!("tracking.hits_per_run").record(hits.len() as u64);
        RunTrace {
            decoded,
            hits,
            hit_events,
            decode_event,
            executed_tracked,
            discovered,
            branches,
            pt_bytes,
            pt_transitions: self.tracer.driver().transitions(),
            traced_retired,
            watch_traps: self.watch.traps(),
            ptrace_ops: self.watch.ptrace_ops(),
            missed_arms: self.missed_arms,
        }
    }
}

impl Observer for TrackerRuntime {
    fn on_event(&mut self, ev: &Event) {
        // The PT hardware sees each event before the patch acts on it. An
        // event of a thread with tracing off and no open window stops at
        // this check.
        let core = ev.core();
        let mut changed = !self.tracer.idle(core, ev.tid());
        if changed {
            self.tracer.handle(ev);
        }
        match ev {
            // Arm a watchpoint at planned access sites at the PreAccess
            // (address computation) step, which executes *before* the
            // access — "the inserted hardware watchpoint must be located
            // before the access and after the immediate dominator of that
            // access" (§3.2.3). Other threads may interleave between the
            // arm point and the access, which is exactly how Gist captures
            // the remote racing access. Stack addresses are never watched.
            Event::PreAccess {
                iid,
                addr,
                is_stack: false,
                ..
            } if self.prepared.stmt[iid.index()] & P_WATCH != 0 => {
                match self.watch.set(*addr, 1, WatchCondition::ReadWrite) {
                    Ok(slot) => self.filter.live().arm(slot, *addr..*addr + 1),
                    // Another cooperative run covers this address.
                    Err(WatchError::NoFreeSlot) => self.missed_arms += 1,
                    Err(_) => {}
                }
            }
            // Memory accesses feed the debug registers.
            Event::Mem {
                seq,
                tid,
                core,
                iid,
                kind,
                addr,
                value,
                ..
            } => {
                self.watch
                    .check_access(*seq, *tid, *core, *iid, *kind, *addr, *value);
            }
            // Control-flow toggles fire after the statement completes, on
            // the executing thread's core (Intel PT is per-core).
            Event::Retired { iid, .. } => {
                let bits = self.prepared.stmt[iid.index()];
                let driver = self.tracer.driver_mut();
                if bits & P_OFF_AFTER != 0 {
                    driver.trace_off(core);
                }
                if bits & P_ON_AFTER != 0 {
                    driver.trace_on(core);
                }
                // A resume point deferred from the `Return` event takes
                // effect once the `ret` itself has retired (and any stop on
                // it has been applied) — control is now at the return
                // target.
                let resume = self
                    .pending_resume
                    .get_mut(core as usize)
                    .is_some_and(std::mem::take);
                if resume {
                    driver.trace_on(core);
                }
                changed |= resume || bits & (P_OFF_AFTER | P_ON_AFTER) != 0;
            }
            // Function-entry start points (tracked statements in callee /
            // thread-routine entry blocks) fire in the entering thread.
            Event::Enter { func, .. } if self.prepared.on_enter[func.index()] => {
                self.tracer.driver_mut().trace_on(core);
                changed = true;
            }
            // Resume points: returning to the statement after a callsite
            // whose callee stopped tracing re-enables it. The VM emits
            // `Return` before the `ret`'s `Retired`, so defer the actual
            // toggle to the Retired arm; enabling here would be undone by a
            // `pt_off_after` stop on the `ret` itself.
            Event::Return { to: Some(to), .. }
                if self.prepared.stmt[to.index()] & P_ON_RETURN_TO != 0 =>
            {
                let c = core as usize;
                if self.pending_resume.len() <= c {
                    self.pending_resume.resize(c + 1, false);
                }
                self.pending_resume[c] = true;
                changed = true;
            }
            _ => {}
        }
        if changed {
            self.refresh(core);
        }
    }

    fn filter(&self) -> Option<&DeliveryFilter> {
        Some(&self.filter)
    }
}

/// Decodes one run's PT streams, counting an undecodable run in
/// `tracking.undecodable_runs`: release builds have no other sign of one.
/// The counter registers at its first increment, so it is in no metrics
/// snapshot while every run decodes.
fn decode(code: &CodeMap, traces: &[TraceBuffer]) -> Result<DecodedTrace, DecodeError> {
    let decoded = gist_pt::decode(code, traces);
    if decoded.is_err() {
        gist_obs::counter!("tracking.undecodable_runs").inc();
    }
    decoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::icfg::Icfg;
    use gist_ir::parser::parse_program;
    use gist_slicing::StaticSlicer;
    use gist_vm::{RunOutcome, SchedulerKind, Vm, VmConfig};

    use crate::plan::Planner;

    const PBZIP_MINI: &str = r#"
fn cons(q) {
entry:
  m = load q        @ pbzip2.c:40
  lock m            @ pbzip2.c:41
  unlock m          @ pbzip2.c:43
  ret               @ pbzip2.c:44
}
fn main() {
entry:
  q = alloc 1       @ pbzip2.c:10
  mu = alloc 1      @ pbzip2.c:11
  store q, mu       @ pbzip2.c:11
  t = spawn cons(q) @ pbzip2.c:13
  free mu           @ pbzip2.c:20
  store q, 0        @ pbzip2.c:21
  join t            @ pbzip2.c:22
  ret               @ pbzip2.c:23
}
"#;

    /// Runs PBZIP_MINI with a patch planned from the *alias-free* static
    /// slice of the `lock m` criterion (the paper's configuration — no
    /// static alias analysis — so the racing store stays outside the slice
    /// and must be discovered by watchpoints); returns (outcome was
    /// failure, trace).
    fn run_tracked(seed: u64, sigma: usize) -> (bool, RunTrace) {
        let p = parse_program("pbzip2-mini", PBZIP_MINI).unwrap();
        let cons = p.function_by_name("cons").unwrap();
        let crit = cons.blocks[0].instrs[1].id; // lock m
        let slicer = StaticSlicer::new(&p);
        let slice = slicer.compute_without_alias(crit);
        let planner = Planner::new(&p, slicer.ticfg());
        let patch = planner.plan(slice.prefix(sigma), 0);
        let mut tracker = TrackerRuntime::new(&p, patch, 4);
        let cfg = VmConfig {
            scheduler: SchedulerKind::Random { seed, preempt: 0.6 },
            ..VmConfig::default()
        };
        let mut vm = Vm::new(&p, cfg);
        let r = vm.run(&mut [&mut tracker]);
        (matches!(r.outcome, RunOutcome::Failed(_)), tracker.finish())
    }

    #[test]
    fn executed_tracked_is_subset_of_tracked() {
        let (_, trace) = run_tracked(1, 4);
        // By construction every executed_tracked member is tracked.
        assert!(trace
            .executed_tracked
            .iter()
            .all(|s| trace.decoded.executed().contains(s)));
    }

    #[test]
    fn watchpoints_discover_alias_missed_store() {
        // Some schedule must (a) arm the watchpoint at `m = load q` and
        // (b) see main's `store q, 0` hit it — the statement static
        // slicing missed (no alias analysis).
        let p = parse_program("pbzip2-mini", PBZIP_MINI).unwrap();
        let main = p.function_by_name("main").unwrap();
        let store_null = main.blocks[0].instrs[5].id;
        let mut found = false;
        for seed in 0..60 {
            let (_, trace) = run_tracked(seed, 8);
            if trace.discovered.contains(&store_null) {
                found = true;
                // The hit log totally orders the racing accesses.
                let seqs: Vec<u64> = trace.hits.iter().map(|h| h.seq).collect();
                assert!(seqs.windows(2).all(|w| w[0] < w[1]));
                break;
            }
        }
        assert!(found, "no schedule discovered the aliasing store");
    }

    #[test]
    fn tracing_produces_transitions_and_bytes() {
        let (_, trace) = run_tracked(3, 4);
        assert!(trace.pt_transitions > 0, "driver toggled");
        assert!(trace.pt_bytes > 0, "some trace emitted");
        assert!(trace.traced_retired > 0);
    }

    #[test]
    fn branches_filtered_to_tracked() {
        let text = r#"
global g = 0
fn main() {
entry:
  n = const 3
  br head
head:
  v = load $g
  c = cmp lt v, 3
  condbr c, body, exit
body:
  v2 = add v, 1
  store $g, v2
  br head
exit:
  w = load $g
  assert w, "boom"
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let main = &p.functions[0];
        let exit_b = main.blocks.iter().find(|b| b.label == "exit").unwrap();
        let crit = exit_b.instrs[1].id;
        let slicer = StaticSlicer::new(&p);
        let slice = slicer.compute(crit);
        let planner = Planner::new(&p, slicer.ticfg());
        // Track the whole slice: includes the loop condbr via control dep.
        let patch = planner.plan(&slice.ordered, 0);
        let head = main.blocks.iter().find(|b| b.label == "head").unwrap();
        let condbr = head.term.id();
        assert!(patch.tracked.contains(&condbr), "condbr in slice");
        let mut tracker = TrackerRuntime::new(&p, patch, 4);
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracker]);
        let trace = tracker.finish();
        let outcomes: Vec<bool> = trace
            .branches
            .iter()
            .filter(|(_, s, _)| *s == condbr)
            .map(|&(_, _, t)| t)
            .collect();
        assert_eq!(outcomes, vec![true, true, true, false]);
    }

    #[test]
    fn full_trace_patch_traces_whole_run() {
        let p = parse_program("pbzip2-mini", PBZIP_MINI).unwrap();
        let ticfg = Icfg::build_ticfg(&p);
        let planner = Planner::new(&p, &ticfg);
        let patch = planner.plan_full_trace();
        let mut tracker = TrackerRuntime::new(&p, patch, 4);
        let mut vm = Vm::new(&p, VmConfig::default());
        let r = vm.run(&mut [&mut tracker]);
        let trace = tracker.finish();
        // Every retired statement decoded.
        assert_eq!(trace.traced_retired, r.steps);
        assert_eq!(
            trace.decoded.per_core.iter().map(Vec::len).sum::<usize>() as u64,
            r.steps
        );
    }

    #[test]
    fn stack_accesses_never_armed() {
        let text = r#"
fn main() {
entry:
  s = stackalloc 2
  store s, 7
  v = load s
  assert v, "x"
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let main = &p.functions[0];
        let all: Vec<InstrId> = main.blocks[0].instrs.iter().map(|i| i.id).collect();
        let ticfg = Icfg::build_ticfg(&p);
        let planner = Planner::new(&p, &ticfg);
        let mut patch = planner.plan(&all, 0);
        // Force the store into the watch plan to exercise the runtime
        // stack guard as well.
        patch.watch_accesses.insert(main.blocks[0].instrs[1].id);
        let mut tracker = TrackerRuntime::new(&p, patch, 4);
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracker]);
        let trace = tracker.finish();
        assert_eq!(trace.watch_traps, 0, "stack addresses are never watched");
    }

    /// What a run trace says about the run itself: its executed and
    /// discovered statements, hits and branches, without the per-core
    /// layout of the decoded trace or journal seq-nos.
    fn observed(trace: &RunTrace) -> impl PartialEq + std::fmt::Debug {
        (
            trace
                .decoded
                .executed()
                .into_iter()
                .collect::<BTreeSet<_>>(),
            trace.executed_tracked.clone(),
            trace.discovered.clone(),
            trace.hits.clone(),
            trace.branches.clone(),
        )
    }

    /// A worker on core 1 calls `leaf`, which stops tracing; the resume
    /// point after the call restarts it, and the worker's store arms a
    /// watchpoint that it and both threads' later loads hit.
    const RESUME_ON_CORE_1: &str = r#"
global g = 0
fn leaf(x) {
entry:
  y = add x, 1
  ret y
}
fn worker(a) {
entry:
  r = call leaf(a)
  store $g, r
  v = load $g
  c = cmp gt v, 0
  condbr c, yes, no
yes:
  ret
no:
  ret
}
fn main() {
entry:
  t = spawn worker(1)
  join t
  w = load $g
  print w
  ret
}
"#;

    /// A tracker built for fewer cores than the VM schedules onto grows
    /// its per-core state instead of indexing out of bounds, and sees the
    /// run as a tracker built for the VM's cores does.
    #[test]
    fn tracker_grows_when_vm_uses_more_cores_than_it_was_built_for() {
        let p = parse_program("resume", RESUME_ON_CORE_1).unwrap();
        let (leaf, worker) = (
            p.function_by_name("leaf").unwrap(),
            p.function_by_name("worker").unwrap(),
        );
        let w = &worker.blocks[0];
        let (store, load, condbr) = (w.instrs[1].id, w.instrs[2].id, w.term.id());
        let patch = InstrumentationPatch {
            pt_on_enter: [worker.id].into(),
            pt_off_after: [leaf.blocks[0].instrs[0].id].into(),
            pt_on_return_to: [store].into(),
            watch_accesses: [store].into(),
            tracked: [store, load, condbr].into(),
            ..InstrumentationPatch::default()
        };
        let trace_with = |tracker_cores: u32| {
            let mut tracker = TrackerRuntime::new(&p, patch.clone(), tracker_cores);
            let cfg = VmConfig {
                num_cores: 4,
                ..VmConfig::default()
            };
            let r = Vm::new(&p, cfg).run(&mut [&mut tracker]);
            assert_eq!(r.outcome, RunOutcome::Finished);
            tracker.finish()
        };
        let (narrow, wide) = (trace_with(1), trace_with(4));
        assert_eq!(wide.executed_tracked, patch.tracked, "the resume traced");
        assert_eq!(wide.hits.len(), 3, "the store and both loads hit");
        assert_eq!(wide.branches, vec![(1, condbr, true)]);
        assert_eq!(observed(&narrow), observed(&wide));
    }

    /// Counts the events the VM delivers to a tracker under its filter.
    struct Counted<'a>(&'a mut TrackerRuntime, usize);

    impl Observer for Counted<'_> {
        fn on_event(&mut self, ev: &Event) {
            self.1 += 1;
            self.0.on_event(ev);
        }

        fn filter(&self) -> Option<&DeliveryFilter> {
            self.0.filter()
        }
    }

    /// The VM holds back the events the tracker would ignore, and the
    /// tracker sees the run as one fed every event does: main's load after
    /// the join, on a core where tracing never runs, still hits the
    /// worker's armed watchpoint.
    #[test]
    fn filter_holds_back_only_what_the_tracker_ignores() {
        let p = parse_program("resume", RESUME_ON_CORE_1).unwrap();
        let (leaf, worker) = (
            p.function_by_name("leaf").unwrap(),
            p.function_by_name("worker").unwrap(),
        );
        let w = &worker.blocks[0];
        let store = w.instrs[1].id;
        let patch = InstrumentationPatch {
            pt_on_enter: [worker.id].into(),
            pt_off_after: [leaf.blocks[0].instrs[0].id].into(),
            pt_on_return_to: [store].into(),
            watch_accesses: [store].into(),
            tracked: [store, w.instrs[2].id, w.term.id()].into(),
            ..InstrumentationPatch::default()
        };
        let mut log = gist_vm::event::EventLog::default();
        Vm::new(&p, VmConfig::default()).run(&mut [&mut log]);
        let mut fed = TrackerRuntime::new(&p, patch.clone(), 4);
        for ev in &log.events {
            fed.on_event(ev);
        }
        let mut filtered = TrackerRuntime::new(&p, patch, 4);
        let mut counted = Counted(&mut filtered, 0);
        Vm::new(&p, VmConfig::default()).run(&mut [&mut counted]);
        assert!(
            counted.1 < log.events.len(),
            "{} of {} events delivered",
            counted.1,
            log.events.len()
        );
        let (a, b) = (filtered.finish(), fed.finish());
        assert_eq!(a.hits.len(), 3, "the store and both loads hit");
        assert_eq!(observed(&a), observed(&b));
    }

    /// A tracker reset after a run cut short (trace windows open, slots
    /// armed, tracing on) traces the next run as a new tracker does.
    #[test]
    fn reset_tracker_matches_a_new_one() {
        let p = parse_program("pbzip2-mini", PBZIP_MINI).unwrap();
        let ticfg = Icfg::build_ticfg(&p);
        let planner = Planner::new(&p, &ticfg);
        let full = Arc::new(PreparedPatch::new(&p, planner.plan_full_trace()));
        let all: Vec<InstrId> = p.all_stmt_ids().collect();
        let partial = Arc::new(PreparedPatch::new(&p, planner.plan(&all[..4], 0)));
        let mut reused = TrackerRuntime::with_prepared(&p, Arc::clone(&full), 2);
        for seed in 0..6 {
            let cfg = VmConfig {
                scheduler: SchedulerKind::Random { seed, preempt: 0.6 },
                ..VmConfig::default()
            };
            let mut log = gist_vm::event::EventLog::default();
            Vm::new(&p, cfg.clone()).run(&mut [&mut log]);
            // Cut the previous patch's run short halfway.
            for ev in &log.events[..log.events.len() / 2] {
                reused.on_event(ev);
            }
            let patch = if seed % 2 == 0 { &partial } else { &full };
            reused.reset(Arc::clone(patch));
            let mut fresh = TrackerRuntime::with_prepared(&p, Arc::clone(patch), 2);
            Vm::new(&p, cfg.clone()).run(&mut [&mut reused]);
            Vm::new(&p, cfg).run(&mut [&mut fresh]);
            let (mut a, mut b) = (reused.finish(), fresh.finish());
            for t in [&mut a, &mut b] {
                t.hit_events.clear();
                t.decode_event = 0;
            }
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
            reused.reset(Arc::clone(&full));
        }
    }

    #[test]
    fn undecodable_run_is_counted() {
        use gist_pt::Packet;
        // `hostile-tid-max` of the hostile corpus in `tests/pt_roundtrip.rs`:
        // a window opened at `inc`'s first statement by a tid no dense
        // table could hold, whose walk meets `ret y` (a decision point)
        // before the window's end at `main`'s first statement.
        let p = parse_program(
            "prop",
            r#"
fn inc(x) {
entry:
  y = add x, 1
  ret y
}
fn main() {
entry:
  n = const 3
  f = funcaddr inc
  br head
head:
  c = cmp gt n, 0
  condbr c, body, exit
body:
  n = sub n, 1
  m = icall f(n)
  br head
exit:
  print n
  ret
}
"#,
        )
        .unwrap();
        let mut stream = TraceBuffer::new();
        for packet in [
            Packet::Psb,
            Packet::Pip { tid: u32::MAX },
            Packet::Pge { ip: InstrId(0) },
            Packet::Pgd { ip: InstrId(2) },
        ] {
            stream.push(&packet);
        }
        let undecodable = gist_obs::counter_by_name("tracking.undecodable_runs");
        let before = undecodable.get();
        assert!(decode(&CodeMap::new(&p), &[stream]).is_err());
        assert_eq!(undecodable.get(), before + 1);
    }
}
