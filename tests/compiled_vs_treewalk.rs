//! Differential test: the precompiled execution engine against the legacy
//! tree-walking interpreter.
//!
//! The compiled engine (`gist_vm::Vm`) replaced the tree-walk interpreter
//! on the hot path; the old engine is kept behind the `treewalk` feature
//! as the semantic oracle. Both engines must produce identical run
//! results, identical observer event streams, and — through a full
//! `TrackerRuntime` with a planned patch — identical tracker views
//! (watchpoint hits, decoded traces, executed and discovered sets):
//!
//! * for every bugbase program over a spread of scheduler seeds, including
//!   a seed where the bug manifests;
//! * for generated programs that reach what the bugbase never executes:
//!   every binary operator and comparison, the three intrinsics, memory in
//!   every segment, loops, direct, indirect and recursive calls, and one to
//!   three threads.
//!
//! Both engines pick threads with the same `RandomScheduler`, so their
//! agreement cannot show a defect in the pick. Under a random schedule,
//! the compiled engine therefore also runs with a test-local scheduler
//! that computes each pick from the float formula, and must give the same
//! run result and event stream.
//!
//! A fleet executor keeps its VM scratch and its tracker from run to run.
//! Each test carries one `VmScratch` through all of its cases, and one
//! tracker per core count, which is reset for each case after it has
//! seen half of a run (trace windows open, watchpoints armed, a resume
//! pending). Every such recycled run must equal the fresh compiled run
//! in run result, event stream and tracker view.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use gist_bugbase::all_bugs;
use gist_ir::parser::parse_program;
use gist_ir::{BinKind, CmpKind, InstrId, Program};
use gist_slicing::StaticSlicer;
use gist_tracking::{InstrumentationPatch, Planner, PreparedPatch, RunTrace, TrackerRuntime};
use gist_vm::event::EventLog;
use gist_vm::{
    CompiledProgram, Event, Input, Observer, RunResult, Scheduler, SchedulerKind, TreeWalkVm, Vm,
    VmConfig, VmScratch,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn planned_patch(bug: &gist_bugbase::BugSpec) -> InstrumentationPatch {
    let (_, report) = bug.find_failure(2_000).expect("bug manifests");
    let slicer = StaticSlicer::new(&bug.program);
    let slice = slicer.compute(report.failing_stmt);
    let planner = Planner::new(&bug.program, slicer.ticfg());
    planner.plan(slice.prefix(8), 0)
}

/// One engine's view of a run: result, observed event stream, and the
/// tracker's trace.
type EngineRun = (RunResult, EventLog, RunTrace);

fn run_compiled(program: &Program, patch: &InstrumentationPatch, cfg: VmConfig) -> EngineRun {
    let mut log = EventLog::default();
    let mut tracker = TrackerRuntime::new(program, patch.clone(), cfg.num_cores);
    let result = Vm::new(program, cfg).run(&mut [&mut log, &mut tracker]);
    (result, log, tracker.finish())
}

fn run_treewalk(program: &Program, patch: &InstrumentationPatch, cfg: VmConfig) -> EngineRun {
    let mut log = EventLog::default();
    let mut tracker = TrackerRuntime::new(program, patch.clone(), cfg.num_cores);
    let result = TreeWalkVm::new(program, cfg).run(&mut [&mut log, &mut tracker]);
    (result, log, tracker.finish())
}

/// What a fleet executor carries from run to run: one VM scratch, and one
/// tracker per core count (a tracker is built for a core count).
#[derive(Default)]
struct Recycled {
    scratch: VmScratch,
    trackers: BTreeMap<u32, TrackerRuntime>,
}

thread_local! {
    /// The generated-program cases' recycled state: proptest runs every
    /// case on the test's thread.
    static RECYCLED: RefCell<Recycled> = RefCell::default();
}

/// Where a run of `patch` is cut short: just after the first `ret` whose
/// return site resumes tracing, whose resume is then pending; else
/// halfway.
fn cut_point(events: &[Event], patch: &InstrumentationPatch) -> usize {
    events
        .iter()
        .position(|e| {
            matches!(e, Event::Return { to: Some(to), .. } if patch.pt_on_return_to.contains(to))
        })
        .map_or(events.len() / 2, |i| i + 1)
}

/// Runs the compiled engine on `recycled`'s VM scratch and its tracker for
/// `cfg.num_cores`. The tracker first sees `events` (a run of this program
/// under `patch`) up to their [`cut_point`], and is reset from there.
fn run_recycled(
    program: &Program,
    patch: &InstrumentationPatch,
    cfg: VmConfig,
    events: &[Event],
    recycled: &mut Recycled,
) -> EngineRun {
    let prepared = Arc::new(PreparedPatch::new(program, patch.clone()));
    let tracker = recycled.trackers.entry(cfg.num_cores).or_insert_with(|| {
        TrackerRuntime::with_prepared(program, Arc::clone(&prepared), cfg.num_cores)
    });
    tracker.reset(Arc::clone(&prepared));
    for ev in &events[..cut_point(events, patch)] {
        tracker.on_event(ev);
    }
    tracker.reset(prepared);
    let compiled = Arc::new(CompiledProgram::compile(program));
    let scratch = std::mem::take(&mut recycled.scratch);
    let mut vm = Vm::with_scratch(program, compiled, cfg, scratch);
    let mut log = EventLog::default();
    let result = vm.run(&mut [&mut log, tracker]);
    recycled.scratch = vm.into_scratch();
    (result, log, tracker.finish())
}

/// The random scheduler's pick before its integer threshold, draw for
/// draw: a float draw against `preempt` keeps the last thread, else
/// `gen_range` picks one. A copy of `float_formula_pick` in the unit
/// tests of `crates/vm/src/sched.rs`.
struct FloatFormulaScheduler {
    rng: StdRng,
    preempt: f64,
    last: Option<u32>,
}

impl Scheduler for FloatFormulaScheduler {
    fn pick(&mut self, runnable: &[u32]) -> u32 {
        if let Some(l) = self.last {
            if runnable.contains(&l) && self.rng.gen::<f64>() >= self.preempt {
                return l;
            }
        }
        let choice = runnable[self.rng.gen_range(0..runnable.len())];
        self.last = Some(choice);
        choice
    }
}

/// Asserts that two runs give the same result and event stream.
fn assert_runs_equal(a: (&RunResult, &EventLog), b: (&RunResult, &EventLog), what: &str) {
    // RunResult and RunTrace hold floats/maps-free plain data; Debug
    // rendering is a total, field-exhaustive comparison that keeps this
    // test independent of PartialEq coverage.
    assert_eq!(
        format!("{:?}", a.0),
        format!("{:?}", b.0),
        "{what}: run results diverge"
    );
    assert_eq!(
        a.1.events.len(),
        b.1.events.len(),
        "{what}: event counts diverge"
    );
    for (i, (ea, eb)) in a.1.events.iter().zip(b.1.events.iter()).enumerate() {
        assert_eq!(ea, eb, "{what}: event {i} diverges");
    }
}

/// Runs both engines and asserts they agree; `what` names the run in
/// failure messages. The compiled engine must also agree with itself run
/// on `recycled` state, and, under a random schedule, run under
/// [`FloatFormulaScheduler`].
fn assert_engines_agree(
    program: &Program,
    patch: &InstrumentationPatch,
    cfg: &VmConfig,
    what: &str,
    recycled: &mut Recycled,
) {
    let (res_c, log_c, trace_c) = run_compiled(program, patch, cfg.clone());
    let (res_t, log_t, trace_t) = run_treewalk(program, patch, cfg.clone());
    assert_runs_equal((&res_c, &log_c), (&res_t, &log_t), what);
    let trace_c = format!("{:?}", without_journal_seqs(trace_c));
    assert_eq!(
        trace_c,
        format!("{:?}", without_journal_seqs(trace_t)),
        "{what}: tracker traces diverge"
    );
    let (res_r, log_r, trace_r) =
        run_recycled(program, patch, cfg.clone(), &log_c.events, recycled);
    let recycled_what = format!("{what} (recycled)");
    assert_runs_equal((&res_c, &log_c), (&res_r, &log_r), &recycled_what);
    assert_eq!(
        trace_c,
        format!("{:?}", without_journal_seqs(trace_r)),
        "{recycled_what}: tracker traces diverge"
    );
    if let SchedulerKind::Random { seed, preempt } = cfg.scheduler {
        let mut sched = FloatFormulaScheduler {
            rng: StdRng::seed_from_u64(seed),
            preempt: preempt.clamp(0.0, 1.0),
            last: None,
        };
        let mut log = EventLog::default();
        let res = Vm::new(program, cfg.clone()).run_with(&mut sched, &mut [&mut log]);
        assert_runs_equal(
            (&res_c, &log_c),
            (&res, &log),
            &format!("{what} (float-formula picks)"),
        );
    }
}

/// The trace with its journal sequence numbers zeroed: they number
/// process-wide journal events, so they differ between any two runs.
fn without_journal_seqs(mut trace: RunTrace) -> RunTrace {
    trace.hit_events.iter_mut().for_each(|s| *s = 0);
    trace.decode_event = 0;
    trace
}

#[test]
fn engines_agree_on_every_bug() {
    let mut recycled = Recycled::default();
    for bug in all_bugs() {
        let patch = planned_patch(&bug);
        let (failing_seed, _) = bug.find_failure(2_000).expect("bug manifests");
        // A spread of schedules plus one that provably fails; dedup keeps
        // the failing seed from running twice when it is already below 4.
        let mut seeds = vec![0, 1, 2, 3, failing_seed];
        seeds.dedup();
        for seed in seeds {
            let what = format!("{} seed {seed}", bug.name);
            let cfg = bug.vm_config(seed);
            assert_engines_agree(&bug.program, &patch, &cfg, &what, &mut recycled);
        }
    }
}

const BIN_KINDS: [BinKind; 10] = [
    BinKind::Add,
    BinKind::Sub,
    BinKind::Mul,
    BinKind::Div,
    BinKind::Rem,
    BinKind::And,
    BinKind::Or,
    BinKind::Xor,
    BinKind::Shl,
    BinKind::Shr,
];

const CMP_KINDS: [CmpKind; 6] = [
    CmpKind::Eq,
    CmpKind::Ne,
    CmpKind::Lt,
    CmpKind::Le,
    CmpKind::Gt,
    CmpKind::Ge,
];

/// The registers generated code computes with. Every function reads them
/// freely, so many reads hit a register its frame never wrote, which must
/// read 0.
const VARS: [&str; 6] = ["a", "b", "x", "y", "z", "w"];

/// Immediates: the edges of wrapping arithmetic, shift amounts around
/// the 63 mask, and zero for division.
const CONSTS: [i64; 11] = [0, 1, -1, 2, 3, 7, -9, 63, 64, i64::MAX, i64::MIN];

/// Appends one formatted statement line to a [`ProgramGen`]; the format
/// arguments are evaluated before the generator is borrowed to write.
macro_rules! emit {
    ($g:expr, $($fmt:tt)*) => {{
        let line = format!($($fmt)*);
        $g.line(&line);
    }};
}

/// Writes one random MiniC program as text, from a seed.
///
/// The program has one to three `leafK(a, b)` functions (each may call
/// lower-numbered leaves, directly or through `funcaddr`/`icall`), a
/// recursive `rec(a, b)` at most 15 deep, zero to two workers that loop
/// over a mutex-protected update of a shared global, and `main`, which
/// spawns and joins the workers. Every body is a random sequence of
/// segments (see [`ProgramGen::segment`]); a few of them fail on purpose,
/// so failure reports are compared too.
struct ProgramGen {
    rng: StdRng,
    text: String,
    labels: u32,
}

/// What a segment may call from where it is generated.
#[derive(Clone, Copy)]
struct Scope {
    /// Leaves `0..leaves` are callable.
    leaves: u32,
    /// `rec` is callable.
    rec: bool,
    /// Loop nesting depth (loop counters are `i0`, `i1`).
    depth: u32,
}

impl ProgramGen {
    fn generate(seed: u64) -> String {
        let mut g = ProgramGen {
            rng: StdRng::seed_from_u64(seed),
            text: String::new(),
            labels: 0,
        };
        g.text.push_str(
            "global g0 = 5\nglobal g1 = -3\nglobal m = 0\n\
             global arr[4] = [9, -2, 7, 0]\nglobal str[5] = [103, 105, 115, 116, 0]\n",
        );
        let leaves = g.rng.gen_range(1..=3u32);
        for k in 0..leaves {
            g.leaf(k);
        }
        g.rec(leaves);
        let workers = g.rng.gen_range(0..=2u32);
        for k in 0..workers {
            g.worker(k, leaves);
        }
        g.main(leaves, workers);
        g.text
    }

    fn line(&mut self, s: &str) {
        self.text.push_str("  ");
        self.text.push_str(s);
        self.text.push('\n');
    }

    fn block(&mut self, label: &str) {
        let _ = writeln!(self.text, "{label}:");
    }

    fn label(&mut self, stem: &str) -> String {
        self.labels += 1;
        format!("{stem}{}", self.labels)
    }

    fn var(&mut self) -> &'static str {
        VARS[self.rng.gen_range(0..VARS.len())]
    }

    fn constant(&mut self) -> i64 {
        CONSTS[self.rng.gen_range(0..CONSTS.len())]
    }

    fn operand(&mut self) -> String {
        if self.rng.gen_bool(0.6) {
            self.var().to_owned()
        } else {
            self.constant().to_string()
        }
    }

    fn bin(&mut self, dst: &str) {
        let kind = BIN_KINDS[self.rng.gen_range(0..BIN_KINDS.len())];
        let a = self.operand();
        // Mostly a non-zero immediate divisor, so division by zero fails
        // some runs rather than most.
        let b = if matches!(kind, BinKind::Div | BinKind::Rem) && self.rng.gen_bool(0.8) {
            [1i64, -1, 2, 3, 7, -9, i64::MIN][self.rng.gen_range(0..7usize)].to_string()
        } else {
            self.operand()
        };
        emit!(self, "{dst} = {} {a}, {b}", kind.mnemonic());
    }

    fn segments(&mut self, scope: Scope, count: std::ops::RangeInclusive<u32>) {
        for _ in 0..self.rng.gen_range(count) {
            self.segment(scope);
        }
    }

    /// Emits one random segment: a few statements that are valid wherever
    /// they are placed (they read any register, and dereference only
    /// pointers they computed themselves, unless they fail on purpose).
    fn segment(&mut self, scope: Scope) {
        match self.rng.gen_range(0..20u32) {
            0..=3 => {
                let d = self.var();
                self.bin(d);
            }
            4 | 5 => {
                let (d, a, b) = (self.var(), self.operand(), self.operand());
                let kind = CMP_KINDS[self.rng.gen_range(0..CMP_KINDS.len())];
                emit!(self, "{d} = cmp {} {a}, {b}", kind.mnemonic());
            }
            6 => {
                let (d, c) = (self.var(), self.constant());
                emit!(self, "{d} = const {c}");
            }
            7 => {
                // Globals: scalars directly, the array through a gep.
                let (d, v) = (self.var(), self.operand());
                match self.rng.gen_range(0..4u32) {
                    0 => emit!(self, "{d} = load $g{}", self.rng.gen_range(0..2)),
                    1 => emit!(self, "store $g{}, {v}", self.rng.gen_range(0..2)),
                    _ => {
                        emit!(self, "p = gep $arr, {}", self.rng.gen_range(0..4));
                        emit!(self, "store p, {v}");
                        emit!(self, "{d} = load p");
                    }
                }
            }
            8 => {
                // Heap: allocate, write and read a cell, maybe free.
                let n = self.rng.gen_range(1..=4);
                let (d, v) = (self.var(), self.operand());
                emit!(self, "p = alloc {n}");
                emit!(self, "q = gep p, {}", self.rng.gen_range(0..n));
                emit!(self, "store q, {v}");
                emit!(self, "{d} = load q");
                if self.rng.gen_bool(0.6) {
                    self.line("free p");
                }
            }
            9 => {
                // Stack: the same on the running thread's stack.
                let n = self.rng.gen_range(1..=4);
                let (d, v) = (self.var(), self.operand());
                emit!(self, "s = stackalloc {n}");
                emit!(self, "q = gep s, {}", self.rng.gen_range(0..n));
                emit!(self, "store q, {v}");
                emit!(self, "{d} = load q");
            }
            10 => self.intrinsic(),
            11 if scope.depth < 2 => self.counted_loop(scope),
            11 | 12 => self.branch(scope),
            13 if scope.leaves > 0 => {
                let (d, a, b) = (self.var(), self.operand(), self.operand());
                let k = self.rng.gen_range(0..scope.leaves);
                if self.rng.gen_bool(0.5) {
                    emit!(self, "{d} = call leaf{k}({a}, {b})");
                } else {
                    emit!(self, "fp = funcaddr leaf{k}");
                    emit!(self, "{d} = icall fp({a}, {b})");
                }
            }
            14 if scope.rec => {
                let (d, a, b) = (self.var(), self.operand(), self.operand());
                emit!(self, "n = and {a}, 15");
                emit!(self, "{d} = call rec(n, {b})");
            }
            15 => {
                let (a, b) = (self.operand(), self.operand());
                emit!(self, "print {a}, {b}");
            }
            16 => {
                let d = self.var();
                emit!(self, "{d} = input {}", self.rng.gen_range(0..3));
            }
            17 => {
                // A critical section around a shared global.
                let d = self.var();
                self.line("lock $m");
                emit!(self, "{d} = load $g0");
                self.bin(d);
                emit!(self, "store $g0, {d}");
                self.line("unlock $m");
            }
            18 if self.rng.gen_bool(0.3) => self.hazard(),
            _ => self.line("nop"),
        }
    }

    fn intrinsic(&mut self) {
        let d = self.var();
        match self.rng.gen_range(0..4u32) {
            0 => emit!(self, "{d} = strlen $str"),
            1 => {
                // A heap string: one written cell, then the NUL.
                let v = self.rng.gen_range(1..100);
                self.line("p = alloc 2");
                emit!(self, "store p, {v}");
                emit!(self, "{d} = strlen p");
            }
            2 => {
                let n = self.rng.gen_range(1..=4);
                let (v, len) = (self.operand(), self.rng.gen_range(0..=n));
                emit!(self, "p = alloc {n}");
                emit!(self, "q = memset p, {v}, {len}");
                emit!(self, "{d} = load q");
            }
            _ => {
                let len = self.rng.gen_range(0..=4);
                if self.rng.gen_bool(0.5) {
                    self.line("p = alloc 4");
                } else {
                    self.line("p = stackalloc 4");
                }
                emit!(self, "memcpy p, $arr, {len}");
                emit!(self, "q = gep p, {}", self.rng.gen_range(0..4));
                emit!(self, "{d} = load q");
            }
        }
    }

    /// A loop of 0–3 iterations over the depth's own counter.
    fn counted_loop(&mut self, scope: Scope) {
        let (i, c) = (format!("i{}", scope.depth), format!("c{}", scope.depth));
        let (head, body, exit) = (self.label("head"), self.label("body"), self.label("exit"));
        emit!(self, "{i} = const {}", self.rng.gen_range(0..4));
        emit!(self, "br {head}");
        self.block(&head);
        emit!(self, "{c} = cmp gt {i}, 0");
        emit!(self, "condbr {c}, {body}, {exit}");
        self.block(&body);
        let inner = Scope {
            depth: scope.depth + 1,
            ..scope
        };
        self.segments(inner, 1..=3);
        emit!(self, "{i} = sub {i}, 1");
        emit!(self, "br {head}");
        self.block(&exit);
    }

    /// An if/else whose arms write different registers, so later reads
    /// see registers written on one path only.
    fn branch(&mut self, scope: Scope) {
        let (then_b, else_b, join) = (self.label("then"), self.label("else"), self.label("join"));
        let (c, a, b) = (self.var(), self.operand(), self.operand());
        let kind = CMP_KINDS[self.rng.gen_range(0..CMP_KINDS.len())];
        emit!(self, "{c} = cmp {} {a}, {b}", kind.mnemonic());
        emit!(self, "condbr {c}, {then_b}, {else_b}");
        self.block(&then_b);
        self.segments(scope, 1..=2);
        emit!(self, "br {join}");
        self.block(&else_b);
        self.segments(scope, 0..=2);
        emit!(self, "br {join}");
        self.block(&join);
    }

    /// A statement that fails the run, or may: each failure kind the VM
    /// reports, and the no-op join of a tid that does not exist.
    fn hazard(&mut self) {
        let v = self.var();
        match self.rng.gen_range(0..9u32) {
            0 => emit!(self, "y = load {v}"),
            1 => {
                self.line("p = alloc 1");
                self.line("free p");
                self.line("free p");
            }
            2 => {
                self.line("p = alloc 1");
                self.line("free p");
                self.line("y = load p");
            }
            3 => emit!(self, "free {v}"),
            4 => emit!(self, "assert {v}, \"generated\""),
            5 => self.line("unlock $m"),
            6 => self.line("s = stackalloc 1048577"),
            7 => emit!(self, "join {v}"),
            _ => {
                let (bad, ok) = (self.label("bad"), self.label("ok"));
                emit!(self, "condbr {v}, {bad}, {ok}");
                self.block(&bad);
                self.line("unreachable");
                self.block(&ok);
            }
        }
    }

    fn leaf(&mut self, k: u32) {
        let _ = writeln!(self.text, "fn leaf{k}(a, b) {{\nentry:");
        let scope = Scope {
            leaves: k,
            rec: false,
            depth: 0,
        };
        self.segments(scope, 1..=4);
        let r = self.var();
        emit!(self, "ret {r}");
        self.text.push_str("}\n");
    }

    /// `rec(a, b)` recurses `a` times (callers pass `a` masked to 0..=15)
    /// and may call every leaf on the way down and back up.
    fn rec(&mut self, leaves: u32) {
        self.text.push_str("fn rec(a, b) {\nentry:\n");
        let scope = Scope {
            leaves,
            rec: false,
            depth: 0,
        };
        self.line("x = cmp le a, 0");
        self.line("condbr x, base, step");
        self.block("base");
        self.segments(scope, 0..=2);
        self.line("ret b");
        self.block("step");
        self.line("a = sub a, 1");
        let kind = ["add", "xor", "mul", "sub"][self.rng.gen_range(0..4usize)];
        emit!(self, "b = {kind} b, a");
        self.line("y = call rec(a, b)");
        self.segments(scope, 0..=2);
        let r = self.var();
        emit!(self, "ret {r}");
        self.text.push_str("}\n");
    }

    fn worker(&mut self, k: u32, leaves: u32) {
        let _ = writeln!(self.text, "fn worker{k}(a) {{\nentry:");
        let scope = Scope {
            leaves,
            rec: true,
            depth: 1,
        };
        let (head, body, exit) = (self.label("head"), self.label("body"), self.label("exit"));
        emit!(self, "i0 = const {}", self.rng.gen_range(1..4));
        emit!(self, "br {head}");
        self.block(&head);
        self.line("c0 = cmp gt i0, 0");
        emit!(self, "condbr c0, {body}, {exit}");
        self.block(&body);
        self.line("lock $m");
        self.line("x = load $g0");
        self.line("x = add x, a");
        self.line("store $g0, x");
        self.line("unlock $m");
        self.segments(scope, 0..=2);
        self.line("i0 = sub i0, 1");
        emit!(self, "br {head}");
        self.block(&exit);
        let r = self.var();
        emit!(self, "ret {r}");
        self.text.push_str("}\n");
    }

    fn main(&mut self, leaves: u32, workers: u32) {
        self.text.push_str("fn main() {\nentry:\n");
        let scope = Scope {
            leaves,
            rec: true,
            depth: 0,
        };
        self.segments(scope, 1..=3);
        for k in 0..workers {
            let a = self.operand();
            emit!(self, "t{k} = spawn worker{k}({a})");
            self.segments(scope, 0..=2);
        }
        self.segments(scope, 1..=3);
        for k in 0..workers {
            emit!(self, "join t{k}");
        }
        self.segments(scope, 0..=2);
        self.line("print a, b, x, y, z, w");
        self.line("ret");
        self.text.push_str("}\n");
    }
}

/// A patch over 1–8 random statements, in watch group 0 or 1.
fn random_patch(program: &Program, rng: &mut StdRng) -> InstrumentationPatch {
    let stmts: Vec<InstrId> = program.all_stmt_ids().collect();
    let tracked: Vec<InstrId> = (0..rng.gen_range(1..=8))
        .map(|_| stmts[rng.gen_range(0..stmts.len())])
        .collect();
    let slicer = StaticSlicer::new(program);
    Planner::new(program, slicer.ticfg()).plan(&tracked, rng.gen_range(0..2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Generated programs reach every operator, comparison and intrinsic,
    /// and the call, memory and thread paths the bugbase leaves out.
    #[test]
    fn engines_agree_on_generated_programs(seed in 0u64..u64::MAX) {
        let text = ProgramGen::generate(seed);
        let program = parse_program("generated", &text)
            .unwrap_or_else(|e| panic!("seed {seed}: generated program does not parse: {e:?}\n{text}"));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let patch = random_patch(&program, &mut rng);
        let cfg = VmConfig {
            scheduler: SchedulerKind::Random {
                seed: rng.gen(),
                preempt: 0.5,
            },
            inputs: vec![Input::Scalar(rng.gen_range(-4..5)), Input::str_from("gist")],
            max_steps: 20_000,
            num_cores: rng.gen_range(1..=4),
        };
        let what = format!("seed {seed}\n{text}");
        RECYCLED.with(|r| assert_engines_agree(&program, &patch, &cfg, &what, &mut r.borrow_mut()));
    }
}
