//! The simulated endpoint fleet.
//!
//! Batched collection runs on a *persistent* worker pool with static
//! chunking (see DESIGN.md "Fleet architecture"): workers are created once
//! per [`SimulatedFleet`], each batch's pre-materialized descriptor array is
//! split into one contiguous chunk per executor, chunks travel to the
//! workers over channels, and the dispatching thread runs chunk 0 itself
//! before collecting the workers' results in executor order — so output is
//! in run-id order by construction, with no result slots, lock or sort.
//!
//! Each executor is one endpoint, and like Gist's endpoints it stays up
//! between runs (§4): it keeps its VM scratch (memory segments, thread
//! table, register files) and its tracker (PT buffers, trace windows and
//! driver, debug registers) from run to run, and
//! [`TrackerRuntime::reset`] readies the tracker for the next run's patch.
//! Both keep allocations, not state: every table is emptied, every
//! register file zeroed and every buffer cleared before a run uses them,
//! so a run's result cannot depend on which executor ran it or on what
//! that executor ran before. Executors share nothing mutable.
//!
//! [`SimulatedFleet`] prepares a patch (its dense index and the program's
//! PT code map) once, when `next_run` first sees it, and every batch
//! carries that immutable [`PreparedPatch`] by `Arc` to the runs that
//! execute it.
//!
//! Both blocking receives of a batch — a worker's wait for its next chunk
//! and the dispatcher's wait for a worker's result — go through
//! `recv_polling`: poll the channel for a few of the executor's own
//! chunk times, and only then park. Waking a parked thread costs about as
//! much as one tracked run, and every batch would pay it on both sides, so
//! a fleet driven batch after batch never parks, while an idle fleet's
//! workers still do. The bound is derived from the chunk time rather than
//! configured: it scales with the work on any host.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gist_core::{ClientRunData, Fleet};
use gist_ir::Program;
use gist_obs::{Histogram, HistogramSnapshot};
use gist_tracking::{InstrumentationPatch, PreparedPatch, TrackerRuntime};
use gist_vm::{CompiledProgram, RunOutcome, Vm, VmConfig, VmScratch};

/// Fleet configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of simulated endpoints (the paper used 1,136).
    pub endpoints: u32,
    /// Virtual cores per endpoint machine.
    pub num_cores: u32,
    /// Collect runs in parallel batches of this size on the persistent
    /// worker pool (1 = sequential, no pool). Determinism per run is
    /// unaffected: seeds are assigned before dispatch.
    pub batch: usize,
    /// Worker threads backing the pool. The dispatching thread always
    /// participates as executor 0, so total parallelism is `workers + 1`.
    /// `None` derives from [`std::thread::available_parallelism`] (cores −
    /// 1); `Some(n)` forces exactly `n` threads — tests use this to
    /// exercise real cross-thread chunks even on small machines. Either
    /// way the count is capped at `batch − 1` (more executors than runs
    /// per batch would only idle).
    pub workers: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            endpoints: 64,
            num_cores: 4,
            batch: 1,
            workers: None,
        }
    }
}

/// Worker threads the machine supports beyond the dispatching thread.
fn machine_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_sub(1)
}

/// Cumulative per-executor contention statistics (executor 0 is the
/// dispatching thread). Harvested via [`SimulatedFleet::contention_stats`].
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Runs this executor completed.
    pub runs: u64,
    /// Batches this executor participated in.
    pub batches: u64,
    /// Always 0: executors run only their own static chunk and never
    /// steal. Kept so existing readers of the field still compile.
    pub steals: u64,
    /// Always 0: there is no decode cache, every run decodes cold. Kept
    /// so existing readers of the field still compile.
    pub shard_hits: u64,
    /// Always 0, like [`WorkerStats::shard_hits`].
    pub shard_misses: u64,
    /// Per-batch microseconds spent waiting for the next chunk, polling
    /// first and then parked (see `recv_polling`). An owned histogram,
    /// never registered: contention is scheduling-dependent, so it must
    /// stay out of the global registry, whose snapshots are part of the
    /// determinism contract.
    wait_hist: Histogram,
}

impl WorkerStats {
    /// Distribution of per-batch chunk wait times, in microseconds.
    pub fn wait_hist(&self) -> HistogramSnapshot {
        self.wait_hist.snapshot()
    }

    fn absorb_chunk(&mut self, done: &ChunkDone) {
        self.runs += done.runs.len() as u64;
        self.batches += 1;
        self.wait_hist.record(done.waited_us);
    }
}

/// Contention statistics for every executor of a fleet, in executor order
/// (index 0 = the dispatching thread).
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// One entry per executor.
    pub workers: Vec<WorkerStats>,
}

/// Read-only state every pool executor runs against.
struct PoolEnv {
    /// Owned clone of the fleet's program: worker threads are `'static`,
    /// so they cannot borrow the caller's `&Program`. The compilation is
    /// not cloned: every executor shares the fleet's one `Arc`.
    program: Arc<Program>,
    compiled: Arc<CompiledProgram>,
    make_config: fn(u64) -> VmConfig,
    num_cores: u32,
}

/// One batch, shared by every executor's chunk.
struct Batch {
    /// `(run id, workload seed)`, in run-id order.
    descriptors: Vec<(u64, u64)>,
    patch: Arc<PreparedPatch>,
    /// Span parent for worker spans (typically `server.collect`).
    parent: gist_obs::SpanHandle,
}

/// The contiguous slice of a batch one executor runs.
struct Chunk {
    batch: Arc<Batch>,
    range: Range<usize>,
}

/// One executor's output for one batch: its runs in run-id order plus
/// the tallies merged into its [`WorkerStats`].
struct ChunkDone {
    runs: Vec<ClientRunData>,
    /// Time the worker spent waiting on its job channel before this chunk
    /// (0 for the dispatching thread).
    waited_us: u64,
}

/// One pool thread and the dispatcher's ends of its two channels.
struct PoolWorker {
    jobs: Sender<Chunk>,
    results: Receiver<ChunkDone>,
    stats: WorkerStats,
    handle: std::thread::JoinHandle<()>,
}

/// The persistent worker pool of one fleet.
struct FleetPool {
    env: Arc<PoolEnv>,
    workers: Vec<PoolWorker>,
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        // Closing a job channel ends that worker's receive loop.
        let handles: Vec<_> = self.workers.drain(..).map(|w| w.handle).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// How many of an executor's own last chunk times it polls a channel
/// before parking. The next chunk (or a peer's result, which is a chunk of
/// the same size) normally arrives well within one chunk time; a few
/// leave room for an uneven split and a slow run.
const POLL_CHUNKS: u32 = 4;

/// Receives the next message on `rx`: polls with `try_recv` for up to
/// `poll`, then parks in a blocking `recv`. `None` once every sender is
/// gone, in either phase.
fn recv_polling<T>(rx: &Receiver<T>, poll: Duration) -> Option<T> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(msg) => return Some(msg),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if start.elapsed() >= poll => return rx.recv().ok(),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
}

/// Body of one pool worker thread: runs chunks until its job channel
/// closes. A panic unwinds the thread and drops `results`, which the
/// dispatcher observes as a failed receive.
fn worker_loop(env: Arc<PoolEnv>, jobs: Receiver<Chunk>, results: Sender<ChunkDone>) {
    let mut scratch = VmScratch::default();
    let mut tracker = None;
    // No chunk has run yet, so there is no chunk time to poll for.
    let mut poll = Duration::ZERO;
    loop {
        let wait_start = Instant::now();
        let Some(chunk) = recv_polling(&jobs, poll) else {
            return;
        };
        let started = Instant::now();
        let mut done = run_chunk(&env, &chunk, &mut scratch, &mut tracker);
        poll = started.elapsed() * POLL_CHUNKS;
        done.waited_us = started.duration_since(wait_start).as_micros() as u64;
        if results.send(done).is_err() {
            return;
        }
    }
}

/// Executes one chunk. Shared by pool workers and the dispatching thread
/// (executor 0). On return, all of this executor's journal events are in
/// the global sink.
fn run_chunk(
    env: &PoolEnv,
    chunk: &Chunk,
    scratch: &mut VmScratch,
    tracker: &mut Option<TrackerRuntime>,
) -> ChunkDone {
    let batch = &chunk.batch;
    let runs = {
        // One worker span per batch, not per run: the span registry is
        // touched once.
        let _span = gist_obs::span_under(&batch.parent, "fleet.worker");
        batch.descriptors[chunk.range.clone()]
            .iter()
            .map(|&(id, seed)| {
                execute_one(
                    &env.program,
                    &env.compiled,
                    env.make_config,
                    env.num_cores,
                    scratch,
                    tracker,
                    &batch.patch,
                    id,
                    seed,
                )
            })
            .collect()
    };
    // Batch boundary: persistent workers outlive many batches, so their
    // thread-exit flush comes far too late — push buffered events into
    // the journal ring here so the dispatching thread's drain (and any
    // `drain_since` cursor tailing the diagnosis) sees this batch.
    gist_obs::journal::flush_local();
    ChunkDone { runs, waited_us: 0 }
}

/// Executes one run on the executor's recycled VM scratch and tracker
/// (built at the executor's first run, reset for each later one).
#[allow(clippy::too_many_arguments)]
fn execute_one(
    program: &Program,
    compiled: &Arc<CompiledProgram>,
    make_config: fn(u64) -> VmConfig,
    num_cores: u32,
    scratch: &mut VmScratch,
    tracker: &mut Option<TrackerRuntime>,
    patch: &Arc<PreparedPatch>,
    run_id: u64,
    seed: u64,
) -> ClientRunData {
    gist_obs::event!(RunStarted { run: run_id, seed });
    let mut cfg = make_config(seed);
    cfg.num_cores = num_cores;
    if let Some(tracker) = tracker {
        tracker.reset(Arc::clone(patch));
    }
    let tracker = tracker.get_or_insert_with(|| {
        TrackerRuntime::with_prepared(program, Arc::clone(patch), num_cores)
    });
    let mut vm = Vm::with_scratch(program, Arc::clone(compiled), cfg, std::mem::take(scratch));
    let result = vm.run(&mut [tracker]);
    let data = ClientRunData {
        run_id,
        outcome: match result.outcome {
            RunOutcome::Failed(r) => Some(r),
            RunOutcome::Finished => None,
        },
        trace: tracker.finish(),
        retired: result.steps,
    };
    gist_obs::event!(RunFinished {
        run: run_id,
        failing: data.outcome.is_some(),
        retired: result.steps,
        hits: data.trace.hits.len() as u64,
    });
    *scratch = vm.into_scratch();
    data
}

/// A fleet of simulated endpoints executing one program under a seeded
/// workload. Implements [`Fleet`] for the Gist server.
pub struct SimulatedFleet<'p> {
    program: &'p Program,
    make_config: fn(u64) -> VmConfig,
    config: FleetConfig,
    compiled: Arc<CompiledProgram>,
    /// Executor-0 VM scratch and tracker (the dispatching thread's), used
    /// by both the sequential path and pooled batches.
    main_scratch: VmScratch,
    main_tracker: Option<TrackerRuntime>,
    main_stats: WorkerStats,
    /// Lazily created on the first batched refill.
    pool: Option<FleetPool>,
    /// Next run index (also drives endpoint choice and seeds).
    next_run: u64,
    /// Prefetched runs for the currently shipped patch.
    buffer: VecDeque<ClientRunData>,
    /// The currently shipped patch, prepared once when `next_run` first
    /// sees it; the buffer holds runs under it only.
    shipped: Option<Arc<PreparedPatch>>,
    /// Server's advisory prefetch ceiling (see
    /// [`Fleet::hint_runs_remaining`]).
    hint_remaining: Option<u64>,
    /// Total runs executed.
    pub runs: u64,
    /// Runs that failed (any failure).
    pub failing_runs: u64,
}

impl<'p> SimulatedFleet<'p> {
    /// Creates a fleet executing `program` with the given seeded workload.
    /// The program is compiled here, once, before any run dispatches.
    /// Worker threads spawn lazily on the first batched refill.
    pub fn new(
        program: &'p Program,
        make_config: fn(u64) -> VmConfig,
        config: FleetConfig,
    ) -> Self {
        SimulatedFleet {
            program,
            make_config,
            config,
            compiled: Arc::new(CompiledProgram::compile(program)),
            main_scratch: VmScratch::default(),
            main_tracker: None,
            main_stats: WorkerStats::default(),
            pool: None,
            next_run: 0,
            buffer: VecDeque::new(),
            shipped: None,
            hint_remaining: None,
            runs: 0,
            failing_runs: 0,
        }
    }

    /// Creates a fleet for a bugbase bug.
    pub fn for_bug(bug: &'p gist_bugbase::BugSpec, config: FleetConfig) -> Self {
        Self::new(&bug.program, bug.make_config, config)
    }

    /// The workload seed of run `n`: endpoints interleave round-robin and
    /// each endpoint has its own seed stream, so adding endpoints changes
    /// *which* machine sees a failure but not reproducibility.
    fn seed_of(&self, n: u64) -> u64 {
        let endpoint = n % u64::from(self.config.endpoints.max(1));
        let local = n / u64::from(self.config.endpoints.max(1));
        endpoint.wrapping_mul(1_000_003).wrapping_add(local)
    }

    /// Cumulative contention statistics per executor (index 0 = the
    /// dispatching thread). Scheduling-dependent — reported next to
    /// throughput numbers, never in the deterministic metrics section.
    pub fn contention_stats(&self) -> FleetStats {
        let mut workers = vec![self.main_stats.clone()];
        if let Some(pool) = &self.pool {
            workers.extend(pool.workers.iter().map(|w| w.stats.clone()));
        }
        FleetStats { workers }
    }

    /// Worker threads backing this fleet's pool (0 before the first
    /// batched refill or on a sequential fleet).
    pub fn pool_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.workers.len())
    }

    /// Spawns the persistent pool on first use.
    fn ensure_pool(&mut self) {
        if self.pool.is_some() {
            return;
        }
        let threads = self
            .config
            .workers
            .unwrap_or_else(machine_workers)
            .min(self.config.batch.saturating_sub(1));
        let env = Arc::new(PoolEnv {
            program: Arc::new(self.program.clone()),
            compiled: Arc::clone(&self.compiled),
            make_config: self.make_config,
            num_cores: self.config.num_cores,
        });
        let workers = (1..=threads)
            .map(|exec_idx| {
                let (jobs, job_rx) = channel();
                let (result_tx, results) = channel();
                let env = Arc::clone(&env);
                let handle = std::thread::Builder::new()
                    .name(format!("fleet-worker-{exec_idx}"))
                    .spawn(move || worker_loop(env, job_rx, result_tx))
                    .expect("spawn fleet worker");
                PoolWorker {
                    jobs,
                    results,
                    stats: WorkerStats::default(),
                    handle,
                }
            })
            .collect();
        self.pool = Some(FleetPool { env, workers });
    }

    /// Executes `descriptors` on the pool (dispatching thread included)
    /// and appends the results to the buffer in run-id order.
    fn run_batch(&mut self, patch: Arc<PreparedPatch>, descriptors: Vec<(u64, u64)>) {
        self.ensure_pool();
        let pool = self.pool.as_mut().expect("pool just ensured");
        let runs = descriptors.len();
        // A batch the server's hint capped below the executor count leaves
        // the last workers out rather than sending anyone an empty chunk.
        let executors = (pool.workers.len() + 1).min(runs);
        let workers = &mut pool.workers[..executors - 1];
        // One contiguous, non-empty chunk per executor, as even as possible
        // (executor 0 = this thread).
        let chunk_of = |k: usize| k * runs / executors..(k + 1) * runs / executors;
        let batch = Arc::new(Batch {
            descriptors,
            patch,
            parent: gist_obs::current_span_handle(),
        });
        for (k, w) in workers.iter().enumerate() {
            let chunk = Chunk {
                batch: Arc::clone(&batch),
                range: chunk_of(k + 1),
            };
            if w.jobs.send(chunk).is_err() {
                panic!("fleet worker panicked");
            }
        }
        let own = Chunk {
            batch,
            range: chunk_of(0),
        };
        let started = Instant::now();
        let done = run_chunk(
            &pool.env,
            &own,
            &mut self.main_scratch,
            &mut self.main_tracker,
        );
        // Every worker's chunk is about as large as this one.
        let poll = started.elapsed() * POLL_CHUNKS;
        self.main_stats.absorb_chunk(&done);
        self.buffer.extend(done.runs);
        for w in workers {
            let Some(done) = recv_polling(&w.results, poll) else {
                panic!("fleet worker panicked");
            };
            w.stats.absorb_chunk(&done);
            self.buffer.extend(done.runs);
        }
    }

    /// Fills the buffer with a batch of runs for `patch`, in parallel when
    /// `config.batch > 1`.
    fn refill(&mut self, patch: Arc<PreparedPatch>) {
        // The server's remaining-runs hint caps the prefetch so a batch
        // never executes runs that would only be discarded at the next
        // patch change.
        let batch = self
            .hint_remaining
            .map_or(self.config.batch, |h| {
                self.config.batch.min(h.max(1) as usize)
            })
            .max(1);
        // Batch shape depends on the execution configuration, not on the
        // logical work, so it is a histogram — counters must stay identical
        // across batch sizes (the determinism contract).
        gist_obs::histogram!("fleet.batch_occupancy").record(batch as u64);
        let descriptors: Vec<(u64, u64)> = (0..batch as u64)
            .map(|i| {
                let n = self.next_run + i;
                (n, self.seed_of(n))
            })
            .collect();
        self.next_run += batch as u64;
        if batch == 1 {
            // Sequential path: execute inline on executor 0. Worker spans
            // parent under whatever span dispatched the fleet (typically
            // `server.collect`).
            let parent = gist_obs::current_span_handle();
            let _span = gist_obs::span_under(&parent, "fleet.worker");
            let (id, seed) = descriptors[0];
            let run = execute_one(
                self.program,
                &self.compiled,
                self.make_config,
                self.config.num_cores,
                &mut self.main_scratch,
                &mut self.main_tracker,
                &patch,
                id,
                seed,
            );
            self.buffer.push_back(run);
            self.main_stats.runs += 1;
        } else {
            self.run_batch(patch, descriptors);
        }
    }
}

impl Fleet for SimulatedFleet<'_> {
    fn next_run(&mut self, patch: &InstrumentationPatch) -> ClientRunData {
        if self.shipped.as_ref().map(|p| p.patch()) != Some(patch) {
            // Patch changed (new AsT iteration / watch group): discard any
            // prefetched runs; those executions simply never report back.
            // Discard counts also depend on batch shape -> histogram. The
            // new patch is prepared here, once, for all of its runs.
            gist_obs::histogram!("fleet.runs_discarded").record(self.buffer.len() as u64);
            self.buffer.clear();
            self.shipped = Some(Arc::new(PreparedPatch::new(self.program, patch.clone())));
        }
        if self.buffer.is_empty() {
            let shipped = self.shipped.as_ref().expect("prepared above");
            self.refill(Arc::clone(shipped));
        }
        let run = self.buffer.pop_front().expect("refill produced runs");
        self.runs += 1;
        gist_obs::counter!("fleet.runs_dispatched").inc();
        if run.outcome.is_some() {
            self.failing_runs += 1;
            gist_obs::counter!("fleet.failing_runs").inc();
        }
        run
    }

    fn hint_runs_remaining(&mut self, remaining: u64) {
        self.hint_remaining = Some(remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_bugbase::bug_by_name;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// Forces real pool worker threads regardless of machine size, so the
    /// chunk/channel machinery is exercised even on one-core CI runners.
    fn forced(endpoints: u32, batch: usize, workers: usize) -> FleetConfig {
        FleetConfig {
            endpoints,
            num_cores: 4,
            batch,
            workers: Some(workers),
        }
    }

    #[test]
    fn sequential_and_parallel_fleets_agree() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let patch = InstrumentationPatch::default();
        let runs_with = |batch: usize, workers: usize| {
            let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, batch, workers));
            (0..12)
                .map(|_| {
                    let r = Fleet::next_run(&mut fleet, &patch);
                    (r.run_id, r.outcome.is_some(), r.retired)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            runs_with(1, 0),
            runs_with(4, 3),
            "batching must not change runs"
        );
    }

    /// The bug's shipped patch: what the server would plan for the first
    /// watch group over an 8-statement slice prefix of the failure.
    fn planned_patch(bug: &gist_bugbase::BugSpec) -> InstrumentationPatch {
        let (_, report) = bug.find_failure(2_000).expect("bug manifests");
        let slicer = gist_slicing::StaticSlicer::new(&bug.program);
        let slice = slicer.compute(report.failing_stmt);
        let planner = gist_tracking::Planner::new(&bug.program, slicer.ticfg());
        planner.plan(slice.prefix(8), 0)
    }

    /// Differential: for EVERY bugbase bug under its shipped patch, the
    /// batched fleet is run-for-run indistinguishable from the sequential
    /// one — same outcomes, same retired counts, and the same watchpoint
    /// hit sequences. 16 runs is a multiple of the batch size, so the
    /// batch arm executes exactly as many runs as the sequential arm.
    #[test]
    fn batched_fleets_agree_on_every_bug_under_shipped_patch() {
        for bug in gist_bugbase::all_bugs() {
            let patch = planned_patch(&bug);
            let runs_with = |batch: usize, workers: usize| {
                let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, batch, workers));
                (0..16)
                    .map(|_| {
                        let r = Fleet::next_run(&mut fleet, &patch);
                        (
                            r.run_id,
                            r.outcome.map(|o| format!("{o:?}")),
                            r.retired,
                            r.trace.hits,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                runs_with(1, 0),
                runs_with(8, 3),
                "{}: batch=8 must match sequential runs exactly",
                bug.name
            );
        }
    }

    /// The first `n` distinct patches a default-config diagnosis of `bug`
    /// ships (its first three AsT iterations), in shipping order.
    fn first_shipped_patches(bug: &gist_bugbase::BugSpec, n: usize) -> Vec<InstrumentationPatch> {
        let (_, report) = bug.find_failure(2_000).expect("bug manifests");
        let config = crate::EvalConfig::default().gist_config(String::new(), String::new());
        let server = gist_core::GistServer::new(&bug.program, config);
        let mut fleet = SimulatedFleet::for_bug(bug, FleetConfig::default());
        let mut patches: Vec<InstrumentationPatch> = Vec::new();
        let mut recording = |patch: &InstrumentationPatch| {
            if patches.len() < n && !patches.contains(patch) {
                patches.push(patch.clone());
            }
            Fleet::next_run(&mut fleet, patch)
        };
        let mut iterations = 0;
        server.diagnose(&report, &mut recording, None, &mut |_| {
            iterations += 1;
            iterations == 3
        });
        patches
    }

    /// A run's observable result with the journal seq-nos of its trace
    /// zeroed: runs recorded at different journal positions compare equal
    /// exactly when they behaved the same.
    fn run_without_seqs(
        outcome: Option<gist_vm::FailureReport>,
        mut trace: gist_tracking::RunTrace,
        retired: u64,
    ) -> String {
        trace.hit_events.iter_mut().for_each(|e| *e = 0);
        trace.decode_event = 0;
        format!("{outcome:?} {retired} {trace:?}")
    }

    /// The fleet shares one prepared patch with every run that carries it,
    /// while the benchmark's replays prepare a patch per run through
    /// `TrackerRuntime::new`. For every bug, its first shipped patches and
    /// 8 seeds, both paths give the same run (outcome, retired count and
    /// every `RunTrace` field but journal seq-nos), at batch 1 and pooled
    /// with forced workers.
    #[test]
    fn shared_prepared_patch_runs_match_standalone_runs() {
        const SEEDS: u64 = 8;
        for bug in gist_bugbase::all_bugs() {
            let patches = first_shipped_patches(&bug, 3);
            assert!(!patches.is_empty(), "{}: a patch ships", bug.name);
            for patch in &patches {
                for (batch, workers) in [(1, 0), (4, 2)] {
                    let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, batch, workers));
                    for run_id in 0..SEEDS {
                        let run = Fleet::next_run(&mut fleet, patch);
                        assert_eq!(run.run_id, run_id);
                        let mut cfg = (bug.make_config)(fleet.seed_of(run_id));
                        cfg.num_cores = fleet.config.num_cores;
                        let mut tracker =
                            TrackerRuntime::new(&bug.program, patch.clone(), cfg.num_cores);
                        let result = Vm::new(&bug.program, cfg).run(&mut [&mut tracker]);
                        let outcome = match result.outcome {
                            RunOutcome::Failed(r) => Some(r),
                            RunOutcome::Finished => None,
                        };
                        assert_eq!(
                            run_without_seqs(run.outcome, run.trace, run.retired),
                            run_without_seqs(outcome, tracker.finish(), result.steps),
                            "{}: run {run_id} at batch {batch} differs from TrackerRuntime::new",
                            bug.name
                        );
                    }
                }
            }
        }
    }

    /// Results come out of the pooled path in run-id order by construction
    /// (chunks collected in executor order, no sort), across several
    /// batches, and each executor runs exactly its static chunk.
    #[test]
    fn pooled_batches_preserve_run_id_order() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let patch = InstrumentationPatch::default();
        let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, 8, 4));
        let ids: Vec<u64> = (0..32)
            .map(|_| Fleet::next_run(&mut fleet, &patch).run_id)
            .collect();
        assert_eq!(
            ids,
            (0..32).collect::<Vec<u64>>(),
            "chunk collection must be in run-id order"
        );
        assert_eq!(fleet.pool_workers(), 4, "forced workers spawn real threads");
        let stats = fleet.contention_stats();
        assert_eq!(stats.workers.len(), 5, "executor 0 + 4 pool workers");
        // Batch 8 over 5 executors splits into chunks of 1,2,1,2,2; four
        // batches ran.
        let runs: Vec<u64> = stats.workers.iter().map(|w| w.runs).collect();
        assert_eq!(runs, [4, 8, 4, 8, 8], "static chunk attribution");
        assert!(stats.workers.iter().all(|w| w.batches == 4));
    }

    /// Fails the run that lands in worker 2's chunk of the first batch
    /// (run 5 of a batch-8, 4-executor fleet over 8 endpoints), never a
    /// run executor 0 owns.
    fn panics_on_run_5(seed: u64) -> VmConfig {
        assert_ne!(seed, 5 * 1_000_003, "injected worker failure");
        gist_bugbase::synth::synth_config(seed)
    }

    /// A panic inside a pool worker surfaces on the dispatching thread as
    /// `fleet worker panicked`, and neither side hangs.
    #[test]
    fn worker_panic_propagates_to_dispatcher() {
        // `alive` drops last, after the fleet has joined its workers, so
        // the disconnect means the dispatcher thread fully finished.
        let (alive, finished) = channel::<()>();
        let dispatcher = std::thread::spawn(move || {
            let _alive = alive;
            let bug = bug_by_name("pbzip2-1").unwrap();
            let mut fleet = SimulatedFleet::new(&bug.program, panics_on_run_5, forced(8, 8, 3));
            Fleet::next_run(&mut fleet, &InstrumentationPatch::default());
        });
        assert_eq!(
            finished.recv_timeout(Duration::from_secs(60)),
            Err(RecvTimeoutError::Disconnected),
            "dispatcher hung"
        );
        let payload = dispatcher.join().expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(msg, Some("fleet worker panicked"));
    }

    /// A batch the hint caps below the executor count runs on that many
    /// executors only: the dispatching thread runs a chunk of its own, and
    /// the surplus worker is sent no empty chunk and counts no batch.
    #[test]
    fn capped_batch_leaves_surplus_workers_out() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let patch = InstrumentationPatch::default();
        let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, 8, 2));
        Fleet::hint_runs_remaining(&mut fleet, 2);
        let ids: Vec<u64> = (0..2)
            .map(|_| Fleet::next_run(&mut fleet, &patch).run_id)
            .collect();
        assert_eq!(ids, [0, 1]);
        assert_eq!(fleet.pool_workers(), 2, "both forced workers spawned");
        let stats = fleet.contention_stats();
        let runs: Vec<u64> = stats.workers.iter().map(|w| w.runs).collect();
        assert_eq!(runs, [1, 1, 0], "one run per executor, executor 0 first");
        let batches: Vec<u64> = stats.workers.iter().map(|w| w.batches).collect();
        assert_eq!(batches, [1, 1, 0], "no batch counted on worker 2");
    }

    /// Calls `recv_polling(&rx, poll)` on a thread of its own and returns
    /// once that thread is about to call it, with the channel its result
    /// arrives on.
    fn recv_on_thread(
        rx: Receiver<u32>,
        poll: Duration,
    ) -> (Receiver<Option<u32>>, std::thread::JoinHandle<()>) {
        let (started_tx, started) = channel();
        let (out_tx, out) = channel();
        let handle = std::thread::spawn(move || {
            started_tx.send(()).expect("caller waits");
            let _ = out_tx.send(recv_polling(&rx, poll));
        });
        started.recv().expect("receiving thread starts");
        (out, handle)
    }

    /// Longer than any test runs: a helper given this bound is still
    /// polling when it returns.
    const POLL_FOREVER: Duration = Duration::from_secs(3600);
    /// How long a test waits for the helper before calling it hung.
    const HUNG: Duration = Duration::from_secs(60);

    #[test]
    fn recv_polling_returns_a_message_sent_while_polling_or_parked() {
        // A zero bound parks after the first empty poll.
        for poll in [POLL_FOREVER, Duration::ZERO] {
            let (tx, rx) = channel();
            let (out, handle) = recv_on_thread(rx, poll);
            tx.send(7).expect("receiver alive");
            assert_eq!(out.recv_timeout(HUNG), Ok(Some(7)), "poll bound {poll:?}");
            handle.join().expect("receiving thread");
        }
    }

    #[test]
    fn recv_polling_ends_on_disconnect_while_polling_or_parked() {
        for poll in [POLL_FOREVER, Duration::ZERO] {
            let (tx, rx) = channel::<u32>();
            let (out, handle) = recv_on_thread(rx, poll);
            drop(tx);
            assert_eq!(out.recv_timeout(HUNG), Ok(None), "poll bound {poll:?}");
            handle.join().expect("receiving thread");
        }
    }

    /// The server's remaining-runs hint caps prefetch: with 3 runs left,
    /// a batch-8 fleet must not execute 8 runs.
    #[test]
    fn hint_caps_prefetch() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let patch = InstrumentationPatch::default();
        let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, 8, 2));
        Fleet::hint_runs_remaining(&mut fleet, 3);
        let _ = Fleet::next_run(&mut fleet, &patch);
        assert_eq!(fleet.next_run, 3, "prefetch capped at the hint");
        // Without a fresh hint the cap persists until the server updates it.
        let _ = Fleet::next_run(&mut fleet, &patch);
        let _ = Fleet::next_run(&mut fleet, &patch);
        assert_eq!(fleet.next_run, 3, "buffered runs served without refill");
    }

    #[test]
    fn failure_counter_tracks_outcomes() {
        let bug = bug_by_name("curl-965").unwrap();
        let patch = InstrumentationPatch::default();
        let mut fleet = SimulatedFleet::for_bug(&bug, FleetConfig::default());
        for _ in 0..9 {
            Fleet::next_run(&mut fleet, &patch);
        }
        assert_eq!(fleet.runs, 9);
        // Curl fails on every third seed (seeds 0,3,6 of endpoint streams
        // spread across endpoints, so at least one failure in 9 runs).
        assert!(fleet.failing_runs > 0);
    }

    #[test]
    fn patch_change_discards_prefetched_runs() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let mut fleet = SimulatedFleet::for_bug(&bug, forced(4, 6, 2));
        let p1 = InstrumentationPatch::default();
        let p2 = InstrumentationPatch {
            pt_on_at_start: true,
            ..InstrumentationPatch::default()
        };
        let _ = Fleet::next_run(&mut fleet, &p1);
        // Buffer holds 5 prefetched runs for p1; switching patches drops them.
        let r = Fleet::next_run(&mut fleet, &p2);
        assert!(
            r.run_id >= 6,
            "prefetched p1 runs discarded, got {}",
            r.run_id
        );
    }

    #[test]
    fn distinct_endpoints_have_distinct_seed_streams() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let fleet = SimulatedFleet::for_bug(
            &bug,
            FleetConfig {
                endpoints: 16,
                ..FleetConfig::default()
            },
        );
        let s0 = fleet.seed_of(0);
        let s1 = fleet.seed_of(1);
        let s16 = fleet.seed_of(16);
        assert_ne!(s0, s1);
        assert_eq!(s16, s0 + 1, "endpoint 0's second run follows its stream");
    }
}
