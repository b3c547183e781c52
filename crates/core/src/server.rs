//! Gist's server side: the diagnosis loop of Fig. 2.

use std::collections::{BTreeSet, HashMap};

use gist_analysis::{AnalysisCtx, Mhp, SvfgEdgeKind};
use gist_ir::{InstrId, Program};
use gist_obs::SpanGuard;
use gist_predictors::{Access, PredictorStats, RunObservations};
use gist_sketch::FailureSketch;
use gist_slicing::{Slice, StaticSlicer};
use gist_tracking::{InstrumentationPatch, Planner, RunTrace};
use gist_vm::{AccessKind, FailureReport};

use crate::ast::{AstController, Growth, DEFAULT_SIGMA};
use crate::client::Fleet;
use crate::engine::SketchBuilder;
use crate::refine::Refinement;

/// Server configuration. Every `enable_*` toggle is on by default;
/// `repro knobs` measures each by turning it off alone.
#[derive(Clone, Debug)]
pub struct GistConfig {
    /// Initial tracked-slice size σ (paper: 2).
    pub sigma0: usize,
    /// σ growth strategy (paper: multiplicative).
    pub growth: Growth,
    /// F-measure β (paper: 0.5, precision-favoring).
    pub beta: f64,
    /// Failure recurrences to gather per AsT iteration before rebuilding
    /// the sketch.
    pub failing_runs_per_iteration: usize,
    /// Run budget per iteration (bounds diagnosis latency when failures
    /// are rare).
    pub max_runs_per_iteration: usize,
    /// Hard cap on AsT iterations.
    pub max_iterations: usize,
    /// Ablation toggle: track control flow (Intel PT). Disabling leaves
    /// the static slice unfiltered (Fig. 10's "static slicing only" bar).
    pub enable_control_flow: bool,
    /// Ablation toggle: track data flow (watchpoints).
    pub enable_data_flow: bool,
    /// Use the static race detector to (a) seed the tracked set with race
    /// candidates touching the slice — a *fallback* for statements the
    /// alias-aware slicer still cannot see — and (b) order cooperative
    /// watch groups by race rank instead of slice order.
    pub enable_race_ranking: bool,
    /// Alias-aware slicing: consult the points-to analysis so heap writes
    /// through aliased pointer names enter the static slice directly.
    /// Disabling reverts to syntactic (global-name-only) data dependences,
    /// leaving discovery to watchpoints and race seeding.
    pub enable_alias_slicing: bool,
    /// Sparse value-flow slicing: walk the SVFG (reaching-def-filtered,
    /// path-feasibility-pruned, 1-CFA context-bound def-use chains)
    /// backward from the criterion instead of the flow-insensitive item
    /// worklist, rank watchpoint candidates by value-flow distance, and
    /// annotate sketch steps with inter-thread value-flow provenance.
    /// The SVFG slice is a subset of the legacy slice by construction.
    /// Requires `enable_alias_slicing`; ignored when that is off.
    pub enable_svfg_slicing: bool,
    /// Happens-before/MHP pruning: drop race-candidate interleaving
    /// hypotheses the thread structure proves never-parallel before they
    /// seed the AsT loop, and keep never-parallel writes out of the
    /// watchpoint pool.
    pub enable_mhp: bool,
    /// Dead-store pruning: exclude stores the memory-liveness dataflow
    /// proves are never read/freed/synchronized on from watchpoint plans,
    /// so the four debug registers go to observable accesses.
    pub enable_dead_store_pruning: bool,
    /// Sketch title.
    pub title: String,
    /// Bug classification shown on the sketch type line.
    pub bug_class: String,
}

impl Default for GistConfig {
    fn default() -> Self {
        GistConfig {
            sigma0: DEFAULT_SIGMA,
            growth: Growth::Multiplicative,
            beta: 0.5,
            failing_runs_per_iteration: 1,
            max_runs_per_iteration: 400,
            max_iterations: 12,
            enable_control_flow: true,
            enable_data_flow: true,
            enable_race_ranking: true,
            enable_alias_slicing: true,
            enable_svfg_slicing: true,
            enable_mhp: true,
            enable_dead_store_pruning: true,
            title: "Failure Sketch".to_owned(),
            bug_class: "Bug".to_owned(),
        }
    }
}

/// Aggregate client-side cost counters for one diagnosis (feeds the
/// overhead models in `gist-baselines`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostSummary {
    /// Encoded PT bytes across all runs.
    pub pt_bytes: u64,
    /// PT driver transitions (ioctls).
    pub pt_transitions: u64,
    /// Statements retired while PT was on.
    pub traced_retired: u64,
    /// Watchpoint traps delivered.
    pub watch_traps: u64,
    /// Debug-register operations.
    pub ptrace_ops: u64,
    /// Total statements retired across all runs (baseline work).
    pub total_retired: u64,
    /// Instrumentation points shipped (summed over patches used).
    pub instrumentation_points: u64,
    /// Serialized patch bytes shipped.
    pub patch_bytes: u64,
}

impl CostSummary {
    /// Adds one run's tracking costs and the `retired` statements it ran.
    pub fn absorb(&mut self, trace: &RunTrace, retired: u64) {
        self.pt_bytes += trace.pt_bytes as u64;
        self.pt_transitions += trace.pt_transitions;
        self.traced_retired += trace.traced_retired;
        self.watch_traps += trace.watch_traps;
        self.ptrace_ops += trace.ptrace_ops;
        self.total_retired += retired;
    }
}

/// What the static analyses give the AsT loop of one diagnosis (see
/// [`GistServer::analyze`]).
pub struct TrackingPlan<'p> {
    /// Race-candidate endpoints outside the slice; they join every
    /// iteration's tracked set (fallback seeding).
    pub race_seed: Vec<InstrId>,
    /// Plans each iteration's watch-group patches.
    pub planner: Planner<'p>,
}

/// One watch group's patch within an AsT iteration, with what every run
/// carrying it adds to the [`CostSummary`].
struct ShippedPatch {
    patch: InstrumentationPatch,
    /// Serialized size.
    bytes: u64,
    /// Instrumentation points.
    points: u64,
}

/// The outcome of diagnosing one failure.
#[derive(Clone, Debug)]
pub struct DiagnosisResult {
    /// The final failure sketch.
    pub sketch: FailureSketch,
    /// The static slice the diagnosis started from.
    pub slice: Slice,
    /// AsT iterations performed.
    pub iterations: usize,
    /// Failure recurrences consumed (Table 1's latency unit).
    pub recurrences: usize,
    /// Total production runs consumed (failing + successful).
    pub total_runs: usize,
    /// Final σ.
    pub final_sigma: usize,
    /// Accumulated refinement state.
    pub refinement: Refinement,
    /// Full predictor ranking from the final iteration.
    pub ranked: Vec<PredictorStats>,
    /// Aggregate client cost.
    pub cost: CostSummary,
}

/// The Gist server: static analyzer + failure sketch engine.
pub struct GistServer<'p> {
    program: &'p Program,
    slicer: StaticSlicer<'p>,
    config: GistConfig,
}

impl<'p> GistServer<'p> {
    /// Creates a server for one program.
    pub fn new(program: &'p Program, config: GistConfig) -> Self {
        GistServer {
            program,
            slicer: StaticSlicer::new(program),
            config,
        }
    }

    /// Checks that `report` comes from this server's program: the program
    /// name matches, and the failing statement and every stack frame's
    /// function and statement exist in it.
    pub fn check_report(&self, report: &FailureReport) -> Result<(), String> {
        let p = self.program;
        if report.program != p.name {
            return Err(format!(
                "report is for '{}', not '{}'",
                report.program, p.name
            ));
        }
        let known = |s: InstrId| p.stmt_pos(s).is_some();
        if !known(report.failing_stmt) {
            return Err(format!(
                "no statement {} in '{}'",
                report.failing_stmt, p.name
            ));
        }
        match report
            .stack
            .iter()
            .find(|f| f.func.index() >= p.functions.len() || !known(f.iid))
        {
            Some(f) => Err(format!("no frame {f:?} in '{}'", p.name)),
            None => Ok(()),
        }
    }

    /// True when the SVFG slicer runs (it needs alias-aware slicing).
    fn uses_svfg(&self) -> bool {
        self.config.enable_svfg_slicing && self.config.enable_alias_slicing
    }

    /// The static backward slice from `report`'s failing statement (§3.1),
    /// with the slicer the configuration selects.
    fn slice(&self, report: &FailureReport) -> Slice {
        let _span = gist_obs::span("server.slice");
        if self.uses_svfg() {
            self.slicer.compute_with_svfg(report.failing_stmt)
        } else if self.config.enable_alias_slicing {
            self.slicer.compute(report.failing_stmt)
        } else {
            self.slicer.compute_without_alias(report.failing_stmt)
        }
    }

    /// The static analyses behind tracking a failure of `report` whose
    /// slice is `slice`: the race candidates that seed every tracked set,
    /// and the planner each AsT iteration plans its watch groups' patches
    /// with (§3.2).
    pub fn analyze(&self, report: &FailureReport, slice: &Slice) -> TrackingPlan<'_> {
        let mut dead = BTreeSet::new();
        let _span_analyze = gist_obs::span("server.analyze");
        let facts = self.slicer.facts();
        // The happens-before/MHP relation, when enabled: race-candidate
        // pairs the thread structure orders (a free after the join, two
        // phases separated by a join barrier) are statically-impossible
        // interleavings — they neither seed tracking nor rank watchpoints,
        // so the AsT loop never spends runs testing them.
        let mhp = self.config.enable_mhp.then(|| facts.mhp());
        let (race_seed, watch_priority) = self.race_seed(mhp, slice);
        // Dead-store pruning: stores the memory-liveness dataflow proves
        // unobservable never occupy a debug register. The failing statement
        // is always kept watchable, whatever the analysis says.
        if self.config.enable_dead_store_pruning {
            dead = gist_analysis::dead_stores(facts);
            dead.remove(&report.failing_stmt);
        }
        // Never-parallel writes: their interleavings cannot matter, so
        // they never occupy a debug register. The failing statement and
        // race-ranked statements always stay watchable.
        let mut never_parallel = BTreeSet::new();
        if let Some(m) = mhp {
            never_parallel = m.never_parallel_stores(facts);
            never_parallel.remove(&report.failing_stmt);
            for s in &watch_priority {
                never_parallel.remove(s);
            }
        }
        drop(_span_analyze);
        // Value-flow distances (SVFG hops to the failing value) break
        // priority ties among watchpoint candidates: fewer def-use steps
        // from the failure means an earlier cooperative watch group.
        let flow_distances = if self.uses_svfg() {
            facts.svfg().backward_value_flow(report.failing_stmt)
        } else {
            Default::default()
        };
        let planner = Planner::new(self.program, facts.ticfg())
            .with_watch_priority(watch_priority)
            .with_distance_rank(flow_distances)
            .with_dead_store_filter(dead)
            .with_mhp_filter(never_parallel)
            .with_tracking(
                self.config.enable_control_flow,
                self.config.enable_data_flow,
            );
        TrackingPlan { race_seed, planner }
    }

    /// Static race analysis (fallback seeding), when enabled: the race seed
    /// and the full rank order that prioritizes watchpoint insertion, over
    /// the candidates `mhp` (if given) does not prove ordered. A candidate
    /// whose pair touches `slice` seeds its *other* endpoint. With
    /// alias-aware slicing on, most racing writes are already in the slice
    /// and the seed is empty or tiny; the fallback still catches pairs the
    /// points-to analysis widens past usefulness.
    fn race_seed(&self, mhp: Option<&Mhp>, slice: &Slice) -> (Vec<InstrId>, Vec<InstrId>) {
        if !self.config.enable_race_ranking {
            return (Vec::new(), Vec::new());
        }
        let mut analysis = self.slicer.facts().races().clone();
        if let Some(m) = mhp {
            analysis.candidates.retain(|c| {
                let [a, b] = c.stmts();
                m.may_happen_in_parallel(a, b)
            });
        }
        let watch_priority = analysis.ranked_stmts();
        // Only high-confidence candidates seed: anything scoring more
        // than 2 below the best is a long-shot pair whose extra endpoint
        // would dilute sketch relevance rather than sharpen it.
        let best = analysis.candidates.first().map_or(0, |c| c.score);
        let mut race_seed: Vec<InstrId> = Vec::new();
        for c in &analysis.candidates {
            if c.score + 2 < best {
                break;
            }
            let [a, b] = c.stmts();
            if slice.contains(a) || slice.contains(b) {
                for s in [a, b] {
                    if !slice.contains(s) && !race_seed.contains(&s) {
                        race_seed.push(s);
                    }
                }
            }
        }
        (race_seed, watch_priority)
    }

    /// Diagnoses one failure: runs AsT iterations against the fleet until
    /// `stop` approves the sketch (the paper's developer-in-the-loop),
    /// AsT saturates, or the iteration cap is hit.
    ///
    /// A report that fails [`GistServer::check_report`] gets an empty
    /// result at once: no iteration, no run, no journal event.
    ///
    /// `ideal` (evaluation only) marks statements outside the ideal sketch
    /// grey, as in the paper's Fig. 8.
    pub fn diagnose(
        &self,
        report: &FailureReport,
        fleet: &mut dyn Fleet,
        ideal: Option<&BTreeSet<InstrId>>,
        stop: &mut dyn FnMut(&FailureSketch) -> bool,
    ) -> DiagnosisResult {
        if self.check_report(report).is_err() {
            return DiagnosisResult {
                sketch: FailureSketch::default(),
                slice: Slice::empty(report.failing_stmt),
                iterations: 0,
                recurrences: 0,
                total_runs: 0,
                final_sigma: self.config.sigma0,
                refinement: Refinement::new(),
                ranked: Vec::new(),
                cost: CostSummary::default(),
            };
        }
        gist_obs::begin_trace(&self.config.title);
        let span = gist_obs::span("server.diagnose");
        gist_obs::counter!("server.diagnoses").inc();
        let mut d = Diagnosis::start(self, report);
        loop {
            let tracked = d.begin_iteration();
            let observed = d.collect(&tracked, fleet);
            d.rank(&observed);
            d.sketch(&tracked, ideal);
            // Iteration boundary: push this iteration's events into the
            // global ring so streaming consumers (`gist-trace follow`,
            // `journal::drain_since` cursors) tail the diagnosis live
            // instead of waiting for the final drain.
            gist_obs::journal::flush_local();
            let capped = d.ast.iteration() + 1 >= self.config.max_iterations;
            if stop(&d.sketch) || d.ast.saturated() || capped {
                break;
            }
            d.ast.advance();
        }
        d.finish(span)
    }
}

/// One diagnosis in progress: what the AsT loop carries from one step of
/// Fig. 2 to the next. [`GistServer::diagnose`] runs the steps in order.
struct Diagnosis<'s, 'p> {
    server: &'s GistServer<'p>,
    report: &'s FailureReport,
    /// The `SliceComputed` event every provenance chain ends at.
    slice_event: u64,
    race_seed: Vec<InstrId>,
    planner: Planner<'s>,
    builder: SketchBuilder<'s, 'p>,
    /// Journal anchor of the event that promoted each non-slice
    /// statement into tracking (race seed or watchpoint discovery);
    /// sketch steps cite it in their provenance chains.
    origin: HashMap<InstrId, u64>,
    /// σ, the iteration count and the one copy of the slice.
    ast: AstController,
    /// Also counts the failing and successful runs.
    refinement: Refinement,
    cost: CostSummary,
    /// The representative failing run used for sketch layout: the one
    /// observing the most statements (thread attribution and
    /// cross-thread anchors are richest there).
    representative: Option<RunTrace>,
    sketch: FailureSketch,
    ranked: Vec<PredictorStats>,
}

impl<'s, 'p> Diagnosis<'s, 'p> {
    /// Step 1 (§3.1): the slice, the static analyses, the race-seed promotions.
    fn start(server: &'s GistServer<'p>, report: &'s FailureReport) -> Self {
        let config = &server.config;
        let slice = server.slice(report);
        // The slice criterion is the root of every provenance chain: any
        // statement in the sketch is there because of this computation, a
        // promotion decision that cites it, or runtime evidence.
        let slice_event = gist_obs::event!(SliceComputed {
            criterion: report.failing_stmt.0,
            len: slice.len() as u64,
            alias: config.enable_alias_slicing,
        });
        let TrackingPlan { race_seed, planner } = server.analyze(report, &slice);
        let mut origin = HashMap::new();
        for &s in &race_seed {
            let ev = gist_obs::event!(StmtPromoted {
                iid: s.0,
                reason: "race-seed",
                via: slice_event,
                sigma: config.sigma0 as u64,
            });
            origin.insert(s, ev);
        }
        Diagnosis {
            server,
            report,
            slice_event,
            race_seed,
            planner,
            builder: SketchBuilder::new(server.slicer.facts())
                .with_title(&config.title)
                .with_class(&config.bug_class),
            origin,
            ast: AstController::with_sigma(slice, config.sigma0, config.growth),
            refinement: Refinement::new(),
            cost: CostSummary::default(),
            representative: None,
            sketch: FailureSketch::default(),
            ranked: Vec::new(),
        }
    }

    /// Step 2 (§3.2.1): the iteration's tracked set, journaled.
    fn begin_iteration(&self) -> Vec<InstrId> {
        gist_obs::counter!("server.iterations").inc();
        // Refinement's additive half (§3): statements the watchpoints
        // discovered join the tracked slice, so later iterations trace
        // them with PT and arm watchpoints at them directly — this is
        // how a root cause that static slicing missed (no alias
        // analysis) becomes fully observable.
        let mut tracked: Vec<InstrId> = self.ast.tracked_portion().to_vec();
        // Race-candidate seeding joins from the very first iteration;
        // watchpoint discoveries (below) accumulate across iterations.
        for &s in self.race_seed.iter().chain(&self.refinement.discovered) {
            if !tracked.contains(&s) {
                tracked.push(s);
            }
        }
        gist_obs::histogram!("server.tracked_size").record(tracked.len() as u64);
        gist_obs::event!(IterationStarted {
            iteration: self.ast.iteration() as u64 + 1,
            sigma: self.ast.sigma() as u64,
            tracked: tracked.len() as u64,
        });
        tracked
    }

    /// Step 3 (§3.2.2–3.2.3): runs the fleet under the watch groups' patches
    /// and folds each run in; returns the runs' observations.
    fn collect(&mut self, tracked: &[InstrId], fleet: &mut dyn Fleet) -> Vec<RunObservations> {
        let config = &self.server.config;
        let signature = self.report.signature();
        let groups = self.planner.watch_groups(tracked);
        // One patch per watch group, planned the first time a run of
        // the group needs it and shipped to every later one (§4: Gist
        // builds a patch once and ships it to the endpoints).
        let mut shipped: Vec<Option<ShippedPatch>> = (0..groups).map(|_| None).collect();
        let mut observed: Vec<RunObservations> = Vec::new();
        let mut failing_runs = 0usize;
        let mut runs = 0usize;

        let span_collect = gist_obs::span("server.collect");
        while failing_runs < config.failing_runs_per_iteration
            && runs < config.max_runs_per_iteration
        {
            let group = runs % groups;
            let ship = shipped[group].get_or_insert_with(|| {
                let patch = self.planner.plan(tracked, group);
                ShippedPatch {
                    bytes: patch.shipped_size() as u64,
                    points: patch.instrumentation_points() as u64,
                    patch,
                }
            });
            // Every run that carries the patch pays for it.
            self.cost.instrumentation_points += ship.points;
            self.cost.patch_bytes += ship.bytes;
            gist_obs::histogram!("tracking.patch_bytes").record(ship.bytes);
            gist_obs::histogram!("tracking.patch_points").record(ship.points);

            fleet.hint_runs_remaining((config.max_runs_per_iteration - runs) as u64);
            let run = fleet.next_run(&ship.patch);
            runs += 1;
            let failing = run.matches_failure(signature);
            // First-discovery promotions: a watchpoint hit at an
            // untracked statement is the evidence that adds it to the
            // tracked set next iteration (§3.2.3's alias-gap closing).
            for (hit, &hit_event) in run.trace.hits.iter().zip(&run.trace.hit_events) {
                if run.trace.discovered.contains(&hit.iid) && !self.origin.contains_key(&hit.iid) {
                    let ev = gist_obs::event!(StmtPromoted {
                        iid: hit.iid.0,
                        reason: "watch-discovery",
                        via: hit_event,
                        sigma: self.ast.sigma() as u64,
                    });
                    self.origin.insert(hit.iid, ev);
                }
            }
            self.refinement.absorb(&run.trace, failing);
            self.cost.absorb(&run.trace, run.retired);
            observed.push(observations(&run.trace, failing));
            if failing {
                failing_runs += 1;
                let observes =
                    |t: &RunTrace| t.executed_tracked.len() + t.discovered.len() + t.hits.len();
                let rep = self.representative.as_ref();
                if rep.is_none_or(|rep| observes(&run.trace) >= observes(rep)) {
                    self.representative = Some(run.trace);
                }
            }
        }
        drop(span_collect);
        gist_obs::counter!("server.recurrences").add(failing_runs as u64);
        gist_obs::counter!("server.runs_consumed").add(runs as u64);
        observed
    }

    /// Step 4 (§3.3): ranks the iteration's predictors, journals the top 3.
    fn rank(&mut self, observed: &[RunObservations]) {
        let beta = self.server.config.beta;
        let span_rank = gist_obs::span("server.rank");
        self.ranked = gist_predictors::rank(observed, beta);
        drop(span_rank);
        for (i, stats) in self.ranked.iter().take(3).enumerate() {
            gist_obs::event!(PredictorRanked {
                category: stats.predictor.category().to_owned(),
                rank: i as u64 + 1,
                f_milli: (stats.f_measure(beta) * 1000.0).round() as u64,
                iid: predictor_stmt(&stats.predictor).0,
            });
        }
    }

    /// Step 5 (§3.4): the sketch and its steps' provenance, once a run has
    /// failed.
    fn sketch(&mut self, tracked: &[InstrId], ideal: Option<&BTreeSet<InstrId>>) {
        let server = self.server;
        let config = &server.config;
        let mut stmts = if config.enable_control_flow {
            self.refinement.sketch_stmts()
        } else {
            // Static-only mode: no execution filter available.
            let mut s: BTreeSet<InstrId> = tracked.iter().copied().collect();
            s.extend(&self.refinement.discovered);
            s
        };
        if server.uses_svfg() && config.enable_data_flow {
            // Control-context backfill: value-flow-ranked watchpoints
            // can converge before σ grows past the branch that steers
            // execution into the failure; the sketch must still show it.
            let failing = [self.report.failing_stmt];
            stmts.extend(server.slicer.control_context(failing, self.ast.slice()));
        }
        let Some(rep) = &self.representative else {
            return;
        };
        let _span_sketch = gist_obs::span("server.sketch");
        self.sketch =
            self.builder
                .build(self.report, &stmts, rep, &self.ranked, config.beta, ideal);
        if server.uses_svfg() {
            add_flow_notes(server.slicer.facts(), &mut self.sketch);
        }
        // Attach provenance: the most specific runtime evidence first
        // (latest watchpoint hit at this statement in the representative
        // run), then that run's PT decode, then the decision that promoted
        // the statement into tracking, and finally the slice criterion
        // everything descends from.
        for step in &mut self.sketch.steps {
            let mut chain: Vec<u64> = Vec::new();
            if let Some(pos) = rep.hits.iter().rposition(|h| h.iid == step.stmt) {
                if let Some(&ev) = rep.hit_events.get(pos) {
                    chain.push(ev);
                }
            }
            chain.push(rep.decode_event);
            if let Some(&ev) = self.origin.get(&step.stmt) {
                chain.push(ev);
            }
            chain.push(self.slice_event);
            chain.retain(|&s| s != 0);
            let mut seen = BTreeSet::new();
            chain.retain(|&s| seen.insert(s));
            step.provenance = chain;
            gist_obs::event!(SketchStepEmitted {
                step: step.step as u64,
                iid: step.stmt.0,
                provenance: step.provenance.clone(),
            });
        }
    }

    /// Step 6: demotions, the end of the trace, the result.
    fn finish(self, span: SpanGuard) -> DiagnosisResult {
        // AsT refinement tallies: promotions are statements the watchpoints
        // discovered and added to tracking; demotions are tracked statements
        // refinement proved never execute in failing runs.
        gist_obs::counter!("server.ast_promotions").add(self.refinement.discovered.len() as u64);
        let tracked_set: BTreeSet<InstrId> = self.ast.tracked_portion().iter().copied().collect();
        let demoted = self.refinement.removable(&tracked_set);
        gist_obs::counter!("server.ast_demotions").add(demoted.len() as u64);
        for &s in &demoted {
            gist_obs::event!(StmtDemoted {
                iid: s.0,
                reason: "never-executed",
                sigma: self.ast.sigma() as u64,
            });
        }
        drop(span);
        let iterations = self.ast.iteration() + 1;
        let recurrences = self.refinement.failing_runs;
        gist_obs::end_trace(iterations as u64, recurrences as u64);
        // Final checkpoint: make the trace.finish (and the post-loop
        // demotion events) visible to live cursors immediately.
        gist_obs::journal::flush_local();

        DiagnosisResult {
            sketch: self.sketch,
            iterations,
            recurrences,
            total_runs: recurrences + self.refinement.successful_runs,
            final_sigma: self.ast.sigma(),
            slice: self.ast.into_slice(),
            refinement: self.refinement,
            ranked: self.ranked,
            cost: self.cost,
        }
    }
}

/// Inter-thread value-flow provenance: a step that observes a value an
/// *interleaved* SVFG edge says another thread's sketch step may have
/// written gets a flow note naming the writer (the Fig. 1 arrow, derived
/// statically).
fn add_flow_notes(facts: &AnalysisCtx, sketch: &mut FailureSketch) {
    let (program, svfg) = (facts.program, facts.svfg());
    let tid_of: HashMap<InstrId, u32> = sketch.steps.iter().map(|s| (s.stmt, s.tid)).collect();
    for step in &mut sketch.steps {
        let flow = svfg
            .edges_in(step.stmt)
            .iter()
            .filter(|e| {
                e.kind == SvfgEdgeKind::Interleaved
                    && tid_of.get(&e.def).is_some_and(|&t| t != step.tid)
            })
            .min_by_key(|e| e.def);
        if let Some(e) = flow {
            let writer_tid = tid_of[&e.def];
            let at = program
                .stmt_loc(e.def)
                .map(|l| program.source_map.display(l))
                .unwrap_or_else(|| e.def.to_string());
            step.flow_note = Some(format!("value may flow from T{writer_tid} write at {at}"));
        }
    }
}

/// The statement a predictor points at, for journal attribution: the
/// remote (interleaved) access for atomicity violations, the earlier
/// access for races, the subject statement otherwise.
fn predictor_stmt(p: &gist_predictors::Predictor) -> InstrId {
    use gist_predictors::Predictor;
    match *p {
        Predictor::Atomicity { remote, .. } => remote,
        Predictor::Race { first, .. } => first,
        Predictor::Branch { stmt, .. }
        | Predictor::Value { stmt, .. }
        | Predictor::ValueRange { stmt, .. } => stmt,
    }
}

/// Converts one run's trace into the statistical observations of §3.3.
pub fn observations(trace: &RunTrace, failing: bool) -> RunObservations {
    let accesses: Vec<Access> = trace
        .hits
        .iter()
        .map(|h| Access {
            seq: h.seq,
            tid: h.tid,
            iid: h.iid,
            addr: h.addr,
            rw: match h.kind {
                AccessKind::Read => gist_predictors::pattern::Rw::R,
                AccessKind::Write => gist_predictors::pattern::Rw::W,
            },
            value: h.value,
        })
        .collect();
    let branches: Vec<(InstrId, bool)> = trace.branches.iter().map(|&(_, s, t)| (s, t)).collect();
    RunObservations {
        failing,
        accesses,
        branches,
        values: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientRunData;
    use gist_ir::parser::parse_program;
    use gist_tracking::InstrumentationPatch;
    use gist_tracking::TrackerRuntime;
    use gist_vm::{RunOutcome, SchedulerKind, Vm, VmConfig};

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

    /// A fleet that executes the program on the VM with varying seeds.
    struct VmFleet<'p> {
        program: &'p Program,
        next_seed: u64,
        runs: u64,
    }

    impl Fleet for VmFleet<'_> {
        fn next_run(&mut self, patch: &InstrumentationPatch) -> ClientRunData {
            self.next_seed += 1;
            self.runs += 1;
            let mut tracker = TrackerRuntime::new(self.program, patch.clone(), 4);
            let cfg = VmConfig {
                scheduler: SchedulerKind::Random {
                    seed: self.next_seed,
                    preempt: 0.6,
                },
                ..VmConfig::default()
            };
            let mut vm = Vm::new(self.program, cfg);
            let result = vm.run(&mut [&mut tracker]);
            let outcome = match result.outcome {
                RunOutcome::Failed(r) => Some(r),
                RunOutcome::Finished => None,
            };
            ClientRunData {
                run_id: self.runs,
                outcome,
                trace: tracker.finish(),
                retired: result.steps,
            }
        }
    }

    /// Finds a failing run to seed the diagnosis (the paper's step ①).
    fn first_failure(program: &Program) -> FailureReport {
        for seed in 0..200 {
            let cfg = VmConfig {
                scheduler: SchedulerKind::Random { seed, preempt: 0.6 },
                ..VmConfig::default()
            };
            let mut vm = Vm::new(program, cfg);
            if let RunOutcome::Failed(r) = vm.run(&mut []).outcome {
                return r;
            }
        }
        panic!("bug never manifested");
    }

    #[test]
    fn end_to_end_pbzip2_diagnosis() {
        let p = parse_program("pbzip2-mini", PBZIP_MINI).unwrap();
        let report = first_failure(&p);
        let main = p.function_by_name("main").unwrap();
        let store_null = main.blocks[0].instrs[5].id;

        let server = GistServer::new(
            &p,
            GistConfig {
                failing_runs_per_iteration: 6,
                title: "Failure Sketch for pbzip2 bug #1".into(),
                bug_class: "Concurrency bug".into(),
                ..GistConfig::default()
            },
        );
        let mut fleet = VmFleet {
            program: &p,
            next_seed: 1000,
            runs: 0,
        };
        let result = server.diagnose(
            &report,
            &mut fleet,
            None,
            // Developer stops once the sketch shows the root-cause store.
            &mut |sketch| sketch.stmts().contains(&store_null),
        );
        assert!(
            result.sketch.stmts().contains(&store_null),
            "sketch must contain the alias-missed root-cause store; got {:?}",
            result.sketch.stmts()
        );
        assert!(result.recurrences >= 1);
        assert!(result.iterations >= 1);
        assert!(result.cost.total_retired > 0);
        // The sketch spans both threads.
        assert!(
            result.sketch.threads.len() >= 2,
            "{:?}",
            result.sketch.threads
        );
        // A concurrency predictor should rank at the top among "order".
        let has_order_predictor = result
            .ranked
            .iter()
            .any(|s| s.predictor.category() == "order" && s.f_measure(0.5) > 0.0);
        assert!(has_order_predictor, "ranked: {:?}", result.ranked);
        // Render must not panic and must mention both threads.
        let text = result.sketch.render();
        assert!(text.contains("Thread T0"));
        assert!(text.contains("Thread T1"));
    }

    #[test]
    fn sequential_bug_diagnosis_with_branch_predictor() {
        // A curl-like sequential bug: bad input takes the unchecked path.
        let text = r#"
global urls = 0
fn next_url(u) {
entry:
  cur = load u           @ curl.c:20
  n = strlen cur         @ curl.c:21
  ret n
}
fn main() {
entry:
  s = input 0            @ curl.c:5
  bal = input 1          @ curl.c:6
  u = alloc 1            @ curl.c:7
  cond = cmp eq bal, 1   @ curl.c:8
  condbr cond, ok, bad   @ curl.c:8
ok:
  store u, s             @ curl.c:9
  br go
bad:
  store u, 0             @ curl.c:11
  br go
go:
  r = call next_url(u)   @ curl.c:13
  print r
  ret
}
"#;
        let p = parse_program("curl-mini", text).unwrap();
        // Find the failure: bal=0 stores NULL, strlen(NULL) segfaults.
        let mut report = None;
        {
            let cfg = VmConfig {
                inputs: vec![gist_vm::Input::str_from("{}{"), gist_vm::Input::Scalar(0)],
                ..VmConfig::default()
            };
            let mut vm = Vm::new(&p, cfg);
            if let RunOutcome::Failed(r) = vm.run(&mut []).outcome {
                report = Some(r);
            }
        }
        let report = report.expect("curl-mini must fail on unbalanced input");

        struct CurlFleet<'p> {
            program: &'p Program,
            n: u64,
        }
        impl Fleet for CurlFleet<'_> {
            fn next_run(&mut self, patch: &InstrumentationPatch) -> ClientRunData {
                self.n += 1;
                // Alternate failing (unbalanced) and successful inputs.
                let bad = self.n.is_multiple_of(2);
                let cfg = VmConfig {
                    inputs: vec![
                        gist_vm::Input::str_from(if bad { "{}{" } else { "abc" }),
                        gist_vm::Input::Scalar(i64::from(!bad)),
                    ],
                    ..VmConfig::default()
                };
                let mut tracker = TrackerRuntime::new(self.program, patch.clone(), 4);
                let mut vm = Vm::new(self.program, cfg);
                let result = vm.run(&mut [&mut tracker]);
                ClientRunData {
                    run_id: self.n,
                    outcome: match result.outcome {
                        RunOutcome::Failed(r) => Some(r),
                        RunOutcome::Finished => None,
                    },
                    trace: tracker.finish(),
                    retired: result.steps,
                }
            }
        }

        let server = GistServer::new(
            &p,
            GistConfig {
                failing_runs_per_iteration: 4,
                bug_class: "Sequential bug".into(),
                ..GistConfig::default()
            },
        );
        let mut fleet = CurlFleet { program: &p, n: 0 };
        let result = server.diagnose(&report, &mut fleet, None, &mut |sketch| {
            // Stop once a branch or value predictor emerges.
            sketch.predictors.iter().any(|s| s.f_measure(0.5) > 0.9)
        });
        assert!(
            result
                .ranked
                .iter()
                .any(|s| matches!(s.predictor.category(), "branch" | "value")
                    && s.f_measure(0.5) > 0.9),
            "a sequential predictor must emerge: {:?}",
            result.ranked
        );
        assert!(result.sketch.failure_type.contains("Sequential bug"));
    }

    #[test]
    fn static_only_mode_uses_tracked_set() {
        let p = parse_program("pbzip2-mini", PBZIP_MINI).unwrap();
        let report = first_failure(&p);
        let server = GistServer::new(
            &p,
            GistConfig {
                enable_control_flow: false,
                enable_data_flow: false,
                failing_runs_per_iteration: 2,
                max_iterations: 2,
                ..GistConfig::default()
            },
        );
        let mut fleet = VmFleet {
            program: &p,
            next_seed: 0,
            runs: 0,
        };
        let result = server.diagnose(&report, &mut fleet, None, &mut |_| false);
        // No PT, no watchpoints: cost counters for tracking must be zero.
        assert_eq!(result.cost.pt_bytes, 0);
        assert_eq!(result.cost.watch_traps, 0);
        // But a sketch is still produced from the static slice prefix.
        assert!(!result.sketch.is_empty());
    }
}
