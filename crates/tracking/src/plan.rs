//! The instrumentation planner (paper §3.2.2 Fig. 4 and §3.2.3).
//!
//! A patch depends only on the tracked slice portion, the watch group and
//! the planner's inputs (including which of control and data flow are
//! tracked), so the server plans each (AsT iteration, watch group) patch
//! once and ships it to every run of that group. [`Planner::plan`]
//! journals one `tracking.plan` event per patch it builds, describing
//! exactly the patch that ships.

use std::collections::{BTreeSet, HashMap};

use gist_ir::icfg::Icfg;
use gist_ir::{FuncId, InstrId, Op, Operand, Program};

use crate::patch::InstrumentationPatch;

/// Hardware watchpoint budget per run (x86: 4 debug registers).
pub const WATCH_BUDGET: usize = gist_watch::NUM_SLOTS;

/// Plans instrumentation for a tracked slice portion.
pub struct Planner<'p> {
    program: &'p Program,
    ticfg: &'p Icfg,
    watch_priority: Vec<InstrId>,
    dead_stores: BTreeSet<InstrId>,
    never_parallel: BTreeSet<InstrId>,
    value_flow_distance: HashMap<InstrId, u64>,
    control_flow: bool,
    data_flow: bool,
}

impl<'p> Planner<'p> {
    /// Creates a planner over the program's TICFG (shared with the slicer).
    pub fn new(program: &'p Program, ticfg: &'p Icfg) -> Planner<'p> {
        Planner {
            program,
            ticfg,
            watch_priority: Vec::new(),
            dead_stores: BTreeSet::new(),
            never_parallel: BTreeSet::new(),
            value_flow_distance: HashMap::new(),
            control_flow: true,
            data_flow: true,
        }
    }

    /// Ranks watchpoint candidates by their value-flow distance to the
    /// failure point (SVFG hops): among statements of equal race-rank
    /// priority, the ones fewer def-use steps from the failing value are
    /// armed in earlier cooperative groups.
    ///
    /// The distance map also *prunes* the candidate pool: a store with no
    /// value-flow path to the criterion at all writes a value the failure
    /// can never observe, so watching it only pads the cooperative
    /// schedule. Loads are kept even without a distance — their observed
    /// value can steer a branch predicate the sparse graph does not model
    /// as value flow into the criterion. Race-priority statements are
    /// always kept (the detector ranked them for discovery, not value
    /// provenance).
    pub fn with_distance_rank(mut self, distances: HashMap<InstrId, u64>) -> Planner<'p> {
        self.value_flow_distance = distances;
        self
    }

    /// Excludes statically-dead stores from watchpoint planning: a store
    /// whose cell is provably never read, freed, or synchronized on again
    /// (per the memory-liveness dataflow) cannot be the last write a
    /// watchpoint would catch, so burning one of the four debug registers
    /// on it only delays the cooperative schedule. The set is computed by
    /// the caller (`gist_analysis::dead_stores`) so tracking stays free of
    /// an analysis dependency.
    pub fn with_dead_store_filter(mut self, dead: BTreeSet<InstrId>) -> Planner<'p> {
        self.dead_stores = dead;
        self
    }

    /// Excludes never-parallel writes from watchpoint planning: a store
    /// or free that the static happens-before/MHP analysis proves has no
    /// may-parallel access to the same cell on another thread cannot be
    /// one side of the racing pair the watchpoints hunt for, so arming it
    /// only lengthens the cooperative schedule. The set is computed by
    /// the caller (`gist_analysis::Mhp::never_parallel_stores`) so
    /// tracking stays free of an analysis dependency.
    pub fn with_mhp_filter(mut self, never_parallel: BTreeSet<InstrId>) -> Planner<'p> {
        self.never_parallel = never_parallel;
        self
    }

    /// Selects what the planned patches track (both by default): with
    /// `control_flow` off they carry no PT start, stop or resume point;
    /// with `data_flow` off they arm no watchpoint, so there are no watch
    /// candidates and a single watch group (the ablations of Fig. 10).
    pub fn with_tracking(mut self, control_flow: bool, data_flow: bool) -> Planner<'p> {
        self.control_flow = control_flow;
        self.data_flow = data_flow;
        self
    }

    /// Orders watchpoint insertion by an external ranking (e.g. the static
    /// race detector's candidate order): statements earlier in `priority`
    /// land in earlier cooperative watch groups, so the likeliest racing
    /// accesses are monitored by the first production runs instead of
    /// waiting their turn in slice order. Statements not mentioned keep
    /// their relative slice order after the prioritized ones.
    pub fn with_watch_priority(mut self, priority: Vec<InstrId>) -> Planner<'p> {
        self.watch_priority = priority;
        self
    }

    /// The watchpoint-eligible access statements among `tracked`: memory
    /// accesses whose address is not statically stack-derived (Gist does
    /// not track stack variables, §3.2.3). None when data flow is not
    /// tracked.
    pub fn watch_candidates(&self, tracked: &[InstrId]) -> Vec<InstrId> {
        if !self.data_flow {
            return Vec::new();
        }
        let mut out: Vec<InstrId> = tracked
            .iter()
            .copied()
            .filter(|&s| {
                !self.dead_stores.contains(&s)
                    && !self.never_parallel.contains(&s)
                    && self.is_watch_candidate(s)
                    && self.flows_to_failure(s)
            })
            .collect();
        if !self.value_flow_distance.is_empty() {
            out.retain(|&s| self.arms_its_cell(s, tracked));
        }
        out
    }

    /// One armer per cell per basic block: a watchpoint arms an *address*
    /// and stays armed for the rest of the run, so once a block's first
    /// access to a cell arms it, the block's later accesses to the same
    /// cell trap without needing an arming bit of their own. Dropping them
    /// from the candidate pool shortens the cooperative watch schedule
    /// without losing coverage (every cell still has an armer in some
    /// group). Applied only under the sparse value-flow plan, whose
    /// per-cell def-use chains this mirrors statically.
    ///
    /// `s` survives unless an earlier tracked candidate in the same block
    /// accesses the same syntactic cell with no redefinition of the
    /// address register in between.
    fn arms_its_cell(&self, s: InstrId, tracked: &[InstrId]) -> bool {
        let Some(pos) = self.program.stmt_pos(s) else {
            return true;
        };
        let Some(addr) = self.program.instr(s).and_then(|i| i.op.access_addr()) else {
            return true;
        };
        let block = self.program.functions[pos.func.index()].block(pos.block);
        for earlier in tracked {
            let Some(epos) = self.program.stmt_pos(*earlier) else {
                continue;
            };
            if epos.func != pos.func || epos.block != pos.block || epos.index >= pos.index {
                continue;
            }
            let Some(einstr) = self.program.instr(*earlier) else {
                continue;
            };
            if einstr.op.access_addr() != Some(addr)
                || self.dead_stores.contains(earlier)
                || self.never_parallel.contains(earlier)
                || !self.is_watch_candidate(*earlier)
                || !self.flows_to_failure(*earlier)
            {
                continue;
            }
            // The earlier access arms the same cell — unless the address
            // register is redefined between the two statements.
            let redefined = match addr {
                Operand::Var(v) => block.instrs[epos.index + 1..pos.index]
                    .iter()
                    .any(|i| i.op.def() == Some(v)),
                Operand::Global(_) | Operand::Const(_) => false,
            };
            if !redefined {
                return false;
            }
        }
        true
    }

    /// True unless the value-flow distance map proves `s` is a store whose
    /// value cannot reach the failure (see [`Planner::with_distance_rank`]).
    fn flows_to_failure(&self, s: InstrId) -> bool {
        if self.value_flow_distance.is_empty()
            || self.value_flow_distance.contains_key(&s)
            || self.watch_priority.contains(&s)
        {
            return true;
        }
        !self
            .program
            .instr(s)
            .map(|i| i.op.is_memory_write())
            .unwrap_or(false)
    }

    fn is_watch_candidate(&self, s: InstrId) -> bool {
        let instr = match self.program.instr(s) {
            Some(i) => i,
            None => return false,
        };
        let addr = match instr.op.access_addr() {
            Some(a) => a,
            None => return false,
        };
        match addr {
            Operand::Global(_) => true,
            Operand::Const(_) => true, // absolute address; watchable
            Operand::Var(v) => {
                // Exclude registers defined *only* by stackalloc in the
                // same function (statically known stack addresses).
                let func = self.program.stmt_func(s).expect("indexed");
                let mut any_def = false;
                let mut all_stack = true;
                for f in &self.program.functions {
                    if f.id != func {
                        continue;
                    }
                    for b in &f.blocks {
                        for i in &b.instrs {
                            if i.op.def() == Some(v) {
                                any_def = true;
                                if !matches!(i.op, Op::StackAlloc { .. }) {
                                    all_stack = false;
                                }
                            }
                        }
                    }
                }
                !(any_def && all_stack)
            }
        }
    }

    /// Number of cooperative watch groups needed for this slice portion
    /// ("Gist instructs different production runs to monitor different
    /// sets of memory locations", §3.2.3).
    pub fn watch_groups(&self, tracked: &[InstrId]) -> usize {
        let n = self.watch_candidates(tracked).len();
        n.div_ceil(WATCH_BUDGET).max(1)
    }

    /// Plans instrumentation for the given slice portion; `watch_group`
    /// selects which cooperative subset of watchpoint sites this run arms.
    pub fn plan(&self, tracked: &[InstrId], watch_group: usize) -> InstrumentationPatch {
        let patch = self.plan_with_options(tracked, watch_group, true);
        gist_obs::event!(PatchPlanned {
            tracked: patch.tracked.len() as u64,
            watch: patch.watch_accesses.len() as u64,
            group: watch_group as u64,
            bytes: patch.shipped_size() as u64,
        });
        patch
    }

    /// Ablation: plan without the strict-dominance optimization of §3.2.2
    /// (every tracked statement gets its own start points, and tracking
    /// stops after every tracked statement). Comparing instrumentation
    /// point counts and driver transitions against [`Planner::plan`]
    /// quantifies what the paper's `sdom`/`ipdom` analysis saves.
    pub fn plan_without_sdom(
        &self,
        tracked: &[InstrId],
        watch_group: usize,
    ) -> InstrumentationPatch {
        self.plan_with_options(tracked, watch_group, false)
    }

    fn plan_with_options(
        &self,
        tracked: &[InstrId],
        watch_group: usize,
        use_sdom: bool,
    ) -> InstrumentationPatch {
        let _span = gist_obs::span("tracking.plan");
        gist_obs::counter!("tracking.plans").inc();
        let mut patch = InstrumentationPatch {
            tracked: tracked.iter().copied().collect(),
            ..InstrumentationPatch::default()
        };
        if self.control_flow {
            self.plan_control_flow(tracked, &mut patch, use_sdom);
        }
        self.plan_data_flow(tracked, watch_group, &mut patch);
        patch
    }

    /// A patch that traces everything (full-tracing baseline of Fig. 13).
    pub fn plan_full_trace(&self) -> InstrumentationPatch {
        InstrumentationPatch {
            pt_on_at_start: true,
            tracked: self.program.all_stmt_ids().collect(),
            ..InstrumentationPatch::default()
        }
    }

    /// Control-flow planning: start/stop points per §3.2.2.
    ///
    /// The interprocedural composition needs care beyond the paper's
    /// intra-procedural Fig. 4: a stop point inside a *callee* disables
    /// tracing for the caller's remaining statements even when the `sdom`
    /// optimization says they are covered. The planner therefore runs two
    /// passes — stops first, then starts — and (a) only trusts `sdom`
    /// coverage when no call on the covered stretch can reach a stop
    /// point, (b) inserts *resume points* (re-enable tracing when control
    /// returns to the statement after a callsite) otherwise.
    fn plan_control_flow(
        &self,
        tracked: &[InstrId],
        patch: &mut InstrumentationPatch,
        use_sdom: bool,
    ) {
        // Group tracked statements by function, ordered by (block RPO
        // position, index within block) — the flow order used for the
        // pairwise sdom test.
        let mut by_func: HashMap<FuncId, Vec<InstrId>> = HashMap::new();
        for &s in tracked {
            if let Some(f) = self.program.stmt_func(s) {
                by_func.entry(f).or_default().push(s);
            }
        }
        let mut ordered_by_func: HashMap<FuncId, Vec<InstrId>> = HashMap::new();
        for (func, stmts) in &by_func {
            let cfg = &self.ticfg.cfgs[func.index()];
            let rpo_idx = cfg.rpo_index();
            let mut ordered = stmts.clone();
            ordered.sort_by_key(|&s| {
                let pos = self.program.stmt_pos(s).expect("indexed");
                (rpo_idx[pos.block.index()], pos.index)
            });
            ordered_by_func.insert(*func, ordered);
        }

        // Pass 1: stop points.
        let mut funcs_with_stops: Vec<FuncId> = Vec::new();
        for (func, ordered) in &ordered_by_func {
            let dom = &self.ticfg.doms[func.index()];
            let mut any_stop = false;
            for (i, &s) in ordered.iter().enumerate() {
                let stops_needed = match ordered.get(i + 1) {
                    // Stop "after stmt and before its immediate
                    // postdominator" when it does not strictly dominate the
                    // next tracked statement (Fig. 4 box II).
                    Some(&next) => !use_sdom || !self.stmt_sdom(dom, s, next),
                    // Last tracked statement of the function: always stop.
                    None => true,
                };
                if stops_needed {
                    patch.pt_off_after.insert(s);
                    any_stop = true;
                }
            }
            if any_stop {
                funcs_with_stops.push(*func);
            }
        }

        // Pass 2: start points, with call-aware coverage.
        for (func, ordered) in &ordered_by_func {
            let dom = &self.ticfg.doms[func.index()];
            // Could a call issued from this function reach a stop point?
            // Conservative: any *other* function has a stop.
            let calls_may_stop = funcs_with_stops.iter().any(|f| f != func);
            for (i, &s) in ordered.iter().enumerate() {
                let mut covered = false;
                if use_sdom && i > 0 {
                    let prev = ordered[i - 1];
                    if self.stmt_sdom(dom, prev, s) {
                        if !calls_may_stop {
                            covered = true;
                        } else {
                            let pp = self.program.stmt_pos(prev).expect("indexed");
                            let sp = self.program.stmt_pos(s).expect("indexed");
                            if pp.block == sp.block {
                                // Same block: coverage holds unless a call
                                // on the stretch may stop tracing; then a
                                // resume point at each call's return site
                                // restores it.
                                let calls =
                                    self.calls_in_block(*func, pp.block, pp.index, sp.index);
                                if calls.is_empty() {
                                    covered = true;
                                } else {
                                    covered = true;
                                    for c in calls {
                                        if let Some(after) = self.stmt_after(c) {
                                            patch.pt_on_return_to.insert(after);
                                        }
                                    }
                                }
                            }
                            // Different blocks with possible stopping calls
                            // on some path: fall back to start points.
                        }
                    }
                }
                if !covered {
                    self.add_start_points(*func, s, patch);
                    // A mid-block statement preceded by calls in its own
                    // block also needs resume points (its block's
                    // predecessors fired before those calls returned).
                    let sp = self.program.stmt_pos(s).expect("indexed");
                    if calls_may_stop {
                        for c in self.calls_in_block(*func, sp.block, 0, sp.index) {
                            if let Some(after) = self.stmt_after(c) {
                                patch.pt_on_return_to.insert(after);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Call statements at instruction indexes `[from, to)` of one block.
    fn calls_in_block(
        &self,
        func: FuncId,
        block: gist_ir::BlockId,
        from: usize,
        to: usize,
    ) -> Vec<InstrId> {
        let b = self.program.function(func).block(block);
        b.instrs
            .iter()
            .enumerate()
            .filter(|(idx, instr)| *idx >= from && *idx < to && matches!(instr.op, Op::Call { .. }))
            .map(|(_, instr)| instr.id)
            .collect()
    }

    /// The statement after `s` in its block (terminator if `s` is last).
    fn stmt_after(&self, s: InstrId) -> Option<InstrId> {
        let pos = self.program.stmt_pos(s)?;
        let block = self.program.function(pos.func).block(pos.block);
        Some(
            block
                .instrs
                .get(pos.index + 1)
                .map(|i| i.id)
                .unwrap_or_else(|| block.term.id()),
        )
    }

    /// True if `a` strictly dominates `b` at statement level.
    fn stmt_sdom(&self, dom: &gist_ir::dom::DomTree, a: InstrId, b: InstrId) -> bool {
        let pa = self.program.stmt_pos(a).expect("indexed");
        let pb = self.program.stmt_pos(b).expect("indexed");
        if pa.block == pb.block {
            return pa.index < pb.index;
        }
        dom.strictly_dominates(pa.block, pb.block)
    }

    /// Start points for tracked statement `s`: each predecessor block of
    /// `bb(s)` (Fig. 4 box I); for entry blocks, the callsites (or run
    /// start for the program entry function).
    fn add_start_points(&self, func: FuncId, s: InstrId, patch: &mut InstrumentationPatch) {
        let pos = self.program.stmt_pos(s).expect("indexed");
        let cfg = &self.ticfg.cfgs[func.index()];
        let preds = &cfg.preds[pos.block.index()];
        if pos.block == self.program.function(func).entry() {
            // Control arrives via calls/spawns (or program start). The ON
            // instrumentation lives at the function's entry so it executes
            // in the *entering* thread — for a spawned start routine that
            // is the child thread, on its own core.
            if func == self.program.entry {
                patch.pt_on_at_start = true;
            } else {
                patch.pt_on_enter.insert(func);
            }
        }
        for p in preds {
            let term_id = self.program.function(func).block(*p).term.id();
            patch.pt_on_after.insert(term_id);
        }
    }

    /// Data-flow planning: watchpoint sites, cooperatively partitioned.
    fn plan_data_flow(
        &self,
        tracked: &[InstrId],
        watch_group: usize,
        patch: &mut InstrumentationPatch,
    ) {
        let mut candidates = self.watch_candidates(tracked);
        if !self.watch_priority.is_empty() || !self.value_flow_distance.is_empty() {
            let rank: HashMap<InstrId, usize> = self
                .watch_priority
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, i))
                .collect();
            // Stable: race rank first, then value-flow distance to the
            // failure, then slice order for the rest.
            candidates.sort_by_key(|s| {
                (
                    rank.get(s).copied().unwrap_or(usize::MAX),
                    self.value_flow_distance.get(s).copied().unwrap_or(u64::MAX),
                )
            });
        }
        let groups: Vec<&[InstrId]> = candidates.chunks(WATCH_BUDGET).collect();
        if groups.is_empty() {
            return;
        }
        let g = watch_group % groups.len();
        patch.watch_accesses = groups[g].iter().copied().collect::<BTreeSet<_>>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;

    fn setup(text: &str) -> (Program, Icfg) {
        let p = parse_program("t", text).unwrap();
        let g = Icfg::build_ticfg(&p);
        (p, g)
    }

    const DIAMOND: &str = r#"
global g = 0
fn main() {
entry:
  v = load $g
  c = cmp eq v, 0
  condbr c, then, exit
then:
  x = load $g
  br exit
exit:
  w = load $g
  assert w, "boom"
  ret
}
"#;

    #[test]
    fn start_points_are_predecessor_terminators() {
        let (p, g) = setup(DIAMOND);
        let planner = Planner::new(&p, &g);
        let main = &p.functions[0];
        let exit_block = main.blocks.iter().find(|b| b.label == "exit").unwrap();
        let w_load = exit_block.instrs[0].id;
        let patch = planner.plan(&[w_load], 0);
        // exit has two predecessors: entry's condbr and then's br.
        let condbr = main.blocks[0].term.id();
        let then_br = main
            .blocks
            .iter()
            .find(|b| b.label == "then")
            .unwrap()
            .term
            .id();
        assert!(patch.pt_on_after.contains(&condbr));
        assert!(patch.pt_on_after.contains(&then_br));
        // Last tracked statement: stop after it.
        assert!(patch.pt_off_after.contains(&w_load));
    }

    #[test]
    fn entry_block_statement_starts_at_run_begin() {
        let (p, g) = setup(DIAMOND);
        let planner = Planner::new(&p, &g);
        let v_load = p.functions[0].blocks[0].instrs[0].id;
        let patch = planner.plan(&[v_load], 0);
        assert!(patch.pt_on_at_start, "main entry block has no preds");
    }

    #[test]
    fn sdom_optimization_skips_redundant_starts() {
        // v and c are in the same block: tracking started for v covers c
        // (paper: stmt1 sdom stmt2 needs no special handling).
        let (p, g) = setup(DIAMOND);
        let planner = Planner::new(&p, &g);
        let main = &p.functions[0];
        let v_load = main.blocks[0].instrs[0].id;
        let c_cmp = main.blocks[0].instrs[1].id;
        let patch = planner.plan(&[v_load, c_cmp], 0);
        // Starts only for v (run start); nothing for c.
        assert!(patch.pt_on_at_start);
        assert!(
            patch.pt_on_after.is_empty(),
            "no extra start points: {:?}",
            patch.pt_on_after
        );
        // v sdom c, so no stop after v; stop only after c.
        assert!(!patch.pt_off_after.contains(&v_load));
        assert!(patch.pt_off_after.contains(&c_cmp));
    }

    #[test]
    fn non_dominating_pair_stops_and_restarts() {
        // then-block x does not dominate exit-block w: stop after x,
        // restart at exit's preds (Fig. 4 boxes II and III).
        let (p, g) = setup(DIAMOND);
        let planner = Planner::new(&p, &g);
        let main = &p.functions[0];
        let x_load = main
            .blocks
            .iter()
            .find(|b| b.label == "then")
            .unwrap()
            .instrs[0]
            .id;
        let w_load = main
            .blocks
            .iter()
            .find(|b| b.label == "exit")
            .unwrap()
            .instrs[0]
            .id;
        let patch = planner.plan(&[x_load, w_load], 0);
        assert!(patch.pt_off_after.contains(&x_load), "stop after x");
        // Restart at exit's predecessors.
        assert!(!patch.pt_on_after.is_empty());
    }

    #[test]
    fn callee_statement_starts_at_function_entry() {
        let (p, g) = setup(
            r#"
global g = 0
fn helper(a) {
entry:
  v = load $g
  ret v
}
fn main() {
entry:
  r = call helper(1)
  assert r, "x"
  ret
}
"#,
        );
        let planner = Planner::new(&p, &g);
        let helper = p.function_by_name("helper").unwrap();
        let v_load = helper.blocks[0].instrs[0].id;
        let patch = planner.plan(&[v_load], 0);
        let helper_fn = p.function_by_name("helper").unwrap();
        assert!(
            patch.pt_on_enter.contains(&helper_fn.id),
            "tracked entry-block stmt starts tracing at function entry"
        );
        assert!(!patch.pt_on_at_start, "helper is not the program entry");
    }

    #[test]
    fn watch_candidates_exclude_stack_accesses() {
        let (p, g) = setup(
            r#"
global shared = 0
fn main() {
entry:
  s = stackalloc 4
  store s, 1
  store $shared, 2
  v = load s
  w = load $shared
  assert w, "x"
  ret
}
"#,
        );
        let planner = Planner::new(&p, &g);
        let main = &p.functions[0];
        let all: Vec<InstrId> = main.blocks[0].instrs.iter().map(|i| i.id).collect();
        let cands = planner.watch_candidates(&all);
        let store_stack = main.blocks[0].instrs[1].id;
        let store_shared = main.blocks[0].instrs[2].id;
        let load_stack = main.blocks[0].instrs[3].id;
        let load_shared = main.blocks[0].instrs[4].id;
        assert!(!cands.contains(&store_stack));
        assert!(!cands.contains(&load_stack));
        assert!(cands.contains(&store_shared));
        assert!(cands.contains(&load_shared));
    }

    #[test]
    fn cooperative_partitioning_over_budget() {
        // Six distinct watch sites -> 2 groups.
        let (p, g) = setup(
            r#"
global a = 0
global b = 0
global c = 0
fn main() {
entry:
  v1 = load $a
  v2 = load $b
  v3 = load $c
  store $a, v1
  store $b, v2
  store $c, v3
  assert v1, "x"
  ret
}
"#,
        );
        let planner = Planner::new(&p, &g);
        let main = &p.functions[0];
        let all: Vec<InstrId> = main.blocks[0].instrs.iter().map(|i| i.id).collect();
        assert_eq!(planner.watch_groups(&all), 2);
        let p0 = planner.plan(&all, 0);
        let p1 = planner.plan(&all, 1);
        assert_eq!(p0.watch_accesses.len(), 4);
        assert_eq!(p1.watch_accesses.len(), 2);
        assert!(p0.watch_accesses.is_disjoint(&p1.watch_accesses));
        // Group index wraps.
        let p2 = planner.plan(&all, 2);
        assert_eq!(p2.watch_accesses, p0.watch_accesses);
    }

    #[test]
    fn watch_priority_reorders_cooperative_groups() {
        // Same six-site program as above; rank the last slice candidate
        // first and it must move into watch group 0.
        let (p, g) = setup(
            r#"
global a = 0
global b = 0
global c = 0
fn main() {
entry:
  v1 = load $a
  v2 = load $b
  v3 = load $c
  store $a, v1
  store $b, v2
  store $c, v3
  assert v1, "x"
  ret
}
"#,
        );
        let main = &p.functions[0];
        let all: Vec<InstrId> = main.blocks[0].instrs.iter().map(|i| i.id).collect();
        let last_store = main.blocks[0].instrs[5].id;

        let unranked = Planner::new(&p, &g).plan(&all, 0);
        assert!(
            !unranked.watch_accesses.contains(&last_store),
            "slice order leaves the last site for group 1"
        );

        let ranked = Planner::new(&p, &g)
            .with_watch_priority(vec![last_store])
            .plan(&all, 0);
        assert!(
            ranked.watch_accesses.contains(&last_store),
            "priority promotes it into group 0"
        );
        // Groups stay disjoint and exhaustive under the reordering.
        let g1 = Planner::new(&p, &g)
            .with_watch_priority(vec![last_store])
            .plan(&all, 1);
        assert!(ranked.watch_accesses.is_disjoint(&g1.watch_accesses));
        assert_eq!(ranked.watch_accesses.len() + g1.watch_accesses.len(), 6);
    }

    #[test]
    fn value_flow_distance_breaks_ties_within_priority_tiers() {
        // No race priority: distances alone decide group membership. Give
        // the last two slice sites the smallest distances and they must
        // displace earlier sites from group 0. (Each site touches its own
        // global so the per-block cell dedup stays out of the way.)
        let (p, g) = setup(
            r#"
global a = 0
global b = 0
global c = 0
global d = 0
global e = 0
global f = 0
fn main() {
entry:
  v1 = load $a
  v2 = load $b
  v3 = load $c
  store $d, v1
  store $e, v2
  store $f, v3
  assert v1, "x"
  ret
}
"#,
        );
        let main = &p.functions[0];
        let all: Vec<InstrId> = main.blocks[0].instrs.iter().map(|i| i.id).collect();
        let store_e = main.blocks[0].instrs[4].id;
        let store_f = main.blocks[0].instrs[5].id;
        let mut dist = HashMap::new();
        dist.insert(store_e, 1u64);
        dist.insert(store_f, 2u64);
        let patch = Planner::new(&p, &g).with_distance_rank(dist).plan(&all, 0);
        assert!(patch.watch_accesses.contains(&store_e));
        assert!(patch.watch_accesses.contains(&store_f));
        // Race priority still wins over distance.
        let v1 = main.blocks[0].instrs[0].id;
        let mut dist2 = HashMap::new();
        dist2.insert(store_f, 0u64);
        let patch2 = Planner::new(&p, &g)
            .with_watch_priority(vec![v1])
            .with_distance_rank(dist2)
            .plan(&all, 0);
        assert!(patch2.watch_accesses.contains(&v1), "priority tier first");
        assert!(patch2.watch_accesses.contains(&store_f), "then distance");
    }

    #[test]
    fn distance_map_prunes_flowless_stores_and_redundant_armers() {
        // `store $a, v1` follows `v1 = load $a` in the same block: the
        // load's arming already covers the cell, so under a distance map
        // the store sheds its arming bit. `store $b, v2` has no value-flow
        // distance at all, so it leaves the pool entirely; the loads stay
        // (branch predicates may need their values). Without a distance
        // map the pool is untouched.
        let (p, g) = setup(
            r#"
global a = 0
global b = 0
fn main() {
entry:
  v1 = load $a
  v2 = load $b
  store $a, v1
  store $b, v2
  assert v1, "x"
  ret
}
"#,
        );
        let main = &p.functions[0];
        let all: Vec<InstrId> = main.blocks[0].instrs.iter().map(|i| i.id).collect();
        let load_a = main.blocks[0].instrs[0].id;
        let load_b = main.blocks[0].instrs[1].id;
        let store_a = main.blocks[0].instrs[2].id;

        let plain = Planner::new(&p, &g);
        assert_eq!(plain.watch_candidates(&all).len(), 4, "no map: full pool");

        let mut dist = HashMap::new();
        dist.insert(store_a, 1u64);
        let ranked = Planner::new(&p, &g).with_distance_rank(dist);
        let pool = ranked.watch_candidates(&all);
        assert_eq!(
            pool,
            vec![load_a, load_b],
            "store_a deduped behind load_a, store_b dropped as flowless"
        );
    }

    #[test]
    fn dead_store_filter_frees_watch_slots() {
        // Six watchable sites need two cooperative groups; filtering two
        // of them as dead stores fits the rest into one group.
        let (p, g) = setup(
            r#"
global a = 0
global b = 0
global c = 0
fn main() {
entry:
  v1 = load $a
  v2 = load $b
  v3 = load $c
  store $a, v1
  store $b, v2
  store $c, v3
  assert v1, "x"
  ret
}
"#,
        );
        let main = &p.functions[0];
        let all: Vec<InstrId> = main.blocks[0].instrs.iter().map(|i| i.id).collect();
        let dead: BTreeSet<InstrId> = [main.blocks[0].instrs[4].id, main.blocks[0].instrs[5].id]
            .into_iter()
            .collect();
        let unfiltered = Planner::new(&p, &g);
        assert_eq!(unfiltered.watch_groups(&all), 2);
        let filtered = Planner::new(&p, &g).with_dead_store_filter(dead.clone());
        assert_eq!(filtered.watch_groups(&all), 1);
        let patch = filtered.plan(&all, 0);
        for d in &dead {
            assert!(
                !patch.watch_accesses.contains(d),
                "dead store never occupies a debug register"
            );
        }
    }

    #[test]
    fn full_trace_plan_has_no_stop_points() {
        let (p, g) = setup(DIAMOND);
        let planner = Planner::new(&p, &g);
        let patch = planner.plan_full_trace();
        assert!(patch.pt_on_at_start);
        assert!(patch.pt_off_after.is_empty());
        assert_eq!(patch.tracked.len(), p.stmt_count());
    }
}
