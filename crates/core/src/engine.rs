//! The failure sketch engine (Fig. 2, step ⑤): assembles per-thread
//! columns, time steps, data values, and the highest-ranked failure
//! predictors into a [`FailureSketch`].

use std::collections::{BTreeSet, HashMap, HashSet};

use gist_analysis::AnalysisCtx;
use gist_ir::printer::stmt_to_string;
use gist_ir::{InstrId, Op, Operand, Program};
use gist_predictors::{top_by_category, Predictor, PredictorStats};
use gist_sketch::{FailureSketch, SketchStep};
use gist_tracking::RunTrace;
use gist_vm::FailureReport;

/// Builds failure sketches for one program. It reads the program's TICFG
/// (for the reaching-path step pruning) and constants (static value
/// annotations when the dynamic trace has no hit value for a step) from
/// the [`AnalysisCtx`] it borrows, the one the server's slicer owns.
pub struct SketchBuilder<'a, 'p> {
    program: &'p Program,
    facts: &'a AnalysisCtx<'p>,
    /// Sketch title (e.g. `Failure Sketch for pbzip2 bug #1`).
    pub title: String,
    /// Bug classification for the type line (`Concurrency bug` /
    /// `Sequential bug`).
    pub bug_class: String,
}

impl<'a, 'p> SketchBuilder<'a, 'p> {
    /// Creates a builder over `facts`, with a default title derived from
    /// the program.
    pub fn new(facts: &'a AnalysisCtx<'p>) -> Self {
        SketchBuilder {
            title: format!("Failure Sketch for {}", facts.program.name),
            program: facts.program,
            facts,
            bug_class: "Bug".to_owned(),
        }
    }

    /// Sets the title.
    pub fn with_title(mut self, title: &str) -> Self {
        self.title = title.to_owned();
        self
    }

    /// Sets the bug classification.
    pub fn with_class(mut self, class: &str) -> Self {
        self.bug_class = class.to_owned();
        self
    }

    /// Assembles the sketch.
    ///
    /// * `report` — the failure under diagnosis,
    /// * `stmts` — the refined statement set (slice ∩ executed ∪ discovered),
    /// * `rep` — a representative *failing* run's trace, used for thread
    ///   attribution and inter-thread ordering (watchpoint hits are the
    ///   cross-thread anchors; within a thread, decoded PT order is used),
    /// * `stats` — ranked predictors; the best per category is highlighted,
    /// * `ideal` — if provided, statements outside it render grey
    ///   (evaluation mode, as in Fig. 8).
    pub fn build(
        &self,
        report: &FailureReport,
        stmts: &BTreeSet<InstrId>,
        rep: &RunTrace,
        stats: &[PredictorStats],
        beta: f64,
        ideal: Option<&BTreeSet<InstrId>>,
    ) -> FailureSketch {
        // ---- ordering ---------------------------------------------------
        // Occurrences of sketch statements per thread, keyed for a global
        // merge: (anchor seq from the last watchpoint hit at or before the
        // occurrence, tid, position in thread).
        let mut occurrences: Vec<(u64, u32, usize, InstrId)> = Vec::new();
        let mut tids: Vec<u32> = rep
            .decoded
            .per_core
            .iter()
            .flat_map(|c| c.iter().map(|&(t, _)| t))
            .collect();
        tids.sort_unstable();
        tids.dedup();
        for &tid in &tids {
            let thread_stmts = rep.decoded.thread_stmts(tid);
            let mut hits = rep.hits.iter().filter(|h| h.tid == tid).collect::<Vec<_>>();
            hits.sort_by_key(|h| h.seq);
            // Anchor each occurrence to the seq of this thread's *next*
            // watch hit at or after it (it executed at or before that
            // hit); occurrences past the last hit keep the last hit's
            // seq. Anchoring to the *previous* hit instead would give
            // every pre-first-hit occurrence anchor 0 and sort a late
            // thread's prefix ahead of other threads' anchored work.
            let mut hit_idx = 0usize;
            let mut pending: Vec<(usize, InstrId)> = Vec::new();
            let mut last_anchor = 0u64;
            for (pos, &s) in thread_stmts.iter().enumerate() {
                if stmts.contains(&s) {
                    pending.push((pos, s));
                }
                if hit_idx < hits.len() && hits[hit_idx].iid == s {
                    last_anchor = hits[hit_idx].seq;
                    hit_idx += 1;
                    for (p, st) in pending.drain(..) {
                        occurrences.push((last_anchor, tid, p, st));
                    }
                }
            }
            for (p, st) in pending {
                occurrences.push((last_anchor, tid, p, st));
            }
        }
        // If a sketch statement never appears in the decoded trace (e.g. a
        // discovered statement traced only by a watchpoint), synthesize an
        // occurrence from its hit.
        let decoded_set: BTreeSet<InstrId> = occurrences.iter().map(|o| o.3).collect();
        for h in &rep.hits {
            if stmts.contains(&h.iid) && !decoded_set.contains(&h.iid) {
                occurrences.push((h.seq, h.tid, usize::MAX, h.iid));
            }
        }
        // Static-only fallback: sketch statements with no runtime placement
        // at all (no decoded control flow, no hit) are laid out in program
        // order, attributed to the failing thread. This is what the sketch
        // looks like after a single failure with no refinement yet.
        let placed: BTreeSet<InstrId> = occurrences.iter().map(|o| o.3).collect();
        for &s in stmts {
            if !placed.contains(&s) {
                occurrences.push((0, report.tid, s.0 as usize, s));
            }
        }
        occurrences.sort_by_key(|&(anchor, tid, pos, _)| (anchor, tid, pos));
        // Keep the LAST occurrence of each (tid, stmt): near the failure is
        // where the sketch's single row for a looped statement belongs.
        let mut last_at: HashMap<(u32, InstrId), usize> = HashMap::new();
        for (i, &(_, tid, _, s)) in occurrences.iter().enumerate() {
            last_at.insert((tid, s), i);
        }
        let mut kept: Vec<(u64, u32, usize, InstrId)> = occurrences
            .iter()
            .enumerate()
            .filter(|(i, &(_, tid, _, s))| last_at[&(tid, s)] == *i)
            .map(|(_, &o)| o)
            .collect();
        // The failing statement is always last.
        if let Some(p) = kept
            .iter()
            .position(|&(_, _, _, s)| s == report.failing_stmt)
        {
            let f = kept.remove(p);
            kept.push(f);
        }

        // ---- predictors & highlights ------------------------------------
        let tops = top_by_category(stats, beta);
        let mut highlighted: BTreeSet<InstrId> = BTreeSet::new();
        for s in tops.values() {
            match &s.predictor {
                Predictor::Atomicity {
                    first,
                    remote,
                    second,
                    ..
                } => {
                    highlighted.insert(*first);
                    highlighted.insert(*remote);
                    highlighted.insert(*second);
                }
                Predictor::Race { first, second, .. } => {
                    highlighted.insert(*first);
                    highlighted.insert(*second);
                }
                Predictor::Branch { stmt, .. }
                | Predictor::Value { stmt, .. }
                | Predictor::ValueRange { stmt, .. } => {
                    highlighted.insert(*stmt);
                }
            }
        }

        // ---- value column -----------------------------------------------
        // Label from the best value predictor's access expression; notes
        // from the representative run's last hit value per statement.
        let value_column = tops.get("value").map(|s| match &s.predictor {
            Predictor::Value { stmt, .. } | Predictor::ValueRange { stmt, .. } => {
                self.value_label(*stmt)
            }
            _ => "value".to_owned(),
        });
        let mut value_at: HashMap<InstrId, i64> = HashMap::new();
        for h in &rep.hits {
            value_at.insert(h.iid, h.value);
        }

        // ---- rows ---------------------------------------------------------
        let mut threads: Vec<u32> = kept.iter().map(|&(_, t, _, _)| t).collect();
        threads.sort_unstable();
        threads.dedup();
        let steps: Vec<SketchStep> = kept
            .iter()
            .enumerate()
            .map(|(i, &(_, tid, _, stmt))| {
                let loc = self
                    .program
                    .stmt_loc(stmt)
                    .map(|l| self.program.source_map.display(l))
                    .unwrap_or_default();
                let text = self
                    .program
                    .stmt_loc(stmt)
                    .and_then(|l| self.program.source_map.line_text(l))
                    .map(str::to_owned)
                    .unwrap_or_else(|| stmt_to_string(self.program, stmt));
                let mut value_note = value_at
                    .get(&stmt)
                    .map(|v| v.to_string())
                    .or_else(|| self.static_value_note(stmt));
                if stmt == report.failing_stmt {
                    let suffix = format!("<- Failure ({})", report.kind.label());
                    value_note = Some(match value_note {
                        Some(v) => format!("{v}  {suffix}"),
                        None => suffix,
                    });
                }
                SketchStep {
                    step: i + 1,
                    tid,
                    stmt,
                    text,
                    loc,
                    highlight: highlighted.contains(&stmt),
                    grey: ideal.map(|i| !i.contains(&stmt)).unwrap_or(false),
                    value_note,
                    // Filled in by the server, which holds the SVFG.
                    flow_note: None,
                    // Filled in by the server, which holds the journal
                    // anchors (hit/decode/promotion/slice event seq-nos).
                    provenance: Vec::new(),
                }
            })
            .collect();

        let mut predictors: Vec<PredictorStats> = tops.into_values().collect();
        predictors.sort_by(|a, b| {
            b.f_measure(beta)
                .partial_cmp(&a.f_measure(beta))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut sketch = FailureSketch {
            title: self.title.clone(),
            failure_type: format!("{}, {}", self.bug_class, report.kind.label()),
            value_column,
            steps,
            threads,
            predictors,
            failing_stmt: Some(report.failing_stmt),
        };
        // Reaching-path pruning: a step whose statement neither lies on a
        // TICFG path to the failing statement nor touches memory (the only
        // channel through which a concurrent statement can still affect
        // the failure) pads the sketch without explaining anything.
        let reach: HashSet<InstrId> = self
            .facts
            .ticfg()
            .backward_order(report.failing_stmt)
            .into_iter()
            .collect();
        sketch.retain_steps(|s| {
            reach.contains(&s)
                || self
                    .program
                    .instr(s)
                    .map(|i| i.op.is_memory_access())
                    .unwrap_or(false)
        });
        sketch
    }

    /// A static value annotation for `stmt` when no dynamic hit recorded
    /// one: the constant the sparse constant propagation proves is stored
    /// (or computed) here on every path.
    fn static_value_note(&self, stmt: InstrId) -> Option<String> {
        let func = self.program.stmt_func(stmt)?;
        let instr = self.program.instr(stmt)?;
        let op = match &instr.op {
            Op::Store { value, .. } => *value,
            other => Operand::Var(other.def()?),
        };
        let v = self.facts.consts().operand_value(func, op)?;
        Some(format!("{v} (static)"))
    }

    /// A human-readable label for the memory accessed by `stmt`.
    fn value_label(&self, stmt: InstrId) -> String {
        if let Some(instr) = self.program.instr(stmt) {
            if let Some(addr) = instr.op.access_addr() {
                return match addr {
                    Operand::Global(g) => self.program.globals[g.index()].name.clone(),
                    Operand::Var(v) => {
                        let f = self
                            .program
                            .stmt_func(stmt)
                            .map(|f| self.program.function(f));
                        f.map(|f| format!("*{}", f.var_name(v)))
                            .unwrap_or_else(|| "value".into())
                    }
                    Operand::Const(c) => format!("*{c}"),
                };
            }
        }
        "value".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;
    use gist_pt::decoder::DecodedTrace;
    use gist_vm::{AccessKind, FailureKind};
    use gist_watch::WatchHit;

    fn mini_program() -> Program {
        parse_program(
            "mini",
            r#"
global x = 0
fn worker(a) {
entry:
  store $x, 0      @ mini.c:20
  ret
}
fn main() {
entry:
  v = load $x      @ mini.c:10
  t = spawn worker(0)
  w = load $x      @ mini.c:12
  assert w, "boom" @ mini.c:13
  join t
  ret
}
"#,
        )
        .unwrap()
    }

    fn build_demo() -> (Program, FailureSketch) {
        let p = mini_program();
        let main = p.function_by_name("main").unwrap();
        let worker = p.function_by_name("worker").unwrap();
        let v_load = main.blocks[0].instrs[0].id;
        let w_load = main.blocks[0].instrs[2].id;
        let assert_s = main.blocks[0].instrs[3].id;
        let store = worker.blocks[0].instrs[0].id;

        let report = FailureReport {
            program: "mini".into(),
            kind: FailureKind::AssertFail { msg: "boom".into() },
            failing_stmt: assert_s,
            tid: 0,
            stack: Vec::new(),
            loc: p.stmt_loc(assert_s),
        };
        let stmts: BTreeSet<InstrId> = [v_load, store, w_load, assert_s].into_iter().collect();
        // Representative failing run: main reads, worker writes, main
        // reads again and asserts.
        let mut decoded = DecodedTrace::default();
        decoded
            .per_core
            .push(vec![(0, v_load), (0, w_load), (0, assert_s)]);
        decoded.per_core.push(vec![(1, store)]);
        let hit = |seq, tid, iid, value, kind| WatchHit {
            seq,
            tid,
            core: tid,
            iid,
            addr: 0x1000,
            value,
            kind,
            slot: 0,
        };
        let rep = RunTrace {
            decoded,
            hits: vec![
                hit(10, 0, v_load, 1, AccessKind::Read),
                hit(20, 1, store, 0, AccessKind::Write),
                hit(30, 0, w_load, 0, AccessKind::Read),
            ],
            executed_tracked: stmts.clone(),
            watch_traps: 3,
            ptrace_ops: 1,
            ..RunTrace::default()
        };
        // Predictors: the RWR interleaving perfectly predicts the failure.
        let stats = vec![PredictorStats {
            predictor: Predictor::Atomicity {
                pattern: gist_predictors::AvPattern::Rwr,
                first: v_load,
                remote: store,
                second: w_load,
            },
            in_failing: 3,
            in_successful: 0,
            total_failing: 3,
            total_successful: 5,
        }];
        let sketch = SketchBuilder::new(&AnalysisCtx::new(&p))
            .with_title("Failure Sketch for mini bug #1")
            .with_class("Concurrency bug")
            .build(&report, &stmts, &rep, &stats, 0.5, None);
        (p, sketch)
    }

    #[test]
    fn interleaving_order_follows_watch_hits() {
        let (p, sketch) = build_demo();
        let main = p.function_by_name("main").unwrap();
        let worker = p.function_by_name("worker").unwrap();
        let order: Vec<InstrId> = sketch.steps.iter().map(|s| s.stmt).collect();
        let v_load = main.blocks[0].instrs[0].id;
        let w_load = main.blocks[0].instrs[2].id;
        let store = worker.blocks[0].instrs[0].id;
        let pos = |s: InstrId| order.iter().position(|&x| x == s).unwrap();
        assert!(pos(v_load) < pos(store), "read before remote write");
        assert!(pos(store) < pos(w_load), "remote write before second read");
    }

    #[test]
    fn failing_stmt_is_last_and_annotated() {
        let (_, sketch) = build_demo();
        let last = sketch.steps.last().unwrap();
        assert_eq!(Some(last.stmt), sketch.failing_stmt);
        assert!(last
            .value_note
            .as_deref()
            .unwrap()
            .contains("Failure (assertion failure)"));
    }

    #[test]
    fn predictor_statements_highlighted() {
        let (p, sketch) = build_demo();
        let worker = p.function_by_name("worker").unwrap();
        let store = worker.blocks[0].instrs[0].id;
        assert!(sketch.is_highlighted(store));
    }

    #[test]
    fn two_thread_columns() {
        let (_, sketch) = build_demo();
        assert_eq!(sketch.threads, vec![0, 1]);
    }

    #[test]
    fn value_column_labeled_from_access() {
        let (_, sketch) = build_demo();
        // Hmm: top value predictor derives from hits? Here only an
        // atomicity predictor was supplied, so no value column.
        assert!(sketch.value_column.is_none());
    }

    #[test]
    fn source_text_used_when_registered() {
        let p = mini_program();
        // No line text registered: falls back to IR rendering.
        let main = p.function_by_name("main").unwrap();
        let (_, sketch) = build_demo();
        let row = sketch
            .steps
            .iter()
            .find(|s| s.stmt == main.blocks[0].instrs[0].id)
            .unwrap();
        assert!(row.text.contains("load"), "IR fallback text: {}", row.text);
        assert_eq!(row.loc, "mini.c:10");
    }

    #[test]
    fn grey_marking_against_ideal() {
        let p = mini_program();
        let main = p.function_by_name("main").unwrap();
        let worker = p.function_by_name("worker").unwrap();
        let v_load = main.blocks[0].instrs[0].id;
        let w_load = main.blocks[0].instrs[2].id;
        let assert_s = main.blocks[0].instrs[3].id;
        let store = worker.blocks[0].instrs[0].id;
        let report = FailureReport {
            program: "mini".into(),
            kind: FailureKind::AssertFail { msg: String::new() },
            failing_stmt: assert_s,
            tid: 0,
            stack: Vec::new(),
            loc: None,
        };
        let stmts: BTreeSet<InstrId> = [v_load, store, w_load, assert_s].into_iter().collect();
        let ideal: BTreeSet<InstrId> = [store, w_load, assert_s].into_iter().collect();
        let mut decoded = DecodedTrace::default();
        decoded
            .per_core
            .push(vec![(0, v_load), (0, w_load), (0, assert_s)]);
        decoded.per_core.push(vec![(1, store)]);
        let rep = RunTrace {
            decoded,
            executed_tracked: stmts.clone(),
            ..RunTrace::default()
        };
        let sketch = SketchBuilder::new(&AnalysisCtx::new(&p)).build(
            &report,
            &stmts,
            &rep,
            &[],
            0.5,
            Some(&ideal),
        );
        let grey: Vec<InstrId> = sketch
            .steps
            .iter()
            .filter(|s| s.grey)
            .map(|s| s.stmt)
            .collect();
        assert_eq!(grey, vec![v_load], "only the non-ideal stmt is grey");
    }
}
