//! The failure sketch data structure.

use gist_ir::InstrId;
use gist_predictors::PredictorStats;

/// One row of a failure sketch: a statement executed at a time step by a
/// thread.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchStep {
    /// 1-based time step (paper: "execution steps are enumerated along the
    /// flow of time").
    pub step: usize,
    /// Executing thread.
    pub tid: u32,
    /// The statement.
    pub stmt: InstrId,
    /// Display text (original source line if known, else rendered IR).
    pub text: String,
    /// `file:line` attribution.
    pub loc: String,
    /// Marked as (part of) the best failure predictor — rendered as the
    /// paper's dotted rectangle.
    pub highlight: bool,
    /// Not part of the ideal sketch (the grey prefix of Fig. 8).
    pub grey: bool,
    /// Data value annotation shown in the value column at this step
    /// (e.g. `0` for `f->mut` at the failing step of Fig. 1).
    pub value_note: Option<String>,
    /// Inter-thread value-flow provenance: where the value this step
    /// observes may have been written by *another thread*, per the sparse
    /// value-flow graph's interleaved edges (e.g. `value from T1 store at
    /// pbzip2.c:21`). Rendered as a section under the sketch table.
    pub flow_note: Option<String>,
    /// Provenance chain: flight-recorder journal sequence numbers of the
    /// evidence that put this step in the sketch, most specific first
    /// (watchpoint hit → PT decode → promotion decision → slice
    /// criterion). Resolved by `gist-trace explain` and the `--explain`
    /// render mode.
    pub provenance: Vec<u64>,
}

/// A complete failure sketch.
#[derive(Clone, Debug, Default)]
pub struct FailureSketch {
    /// Title, e.g. `Failure Sketch for pbzip2 bug #1`.
    pub title: String,
    /// The failure classification line, e.g.
    /// `Concurrency bug, segmentation fault`.
    pub failure_type: String,
    /// Label of the tracked value column (e.g. `f->mut`), if any.
    pub value_column: Option<String>,
    /// Rows in time order.
    pub steps: Vec<SketchStep>,
    /// Threads in column order.
    pub threads: Vec<u32>,
    /// The ranked failure predictors backing the highlights (top per
    /// category first).
    pub predictors: Vec<PredictorStats>,
    /// The statement where the failure manifests.
    pub failing_stmt: Option<InstrId>,
}

impl FailureSketch {
    /// Distinct statements in the sketch, in step order.
    pub fn stmts(&self) -> Vec<InstrId> {
        let mut seen = std::collections::HashSet::new();
        self.steps
            .iter()
            .map(|s| s.stmt)
            .filter(|s| seen.insert(*s))
            .collect()
    }

    /// Statements excluding the grey prefix.
    pub fn core_stmts(&self) -> Vec<InstrId> {
        let mut seen = std::collections::HashSet::new();
        self.steps
            .iter()
            .filter(|s| !s.grey)
            .map(|s| s.stmt)
            .filter(|s| seen.insert(*s))
            .collect()
    }

    /// Number of sketch statements (IR unit of Table 1's sketch size).
    pub fn len(&self) -> usize {
        self.stmts().len()
    }

    /// True if the sketch has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The steps of one thread, in time order.
    pub fn thread_steps(&self, tid: u32) -> Vec<&SketchStep> {
        self.steps.iter().filter(|s| s.tid == tid).collect()
    }

    /// True if `stmt` appears highlighted (failure-predicting).
    pub fn is_highlighted(&self, stmt: InstrId) -> bool {
        self.steps.iter().any(|s| s.stmt == stmt && s.highlight)
    }

    /// Drops the steps whose statement fails `keep`, renumbering the
    /// survivors and recomputing the thread columns. The failing statement
    /// is always retained. Returns the number of steps pruned.
    ///
    /// The sketch engine calls this with a reachability predicate derived
    /// from the reaching-definitions analysis: a step with no data or
    /// control path to the failing statement only pads the sketch the
    /// developer reads (§3.4 aims for *concise* sketches).
    pub fn retain_steps(&mut self, keep: impl Fn(InstrId) -> bool) -> usize {
        let before = self.steps.len();
        self.steps
            .retain(|s| Some(s.stmt) == self.failing_stmt || keep(s.stmt));
        for (i, s) in self.steps.iter_mut().enumerate() {
            s.step = i + 1;
        }
        let mut threads: Vec<u32> = self.steps.iter().map(|s| s.tid).collect();
        threads.sort_unstable();
        threads.dedup();
        self.threads = threads;
        before - self.steps.len()
    }

    /// Renders the sketch as text (see [`crate::render`]).
    pub fn render(&self) -> String {
        crate::render::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(step: usize, tid: u32, stmt: u32, grey: bool) -> SketchStep {
        SketchStep {
            step,
            tid,
            stmt: InstrId(stmt),
            text: format!("stmt{stmt}"),
            loc: String::new(),
            highlight: false,
            grey,
            value_note: None,
            flow_note: None,
            provenance: Vec::new(),
        }
    }

    #[test]
    fn stmts_dedup_in_order() {
        let sketch = FailureSketch {
            steps: vec![
                step(1, 0, 5, false),
                step(2, 1, 7, false),
                step(3, 0, 5, false),
            ],
            threads: vec![0, 1],
            ..Default::default()
        };
        assert_eq!(sketch.stmts(), vec![InstrId(5), InstrId(7)]);
        assert_eq!(sketch.len(), 2);
    }

    #[test]
    fn core_stmts_skip_grey() {
        let sketch = FailureSketch {
            steps: vec![step(1, 0, 1, true), step(2, 0, 2, false)],
            threads: vec![0],
            ..Default::default()
        };
        assert_eq!(sketch.core_stmts(), vec![InstrId(2)]);
        assert_eq!(sketch.stmts().len(), 2);
    }

    #[test]
    fn thread_steps_filter_by_tid() {
        let sketch = FailureSketch {
            steps: vec![
                step(1, 0, 1, false),
                step(2, 1, 2, false),
                step(3, 0, 3, false),
            ],
            threads: vec![0, 1],
            ..Default::default()
        };
        assert_eq!(sketch.thread_steps(0).len(), 2);
        assert_eq!(sketch.thread_steps(1).len(), 1);
    }

    #[test]
    fn retain_steps_renumbers_and_keeps_failing_stmt() {
        let mut sketch = FailureSketch {
            steps: vec![
                step(1, 0, 1, false),
                step(2, 1, 2, false),
                step(3, 0, 3, false),
            ],
            threads: vec![0, 1],
            failing_stmt: Some(InstrId(3)),
            ..Default::default()
        };
        // Predicate rejects everything: only the failing stmt survives.
        let pruned = sketch.retain_steps(|s| s == InstrId(1));
        assert_eq!(pruned, 1);
        assert_eq!(sketch.stmts(), vec![InstrId(1), InstrId(3)]);
        assert_eq!(
            sketch.steps.iter().map(|s| s.step).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(sketch.threads, vec![0], "tid 1 column dropped");
    }

    #[test]
    fn highlight_lookup() {
        let mut s = step(1, 0, 9, false);
        s.highlight = true;
        let sketch = FailureSketch {
            steps: vec![s],
            threads: vec![0],
            ..Default::default()
        };
        assert!(sketch.is_highlighted(InstrId(9)));
        assert!(!sketch.is_highlighted(InstrId(1)));
    }
}
