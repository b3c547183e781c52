//! Static **predicted failure sketches**: the minimal two-thread
//! statement ordering behind each lint finding, derived purely from the
//! SVFG and the happens-before/MHP relation — no production run needed.
//!
//! The paper's failure sketch (Fig. 1) is a two-column timeline: the
//! statements from each thread that matter for the failure, in the
//! order that makes it fire. The dynamic pipeline reconstructs that
//! order from Intel PT and watchpoint hits; this module *predicts* it
//! from statics alone, so a predicted sketch can be diffed against the
//! dynamic golden sketch as a ground-truth gate on the analysis stack
//! (value flow + feasibility + ordering).
//!
//! One prediction is emitted per cross-thread lint finding, plus a
//! data-race fallback (the top-ranked race candidates) so racy programs
//! whose bug shape no detector names still get their ordering core
//! predicted. Every step carries the thread it runs on; programs with
//! no spawn — the sequential bugbase entries — produce **no**
//! predictions, because every candidate pair lands on one thread.

use gist_ir::{InstrId, Program};

use crate::lint::{
    atomicity_candidates, kind_at, lifetime_pairs, null_flows, order_violations, where_of,
    OrderViolationKind,
};
use crate::mhp::Mhp;
use crate::pass::AnalysisCtx;
use crate::race::AccessKind;

/// One step of a predicted sketch: a statement pinned to a thread slot.
#[derive(Clone, Debug)]
pub struct PredictedStep {
    /// Thread slot (1 or 2) in the two-column sketch.
    pub thread: usize,
    /// The statement.
    pub stmt: InstrId,
    /// Access kind label (`read`/`write`/`free`/`sync`/`access`).
    pub kind: &'static str,
    /// Rendered source location.
    pub loc: String,
    /// Role of the step in the failure ordering.
    pub note: &'static str,
}

/// A predicted two-thread failure ordering for one lint finding.
#[derive(Clone, Debug)]
pub struct PredictedSketch {
    /// The backing finding's code (`GA010` for the race fallback).
    pub code: &'static str,
    /// One-line description of the predicted failure.
    pub title: String,
    /// Labels of the two thread slots (`main` / `worker@<spawn loc>`).
    pub threads: [String; 2],
    /// The statement whose execution completes the failure.
    pub failing: InstrId,
    /// The ordering, failure-inducing first-to-last.
    pub steps: Vec<PredictedStep>,
}

struct SketchBuilder<'a> {
    program: &'a Program,
    mhp: &'a Mhp,
}

impl SketchBuilder<'_> {
    /// The display label of a thread context, with an instance counter
    /// when two live instances of one spawn site race each other.
    fn ctx_label(&self, ctx: usize, instance: Option<usize>) -> String {
        if ctx == 0 {
            return "main".to_owned();
        }
        let site = self.mhp.spawn_sites()[ctx - 1];
        match instance {
            Some(n) => format!("worker#{n}@{}", where_of(self.program, site)),
            None => format!("worker@{}", where_of(self.program, site)),
        }
    }

    /// Builds a sketch from side-annotated statements (side 0 maps to
    /// thread slot T1, side 1 to T2). The two sides must be certified
    /// parallel: some cross-side statement pair has to overlap under a
    /// concrete pair of thread contexts, which also names the columns.
    /// Returns `None` when no such pair exists — a one-thread ordering
    /// is not a sketch.
    fn build(
        &self,
        code: &'static str,
        title: String,
        failing: InstrId,
        stmts: &[(InstrId, usize, &'static str)],
    ) -> Option<PredictedSketch> {
        let mut pair: Option<(usize, usize)> = None;
        'outer: for &(a, sa, _) in stmts {
            for &(b, sb, _) in stmts {
                if sa == 0 && sb == 1 && self.mhp.may_happen_in_parallel(a, b) {
                    if let Some(p) = self.mhp.parallel_ctx_pair(a, b) {
                        pair = Some(p);
                        break 'outer;
                    }
                }
            }
        }
        let (c0, c1) = pair?;
        let threads = if c0 == c1 {
            [self.ctx_label(c0, Some(1)), self.ctx_label(c1, Some(2))]
        } else {
            [self.ctx_label(c0, None), self.ctx_label(c1, None)]
        };
        let steps = stmts
            .iter()
            .map(|&(s, side, note)| PredictedStep {
                thread: side + 1,
                stmt: s,
                kind: kind_at(self.program, s),
                loc: where_of(self.program, s),
                note,
            })
            .collect();
        Some(PredictedSketch {
            code,
            title,
            threads,
            failing,
            steps,
        })
    }
}

/// Predicts failure sketches for every cross-thread lint finding, plus
/// the top-ranked race candidates not already covered by one.
pub fn predicted_sketches(program: &Program) -> Vec<PredictedSketch> {
    let cx = AnalysisCtx::new(program);
    let mhp = cx.mhp();
    if !mhp.has_threads() {
        return Vec::new();
    }
    let b = SketchBuilder { program, mhp };
    let mut out: Vec<PredictedSketch> = Vec::new();
    // Unordered statement pairs already carried by some sketch; the
    // race fallback skips these.
    let mut covered: Vec<(InstrId, InstrId)> = Vec::new();
    fn pair_key(a: InstrId, b: InstrId) -> (InstrId, InstrId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
    let cover = |covered: &mut Vec<(InstrId, InstrId)>, a: InstrId, b: InstrId| {
        covered.push(pair_key(a, b));
    };

    // GA024 order violations: the racing statement overtakes the one
    // that should come first.
    for v in order_violations(&cx) {
        let cell = v.origin.display(program);
        let (title, stmts): (String, [(InstrId, usize, &'static str); 2]) = match v.kind {
            OrderViolationKind::UseBeforeInit => (
                format!("order violation: read of {cell} before its initializing store"),
                [
                    (v.racing, 0, "reads the cell before it is initialized"),
                    (v.expected_first, 1, "initializing store lands too late"),
                ],
            ),
            OrderViolationKind::FreeBeforeUse => (
                format!("order violation: {cell} freed before its last use"),
                [
                    (v.racing, 0, "frees the cell early"),
                    (v.expected_first, 1, "uses the already-freed cell"),
                ],
            ),
        };
        let failing = stmts[1].0;
        if let Some(s) = b.build("GA024", title, failing, &stmts) {
            cover(&mut covered, v.racing, v.expected_first);
            out.push(s);
        }
    }

    // GA020/GA021 cross-thread lifetime pairs: free first, use second.
    for p in lifetime_pairs(&cx) {
        if !p.cross_thread {
            continue;
        }
        let double = kind_at(program, p.used) == "free";
        let cell = p.origin.display(program);
        let (code, title, use_note): (_, _, &'static str) = if double {
            (
                "GA021",
                format!("double free of {cell}"),
                "frees the cell a second time",
            )
        } else {
            (
                "GA020",
                format!("use of {cell} after its racing free"),
                "uses the freed cell",
            )
        };
        let stmts = [(p.free, 0, "frees the cell"), (p.used, 1, use_note)];
        if let Some(s) = b.build(code, title, p.used, &stmts) {
            cover(&mut covered, p.free, p.used);
            out.push(s);
        }
    }

    // GA022 atomicity candidates: the remote interleaves the local pair.
    for c in atomicity_candidates(&cx) {
        let cell = c.origin.display(program);
        let title = format!("atomicity violation ({}) on {cell}", c.pattern.label());
        let stmts = [
            (c.first, 0, "first local access"),
            (c.remote, 1, "remote access interleaves"),
            (c.second, 0, "second local access sees torn state"),
        ];
        if let Some(s) = b.build("GA022", title, c.second, &stmts) {
            cover(&mut covered, c.first, c.remote);
            cover(&mut covered, c.second, c.remote);
            out.push(s);
        }
    }

    // GA023 interleaved null flows: the cross-thread null store lands
    // before the load whose result is dereferenced.
    for n in null_flows(&cx) {
        if !n.interleaved {
            continue;
        }
        let title = "null dereference: a racing store of 0 reaches the pointer load".to_owned();
        let stmts = [
            (n.store, 0, "stores null"),
            (n.load, 1, "loads the null pointer"),
            (n.deref, 1, "dereferences it"),
        ];
        if let Some(s) = b.build("GA023", title, n.deref, &stmts) {
            cover(&mut covered, n.store, n.load);
            out.push(s);
        }
    }

    // Race fallback: the top-ranked candidates whose pairs no detector
    // claimed. The hazard side (free, else write) is listed first as a
    // canonical rendering, but a race prediction is *unordered*: the pair
    // has no happens-before edge, so either interleaving can be the
    // failing one — the dynamic sketch fixes the direction at runtime.
    let mut emitted = 0usize;
    for c in &cx.races().candidates {
        if emitted >= 2 {
            break;
        }
        let key = pair_key(c.first.stmt, c.second.stmt);
        if covered.contains(&key) {
            continue;
        }
        if !mhp.may_happen_in_parallel(c.first.stmt, c.second.stmt) {
            continue;
        }
        let hazard = |k: AccessKind| match k {
            AccessKind::Free => 2,
            AccessKind::Write => 1,
            _ => 0,
        };
        let (hazard_ep, victim_ep) = if hazard(c.first.kind) >= hazard(c.second.kind) {
            (&c.first, &c.second)
        } else {
            (&c.second, &c.first)
        };
        let cell = c.origin.display(program);
        let title = format!("data race on {cell}");
        let stmts = [
            (hazard_ep.stmt, 0, "racing access, unordered with step 2"),
            (
                victim_ep.stmt,
                1,
                "victim access, may run either side of it",
            ),
        ];
        if let Some(s) = b.build("GA010", title, victim_ep.stmt, &stmts) {
            cover(&mut covered, c.first.stmt, c.second.stmt);
            out.push(s);
            emitted += 1;
        }
    }

    out
}

/// Renders a predicted sketch in the two-column spirit of the dynamic
/// sketch report: a header naming the finding, the thread legend, and
/// one line per step in predicted failure order.
pub fn render_prediction(sketch: &PredictedSketch) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "predicted sketch [{}] {}\n",
        sketch.code, sketch.title
    ));
    s.push_str(&format!(
        "  T1 = {}, T2 = {}\n",
        sketch.threads[0], sketch.threads[1]
    ));
    for (i, step) in sketch.steps.iter().enumerate() {
        let marker = if step.stmt == sketch.failing {
            "  <- failure"
        } else {
            ""
        };
        s.push_str(&format!(
            "  step {} [T{}] {:<6} {}  ({}){}\n",
            i + 1,
            step.thread,
            step.kind,
            step.loc,
            step.note,
            marker
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;

    #[test]
    fn sequential_program_has_no_predictions() {
        let p = parse_program(
            "t",
            r#"
fn main() {
entry:
  p = alloc 1
  store p, 7
  free p
  v = load p
  print v
  ret
}
"#,
        )
        .unwrap();
        assert!(
            predicted_sketches(&p).is_empty(),
            "one thread cannot make a two-thread ordering"
        );
    }

    #[test]
    fn racing_free_predicts_free_before_use() {
        let p = parse_program(
            "t",
            r#"
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
  mu = alloc 1
  store q, mu
  t = spawn cons(q)
  free mu
  store q, 0
  join t
  ret
}
"#,
        )
        .unwrap();
        let sketches = predicted_sketches(&p);
        let uaf = sketches
            .iter()
            .find(|s| s.code == "GA020")
            .expect("racing free predicted");
        assert_eq!(uaf.steps.len(), 2);
        assert_eq!(uaf.steps[0].kind, "free");
        assert_ne!(
            uaf.steps[0].thread, uaf.steps[1].thread,
            "the two steps sit on different threads"
        );
        assert_eq!(uaf.failing, uaf.steps[1].stmt);
        let text = render_prediction(uaf);
        assert!(text.contains("predicted sketch [GA020]"), "{text}");
        assert!(text.contains("<- failure"), "{text}");
    }

    #[test]
    fn unlocked_counter_predicts_interleaved_remote() {
        let p = parse_program(
            "t",
            r#"
global counter = 0
global lk = 0
fn worker(arg) {
entry:
  lock $lk
  v = load $counter
  w = add v, 1
  store $counter, w
  unlock $lk
  ret
}
fn main() {
entry:
  t = spawn worker(0)
  a = load $counter
  b = add a, 1
  store $counter, b
  join t
  ret
}
"#,
        )
        .unwrap();
        let sketches = predicted_sketches(&p);
        let av = sketches
            .iter()
            .find(|s| s.code == "GA022")
            .expect("atomicity prediction");
        assert_eq!(av.steps.len(), 3);
        assert_ne!(
            av.steps[0].thread, av.steps[1].thread,
            "the remote step is on the other thread"
        );
        assert_eq!(av.steps[0].thread, av.steps[2].thread);
    }

    #[test]
    fn plain_race_falls_back_to_ga010_prediction() {
        // No lock anywhere, both sides write: no GA022 candidate (no
        // inconsistent locking), but the race fallback still predicts
        // the two-thread core.
        let p = parse_program(
            "t",
            r#"
global g = 0
fn worker(arg) {
entry:
  store $g, 1
  ret
}
fn main() {
entry:
  t = spawn worker(0)
  store $g, 2
  v = load $g
  print v
  join t
  ret
}
"#,
        )
        .unwrap();
        let sketches = predicted_sketches(&p);
        assert!(
            sketches.iter().any(|s| s.code == "GA010"),
            "fallback covers plain races: {:?}",
            sketches.iter().map(|s| s.code).collect::<Vec<_>>()
        );
    }
}
