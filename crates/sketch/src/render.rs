//! Text rendering of failure sketches, in the layout of the paper's
//! Figs. 1, 7 and 8: a time column, one column per thread, and a value
//! column; the best failure predictors are boxed `[[ ... ]]` (the paper's
//! dotted rectangles) and non-ideal prefix statements are prefixed `~`
//! (the paper's grey statements).

use crate::sketch::FailureSketch;

/// Width of each thread column.
const COL_WIDTH: usize = 34;

/// Renders a sketch to text.
pub fn render(sketch: &FailureSketch) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}\n", sketch.title));
    out.push_str(&format!("Type: {}\n\n", sketch.failure_type));

    // Header.
    let mut header = String::from("Time |");
    for t in &sketch.threads {
        header.push_str(&format!(" {:<w$}|", format!("Thread T{t}"), w = COL_WIDTH));
    }
    if let Some(v) = &sketch.value_column {
        header.push_str(&format!(" {v}"));
    }
    out.push_str(&header);
    out.push('\n');
    let mut rule = String::from("-----+");
    for _ in &sketch.threads {
        rule.push_str(&"-".repeat(COL_WIDTH + 1));
        rule.push('+');
    }
    out.push_str(&rule);
    out.push('\n');

    for s in &sketch.steps {
        let mut row = format!("{:>4} |", s.step);
        for &t in &sketch.threads {
            if t == s.tid {
                let mut text = s.text.clone();
                if s.highlight {
                    text = format!("[[ {text} ]]");
                }
                if s.grey {
                    text = format!("~{text}");
                }
                if text.len() > COL_WIDTH {
                    text.truncate(COL_WIDTH - 1);
                    text.push('…');
                }
                row.push_str(&format!(" {text:<COL_WIDTH$}|"));
            } else {
                row.push_str(&format!(" {:<COL_WIDTH$}|", ""));
            }
        }
        if let Some(v) = &s.value_note {
            row.push_str(&format!(" {v}"));
        }
        out.push_str(row.trim_end());
        out.push('\n');
    }

    let flows: Vec<&crate::sketch::SketchStep> = sketch
        .steps
        .iter()
        .filter(|s| s.flow_note.is_some())
        .collect();
    if !flows.is_empty() {
        out.push_str("\nInter-thread value flow:\n");
        for s in flows {
            out.push_str(&format!(
                "  step {:>3}  {}\n",
                s.step,
                s.flow_note.as_deref().unwrap_or_default()
            ));
        }
    }

    if !sketch.predictors.is_empty() {
        out.push_str("\nBest failure predictors (Fβ, β=0.5):\n");
        for p in &sketch.predictors {
            out.push_str(&format!(
                "  [{}] {:?}  P={:.2} R={:.2} F={:.2}\n",
                p.predictor.category(),
                p.predictor,
                p.precision(),
                p.recall(),
                p.f_measure(0.5),
            ));
        }
    }
    out.push_str("\nLegend: [[ ]] failure-predicting difference; ~ not in ideal sketch\n");
    out
}

/// Renders a sketch with its provenance chains (the `--explain` mode):
/// the normal sketch followed by one block per step listing the journal
/// evidence that put it there, most specific first (hit → decode →
/// promotion → slice criterion).
///
/// `resolve` maps a journal seq-no to a one-line description (from a
/// loaded journal); unresolvable seq-nos render as `#<seq> <unresolved>`,
/// and steps with no provenance say so explicitly.
pub fn render_explain(sketch: &FailureSketch, resolve: &dyn Fn(u64) -> Option<String>) -> String {
    let mut out = render(sketch);
    out.push_str("\nProvenance (journal seq-nos; most specific evidence first):\n");
    for s in &sketch.steps {
        out.push_str(&format!("  step {:>3}  {}\n", s.step, s.text.trim_end()));
        if s.provenance.is_empty() {
            out.push_str("        (no provenance recorded)\n");
            continue;
        }
        for &seq in &s.provenance {
            match resolve(seq) {
                Some(line) => out.push_str(&format!("        #{seq:<6} {line}\n")),
                None => out.push_str(&format!("        #{seq:<6} <unresolved>\n")),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::SketchStep;
    use gist_ir::InstrId;

    fn demo_sketch() -> FailureSketch {
        FailureSketch {
            title: "Failure Sketch for pbzip2 bug #1".into(),
            failure_type: "Concurrency bug, segmentation fault".into(),
            value_column: Some("f->mut".into()),
            threads: vec![1, 2],
            steps: vec![
                SketchStep {
                    step: 1,
                    tid: 1,
                    stmt: InstrId(0),
                    text: "queue* f = init(size);".into(),
                    loc: "pbzip2.c:10".into(),
                    highlight: false,
                    grey: false,
                    value_note: None,
                    flow_note: None,
                    provenance: Vec::new(),
                },
                SketchStep {
                    step: 2,
                    tid: 1,
                    stmt: InstrId(1),
                    text: "f->mut = NULL;".into(),
                    loc: "pbzip2.c:21".into(),
                    highlight: true,
                    grey: false,
                    value_note: Some("0".into()),
                    flow_note: None,
                    provenance: vec![4, 2],
                },
                SketchStep {
                    step: 3,
                    tid: 2,
                    stmt: InstrId(2),
                    text: "mutex_unlock(f->mut);".into(),
                    loc: "pbzip2.c:41".into(),
                    highlight: true,
                    grey: false,
                    value_note: Some("0  <- Failure (segfault)".into()),
                    flow_note: Some("value from T1 store at pbzip2.c:21".into()),
                    provenance: vec![7, 2],
                },
            ],
            predictors: Vec::new(),
            failing_stmt: Some(InstrId(2)),
        }
    }

    #[test]
    fn renders_title_and_columns() {
        let text = render(&demo_sketch());
        assert!(text.contains("Failure Sketch for pbzip2 bug #1"));
        assert!(text.contains("Type: Concurrency bug, segmentation fault"));
        assert!(text.contains("Thread T1"));
        assert!(text.contains("Thread T2"));
        assert!(text.contains("f->mut"));
    }

    #[test]
    fn highlights_use_double_brackets() {
        let text = render(&demo_sketch());
        assert!(text.contains("[[ f->mut = NULL; ]]"));
        assert!(text.contains("[[ mutex_unlock(f->mut); ]]"));
        assert!(!text.contains("[[ queue* f"));
    }

    #[test]
    fn statements_appear_in_their_thread_column() {
        let text = render(&demo_sketch());
        // T2's statement must start after T1's column: find the row.
        let row = text
            .lines()
            .find(|l| l.contains("mutex_unlock"))
            .expect("row exists");
        let col_start = row.find("[[ mutex_unlock").unwrap();
        assert!(
            col_start > 6 + 34,
            "T2 statement must be in the second column: {row}"
        );
    }

    #[test]
    fn value_notes_rendered_at_their_step() {
        let text = render(&demo_sketch());
        let row = text.lines().find(|l| l.contains("mutex_unlock")).unwrap();
        assert!(row.contains("Failure (segfault)"));
    }

    #[test]
    fn flow_notes_render_as_a_section() {
        let text = render(&demo_sketch());
        assert!(text.contains("Inter-thread value flow:"));
        assert!(text.contains("step   3  value from T1 store at pbzip2.c:21"));
        // A sketch without flow notes omits the section entirely.
        let mut s = demo_sketch();
        for step in &mut s.steps {
            step.flow_note = None;
        }
        assert!(!render(&s).contains("Inter-thread value flow"));
    }

    #[test]
    fn grey_prefix_marked() {
        let mut s = demo_sketch();
        s.steps[0].grey = true;
        let text = render(&s);
        assert!(text.contains("~queue* f = init(size);"));
    }

    #[test]
    fn explain_lists_provenance_per_step() {
        let resolve = |seq: u64| match seq {
            2 => Some("slice.computed criterion=12".to_owned()),
            4 => Some("watch.hit iid=1 value=0".to_owned()),
            _ => None,
        };
        let text = render_explain(&demo_sketch(), &resolve);
        // The normal sketch still renders up front.
        assert!(text.contains("[[ f->mut = NULL; ]]"));
        // Step 2's chain resolves hit then slice criterion.
        assert!(text.contains("#4      watch.hit iid=1 value=0"));
        assert!(text.contains("#2      slice.computed criterion=12"));
        // Step 3's chain has an unresolvable seq (7) and says so.
        assert!(text.contains("#7      <unresolved>"));
        // Step 1 has no provenance and says so.
        assert!(text.contains("no provenance recorded"));
    }

    #[test]
    fn long_statements_truncated_to_column() {
        let mut s = demo_sketch();
        s.steps[0].text = "x".repeat(100);
        let text = render(&s);
        let row = text.lines().find(|l| l.contains("xxx")).unwrap();
        assert!(row.len() < 120);
        assert!(row.contains('…'));
    }
}
