//! `analyze`: `lint_all` plus `predicted_sketches` over a set of 240
//! programs — the 11 bugbase programs, 207 seeded synthetic bugs (23 of
//! each of the 9 injected patterns, so every seed draws the same pattern
//! mix) and 22 clean controls. One pass over the set per segment, so
//! every segment does the same work.
//!
//! Static analysis only (points-to, dataflow, SVFG, MHP, lints): no VM,
//! no fleet and no journal events, so every client-side change should
//! leave it unchanged.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

use gist_analysis::ground_truth::lint_all;
use gist_analysis::{predicted_sketches, render_prediction, Diagnostic, PredictedSketch};
use gist_bench::synth_report::static_check;
use gist_bugbase::synth::{self, PatternKind, SplitMix64, SynthBug};
use gist_bugbase::{all_bugs, BugSpec};
use gist_ir::Program;

use super::{replay_analyses, Bench, Checks};
use crate::layers::Layers;

/// Seeded synthetic bugs per injected pattern, and clean controls.
const PER_PATTERN: usize = 23;
const CONTROLS: usize = 22;

enum Input {
    /// A bugbase program; its predictions must match the golden file.
    Paper(BugSpec),
    /// A synthetic bug; its lints must match the injected ground truth.
    Injected(SynthBug),
    /// A clean control; it must produce no finding and no prediction.
    Control(SynthBug),
}

impl Input {
    fn program(&self) -> &Program {
        match self {
            Input::Paper(b) => &b.program,
            Input::Injected(b) | Input::Control(b) => &b.program,
        }
    }
}

/// Renders predictions as `gist-analyze predict` prints them.
fn render_predictions(sketches: &[PredictedSketch]) -> String {
    if sketches.is_empty() {
        return "no predicted sketches (sequential or fully ordered)\n".to_owned();
    }
    sketches.iter().map(render_prediction).collect()
}

/// A hash of one program's full output, to check that every later
/// analysis repeats the reference output exactly.
fn output_hash(diags: &[Diagnostic], preds: &[PredictedSketch]) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{diags:?}").hash(&mut h);
    render_predictions(preds).hash(&mut h);
    h.finish()
}

pub(crate) struct Analyze {
    inputs: Vec<Input>,
    /// Per input: whether its reference output matches ground truth.
    verdicts: Vec<bool>,
    /// Per input: the hash of its reference output.
    reference: Vec<u64>,
    /// This segment's outputs, checked after the segment.
    outputs: Vec<(usize, Vec<Diagnostic>, Vec<PredictedSketch>)>,
}

impl Analyze {
    pub fn setup(seed: u64) -> Analyze {
        let mut stream = SplitMix64::new(seed);
        let mut inputs: Vec<Input> = all_bugs().into_iter().map(Input::Paper).collect();
        for _ in 0..PER_PATTERN {
            for pattern in PatternKind::INJECTED {
                let bug = synth::generate_with_pattern(stream.next_u64(), pattern);
                inputs.push(Input::Injected(bug));
            }
        }
        inputs.extend(
            (0..CONTROLS).map(|_| Input::Control(synth::generate_control(stream.next_u64()))),
        );
        let mut a = Analyze {
            inputs,
            verdicts: Vec::new(),
            reference: Vec::new(),
            outputs: Vec::new(),
        };
        a.run_segment(0, &mut Vec::new());
        a.outputs.clear();
        a
    }
}

/// Whether `input`'s output matches its ground truth.
fn verdict(input: &Input, diags: &[Diagnostic], preds: &[PredictedSketch]) -> Result<(), String> {
    match input {
        Input::Paper(bug) => {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../tests/golden")
                .join(format!("{}.predict", bug.name));
            let golden = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: cannot read {}: {e}", bug.name, path.display()))?;
            if render_predictions(preds) == golden {
                Ok(())
            } else {
                Err(format!(
                    "{}: predictions differ from {}",
                    bug.name,
                    path.display()
                ))
            }
        }
        Input::Injected(bug) => {
            let c = static_check(bug);
            if c.lint_ok && c.predict_ok != Some(false) {
                Ok(())
            } else {
                Err(format!("{}: lints miss the injected root cause", bug.name))
            }
        }
        Input::Control(bug) => {
            if diags.is_empty() && preds.is_empty() {
                Ok(())
            } else {
                Err(format!("{}: clean control has findings", bug.name))
            }
        }
    }
}

impl Bench for Analyze {
    fn check_inputs(&mut self, checks: &mut Checks) {
        for input in &self.inputs {
            let diags = lint_all(input.program());
            let preds = predicted_sketches(input.program());
            self.reference.push(output_hash(&diags, &preds));
            let result = verdict(input, &diags, &preds);
            self.verdicts.push(result.is_ok());
            if let Err(why) = result {
                checks.violations.push(why);
            }
        }
    }

    fn run_segment(&mut self, _i: usize, requests: &mut Vec<f64>) -> u64 {
        for (idx, input) in self.inputs.iter().enumerate() {
            let program = input.program();
            let t0 = Instant::now();
            let diags = lint_all(program);
            let preds = predicted_sketches(program);
            requests.push(t0.elapsed().as_secs_f64());
            self.outputs.push((idx, diags, preds));
        }
        self.inputs.len() as u64
    }

    fn check_segment(&mut self, i: usize, checks: &mut Checks) {
        for (idx, diags, preds) in self.outputs.drain(..) {
            let repeated = output_hash(&diags, &preds) == self.reference[idx];
            if !repeated {
                checks.violations.push(format!(
                    "segment {i}: {} analyzed differently from the reference run",
                    self.inputs[idx].program().name
                ));
            }
            if !repeated || !self.verdicts[idx] {
                checks.failed += 1;
            }
        }
    }

    fn traced_segment(&mut self, _i: usize, layers: &mut Layers) {
        for input in &self.inputs {
            let program = input.program();
            let diags = layers.time("analysis.lint_ms", || lint_all(program));
            layers.time("analysis.predict_ms", || predicted_sketches(program));
            layers.add("analysis.findings", diags.len() as f64);
            layers.items += 1;
        }
        let conforming = self.verdicts.iter().filter(|&&v| v).count();
        layers.set(
            "analysis.lint_conformance_pct",
            100.0 * conforming as f64 / self.verdicts.len().max(1) as f64,
        );
    }

    fn replays(&mut self, layers: &mut Layers) {
        for input in &self.inputs {
            replay_analyses(layers, input.program());
        }
    }

    fn accounted_timers(&self) -> &'static [&'static str] {
        &["analysis.lint_ms", "analysis.predict_ms"]
    }
}
