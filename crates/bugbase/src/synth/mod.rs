//! Seeded concurrency-bug synthesizer with machine-checkable ground truth.
//!
//! The hand-built bugbase ([`crate::all_bugs`]) anchors the pipeline to
//! the paper's Table 1; this module scales the accuracy claim from 11
//! fixtures to a *statistical* one: generate N random-but-deterministic
//! multithreaded programs, inject exactly one known root-cause pattern
//! into each (atomicity violations in all four AVIO shapes, order
//! violations, use-after-free, double free, ABBA deadlock, Casper-style
//! null-flow-into-deref), and property-check that the static lints and
//! the full dynamic AsT loop recover the injected cause.
//!
//! Everything is a pure function of the seed: same seed, same program
//! text, same [`GroundTruth`] — on every host. See `DESIGN.md`
//! ("Synthetic bugbase") for the generator grammar and the injection
//! templates.

mod build;
mod model;
mod rng;
mod shrink;

pub use build::build;
pub use model::{
    ExpectedFailure, Family, GroundTruth, Model, PatternKind, ScaffoldFunc, ScaffoldThread,
    SYNTH_FILE,
};
pub use rng::SplitMix64;
pub use shrink::shrink;

use std::collections::BTreeSet;
use std::sync::Arc;

use gist_ir::{InstrId, Program};
use gist_sketch::IdealSketch;
use gist_vm::{CompiledProgram, FailureReport, RunOutcome, SchedulerKind, Vm, VmConfig};

/// The production-workload configuration every synthetic bug runs under
/// (same scheduler shape as the hand-built concurrency bugs). A plain
/// `fn` so it can serve as a fleet `make_config` directly.
pub fn synth_config(seed: u64) -> VmConfig {
    VmConfig {
        scheduler: SchedulerKind::Random {
            seed,
            preempt: 0.55,
        },
        num_cores: 4,
        ..VmConfig::default()
    }
}

/// One generated bug: the program, the model it was lowered from, and
/// its ground truth.
///
/// The API mirrors [`crate::BugSpec`] (owned strings instead of
/// `&'static str`, a [`GroundTruth`] instead of paper numbers) so the
/// evaluation loop treats synthetic and hand-built bugs uniformly.
pub struct SynthBug {
    /// `synth-<seed:08x>-<pattern>`.
    pub name: String,
    /// The generation seed.
    pub seed: u64,
    /// The shrinkable model this program was lowered from.
    pub model: Model,
    /// The generated program.
    pub program: Program,
    /// The machine-checkable ground truth.
    pub truth: GroundTruth,
}

/// Generates the bug for `seed` (pattern chosen by the seed).
pub fn generate(seed: u64) -> SynthBug {
    SynthBug::from_model(Model::from_seed(seed))
}

/// Generates the sequential negative control for `seed`.
pub fn generate_control(seed: u64) -> SynthBug {
    SynthBug::from_model(Model::control(seed))
}

/// Generates the bug for `seed` with a forced pattern.
pub fn generate_with_pattern(seed: u64, pattern: PatternKind) -> SynthBug {
    SynthBug::from_model(Model::with_pattern(seed, pattern))
}

impl SynthBug {
    /// Lowers a model into a bug.
    pub fn from_model(model: Model) -> SynthBug {
        let (program, truth) = build(&model);
        SynthBug {
            name: program.name.clone(),
            seed: model.seed,
            model,
            program,
            truth,
        }
    }

    /// The program's textual form (byte-stable across hosts; the
    /// determinism tests compare it directly).
    pub fn text(&self) -> String {
        gist_ir::printer::print_program(&self.program)
    }

    /// All statements attributed to `synth.c:line`.
    pub fn stmts_at(&self, line: u32) -> Vec<InstrId> {
        stmts_at(&self.program, line)
    }

    fn lines_to_stmts(&self, lines: &[u32]) -> Vec<InstrId> {
        lines.iter().flat_map(|&l| self.stmts_at(l)).collect()
    }

    /// The root-cause statement set (AsT stop condition).
    pub fn root_cause_stmts(&self) -> BTreeSet<InstrId> {
        self.lines_to_stmts(&self.truth.root_cause_lines)
            .into_iter()
            .collect()
    }

    /// The ideal-sketch statement set.
    pub fn ideal_stmts(&self) -> BTreeSet<InstrId> {
        self.lines_to_stmts(&self.truth.ideal_lines)
            .into_iter()
            .collect()
    }

    /// The ideal sketch, resolved to statement ids.
    pub fn ideal_sketch(&self) -> IdealSketch {
        let stmts = self.lines_to_stmts(&self.truth.ideal_lines);
        let access_order = self.lines_to_stmts(&self.truth.order_lines);
        let source_loc = self.program.source_loc_count(stmts.iter());
        IdealSketch {
            stmts,
            access_order,
            source_loc,
        }
    }

    /// Line-granular coverage (one representative statement per line
    /// suffices; same scheme as [`crate::BugSpec::lines_covered`]).
    pub fn lines_covered(&self, stmts: &BTreeSet<InstrId>, lines: &[u32]) -> bool {
        lines_covered(&self.program, stmts, lines)
    }

    /// Line-level root-cause coverage.
    pub fn root_cause_covered(&self, stmts: &BTreeSet<InstrId>) -> bool {
        self.lines_covered(stmts, &self.truth.root_cause_lines)
    }

    /// Searches seeds `0..max_seeds` for a failing run matching the
    /// ground truth (see [`find_failure_in`]).
    pub fn find_failure(&self, max_seeds: u64) -> Option<(u64, FailureReport)> {
        find_failure_in(&self.program, &self.truth, max_seeds)
    }

    /// Fraction of the first `n` seeds that fail.
    pub fn failure_rate(&self, n: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let compiled = Arc::new(CompiledProgram::compile(&self.program));
        let fails = (0..n)
            .filter(|&seed| {
                let mut vm =
                    Vm::with_compiled(&self.program, Arc::clone(&compiled), synth_config(seed));
                matches!(vm.run(&mut []).outcome, RunOutcome::Failed(_))
            })
            .count();
        fails as f64 / n as f64
    }
}

/// All statements of `program` attributed to `synth.c:line` (free
/// function so regression replay can work from a parsed fixture without
/// reconstructing a [`SynthBug`]).
pub fn stmts_at(program: &Program, line: u32) -> Vec<InstrId> {
    let Some(fid) = program.source_map.find_file(SYNTH_FILE) else {
        return Vec::new();
    };
    program
        .all_stmt_ids()
        .filter(|&id| {
            program
                .stmt_loc(id)
                .map(|l| l.file == fid && l.line == line)
                .unwrap_or(false)
        })
        .collect()
}

/// Line-granular coverage over an arbitrary program (see
/// [`SynthBug::lines_covered`]).
pub fn lines_covered(program: &Program, stmts: &BTreeSet<InstrId>, lines: &[u32]) -> bool {
    lines.iter().all(|&l| {
        let line_stmts = stmts_at(program, l);
        !line_stmts.is_empty() && line_stmts.iter().any(|s| stmts.contains(s))
    })
}

/// Runs seeds `0..max_seeds` until the program fails *the injected way*:
/// the failure kind matches the ground truth's expectation and, when the
/// truth pins a failure line, the failing statement sits on it. Failures
/// of the right kind at other sites are kept as a fallback; failures of
/// the wrong kind are skipped entirely (they would indicate a second,
/// uninjected bug — the property suite checks for exactly that).
pub fn find_failure_in(
    program: &Program,
    truth: &GroundTruth,
    max_seeds: u64,
) -> Option<(u64, FailureReport)> {
    let expected = truth.expected?;
    let compiled = Arc::new(CompiledProgram::compile(program));
    let mut fallback: Option<(u64, FailureReport)> = None;
    for seed in 0..max_seeds {
        let mut vm = Vm::with_compiled(program, Arc::clone(&compiled), synth_config(seed));
        if let RunOutcome::Failed(r) = vm.run(&mut []).outcome {
            if !expected.matches(&r.kind) {
                continue;
            }
            let line_matches = match truth.failure_line {
                None => true,
                Some(line) => r
                    .loc
                    .map(|loc| program.source_map.display(loc) == format!("{SYNTH_FILE}:{line}"))
                    .unwrap_or(false),
            };
            if line_matches {
                return Some((seed, r));
            }
            if fallback.is_none() {
                fallback = Some((seed, r));
            }
        }
    }
    fallback
}
