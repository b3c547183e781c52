//! Bug specifications: program + workload + ground truth + paper numbers.

use std::collections::BTreeSet;
use std::sync::Arc;

use gist_ir::{InstrId, Program};
use gist_sketch::IdealSketch;
use gist_vm::{CompiledProgram, FailureReport, RunOutcome, Vm, VmConfig, VmScratch};

/// Sequential vs concurrency bug (the sketch "Type:" line).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BugClass {
    /// Manifests only under particular thread interleavings.
    Concurrency,
    /// Manifests for particular inputs.
    Sequential,
}

impl BugClass {
    /// Display string for sketch type lines.
    pub fn label(self) -> &'static str {
        match self {
            BugClass::Concurrency => "Concurrency bug",
            BugClass::Sequential => "Sequential bug",
        }
    }
}

/// The paper's Table 1 row for this bug, kept verbatim for EXPERIMENTS.md
/// side-by-side comparison (sizes in the paper's units refer to the
/// *original* C programs, not our miniatures).
#[derive(Clone, Copy, Debug)]
pub struct PaperNumbers {
    /// Software size (sloccount LOC).
    pub software_loc: u64,
    /// Static slice size, source LOC.
    pub slice_src: u64,
    /// Static slice size, LLVM instructions.
    pub slice_instrs: u64,
    /// Ideal sketch size, source LOC.
    pub ideal_src: u64,
    /// Ideal sketch size, LLVM instructions.
    pub ideal_instrs: u64,
    /// Gist-computed sketch size, source LOC.
    pub gist_src: u64,
    /// Gist-computed sketch size, LLVM instructions.
    pub gist_instrs: u64,
    /// Failure recurrences to the best sketch.
    pub recurrences: u64,
    /// End-to-end sketch time, seconds.
    pub time_s: u64,
    /// Offline analysis time, seconds.
    pub offline_s: u64,
}

/// One evaluation bug.
pub struct BugSpec {
    /// Short id, e.g. `apache-21287`.
    pub name: &'static str,
    /// Display name, e.g. `Apache bug #21287`.
    pub display: &'static str,
    /// Software, e.g. `Apache httpd`.
    pub software: &'static str,
    /// Software version from Table 1.
    pub version: &'static str,
    /// Official bug-database id.
    pub bug_id: &'static str,
    /// Concurrency or sequential.
    pub class: BugClass,
    /// The miniature program.
    pub program: Program,
    /// Seeded workload: maps a production-run seed to a VM configuration.
    pub make_config: fn(u64) -> VmConfig,
    /// `(file, line)` pairs forming the ideal failure sketch.
    pub ideal_lines: Vec<(&'static str, u32)>,
    /// `(file, line)` pairs giving the ideal partial order of the key
    /// memory accesses in a *failing* run.
    pub ideal_order_lines: Vec<(&'static str, u32)>,
    /// `(file, line)` pairs a developer must see to fix the bug (the
    /// AsT stop condition used in evaluation).
    pub root_cause_lines: Vec<(&'static str, u32)>,
    /// Preferred failing location: when a bug can crash at several
    /// statements depending on the interleaving, the diagnosis seeds from
    /// the flavor that matches the production bug report (e.g. Apache
    /// #21287 was reported as a double free at the `free`, not as the
    /// use-after-free read some interleavings produce).
    pub prefer_loc: Option<(&'static str, u32)>,
    /// Paper-reported numbers.
    pub paper: PaperNumbers,
}

impl BugSpec {
    /// VM configuration for one production run.
    pub fn vm_config(&self, seed: u64) -> VmConfig {
        (self.make_config)(seed)
    }

    /// All statements attributed to `file:line`.
    pub fn stmts_at(&self, file: &str, line: u32) -> Vec<InstrId> {
        let fid = match self.program.source_map.find_file(file) {
            Some(f) => f,
            None => return Vec::new(),
        };
        self.program
            .all_stmt_ids()
            .filter(|&id| {
                self.program
                    .stmt_loc(id)
                    .map(|l| l.file == fid && l.line == line)
                    .unwrap_or(false)
            })
            .collect()
    }

    fn lines_to_stmts(&self, lines: &[(&'static str, u32)]) -> Vec<InstrId> {
        let mut out = Vec::new();
        for &(f, l) in lines {
            out.extend(self.stmts_at(f, l));
        }
        out
    }

    /// The ideal sketch statement set.
    pub fn ideal_stmts(&self) -> BTreeSet<InstrId> {
        self.lines_to_stmts(&self.ideal_lines).into_iter().collect()
    }

    /// The ideal sketch, resolved to statement ids.
    pub fn ideal_sketch(&self) -> IdealSketch {
        let stmts: Vec<InstrId> = self.lines_to_stmts(&self.ideal_lines);
        let access_order = self.lines_to_stmts(&self.ideal_order_lines);
        let source_loc = self.program.source_loc_count(stmts.iter());
        IdealSketch {
            stmts,
            access_order,
            source_loc,
        }
    }

    /// The statements a developer must see to fix the bug.
    pub fn root_cause_stmts(&self) -> BTreeSet<InstrId> {
        self.lines_to_stmts(&self.root_cause_lines)
            .into_iter()
            .collect()
    }

    /// True if every one of the given source lines has at least one of its
    /// statements in `stmts`. Coverage is *line*-granular: a developer
    /// reading the sketch sees source lines, and one representative
    /// statement per line suffices (e.g. the store of a `x--` line whose
    /// register arithmetic is invisible to tracking).
    pub fn lines_covered(&self, stmts: &BTreeSet<InstrId>, lines: &[(&'static str, u32)]) -> bool {
        lines.iter().all(|&(f, l)| {
            let line_stmts = self.stmts_at(f, l);
            !line_stmts.is_empty() && line_stmts.iter().any(|s| stmts.contains(s))
        })
    }

    /// Line-level root-cause coverage (see [`BugSpec::lines_covered`]).
    pub fn root_cause_covered(&self, stmts: &BTreeSet<InstrId>) -> bool {
        self.lines_covered(stmts, &self.root_cause_lines)
    }

    /// Line-level ideal-sketch coverage.
    pub fn ideal_covered(&self, stmts: &BTreeSet<InstrId>) -> bool {
        self.lines_covered(stmts, &self.ideal_lines)
    }

    /// Runs seeds `0..max_seeds` until the bug manifests; returns the
    /// first failure report and its seed (Gist's input ①). If the spec
    /// names a preferred failing location, failures elsewhere are skipped
    /// while searching (falling back to the first failure seen if the
    /// preferred flavor never shows).
    pub fn find_failure(&self, max_seeds: u64) -> Option<(u64, FailureReport)> {
        let mut runs = bare_runs(&self.program, self.make_config);
        let mut fallback: Option<(u64, FailureReport)> = None;
        for seed in 0..max_seeds {
            if let RunOutcome::Failed(r) = runs(seed) {
                match self.prefer_loc {
                    None => return Some((seed, r)),
                    Some((f, l)) => {
                        let matches = r
                            .loc
                            .map(|loc| self.program.source_map.display(loc) == format!("{f}:{l}"))
                            .unwrap_or(false);
                        if matches {
                            return Some((seed, r));
                        }
                        if fallback.is_none() {
                            fallback = Some((seed, r));
                        }
                    }
                }
            }
        }
        fallback
    }

    /// Fraction of the first `n` seeds that fail (workload diagnostics).
    pub fn failure_rate(&self, n: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let mut runs = bare_runs(&self.program, self.make_config);
        let fails = (0..n)
            .filter(|&seed| matches!(runs(seed), RunOutcome::Failed(_)))
            .count();
        fails as f64 / n as f64
    }

    /// Program size in IR statements (our miniature's "LLVM instructions").
    pub fn program_stmts(&self) -> usize {
        self.program.stmt_count()
    }
}

/// Runs `program` without observers, one seed per call under
/// `config(seed)`: compiled once, and on one recycled [`VmScratch`], as a
/// failure search runs seed after seed.
pub(crate) fn bare_runs(
    program: &Program,
    config: fn(u64) -> VmConfig,
) -> impl FnMut(u64) -> RunOutcome + '_ {
    let compiled = Arc::new(CompiledProgram::compile(program));
    let mut scratch = VmScratch::default();
    move |seed| {
        let mut vm = Vm::with_scratch(
            program,
            Arc::clone(&compiled),
            config(seed),
            std::mem::take(&mut scratch),
        );
        let outcome = vm.run(&mut []).outcome;
        scratch = vm.into_scratch();
        outcome
    }
}

/// All 11 bugs, in Table 1 order.
pub fn all_bugs() -> Vec<BugSpec> {
    vec![
        crate::bugs::apache::apache_1_45605(),
        crate::bugs::apache::apache_2_25520(),
        crate::bugs::apache::apache_3_21287(),
        crate::bugs::apache::apache_4_21285(),
        crate::bugs::cppcheck::cppcheck_1_3238(),
        crate::bugs::cppcheck::cppcheck_2_2782(),
        crate::bugs::curl::curl_965(),
        crate::bugs::transmission::transmission_1818(),
        crate::bugs::sqlite::sqlite_1672(),
        crate::bugs::memcached::memcached_127(),
        crate::bugs::pbzip2::pbzip2_1(),
    ]
}

/// Looks up a bug by its short name.
pub fn bug_by_name(name: &str) -> Option<BugSpec> {
    all_bugs().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eleven_bugs_present() {
        let bugs = all_bugs();
        assert_eq!(bugs.len(), 11);
        let names: Vec<&str> = bugs.iter().map(|b| b.name).collect();
        for expected in [
            "apache-45605",
            "apache-25520",
            "apache-21287",
            "apache-21285",
            "cppcheck-3238",
            "cppcheck-2782",
            "curl-965",
            "transmission-1818",
            "sqlite-1672",
            "memcached-127",
            "pbzip2-1",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn every_bug_has_resolvable_ground_truth() {
        for bug in all_bugs() {
            assert!(
                !bug.ideal_stmts().is_empty(),
                "{}: ideal sketch resolves to no statements",
                bug.name
            );
            assert!(
                !bug.root_cause_stmts().is_empty(),
                "{}: root cause resolves to no statements",
                bug.name
            );
            let ideal = bug.ideal_sketch();
            assert!(
                !ideal.access_order.is_empty(),
                "{}: ideal order empty",
                bug.name
            );
            assert!(ideal.source_loc > 0, "{}: ideal source loc", bug.name);
        }
    }

    #[test]
    fn every_bug_manifests_within_seed_budget() {
        for bug in all_bugs() {
            let found = bug.find_failure(300);
            assert!(found.is_some(), "{} never failed in 300 seeds", bug.name);
        }
    }

    #[test]
    fn every_bug_also_succeeds_sometimes() {
        for bug in all_bugs() {
            let rate = bug.failure_rate(60);
            assert!(
                rate < 1.0,
                "{} fails on every seed (rate {rate}) — needs successful runs too",
                bug.name
            );
            assert!(rate > 0.0, "{} never fails in 60 seeds", bug.name);
        }
    }

    #[test]
    fn failure_class_matches_spec() {
        for bug in all_bugs() {
            let (_, report) = bug.find_failure(300).expect("manifests");
            // The failing statement must be attributed source.
            assert!(
                report.loc.is_some(),
                "{}: failing stmt has no loc",
                bug.name
            );
            // Root cause and failing statement should be distinct, except
            // when the failing statement itself is part of the root cause.
            assert!(!report.stack.is_empty(), "{}: empty stack", bug.name);
        }
    }

    #[test]
    fn bug_lookup_by_name() {
        assert!(bug_by_name("pbzip2-1").is_some());
        assert!(bug_by_name("nope").is_none());
    }

    #[test]
    fn programs_have_scaffolding_beyond_the_slice() {
        // Miniatures still follow Table 1's shape: the ideal sketch is a
        // strict subset of the program.
        for bug in all_bugs() {
            let ideal = bug.ideal_stmts().len();
            let total = bug.program_stmts();
            assert!(
                total >= ideal + 5,
                "{}: program ({total}) should exceed ideal sketch ({ideal})",
                bug.name
            );
        }
    }

    #[test]
    fn paper_numbers_recorded() {
        for bug in all_bugs() {
            assert!(bug.paper.software_loc > 0);
            assert!(bug.paper.recurrences >= 2, "{}", bug.name);
        }
    }
}
