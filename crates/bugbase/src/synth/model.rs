//! The generator's intermediate model: what to inject and what scaffolding
//! to grow around it.
//!
//! A [`Model`] is the *shrinkable* representation of one synthetic bug:
//! the injected root-cause pattern plus a list of removable scaffold
//! elements (helper functions, extra threads, padding statements). The
//! builder ([`super::build`]) lowers a model into an IR program plus its
//! machine-checkable [`GroundTruth`]; the shrinker ([`super::shrink`])
//! deletes scaffold elements while a failing property keeps failing, so
//! regressions are archived at their minimal size.

use gist_vm::FailureKind;

use super::rng::SplitMix64;

/// The single source file every synthetic program is attributed to.
pub const SYNTH_FILE: &str = "synth.c";

/// The injected root-cause pattern of one synthetic bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatternKind {
    /// Atomicity violation, read – remote write – read (torn snapshot).
    AtomicityRwr,
    /// Atomicity violation, write – remote write – read (clobbered write).
    AtomicityWwr,
    /// Atomicity violation, read – remote write – write (lost update).
    AtomicityRww,
    /// Atomicity violation, write – remote read – write (intermediate
    /// state observed).
    AtomicityWrw,
    /// Order violation: a heap cell used before its (post-spawn) init.
    OrderViolation,
    /// A racing free under a consumer still reading the cell.
    UseAfterFree,
    /// Two threads racing to free the same allocation.
    DoubleFree,
    /// ABBA lock-order inversion between main and a worker.
    Deadlock,
    /// Casper-style null store flowing into a remote dereference.
    NullFlow,
    /// No injected bug: sequential scaffolding only (the negative
    /// control; must diagnose clean).
    Control,
}

/// The five injected pattern families of the issue (plus the control).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// The four serializability-violating interleavings (GA022).
    Atomicity,
    /// Use-before-init order violations (GA024).
    Order,
    /// Use-after-free / double-free lifetime bugs (GA020/GA021).
    Lifetime,
    /// ABBA deadlocks (GA011).
    Deadlock,
    /// Null-flow-into-dereference chains (GA023).
    NullFlow,
    /// No injected bug.
    Control,
}

impl Family {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Family::Atomicity => "atomicity",
            Family::Order => "order",
            Family::Lifetime => "lifetime",
            Family::Deadlock => "deadlock",
            Family::NullFlow => "null-flow",
            Family::Control => "control",
        }
    }
}

impl PatternKind {
    /// Every injectable pattern (everything but the control), in the
    /// order the seed-to-pattern mapping indexes.
    pub const INJECTED: [PatternKind; 9] = [
        PatternKind::AtomicityRwr,
        PatternKind::AtomicityWwr,
        PatternKind::AtomicityRww,
        PatternKind::AtomicityWrw,
        PatternKind::OrderViolation,
        PatternKind::UseAfterFree,
        PatternKind::DoubleFree,
        PatternKind::Deadlock,
        PatternKind::NullFlow,
    ];

    /// The pattern's family.
    pub fn family(self) -> Family {
        match self {
            PatternKind::AtomicityRwr
            | PatternKind::AtomicityWwr
            | PatternKind::AtomicityRww
            | PatternKind::AtomicityWrw => Family::Atomicity,
            PatternKind::OrderViolation => Family::Order,
            PatternKind::UseAfterFree | PatternKind::DoubleFree => Family::Lifetime,
            PatternKind::Deadlock => Family::Deadlock,
            PatternKind::NullFlow => Family::NullFlow,
            PatternKind::Control => Family::Control,
        }
    }

    /// The `gist-analyze` diagnostic code this injection must trigger
    /// (`None` for the control).
    pub fn code(self) -> Option<&'static str> {
        match self {
            PatternKind::AtomicityRwr
            | PatternKind::AtomicityWwr
            | PatternKind::AtomicityRww
            | PatternKind::AtomicityWrw => Some("GA022"),
            PatternKind::OrderViolation => Some("GA024"),
            PatternKind::UseAfterFree => Some("GA020"),
            PatternKind::DoubleFree => Some("GA021"),
            PatternKind::Deadlock => Some("GA011"),
            PatternKind::NullFlow => Some("GA023"),
            PatternKind::Control => None,
        }
    }

    /// The AVIO pattern label for atomicity injections.
    pub fn av_label(self) -> Option<&'static str> {
        match self {
            PatternKind::AtomicityRwr => Some("RWR"),
            PatternKind::AtomicityWwr => Some("WWR"),
            PatternKind::AtomicityRww => Some("RWW"),
            PatternKind::AtomicityWrw => Some("WRW"),
            _ => None,
        }
    }

    /// Stable kebab-case slug (used in bug names and fixture files).
    pub fn slug(self) -> &'static str {
        match self {
            PatternKind::AtomicityRwr => "av-rwr",
            PatternKind::AtomicityWwr => "av-wwr",
            PatternKind::AtomicityRww => "av-rww",
            PatternKind::AtomicityWrw => "av-wrw",
            PatternKind::OrderViolation => "order",
            PatternKind::UseAfterFree => "uaf",
            PatternKind::DoubleFree => "dfree",
            PatternKind::Deadlock => "deadlock",
            PatternKind::NullFlow => "null-flow",
            PatternKind::Control => "control",
        }
    }

    /// Inverse of [`PatternKind::slug`].
    pub fn from_slug(slug: &str) -> Option<PatternKind> {
        PatternKind::INJECTED
            .iter()
            .copied()
            .chain(std::iter::once(PatternKind::Control))
            .find(|p| p.slug() == slug)
    }
}

/// The failure the injection is expected to manifest as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpectedFailure {
    /// An `assert` observing the violated invariant.
    Assert,
    /// A null/invalid dereference.
    SegFault,
    /// A read of a freed cell.
    UseAfterFree,
    /// A second free of the same allocation.
    DoubleFree,
    /// All live threads blocked.
    Deadlock,
}

impl ExpectedFailure {
    /// True if a dynamic failure kind matches this expectation.
    pub fn matches(self, kind: &FailureKind) -> bool {
        matches!(
            (self, kind),
            (ExpectedFailure::Assert, FailureKind::AssertFail { .. })
                | (ExpectedFailure::SegFault, FailureKind::SegFault { .. })
                | (
                    ExpectedFailure::UseAfterFree,
                    FailureKind::UseAfterFree { .. }
                )
                | (ExpectedFailure::DoubleFree, FailureKind::DoubleFree { .. })
                | (ExpectedFailure::Deadlock, FailureKind::Deadlock)
        )
    }

    /// Stable label for serialization.
    pub fn label(self) -> &'static str {
        match self {
            ExpectedFailure::Assert => "assert",
            ExpectedFailure::SegFault => "segfault",
            ExpectedFailure::UseAfterFree => "use-after-free",
            ExpectedFailure::DoubleFree => "double-free",
            ExpectedFailure::Deadlock => "deadlock",
        }
    }

    /// Inverse of [`ExpectedFailure::label`].
    pub fn from_label(label: &str) -> Option<ExpectedFailure> {
        [
            ExpectedFailure::Assert,
            ExpectedFailure::SegFault,
            ExpectedFailure::UseAfterFree,
            ExpectedFailure::DoubleFree,
            ExpectedFailure::Deadlock,
        ]
        .into_iter()
        .find(|e| e.label() == label)
    }
}

/// A removable scaffold thread: a bounded loop bumping its own global.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaffoldThread {
    /// Loop iterations (kept small so failure rates stay healthy).
    pub iters: u32,
}

/// A removable pure helper function called from `main`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaffoldFunc {
    /// Arithmetic bias folded into the helper body.
    pub bias: i64,
}

/// The shrinkable description of one synthetic bug.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    /// The generation seed (also names the bug).
    pub seed: u64,
    /// What to inject.
    pub pattern: PatternKind,
    /// Removable helper functions called from `main`.
    pub helpers: Vec<ScaffoldFunc>,
    /// Removable extra threads (total thread count stays in 2–4 for
    /// injected patterns: main + one bug worker + up to two of these).
    pub spinners: Vec<ScaffoldThread>,
    /// Removable padding statement groups inside the racy window.
    pub pad: u32,
    /// Initial value of the shared cell.
    pub init: i64,
    /// The remote update amount (kept non-zero so updates are visible).
    pub delta: i64,
}

impl Model {
    /// Derives the full model for `seed`: pattern choice and scaffold
    /// shape all come from one SplitMix64 stream.
    pub fn from_seed(seed: u64) -> Model {
        let mut rng = SplitMix64::new(seed);
        let pattern = PatternKind::INJECTED[rng.below(PatternKind::INJECTED.len() as u64) as usize];
        Model::with_pattern_rng(seed, pattern, &mut rng)
    }

    /// Derives the model for `seed` with a forced pattern (used by the
    /// per-family tests; scaffolding still varies with the seed).
    pub fn with_pattern(seed: u64, pattern: PatternKind) -> Model {
        let mut rng = SplitMix64::new(seed);
        let _ = rng.next_u64(); // keep scaffold draws aligned with from_seed
        Model::with_pattern_rng(seed, pattern, &mut rng)
    }

    /// The sequential negative control for `seed`: scaffolding only, no
    /// threads, no injection.
    pub fn control(seed: u64) -> Model {
        let mut model = Model::with_pattern(seed, PatternKind::Control);
        // Sequential by definition: the control must exercise the
        // "no threads -> no concurrency findings" invariants.
        model.spinners.clear();
        model
    }

    fn with_pattern_rng(seed: u64, pattern: PatternKind, rng: &mut SplitMix64) -> Model {
        let helpers = (0..rng.below(3))
            .map(|_| ScaffoldFunc {
                bias: rng.range(1, 9) as i64,
            })
            .collect();
        let spinners = (0..rng.below(3))
            .map(|_| ScaffoldThread {
                iters: rng.range(2, 5) as u32,
            })
            .collect();
        Model {
            seed,
            pattern,
            helpers,
            spinners,
            pad: rng.below(3) as u32,
            init: rng.range(1, 9) as i64,
            delta: rng.range(1, 9) as i64,
        }
    }
}

/// The machine-checkable ground truth emitted alongside each program.
///
/// All line references are into [`SYNTH_FILE`]; every generated statement
/// has its own line, so `(SYNTH_FILE, line)` resolves to exactly the
/// statements of one source-level action (the same line-granular scheme
/// [`crate::BugSpec`] uses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroundTruth {
    /// The injected pattern.
    pub pattern: PatternKind,
    /// The expected failure kind (`None` for the control, which must not
    /// fail at all).
    pub expected: Option<ExpectedFailure>,
    /// The line of the statement where the failure manifests.
    pub failure_line: Option<u32>,
    /// Names of the thread routines involved in the bug (`main` first).
    pub threads: Vec<String>,
    /// Lines a correct sketch must contain (the dynamic recovery gate;
    /// the AsT stop condition).
    pub root_cause_lines: Vec<u32>,
    /// Lines the static finding (`gist-analyze lint`'s GA0xx diagnostic)
    /// must reference. Usually equal to `root_cause_lines`; deadlocks
    /// override it with the full ABBA cycle, which only the static
    /// analysis can see (the dynamic sketch localizes the blocked
    /// acquisition and its mutex provenance).
    pub static_lines: Vec<u32>,
    /// The ideal-sketch lines (accuracy denominator, §5.2 style).
    pub ideal_lines: Vec<u32>,
    /// The ideal partial order of the key accesses in a failing run.
    pub order_lines: Vec<u32>,
}

impl GroundTruth {
    /// An empty truth for `pattern` (the builder fills the line lists).
    pub fn new(pattern: PatternKind) -> GroundTruth {
        GroundTruth {
            pattern,
            expected: None,
            failure_line: None,
            threads: vec!["main".to_owned()],
            root_cause_lines: Vec::new(),
            static_lines: Vec::new(),
            ideal_lines: Vec::new(),
            order_lines: Vec::new(),
        }
    }

    /// The expected `gist-analyze` code (`None` for the control).
    pub fn code(&self) -> Option<&'static str> {
        self.pattern.code()
    }

    /// Renders the truth in the stable text format archived next to
    /// shrunk regression programs (`*.truth`).
    pub fn render(&self) -> String {
        let lines = |v: &[u32]| {
            v.iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut out = String::new();
        out.push_str(&format!("pattern: {}\n", self.pattern.slug()));
        out.push_str(&format!("code: {}\n", self.code().unwrap_or("-")));
        out.push_str(&format!(
            "failure_kind: {}\n",
            self.expected.map(|e| e.label()).unwrap_or("-")
        ));
        out.push_str(&format!(
            "failure_line: {}\n",
            self.failure_line
                .map(|l| l.to_string())
                .unwrap_or_else(|| "-".to_owned())
        ));
        out.push_str(&format!("threads: {}\n", self.threads.join(" ")));
        out.push_str(&format!("root_cause: {}\n", lines(&self.root_cause_lines)));
        out.push_str(&format!("static: {}\n", lines(&self.static_lines)));
        out.push_str(&format!("ideal: {}\n", lines(&self.ideal_lines)));
        out.push_str(&format!("order: {}\n", lines(&self.order_lines)));
        out
    }

    /// Parses the [`GroundTruth::render`] format (regression replay).
    pub fn parse(text: &str) -> Result<GroundTruth, String> {
        let mut truth = GroundTruth::new(PatternKind::Control);
        let mut saw_pattern = false;
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed truth line: {line}"))?;
            let value = value.trim();
            let nums = |v: &str| -> Result<Vec<u32>, String> {
                v.split_whitespace()
                    .map(|t| t.parse::<u32>().map_err(|e| format!("bad line '{t}': {e}")))
                    .collect()
            };
            match key.trim() {
                "pattern" => {
                    truth.pattern = PatternKind::from_slug(value)
                        .ok_or_else(|| format!("unknown pattern '{value}'"))?;
                    saw_pattern = true;
                }
                "code" => {} // derived from the pattern
                "failure_kind" => {
                    truth.expected = if value == "-" {
                        None
                    } else {
                        Some(
                            ExpectedFailure::from_label(value)
                                .ok_or_else(|| format!("unknown failure kind '{value}'"))?,
                        )
                    };
                }
                "failure_line" => {
                    truth.failure_line = if value == "-" {
                        None
                    } else {
                        Some(value.parse().map_err(|e| format!("bad line: {e}"))?)
                    };
                }
                "threads" => {
                    truth.threads = value.split_whitespace().map(str::to_owned).collect();
                }
                "root_cause" => truth.root_cause_lines = nums(value)?,
                "static" => truth.static_lines = nums(value)?,
                "ideal" => truth.ideal_lines = nums(value)?,
                "order" => truth.order_lines = nums(value)?,
                other => return Err(format!("unknown truth key '{other}'")),
            }
        }
        if !saw_pattern {
            return Err("truth file has no pattern line".to_owned());
        }
        Ok(truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_a_pure_function_of_the_seed() {
        for seed in [0, 1, 7, 42, 0xDEAD_BEEF] {
            assert_eq!(Model::from_seed(seed), Model::from_seed(seed));
        }
    }

    #[test]
    fn every_injected_pattern_has_a_code_and_slug_roundtrip() {
        for p in PatternKind::INJECTED {
            assert!(p.code().is_some());
            assert_eq!(PatternKind::from_slug(p.slug()), Some(p));
        }
        assert_eq!(PatternKind::Control.code(), None);
        assert_eq!(
            PatternKind::from_slug(PatternKind::Control.slug()),
            Some(PatternKind::Control)
        );
    }

    #[test]
    fn truth_render_parse_roundtrip() {
        let mut truth = GroundTruth::new(PatternKind::UseAfterFree);
        truth.expected = Some(ExpectedFailure::UseAfterFree);
        truth.failure_line = Some(142);
        truth.threads = vec!["main".to_owned(), "consumer".to_owned()];
        truth.root_cause_lines = vec![130, 142];
        truth.static_lines = vec![130, 142];
        truth.ideal_lines = vec![120, 125, 130, 142];
        truth.order_lines = vec![130, 142];
        let parsed = GroundTruth::parse(&truth.render()).expect("roundtrip");
        assert_eq!(parsed, truth);
    }

    #[test]
    fn control_models_are_sequential() {
        for seed in 0..20 {
            let m = Model::control(seed);
            assert_eq!(m.pattern, PatternKind::Control);
            assert!(m.spinners.is_empty());
        }
    }
}
