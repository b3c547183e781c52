//! `repro -- bench --synthetic N --seed S`: the synthetic-bugbase
//! accuracy report.
//!
//! Scales the recovery claim from the 11 hand-built fixtures to a
//! statistical one: generate `n` seeded bugs (`gist_bugbase::synth`),
//! drive each through the full AsT loop ([`gist_coop::diagnose_synth`]),
//! check the static lints against the injected ground truth, and
//! aggregate into per-family and overall recovery rates. The report is a
//! pure function of `(n, seed)` — every row, every rate, byte-identical
//! across runs and hosts — so CI diffs two same-seed runs and gates the
//! headline rate against [`crate::expectations::SYNTH_RECOVERY_FLOOR`].

use gist_analysis::ground_truth as gt;
use gist_analysis::predicted_sketches;
use gist_bugbase::synth::{self, PatternKind, SplitMix64, SynthBug, SYNTH_FILE};
use gist_coop::{diagnose_synth, EvalConfig, SynthEvaluation};
use gist_obs::json::Json;

/// Static-lint conformance of one generated bug.
#[derive(Clone, Copy, Debug)]
pub struct StaticCheck {
    /// `gist-analyze lint` reports the injected `GA0xx` code with a
    /// finding that references the injected lines (and, for atomicity,
    /// carries the right AVIO label).
    pub lint_ok: bool,
    /// `gist-analyze predict` emits a sketch with the injected code
    /// (`None` where the pattern has no predicted-sketch form: double
    /// free and deadlock are advisory/report-only).
    pub predict_ok: Option<bool>,
}

/// Runs the static half of the ground-truth contract on one bug.
pub fn static_check(bug: &SynthBug) -> StaticCheck {
    let truth = &bug.truth;
    let diags = gt::lint_all(&bug.program);
    let lint_ok = match truth.code() {
        None => diags.is_empty(),
        Some(code) => {
            let on_lines =
                gt::findings_on_lines(&bug.program, &diags, code, SYNTH_FILE, &truth.static_lines);
            match truth.pattern.av_label() {
                None => !on_lines.is_empty(),
                Some(label) => on_lines
                    .iter()
                    .any(|d| d.message.contains(&format!("({label})"))),
            }
        }
    };
    let predict_ok = predicted_code(truth.pattern).map(|code| {
        let preds = predicted_sketches(&bug.program);
        preds.iter().any(|p| p.code == code)
    });
    StaticCheck {
        lint_ok,
        predict_ok,
    }
}

/// The code `gist-analyze predict` must emit for a pattern, where the
/// pattern has a predicted-sketch form at all.
pub fn predicted_code(pattern: PatternKind) -> Option<&'static str> {
    match pattern {
        PatternKind::AtomicityRwr
        | PatternKind::AtomicityWwr
        | PatternKind::AtomicityRww
        | PatternKind::AtomicityWrw => Some("GA022"),
        PatternKind::OrderViolation => Some("GA024"),
        PatternKind::UseAfterFree => Some("GA020"),
        PatternKind::NullFlow => Some("GA023"),
        PatternKind::DoubleFree | PatternKind::Deadlock | PatternKind::Control => None,
    }
}

/// One synthetic bug's full result: dynamic diagnosis plus static
/// conformance.
#[derive(Clone, Debug)]
pub struct SynthRow {
    /// The dynamic (AsT) evaluation.
    pub eval: SynthEvaluation,
    /// The static (lint/predict) conformance.
    pub stat: StaticCheck,
}

impl SynthRow {
    /// Fully recovered: the dynamic sketch covers the injected root
    /// cause (the headline recovery criterion of the N=200 gate).
    pub fn recovered(&self) -> bool {
        self.eval.manifested && self.eval.recovered
    }
}

/// Aggregate over one pattern family.
#[derive(Clone, Debug)]
pub struct FamilyStats {
    /// Family label.
    pub family: String,
    /// Bugs generated in this family.
    pub count: usize,
    /// Bugs whose sketch covered the root cause.
    pub recovered: usize,
    /// Bugs passing the static lint check.
    pub lint_ok: usize,
    /// Mean overall sketch accuracy (percent).
    pub mean_overall: f64,
}

/// The synthetic-bugbase report: a pure function of `(n, seed)`.
#[derive(Clone, Debug)]
pub struct SynthReport {
    /// Number of injected bugs evaluated.
    pub n: u64,
    /// The master seed (per-bug seeds are drawn from its SplitMix64
    /// stream).
    pub seed: u64,
    /// Per-bug rows, in generation order.
    pub rows: Vec<SynthRow>,
    /// Negative controls checked (statically clean + never fail over the
    /// sampled schedules).
    pub controls: usize,
    /// Controls that were *not* clean (must be 0).
    pub dirty_controls: usize,
}

impl SynthReport {
    /// Recovery rate over injected bugs (percent).
    pub fn recovery_rate(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        100.0 * self.rows.iter().filter(|r| r.recovered()).count() as f64 / self.rows.len() as f64
    }

    /// Static lint conformance rate (percent).
    pub fn lint_rate(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        100.0 * self.rows.iter().filter(|r| r.stat.lint_ok).count() as f64 / self.rows.len() as f64
    }

    /// Mean overall sketch accuracy over injected bugs (percent).
    pub fn mean_overall(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.eval.overall).sum::<f64>() / self.rows.len() as f64
    }

    /// Per-family aggregates, ordered by family label.
    pub fn families(&self) -> Vec<FamilyStats> {
        let mut labels: Vec<&str> = self.rows.iter().map(|r| r.eval.family.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
            .into_iter()
            .map(|label| {
                let rows: Vec<&SynthRow> = self
                    .rows
                    .iter()
                    .filter(|r| r.eval.family == label)
                    .collect();
                FamilyStats {
                    family: label.to_owned(),
                    count: rows.len(),
                    recovered: rows.iter().filter(|r| r.recovered()).count(),
                    lint_ok: rows.iter().filter(|r| r.stat.lint_ok).count(),
                    mean_overall: rows.iter().map(|r| r.eval.overall).sum::<f64>()
                        / rows.len().max(1) as f64,
                }
            })
            .collect()
    }

    /// The report as a JSON value (the `BENCH_gist.json` payload for
    /// synthetic runs). Deterministic: no wall-clock data.
    pub fn to_value(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.eval.bug.clone(),
                    Json::Obj(vec![
                        ("seed".into(), Json::U64(r.eval.seed)),
                        ("family".into(), Json::Str(r.eval.family.clone())),
                        ("pattern".into(), Json::Str(r.eval.pattern.clone())),
                        ("manifested".into(), Json::Bool(r.eval.manifested)),
                        ("recovered".into(), Json::Bool(r.recovered())),
                        ("lint_ok".into(), Json::Bool(r.stat.lint_ok)),
                        (
                            "predict_ok".into(),
                            match r.stat.predict_ok {
                                None => Json::Null,
                                Some(b) => Json::Bool(b),
                            },
                        ),
                        ("relevance".into(), Json::F64(r.eval.relevance)),
                        ("ordering".into(), Json::F64(r.eval.ordering)),
                        ("overall".into(), Json::F64(r.eval.overall)),
                        ("iterations".into(), Json::U64(r.eval.iterations as u64)),
                        ("total_runs".into(), Json::U64(r.eval.total_runs as u64)),
                        (
                            "sketch_instrs".into(),
                            Json::U64(r.eval.sketch_instrs as u64),
                        ),
                    ]),
                )
            })
            .collect();
        let families = self
            .families()
            .into_iter()
            .map(|f| {
                (
                    f.family.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::U64(f.count as u64)),
                        ("recovered".into(), Json::U64(f.recovered as u64)),
                        ("lint_ok".into(), Json::U64(f.lint_ok as u64)),
                        ("mean_overall".into(), Json::F64(f.mean_overall)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("gist-bench-synth/v1".into())),
            ("n".into(), Json::U64(self.n)),
            ("seed".into(), Json::U64(self.seed)),
            ("recovery_rate".into(), Json::F64(self.recovery_rate())),
            ("lint_rate".into(), Json::F64(self.lint_rate())),
            ("mean_overall".into(), Json::F64(self.mean_overall())),
            ("controls".into(), Json::U64(self.controls as u64)),
            (
                "dirty_controls".into(),
                Json::U64(self.dirty_controls as u64),
            ),
            ("families".into(), Json::Obj(families)),
            ("bugs".into(), Json::Obj(rows)),
        ])
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// The human-readable accuracy table (the `SYNTH_accuracy` CI
    /// artifact). Deterministic for fixed `(n, seed)`.
    pub fn table_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Synthetic bugbase: n={} master seed={}\n\n",
            self.n, self.seed
        ));
        out.push_str(&format!(
            "{:<12} {:>6} {:>10} {:>8} {:>13}\n",
            "family", "bugs", "recovered", "lint", "mean overall"
        ));
        for f in self.families() {
            out.push_str(&format!(
                "{:<12} {:>6} {:>7}/{:<2} {:>5}/{:<2} {:>11.1}%\n",
                f.family, f.count, f.recovered, f.count, f.lint_ok, f.count, f.mean_overall
            ));
        }
        out.push_str(&format!(
            "\nrecovery {:.1}%  lint {:.1}%  mean overall {:.1}%  controls {}/{} clean\n",
            self.recovery_rate(),
            self.lint_rate(),
            self.mean_overall(),
            self.controls - self.dirty_controls,
            self.controls,
        ));
        out
    }
}

/// Schedules sampled per control when checking that a control never
/// fails (cheap but catches any generator bug that injects concurrency
/// into the sequential control).
const CONTROL_RUNS: u64 = 20;

fn control_is_clean(bug: &SynthBug) -> bool {
    use gist_vm::{RunOutcome, Vm};
    let diags = gt::lint_all(&bug.program);
    if !diags.is_empty() || !predicted_sketches(&bug.program).is_empty() {
        return false;
    }
    (0..CONTROL_RUNS).all(|s| {
        let mut vm = Vm::new(&bug.program, synth::synth_config(s));
        matches!(vm.run(&mut []).outcome, RunOutcome::Finished)
    })
}

/// Runs the synthetic bench: `n` injected bugs (seeds drawn from the
/// `seed` stream) through the full pipeline, plus `n/10 + 1` negative
/// controls. Returns the deterministic report.
pub fn run_synth(n: u64, seed: u64) -> SynthReport {
    let cfg = EvalConfig::default();
    let mut stream = SplitMix64::new(seed);
    let mut rows = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let bug = synth::generate(stream.next_u64());
        let eval = diagnose_synth(&bug, &cfg);
        let stat = static_check(&bug);
        rows.push(SynthRow { eval, stat });
    }
    let controls = (n / 10 + 1) as usize;
    let dirty_controls = (0..controls)
        .filter(|_| {
            let bug = synth::generate_control(stream.next_u64());
            !control_is_clean(&bug)
        })
        .count();
    SynthReport {
        n,
        seed,
        rows,
        controls,
        dirty_controls,
    }
}
