//! `gist-analyze` — the static analysis pass pipeline as a standalone tool.
//!
//! Runs the `gist-analysis` passes (IR verifier, lockset race detector,
//! lock-order deadlock detector, dead-store lint) over MiniC programs and
//! prints rustc-style diagnostics. The `lint` subcommand swaps in the
//! value-flow detector suite (use-after-free GA020, double-free GA021,
//! atomicity candidates GA022, null-flow-into-dereference GA023,
//! cross-thread order violations GA024) built on the sparse value-flow
//! graph with path-feasibility pruning and the happens-before/MHP
//! relation. The `predict` subcommand emits static predicted failure
//! sketches: the minimal two-thread orderings behind each cross-thread
//! finding, derived without running the program.
//!
//! ```text
//! gist-analyze <file.minic> [more.minic ...]   # analyze source files
//! gist-analyze --bugbase                       # analyze every bugbase program
//! gist-analyze lint --bugbase                  # value-flow lints, whole bugbase
//! gist-analyze lint --json prog.minic          # machine-readable findings
//! gist-analyze predict --bugbase               # static predicted sketches
//! ```
//!
//! `--json` emits one JSON document (an array of per-program objects) on
//! stdout using the hand-rolled `gist_obs::Json` encoder; the findings are
//! pre-sorted by (severity, location, code, message), so output is
//! byte-identical across runs.
//!
//! Exit status contract (documented in README):
//! * **0** — clean, or *candidate/advisory findings only*: atomicity
//!   candidates (GA022) name a suspicious interleaving window, not a
//!   confirmed bug, and style advisories (dead blocks GA005, write-only
//!   globals GA006) never gate a build.
//! * **1** — at least one confirmed finding: any error-severity
//!   diagnostic, or a confirmed detector warning (GA020/GA021 lifetime,
//!   GA023 null flow, GA024 order violation).
//! * **2** — usage, read, or parse failure, or a failed write to stdout
//!   (for example a pipe whose reader exited): the tool stops at the first
//!   failed write and names it in one line on stderr.

use std::io::{self, Write};

use gist_analysis::{
    default_passes, lint_passes, predicted_sketches, render_prediction, render_report, Diagnostic,
    PassManager, PredictedSketch, Severity,
};
use gist_ir::Program;
use gist_obs::json::Json;

use gist_ir::parser::parse_program;

/// Warning codes that represent confirmed findings rather than
/// candidates or advisories; they drive exit status 1 alongside errors.
const CONFIRMED_WARNINGS: &[&str] = &["GA020", "GA021", "GA023", "GA024"];

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Default,
    Lint,
    Predict,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.first().map(String::as_str) {
        Some("lint") => Mode::Lint,
        Some("predict") => Mode::Predict,
        _ => Mode::Default,
    };
    if mode != Mode::Default {
        args.remove(0);
    }
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    if args.is_empty() {
        eprintln!(
            "usage: gist-analyze [lint|predict] [--json] <file.minic> [more.minic ...] | --bugbase"
        );
        std::process::exit(2);
    }
    let code = match run(mode, json, &args, &mut io::stdout().lock()) {
        Ok(confirmed) => i32::from(confirmed),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Analyzes every program `args` names and writes the reports to `out`.
/// Returns true if any finding is confirmed; exits with status 2 on a
/// read or parse failure. A failed write ends the run with its error.
fn run<W: Write>(mode: Mode, json: bool, args: &[String], out: &mut W) -> io::Result<bool> {
    let mut confirmed = false;
    let mut reports: Vec<Json> = Vec::new();
    let analyze_one =
        |name: &str, program: &Program, reports: &mut Vec<Json>, out: &mut W| match mode {
            Mode::Predict => predict(name, program, json, reports, out),
            m => {
                let passes: fn() -> PassManager = if m == Mode::Lint {
                    lint_passes
                } else {
                    default_passes
                };
                analyze(name, program, passes(), json, reports, out)
            }
        };
    if args.iter().any(|a| a == "--bugbase") {
        for bug in gist_bugbase::all_bugs() {
            if !json {
                writeln!(out, "=== {} ({}) ===", bug.name, bug.display)?;
            }
            confirmed |= analyze_one(bug.name, &bug.program, &mut reports, out)?;
        }
    } else {
        for path in args {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            let name = path
                .rsplit('/')
                .next()
                .and_then(|f| f.split('.').next())
                .unwrap_or("program")
                .to_owned();
            let program = match parse_program(&name, &text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: parse failure\n  --> {path}:{}\n  {}", e.line, e.msg);
                    std::process::exit(2);
                }
            };
            if !json {
                writeln!(out, "=== {path} ===")?;
            }
            confirmed |= analyze_one(path, &program, &mut reports, out)?;
        }
    }
    if json {
        writeln!(out, "{}", Json::Arr(reports).pretty())?;
    }
    out.flush()?;
    Ok(confirmed)
}

/// True when the diagnostic gates exit status 1: an error, or a
/// confirmed-detector warning (not a candidate/advisory).
fn is_confirmed(d: &Diagnostic) -> bool {
    d.severity == Severity::Error || CONFIRMED_WARNINGS.contains(&d.code)
}

/// Runs the pass pipeline over one program. In text mode, writes the
/// rustc-style report to `out`; in JSON mode, appends a per-program
/// object to `reports`. Returns true if any diagnostic is confirmed.
fn analyze(
    name: &str,
    program: &Program,
    pm: PassManager,
    json: bool,
    reports: &mut Vec<Json>,
    out: &mut impl Write,
) -> io::Result<bool> {
    let diags = pm.run(program);
    if json {
        reports.push(program_json(name, program, &diags));
    } else if diags.is_empty() {
        writeln!(out, "ok: no findings ({} passes)", pm.pass_names().len())?;
    } else {
        writeln!(out, "{}", render_report(Some(program), &diags))?;
    }
    Ok(diags.iter().any(is_confirmed))
}

/// Emits the static predicted sketches for one program. Predictions
/// never gate the exit status — they are forecasts, not findings.
fn predict(
    name: &str,
    program: &Program,
    json: bool,
    reports: &mut Vec<Json>,
    out: &mut impl Write,
) -> io::Result<bool> {
    let sketches = predicted_sketches(program);
    if json {
        reports.push(Json::Obj(vec![
            ("program".into(), Json::Str(name.to_owned())),
            (
                "predictions".into(),
                Json::Arr(sketches.iter().map(prediction_json).collect()),
            ),
        ]));
    } else if sketches.is_empty() {
        writeln!(out, "no predicted sketches (sequential or fully ordered)")?;
    } else {
        for s in &sketches {
            write!(out, "{}", render_prediction(s))?;
        }
    }
    Ok(false)
}

/// Encodes one predicted sketch as a JSON object.
fn prediction_json(s: &PredictedSketch) -> Json {
    Json::Obj(vec![
        ("code".into(), Json::Str(s.code.to_owned())),
        ("title".into(), Json::Str(s.title.clone())),
        (
            "threads".into(),
            Json::Arr(s.threads.iter().map(|t| Json::Str(t.clone())).collect()),
        ),
        (
            "steps".into(),
            Json::Arr(
                s.steps
                    .iter()
                    .map(|st| {
                        Json::Obj(vec![
                            ("thread".into(), Json::U64(st.thread as u64)),
                            ("kind".into(), Json::Str(st.kind.to_owned())),
                            ("loc".into(), Json::Str(st.loc.clone())),
                            ("note".into(), Json::Str(st.note.to_owned())),
                            ("failing".into(), Json::Bool(st.stmt == s.failing)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes one program's findings as a JSON object. Diagnostics arrive
/// pre-sorted from the pass manager, so the encoding is deterministic.
fn program_json(name: &str, program: &Program, diags: &[Diagnostic]) -> Json {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let findings = diags
        .iter()
        .map(|d| {
            let where_ = if d.loc.is_unknown() {
                "<unknown>".to_owned()
            } else {
                program.source_map.display(d.loc)
            };
            Json::Obj(vec![
                ("code".into(), Json::Str(d.code.to_owned())),
                ("severity".into(), Json::Str(d.severity.to_string())),
                ("message".into(), Json::Str(d.message.clone())),
                ("where".into(), Json::Str(where_)),
                (
                    "notes".into(),
                    Json::Arr(d.notes.iter().map(|n| Json::Str(n.clone())).collect()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("program".into(), Json::Str(name.to_owned())),
        ("errors".into(), Json::U64(errors as u64)),
        ("warnings".into(), Json::U64((diags.len() - errors) as u64)),
        ("findings".into(), Json::Arr(findings)),
    ])
}
