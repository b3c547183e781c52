//! Property suite over the synthetic bugbase: every seed in the u64
//! space must yield a verifier-clean program whose injected root cause
//! the static lints flag and the dynamic AsT loop recovers.
//!
//! The vendored proptest has no shrinking, so failures go through the
//! generator's own model shrinker ([`gist_bugbase::synth::shrink`]):
//! scaffold elements are deleted while the violated property keeps
//! failing, and the minimal program + ground truth are archived under
//! `tests/golden/synth-regressions/` before the test panics. Committing
//! the pair turns the repro into a permanent regression test
//! (`synth_regressions.rs` replays every archived fixture).

use std::path::PathBuf;

use gist_analysis::ground_truth as gt;
use gist_analysis::predicted_sketches;
use gist_bugbase::synth::{self, generate, PatternKind, SynthBug};
use gist_coop::{diagnose_synth, EvalConfig};
use proptest::prelude::*;

/// Where shrunk failing programs are archived.
fn regression_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/synth-regressions")
}

/// Shrinks the failing bug's model while `still_fails` holds, archives
/// the minimal program + truth, and returns the panic message.
fn archive_shrunk(bug: &SynthBug, why: &str, still_fails: impl FnMut(&SynthBug) -> bool) -> String {
    let minimal = SynthBug::from_model(synth::shrink(&bug.model, still_fails));
    let dir = regression_dir();
    let _ = std::fs::create_dir_all(&dir);
    let ir_path = dir.join(format!("{}.ir", minimal.name));
    let truth_path = dir.join(format!("{}.truth", minimal.name));
    let truth_text = format!("# {why}\n{}", minimal.truth.render());
    let io = std::fs::write(&ir_path, minimal.text())
        .and_then(|()| std::fs::write(&truth_path, truth_text));
    match io {
        Ok(()) => format!(
            "{}: {why}; shrunk repro archived at {} (commit it to pin the regression)",
            bug.name,
            ir_path.display()
        ),
        Err(e) => format!(
            "{}: {why}; archiving the shrunk repro failed ({e}); model: {:?}",
            bug.name, minimal.model
        ),
    }
}

/// The verifier property on one bug (shared by the checker and the
/// shrink predicate so the repro shrinks against the same oracle).
fn verifier_rejects(bug: &SynthBug) -> bool {
    gist_analysis::has_errors(&gist_analysis::verify(&bug.program))
}

/// The static-lint property: the injected code is reported exactly once
/// and references the injected lines; patterns with a predicted-sketch
/// form also show up in `predict` output with the same code.
fn static_miss(bug: &SynthBug) -> Option<String> {
    let code = bug.truth.code().expect("injected patterns carry a code");
    let diags = gt::lint_all(&bug.program);
    let hist = gt::code_histogram(&diags);
    if hist.get(code) != Some(&1) {
        return Some(format!("expected exactly one {code}, histogram {hist:?}"));
    }
    let on_lines = gt::findings_on_lines(
        &bug.program,
        &diags,
        code,
        synth::SYNTH_FILE,
        &bug.truth.static_lines,
    );
    if on_lines.is_empty() {
        return Some(format!(
            "{code} finding does not reference injected lines {:?}",
            bug.truth.static_lines
        ));
    }
    if let Some(label) = bug.truth.pattern.av_label() {
        if !on_lines
            .iter()
            .any(|d| d.message.contains(&format!("({label})")))
        {
            return Some(format!("GA022 finding does not carry AVIO label ({label})"));
        }
    }
    let predicted = gist_bench::synth_report::predicted_code(bug.truth.pattern);
    if let Some(pcode) = predicted {
        if !predicted_sketches(&bug.program)
            .iter()
            .any(|p| p.code == pcode)
        {
            return Some(format!("no predicted sketch with code {pcode}"));
        }
    }
    None
}

/// The dynamic property: the failure manifests, the converged sketch
/// covers every root-cause line, and (for patterns whose key accesses
/// the sketch timeline orders deterministically) the injected ordering
/// is reproduced exactly.
fn dynamic_miss(bug: &SynthBug) -> Option<String> {
    let eval = diagnose_synth(bug, &EvalConfig::default());
    if !eval.manifested {
        return Some("injected failure never manifested".to_owned());
    }
    if !eval.recovered {
        return Some(format!(
            "sketch missed the root cause (overall {:.1}%):\n{}",
            eval.overall,
            eval.sketch.map(|s| s.render()).unwrap_or_default()
        ));
    }
    if bug.truth.order_lines.len() >= 2
        && bug.truth.pattern != PatternKind::OrderViolation
        && eval.ordering < 100.0
    {
        return Some(format!(
            "sketch reproduces the root cause but not its ordering (A_O {:.1}%)",
            eval.ordering
        ));
    }
    None
}

/// Case counts: the dynamic property runs the full AsT pipeline per
/// case, so it gets the smallest budget (debug builds are ~20x slower).
const VERIFY_CASES: u32 = if cfg!(debug_assertions) { 48 } else { 192 };
const STATIC_CASES: u32 = if cfg!(debug_assertions) { 24 } else { 96 };
const DYNAMIC_CASES: u32 = if cfg!(debug_assertions) { 6 } else { 48 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(VERIFY_CASES))]

    /// (a) Every generated program passes the IR verifier.
    #[test]
    fn every_generated_program_passes_the_verifier(seed in 0u64..u64::MAX) {
        let bug = generate(seed);
        if verifier_rejects(&bug) {
            let msg = archive_shrunk(&bug, "verifier rejects generated program", verifier_rejects);
            prop_assert!(false, "{}", msg);
        }
        let control = synth::generate_control(seed);
        prop_assert!(
            !verifier_rejects(&control),
            "{}: verifier rejects control",
            control.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(STATIC_CASES))]

    /// (c) `gist-analyze lint`/`predict` flag the injected pattern with
    /// the matching GA0xx code on the injected lines.
    #[test]
    fn static_analyses_flag_the_injected_pattern(seed in 0u64..u64::MAX) {
        let bug = generate(seed);
        if let Some(why) = static_miss(&bug) {
            let msg = archive_shrunk(
                &bug,
                &format!("static conformance: {why}"),
                |b| static_miss(b).is_some(),
            );
            prop_assert!(false, "{}", msg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DYNAMIC_CASES))]

    /// (b) The converged dynamic sketch contains the injected root-cause
    /// statements and their ordering.
    #[test]
    fn dynamic_diagnosis_recovers_the_injected_root_cause(seed in 0u64..u64::MAX) {
        let bug = generate(seed);
        if let Some(why) = dynamic_miss(&bug) {
            let msg = archive_shrunk(
                &bug,
                &format!("dynamic recovery: {why}"),
                |b| dynamic_miss(b).is_some(),
            );
            prop_assert!(false, "{}", msg);
        }
    }
}
