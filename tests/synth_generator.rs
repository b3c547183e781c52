//! Generator invariants of the synthetic bugbase (`gist_bugbase::synth`).
//!
//! Three contracts, each directly load-bearing for the statistical
//! accuracy claim of `repro bench --synthetic`:
//!
//! 1. **Determinism** — a bug is a pure function of its seed: same seed,
//!    byte-identical program text and ground truth, and the text parses
//!    back into a program that prints identically (so fixtures can be
//!    archived and replayed).
//! 2. **Injection invariants** — every generated program contains
//!    exactly one root-cause pattern: it manifests the expected failure
//!    kind (but not on every schedule), the lints report exactly the
//!    expected `GA0xx` code on the injected lines, and the sequential
//!    controls diagnose completely clean, statically and dynamically.
//! 3. **Distribution** — all nine injected pattern shapes appear within
//!    a small seed range, so an N=100 bench exercises every family.

use std::collections::BTreeSet;

use gist_analysis::ground_truth as gt;
use gist_analysis::predicted_sketches;
use gist_bugbase::synth::{
    self, generate, generate_control, generate_with_pattern, GroundTruth, Model, PatternKind,
    SynthBug, SYNTH_FILE,
};
use gist_ir::parser::parse_program;
use gist_vm::{RunOutcome, Vm};

/// Seeds used by the per-pattern invariants (kept small: each pattern ×
/// seed runs 40 schedules).
const SAMPLE_SEEDS: [u64; 4] = [0, 1, 5, 7];

#[test]
fn same_seed_means_byte_identical_program_and_truth() {
    for seed in [0, 1, 42, 12345, 0xFEED_FACE] {
        let a = generate(seed);
        let b = generate(seed);
        assert_eq!(a.text(), b.text(), "program text differs for seed {seed}");
        assert_eq!(
            a.truth.render(),
            b.truth.render(),
            "ground truth differs for seed {seed}"
        );
        assert_eq!(Model::from_seed(seed), Model::from_seed(seed));
    }
}

#[test]
fn printed_text_parses_back_and_reprints_identically() {
    for seed in [0, 3, 99] {
        let bug = generate(seed);
        let text = bug.text();
        let reparsed = parse_program(&bug.name, &text)
            .unwrap_or_else(|e| panic!("{}: text does not reparse: {e:?}", bug.name));
        assert_eq!(
            gist_ir::printer::print_program(&reparsed),
            text,
            "{}: print/parse/print is not a fixpoint",
            bug.name
        );
        assert_eq!(
            reparsed.entry,
            reparsed.function_by_name("main").expect("has main").id,
            "{}: reparsed entry is not main",
            bug.name
        );
    }
}

#[test]
fn truth_render_parse_roundtrips_for_generated_bugs() {
    for seed in 0..20u64 {
        let bug = generate(seed);
        let parsed = GroundTruth::parse(&bug.truth.render()).expect("truth parses");
        assert_eq!(parsed, bug.truth, "seed {seed}");
    }
}

#[test]
fn all_nine_patterns_appear_within_100_seeds() {
    let seen: BTreeSet<PatternKind> = (0..100).map(|s| generate(s).truth.pattern).collect();
    for p in PatternKind::INJECTED {
        assert!(seen.contains(&p), "pattern {p:?} absent from seeds 0..100");
    }
}

#[test]
fn every_injection_manifests_but_not_on_every_schedule() {
    for pattern in PatternKind::INJECTED {
        for seed in SAMPLE_SEEDS {
            let bug = generate_with_pattern(seed, pattern);
            let found = bug.find_failure(400);
            assert!(
                found.is_some(),
                "{}: injected failure never manifests",
                bug.name
            );
            let (_, report) = found.unwrap();
            let expected = bug.truth.expected.expect("injected bugs expect a failure");
            assert!(
                expected.matches(&report.kind),
                "{}: manifested {:?}, expected {:?}",
                bug.name,
                report.kind,
                expected
            );
            let rate = bug.failure_rate(40);
            assert!(rate > 0.0, "{}: zero failure rate", bug.name);
            assert!(
                rate < 1.0,
                "{}: fails on every schedule — successful runs are required \
                 for the statistical predictor",
                bug.name
            );
        }
    }
}

#[test]
fn lints_report_exactly_the_injected_code_on_the_injected_lines() {
    for pattern in PatternKind::INJECTED {
        for seed in SAMPLE_SEEDS {
            let bug = generate_with_pattern(seed, pattern);
            let diags = gt::lint_all(&bug.program);
            let code = bug.truth.code().expect("injected patterns have a code");
            let hist = gt::code_histogram(&diags);
            assert_eq!(
                hist.get(code),
                Some(&1),
                "{}: expected exactly one {code}, histogram {hist:?}",
                bug.name
            );
            let on_lines = gt::findings_on_lines(
                &bug.program,
                &diags,
                code,
                SYNTH_FILE,
                &bug.truth.static_lines,
            );
            assert!(
                !on_lines.is_empty(),
                "{}: the {code} finding does not reference the injected lines {:?}",
                bug.name,
                bug.truth.static_lines
            );
            if let Some(label) = pattern.av_label() {
                assert!(
                    on_lines
                        .iter()
                        .any(|d| d.message.contains(&format!("({label})"))),
                    "{}: GA022 finding misclassifies the AVIO shape, want ({label}): {:?}",
                    bug.name,
                    on_lines.iter().map(|d| &d.message).collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn ground_truth_lines_resolve_to_statements_and_threads_to_functions() {
    for seed in 0..30u64 {
        let bug = generate(seed);
        let t = &bug.truth;
        for (label, lines) in [
            ("root_cause", &t.root_cause_lines),
            ("static", &t.static_lines),
            ("ideal", &t.ideal_lines),
            ("order", &t.order_lines),
        ] {
            for &line in lines.iter() {
                assert!(
                    !bug.stmts_at(line).is_empty(),
                    "{}: {label} line {line} has no statements",
                    bug.name
                );
            }
        }
        for name in &t.threads {
            assert!(
                bug.program.function_by_name(name).is_some(),
                "{}: ground-truth thread '{name}' is not a function",
                bug.name
            );
        }
    }
}

#[test]
fn controls_diagnose_clean_statically_and_dynamically() {
    for seed in 0..8u64 {
        let bug = generate_control(seed);
        let diags = gt::lint_all(&bug.program);
        assert!(
            diags.is_empty(),
            "{}: control has findings: {:?}",
            bug.name,
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        );
        assert!(
            predicted_sketches(&bug.program).is_empty(),
            "{}: control has predicted sketches",
            bug.name
        );
        for vs in 0..40u64 {
            let mut vm = Vm::new(&bug.program, synth::synth_config(vs));
            assert!(
                matches!(vm.run(&mut []).outcome, RunOutcome::Finished),
                "{}: control failed under schedule seed {vs}",
                bug.name
            );
        }
    }
}

#[test]
fn generated_programs_pass_the_ir_verifier() {
    for seed in 0..50u64 {
        for bug in [generate(seed), generate_control(seed)] {
            let diags = gist_analysis::verify(&bug.program);
            assert!(
                !gist_analysis::has_errors(&diags),
                "{}: verifier errors: {:?}",
                bug.name,
                diags
            );
        }
    }
}

#[test]
fn shrinking_removes_scaffolding_but_preserves_the_injection() {
    // A property that only needs the pattern: every scaffold element is
    // removable, so the shrunk model is scaffolding-free.
    let model = Model::with_pattern(11, PatternKind::UseAfterFree);
    let shrunk = synth::shrink(&model, |bug: &SynthBug| bug.find_failure(100).is_some());
    assert_eq!(shrunk.pattern, PatternKind::UseAfterFree);
    assert!(shrunk.helpers.is_empty(), "helpers not shrunk: {shrunk:?}");
    assert!(
        shrunk.spinners.is_empty(),
        "spinners not shrunk: {shrunk:?}"
    );
    assert_eq!(shrunk.pad, 0, "pad not shrunk");
    let min = SynthBug::from_model(shrunk);
    assert!(
        min.find_failure(100).is_some(),
        "shrunk program no longer manifests"
    );
}
