//! Flight-recorder journal contract, in one test binary:
//!
//! 1. Same-seed determinism: two diagnoses of the same bug produce
//!    byte-identical journals — the canonical *binary* journal and its
//!    JSONL export alike (the journal carries no wall-clock fields — only
//!    logical seq-nos, trace ids, and typed payloads).
//! 2. Lossless export: the binary journal decodes back to exactly the
//!    drained records, and the JSONL rendered from the decoded records is
//!    byte-identical to the JSONL rendered from the originals.
//! 3. Golden snapshot: the pbzip2 journal's deterministic digest (kind
//!    counts, trace structure, provenance chains resolved to kinds) is
//!    computed over the **binary-decoded** journal and pinned under
//!    `tests/golden/pbzip2-1.journal` — the golden file predates the
//!    binary format, so a match proves the binary path changes nothing.
//! 4. Provenance coverage: every step of every bugbase sketch has a
//!    non-empty provenance chain whose seq-nos all resolve inside the
//!    diagnosis's own journal, and `gist-trace explain` (the same
//!    `explain_step` path) renders each of them.
//! 5. `repro -- sketch pbzip2-1 --explain` resolves every step's chain
//!    inline: each line reads `#<seq> <kind> k=v…` with a provenance
//!    kind, and each chain ends at the slice criterion.
//!
//! To accept intentional journal-shape changes:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gist-bench --test journal_golden
//! ```
//!
//! One `#[test]` in its own integration binary: the journal is a
//! process-global sink, so this cannot share a process with other
//! event-producing tests.

use std::fmt::Write as _;
use std::path::PathBuf;

use gist_bench::experiments::sketch_for_explained;
use gist_bench::trace_tool::Journal;
use gist_bugbase::{all_bugs, bug_by_name, BugSpec};
use gist_coop::{diagnose_bug, BugEvaluation, EvalConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// A readable line diff: every differing line as `-expected` / `+actual`.
fn line_diff(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            if let Some(e) = e {
                let _ = writeln!(out, "  line {:>3} - {e}", i + 1);
            }
            if let Some(a) = a {
                let _ = writeln!(out, "  line {:>3} + {a}", i + 1);
            }
        }
    }
    out
}

/// The kinds a sketch step's provenance chain can name (hit -> decode ->
/// promotion -> slice criterion).
const CHAIN_KINDS: [&str; 4] = ["watch.hit", "pt.decoded", "ast.promoted", "slice.computed"];

/// Checks the `--explain` render of `name`'s sketch: every step has a
/// non-empty provenance block, every chain line is `#<seq> <kind> k=v…`
/// with a kind from [`CHAIN_KINDS`], and every chain ends at
/// `slice.computed`.
fn explained_sketch_resolves_every_chain(name: &str) {
    let text = sketch_for_explained(name).expect("bug exists");
    assert!(
        !text.contains("<unresolved>") && !text.contains("(no provenance recorded)"),
        "{name}: every chain resolves:\n{text}"
    );
    let (_, provenance) = text
        .split_once("\nProvenance (")
        .unwrap_or_else(|| panic!("{name}: no provenance section:\n{text}"));
    let mut chains: Vec<Vec<&str>> = Vec::new();
    for line in provenance.lines().skip(1) {
        if line.starts_with("  step ") {
            chains.push(Vec::new());
        } else {
            let chain = chains.last_mut().expect("chain lines follow a step line");
            chain.push(line.trim_start());
        }
    }
    assert!(!chains.is_empty(), "{name}: sketch has steps");
    for (i, chain) in chains.iter().enumerate() {
        let step = i + 1;
        assert!(!chain.is_empty(), "{name} step {step}: no provenance block");
        for line in chain {
            let mut words = line.split_whitespace();
            let seq = words.next().and_then(|w| w.strip_prefix('#'));
            let kind = words.next().unwrap_or_default();
            assert!(
                seq.is_some_and(|s| s.parse::<u64>().is_ok())
                    && CHAIN_KINDS.contains(&kind)
                    && words.all(|w| w.contains('=')),
                "{name} step {step}: chain line is not `#<seq> <kind> k=v…`: {line:?}"
            );
        }
        let last = chain.last().and_then(|l| l.split_whitespace().nth(1));
        assert_eq!(
            last,
            Some("slice.computed"),
            "{name} step {step}: chain must end at the slice criterion"
        );
    }
}

/// Diagnoses `bug` against a freshly reset journal and returns the
/// evaluation together with the drained journal: binary bytes, JSONL
/// export, and the parsed view — the parsed view is reconstructed **from
/// the binary bytes**, so every downstream assertion also exercises the
/// wire decode path.
fn diagnose_journaled(bug: &BugSpec) -> (BugEvaluation, Vec<u8>, String, Journal) {
    gist_obs::reset();
    let eval = diagnose_bug(bug, &EvalConfig::default());
    let (events, stats) = gist_obs::journal::drain();
    assert_eq!(stats.events_overwritten, 0, "{}: ring overflowed", bug.name);
    let binary = gist_obs::journal::to_binary(&events, &stats);
    let jsonl = gist_obs::journal::to_jsonl(&events);
    // Lossless export proof: binary -> records -> JSONL must equal the
    // JSONL rendered straight from the drained records.
    let (decoded, decoded_stats) =
        gist_obs::journal::parse_binary(&binary).expect("binary journal parses");
    assert_eq!(decoded, events, "{}: binary decode is lossless", bug.name);
    assert_eq!(decoded_stats, stats, "{}: meta frame round-trips", bug.name);
    assert_eq!(
        gist_obs::journal::to_jsonl(&decoded),
        jsonl,
        "{}: JSONL exported from the binary journal is byte-identical",
        bug.name
    );
    let journal = Journal::load_bytes(&binary).expect("binary journal loads");
    (eval, binary, jsonl, journal)
}

#[test]
fn journal_is_deterministic_and_every_sketch_step_explains() {
    let pbzip2 = bug_by_name("pbzip2-1").expect("pbzip2-1 in bugbase");

    // 1. Byte-identical journals across same-seed runs: binary and JSONL.
    let (_, first_binary, first_jsonl, journal) = diagnose_journaled(&pbzip2);
    let (_, second_binary, second_jsonl, _) = diagnose_journaled(&pbzip2);
    assert!(!first_jsonl.is_empty(), "diagnosis journals events");
    assert_eq!(
        first_binary, second_binary,
        "binary journal must be byte-identical across same-seed diagnoses"
    );
    assert_eq!(
        first_jsonl, second_jsonl,
        "JSONL export must be byte-identical across same-seed diagnoses"
    );

    // 2. Golden digest snapshot for pbzip2-1, computed over the journal
    // reconstructed from the binary bytes (`diagnose_journaled` loads the
    // parsed view via `Journal::load_bytes`). The golden file predates
    // the binary format: matching it proves the wire round-trip preserved
    // the journal exactly.
    let digest = journal.digest();
    let path = golden_dir().join("pbzip2-1.journal");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &digest).expect("write golden journal digest");
    } else {
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "no golden journal digest at {} ({e}); run with UPDATE_GOLDEN=1",
                path.display()
            )
        });
        assert!(
            golden == digest,
            "pbzip2-1 journal digest differs from {} (UPDATE_GOLDEN=1 to accept):\n{}",
            path.display(),
            line_diff(&golden, &digest)
        );
    }

    // 3. Every step of every bugbase sketch has a non-empty provenance
    // chain that resolves inside its own journal and explains.
    for bug in all_bugs() {
        let (eval, _, _, journal) = diagnose_journaled(&bug);
        let label = format!("Failure Sketch for {}", bug.display);
        assert!(
            journal.trace_by_label(&label).is_some(),
            "{}: journal has a trace labeled {label:?}",
            bug.name
        );
        assert!(
            !eval.sketch.steps.is_empty(),
            "{}: sketch has steps",
            bug.name
        );
        for step in &eval.sketch.steps {
            assert!(
                !step.provenance.is_empty(),
                "{} step {}: provenance chain must not be empty",
                bug.name,
                step.step
            );
            for &seq in &step.provenance {
                assert!(
                    journal.event_by_seq(seq).is_some(),
                    "{} step {}: provenance seq #{seq} not in journal",
                    bug.name,
                    step.step
                );
            }
            let lines = journal
                .explain_step(&label, step.step as u64)
                .unwrap_or_else(|e| panic!("{} step {}: explain failed: {e}", bug.name, step.step));
            // The step line plus at least one `<-` evidence line, none
            // of which may be unresolved.
            assert!(
                lines.len() >= 2,
                "{} step {}: {lines:?}",
                bug.name,
                step.step
            );
            assert!(
                !lines.iter().any(|l| l.contains("<unresolved>")),
                "{} step {}: {lines:?}",
                bug.name,
                step.step
            );
        }
    }

    // 4. The inline `--explain` render resolves every chain.
    explained_sketch_resolves_every_chain("pbzip2-1");
}
