//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all                 # everything below, in order
//! repro table1              # Table 1: sizes + latency per bug
//! repro fig9                # accuracy per bug
//! repro fig10               # technique contributions
//! repro fig11               # overhead vs tracked slice size
//! repro fig12               # initial σ tradeoff
//! repro fig13               # rr vs Intel PT full tracing
//! repro overhead            # §5.3 per-bug overhead breakdown
//! repro swtrace             # §6 software-only tracing factors
//! repro ablations           # design-decision ablations (DESIGN.md)
//! repro knobs               # each EvalConfig toggle off alone, at fpi 1
//!                           #   and 6, on the bugbase + 1000 synthetic bugs
//! repro races               # static race candidates per bug
//! repro sketch <bug-name>   # render a failure sketch (e.g. pbzip2-1)
//!   ... sketch <bug> --explain   # + provenance chains from the journal
//! repro bugs                # list bug names
//! repro bench [--out PATH]  # full-bugbase deterministic report
//!                           #   -> BENCH_gist.json (or PATH)
//!                           #   + flight recorder -> JOURNAL_gist.bin
//!                           #   (or PATH.journal.bin)
//! repro bench --synthetic N [--seed S] [--out PATH]
//!                           # N seeded synthetic bugs through the full
//!                           # AsT loop -> SYNTH_bench.json (or PATH) +
//!                           # accuracy table on stdout; exits 1 below
//!                           # the recorded recovery floor
//! ```
//!
//! Each command takes exactly the arguments shown; anything else (an
//! unknown command, flag or extra argument, a flag without its value)
//! exits 2 with a usage line, before any work. `table1`, `fig9`, `all`,
//! and `bench` exit non-zero when any bug's sketch accuracy falls below
//! the floors recorded in `gist_bench::expectations::EXPECTATIONS`;
//! `bench` also exits non-zero when the journal ring overwrote events. A
//! failed write to stdout (a pipe whose reader exited, say) exits 2 with
//! one line on stderr.

use gist_bench::bench_report;
use gist_bench::expectations;
use gist_bench::experiments;
use gist_bench::format;
use gist_bench::outln;
use gist_coop::BugEvaluation;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("all", &[][..]),
    };
    match (cmd, rest) {
        ("all", []) => all(),
        ("table1", []) => table1(),
        ("fig9", []) => fig9(),
        ("bench", _) if rest.iter().any(|a| a == "--synthetic") => synth_bench(rest),
        ("bench", _) => bench(rest),
        ("fig10", []) => fig10(),
        ("fig11", []) => fig11(),
        ("fig12", []) => fig12(),
        ("fig13", []) => fig13(),
        ("overhead", []) => overhead(),
        ("ablations", []) => outln!("{}", gist_bench::ablations::ablations_text()),
        ("knobs", []) => knobs(),
        ("races", []) => outln!("{}", gist_bench::races::races_text()),
        ("swtrace", []) => swtrace(),
        ("bugs", []) => bugs(),
        ("sketch", [name]) => sketch(name, false),
        ("sketch", [name, flag]) if flag == "--explain" => sketch(name, true),
        ("sketch", _) => usage("repro sketch <bug-name> [--explain]"),
        _ => {
            eprintln!("unknown command or arguments: {}", args.join(" "));
            usage("repro [all|table1|fig9|fig10|fig11|fig12|fig13|overhead|swtrace|ablations|knobs|races|bugs|sketch <bug-name> [--explain]|bench ...]");
        }
    }
}

fn all() {
    let evals = experiments::table1();
    outln!("{}", format::table1_text(&evals));
    outln!("{}", format::fig9_text(&evals));
    fig10();
    fig11();
    fig12();
    fig13();
    overhead();
    swtrace();
    for name in ["pbzip2-1", "curl-965", "apache-21287"] {
        outln!("\n=== sketch {name} ===\n");
        if let Some(s) = experiments::sketch_for(name) {
            outln!("{s}");
        }
    }
    gate_accuracy(&evals);
}

/// Renders `name`'s failure sketch, with its provenance chains when
/// `explain`; exits 1 on an unknown bug.
fn sketch(name: &str, explain: bool) {
    let rendered = if explain {
        experiments::sketch_for_explained(name)
    } else {
        experiments::sketch_for(name)
    };
    match rendered {
        Some(s) => outln!("{s}"),
        None => {
            eprintln!("unknown bug '{name}'; try `repro bugs`");
            std::process::exit(1);
        }
    }
}

/// Exits 2 with `usage: {line}` on stderr.
fn usage(line: &str) -> ! {
    eprintln!("usage: {line}");
    std::process::exit(2);
}

/// Exits non-zero, naming each failing bug, when accuracy falls below the
/// recorded per-bug floors (previously `repro` exited 0 on regressions).
fn gate_accuracy(evals: &[BugEvaluation]) {
    let violations = expectations::check(evals);
    if !violations.is_empty() {
        eprintln!("accuracy regression against recorded expectations:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}

fn table1() {
    let evals = experiments::table1();
    outln!("{}", format::table1_text(&evals));
    gate_accuracy(&evals);
}

fn fig9() {
    let evals = experiments::table1();
    outln!("{}", format::fig9_text(&evals));
    gate_accuracy(&evals);
}

/// `bench [--out PATH]`: the full-bugbase report, written to
/// `BENCH_gist.json` unless `--out` names a path; exits 2 on any other
/// argument.
fn bench(args: &[String]) {
    let path = match args {
        [] => "BENCH_gist.json",
        [flag, path] if flag == "--out" => path.as_str(),
        _ => usage("repro bench [--out PATH]"),
    };
    let (report, evals) = bench_report::run(None);
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    // The flight-recorder journal rides along next to the report, named
    // after it (`BENCH_gist.json` -> `JOURNAL_gist.bin`); explore it with
    // `gist-trace summary|grep|explain|query|export`.
    let binary_path = if path == "BENCH_gist.json" {
        "JOURNAL_gist.bin".to_owned()
    } else {
        format!("{path}.journal.bin")
    };
    if let Err(e) = std::fs::write(&binary_path, &report.journal_binary) {
        eprintln!("cannot write {binary_path}: {e}");
        std::process::exit(1);
    }
    outln!(
        "wrote {path} ({} bugs) + {binary_path} ({} bytes)",
        evals.len(),
        report.journal_binary.len()
    );
    let overwritten = report.journal_stats.events_overwritten;
    if overwritten != 0 {
        eprintln!("flight-recorder ring overwrote {overwritten} events: the journal has a gap");
        std::process::exit(1);
    }
    gate_accuracy(&evals);
}

/// `bench --synthetic N [--seed S] [--out PATH]`: the synthetic-bugbase
/// accuracy run, written to `SYNTH_bench.json` unless `--out` names a
/// path (never to the committed `BENCH_gist.json`). The flags come in any
/// order, each at most once and each with its value; the seed defaults
/// to 1. Deterministic for fixed `(N, S)`; exits 1 when recovery falls
/// below the recorded floor.
fn synth_bench(args: &[String]) {
    const USAGE: &str = "repro bench --synthetic N [--seed S] [--out PATH]";
    let (mut n, mut seed, mut path) = (None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage(USAGE) };
        let slot = match flag.as_str() {
            "--synthetic" => &mut n,
            "--seed" => &mut seed,
            "--out" => &mut path,
            _ => usage(USAGE),
        };
        if slot.replace(value.as_str()).is_some() {
            usage(USAGE);
        }
    }
    let parse_u64 = |flag: &str, v: &str| -> u64 {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} wants an unsigned integer, got '{v}'");
            std::process::exit(2);
        })
    };
    let n = parse_u64("--synthetic", n.unwrap_or_else(|| usage(USAGE)));
    let seed = seed.map_or(1, |s| parse_u64("--seed", s));
    let path = path.unwrap_or("SYNTH_bench.json");
    let report = gist_bench::synth_report::run_synth(n, seed);
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    outln!("{}", report.table_text());
    outln!("wrote {path} ({n} synthetic bugs)");
    let violations = expectations::check_synth(&report);
    if !violations.is_empty() {
        eprintln!("synthetic bugbase regression against recorded expectations:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}

fn fig10() {
    outln!("{}", format::fig10_text(&experiments::fig10()));
}

fn fig11() {
    outln!("{}", format::fig11_text(&experiments::fig11(25)));
}

fn fig12() {
    outln!("{}", format::fig12_text(&experiments::fig12()));
}

fn fig13() {
    outln!("{}", format::fig13_text(&experiments::fig13(15)));
}

fn overhead() {
    outln!(
        "{}",
        format::overhead_text(&experiments::overhead_sigma2(30))
    );
}

fn swtrace() {
    outln!("{}", format::swtrace_text(&experiments::swtrace_rows(10)));
}

fn knobs() {
    use gist_bench::ablations::{knob_rows, knobs_text, KNOB_SYNTH_BUGS};
    outln!("{}", knobs_text(&knob_rows(KNOB_SYNTH_BUGS)));
}

fn bugs() {
    for bug in gist_bugbase::all_bugs() {
        outln!(
            "{:<18} {} {} (bug {}) — {:?}",
            bug.name,
            bug.software,
            bug.version,
            bug.bug_id,
            bug.class
        );
    }
}
